// Per-epoch cluster lattice aggregation (paper §3.1).
//
// For every session we bump {total, per-metric problem} counters in every
// lattice cell the session belongs to: all non-empty subsets of its seven
// attribute values (127 cells, optionally capped by arity).  The result is
// one indexed cell store per epoch mapping packed ClusterKey -> dense cell
// id -> ClusterStats, plus the epoch's global counters (the lattice root).
//
// Aggregation runs in two passes.  Pass 1 (fold_sessions, or the columnar
// fold_sessions_columns in columns.h) folds sessions onto their distinct
// full-arity leaves, one hash bump per session.  Pass 2 (expand_fold)
// expands each *distinct* leaf across its projections, adding the leaf's
// whole counter block per cell, so its cost scales with distinct leaves
// rather than sessions.
//
// Pass 2 is a mask-major smallest-parent aggregation DAG.  Masks are
// folded tier by tier in decreasing arity; each mask batch-projects the
// cells of its cheapest already-aggregated superset (or the sorted leaves)
// with the expand_kernels.h SIMD kernels and folds equal projected keys by
// linear run-length scan, radix-sorting the (projected key, source row)
// pairs first where the source order doesn't already group them.  It is
// hash-free, and it can shard whole masks of one arity tier across a
// ThreadPool.  Dense ids come out in the canonical (mask-major,
// key-ascending) order, identical at any worker/shard count and kernel.
//
// Cells are stored *indexed*: dense uint32 id -> ClusterStats in one
// contiguous vector, with keys resolved by binary search within the key's
// mask group.  As a byproduct of pass 2, expand_fold records a
// LeafCellIndex — for every distinct leaf, the dense ids of its
// materialised projections — which lets the critical-cluster analysis
// (critical_cluster.h) run its per-leaf sweep as plain array gathers over
// precomputed per-metric flag bitsets.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/batch_kernel.h"
#include "src/core/session.h"
#include "src/util/flat_hash_map.h"

namespace vq {

class ThreadPool;

/// Counters for one cluster within one epoch.
struct ClusterStats {
  std::uint32_t sessions = 0;
  std::array<std::uint32_t, kNumMetrics> problems{};

  [[nodiscard]] double problem_ratio(Metric m) const noexcept {
    return sessions == 0
               ? 0.0
               : static_cast<double>(
                     problems[static_cast<std::uint8_t>(m)]) /
                     static_cast<double>(sessions);
  }

  ClusterStats& operator+=(const ClusterStats& o) noexcept {
    sessions += o.sessions;
    for (int m = 0; m < kNumMetrics; ++m) problems[m] += o.problems[m];
    return *this;
  }

  friend bool operator==(const ClusterStats&, const ClusterStats&) = default;

  /// Saturating subtraction (used by the critical-cluster removal test).
  [[nodiscard]] ClusterStats minus(const ClusterStats& o) const noexcept;
};

/// Dense-id cell store: keys laid out in canonical (mask-major,
/// key-ascending) dense-id order with the ClusterStats in one contiguous
/// vector keyed by id.  Lookups binary-search the key's mask group, so
/// reads are hash-free, allocation-free, and safe from concurrent threads.
/// Iteration order is id order.  Built once per epoch by expand_fold and
/// immutable afterwards.
class CellStore {
 public:
  /// Sentinel for "no cell" in id-typed contexts.
  static constexpr std::uint32_t kNoCell = ~std::uint32_t{0};

  /// Builds a store from the mask-major expansion's canonical arrays:
  /// keys/stats in (mask-major, key-ascending) dense-id order, with
  /// `mask_offsets[m] .. mask_offsets[m + 1]` delimiting mask m's id range
  /// (the final entry must equal keys.size()).  Throws
  /// std::invalid_argument on inconsistent array shapes.
  static CellStore from_mask_major(
      std::vector<std::uint64_t> keys, std::vector<ClusterStats> stats,
      const std::array<std::uint32_t, kFullMask + 2>& mask_offsets);

  [[nodiscard]] std::size_t size() const noexcept { return stats_.size(); }
  [[nodiscard]] bool empty() const noexcept { return stats_.empty(); }

  /// Dense id for `raw`, or kNoCell when absent.
  [[nodiscard]] std::uint32_t id_of(std::uint64_t raw) const noexcept;

  [[nodiscard]] const ClusterStats* find(std::uint64_t raw) const noexcept {
    const std::uint32_t id = id_of(raw);
    return id == kNoCell ? nullptr : &stats_[id];
  }

  [[nodiscard]] bool contains(std::uint64_t raw) const noexcept {
    return id_of(raw) != kNoCell;
  }

  [[nodiscard]] std::uint64_t key(std::uint32_t id) const noexcept {
    return keys_[id];
  }
  [[nodiscard]] const ClusterStats& cell(std::uint32_t id) const noexcept {
    return stats_[id];
  }
  [[nodiscard]] std::span<const std::uint64_t> keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] std::span<const ClusterStats> cells() const noexcept {
    return stats_;
  }

  /// Invokes fn(raw_key, stats) for every cell in dense-id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t id = 0; id < stats_.size(); ++id) {
      fn(keys_[id], stats_[id]);
    }
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<ClusterStats> stats_;
  /// Id range of mask m is [mask_offsets_[m], mask_offsets_[m + 1]);
  /// keys_ ascend within each range.
  std::array<std::uint32_t, kFullMask + 2> mask_offsets_{};
};

/// Byproduct of the pass-2 expansion: for every distinct leaf, the dense
/// cell ids of its materialised projections.  Leaves are sorted by
/// ascending raw key — the canonical order the critical extraction iterates
/// in, which is what makes sharded and serial runs bit-identical (see
/// critical_cluster.h).  Rows are row-major: row i holds
/// cell_rows[i * masks.size() + j] = id of leaf i projected onto masks[j].
struct LeafCellIndex {
  std::vector<std::uint8_t> masks;       // materialised masks, ascending
  std::vector<std::uint64_t> leaf_keys;  // distinct leaves, ascending raw
  std::vector<ClusterStats> leaf_stats;  // parallel to leaf_keys
  std::vector<std::uint32_t> cell_rows;  // leaf_keys.size() x masks.size()

  [[nodiscard]] bool empty() const noexcept { return leaf_keys.empty(); }
  [[nodiscard]] std::size_t num_leaves() const noexcept {
    return leaf_keys.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> row(
      std::size_t leaf) const noexcept {
    return std::span{cell_rows}.subspan(leaf * masks.size(), masks.size());
  }
};

struct ClusterEngineConfig {
  /// Largest attribute-subset size to materialise. kNumDims materialises the
  /// full 127-cell lattice (default, what the paper's method implies); lower
  /// caps trade fidelity for speed (explored in the perf benches).
  int max_arity = kNumDims;
  /// Kernel selection for the batch projections; kScalar forces the
  /// portable fallback (differential-tested against kAuto).
  BatchKernel expand_kernel = BatchKernel::kAuto;
};

/// All cluster statistics of one epoch.
struct EpochClusterTable {
  std::uint32_t epoch = 0;
  ClusterStats root;  // the epoch's global counters
  CellStore clusters;
  /// Per-leaf projection rows (built by expand_fold).
  LeafCellIndex leaf_index;

  [[nodiscard]] double global_ratio(Metric m) const noexcept {
    return root.problem_ratio(m);
  }

  /// Stats for a key; zeros when the cluster never appeared.
  [[nodiscard]] ClusterStats stats(const ClusterKey& key) const noexcept;
};

/// Pass-1 output: sessions folded onto their distinct full-arity leaves.
/// `leaves` maps ClusterKey::pack(kFullMask, attrs).raw() to the combined
/// counters of every session sharing that leaf; `root` is their sum.
struct LeafFold {
  std::uint32_t epoch = 0;
  ClusterStats root;
  FlatMap64<ClusterStats> leaves;
};

/// Folds one epoch's sessions into their distinct leaves (one hash op per
/// session). All sessions must carry the same epoch id as `epoch`.
[[nodiscard]] LeafFold fold_sessions(std::span<const Session> sessions,
                                     const ProblemThresholds& thresholds,
                                     std::uint32_t epoch);

/// Expands a leaf fold into the full cluster table and its LeafCellIndex
/// (pass 2).  With `pool` non-null and `shards > 1` the expansion shards
/// whole masks within each arity tier; the table (dense ids included) is
/// identical to the serial expansion for any shard count.
[[nodiscard]] EpochClusterTable expand_fold(const LeafFold& fold,
                                            const ClusterEngineConfig& config,
                                            ThreadPool* pool = nullptr,
                                            std::size_t shards = 1);

/// Aggregates one epoch's sessions into a cluster table: fold_sessions,
/// then expand_fold. All sessions must carry the same epoch id as `epoch`.
[[nodiscard]] EpochClusterTable aggregate_epoch(
    std::span<const Session> sessions, const ProblemThresholds& thresholds,
    const ClusterEngineConfig& config, std::uint32_t epoch);

/// The non-empty attribute masks the engine materialises for a given cap,
/// in ascending mask order.
[[nodiscard]] std::vector<std::uint8_t> lattice_masks(int max_arity);

}  // namespace vq
