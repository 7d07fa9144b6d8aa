// Per-epoch cluster lattice aggregation (paper §3.1).
//
// For every session we bump {total, per-metric problem} counters in every
// lattice cell the session belongs to: all non-empty subsets of its seven
// attribute values (127 cells, optionally capped by arity).  The result is
// one indexed cell store per epoch mapping packed ClusterKey -> dense cell
// id -> ClusterStats, plus the epoch's global counters (the lattice root).
//
// Aggregation runs in two passes.  Pass 1 (fold_sessions_columns in
// columns.h; fold_sessions converts rows and calls it) folds sessions onto
// their distinct full-arity leaves, one hash bump per session.  Pass 2
// (expand_fold) expands the distinct leaves into the cells of the lattice,
// so its cost scales with distinct leaves rather than sessions.
//
// Pass 2 builds an *iceberg*: only the cells whose session count reaches a
// floor.  §3.1 makes a cell below min_sessions irrelevant to every later
// stage — it cannot be a problem cluster, veto a candidate, or be an
// ancestor of one — so analyze_epoch passes min_sessions as the floor, and
// a floor of 1 materialises the full lattice.  The kernel is bottom-up
// partitioning (BUC, Beyer & Ramakrishnan, SIGMOD 1999): the sorted leaves
// are partitioned by one dimension at a time, highest dimension first, by
// counting sort (std::sort for small partitions), and the recursion
// descends only into runs whose sessions reach the floor, since a cell can
// reach it only if every one-dimension-coarser projection does.  A
// partition holding one leaf emits all its remaining projections directly.
// Visiting dimensions in descending order makes each mask's cells come out
// key-ascending, so dense ids are canonical (mask-major, key-ascending)
// without a sort.  Sharding hands whole first-dimension subtrees to a
// ThreadPool; the table is identical at any shard count.
//
// Cells are stored *indexed*: dense uint32 id -> ClusterStats in one
// contiguous vector, with keys resolved by binary search within the key's
// mask group.  As a byproduct of pass 2, expand_fold records a
// LeafCellIndex — for every distinct leaf, the set of masks whose
// projection is a cell and those cells' dense ids — which lets the
// critical-cluster analysis (critical_cluster.h) run its per-leaf sweep as
// plain array gathers over precomputed per-metric flag bitsets.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/attributes.h"
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

  /// Builds a store from the expansion's canonical arrays:
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

/// 128-bit set over the subset lattice; bit index is the mask value.
struct MaskBits {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  void set(unsigned m) noexcept {
    (m < 64 ? lo : hi) |= std::uint64_t{1} << (m & 63);
  }
  [[nodiscard]] bool test(unsigned m) const noexcept {
    return ((m < 64 ? lo : hi) >> (m & 63)) & 1u;
  }
  [[nodiscard]] bool any() const noexcept { return (lo | hi) != 0; }
  [[nodiscard]] int count() const noexcept {
    return std::popcount(lo) + std::popcount(hi);
  }

  /// Invokes fn(mask) for every member, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t w = lo; w != 0; w &= w - 1) {
      fn(static_cast<unsigned>(std::countr_zero(w)));
    }
    for (std::uint64_t w = hi; w != 0; w &= w - 1) {
      fn(64u + static_cast<unsigned>(std::countr_zero(w)));
    }
  }

  friend bool operator==(const MaskBits&, const MaskBits&) = default;
};

/// Byproduct of the pass-2 expansion: for every distinct leaf, the masks
/// whose projection of the leaf is a cell of the table, and those cells'
/// dense ids.  Leaves are sorted by ascending raw key — the canonical order
/// the critical extraction iterates in, which is what makes sharded and
/// serial runs bit-identical (see critical_cluster.h).  The ids are stored
/// CSR: leaf i's ids are cell_ids[offsets[i] .. offsets[i + 1]), one per
/// member of projections[i], in ascending mask order.
struct LeafCellIndex {
  std::vector<std::uint64_t> leaf_keys;   // distinct leaves, ascending raw
  std::vector<ClusterStats> leaf_stats;   // parallel to leaf_keys
  std::vector<MaskBits> projections;      // parallel to leaf_keys
  std::vector<std::uint32_t> offsets;     // num_leaves() + 1 entries
  std::vector<std::uint32_t> cell_ids;

  [[nodiscard]] bool empty() const noexcept { return leaf_keys.empty(); }
  [[nodiscard]] std::size_t num_leaves() const noexcept {
    return leaf_keys.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> ids(
      std::size_t leaf) const noexcept {
    return std::span{cell_ids}.subspan(offsets[leaf],
                                       offsets[leaf + 1] - offsets[leaf]);
  }
};

struct ClusterEngineConfig {
  /// Largest attribute-subset size to materialise. kNumDims materialises the
  /// full 127-cell lattice (default, what the paper's method implies); lower
  /// caps trade fidelity for speed (explored in the perf benches).
  int max_arity = kNumDims;
};

/// All cluster statistics of one epoch.
struct EpochClusterTable {
  std::uint32_t epoch = 0;
  ClusterStats root;  // the epoch's global counters
  /// Cells with sessions >= floor (every cell when floor <= 1).
  CellStore clusters;
  /// The session floor the cells were built at (0 for a hand-built table).
  std::uint32_t floor = 0;
  /// Per-leaf materialised projections (built by expand_fold).
  LeafCellIndex leaf_index;

  [[nodiscard]] double global_ratio(Metric m) const noexcept {
    return root.problem_ratio(m);
  }

  /// Stats for a key; zeros when the cluster never appeared or sits below
  /// the floor.
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

/// Row form of the pass-1 fold: checks that every session carries `epoch`
/// (std::invalid_argument otherwise), then fold_sessions_columns.
[[nodiscard]] LeafFold fold_sessions(std::span<const Session> sessions,
                                     const ProblemThresholds& thresholds,
                                     std::uint32_t epoch);

/// Expands a leaf fold into its iceberg cluster table — every materialised
/// cell (arity <= config.max_arity) with sessions >= `floor` — and its
/// LeafCellIndex (pass 2).  Floor 1 gives the full lattice.  With `pool`
/// non-null and `shards > 1` whole first-dimension subtrees run across the
/// pool; the table (dense ids included) is identical to the serial
/// expansion for any shard count.  Throws std::invalid_argument when
/// config.max_arity is outside [1, kNumDims].
[[nodiscard]] EpochClusterTable expand_fold(const LeafFold& fold,
                                            const ClusterEngineConfig& config,
                                            ThreadPool* pool = nullptr,
                                            std::size_t shards = 1,
                                            std::uint32_t floor = 1);

/// Aggregates one epoch's sessions into the full cluster table:
/// fold_sessions, then expand_fold at floor 1. All sessions must carry the same epoch id as `epoch`.
[[nodiscard]] EpochClusterTable aggregate_epoch(
    std::span<const Session> sessions, const ProblemThresholds& thresholds,
    const ClusterEngineConfig& config, std::uint32_t epoch);

/// The non-empty attribute masks the engine materialises for a given cap,
/// in ascending mask order.
[[nodiscard]] std::vector<std::uint8_t> lattice_masks(int max_arity);

/// OR of the packed value-field bit ranges of every dimension in `mask`:
/// the bits ClusterKey::project keeps besides the low 7 mask bits, so a
/// full-arity key's projection onto `mask` is
/// mask | (key & lattice_field_mask(mask)).
[[nodiscard]] std::uint64_t lattice_field_mask(std::uint8_t mask) noexcept;

}  // namespace vq
