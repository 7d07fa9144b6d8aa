#include "src/core/critical_cluster.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

namespace vq {

namespace {

constexpr int kNumMasks = kFullMask + 1;  // 128 subsets incl. root

/// kDimAbsent[d] selects, within one 64-bit word, the mask values whose
/// dimension-d bit is clear. Dimension 6 needs no pattern: its bit weight is
/// 64, so "bit 6 clear" is exactly the lo word.
inline constexpr std::array<std::uint64_t, 6> kDimAbsent = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};

/// strict[m] = OR over every strict superset s of m of b[s], for all 128
/// masks at once. Two sweeps of seven shifted-OR steps each: the first
/// closes b upward (h[m] = OR over s >= m), the second ORs h over the seven
/// single-dimension extensions of m — every strict superset contains at
/// least one added dimension, so that union is exactly the strict cone.
[[nodiscard]] inline MaskBits strict_superset_or(const MaskBits& b) noexcept {
  MaskBits h = b;
  for (int d = 0; d < 6; ++d) {
    const int k = 1 << d;
    h.lo |= (h.lo >> k) & kDimAbsent[d];
    h.hi |= (h.hi >> k) & kDimAbsent[d];
  }
  h.lo |= h.hi;

  MaskBits strict;
  for (int d = 0; d < 6; ++d) {
    const int k = 1 << d;
    strict.lo |= (h.lo >> k) & kDimAbsent[d];
    strict.hi |= (h.hi >> k) & kDimAbsent[d];
  }
  strict.lo |= h.hi;
  return strict;
}

/// Keeps only masks minimal by inclusion ("closest to the root").
inline void filter_minimal(const std::vector<std::uint8_t>& candidates,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  for (const std::uint8_t m : candidates) {
    bool dominated = false;
    for (const std::uint8_t other : candidates) {
      if (other != m && (other & m) == other) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(m);
  }
}

/// Deterministic record order (attributed mass descending, raw key
/// ascending) and the attributed-mass total summed in that order, so serial
/// and sharded runs agree bit for bit.
void finalize_analysis(CriticalAnalysis& out) {
  std::sort(out.criticals.begin(), out.criticals.end(),
            [](const CriticalRecord& a, const CriticalRecord& b) {
              if (a.attributed != b.attributed) {
                return a.attributed > b.attributed;
              }
              return a.key.raw() < b.key.raw();
            });
  out.attributed_mass = 0.0;
  for (const CriticalRecord& rec : out.criticals) {
    out.attributed_mass += rec.attributed;
  }
}

void fill_header(CriticalAnalysis& out, const EpochClusterTable& table,
                 Metric metric) {
  out.epoch = table.epoch;
  out.metric = metric;
  out.sessions = table.root.sessions;
  out.problem_sessions =
      table.root.problems[static_cast<std::uint8_t>(metric)];
  out.global_ratio = table.global_ratio(metric);
}

/// The epoch's problem-cluster keys (ascending), derived from the flag
/// bitset so downstream analytics never re-run the per-cell predicate
/// sweep.
void problem_keys_from_flags(CriticalAnalysis& out, const CellStore& cells,
                             const CellFlags& flags) {
  out.problem_cluster_keys.clear();
  out.problem_cluster_keys.reserve(flags.num_flagged);
  for (std::uint32_t id = 0; id < cells.size(); ++id) {
    if (flags.test_flagged(id)) {
      out.problem_cluster_keys.push_back(cells.key(id));
    }
  }
  std::sort(out.problem_cluster_keys.begin(), out.problem_cluster_keys.end());
  out.num_problem_clusters = flags.num_flagged;
}

/// Per-shard scratch for the indexed leaf sweep. Only materialised masks
/// are written before being read, so no per-leaf clearing is needed.
struct LeafScratch {
  std::array<const ClusterStats*, kNumMasks> stats_by_mask;
  std::array<std::uint32_t, kNumMasks> id_by_mask;
  std::vector<std::uint8_t> raw_candidates;
  std::vector<std::uint8_t> masks;
};

/// Candidate evaluation for one leaf: gathers the ids and flag bits of the
/// leaf's materialised projections, then applies conditions (a)/(b) with
/// 128-bit bit tricks and (c)/minimality on the gathered stats.  Exact when
/// the table's floor is at most params.min_sessions: every significant
/// projection, and every ancestor of a flagged one, is then materialised.
/// Returns whether any projection is a problem cluster; minimal candidate
/// masks land in scratch.masks (ascending).
bool indexed_leaf_candidates(const LeafCellIndex& index, std::size_t leaf,
                             const CellStore& cells, const CellFlags& flags,
                             const ProblemClusterParams& params,
                             double global, Metric metric,
                             LeafScratch& scratch) {
  const std::span<const std::uint32_t> ids = index.ids(leaf);
  MaskBits flagged;
  MaskBits significant;
  std::size_t k = 0;
  index.projections[leaf].for_each([&](unsigned mask) {
    const std::uint32_t id = ids[k++];
    scratch.stats_by_mask[mask] = &cells.cell(id);
    scratch.id_by_mask[mask] = id;
    if (flags.test_significant(id)) {
      significant.set(mask);
      if (flags.test_flagged(id)) flagged.set(mask);
    }
  });
  scratch.masks.clear();
  if (!flagged.any()) return false;  // (a) can never hold

  // (b): a mask is vetoed when any strict superset within the leaf is
  // significant but not flagged.
  const MaskBits bad{significant.lo & ~flagged.lo,
                     significant.hi & ~flagged.hi};
  const MaskBits veto = strict_superset_or(bad);

  scratch.raw_candidates.clear();
  flagged.for_each([&](unsigned mask) {
    if (veto.test(mask)) return;
    // (c) removing this cluster's sessions un-flags every proper ancestor.
    const ClusterStats& m_stats = *scratch.stats_by_mask[mask];
    for (unsigned a = (mask - 1) & mask; a != 0; a = (a - 1) & mask) {
      const ClusterStats remaining =
          scratch.stats_by_mask[a]->minus(m_stats);
      if (is_problem_cluster(remaining, global, params, metric)) return;
    }
    scratch.raw_candidates.push_back(static_cast<std::uint8_t>(mask));
  });
  filter_minimal(scratch.raw_candidates, scratch.masks);
  return true;
}

/// The extraction is exact only over the cells a table keeps; a table
/// built above the significance floor has dropped cells that can matter.
void require_floor_within(const EpochClusterTable& table,
                          const ProblemClusterParams& params,
                          const char* caller) {
  if (table.floor > params.min_sessions) {
    throw std::invalid_argument{
        std::string{caller} + ": the table was built at floor " +
        std::to_string(table.floor) + ", above min_sessions " +
        std::to_string(params.min_sessions)};
  }
}

/// The indexed extraction over a table built by expand_fold.
CriticalAnalysis extract_criticals(const EpochClusterTable& table,
                                   const ProblemClusterParams& params,
                                   Metric metric, ThreadPool* pool,
                                   std::size_t shards) {
  CriticalAnalysis out;
  fill_header(out, table, metric);

  const CellFlags flags = compute_cell_flags(table, params, metric);
  const LeafCellIndex& index = table.leaf_index;
  const CellStore& cells = table.clusters;
  problem_keys_from_flags(out, cells, flags);
  const double global = out.global_ratio;
  const auto mi = static_cast<std::uint8_t>(metric);
  const std::size_t num_leaves = index.num_leaves();

  // Sharding only pays off when each shard gets a meaningful slice.
  constexpr std::size_t kMinLeavesPerShard = 256;
  std::size_t num_shards = 1;
  if (pool != nullptr && shards > 1 &&
      num_leaves >= 2 * kMinLeavesPerShard) {
    num_shards = std::min(shards, num_leaves / kMinLeavesPerShard);
  }

  struct ShardOut {
    std::vector<std::pair<std::uint32_t, double>> shares;  // (cell id, share)
    std::uint64_t in_pc_problems = 0;
  };
  std::vector<ShardOut> shard_out(num_shards);
  std::vector<std::size_t> bounds(num_shards + 1);
  for (std::size_t s = 0; s <= num_shards; ++s) {
    bounds[s] = num_leaves * s / num_shards;
  }

  const auto sweep_shard = [&](std::size_t shard) {
    LeafScratch scratch;
    ShardOut& so = shard_out[shard];
    for (std::size_t i = bounds[shard]; i < bounds[shard + 1]; ++i) {
      const std::uint32_t problems = index.leaf_stats[i].problems[mi];
      if (problems == 0) continue;
      const bool in_pc = indexed_leaf_candidates(index, i, cells, flags,
                                                 params, global, metric,
                                                 scratch);
      if (in_pc) so.in_pc_problems += problems;
      if (scratch.masks.empty()) continue;
      const double share = static_cast<double>(problems) /
                           static_cast<double>(scratch.masks.size());
      for (const std::uint8_t mask : scratch.masks) {
        so.shares.emplace_back(scratch.id_by_mask[mask], share);
      }
    }
  };
  if (num_shards == 1) {
    sweep_shard(0);
  } else {
    pool->parallel_for(0, num_shards, sweep_shard);
  }

  // Deterministic merge: shards cover contiguous ranges of the ascending
  // leaf array and appended their shares in leaf order, so replaying the
  // lists in shard order reproduces the serial floating-point accumulation
  // sequence exactly — for any shard count.
  std::vector<double> attribution(cells.size(), 0.0);
  std::vector<std::uint32_t> touched;
  for (const ShardOut& so : shard_out) {
    out.problem_sessions_in_pc += so.in_pc_problems;
    for (const auto& [id, share] : so.shares) {
      if (attribution[id] == 0.0) touched.push_back(id);
      attribution[id] += share;  // share > 0, so touched stays accurate
    }
  }

  out.criticals.reserve(touched.size());
  for (const std::uint32_t id : touched) {
    out.criticals.push_back({ClusterKey::from_raw(cells.key(id)),
                             attribution[id], cells.cell(id)});
  }
  finalize_analysis(out);
  return out;
}

}  // namespace

CriticalAnalysis find_critical_clusters(const LeafFold& fold,
                                        const EpochClusterTable& table,
                                        const ProblemClusterParams& params,
                                        Metric metric, ThreadPool* pool,
                                        std::size_t shards) {
  VQ_SPAN_EPOCH("core.find_critical_clusters", table.epoch);
  if (fold.epoch != table.epoch || !(fold.root == table.root) ||
      fold.leaves.size() != table.leaf_index.num_leaves()) {
    throw std::invalid_argument{
        "find_critical_clusters: the table was not expanded from this fold "
        "(build it with expand_fold)"};
  }
  require_floor_within(table, params, "find_critical_clusters");
  return extract_criticals(table, params, metric, pool, shards);
}

CriticalAnalysis find_critical_clusters(std::span<const Session> sessions,
                                        const EpochClusterTable& table,
                                        const ProblemThresholds& thresholds,
                                        const ProblemClusterParams& params,
                                        Metric metric) {
  return find_critical_clusters(
      fold_sessions(sessions, thresholds, table.epoch), table, params,
      metric);
}

std::vector<std::vector<std::uint8_t>> leaf_critical_masks(
    const EpochClusterTable& table, const ProblemClusterParams& params,
    Metric metric) {
  require_floor_within(table, params, "leaf_critical_masks");
  const CellFlags flags = compute_cell_flags(table, params, metric);
  const LeafCellIndex& index = table.leaf_index;
  const double global = table.global_ratio(metric);
  const auto mi = static_cast<std::uint8_t>(metric);
  std::vector<std::vector<std::uint8_t>> out(index.num_leaves());
  LeafScratch scratch;
  for (std::size_t i = 0; i < index.num_leaves(); ++i) {
    if (index.leaf_stats[i].problems[mi] == 0) continue;
    (void)indexed_leaf_candidates(index, i, table.clusters, flags, params,
                                  global, metric, scratch);
    out[i] = scratch.masks;
  }
  return out;
}

EpochAnalyses analyze_epoch(const LeafFold& fold,
                            const ClusterEngineConfig& engine,
                            const ProblemClusterParams& params,
                            ThreadPool* pool, std::size_t shards) {
  const EpochClusterTable lattice = [&] {
    VQ_SPAN_EPOCH("pipeline.expand_lattice", fold.epoch);
    return expand_fold(fold, engine, pool, shards, params.min_sessions);
  }();
  EpochAnalyses analyses;
  for (const Metric m : kAllMetrics) {
    analyses[static_cast<std::uint8_t>(m)] =
        find_critical_clusters(fold, lattice, params, m, pool, shards);
  }
  return analyses;
}

}  // namespace vq
