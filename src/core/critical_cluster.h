// Critical-cluster identification via the phase-transition rule (paper §3.2)
// and per-session attribution.
//
// Intuition (paper Fig. 5): walking any root->leaf chain of a problem
// session's attribute lattice, the *critical cluster* is the point closest
// to the root where the problem "switches on": the cluster itself and all of
// its chain descendants are problem clusters, while removing the cluster's
// sessions leaves every ancestor below the problem threshold.
//
// Concretely, a mask m over a problem session's leaf attributes is a
// critical candidate when:
//   (a) cluster(m) is a problem cluster;
//   (b) every *significant* descendant within the leaf is a problem
//       cluster (insignificant descendants sit below the paper's
//       1000-session noise floor and cannot veto);
//   (c) for every proper non-empty subset a of m, cluster(a) minus
//       cluster(m)'s sessions is no longer a problem cluster ("once removing
//       it every ancestor is not a problem cluster");
// and m is minimal by inclusion among such masks ("closest to the root").
// When several minimal candidates exist (correlated attributes), the
// session's mass is divided equally among them, exactly as the paper does.
//
// The candidate set and the problem-cluster membership flag depend only on
// a session's full-arity leaf, so the whole analysis runs over the epoch's
// *distinct* leaves, each weighted by its problem-session count — not over
// raw sessions.
//
// The extraction is indexed and runs over the iceberg table expand_fold
// builds (cluster_engine.h): per-metric flag bitsets are precomputed once
// over the table's contiguous cell vector (compute_cell_flags), and each
// leaf's sweep gathers the cell ids of its materialised projections from
// the LeafCellIndex — zero hash lookups and zero repeated threshold
// evaluations in the inner loop; conditions (a)/(b) collapse to 128-bit
// subset/superset bit tricks.  Cells below the table's floor are never
// read, which is exact when the floor is at most min_sessions: every
// significant cell, and every ancestor of a problem cluster, reaches it.  The per-leaf loop can shard across a
// ThreadPool: shards take contiguous ranges of the canonical
// (ascending-key) leaf array and their share lists are replayed in shard
// order, reproducing the serial floating-point accumulation sequence
// exactly — output is bit-identical for any shard count.  The differential
// suites check it against the straight-line oracle in tests/oracle.h.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/problem_cluster.h"
#include "src/core/session.h"

namespace vq {

class ThreadPool;

/// A critical cluster of one epoch with its attributed problem-session mass.
struct CriticalRecord {
  ClusterKey key;
  double attributed = 0.0;  // fractional problem-session mass
  ClusterStats stats;       // the cluster's own counters in this epoch
};

/// Full per-epoch, per-metric critical analysis output.
struct CriticalAnalysis {
  std::uint32_t epoch = 0;
  Metric metric = Metric::kBufRatio;

  std::uint64_t sessions = 0;          // epoch session count
  std::uint64_t problem_sessions = 0;  // epoch problem sessions (this metric)
  /// Problem sessions belonging to >= 1 problem cluster (Table 1 "problem
  /// cluster coverage" numerator).
  std::uint64_t problem_sessions_in_pc = 0;
  double global_ratio = 0.0;
  std::uint32_t num_problem_clusters = 0;
  /// Raw keys of this epoch's problem clusters, ascending (shared with the
  /// pipeline's prevalence/persistence analytics so the problem-cluster
  /// sweep runs once per (epoch, metric)).
  std::vector<std::uint64_t> problem_cluster_keys;

  /// Critical clusters sorted by attributed mass, descending.
  std::vector<CriticalRecord> criticals;
  /// Sum of attributed masses (Table 1 "critical cluster coverage"
  /// numerator); <= problem_sessions_in_pc <= problem_sessions.
  double attributed_mass = 0.0;

  [[nodiscard]] double problem_cluster_coverage() const noexcept {
    return problem_sessions == 0
               ? 0.0
               : static_cast<double>(problem_sessions_in_pc) /
                     static_cast<double>(problem_sessions);
  }
  [[nodiscard]] double critical_cluster_coverage() const noexcept {
    return problem_sessions == 0
               ? 0.0
               : attributed_mass / static_cast<double>(problem_sessions);
  }
};

/// Runs the phase-transition algorithm for one epoch and metric over a
/// table built by expand_fold.  `fold` must be the pass-1 fold the table
/// was expanded from (throws std::invalid_argument when its epoch or root
/// disagrees), and the table's floor must not exceed params.min_sessions
/// (std::invalid_argument otherwise); the table's LeafCellIndex carries
/// everything else the sweep reads.  With `pool` non-null and `shards > 1`
/// the per-leaf loop runs sharded.
[[nodiscard]] CriticalAnalysis find_critical_clusters(
    const LeafFold& fold, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric,
    ThreadPool* pool = nullptr, std::size_t shards = 1);

/// Session-span convenience wrapper: folds `sessions` (which must be the
/// span the `table` was aggregated from) and delegates to the overload
/// above.
[[nodiscard]] CriticalAnalysis find_critical_clusters(
    std::span<const Session> sessions, const EpochClusterTable& table,
    const ProblemThresholds& thresholds, const ProblemClusterParams& params,
    Metric metric);

/// Minimal critical candidate masks (ascending) of every distinct leaf of
/// the table, parallel to table.leaf_index.leaf_keys.  Leaves without a
/// problem session for `metric` get an empty list.  Throws
/// std::invalid_argument when the table's floor exceeds
/// params.min_sessions.  For analyses that
/// weight each problem session by something other than a unit count
/// (engagement.h).
[[nodiscard]] std::vector<std::vector<std::uint8_t>> leaf_critical_masks(
    const EpochClusterTable& table, const ProblemClusterParams& params,
    Metric metric);

/// The four per-metric analyses of one epoch, indexed by metric.
using EpochAnalyses = std::array<CriticalAnalysis, kNumMetrics>;

/// The per-epoch engine shared by run_pipeline and
/// StreamingDetector::ingest: expands `fold` into its iceberg at
/// params.min_sessions, runs the extraction for every metric, and drops
/// the table.  `pool`/`shards`
/// parallelise both stages; results do not depend on them.
[[nodiscard]] EpochAnalyses analyze_epoch(const LeafFold& fold,
                                          const ClusterEngineConfig& engine,
                                          const ProblemClusterParams& params,
                                          ThreadPool* pool = nullptr,
                                          std::size_t shards = 1);

/// The one shard rule: analyze_epoch's `shards` when `workers` threads run
/// `concurrent_epochs` epochs at once, so epochs x shards cover the pool.
/// run_pipeline passes its epochs in flight, min(workers, epochs);
/// StreamingDetector passes 1 (shards = workers).  workers 0 counts as 1.
[[nodiscard]] constexpr std::size_t epoch_shards(
    std::size_t workers, std::size_t concurrent_epochs) noexcept {
  const std::size_t w = std::max<std::size_t>(1, workers);
  const std::size_t c = std::clamp<std::size_t>(concurrent_epochs, 1, w);
  return (w + c - 1) / c;
}

}  // namespace vq
