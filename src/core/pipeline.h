// End-to-end analysis pipeline: epochs -> cluster lattice -> problem
// clusters -> critical clusters, per metric.
//
// This is the library's primary entry point.  It pulls epochs from an
// EpochColumnsSource (columns.h), discards the bulky per-epoch lattice
// tables after extracting what the longitudinal analyses need, and returns
// a PipelineResult the §4/§5 analytics (prevalence, persistence, overlap,
// what-if) consume.
//
// Every epoch runs the same engine, analyze_epoch (critical_cluster.h):
// fold -> lattice -> four critical analyses.  `workers` is the only
// parallelism setting.  One thread pool serves two levels: up to `workers`
// epochs are in flight at once, and within an epoch the lattice expansion
// and extraction shard by epoch_shards (critical_cluster.h), which gives
// each epoch in flight its share of the pool.  Results never depend on
// either.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/critical_cluster.h"
#include "src/core/problem_cluster.h"
#include "src/core/session.h"

namespace vq {

struct PipelineConfig {
  ProblemThresholds thresholds;
  ProblemClusterParams cluster_params{.ratio_multiplier = 1.5,
                                      .min_sessions = 1000};
  ClusterEngineConfig engine;
  /// Worker threads, spread across epochs and then within each epoch
  /// (epoch_shards); 0 = hardware concurrency.  Any value yields identical
  /// results.
  std::size_t workers = 1;
  /// Optional replacement for the pass-1 fold, e.g. the sketch-bounded
  /// admission tier (src/baseline/hhh.h) that folds only heavy leaves under
  /// a --max-cells budget.  Called concurrently for the epochs in flight, so
  /// it must be re-entrant.  The returned fold must carry the requested
  /// epoch id; its root is taken as the epoch's global counters.  Null uses
  /// fold_sessions_columns (exact).
  std::function<LeafFold(const SessionColumns&, const ProblemThresholds&,
                         std::uint32_t)>
      fold_provider;
};

/// Everything retained per (epoch, metric).  The problem-cluster keys that
/// prevalence/persistence consume live in analysis.problem_cluster_keys —
/// the critical extraction publishes them, so the per-cell predicate sweep
/// runs exactly once per (epoch, metric).
struct EpochMetricSummary {
  CriticalAnalysis analysis;
};

struct PipelineResult {
  PipelineConfig config;
  std::uint32_t num_epochs = 0;

  /// per_metric[m][e] summarises metric m in epoch e.
  std::array<std::vector<EpochMetricSummary>, kNumMetrics> per_metric;

  /// Epochs flagged degraded by the ingest layer (IngestReport, see
  /// gen/robust_io.h): rows were quarantined or the feed was truncated, so
  /// these epochs' counts understate reality. Sorted ascending; empty when
  /// the trace loaded cleanly.  The analytics still run over them — this is
  /// the explicit data-quality annotation consumers check before trusting a
  /// per-epoch number (e.g. the monitor suppresses kCleared there).
  std::vector<std::uint32_t> degraded_epochs;

  [[nodiscard]] bool is_degraded(std::uint32_t epoch) const noexcept {
    return std::binary_search(degraded_epochs.begin(), degraded_epochs.end(),
                              epoch);
  }

  [[nodiscard]] const EpochMetricSummary& at(Metric m,
                                             std::uint32_t epoch) const {
    return per_metric[static_cast<std::uint8_t>(m)].at(epoch);
  }

  /// Total problem sessions for a metric across an epoch range [begin, end).
  [[nodiscard]] std::uint64_t total_problem_sessions(
      Metric m, std::uint32_t begin, std::uint32_t end) const;

  /// Mean per-epoch counts/coverage for Table 1.
  struct MetricAggregates {
    double mean_problem_clusters = 0.0;
    double mean_critical_clusters = 0.0;
    double mean_problem_coverage = 0.0;   // of problem sessions, in clusters
    double mean_critical_coverage = 0.0;  // of problem sessions, attributed
  };
  [[nodiscard]] MetricAggregates aggregates(Metric m) const;
};

/// Runs every epoch of `source`.  Up to min(workers, epochs) loops each
/// keep one reused SessionColumns batch, so peak memory is O(epochs in
/// flight), not O(whole trace).  Under one lock a loop claims the next
/// epoch and reads it, so read_epoch is called once per epoch, in ascending
/// order, and never again after one throws (the exception is rethrown
/// here).  Outside the lock it folds the epoch (config.fold_provider or
/// fold_sessions_columns) and analyses it.  Epochs whose read_epoch
/// reported damage land in PipelineResult::degraded_epochs.  The
/// pipeline.stream_epoch_sessions_max gauge records the largest batch read,
/// making the memory claim observable.
[[nodiscard]] PipelineResult run_pipeline(EpochColumnsSource& source,
                                          const PipelineConfig& config);

/// run_pipeline over an in-memory table (TableColumnsSource).  `degraded`
/// (sorted ascending, else std::invalid_argument) is the ingest layer's
/// degraded-epoch annotation; it becomes the result's degraded_epochs.
[[nodiscard]] PipelineResult run_pipeline(
    const SessionTable& table, const PipelineConfig& config,
    std::span<const std::uint32_t> degraded = {});

}  // namespace vq
