#include "src/core/pipeline.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

namespace vq {

std::uint64_t PipelineResult::total_problem_sessions(Metric m,
                                                     std::uint32_t begin,
                                                     std::uint32_t end) const {
  const auto& summaries = per_metric[static_cast<std::uint8_t>(m)];
  std::uint64_t total = 0;
  for (std::uint32_t e = begin; e < end && e < summaries.size(); ++e) {
    total += summaries[e].analysis.problem_sessions;
  }
  return total;
}

PipelineResult::MetricAggregates PipelineResult::aggregates(Metric m) const {
  MetricAggregates agg;
  const auto& summaries = per_metric[static_cast<std::uint8_t>(m)];
  if (summaries.empty()) return agg;
  for (const auto& s : summaries) {
    agg.mean_problem_clusters += s.analysis.num_problem_clusters;
    agg.mean_critical_clusters +=
        static_cast<double>(s.analysis.criticals.size());
    agg.mean_problem_coverage += s.analysis.problem_cluster_coverage();
    agg.mean_critical_coverage += s.analysis.critical_cluster_coverage();
  }
  const auto n = static_cast<double>(summaries.size());
  agg.mean_problem_clusters /= n;
  agg.mean_critical_clusters /= n;
  agg.mean_problem_coverage /= n;
  agg.mean_critical_coverage /= n;
  return agg;
}

namespace {

/// Setup and bookkeeping both pipelines share: the result skeleton, the
/// worker pool, the shard count for `concurrent_epochs` epochs in flight,
/// and the per-epoch step — analyze_epoch, store its four analyses, bump
/// the pipeline.* counters.  Those counts are properties of the analysis,
/// not the schedule, so they are kStable: totals match for any workers
/// setting.
class PipelineRun {
 public:
  PipelineRun(const PipelineConfig& config, std::uint32_t num_epochs,
              std::size_t concurrent_epochs)
      : config_{config},
        workers_{config.workers == 0
                     ? std::max<std::size_t>(
                           1, std::thread::hardware_concurrency())
                     : config.workers},
        shards_{epoch_shards(workers_, concurrent_epochs)} {
    result.config = config;
    result.num_epochs = num_epochs;
    for (auto& v : result.per_metric) v.resize(num_epochs);
    if (workers_ > 1 && num_epochs > 0) pool_.emplace(workers_);
  }

  [[nodiscard]] ThreadPool* pool() noexcept {
    return pool_ ? &*pool_ : nullptr;
  }

  void analyze(std::uint32_t epoch, const LeafFold& fold,
               std::size_t sessions) {
    EpochAnalyses analyses = analyze_epoch(fold, config_.engine,
                                           config_.cluster_params, pool(),
                                           shards_);
    for (const Metric m : kAllMetrics) {
      const auto mi = static_cast<std::uint8_t>(m);
      CriticalAnalysis& analysis = result.per_metric[mi][epoch].analysis;
      analysis = std::move(analyses[mi]);
      problem_clusters_.add(analysis.num_problem_clusters);
      critical_clusters_.add(analysis.criticals.size());
    }
    epochs_.add(1);
    sessions_.add(sessions);
  }

  PipelineResult result;

 private:
  const PipelineConfig& config_;
  const std::size_t workers_;
  const std::size_t shards_;
  std::optional<ThreadPool> pool_;
  obs::Counter& epochs_ = obs::Registry::global().counter("pipeline.epochs");
  obs::Counter& sessions_ =
      obs::Registry::global().counter("pipeline.sessions");
  obs::Counter& problem_clusters_ =
      obs::Registry::global().counter("pipeline.problem_clusters");
  obs::Counter& critical_clusters_ =
      obs::Registry::global().counter("pipeline.critical_clusters");
};

}  // namespace

PipelineResult run_pipeline(const SessionTable& table,
                            const PipelineConfig& config,
                            std::span<const std::uint32_t> degraded) {
  if (!std::is_sorted(degraded.begin(), degraded.end())) {
    throw std::invalid_argument{
        "run_pipeline: degraded epochs must be sorted ascending"};
  }
  // All epochs may run at once: they shard only when fewer than workers.
  PipelineRun run{config, table.num_epochs(), table.num_epochs()};
  run.result.degraded_epochs.assign(degraded.begin(), degraded.end());

  const auto process_epoch = [&](std::size_t e) {
    const auto epoch = static_cast<std::uint32_t>(e);
    VQ_SPAN_EPOCH("pipeline.epoch", epoch);
    const std::span<const Session> sessions = table.epoch(epoch);
    const LeafFold fold = [&] {
      VQ_SPAN_EPOCH("pipeline.fold_sessions", epoch);
      return fold_sessions(sessions, config.thresholds, epoch);
    }();
    run.analyze(epoch, fold, sessions.size());
  };

  if (run.pool() == nullptr) {
    for (std::uint32_t e = 0; e < table.num_epochs(); ++e) process_epoch(e);
  } else {
    // parallel_for is re-entrant, so the per-epoch workers can themselves
    // fan the lattice expansion out across the same pool; a throwing epoch
    // (e.g. an epoch-mismatch in fold_sessions) surfaces here rather than
    // terminating the process.
    run.pool()->parallel_for(0, table.num_epochs(), process_epoch);
  }
  return std::move(run.result);
}

PipelineResult run_pipeline_streaming(EpochColumnsSource& source,
                                      const PipelineConfig& config) {
  // Epochs stream sequentially (that is the memory bound), so all
  // parallelism lives inside the epoch.
  PipelineRun run{config, source.num_epochs(), 1};
  // Largest batch ever held: the structural O(one epoch) memory witness.
  obs::Gauge& held_max =
      obs::Registry::global().gauge("pipeline.stream_epoch_sessions_max");

  SessionColumns columns;  // reused across epochs; capacity is retained
  for (std::uint32_t epoch = 0; epoch < run.result.num_epochs; ++epoch) {
    VQ_SPAN_EPOCH("pipeline.epoch", epoch);
    const bool degraded = [&] {
      VQ_SPAN_EPOCH("pipeline.read_epoch", epoch);
      return source.read_epoch(epoch, columns);
    }();
    if (degraded) run.result.degraded_epochs.push_back(epoch);
    held_max.update_max(static_cast<std::int64_t>(columns.size()));

    const LeafFold fold = [&] {
      VQ_SPAN_EPOCH("pipeline.fold_sessions", epoch);
      return config.fold_provider
                 ? config.fold_provider(columns, config.thresholds, epoch)
                 : fold_sessions_columns(columns, config.thresholds, epoch);
    }();
    run.analyze(epoch, fold, columns.size());
  }
  return std::move(run.result);
}

}  // namespace vq
