#include "src/core/pipeline.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/mutex.h"
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

/// run_pipeline's claim state, shared by its epoch loops.  Reads happen
/// under `mutex` too, so they come out in ascending epoch order.
struct EpochCursor {
  Mutex mutex;
  std::uint32_t next VQ_GUARDED_BY(mutex) = 0;
  bool failed VQ_GUARDED_BY(mutex) = false;  // an epoch threw: claim no more
  std::vector<std::uint32_t> degraded VQ_GUARDED_BY(mutex);  // ascending
};

}  // namespace

PipelineResult run_pipeline(EpochColumnsSource& source,
                            const PipelineConfig& config) {
  PipelineResult result;
  result.config = config;
  result.num_epochs = source.num_epochs();
  for (auto& v : result.per_metric) v.resize(result.num_epochs);

  const std::size_t workers =
      config.workers == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : config.workers;
  const std::size_t in_flight =
      std::min<std::size_t>(workers, result.num_epochs);
  const std::size_t shards = epoch_shards(workers, in_flight);
  std::optional<ThreadPool> pool;
  if (workers > 1 && result.num_epochs > 0) pool.emplace(workers);

  // Properties of the analysis, not the schedule: kStable, so totals match
  // for any workers setting.
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& epochs_done = registry.counter("pipeline.epochs");
  obs::Counter& sessions_done = registry.counter("pipeline.sessions");
  obs::Counter& problem_clusters =
      registry.counter("pipeline.problem_clusters");
  obs::Counter& critical_clusters =
      registry.counter("pipeline.critical_clusters");
  // Largest batch ever held: the O(epochs in flight) memory witness.
  obs::Gauge& held_max = registry.gauge("pipeline.stream_epoch_sessions_max");

  EpochCursor cursor;

  const auto epoch_loop = [&](std::size_t) {
    SessionColumns columns;  // reused across this loop's epochs
    for (;;) {
      std::uint32_t epoch = 0;
      {
        const MutexLock lock{cursor.mutex};
        if (cursor.failed || cursor.next == result.num_epochs) return;
        epoch = cursor.next++;
        VQ_SPAN_EPOCH("pipeline.read_epoch", epoch);
        try {
          if (source.read_epoch(epoch, columns)) {
            cursor.degraded.push_back(epoch);
          }
        } catch (...) {
          cursor.failed = true;
          throw;
        }
      }
      held_max.update_max(static_cast<std::int64_t>(columns.size()));

      try {
        VQ_SPAN_EPOCH("pipeline.epoch", epoch);
        const LeafFold fold = [&] {
          VQ_SPAN_EPOCH("pipeline.fold_sessions", epoch);
          return config.fold_provider
                     ? config.fold_provider(columns, config.thresholds, epoch)
                     : fold_sessions_columns(columns, config.thresholds,
                                             epoch);
        }();
        EpochAnalyses analyses =
            analyze_epoch(fold, config.engine, config.cluster_params,
                          pool ? &*pool : nullptr, shards);
        for (const Metric m : kAllMetrics) {
          const auto mi = static_cast<std::uint8_t>(m);
          CriticalAnalysis& analysis = result.per_metric[mi][epoch].analysis;
          analysis = std::move(analyses[mi]);
          problem_clusters.add(analysis.num_problem_clusters);
          critical_clusters.add(analysis.criticals.size());
        }
      } catch (...) {
        const MutexLock lock{cursor.mutex};
        cursor.failed = true;
        throw;
      }
      epochs_done.add(1);
      sessions_done.add(columns.size());
    }
  };

  if (pool) {
    // parallel_for is re-entrant, so each epoch loop can fan its epoch's
    // expansion out across the same pool; the first exception surfaces
    // here once the other loops have stopped claiming epochs.
    pool->parallel_for(0, in_flight, epoch_loop);
  } else {
    epoch_loop(0);
  }
  const MutexLock lock{cursor.mutex};
  result.degraded_epochs = std::move(cursor.degraded);
  return result;
}

PipelineResult run_pipeline(const SessionTable& table,
                            const PipelineConfig& config,
                            std::span<const std::uint32_t> degraded) {
  if (!std::is_sorted(degraded.begin(), degraded.end())) {
    throw std::invalid_argument{
        "run_pipeline: degraded epochs must be sorted ascending"};
  }
  std::vector<std::uint32_t> annotation(degraded.begin(), degraded.end());
  TableColumnsSource source{table, annotation};
  PipelineResult result = run_pipeline(source, config);
  // The whole annotation, including a trailing epoch that lost every row
  // (so lies past the table's last epoch, where no read reaches it).
  result.degraded_epochs = std::move(annotation);
  return result;
}

}  // namespace vq
