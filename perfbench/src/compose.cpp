// compose: the analyze path composed in-process from the library's public
// layer calls, so each call can carry a span.
//
// The composition mirrors what `vidqual analyze` runs: for a .vqtr input,
// read_trace_binary then epochs in parallel on a ThreadPool (fold_sessions,
// expand_fold, find_critical_clusters x4), as run_pipeline does; for a
// .vqtc input, a ColumnarReader streaming epochs in order with the pool used
// inside each epoch, as run_pipeline_streaming does.  Only production-path
// functions are called.  Its report, rendered like the CLI's, is the
// reference every timed `vidqual analyze` run is checked against.
//
// With --traced it runs three times: untraced, traced, untraced again.  The
// reports must match, and the traced wall time over the mean untraced one
// is the tracing overhead (the runs on either side of the traced one share
// out the warm-up the first run pays).  It then drives a
// StreamingDetector over the same epochs with save_checkpoint after each
// one, for the monitor layer's figures.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "commands.h"
#include "json.h"
#include "spans.h"
#include "src/core/monitor.h"
#include "src/core/overlap.h"
#include "src/core/pipeline.h"
#include "src/gen/columnar.h"
#include "src/gen/trace_io.h"
#include "src/util/thread_pool.h"

namespace vqbench {

namespace {

struct Counts {
  std::atomic<std::uint64_t> sessions{0};
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> cells{0};
  std::atomic<std::uint64_t> problem_clusters{0};
  std::atomic<std::uint64_t> criticals{0};
};

struct Composed {
  vq::PipelineResult result;
  vq::AttributeSchema schema;
  std::optional<vq::SessionTable> table;  // .vqtr input only
  std::uint64_t sessions = 0;
  double wall_s = 0.0;
};

/// run_pipeline's shard rule: shard an epoch only when epochs alone cannot
/// keep the pool busy.
std::size_t batch_shards(std::size_t workers, std::size_t epochs) {
  if (workers <= 1 || epochs == 0 || epochs >= workers) return 1;
  return (workers + epochs - 1) / epochs;
}

/// Expansion and the four critical-cluster extractions for one folded epoch.
void finish_epoch(std::uint32_t e, const vq::LeafFold& fold,
                  const vq::PipelineConfig& config, vq::ThreadPool* pool,
                  std::size_t shards, vq::PipelineResult& result,
                  SpanRecorder& rec, Counts& counts) {
  const vq::EpochClusterTable lattice = [&] {
    const auto span = rec.span("core.expand", e);
    return vq::expand_fold(fold, config.engine, pool, shards);
  }();
  std::uint64_t problem = 0;
  std::uint64_t critical = 0;
  {
    const auto span = rec.span("core.critical", e);
    for (const vq::Metric m : vq::kAllMetrics) {
      vq::CriticalAnalysis& a =
          result.per_metric[static_cast<std::uint8_t>(m)][e].analysis;
      a = vq::find_critical_clusters(fold, lattice, config.cluster_params, m,
                                     pool, shards);
      problem += a.num_problem_clusters;
      critical += a.criticals.size();
    }
  }
  counts.leaves += fold.leaves.size();
  counts.cells += lattice.clusters.size();
  counts.problem_clusters += problem;
  counts.criticals += critical;
}

Composed compose(const std::filesystem::path& in, std::size_t workers,
                 std::uint32_t min_sessions, SpanRecorder& rec,
                 Counts& counts) {
  const auto t0 = Clock::now();
  Composed out;
  const bool columnar = in.extension() == ".vqtc";
  std::optional<vq::ColumnarReader> reader;
  {
    const auto phase = rec.phase("load");
    const auto span = rec.span("gen.load");
    if (columnar) {
      reader.emplace(in);
    } else {
      vq::LoadedTrace loaded = vq::read_trace_binary(in);
      out.table.emplace(std::move(loaded.table));
      out.schema = std::move(loaded.schema);
    }
  }
  const std::uint32_t epochs =
      columnar ? reader->num_epochs() : out.table->num_epochs();
  out.sessions = columnar ? reader->total_sessions() : out.table->size();

  vq::PipelineConfig config;
  config.workers = workers;
  config.cluster_params.min_sessions = min_sessions;
  out.result.config = config;
  out.result.num_epochs = epochs;
  for (auto& v : out.result.per_metric) v.resize(epochs);

  std::optional<vq::ThreadPool> pool;
  if (workers > 1 && epochs > 0) pool.emplace(workers);
  vq::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  {
    const auto phase = rec.phase("epochs");
    if (columnar) {
      const std::size_t shards = std::max<std::size_t>(1, workers);
      vq::SessionColumns columns;
      for (std::uint32_t e = 0; e < epochs; ++e) {
        const bool degraded = [&] {
          const auto span = rec.span("gen.read", e);
          return reader->read_epoch(e, columns);
        }();
        if (degraded) out.result.degraded_epochs.push_back(e);
        const vq::LeafFold fold = [&] {
          const auto span = rec.span("core.fold", e);
          return vq::fold_sessions_columns(columns, config.thresholds, e);
        }();
        finish_epoch(e, fold, config, pool_ptr, shards, out.result, rec,
                     counts);
        counts.sessions += columns.size();
      }
    } else {
      const std::size_t shards = batch_shards(workers, epochs);
      const auto body = [&](std::size_t i) {
        const auto e = static_cast<std::uint32_t>(i);
        const auto sessions = out.table->epoch(e);
        const vq::LeafFold fold = [&] {
          const auto span = rec.span("core.fold", e);
          return vq::fold_sessions(sessions, config.thresholds, e);
        }();
        finish_epoch(e, fold, config, pool_ptr, shards, out.result, rec,
                     counts);
        counts.sessions += sessions.size();
      };
      if (pool_ptr != nullptr) {
        pool_ptr->parallel_for(0, epochs, body);
      } else {
        for (std::uint32_t e = 0; e < epochs; ++e) body(e);
      }
    }
  }
  if (columnar) out.schema = reader->take_schema();
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

/// The report `vidqual analyze --top 5` prints for `result`.
std::string render_report(const vq::PipelineResult& result,
                          const vq::AttributeSchema& schema) {
  constexpr std::size_t kTop = 5;
  std::string out;
  char buf[512];
  if (!result.degraded_epochs.empty()) {
    std::snprintf(buf, sizeof buf,
                  "data quality: %zu epoch(s) degraded by quarantined rows:",
                  result.degraded_epochs.size());
    out += buf;
    for (const std::uint32_t e : result.degraded_epochs) {
      out += ' ' + std::to_string(e);
    }
    out += '\n';
  }
  for (const vq::Metric m : vq::kAllMetrics) {
    const auto agg = result.aggregates(m);
    double prob_ratio = 0.0;
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const auto& a = result.at(m, e).analysis;
      prob_ratio += a.sessions == 0
                        ? 0.0
                        : static_cast<double>(a.problem_sessions) /
                              static_cast<double>(a.sessions);
    }
    prob_ratio /= std::max(1u, result.num_epochs);
    std::snprintf(buf, sizeof buf,
                  "\n%s: problem ratio %.3f | %.1f problem clusters/epoch | "
                  "%.1f critical | coverage %.2f\n",
                  std::string(vq::metric_name(m)).c_str(), prob_ratio,
                  agg.mean_problem_clusters, agg.mean_critical_clusters,
                  agg.mean_critical_coverage);
    out += buf;
    for (const std::uint64_t raw : vq::top_critical_keys(result, m, kTop)) {
      out += "  " + schema.describe(vq::ClusterKey::from_raw(raw)) + '\n';
    }
  }
  return out;
}

/// Every epoch's critical clusters over all metrics, as [epoch, scope].
std::string criticals_json(const Composed& c) {
  std::string out = "[";
  bool first = true;
  for (std::uint32_t e = 0; e < c.result.num_epochs; ++e) {
    std::set<std::string> scopes;
    for (const vq::Metric m : vq::kAllMetrics) {
      for (const vq::CriticalRecord& r : c.result.at(m, e).analysis.criticals) {
        scopes.insert(c.schema.describe(r.key));
      }
    }
    for (const std::string& s : scopes) {
      out += first ? "[" : ",[";
      first = false;
      out += std::to_string(e) + "," + json_string(s) + "]";
    }
  }
  return out + "]";
}

struct MonitorLayer {
  std::vector<double> ingest_ms;      // per epoch
  std::vector<double> checkpoint_ms;  // per epoch
  std::uint64_t events = 0;
  std::uint64_t tracked_keys = 0;
  double checkpoint_bytes = 0.0;
};

/// The serve detector's configuration (escalate after 1 epoch, stale
/// epochs skipped, one worker) driven over `table` epoch by epoch.
MonitorLayer run_monitor(const vq::SessionTable& table,
                         std::uint32_t min_sessions,
                         const std::filesystem::path& checkpoint,
                         SpanRecorder& rec) {
  vq::MonitorConfig config;
  config.cluster_params.min_sessions = min_sessions;
  config.order_policy = vq::EpochOrderPolicy::kSkipStale;
  vq::StreamingDetector detector{config};
  MonitorLayer out;
  const auto phase = rec.phase("monitor");
  for (std::uint32_t e = 0; e < table.num_epochs(); ++e) {
    auto t = Clock::now();
    {
      const auto span = rec.span("core.monitor.ingest", e);
      out.events += detector.ingest(table.epoch(e), e).size();
    }
    out.ingest_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
    t = Clock::now();
    {
      const auto span = rec.span("core.monitor.checkpoint", e);
      detector.save_checkpoint(checkpoint);
    }
    out.checkpoint_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
  }
  for (const vq::Metric m : vq::kAllMetrics) {
    out.tracked_keys +=
        detector.active(m).size() + detector.problem_streaks(m).size();
  }
  out.checkpoint_bytes =
      static_cast<double>(std::filesystem::file_size(checkpoint));
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_self_times(const SelfTimes& t) {
  std::fprintf(stderr, "%-26s %10s %8s\n", "layer (self time)", "seconds",
               "share");
  for (const auto& [name, s] : t.by_name) {
    std::fprintf(stderr, "%-26s %10.4f %7.2f%%\n", name.c_str(), s,
                 100.0 * ratio(s, t.capacity_s));
  }
  std::fprintf(stderr, "%-26s %10.4f %7.2f%%\n", "unattributed",
               t.unattributed_s, 100.0 * ratio(t.unattributed_s, t.capacity_s));
  std::fprintf(stderr, "%-26s %10.4f\n", "capacity (threads x wall)",
               t.capacity_s);
}

}  // namespace

int cmd_compose(const vq::ArgParser& args) {
  const std::filesystem::path in{required(args, "in")};
  const auto workers =
      static_cast<std::size_t>(std::stoull(required(args, "workers")));
  const auto min_sessions =
      static_cast<std::uint32_t>(std::stoul(required(args, "min-sessions")));
  const bool traced = args.flag("traced");

  SpanRecorder off{false};
  Counts off_counts;
  const Composed plain = compose(in, workers, min_sessions, off, off_counts);
  const std::string report = render_report(plain.result, plain.schema);
  if (const auto path = args.option("report")) {
    std::ofstream{std::string{*path}, std::ios::trunc} << report;
  }

  JsonObject out;
  out.num("sessions", static_cast<double>(plain.sessions))
      .num("epochs", plain.result.num_epochs)
      .num("wall_s", plain.wall_s)
      .raw("criticals", criticals_json(plain));

  if (traced) {
    SpanRecorder rec{true};
    Counts counts;
    Composed composed = compose(in, workers, min_sessions, rec, counts);
    Counts again_counts;
    const Composed again =
        compose(in, workers, min_sessions, off, again_counts);
    if (render_report(composed.result, composed.schema) != report ||
        render_report(again.result, again.schema) != report) {
      std::fprintf(stderr, "compose: traced and untraced reports differ\n");
      return 1;
    }
    const double traced_wall = composed.wall_s;
    const double untraced_wall = (plain.wall_s + again.wall_s) / 2.0;
    vq::SessionTable table = composed.table.has_value()
                                 ? std::move(*composed.table)
                                 : vq::read_trace_columnar(in).table;
    const MonitorLayer monitor =
        run_monitor(table, min_sessions,
                    std::filesystem::path{required(args, "checkpoint")}, rec);

    const SelfTimes t = self_times(rec.spans());
    print_self_times(t);
    if (const auto path = args.option("trace-out")) {
      std::ofstream trace{std::string{*path}, std::ios::trunc};
      rec.write_chrome_trace(trace);
    }
    const auto busy = [&](const char* name) {
      const auto it = t.by_name.find(name);
      return it == t.by_name.end() ? 0.0 : it->second;
    };
    const double epoch_busy = busy("gen.read") + busy("core.fold") +
                              busy("core.expand") + busy("core.critical");
    const auto leaves = static_cast<double>(counts.leaves.load());
    out.raw("layers",
            JsonObject{}
                .num("gen.load_s", busy("gen.load"))
                .num("gen.read_s", busy("gen.read"))
                .num("core.fold.busy_s", busy("core.fold"))
                .num("core.fold.sessions_per_leaf",
                     ratio(static_cast<double>(counts.sessions.load()), leaves))
                .num("core.expand.busy_s", busy("core.expand"))
                .num("core.expand.share", ratio(busy("core.expand"), epoch_busy))
                .num("core.expand.cells_per_leaf",
                     ratio(static_cast<double>(counts.cells.load()), leaves))
                .num("core.critical.busy_s", busy("core.critical"))
                .num("core.critical.problem_clusters",
                     static_cast<double>(counts.problem_clusters.load()))
                .num("core.critical.criticals",
                     static_cast<double>(counts.criticals.load()))
                .num("core.monitor.events", static_cast<double>(monitor.events))
                .num("core.monitor.tracked_keys",
                     static_cast<double>(monitor.tracked_keys))
                .num("core.monitor.checkpoint_bytes", monitor.checkpoint_bytes)
                .num("unattributed_share", ratio(t.unattributed_s, t.capacity_s))
                .num("process.capacity_s", t.capacity_s)
                .num("trace_overhead", ratio(traced_wall, untraced_wall) - 1.0)
                .dump())
        .raw("ingest_ms", json_array(monitor.ingest_ms))
        .raw("checkpoint_ms", json_array(monitor.checkpoint_ms));
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace vqbench
