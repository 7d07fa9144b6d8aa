// Standalone critical-extraction benchmark: times the indexed extraction,
// serial and sharded, on one realistic epoch and writes the numbers to
// BENCH_critical.json.
//
// Unlike the google-benchmark microbenches (perf_engine), this harness is a
// plain main() so CI can run it in smoke mode and the JSON can be checked
// in as the PR's perf evidence.
//
//   usage: perf_critical [--smoke] [output.json]
//
//   VIDQUAL_CRIT_SESSIONS  sessions in the benchmarked epoch (default 200000)
//   VIDQUAL_CRIT_REPS      timed repetitions per strategy    (default 20)
//   VIDQUAL_CRIT_SHARDS    shard count for the sharded run   (default 4)
//
// Smoke mode shrinks both knobs so the whole binary finishes in seconds; it
// still exercises both variants and the bit-identity check.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "src/core/critical_cluster.h"
#include "src/gen/tracegen.h"
#include "src/util/thread_pool.h"

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

/// Seconds for `reps` runs of `body` (one warmup run first).
template <typename F>
double time_reps(std::size_t reps, F&& body) {
  body();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vq;

  bool smoke = false;
  std::string out_path = "BENCH_critical.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  const auto sessions_n = static_cast<std::uint32_t>(
      env_u64("VIDQUAL_CRIT_SESSIONS", smoke ? 20'000 : 200'000));
  const auto reps =
      static_cast<std::size_t>(env_u64("VIDQUAL_CRIT_REPS", smoke ? 3 : 20));
  const auto shards =
      static_cast<std::size_t>(env_u64("VIDQUAL_CRIT_SHARDS", 4));

  // One epoch over a compact attribute universe: leaves repeat heavily,
  // clusters clear the significance floor — the regime the paper's traces
  // live in.
  WorldConfig world_config;
  world_config.num_sites = 20;
  world_config.num_cdns = 3;
  world_config.num_asns = 50;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = 1;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch = sessions_n;
  trace_config.diurnal_amplitude = 0.0;
  const SessionTable trace = generate_trace(world, events, trace_config);

  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};
  const LeafFold fold = fold_sessions(trace.epoch(0), thresholds, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  ThreadPool pool{shards};

  std::printf("perf_critical: %zu sessions, %zu leaves, %zu cells, %zu reps\n",
              trace.size(), fold.leaves.size(), table.clusters.size(), reps);

  // A "rep" covers all four metrics, matching what the pipeline does per
  // epoch — so reps/sec is directly epochs/sec of critical extraction.
  const auto run = [&](ThreadPool* p, std::size_t n_shards) {
    for (const Metric m : kAllMetrics) {
      const auto a = find_critical_clusters(fold, table, params, m, p,
                                            n_shards);
      if (a.criticals.empty() && a.num_problem_clusters > 0) std::abort();
    }
  };
  const double indexed_s = time_reps(reps, [&] { run(nullptr, 1); });
  const double sharded_s = time_reps(reps, [&] { run(&pool, shards); });

  // Bit-identity, serial vs sharded, before the numbers mean anything (the
  // oracle differential lives in tests/test_critical_differential.cpp).
  std::size_t criticals = 0;
  for (const Metric m : kAllMetrics) {
    const auto a = find_critical_clusters(fold, table, params, m);
    const auto b = find_critical_clusters(fold, table, params, m, &pool,
                                          shards);
    bool same = a.criticals.size() == b.criticals.size() &&
                a.attributed_mass == b.attributed_mass &&
                a.problem_sessions_in_pc == b.problem_sessions_in_pc &&
                a.problem_cluster_keys == b.problem_cluster_keys;
    for (std::size_t i = 0; same && i < a.criticals.size(); ++i) {
      same = a.criticals[i].key == b.criticals[i].key &&
             a.criticals[i].attributed == b.criticals[i].attributed;
    }
    if (!same) {
      std::fprintf(stderr, "FATAL: serial and sharded disagree on metric %d\n",
                   static_cast<int>(m));
      return 1;
    }
    criticals += a.criticals.size();
  }

  const double n = static_cast<double>(reps);
  const double indexed_eps = n / indexed_s;
  const double sharded_eps = n / sharded_s;

  std::printf("  indexed         : %8.2f epochs/sec\n", indexed_eps);
  std::printf("  indexed x%zu     : %8.2f epochs/sec  (%.2fx)\n", shards,
              sharded_eps, sharded_eps / indexed_eps);

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"critical_extraction\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"sessions\": " << trace.size() << ",\n"
      << "  \"distinct_leaves\": " << fold.leaves.size() << ",\n"
      << "  \"lattice_cells\": " << table.clusters.size() << ",\n"
      << "  \"critical_clusters\": " << criticals << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"shards\": " << shards << ",\n"
      << "  \"indexed_epochs_per_sec\": " << indexed_eps << ",\n"
      << "  \"indexed_sharded_epochs_per_sec\": " << sharded_eps << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
