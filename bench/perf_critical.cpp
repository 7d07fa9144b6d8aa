// Standalone critical-extraction benchmark: times the indexed extraction
// (all four metrics), serial and sharded, over the iceberg table
// analyze_epoch builds — on one epoch of each generated world
// (perf_worlds.h) at the CLI's automatic floor — and writes the numbers to
// BENCH_critical.json.
//
// Unlike the google-benchmark microbenches (perf_engine), this harness is a
// plain main() so CI can run it in smoke mode and the JSON can be checked
// in as the PR's perf evidence.
//
//   usage: perf_critical [--smoke] [output.json]
//
//   VIDQUAL_CRIT_SESSIONS  sessions in each world's epoch (default 40000)
//   VIDQUAL_CRIT_REPS      timed repetitions per variant  (default 300)
//   VIDQUAL_CRIT_SHARDS    shard count for the sharded run (default 4)
//
// Smoke mode shrinks both knobs so the whole binary finishes in seconds; it
// still exercises both variants and the bit-identity check.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "bench/perf_worlds.h"
#include "src/core/critical_cluster.h"
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

bool same_analysis(const vq::CriticalAnalysis& a,
                   const vq::CriticalAnalysis& b) {
  bool same = a.criticals.size() == b.criticals.size() &&
              a.attributed_mass == b.attributed_mass &&
              a.problem_sessions_in_pc == b.problem_sessions_in_pc &&
              a.problem_cluster_keys == b.problem_cluster_keys;
  for (std::size_t i = 0; same && i < a.criticals.size(); ++i) {
    same = a.criticals[i].key == b.criticals[i].key &&
           a.criticals[i].attributed == b.criticals[i].attributed;
  }
  return same;
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
      env_u64("VIDQUAL_CRIT_SESSIONS", smoke ? 20'000 : 40'000));
  const auto reps =
      static_cast<std::size_t>(env_u64("VIDQUAL_CRIT_REPS", smoke ? 100 : 300));
  const auto shards =
      static_cast<std::size_t>(env_u64("VIDQUAL_CRIT_SHARDS", 4));
  const ProblemClusterParams params{
      .ratio_multiplier = 1.5, .min_sessions = bench::auto_floor(sessions_n)};
  ThreadPool pool{shards};

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"critical_extraction\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"sessions\": " << sessions_n << ",\n"
      << "  \"min_sessions\": " << params.min_sessions << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"shards\": " << shards << ",\n";
  std::printf("perf_critical: %u sessions per world, min_sessions %u, "
              "%zu reps\n",
              sessions_n, params.min_sessions, reps);

  for (const bench::PerfWorld& world : bench::kPerfWorlds) {
    const SessionTable trace = bench::perf_epoch(world, sessions_n);
    const LeafFold fold = fold_sessions(trace.epoch(0), ProblemThresholds{}, 0);
    const EpochClusterTable table =
        expand_fold(fold, {}, nullptr, 1, params.min_sessions);

    // A "rep" covers all four metrics, matching what the pipeline does per
    // epoch — so reps/sec is directly epochs/sec of critical extraction.
    const auto run = [&](ThreadPool* p, std::size_t n_shards) {
      for (const Metric m : kAllMetrics) {
        const auto a =
            find_critical_clusters(fold, table, params, m, p, n_shards);
        if (a.criticals.empty() && a.num_problem_clusters > 0) std::abort();
      }
    };
    const double serial_s = time_reps(reps, [&] { run(nullptr, 1); });
    const double sharded_s = time_reps(reps, [&] { run(&pool, shards); });

    // Bit-identity before the numbers mean anything: serial, sharded and
    // the full lattice (floor 1) must agree (the oracle differential lives
    // in tests/test_critical_differential.cpp).
    const EpochClusterTable full = expand_fold(fold, {});
    std::size_t criticals = 0;
    for (const Metric m : kAllMetrics) {
      const auto a = find_critical_clusters(fold, table, params, m);
      if (!same_analysis(a, find_critical_clusters(fold, table, params, m,
                                                   &pool, shards)) ||
          !same_analysis(a, find_critical_clusters(fold, full, params, m))) {
        std::fprintf(stderr,
                     "FATAL: %s: serial, sharded and full-lattice analyses "
                     "disagree on metric %d\n",
                     world.name, static_cast<int>(m));
        return 1;
      }
      criticals += a.criticals.size();
    }

    const double n = static_cast<double>(reps);
    const std::string w{world.name};
    std::printf("  %-7s: %zu leaves, %zu cells, %zu criticals; "
                "%8.2f epochs/sec, x%zu %8.2f\n",
                world.name, fold.leaves.size(), table.clusters.size(),
                criticals, n / serial_s, shards, n / sharded_s);
    out << "  \"" << w << "_leaves\": " << fold.leaves.size() << ",\n"
        << "  \"" << w << "_cells\": " << table.clusters.size() << ",\n"
        << "  \"" << w << "_critical_clusters\": " << criticals << ",\n"
        << "  \"" << w << "_epochs_per_sec\": " << n / serial_s << ",\n"
        << "  \"" << w << "_sharded_epochs_per_sec\": " << n / sharded_s
        << ",\n";
  }
  out << "  \"worlds\": " << bench::kPerfWorlds.size() << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
