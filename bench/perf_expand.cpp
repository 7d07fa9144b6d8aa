// Standalone lattice-expansion benchmark: times pass 2 (expand_fold) — the
// scalar fallback kernel, the widest SIMD path the build supports (kAuto),
// and the sharded parallel variant — on one realistic epoch fold and
// writes the numbers to BENCH_expand.json.
//
// Like perf_fold, this is a plain main() so CI can run it in smoke mode
// (the bench-smoke gate diffs it against bench/baselines/expand_smoke.json
// via tools/bench_check) and the JSON can be checked in as the PR's perf
// evidence.
//
//   usage: perf_expand [--smoke] [output.json]
//
//   VIDQUAL_EXPAND_SESSIONS  sessions folded into the epoch (default 400000)
//   VIDQUAL_EXPAND_REPS      timed repetitions per variant   (default 10)
//   VIDQUAL_EXPAND_SHARDS    shards for the sharded variant  (default 4)
//
// Smoke mode shrinks the knobs so the whole binary finishes in seconds; it
// still exercises every variant and the bit-identity check.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
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

/// Exact equality, id for id: root, every cell, and the leaf index.
bool tables_identical(const vq::EpochClusterTable& a,
                      const vq::EpochClusterTable& b) {
  const auto& ka = a.clusters.keys();
  const auto& kb = b.clusters.keys();
  const auto& ca = a.clusters.cells();
  const auto& cb = b.clusters.cells();
  return a.root == b.root && std::equal(ka.begin(), ka.end(), kb.begin(),
                                        kb.end()) &&
         std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()) &&
         a.leaf_index.cell_rows == b.leaf_index.cell_rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vq;

  bool smoke = false;
  std::string out_path = "BENCH_expand.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  const auto sessions_n = static_cast<std::uint32_t>(
      env_u64("VIDQUAL_EXPAND_SESSIONS", smoke ? 40'000 : 400'000));
  const auto reps = static_cast<std::size_t>(
      env_u64("VIDQUAL_EXPAND_REPS", smoke ? 3 : 10));
  const auto shards =
      static_cast<std::size_t>(env_u64("VIDQUAL_EXPAND_SHARDS", 4));

  // Same default bench world as perf_fold: one epoch over a compact
  // attribute universe, so leaves repeat heavily and the expansion — not
  // the fold — dominates.
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
  const LeafFold fold = fold_sessions(trace.epoch(0), thresholds, 0);

  ClusterEngineConfig scalar_config;
  scalar_config.expand_kernel = BatchKernel::kScalar;
  const ClusterEngineConfig mm_config;  // default kernel: kAuto

  std::printf("perf_expand: %zu sessions, %zu leaves, %zu reps, kernel %s\n",
              trace.size(), fold.leaves.size(), reps,
              std::string{batch_kernel_name()}.c_str());

  // A "rep" is one full pass-2 expansion of the epoch fold, so reps/sec is
  // directly expand epochs/sec — at ~90% of epoch cost this is the epoch
  // throughput ceiling the pipeline sees.
  const auto check = [&](const EpochClusterTable& table) {
    if (table.root.sessions != trace.size()) std::abort();
  };
  const double scalar_s =
      time_reps(reps, [&] { check(expand_fold(fold, scalar_config)); });
  const double simd_s =
      time_reps(reps, [&] { check(expand_fold(fold, mm_config)); });
  ThreadPool pool{shards};
  const double sharded_s = time_reps(
      reps, [&] { check(expand_fold(fold, mm_config, &pool, shards)); });

  // Bit-identity before the numbers mean anything (the full differential
  // lives in tests/test_expand_differential.cpp).
  const EpochClusterTable table = expand_fold(fold, mm_config);
  if (!tables_identical(table, expand_fold(fold, scalar_config)) ||
      !tables_identical(table, expand_fold(fold, mm_config, &pool, shards))) {
    std::fprintf(stderr, "FATAL: scalar, kAuto and sharded disagree\n");
    return 1;
  }

  const double n = static_cast<double>(reps);
  const double scalar_eps = n / scalar_s;
  const double simd_eps = n / simd_s;
  const double sharded_eps = n / sharded_s;
  const double leaves_per_sec =
      simd_eps * static_cast<double>(fold.leaves.size());

  std::printf("  mask-major scalar : %8.2f expands/sec\n", scalar_eps);
  std::printf("  mask-major %-6s : %8.2f expands/sec  (%.2fx, %.1fM leaves/s)\n",
              std::string{batch_kernel_name()}.c_str(), simd_eps,
              simd_eps / scalar_eps, leaves_per_sec / 1e6);
  std::printf("  mask-major x%-5zu : %8.2f expands/sec  (%.2fx)\n", shards,
              sharded_eps, sharded_eps / simd_eps);

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"mask_major_expand\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"kernel\": \"" << batch_kernel_name() << "\",\n"
      << "  \"sessions\": " << trace.size() << ",\n"
      << "  \"leaves\": " << fold.leaves.size() << ",\n"
      << "  \"cells\": " << table.clusters.size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"shards\": " << shards << ",\n"
      << "  \"maskmajor_scalar_expands_per_sec\": " << scalar_eps << ",\n"
      << "  \"maskmajor_expands_per_sec\": " << simd_eps << ",\n"
      << "  \"maskmajor_sharded_expands_per_sec\": " << sharded_eps << ",\n"
      << "  \"maskmajor_leaves_per_sec\": " << leaves_per_sec << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
