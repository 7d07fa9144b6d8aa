// Standalone lattice-expansion benchmark: times pass 2 (expand_fold) — the
// iceberg at the CLI's automatic floor, serial and sharded — on one epoch of
// each generated world (perf_worlds.h), plus the full lattice (floor 1) on
// the default world for scale, and writes the numbers to BENCH_expand.json.
//
// Like perf_fold, this is a plain main() so CI can run it in smoke mode
// (the bench-smoke gate diffs it against bench/baselines/expand_smoke.json
// via tools/bench_check) and the JSON can be checked in as the PR's perf
// evidence.
//
//   usage: perf_expand [--smoke] [output.json]
//
//   VIDQUAL_EXPAND_SESSIONS  sessions in each world's epoch (default 40000)
//   VIDQUAL_EXPAND_REPS      timed repetitions per variant  (default 100)
//   VIDQUAL_EXPAND_SHARDS    shards for the sharded variant (default 4)
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

#include "bench/perf_worlds.h"
#include "src/core/cluster_engine.h"
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
  return a.root == b.root &&
         std::equal(ka.begin(), ka.end(), kb.begin(), kb.end()) &&
         std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()) &&
         a.leaf_index.projections == b.leaf_index.projections &&
         a.leaf_index.cell_ids == b.leaf_index.cell_ids;
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
      env_u64("VIDQUAL_EXPAND_SESSIONS", smoke ? 20'000 : 40'000));
  const auto reps = static_cast<std::size_t>(
      env_u64("VIDQUAL_EXPAND_REPS", smoke ? 40 : 100));
  const auto shards =
      static_cast<std::size_t>(env_u64("VIDQUAL_EXPAND_SHARDS", 4));
  const std::uint32_t floor = bench::auto_floor(sessions_n);
  const ClusterEngineConfig config;
  ThreadPool pool{shards};

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"iceberg_expand\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"sessions\": " << sessions_n << ",\n"
      << "  \"floor\": " << floor << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"shards\": " << shards << ",\n";
  std::printf("perf_expand: %u sessions per world, floor %u, %zu reps\n",
              sessions_n, floor, reps);

  for (const bench::PerfWorld& world : bench::kPerfWorlds) {
    const SessionTable trace = bench::perf_epoch(world, sessions_n);
    const LeafFold fold = fold_sessions(trace.epoch(0), ProblemThresholds{}, 0);
    const auto check = [&](const EpochClusterTable& table) {
      if (table.root.sessions != trace.size()) std::abort();
    };
    // A "rep" is one pass-2 expansion of the epoch fold, so reps/sec is
    // expand epochs/sec.
    const double serial_s = time_reps(
        reps, [&] { check(expand_fold(fold, config, nullptr, 1, floor)); });
    const double sharded_s = time_reps(reps, [&] {
      check(expand_fold(fold, config, &pool, shards, floor));
    });

    // Bit-identity before the numbers mean anything (the oracle
    // differential lives in tests/test_expand_differential.cpp).
    const EpochClusterTable table =
        expand_fold(fold, config, nullptr, 1, floor);
    if (!tables_identical(table,
                          expand_fold(fold, config, &pool, shards, floor))) {
      std::fprintf(stderr, "FATAL: %s: serial and sharded disagree\n",
                   world.name);
      return 1;
    }
    const double n = static_cast<double>(reps);
    const std::string w{world.name};
    std::printf("  %-7s: %zu leaves, %zu cells; iceberg %8.2f expands/sec, "
                "x%zu %8.2f\n",
                world.name, fold.leaves.size(), table.clusters.size(),
                n / serial_s, shards, n / sharded_s);
    out << "  \"" << w << "_leaves\": " << fold.leaves.size() << ",\n"
        << "  \"" << w << "_cells\": " << table.clusters.size() << ",\n"
        << "  \"" << w << "_iceberg_expands_per_sec\": " << n / serial_s
        << ",\n"
        << "  \"" << w << "_iceberg_sharded_expands_per_sec\": "
        << n / sharded_s << ",\n";

    if (w == "default") {
      // The full lattice, for scale: what a floor-1 caller (perfbench's
      // reference composition) pays.
      const std::size_t full_reps = std::max<std::size_t>(1, reps / 10);
      const double full_s = time_reps(
          full_reps, [&] { check(expand_fold(fold, config, nullptr, 1, 1)); });
      const double full_eps = static_cast<double>(full_reps) / full_s;
      std::printf("  %-7s: full lattice %8.2f expands/sec\n", world.name,
                  full_eps);
      out << "  \"default_full_expands_per_sec\": " << full_eps << ",\n";
    }
  }
  out << "  \"worlds\": " << bench::kPerfWorlds.size() << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
