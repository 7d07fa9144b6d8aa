// Engine microbenchmarks (google-benchmark): cluster-key packing, the flat
// hash map against std::unordered_map, lattice aggregation at several arity
// caps, critical-cluster extraction, and end-to-end epoch analysis.

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "src/core/critical_cluster.h"
#include "src/core/pipeline.h"
#include "src/gen/tracegen.h"
#include "src/util/flat_hash_map.h"
#include "src/util/thread_pool.h"

namespace vq {
namespace {

const SessionTable& bench_trace() {
  static const SessionTable trace = [] {
    WorldConfig world_config;
    world_config.num_asns = 1'000;
    const World world = World::build(world_config);
    EventScheduleConfig event_config;
    event_config.num_epochs = 4;
    const EventSchedule events = EventSchedule::generate(world, event_config);
    TraceConfig trace_config;
    trace_config.num_epochs = 4;
    trace_config.sessions_per_epoch = 5'000;
    return generate_trace(world, events, trace_config);
  }();
  return trace;
}

void BM_ClusterKeyPackProject(benchmark::State& state) {
  AttrVec attrs;
  attrs[AttrDim::kSite] = 123;
  attrs[AttrDim::kCdn] = 7;
  attrs[AttrDim::kAsn] = 4321;
  attrs[AttrDim::kConnType] = 3;
  for (auto _ : state) {
    const ClusterKey leaf = ClusterKey::pack(kFullMask, attrs);
    std::uint64_t acc = 0;
    for (unsigned mask = 1; mask <= kFullMask; ++mask) {
      acc ^= leaf.project(static_cast<std::uint8_t>(mask)).raw();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 127);
}
BENCHMARK(BM_ClusterKeyPackProject);

void BM_FlatMap64Upsert(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    FlatMap64<std::uint64_t> map;
    map.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      map[splitmix64(i) >> 16] += i;
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_FlatMap64Upsert)->Arg(1'000)->Arg(100'000);

void BM_UnorderedMapUpsert(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    map.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      map[splitmix64(i) >> 16] += i;
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_UnorderedMapUpsert)->Arg(1'000)->Arg(100'000);

void BM_AggregateEpoch(benchmark::State& state) {
  const SessionTable& trace = bench_trace();
  const ProblemThresholds thresholds;
  ClusterEngineConfig config;
  config.max_arity = static_cast<int>(state.range(0));
  const auto sessions = trace.epoch(0);
  for (auto _ : state) {
    const auto table = aggregate_epoch(sessions, thresholds, config, 0);
    benchmark::DoNotOptimize(table.clusters.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(sessions.size()));
}
BENCHMARK(BM_AggregateEpoch)->Arg(2)->Arg(4)->Arg(7);

/// An epoch with a controlled sessions-per-leaf ratio: `num_sessions`
/// sessions cycling over exactly `distinct_leaves` attribute combinations.
/// This is the knob the two-pass fold's cost depends on.
std::vector<Session> leaf_ratio_epoch(std::size_t num_sessions,
                                      std::size_t distinct_leaves) {
  std::vector<Session> sessions;
  sessions.reserve(num_sessions);
  for (std::size_t i = 0; i < num_sessions; ++i) {
    const std::uint64_t j = i % distinct_leaves;
    Session s;
    s.epoch = 0;
    s.attrs[AttrDim::kSite] = static_cast<std::uint16_t>(j & 0x3F);
    s.attrs[AttrDim::kCdn] = static_cast<std::uint16_t>((j >> 6) & 0x7);
    s.attrs[AttrDim::kAsn] = static_cast<std::uint16_t>(j >> 9);
    s.attrs[AttrDim::kConnType] = static_cast<std::uint16_t>(j % 3);
    s.attrs[AttrDim::kPlayer] = static_cast<std::uint16_t>(j % 5);
    s.attrs[AttrDim::kBrowser] = static_cast<std::uint16_t>(j % 4);
    s.attrs[AttrDim::kVodLive] = static_cast<std::uint16_t>(j & 1);
    s.quality.bitrate_kbps = 2'000.0F;
    s.quality.buffering_ratio = (i % 8 == 0) ? 0.2F : 0.0F;
    sessions.push_back(s);
  }
  return sessions;
}

constexpr std::size_t kLeafRatioSessions = 50'000;

void BM_AggregateEpochFoldedByLeafRatio(benchmark::State& state) {
  const auto ratio = static_cast<std::size_t>(state.range(0));
  const std::vector<Session> sessions =
      leaf_ratio_epoch(kLeafRatioSessions, kLeafRatioSessions / ratio);
  const ProblemThresholds thresholds;
  for (auto _ : state) {
    const LeafFold fold = fold_sessions(sessions, thresholds, 0);
    const auto table = expand_fold(fold, {});
    benchmark::DoNotOptimize(table.clusters.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(sessions.size()));
}
BENCHMARK(BM_AggregateEpochFoldedByLeafRatio)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ExpandFoldSharded(benchmark::State& state) {
  // Pass-2 expansion alone over a pre-built fold, at several shard counts
  // (shards=1 is the serial expansion baseline).
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::vector<Session> sessions =
      leaf_ratio_epoch(kLeafRatioSessions, kLeafRatioSessions / 4);
  const LeafFold fold = fold_sessions(sessions, {}, 0);
  ThreadPool pool{4};
  for (auto _ : state) {
    const auto table = expand_fold(fold, {}, &pool, shards);
    benchmark::DoNotOptimize(table.clusters.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(fold.leaves.size()) * 127);
}
BENCHMARK(BM_ExpandFoldSharded)->Arg(1)->Arg(2)->Arg(4);

// --- critical extraction, serial and sharded --------------------------------
// Shared fixture: one fold + one indexed table per process, so the loops
// time extraction alone (not aggregation).

struct CriticalFixture {
  LeafFold fold;
  EpochClusterTable table;
  ProblemClusterParams params{.ratio_multiplier = 1.5, .min_sessions = 100};
};

const CriticalFixture& critical_fixture() {
  static const CriticalFixture fixture = [] {
    CriticalFixture f;
    f.fold = fold_sessions(bench_trace().epoch(0), {}, 0);
    f.table = expand_fold(f.fold, {});
    return f;
  }();
  return fixture;
}

void BM_CriticalIndexed(benchmark::State& state) {
  const CriticalFixture& f = critical_fixture();
  for (auto _ : state) {
    const auto analysis = find_critical_clusters(f.fold, f.table, f.params,
                                                 Metric::kBufRatio);
    benchmark::DoNotOptimize(analysis.criticals.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(f.fold.leaves.size()));
}
BENCHMARK(BM_CriticalIndexed);

void BM_CriticalIndexedSharded(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const CriticalFixture& f = critical_fixture();
  ThreadPool pool{4};
  for (auto _ : state) {
    const auto analysis = find_critical_clusters(
        f.fold, f.table, f.params, Metric::kBufRatio, &pool, shards);
    benchmark::DoNotOptimize(analysis.criticals.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(f.fold.leaves.size()));
}
BENCHMARK(BM_CriticalIndexedSharded)->Arg(2)->Arg(4);

void BM_CriticalIndexedByLeafRatio(benchmark::State& state) {
  const auto ratio = static_cast<std::size_t>(state.range(0));
  const std::vector<Session> sessions =
      leaf_ratio_epoch(kLeafRatioSessions, kLeafRatioSessions / ratio);
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 100};
  const LeafFold fold = fold_sessions(sessions, {}, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  for (auto _ : state) {
    const auto analysis =
        find_critical_clusters(fold, table, params, Metric::kBufRatio);
    benchmark::DoNotOptimize(analysis.criticals.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(fold.leaves.size()));
}
BENCHMARK(BM_CriticalIndexedByLeafRatio)->Arg(4)->Arg(16);

void BM_FullPipelinePerEpoch(benchmark::State& state) {
  const SessionTable& trace = bench_trace();
  PipelineConfig config;
  config.cluster_params.min_sessions = 100;
  for (auto _ : state) {
    const PipelineResult result = run_pipeline(trace, config);
    benchmark::DoNotOptimize(result.num_epochs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(trace.size()));
}
BENCHMARK(BM_FullPipelinePerEpoch);

void BM_TraceGeneration(benchmark::State& state) {
  WorldConfig world_config;
  world_config.num_asns = 1'000;
  const World world = World::build(world_config);
  const EventSchedule events = EventSchedule::none(1);
  TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch =
      static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const auto sessions = generate_epoch(world, events, trace_config, 0);
    benchmark::DoNotOptimize(sessions.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(1'000)->Arg(10'000);

}  // namespace
}  // namespace vq

BENCHMARK_MAIN();
