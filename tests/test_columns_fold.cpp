// Tests for the vectorized column-batch kernels (core/columns.h):
// problem_bits_columns / pack_leaf_keys_columns / fold_sessions_columns
// must reproduce the naive oracle (tests/oracle.h) bit for bit, with both
// the kAuto (SIMD) and kScalar kernels — and run_pipeline_streaming must
// match run_pipeline at every workers setting (and so at every shard count
// the two derive from it).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/pipeline.h"
#include "src/gen/tracegen.h"
#include "tests/oracle.h"
#include "tests/test_support.h"

namespace vq {
namespace {

constexpr BatchKernel kBothKernels[] = {BatchKernel::kAuto,
                                        BatchKernel::kScalar};

SessionTable medium_trace(std::uint32_t epochs = 3,
                          std::uint32_t per_epoch = 6'000) {
  WorldConfig world_config;
  world_config.num_sites = 14;
  world_config.num_cdns = 3;
  world_config.num_asns = 30;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = epochs;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = per_epoch;
  return generate_trace(world, events, trace_config);
}

/// Threshold-exact, nextafter, NaN, infinity, and join-failure metrics at
/// the default thresholds: the SIMD ordered compares must agree with the
/// scalar float compares on every one.
std::vector<QualityMetrics> edge_qualities() {
  const ProblemThresholds thresholds;
  const float at_buf = static_cast<float>(thresholds.max_buffering_ratio);
  const float at_bitrate = static_cast<float>(thresholds.min_bitrate_kbps);
  const float at_join = static_cast<float>(thresholds.max_join_time_ms);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  return {
      {at_buf, at_bitrate, at_join, false},          // exactly at: not problems
      {std::nextafter(at_buf, 1.0F), at_bitrate, at_join, false},
      {at_buf, std::nextafter(at_bitrate, 0.0F), at_join, false},
      {at_buf, at_bitrate, std::nextafter(at_join, 1e9F), false},
      {nan, nan, nan, false},                        // NaN compares false
      {inf, -inf, inf, false},
      {0.5F, 100.0F, 90'000.0F, true},               // join failure dominates
      {nan, inf, -inf, true},
      {-0.0F, 0.0F, -1.0F, false},
  };
}

/// The fold must equal the oracle's session-by-session leaves and root
/// (arity 1 keeps the oracle's cell map small; leaves ignore the cap).
void expect_fold_matches_oracle(std::span<const Session> sessions,
                                const ProblemThresholds& thresholds,
                                std::uint32_t epoch, const LeafFold& fold) {
  const oracle::Lattice want = oracle::lattice(sessions, thresholds, epoch, 1);
  EXPECT_EQ(fold.epoch, epoch);
  EXPECT_EQ(fold.root, want.root);
  ASSERT_EQ(fold.leaves.size(), want.leaves.size());
  std::size_t mismatches = 0;
  for (const auto& [raw, stats] : want.leaves) {
    const ClusterStats* got = fold.leaves.find(raw);
    if (got == nullptr || !(*got == stats)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ColumnsBatch, RoundTripsRowsExactly) {
  const SessionTable trace = medium_trace(2, 500);
  const std::span<const Session> sessions = trace.epoch(1);
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 1);
  ASSERT_EQ(columns.size(), sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const Session round = columns.row(i, 1);
    EXPECT_EQ(round.attrs, sessions[i].attrs);
    EXPECT_EQ(round.quality, sessions[i].quality);
    EXPECT_EQ(round.epoch, 1u);
  }
}

TEST(ColumnsBatch, FromSessionsRejectsEpochMismatch) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 3, test::Attrs{}, test::good_quality(), 1);
  EXPECT_THROW((void)SessionColumns::from_sessions(sessions, 0),
               std::invalid_argument);
}

TEST(ColumnsBatch, ClearRetainsNothingButCapacity) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{.site = 2}, test::failed_join(),
                     9);
  SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  ASSERT_EQ(columns.size(), 9u);
  columns.clear();
  EXPECT_TRUE(columns.empty());
  for (const auto& col : columns.attrs) EXPECT_TRUE(col.empty());
  EXPECT_TRUE(columns.buffering_ratio.empty());
}

TEST(ColumnsBatch, ProblemBitsMatchOracle) {
  const SessionTable trace = medium_trace(1, 20'000);
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  // The oracle's root over one session holds that session's problem bits.
  std::vector<std::uint8_t> want(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const ClusterStats root =
        oracle::lattice(sessions.subspan(i, 1), thresholds, 0, 1).root;
    for (int m = 0; m < kNumMetrics; ++m) {
      want[i] |= static_cast<std::uint8_t>(root.problems[m] << m);
    }
  }
  std::vector<std::uint8_t> bits(columns.size());
  for (const BatchKernel kernel : kBothKernels) {
    problem_bits_columns(columns, thresholds, bits, kernel);
    EXPECT_EQ(bits, want) << batch_kernel_name();
  }
}

TEST(ColumnsBatch, ProblemBitsEdgeValuesMatchScalar) {
  // Rows are repeated past one SIMD block so full vector lanes hit the
  // edges too.
  const ProblemThresholds thresholds;
  std::vector<Session> sessions;
  for (int rep = 0; rep < 13; ++rep) {
    for (const QualityMetrics& q : edge_qualities()) {
      sessions.push_back(test::make_session(0, test::Attrs{}, q));
    }
  }
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  std::vector<std::uint8_t> bits(columns.size());
  for (const BatchKernel kernel : kBothKernels) {
    problem_bits_columns(columns, thresholds, bits, kernel);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      EXPECT_EQ(bits[i], thresholds.problem_bits(sessions[i].quality))
          << "row " << i;
    }
  }
}

TEST(ColumnsBatch, PackedLeafKeysMatchClusterKeyPack) {
  const SessionTable trace = medium_trace(1, 20'000);
  const std::span<const Session> sessions = trace.epoch(0);
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  std::vector<std::uint64_t> keys(columns.size());
  for (const BatchKernel kernel : kBothKernels) {
    pack_leaf_keys_columns(columns, keys, kernel);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (keys[i] != ClusterKey::pack(kFullMask, sessions[i].attrs).raw()) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(ColumnsBatch, PackRejectsValuesThatOverflowTheirField) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{}, test::good_quality(), 3);
  SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  // VodLive has a 2-bit field; 4 does not fit.
  columns.attrs[static_cast<int>(AttrDim::kVodLive)][1] = 4;
  std::vector<std::uint64_t> keys(columns.size());
  for (const BatchKernel kernel : kBothKernels) {
    EXPECT_THROW(pack_leaf_keys_columns(columns, keys, kernel),
                 std::out_of_range);
  }
}

TEST(ColumnsBatch, KernelEntryPointsRejectMisSizedSpans) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{}, test::good_quality(), 5);
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  std::vector<std::uint8_t> bits(4);
  std::vector<std::uint64_t> keys(6);
  EXPECT_THROW(problem_bits_columns(columns, {}, bits),
               std::invalid_argument);
  EXPECT_THROW(pack_leaf_keys_columns(columns, keys), std::invalid_argument);
}

TEST(ColumnsFold, MatchesOracleOnGeneratedTrace) {
  const SessionTable trace = medium_trace();
  const ProblemThresholds thresholds;
  for (std::uint32_t e = 0; e < trace.num_epochs(); ++e) {
    const std::span<const Session> sessions = trace.epoch(e);
    const SessionColumns columns = SessionColumns::from_sessions(sessions, e);
    for (const BatchKernel kernel : kBothKernels) {
      expect_fold_matches_oracle(
          sessions, thresholds, e,
          fold_sessions_columns(columns, thresholds, e, kernel));
    }
    expect_fold_matches_oracle(sessions, thresholds, e,
                               fold_sessions(sessions, thresholds, e));
  }
}

TEST(ColumnsFold, MatchesOracleAcrossBlockBoundaries) {
  // The column fold runs in fixed-size blocks; sweep sizes around likely
  // block boundaries (powers of two +/- 1) so partial final blocks and
  // exact multiples are both covered.  Every 61st session carries an
  // edge_qualities() metric, so SIMD lanes and scalar tails both meet the
  // compare edges inside the fold.
  const ProblemThresholds thresholds;
  WorldConfig world_config;
  world_config.num_sites = 14;
  const World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch = 5'000;
  trace_config.diurnal_amplitude = 0.0;  // epoch 0 gets the full 5k
  const SessionTable trace =
      generate_trace(world, EventSchedule::none(1), trace_config);
  const std::vector<QualityMetrics> edges = edge_qualities();
  std::vector<Session> all{trace.epoch(0).begin(), trace.epoch(0).end()};
  for (std::size_t i = 0; i < all.size(); i += 61) {
    all[i].quality = edges[(i / 61) % edges.size()];
  }
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{7}, std::size_t{2047}, std::size_t{2048},
        std::size_t{2049}, std::size_t{4096}, std::size_t{4101}}) {
    ASSERT_LE(n, all.size());
    const std::span<const Session> sessions{all.data(), n};
    const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
    for (const BatchKernel kernel : kBothKernels) {
      expect_fold_matches_oracle(
          sessions, thresholds, 0,
          fold_sessions_columns(columns, thresholds, 0, kernel));
    }
  }
}

TEST(ColumnsFold, EmptyBatchFoldsToEmptyLeaves) {
  const SessionColumns columns;
  const LeafFold fold = fold_sessions_columns(columns, {}, 5);
  EXPECT_EQ(fold.epoch, 5u);
  EXPECT_EQ(fold.root.sessions, 0u);
  EXPECT_EQ(fold.leaves.size(), 0u);
}

TEST(ColumnsFold, BatchKernelNameIsKnown) {
  const std::string_view name = batch_kernel_name();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "scalar") << name;
}

TEST(StreamingPipeline, MatchesInMemoryPipelineAtEveryWorkersShards) {
  const SessionTable trace = medium_trace(3, 4'000);
  PipelineConfig config;
  config.cluster_params.min_sessions = 40;

  config.workers = 1;
  const PipelineResult baseline = run_pipeline(trace, config);

  // Shards derive from workers (epoch_shards): streamed, each epoch takes
  // 1, 2, 4 or 5 shards; in RAM over 3 epochs, 1, 1, 2 and 2.
  for (const std::size_t workers : {1u, 2u, 4u, 5u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    config.workers = workers;
    TableColumnsSource source{trace};
    const PipelineResult streamed = run_pipeline_streaming(source, config);
    ASSERT_EQ(streamed.num_epochs, baseline.num_epochs);
    EXPECT_TRUE(streamed.degraded_epochs.empty());
    // Cross-check the parallel in-memory pipeline at the same settings —
    // three-way agreement pins both paths to the serial baseline.
    const PipelineResult parallel = run_pipeline(trace, config);
    for (const Metric m : kAllMetrics) {
      for (std::uint32_t e = 0; e < baseline.num_epochs; ++e) {
        test::expect_same_analysis(baseline.at(m, e).analysis,
                                   streamed.at(m, e).analysis);
        test::expect_same_analysis(baseline.at(m, e).analysis,
                                   parallel.at(m, e).analysis);
      }
    }
  }
}

TEST(TableColumnsSource, RereadingAnEpochReusesEveryColumn) {
  // read_epoch refills `out` in place: a second read of an epoch of the
  // same size must not reallocate any column.
  std::vector<Session> rows;
  test::add_sessions(rows, 0, test::Attrs{.cdn = 1, .asn = 2},
                     test::good_quality(), 300);
  test::add_sessions(rows, 1, test::Attrs{.cdn = 2, .asn = 3},
                     test::bad_buffering(), 300);
  const SessionTable trace{std::move(rows)};
  TableColumnsSource source{trace};
  SessionColumns columns;
  (void)source.read_epoch(0, columns);
  const auto data_pointers = [&columns] {
    std::vector<const void*> out;
    for (const auto& column : columns.attrs) out.push_back(column.data());
    out.push_back(columns.buffering_ratio.data());
    out.push_back(columns.bitrate_kbps.data());
    out.push_back(columns.join_time_ms.data());
    out.push_back(columns.join_failed.data());
    return out;
  };
  const std::vector<const void*> first = data_pointers();
  (void)source.read_epoch(1, columns);
  EXPECT_EQ(data_pointers(), first);
  (void)source.read_epoch(0, columns);
  EXPECT_EQ(data_pointers(), first);
  ASSERT_EQ(columns.size(), 300u);
  EXPECT_EQ(columns.attrs[static_cast<std::size_t>(AttrDim::kCdn)][7], 1);
}

TEST(StreamingPipeline, PropagatesDegradedEpochsFromSource) {
  const SessionTable trace = medium_trace(3, 300);
  TableColumnsSource source{trace, {1}};
  const PipelineResult result = run_pipeline_streaming(source, {});
  EXPECT_EQ(result.degraded_epochs, (std::vector<std::uint32_t>{1}));
  EXPECT_FALSE(result.is_degraded(0));
  EXPECT_TRUE(result.is_degraded(1));
}

}  // namespace
}  // namespace vq
