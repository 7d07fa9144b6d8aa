// Integration tests: the full pipeline over generated traces, checking
// cross-module consistency invariants.

#include "src/core/pipeline.h"

#include <gtest/gtest.h>

#include "src/core/prevalence.h"
#include "src/gen/tracegen.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

struct GeneratedFixture : ::testing::Test {
  GeneratedFixture() {
    WorldConfig world_config;
    world_config.num_sites = 50;
    world_config.num_cdns = 8;
    world_config.num_asns = 120;
    world = World::build(world_config);

    EventScheduleConfig event_config;
    event_config.num_epochs = 8;
    event_config.events_per_epoch = 2.0;
    events = EventSchedule::generate(world, event_config);

    TraceConfig trace_config;
    trace_config.num_epochs = 8;
    trace_config.sessions_per_epoch = 1'500;
    trace = generate_trace(world, events, trace_config);

    config.cluster_params.min_sessions = 40;
    result = run_pipeline(trace, config);
  }

  World world = World::build(WorldConfig{.num_sites = 1, .num_cdns = 1,
                                         .num_asns = 1});
  EventSchedule events = EventSchedule::none(0);
  SessionTable trace;
  PipelineConfig config;
  PipelineResult result;
};

TEST_F(GeneratedFixture, EpochAccountingIsConsistent) {
  ASSERT_EQ(result.num_epochs, 8u);
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const CriticalAnalysis& a = result.at(m, e).analysis;
      EXPECT_EQ(a.epoch, e);
      EXPECT_EQ(a.metric, m);
      EXPECT_EQ(a.sessions, trace.epoch(e).size());
      // Problem sessions counted two ways must agree.
      std::uint64_t manual = 0;
      for (const Session& s : trace.epoch(e)) {
        if (config.thresholds.is_problem(m, s.quality)) ++manual;
      }
      EXPECT_EQ(a.problem_sessions, manual);
    }
  }
}

TEST_F(GeneratedFixture, CoverageChainInequalityHolds) {
  // attributed mass <= problem sessions in problem clusters <= problem
  // sessions, for every epoch and metric.
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const CriticalAnalysis& a = result.at(m, e).analysis;
      EXPECT_LE(a.attributed_mass,
                static_cast<double>(a.problem_sessions_in_pc) + 1e-6);
      EXPECT_LE(a.problem_sessions_in_pc, a.problem_sessions);
      EXPECT_LE(a.criticals.size(),
                static_cast<std::size_t>(a.num_problem_clusters));
    }
  }
}

TEST_F(GeneratedFixture, EveryCriticalClusterIsAProblemCluster) {
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const auto& analysis = result.at(m, e).analysis;
      const auto& pc_keys = analysis.problem_cluster_keys;
      EXPECT_TRUE(std::is_sorted(pc_keys.begin(), pc_keys.end()));
      EXPECT_EQ(pc_keys.size(), analysis.num_problem_clusters);
      for (const CriticalRecord& c : analysis.criticals) {
        EXPECT_TRUE(std::binary_search(pc_keys.begin(), pc_keys.end(),
                                       c.key.raw()))
            << "critical cluster not in problem-cluster set";
        // Stats satisfy the flagging conditions.
        EXPECT_GE(c.stats.sessions, config.cluster_params.min_sessions);
        EXPECT_GE(c.stats.problem_ratio(m),
                  config.cluster_params.ratio_multiplier *
                      analysis.global_ratio -
                      1e-12);
      }
    }
  }
}

TEST_F(GeneratedFixture, AggregatesAreMeansOfEpochValues) {
  const auto agg = result.aggregates(Metric::kBufRatio);
  double mean_pc = 0.0;
  for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
    mean_pc += result.at(Metric::kBufRatio, e).analysis.num_problem_clusters;
  }
  mean_pc /= result.num_epochs;
  EXPECT_NEAR(agg.mean_problem_clusters, mean_pc, 1e-9);
  EXPECT_GE(agg.mean_problem_coverage, agg.mean_critical_coverage - 1e-9);
  EXPECT_LE(agg.mean_problem_coverage, 1.0);
}

TEST_F(GeneratedFixture, TotalProblemSessionsRangeQueries) {
  const auto whole =
      result.total_problem_sessions(Metric::kJoinFailure, 0, 8);
  const auto first_half =
      result.total_problem_sessions(Metric::kJoinFailure, 0, 4);
  const auto second_half =
      result.total_problem_sessions(Metric::kJoinFailure, 4, 8);
  EXPECT_EQ(whole, first_half + second_half);
  EXPECT_EQ(result.total_problem_sessions(Metric::kJoinFailure, 8, 99), 0u);
}

TEST_F(GeneratedFixture, ParallelPipelineMatchesSerial) {
  PipelineConfig parallel_config = config;
  parallel_config.workers = 4;
  const PipelineResult parallel = run_pipeline(trace, parallel_config);
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const auto& a = result.at(m, e).analysis;
      const auto& b = parallel.at(m, e).analysis;
      EXPECT_EQ(a.problem_sessions, b.problem_sessions);
      EXPECT_EQ(a.num_problem_clusters, b.num_problem_clusters);
      ASSERT_EQ(a.criticals.size(), b.criticals.size());
      for (std::size_t i = 0; i < a.criticals.size(); ++i) {
        EXPECT_EQ(a.criticals[i].key, b.criticals[i].key);
        EXPECT_DOUBLE_EQ(a.criticals[i].attributed,
                         b.criticals[i].attributed);
      }
    }
  }
}

TEST_F(GeneratedFixture, ShardedExpansionMatchesSerial) {
  // Shards derive from workers (epoch_shards).  Four workers over two
  // epochs run both epochs at once with two shards each; streamed, the one
  // epoch in flight takes all four.
  PipelineConfig sharded_config = config;
  sharded_config.workers = 4;
  const std::size_t two_epochs =
      trace.epoch(0).size() + trace.epoch(1).size();
  const SessionTable head{std::vector<Session>(
      trace.sessions().begin(), trace.sessions().begin() + two_epochs)};
  const PipelineResult in_ram = run_pipeline(head, sharded_config);
  ASSERT_EQ(in_ram.num_epochs, 2u);
  TableColumnsSource source{trace};
  const PipelineResult streamed =
      run_pipeline_streaming(source, sharded_config);
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      if (e < in_ram.num_epochs) {
        test::expect_same_analysis(result.at(m, e).analysis,
                                   in_ram.at(m, e).analysis);
      }
      test::expect_same_analysis(result.at(m, e).analysis,
                                 streamed.at(m, e).analysis);
    }
  }
}

TEST(EpochShards, MatchesTheBatchAndStreamingRules) {
  // The two rules epoch_shards replaced.  run_pipeline: 1 shard once the
  // epochs fill the pool, ceil(workers / epochs) below that.  The streaming
  // pipeline and the detector: shards = workers.
  const auto batch_rule = [](std::size_t workers, std::size_t epochs) {
    if (workers <= 1 || epochs >= workers) return std::size_t{1};
    return (workers + epochs - 1) / epochs;
  };
  for (std::size_t workers = 1; workers <= 16; ++workers) {
    EXPECT_EQ(epoch_shards(workers, 1), workers);
    for (std::size_t epochs = 1; epochs <= 40; ++epochs) {
      EXPECT_EQ(epoch_shards(workers, epochs), batch_rule(workers, epochs))
          << "workers=" << workers << " epochs=" << epochs;
    }
  }
  // Out of either rule's range: 0 workers counts as 1, 0 epochs as 1.
  EXPECT_EQ(epoch_shards(0, 7), 1u);
  EXPECT_EQ(epoch_shards(0, 0), 1u);
  EXPECT_EQ(epoch_shards(4, 0), 4u);
}

TEST(Pipeline, EmptyTable) {
  const PipelineResult result = run_pipeline(SessionTable{}, {});
  EXPECT_EQ(result.num_epochs, 0u);
  for (const Metric m : kAllMetrics) {
    EXPECT_EQ(result.aggregates(m).mean_problem_clusters, 0.0);
  }
}

TEST(Pipeline, ArityCappedEngineFindsCoarseCauses) {
  // With max_arity = 1 only single-attribute clusters exist; a bad CDN is
  // still detected.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = 1},
                     test::bad_buffering(), 60);
  test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = 2},
                     test::good_quality(), 40);
  test::add_sessions(sessions, 0, Attrs{.cdn = 2, .asn = 3},
                     test::good_quality(), 900);
  PipelineConfig config;
  config.cluster_params.min_sessions = 50;
  config.engine.max_arity = 1;
  const PipelineResult result = run_pipeline(SessionTable{sessions}, config);
  const auto& criticals = result.at(Metric::kBufRatio, 0).analysis.criticals;
  ASSERT_FALSE(criticals.empty());
  for (const auto& c : criticals) EXPECT_EQ(c.key.arity(), 1);
}

}  // namespace
}  // namespace vq
