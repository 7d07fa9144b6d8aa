// Differential tests for the critical-cluster extraction: on the same
// epoch, production (flag bitsets + per-leaf cell-id gathers, serial and
// sharded) must reproduce the oracle's straight-line §3.2 analysis
// (tests/oracle.h) bit for bit — criticals (same order), attribution
// doubles, problem_cluster_keys, and problem_sessions_in_pc — at arity caps
// {1, 2, 7} and shard counts {1, 4}.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/util/thread_pool.h"
#include "tests/oracle.h"
#include "tests/test_support.h"

namespace vq {
namespace {

const ProblemClusterParams kParams{.ratio_multiplier = 1.5,
                                   .min_sessions = 150};

class CriticalDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CriticalDifferential, IndexedMatchesOracleBitForBit) {
  const std::span<const Session> sessions =
      test::dense_epoch_trace().epoch(0);
  ClusterEngineConfig config;
  config.max_arity = GetParam();

  const LeafFold fold = fold_sessions(sessions, ProblemThresholds{}, 0);
  const EpochClusterTable table = expand_fold(fold, config);
  const oracle::Lattice lattice = oracle::lattice(fold, config.max_arity);

  ThreadPool pool{4};
  std::size_t total_criticals = 0;
  for (const Metric m : kAllMetrics) {
    const CriticalAnalysis want = oracle::critical(lattice, kParams, m);
    total_criticals += want.criticals.size();
    test::expect_same_analysis(want,
                               find_critical_clusters(fold, table, kParams, m));
    for (const std::size_t shards : {1u, 4u}) {
      test::expect_same_analysis(
          want, find_critical_clusters(fold, table, kParams, m, &pool, shards));
    }
  }
  // Guard against a vacuous pass: this trace must actually produce
  // critical clusters for at least one metric.
  EXPECT_GT(total_criticals, 0u);
}

INSTANTIATE_TEST_SUITE_P(ArityCaps, CriticalDifferential,
                         ::testing::Values(1, 2, 7), [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

TEST(CriticalDifferential, AnalyzeEpochMatchesOracle) {
  // The shared per-epoch engine every entry point calls.
  const LeafFold fold =
      fold_sessions(test::dense_epoch_trace().epoch(0), ProblemThresholds{}, 0);
  const oracle::Lattice lattice = oracle::lattice(fold);
  ThreadPool pool{4};
  const EpochAnalyses got = analyze_epoch(fold, {}, kParams, &pool, 4);
  for (const Metric m : kAllMetrics) {
    test::expect_same_analysis(oracle::critical(lattice, kParams, m),
                               got[static_cast<std::uint8_t>(m)]);
  }
}

TEST(CriticalDifferential, RejectsTableNotExpandedFromFold) {
  const std::span<const Session> sessions =
      test::dense_epoch_trace().epoch(0);
  const LeafFold fold = fold_sessions(sessions, ProblemThresholds{}, 0);
  const LeafFold half =
      fold_sessions(sessions.first(sessions.size() / 2), ProblemThresholds{}, 0);
  const EpochClusterTable table = expand_fold(half, {});
  EXPECT_THROW(
      (void)find_critical_clusters(fold, table, kParams, Metric::kBufRatio),
      std::invalid_argument);
  // A hand-built table without a leaf index is rejected the same way.
  EpochClusterTable bare;
  bare.root = fold.root;
  EXPECT_THROW(
      (void)find_critical_clusters(fold, bare, kParams, Metric::kBufRatio),
      std::invalid_argument);
}

TEST(CriticalDifferential, EmptyTableYieldsEmptyAnalysis) {
  const LeafFold fold;  // no sessions
  const EpochClusterTable table = expand_fold(fold, {});
  const CriticalAnalysis analysis = find_critical_clusters(
      fold, table, ProblemClusterParams{}, Metric::kBufRatio);
  EXPECT_EQ(analysis.sessions, 0u);
  EXPECT_EQ(analysis.num_problem_clusters, 0u);
  EXPECT_TRUE(analysis.criticals.empty());
  EXPECT_TRUE(analysis.problem_cluster_keys.empty());
  EXPECT_EQ(analysis.attributed_mass, 0.0);
}

}  // namespace
}  // namespace vq
