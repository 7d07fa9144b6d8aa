// Differential tests for the critical-cluster extraction: on the same
// epoch, production (flag bitsets + per-leaf cell-id gathers, serial and
// sharded) must reproduce the oracle's straight-line §3.2 analysis
// (tests/oracle.h) bit for bit — criticals (same order), attribution
// doubles, problem_cluster_keys, and problem_sessions_in_pc — at arity caps
// {1, 2, 7} and shard counts {1, 4}, from the full lattice and from the
// iceberg at min_sessions.

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

TEST_P(CriticalDifferential, IcebergMatchesFullLatticeBitForBit) {
  // The table analyze_epoch builds (floor = min_sessions) and the full
  // lattice (floor 1) must give the same analyses and candidate sets.
  const std::span<const Session> sessions =
      test::dense_epoch_trace().epoch(0);
  ClusterEngineConfig config;
  config.max_arity = GetParam();
  const LeafFold fold = fold_sessions(sessions, ProblemThresholds{}, 0);
  const EpochClusterTable full = expand_fold(fold, config);
  const EpochClusterTable iceberg =
      expand_fold(fold, config, nullptr, 1, kParams.min_sessions);
  // Every arity-1 cell of this world is significant; beyond that the
  // iceberg must drop cells for the comparison to mean anything.
  if (GetParam() > 1) {
    ASSERT_LT(iceberg.clusters.size(), full.clusters.size());
  }
  ThreadPool pool{4};
  const EpochAnalyses engine = analyze_epoch(fold, config, kParams, &pool, 4);
  for (const Metric m : kAllMetrics) {
    const CriticalAnalysis want =
        find_critical_clusters(fold, full, kParams, m);
    test::expect_same_analysis(
        want, find_critical_clusters(fold, iceberg, kParams, m));
    test::expect_same_analysis(want, engine[static_cast<std::uint8_t>(m)]);
    EXPECT_EQ(leaf_critical_masks(full, kParams, m),
              leaf_critical_masks(iceberg, kParams, m));
  }
}

TEST(CriticalDifferential, RejectsTableAboveTheSignificanceFloor) {
  // A table built above min_sessions has dropped cells that can veto or be
  // ancestors; analysing it would be silently wrong.
  const LeafFold fold =
      fold_sessions(test::dense_epoch_trace().epoch(0), ProblemThresholds{}, 0);
  const EpochClusterTable table =
      expand_fold(fold, {}, nullptr, 1, kParams.min_sessions + 1);
  EXPECT_THROW(
      (void)find_critical_clusters(fold, table, kParams, Metric::kBufRatio),
      std::invalid_argument);
  EXPECT_THROW(
      (void)leaf_critical_masks(table, kParams, Metric::kBufRatio),
      std::invalid_argument);
  // At the floor itself the table is exact.
  const EpochClusterTable at_floor =
      expand_fold(fold, {}, nullptr, 1, kParams.min_sessions);
  EXPECT_NO_THROW(
      (void)find_critical_clusters(fold, at_floor, kParams, Metric::kBufRatio));
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
