// Differential tests for the two-pass aggregation: on the same trace, the
// leaf fold plus lattice expansion (serial and sharded) must reproduce the
// oracle's session-by-session lattice (tests/oracle.h) bit for bit — root
// and every cluster cell — at multiple arity caps.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/util/thread_pool.h"
#include "tests/oracle.h"
#include "tests/test_support.h"

namespace vq {
namespace {

class FoldDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FoldDifferential, FoldedMatchesUnfoldedOn50kSessions) {
  // "Unfolded": the oracle bumps every cell once per session, no fold.
  const SessionTable& trace = test::dense_epoch_trace();
  ASSERT_GE(trace.size(), 50'000u);
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;

  ClusterEngineConfig config;
  config.max_arity = GetParam();

  const oracle::Lattice want =
      oracle::lattice(sessions, thresholds, 0, config.max_arity);
  // The distinct-leaf count must be well below the session count for the
  // fold to be a meaningful compression (and for this test to exercise it).
  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  EXPECT_LT(fold.leaves.size(), sessions.size() / 2);
  // expect_same_cells also checks the fold's leaves, via the leaf index.
  test::expect_same_cells(want, expand_fold(fold, config));
  ThreadPool pool{4};
  for (const std::size_t shards : {2u, 7u}) {
    test::expect_same_cells(want, expand_fold(fold, config, &pool, shards));
  }
  test::expect_same_cells(want,
                          aggregate_epoch(sessions, thresholds, config, 0));
}

INSTANTIATE_TEST_SUITE_P(ArityCaps, FoldDifferential,
                         ::testing::Values(1, 2, 7),
                         [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

TEST(FoldDifferential, CriticalAnalysisAgreesAcrossOverloads) {
  // The fold-based and session-span find_critical_clusters overloads must
  // produce the same analysis (they share one implementation; this pins the
  // wrapper's folding step).
  const std::span<const Session> sessions = test::dense_epoch_trace().epoch(0);
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};

  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  for (const Metric m : kAllMetrics) {
    const CriticalAnalysis from_fold =
        find_critical_clusters(fold, table, params, m);
    const CriticalAnalysis from_span =
        find_critical_clusters(sessions, table, thresholds, params, m);
    EXPECT_EQ(from_fold.problem_sessions, from_span.problem_sessions);
    EXPECT_EQ(from_fold.problem_sessions_in_pc,
              from_span.problem_sessions_in_pc);
    ASSERT_EQ(from_fold.criticals.size(), from_span.criticals.size());
    for (std::size_t i = 0; i < from_fold.criticals.size(); ++i) {
      EXPECT_EQ(from_fold.criticals[i].key, from_span.criticals[i].key);
      EXPECT_DOUBLE_EQ(from_fold.criticals[i].attributed,
                       from_span.criticals[i].attributed);
    }
  }
}

TEST(FoldDifferential, FoldAccumulatesPerLeafCounters) {
  std::vector<Session> sessions;
  const test::Attrs a{.site = 1, .cdn = 2};
  const test::Attrs b{.site = 3, .cdn = 2};
  test::add_sessions(sessions, 0, a, test::bad_buffering(), 5);
  test::add_sessions(sessions, 0, a, test::good_quality(), 7);
  test::add_sessions(sessions, 0, b, test::good_quality(), 2);
  const LeafFold fold = fold_sessions(sessions, {}, 0);

  EXPECT_EQ(fold.leaves.size(), 2u);
  EXPECT_EQ(fold.root.sessions, 14u);
  const ClusterStats* leaf_a =
      fold.leaves.find(ClusterKey::pack(kFullMask, a.vec()).raw());
  ASSERT_NE(leaf_a, nullptr);
  EXPECT_EQ(leaf_a->sessions, 12u);
  EXPECT_EQ(leaf_a->problems[static_cast<int>(Metric::kBufRatio)], 5u);
}

TEST(FoldDifferential, FoldRejectsEpochMismatch) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 3, test::Attrs{}, test::good_quality(), 1);
  try {
    (void)fold_sessions(sessions, {}, 0);
    FAIL() << "fold_sessions accepted a session from another epoch";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fold_sessions: session epoch 3 does not match the folded "
                 "epoch 0");
  }
}

}  // namespace
}  // namespace vq
