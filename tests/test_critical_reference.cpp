// Randomized reference checks for the critical-cluster algorithm: over
// many small random epochs, production's per-leaf candidate sets and full
// analyses are checked against the straight-line oracle (tests/oracle.h).

#include <gtest/gtest.h>

#include "src/core/critical_cluster.h"
#include "src/util/rng.h"
#include "tests/oracle.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

std::vector<Session> random_epoch(Xoshiro256ss& rng) {
  std::vector<Session> sessions;
  const int blocks = 4 + static_cast<int>(rng.below(6));
  for (int b = 0; b < blocks; ++b) {
    Attrs attrs;
    attrs.site = static_cast<std::uint16_t>(rng.below(4));
    attrs.cdn = static_cast<std::uint16_t>(rng.below(3));
    attrs.asn = static_cast<std::uint16_t>(rng.below(4));
    attrs.conn = static_cast<std::uint16_t>(rng.below(2));
    const auto total = 30 + rng.below(120);
    const double bad_fraction = rng.uniform(0.0, 0.7);
    const auto bad = static_cast<std::size_t>(
        bad_fraction * static_cast<double>(total));
    test::add_sessions(sessions, 0, attrs, test::bad_buffering(), bad);
    test::add_sessions(sessions, 0, attrs, test::good_quality(),
                       total - bad);
  }
  return sessions;
}

TEST(CriticalReference, RandomEpochsMatchReferenceDerivation) {
  Xoshiro256ss rng{20130912};
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 40};
  std::size_t leaves_checked = 0;
  std::size_t candidates_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<Session> sessions = random_epoch(rng);
    const EpochClusterTable table =
        aggregate_epoch(sessions, thresholds, {}, 0);
    const oracle::Lattice lattice = oracle::lattice(sessions, thresholds, 0);
    for (const Metric m : kAllMetrics) {
      test::expect_same_analysis(
          oracle::critical(lattice, params, m),
          find_critical_clusters(sessions, table, thresholds, params, m));
    }

    // Candidate sets of every problem leaf, mask for mask.
    const auto fast = leaf_critical_masks(table, params, Metric::kBufRatio);
    const LeafCellIndex& index = table.leaf_index;
    for (std::size_t i = 0; i < index.num_leaves(); ++i) {
      if (index.leaf_stats[i].problems[static_cast<int>(Metric::kBufRatio)] ==
          0) {
        continue;
      }
      ++leaves_checked;
      candidates_seen += fast[i].size();
      ASSERT_EQ(fast[i], oracle::candidate_masks(lattice, index.leaf_keys[i],
                                                 params, Metric::kBufRatio))
          << "trial " << trial << " leaf " << index.leaf_keys[i];
    }
  }
  // Make sure the comparison was not vacuous.
  EXPECT_GT(leaves_checked, 100u);
  EXPECT_GT(candidates_seen, 20u);
}

TEST(CriticalReference, AttributionConservesMass) {
  // Over random epochs: attributed mass equals the number of problem
  // sessions whose leaves have a non-empty candidate set (each contributes
  // exactly 1 split across candidates).
  Xoshiro256ss rng{555};
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 40};
  for (int trial = 0; trial < 15; ++trial) {
    const std::vector<Session> sessions = random_epoch(rng);
    const EpochClusterTable table =
        aggregate_epoch(sessions, thresholds, {}, 0);
    const CriticalAnalysis analysis = find_critical_clusters(
        sessions, table, thresholds, params, Metric::kBufRatio);
    const oracle::Lattice lattice = oracle::lattice(sessions, thresholds, 0);

    double expected = 0.0;
    for (const Session& s : sessions) {
      if (!thresholds.is_problem(Metric::kBufRatio, s.quality)) continue;
      const ClusterKey leaf = ClusterKey::pack(kFullMask, s.attrs);
      if (!oracle::candidate_masks(lattice, leaf.raw(), params,
                                   Metric::kBufRatio)
               .empty()) {
        expected += 1.0;
      }
    }
    EXPECT_NEAR(analysis.attributed_mass, expected, 1e-6)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace vq
