// Differential tests for the iceberg lattice expansion: on the same leaf
// fold, the expansion (serial and sharded) must reproduce the oracle's
// lattice (tests/oracle.h) filtered at the floor, bit for bit, with a
// dense-id layout that is canonical (mask-major, key-ascending) and
// invariant across shard counts — over arity caps {1, 2, 7}, shard counts
// {1, 4}, floors from 0 to above the root, and adversarial folds.  A floor
// of 1 is the full lattice.  Also covers the per-leaf projection index and
// the CellStore contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/cluster_engine.h"
#include "src/core/pipeline.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/oracle.h"
#include "tests/test_support.h"

namespace vq {
namespace {

ClusterStats make_stats(std::uint32_t sessions, std::uint32_t p0,
                        std::uint32_t p1, std::uint32_t p2,
                        std::uint32_t p3) {
  ClusterStats s;
  s.sessions = sessions;
  s.problems = {p0, p1, p2, p3};
  return s;
}

/// Builds a LeafFold from explicit (attrs, stats) pairs.
LeafFold make_fold(std::span<const std::pair<AttrVec, ClusterStats>> leaves) {
  LeafFold fold;
  for (const auto& [attrs, stats] : leaves) {
    fold.leaves[ClusterKey::pack(kFullMask, attrs).raw()] += stats;
    fold.root += stats;
  }
  return fold;
}

/// The mask-major dense-id contract: ids ascend by (mask value, raw key).
void expect_canonical_layout(const CellStore& store) {
  const std::span<const std::uint64_t> keys = store.keys();
  for (std::size_t id = 1; id < keys.size(); ++id) {
    const std::uint64_t prev_mask = keys[id - 1] & kFullMask;
    const std::uint64_t cur_mask = keys[id] & kFullMask;
    const bool ordered =
        prev_mask < cur_mask ||
        (prev_mask == cur_mask && keys[id - 1] < keys[id]);
    ASSERT_TRUE(ordered) << "ids " << id - 1 << ", " << id;
  }
}

/// Every stored key resolves to its own id through the binary search.
void expect_ids_round_trip(const CellStore& store) {
  for (std::uint32_t id = 0; id < store.size(); ++id) {
    ASSERT_EQ(store.id_of(store.key(id)), id);
  }
}

/// Identical arrays, id for id — the layout-invariance contract between two
/// runs with different shard counts.
void expect_tables_elementwise_equal(const EpochClusterTable& expected,
                                     const EpochClusterTable& actual) {
  EXPECT_EQ(expected.root, actual.root);
  EXPECT_EQ(expected.floor, actual.floor);
  ASSERT_EQ(expected.clusters.size(), actual.clusters.size());
  for (std::uint32_t id = 0; id < expected.clusters.size(); ++id) {
    ASSERT_EQ(expected.clusters.key(id), actual.clusters.key(id)) << id;
    ASSERT_EQ(expected.clusters.cell(id), actual.clusters.cell(id)) << id;
  }
  EXPECT_EQ(expected.leaf_index.leaf_keys, actual.leaf_index.leaf_keys);
  EXPECT_EQ(expected.leaf_index.leaf_stats, actual.leaf_index.leaf_stats);
  EXPECT_EQ(expected.leaf_index.projections, actual.leaf_index.projections);
  EXPECT_EQ(expected.leaf_index.offsets, actual.leaf_index.offsets);
  EXPECT_EQ(expected.leaf_index.cell_ids, actual.leaf_index.cell_ids);
}

/// The meaning of the index: a leaf lists mask m exactly when its
/// projection onto m is a cell of the table, and the id listed for it (in
/// ascending mask order) is that cell's.
void expect_index_valid(const EpochClusterTable& table) {
  const LeafCellIndex& index = table.leaf_index;
  ASSERT_EQ(index.projections.size(), index.num_leaves());
  ASSERT_EQ(index.offsets.size(), index.num_leaves() + 1);
  ASSERT_EQ(index.offsets.back(), index.cell_ids.size());
  for (std::size_t leaf = 0; leaf < index.num_leaves(); ++leaf) {
    const ClusterKey key = ClusterKey::from_raw(index.leaf_keys[leaf]);
    const std::span<const std::uint32_t> ids = index.ids(leaf);
    ASSERT_EQ(ids.size(),
              static_cast<std::size_t>(index.projections[leaf].count()));
    std::size_t k = 0;
    for (unsigned mask = 1; mask <= kFullMask; ++mask) {
      const std::uint32_t id = table.clusters.id_of(
          key.project(static_cast<std::uint8_t>(mask)).raw());
      ASSERT_EQ(index.projections[leaf].test(mask), id != CellStore::kNoCell)
          << "leaf " << leaf << " mask " << mask;
      if (id != CellStore::kNoCell) {
        ASSERT_EQ(ids[k++], id) << "leaf " << leaf << " mask " << mask;
      }
    }
  }
}

/// Full oracle differential for one fold at one arity cap and floor:
/// serial and sharded runs.
void run_differential(const LeafFold& fold, int arity,
                      const oracle::Lattice& want, std::uint32_t floor) {
  SCOPED_TRACE("arity " + std::to_string(arity) + ", floor " +
               std::to_string(floor));
  ClusterEngineConfig config;
  config.max_arity = arity;

  const EpochClusterTable table = expand_fold(fold, config, nullptr, 1, floor);
  EXPECT_EQ(table.floor, floor);
  test::expect_same_cells(want.iceberg(floor), table);
  expect_canonical_layout(table.clusters);
  expect_ids_round_trip(table.clusters);
  expect_index_valid(table);

  ThreadPool pool{4};
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    expect_tables_elementwise_equal(
        table, expand_fold(fold, config, &pool, shards, floor));
  }
}

/// The full lattice: floor 1.
void run_differential(const LeafFold& fold, int arity) {
  run_differential(fold, arity, oracle::lattice(fold, arity), 1);
}

/// Floors 0, 1, 2, one drawn at random below the root, the root's own
/// session count and one above it.
std::vector<std::uint32_t> property_floors(const LeafFold& fold,
                                           Xoshiro256ss& rng) {
  const std::uint32_t root = fold.root.sessions;
  return {0, 1, 2,
          3 + static_cast<std::uint32_t>(rng.below(std::max(root, 1u))),
          root, root + 1};
}

/// A random fold: `leaves` leaves over small value ranges in most
/// dimensions (so cells share leaves) and a wide ASN range (so partitions
/// take both the counting and the comparison-sort paths).
LeafFold random_fold(Xoshiro256ss& rng, std::size_t leaves) {
  LeafFold fold;
  for (std::size_t i = 0; i < leaves; ++i) {
    AttrVec attrs;
    attrs[AttrDim::kSite] = static_cast<std::uint16_t>(rng.below(40));
    attrs[AttrDim::kCdn] = static_cast<std::uint16_t>(rng.below(4));
    attrs[AttrDim::kAsn] = static_cast<std::uint16_t>(
        rng.below(2) == 0 ? rng.below(6) : rng.below(60'000));
    attrs[AttrDim::kConnType] = static_cast<std::uint16_t>(rng.below(3));
    attrs[AttrDim::kPlayer] = static_cast<std::uint16_t>(rng.below(3));
    attrs[AttrDim::kBrowser] = static_cast<std::uint16_t>(rng.below(5));
    attrs[AttrDim::kVodLive] = static_cast<std::uint16_t>(rng.below(2));
    ClusterStats s;
    s.sessions = 1 + static_cast<std::uint32_t>(rng.below(30));
    for (auto& p : s.problems) {
      p = static_cast<std::uint32_t>(rng.below(s.sessions + 1));
    }
    fold.leaves[ClusterKey::pack(kFullMask, attrs).raw()] += s;
    fold.root += s;
  }
  return fold;
}

class ExpandDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ExpandDifferential, GeneratedTrace) {
  const LeafFold fold =
      fold_sessions(test::dense_epoch_trace().epoch(0), ProblemThresholds{}, 0);
  // Enough distinct leaves to take the sharded paths for real.
  ASSERT_GT(fold.leaves.size(), 512u);
  run_differential(fold, GetParam());
}

TEST_P(ExpandDifferential, IcebergMatchesFilteredOracle) {
  // Property: across floors, no cell below the floor is emitted and none
  // at or above it is missed, stats included — on random folds and on a
  // generated epoch.
  Xoshiro256ss rng{static_cast<std::uint64_t>(GetParam()) * 7919};
  std::vector<LeafFold> folds;
  for (const std::size_t leaves : {1u, 37u, 700u, 3000u}) {
    folds.push_back(random_fold(rng, leaves));
  }
  folds.push_back(
      fold_sessions(test::dense_epoch_trace().epoch(0), ProblemThresholds{},
                    0));
  for (const LeafFold& fold : folds) {
    const oracle::Lattice want = oracle::lattice(fold, GetParam());
    for (const std::uint32_t floor : property_floors(fold, rng)) {
      run_differential(fold, GetParam(), want, floor);
    }
    // Floors 0 and 1 are both the full lattice.
    ClusterEngineConfig config;
    config.max_arity = GetParam();
    EXPECT_EQ(expand_fold(fold, config, nullptr, 1, 0).clusters.size(),
              want.cells.size());
  }
}

TEST_P(ExpandDifferential, EmptyFold) {
  const LeafFold fold;
  run_differential(fold, GetParam());
  const EpochClusterTable table = expand_fold(fold, {});
  EXPECT_EQ(table.clusters.size(), 0u);
  EXPECT_TRUE(table.leaf_index.leaf_keys.empty());
  EXPECT_EQ(table.leaf_index.offsets, std::vector<std::uint32_t>{0});
}

TEST_P(ExpandDifferential, SingleLeaf) {
  const std::vector<std::pair<AttrVec, ClusterStats>> leaves = {
      {AttrVec{{37, 5, 4211, 3, 2, 1, 1}}, make_stats(9, 4, 0, 1, 9)},
  };
  run_differential(make_fold(leaves), GetParam());
}

TEST_P(ExpandDifferential, AllLeavesProjectToOneCellOffSite) {
  // 600 leaves differing only in site: every mask without the site bit has
  // exactly one cell holding the whole population — maximal run sharing and
  // enough leaves to cross the shard threshold.
  std::vector<std::pair<AttrVec, ClusterStats>> leaves;
  for (std::uint16_t site = 0; site < 600; ++site) {
    leaves.emplace_back(AttrVec{{site, 2, 999, 1, 3, 2, 0}},
                        make_stats(2 + site % 5, site % 3, 1, 0, site % 2));
  }
  const LeafFold fold = make_fold(leaves);
  run_differential(fold, GetParam());

  const EpochClusterTable table = expand_fold(fold, {});
  const std::uint8_t off_site_mask = dim_bit(AttrDim::kCdn);
  const ClusterStats* cell = table.clusters.find(
      ClusterKey::pack(off_site_mask, leaves.front().first).raw());
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(*cell, fold.root);
}

TEST_P(ExpandDifferential, LeavesDifferOnlyInHighestAttribute) {
  // The VoD/Live dimension occupies the most significant key bits and is
  // partitioned first; keys differing only there split the top level and
  // share every cell of every mask that drops it.
  std::vector<std::pair<AttrVec, ClusterStats>> leaves;
  for (std::uint16_t vod = 0; vod <= dim_capacity(AttrDim::kVodLive);
       ++vod) {
    leaves.emplace_back(AttrVec{{11, 4, 30000, 2, 1, 3, vod}},
                        make_stats(5, 1, 2, 3, 4));
  }
  run_differential(make_fold(leaves), GetParam());
}

INSTANTIATE_TEST_SUITE_P(ArityCaps, ExpandDifferential,
                         ::testing::Values(1, 2, 7), [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

TEST(ExpandDifferential, PipelineOutputsMatchOracle) {
  // End to end: the full pipeline (fold -> expand -> per-metric critical
  // analysis) at 4 workers over one epoch, so 4 shards (epoch_shards),
  // must publish the oracle's analyses.
  const SessionTable& trace = test::dense_epoch_trace();
  ASSERT_EQ(trace.num_epochs(), 1u);
  PipelineConfig config;
  config.cluster_params = {.ratio_multiplier = 1.5, .min_sessions = 150};
  config.workers = 4;
  const PipelineResult result = run_pipeline(trace, config);
  const oracle::Lattice lattice =
      oracle::lattice(fold_sessions(trace.epoch(0), config.thresholds, 0));
  for (const Metric m : kAllMetrics) {
    test::expect_same_analysis(
        oracle::critical(lattice, config.cluster_params, m),
        result.at(m, 0).analysis);
  }
}

TEST(ExpandKernels, FieldMaskMatchesDimFieldTable) {
  for (unsigned mask = 0; mask <= kFullMask; ++mask) {
    std::uint64_t expected = 0;
    for (int d = 0; d < kNumDims; ++d) {
      if ((mask >> d) & 1u) {
        const DimField field = dim_field(static_cast<AttrDim>(d));
        expected |= ((std::uint64_t{1} << field.bits) - 1) << field.offset;
      }
    }
    EXPECT_EQ(lattice_field_mask(static_cast<std::uint8_t>(mask)), expected)
        << mask;
  }
}

TEST(CellStoreSorted, LookupsAndAccessors) {
  const LeafFold fold =
      fold_sessions(test::dense_epoch_trace().epoch(0), ProblemThresholds{}, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  const CellStore& store = table.clusters;
  ASSERT_GT(store.size(), 0u);

  // Every stored key resolves to its own id through the binary search.
  for (std::uint32_t id = 0; id < store.size(); ++id) {
    ASSERT_EQ(store.id_of(store.key(id)), id);
    ASSERT_TRUE(store.contains(store.key(id)));
    ASSERT_EQ(store.find(store.key(id)), &store.cell(id));
  }
  // Misses: a key absent from a populated mask group, and the root.
  std::uint64_t absent = store.key(0) ^ (std::uint64_t{1} << 20);
  while (store.contains(absent)) absent += std::uint64_t{1} << 20;
  EXPECT_EQ(store.id_of(absent), CellStore::kNoCell);
  EXPECT_EQ(store.find(absent), nullptr);
  EXPECT_FALSE(store.contains(0));
}

TEST(CellStoreSorted, FromMaskMajorValidatesShapes) {
  std::array<std::uint32_t, kFullMask + 2> offsets{};
  EXPECT_THROW((void)CellStore::from_mask_major({0x81}, {}, offsets),
               std::invalid_argument);
  EXPECT_THROW(
      (void)CellStore::from_mask_major({0x81}, {ClusterStats{}}, offsets),
      std::invalid_argument);  // offsets say empty, arrays say 1
  offsets.back() = 1;
  offsets[1] = 1;  // mask 0's range would be [0, 1) but offsets[1] > ... ok;
  // make them non-monotone instead:
  offsets[2] = 0;
  EXPECT_THROW(
      (void)CellStore::from_mask_major({0x81}, {ClusterStats{}}, offsets),
      std::invalid_argument);
}

}  // namespace
}  // namespace vq
