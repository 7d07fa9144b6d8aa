// Differential tests for the mask-major hash-free lattice expansion: on the
// same leaf fold, the expansion (serial, sharded, SIMD and scalar kernels)
// must reproduce the oracle's cell contents (tests/oracle.h) bit for bit,
// with a dense-id layout that is canonical (mask-major, key-ascending) and
// invariant across shard counts and kernel variants — over arity caps
// {1, 2, 7}, shard counts {1, 4}, and adversarial folds.  Also unit-covers
// the expand_kernels.h batch kernels against their scalar ground truth
// (ClusterKey::project, std::stable_sort) and the CellStore contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/cluster_engine.h"
#include "src/core/expand_kernels.h"
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
/// runs with different shard counts / kernels.
void expect_tables_elementwise_equal(const EpochClusterTable& expected,
                                     const EpochClusterTable& actual) {
  EXPECT_EQ(expected.root, actual.root);
  ASSERT_EQ(expected.clusters.size(), actual.clusters.size());
  for (std::uint32_t id = 0; id < expected.clusters.size(); ++id) {
    ASSERT_EQ(expected.clusters.key(id), actual.clusters.key(id)) << id;
    ASSERT_EQ(expected.clusters.cell(id), actual.clusters.cell(id)) << id;
  }
  EXPECT_EQ(expected.leaf_index.masks, actual.leaf_index.masks);
  EXPECT_EQ(expected.leaf_index.leaf_keys, actual.leaf_index.leaf_keys);
  EXPECT_EQ(expected.leaf_index.leaf_stats, actual.leaf_index.leaf_stats);
  EXPECT_EQ(expected.leaf_index.cell_rows, actual.leaf_index.cell_rows);
}

/// Every LeafCellIndex row slot must point at the cell whose key is that
/// leaf's projection — the meaning of the index.
void expect_index_rows_valid(const EpochClusterTable& table) {
  const LeafCellIndex& index = table.leaf_index;
  for (std::size_t leaf = 0; leaf < index.num_leaves(); ++leaf) {
    const ClusterKey key = ClusterKey::from_raw(index.leaf_keys[leaf]);
    const std::span<const std::uint32_t> row = index.row(leaf);
    for (std::size_t j = 0; j < index.masks.size(); ++j) {
      ASSERT_LT(row[j], table.clusters.size());
      ASSERT_EQ(table.clusters.key(row[j]),
                key.project(index.masks[j]).raw())
          << "leaf " << leaf << " mask " << int{index.masks[j]};
    }
  }
}

/// Full oracle differential for one fold at one arity cap: serial and
/// sharded runs, SIMD and scalar kernels.
void run_differential(const LeafFold& fold, int arity) {
  SCOPED_TRACE("arity " + std::to_string(arity));
  ClusterEngineConfig config;
  config.max_arity = arity;

  const EpochClusterTable table = expand_fold(fold, config);
  test::expect_same_cells(oracle::lattice(fold, arity), table);
  expect_canonical_layout(table.clusters);
  expect_ids_round_trip(table.clusters);
  expect_index_rows_valid(table);

  ClusterEngineConfig scalar_config = config;
  scalar_config.expand_kernel = BatchKernel::kScalar;
  expect_tables_elementwise_equal(table, expand_fold(fold, scalar_config));

  ThreadPool pool{4};
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    expect_tables_elementwise_equal(table,
                                    expand_fold(fold, config, &pool, shards));
  }
}

class ExpandDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ExpandDifferential, GeneratedTrace) {
  const LeafFold fold =
      fold_sessions(test::dense_epoch_trace().epoch(0), ProblemThresholds{}, 0);
  // Enough distinct leaves to take the sharded paths for real.
  ASSERT_GT(fold.leaves.size(), 512u);
  run_differential(fold, GetParam());
}

TEST_P(ExpandDifferential, EmptyFold) {
  const LeafFold fold;
  run_differential(fold, GetParam());
  const EpochClusterTable table = expand_fold(fold, {});
  EXPECT_EQ(table.clusters.size(), 0u);
  EXPECT_TRUE(table.leaf_index.leaf_keys.empty());
  EXPECT_FALSE(table.leaf_index.masks.empty());
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
  // The VoD/Live dimension occupies the most significant key bits; keys
  // differing only there stress the top radix digit and the run boundaries
  // of every mask that drops it.
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

TEST(ExpandKernels, ProjectMatchesClusterKeyProject) {
  // 1027 leaves (odd, to exercise the SIMD tails) over the full id ranges.
  Xoshiro256ss rng{42};
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1027; ++i) {
    AttrVec attrs;
    for (int d = 0; d < kNumDims; ++d) {
      attrs.v[static_cast<std::size_t>(d)] = static_cast<std::uint16_t>(
          rng() % (dim_capacity(static_cast<AttrDim>(d)) + 1u));
    }
    keys.push_back(ClusterKey::pack(kFullMask, attrs).raw());
  }
  std::vector<std::uint64_t> got_auto(keys.size());
  std::vector<std::uint64_t> got_scalar(keys.size());
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    const auto m = static_cast<std::uint8_t>(mask);
    project_keys(keys.data(), keys.size(), m, got_auto.data(),
                 BatchKernel::kAuto);
    project_keys(keys.data(), keys.size(), m, got_scalar.data(),
                 BatchKernel::kScalar);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint64_t expected =
          ClusterKey::from_raw(keys[i]).project(m).raw();
      ASSERT_EQ(got_auto[i], expected) << "mask " << mask << " i " << i;
      ASSERT_EQ(got_scalar[i], expected) << "mask " << mask << " i " << i;
    }
  }
}

TEST(ExpandKernels, ChainHeadFillsBelowLowestDimension) {
  EXPECT_EQ(chain_head(0b0000001), 0b0000001);
  EXPECT_EQ(chain_head(0b1000000), kFullMask);
  EXPECT_EQ(chain_head(0b0110000), 0b0111111);
  EXPECT_EQ(chain_head(0b1000100), 0b1000111);
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    const std::uint8_t head = chain_head(static_cast<std::uint8_t>(mask));
    // The head extends the mask with exactly the dims below its lowest bit.
    EXPECT_EQ(head & mask, mask);
    EXPECT_EQ(head, mask | ((1u << std::countr_zero(mask)) - 1u));
    // Heads are fixed points: grouping by head never cascades.
    EXPECT_EQ(chain_head(head), head);
  }
}

TEST(ExpandKernels, RadixPlanCoversExactlyOccupiedDigits) {
  // Site occupies key bits 7-18: byte windows 0, 1, 2.
  const RadixPlan site = radix_plan(dim_bit(AttrDim::kSite));
  ASSERT_EQ(site.passes, 3);
  EXPECT_EQ(site.shifts[0], 0);
  EXPECT_EQ(site.shifts[1], 8);
  EXPECT_EQ(site.shifts[2], 16);
  // VoD/Live occupies bits 53-54: byte window 6 only.
  const RadixPlan vod = radix_plan(dim_bit(AttrDim::kVodLive));
  ASSERT_EQ(vod.passes, 1);
  EXPECT_EQ(vod.shifts[0], 48);
  // The full key spans bytes 0-6; byte 7 is always constant (bit 63 clear).
  const RadixPlan full = radix_plan(kFullMask);
  EXPECT_EQ(full.passes, 7);
}

TEST(ExpandKernels, RadixSortMatchesStableSort) {
  Xoshiro256ss rng{7};
  for (const std::size_t n : {0u, 1u, 2u, 255u, 4096u}) {
    std::vector<std::uint64_t> keys(n);
    std::vector<std::uint32_t> rows(n);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Duplicate-heavy keys under the full-mask plan's digit span.
      keys[i] = (rng() % 4096) << kNumDims;
      rows[i] = static_cast<std::uint32_t>(i);
      expected[i] = {keys[i], rows[i]};
    }
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const RadixPlan plan = radix_plan(kFullMask);
    std::vector<std::uint64_t> key_scratch(1);  // deliberately undersized
    std::vector<std::uint32_t> row_scratch;
    const std::uint64_t bytes =
        radix_sort_pairs(keys, rows, plan, key_scratch, row_scratch);
    ASSERT_EQ(keys.size(), n);
    ASSERT_EQ(rows.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(keys[i], expected[i].first) << i;
      EXPECT_EQ(rows[i], expected[i].second) << i;
    }
    // Only passes whose digit actually varies across the keys scatter;
    // constant digits (bytes 3-6 here, plus any small-n coincidences) are
    // skipped.
    std::uint64_t executed = 0;
    for (int p = 0; p < plan.passes && n >= 2; ++p) {
      std::set<std::uint64_t> digits;
      for (const auto& [k, r] : expected) digits.insert((k >> plan.shifts[static_cast<std::size_t>(p)]) & 0xFFu);
      executed += digits.size() > 1 ? 1 : 0;
    }
    const std::uint64_t expected_bytes =
        n < 2 ? 0 : static_cast<std::uint64_t>(n) * executed * 12;
    EXPECT_EQ(bytes, expected_bytes);
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
