// Shared fixtures/helpers for the vidqual test suite.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/critical_cluster.h"
#include "src/core/session.h"
#include "src/gen/tracegen.h"
#include "tests/oracle.h"

namespace vq::test {

/// Quality presets relative to the default ProblemThresholds.
inline QualityMetrics good_quality() {
  return {.buffering_ratio = 0.01F,
          .bitrate_kbps = 3000.0F,
          .join_time_ms = 1500.0F,
          .join_failed = false};
}

inline QualityMetrics bad_buffering() {
  QualityMetrics q = good_quality();
  q.buffering_ratio = 0.20F;
  return q;
}

inline QualityMetrics bad_bitrate() {
  QualityMetrics q = good_quality();
  q.bitrate_kbps = 350.0F;
  return q;
}

inline QualityMetrics bad_join_time() {
  QualityMetrics q = good_quality();
  q.join_time_ms = 25'000.0F;
  return q;
}

inline QualityMetrics failed_join() {
  QualityMetrics q{};
  q.join_failed = true;
  q.join_time_ms = 30'000.0F;
  return q;
}

/// Compact attribute construction: unspecified dims default to value 0.
struct Attrs {
  std::uint16_t site = 0;
  std::uint16_t cdn = 0;
  std::uint16_t asn = 0;
  std::uint16_t conn = 0;
  std::uint16_t player = 0;
  std::uint16_t browser = 0;
  std::uint16_t vod = 0;

  [[nodiscard]] AttrVec vec() const {
    AttrVec v;
    v[AttrDim::kSite] = site;
    v[AttrDim::kCdn] = cdn;
    v[AttrDim::kAsn] = asn;
    v[AttrDim::kConnType] = conn;
    v[AttrDim::kPlayer] = player;
    v[AttrDim::kBrowser] = browser;
    v[AttrDim::kVodLive] = vod;
    return v;
  }
};

inline Session make_session(std::uint32_t epoch, const Attrs& attrs,
                            const QualityMetrics& quality) {
  return Session{.attrs = attrs.vec(), .epoch = epoch, .quality = quality};
}

/// n copies of the same session.
inline void add_sessions(std::vector<Session>& out, std::uint32_t epoch,
                         const Attrs& attrs, const QualityMetrics& quality,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_session(epoch, attrs, quality));
  }
}

/// One 50k-session epoch over a small attribute universe (12 sites, 3
/// CDNs, 25 ASNs), so leaves repeat heavily and clusters clear the
/// significance floor.  Generated once per test binary.
inline const SessionTable& dense_epoch_trace() {
  static const SessionTable trace = [] {
    WorldConfig world_config;
    world_config.num_sites = 12;
    world_config.num_cdns = 3;
    world_config.num_asns = 25;
    const World world = World::build(world_config);
    EventScheduleConfig event_config;
    event_config.num_epochs = 1;
    const EventSchedule events = EventSchedule::generate(world, event_config);
    TraceConfig trace_config;
    trace_config.num_epochs = 1;
    trace_config.sessions_per_epoch = 50'000;
    trace_config.diurnal_amplitude = 0.0;  // epoch 0 gets the full 50k
    return generate_trace(world, events, trace_config);
  }();
  return trace;
}

/// Production table vs oracle: same root, exactly the same cells, and the
/// same leaves (in the LeafCellIndex, ascending).
inline void expect_same_cells(const oracle::Lattice& want,
                              const EpochClusterTable& got) {
  EXPECT_EQ(want.epoch, got.epoch);
  EXPECT_EQ(want.root, got.root);
  ASSERT_EQ(want.cells.size(), got.clusters.size());
  ASSERT_EQ(want.leaves.size(), got.leaf_index.num_leaves());
  std::size_t mismatches = 0;
  for (const auto& [raw, s] : want.cells) {
    const ClusterStats* other = got.clusters.find(raw);
    if (other == nullptr || !(*other == s)) ++mismatches;
  }
  std::size_t i = 0;
  for (const auto& [raw, s] : want.leaves) {
    if (got.leaf_index.leaf_keys[i] != raw ||
        !(got.leaf_index.leaf_stats[i] == s)) {
      ++mismatches;
    }
    ++i;
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Bit-exact equality of every analysis field, attribution doubles included.
inline void expect_same_analysis(const CriticalAnalysis& want,
                                 const CriticalAnalysis& got) {
  EXPECT_EQ(want.epoch, got.epoch);
  EXPECT_EQ(want.metric, got.metric);
  EXPECT_EQ(want.sessions, got.sessions);
  EXPECT_EQ(want.problem_sessions, got.problem_sessions);
  EXPECT_EQ(want.problem_sessions_in_pc, got.problem_sessions_in_pc);
  EXPECT_EQ(want.global_ratio, got.global_ratio);
  EXPECT_EQ(want.num_problem_clusters, got.num_problem_clusters);
  EXPECT_EQ(want.problem_cluster_keys, got.problem_cluster_keys);
  EXPECT_EQ(want.attributed_mass, got.attributed_mass);
  ASSERT_EQ(want.criticals.size(), got.criticals.size());
  for (std::size_t i = 0; i < want.criticals.size(); ++i) {
    EXPECT_EQ(want.criticals[i].key, got.criticals[i].key) << i;
    EXPECT_EQ(want.criticals[i].attributed, got.criticals[i].attributed) << i;
    EXPECT_EQ(want.criticals[i].stats, got.criticals[i].stats) << i;
  }
}

}  // namespace vq::test
