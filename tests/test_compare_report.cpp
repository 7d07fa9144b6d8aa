// A/B trace comparison and the report generator.

#include <gtest/gtest.h>

#include "src/core/compare.h"
#include "src/core/report.h"
#include "src/gen/tracegen.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

PipelineConfig small_config() {
  PipelineConfig config;
  config.cluster_params.min_sessions = 50;
  return config;
}

/// Bad CDN 1 (strength scalable) + background.
std::vector<Session> epoch_with_cdn(std::uint32_t epoch,
                                    std::size_t bad_sessions) {
  std::vector<Session> sessions;
  for (std::uint16_t asn = 1; asn <= 4; ++asn) {
    test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                       test::bad_buffering(), bad_sessions / 4);
    test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                       test::good_quality(), 25 - bad_sessions / 4);
  }
  for (std::uint16_t asn = 10; asn < 28; ++asn) {
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::bad_buffering(), 2);
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::good_quality(), 48);
  }
  return sessions;
}

PipelineResult result_with_cdn(std::size_t bad_sessions) {
  std::vector<Session> sessions;
  for (std::uint32_t e = 0; e < 3; ++e) {
    auto epoch = epoch_with_cdn(e, bad_sessions);
    sessions.insert(sessions.end(), epoch.begin(), epoch.end());
  }
  return run_pipeline(SessionTable{std::move(sessions)}, small_config());
}

TEST(Compare, IdenticalResultsShowNoChange) {
  const PipelineResult a = result_with_cdn(60);
  const TraceComparison comparison = compare_results(a, a);
  const MetricComparison& mc = comparison.at(Metric::kBufRatio);
  EXPECT_DOUBLE_EQ(mc.relative_change(), 0.0);
  for (const ClusterDelta& delta : mc.clusters) {
    EXPECT_EQ(delta.fate, ClusterFate::kPersisting);
    EXPECT_DOUBLE_EQ(delta.mass_before, delta.mass_after);
  }
}

TEST(Compare, FixedClusterIsClassified) {
  const PipelineResult before = result_with_cdn(60);
  const PipelineResult after = result_with_cdn(0);
  const TraceComparison comparison = compare_results(before, after);
  const MetricComparison& mc = comparison.at(Metric::kBufRatio);
  EXPECT_LT(mc.relative_change(), -0.3);  // big improvement

  bool cdn_fixed = false;
  for (const ClusterDelta& delta : mc.clusters) {
    if (delta.key.has(AttrDim::kCdn) &&
        delta.key.value(AttrDim::kCdn) == 1 && delta.key.arity() == 1) {
      EXPECT_EQ(delta.fate, ClusterFate::kFixed);
      EXPECT_EQ(delta.mass_after, 0.0);
      cdn_fixed = true;
    }
  }
  EXPECT_TRUE(cdn_fixed);
}

TEST(Compare, NewAndRegressedClusters) {
  const PipelineResult before = result_with_cdn(0);
  const PipelineResult after = result_with_cdn(60);
  const TraceComparison comparison = compare_results(before, after);
  const MetricComparison& mc = comparison.at(Metric::kBufRatio);
  EXPECT_GT(mc.relative_change(), 0.3);
  bool cdn_new = false;
  for (const ClusterDelta& delta : mc.clusters) {
    if (delta.key.has(AttrDim::kCdn) &&
        delta.key.value(AttrDim::kCdn) == 1 && delta.key.arity() == 1) {
      EXPECT_EQ(delta.fate, ClusterFate::kNew);
      cdn_new = true;
    }
  }
  EXPECT_TRUE(cdn_new);
}

TEST(Compare, ImprovedVsPersistingThresholds) {
  const PipelineResult before = result_with_cdn(60);
  const PipelineResult mild = result_with_cdn(40);  // ~33% less mass
  const TraceComparison comparison = compare_results(before, mild);
  for (const ClusterDelta& delta :
       comparison.at(Metric::kBufRatio).clusters) {
    if (delta.key.has(AttrDim::kCdn) &&
        delta.key.value(AttrDim::kCdn) == 1 && delta.key.arity() == 1) {
      EXPECT_EQ(delta.fate, ClusterFate::kImproved);
    }
  }
}

TEST(Compare, SortedByAbsoluteMassChange) {
  const PipelineResult before = result_with_cdn(60);
  const PipelineResult after = result_with_cdn(0);
  // Held by value: at() returns a reference into the comparison.
  const TraceComparison comparison = compare_results(before, after);
  const auto& clusters = comparison.at(Metric::kBufRatio).clusters;
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    EXPECT_GE(std::abs(clusters[i - 1].mass_after -
                       clusters[i - 1].mass_before),
              std::abs(clusters[i].mass_after - clusters[i].mass_before));
  }
}

TEST(Compare, FateNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int f = 0; f <= static_cast<int>(ClusterFate::kNew); ++f) {
    names.insert(cluster_fate_name(static_cast<ClusterFate>(f)));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(Report, ContainsEverySection) {
  WorldConfig world_config;
  world_config.num_sites = 30;
  world_config.num_cdns = 6;
  world_config.num_asns = 80;
  const World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 12;
  trace_config.sessions_per_epoch = 1'200;
  const SessionTable trace =
      generate_trace(world, EventSchedule::none(12), trace_config);
  const PipelineResult result = run_pipeline(trace, small_config());

  ReportOptions options;
  options.annotate = [](const ClusterKey&) { return std::string{"hint"}; };
  const std::string report =
      render_report(trace, result, world.schema(), options);

  for (const char* section :
       {"video quality report", "problem ratios", "buffering ratio "
        "distribution", "top recurrent critical clusters", "persistence",
        "anomalous hours", "what fixing the top clusters would buy"}) {
    EXPECT_NE(report.find(section), std::string::npos) << section;
  }
  // Annotation hook applied.
  EXPECT_NE(report.find("<- hint"), std::string::npos);
  // All four metrics mentioned.
  for (const Metric m : kAllMetrics) {
    EXPECT_NE(report.find(std::string(metric_name(m))), std::string::npos);
  }
}

TEST(Report, EmptyTraceDoesNotCrash) {
  const SessionTable trace;
  const PipelineResult result = run_pipeline(trace, {});
  AttributeSchema schema;
  const std::string report = render_report(trace, result, schema);
  EXPECT_NE(report.find("sessions: 0"), std::string::npos);
}

}  // namespace
}  // namespace vq
