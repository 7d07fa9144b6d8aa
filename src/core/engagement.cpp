#include "src/core/engagement.h"

#include <algorithm>
#include <cmath>

#include "src/core/critical_cluster.h"

namespace vq {

double EngagementModel::lost_minutes(const QualityMetrics& q) const
    noexcept {
  if (q.join_failed) return expected_session_minutes;

  double lost = 0.0;
  // Buffering: ~minutes_lost_per_buffering_pct per point when small,
  // saturating smoothly toward max_buffering_loss_minutes (viewers who
  // endure 5% and 45% buffering are both mostly gone, but not equally).
  const double pct = 100.0 * static_cast<double>(q.buffering_ratio);
  lost += max_buffering_loss_minutes *
          (1.0 - std::exp(-pct * minutes_lost_per_buffering_pct /
                          max_buffering_loss_minutes));
  // Join time: abandonment probability grows past the patience threshold.
  const double over_ms =
      std::max(0.0, static_cast<double>(q.join_time_ms) -
                        join_abandon_threshold_ms);
  const double abandon_prob =
      std::min(1.0, abandon_prob_per_second * over_ms / 1'000.0);
  lost += abandon_prob * expected_session_minutes;
  // Bitrate: mild linear depression below the reference rate.
  const double deficit_mbps =
      std::max(0.0, bitrate_reference_kbps -
                        static_cast<double>(q.bitrate_kbps)) /
      1'000.0;
  lost += deficit_mbps * bitrate_loss_minutes_per_mbps;
  return std::min(lost, expected_session_minutes);
}

EngagementReport engagement_report(const SessionTable& table,
                                   const EngagementModel& model) {
  EngagementReport report;
  const ProblemThresholds thresholds;  // cause decomposition only
  for (const Session& s : table.sessions()) {
    const double lost = model.lost_minutes(s.quality);
    report.total_lost_minutes += lost;
    // Attribute to the worst offending metric for the decomposition.
    if (s.quality.join_failed) {
      report.lost_by_cause[static_cast<int>(Metric::kJoinFailure)] += lost;
    } else if (thresholds.is_problem(Metric::kBufRatio, s.quality)) {
      report.lost_by_cause[static_cast<int>(Metric::kBufRatio)] += lost;
    } else if (thresholds.is_problem(Metric::kJoinTime, s.quality)) {
      report.lost_by_cause[static_cast<int>(Metric::kJoinTime)] += lost;
    } else if (thresholds.is_problem(Metric::kBitrate, s.quality)) {
      report.lost_by_cause[static_cast<int>(Metric::kBitrate)] += lost;
    }
  }
  if (!table.empty()) {
    report.mean_lost_minutes_per_session =
        report.total_lost_minutes / static_cast<double>(table.size());
  }
  return report;
}

EngagementWhatIf::EngagementWhatIf(const SessionTable& table,
                                   const PipelineResult& result,
                                   const EngagementModel& model) {
  const PipelineConfig& config = result.config;
  for (std::uint32_t epoch = 0; epoch < result.num_epochs; ++epoch) {
    const std::span<const Session> sessions = table.epoch(epoch);
    const EpochClusterTable lattice = aggregate_epoch(
        sessions, config.thresholds, config.engine, epoch);
    const std::span<const std::uint64_t> leaf_keys =
        lattice.leaf_index.leaf_keys;

    for (const Metric metric : kAllMetrics) {
      const auto mi = static_cast<std::uint8_t>(metric);
      const double global = lattice.global_ratio(metric);
      // Candidate sets per distinct leaf, parallel to the sorted leaf keys.
      const std::vector<std::vector<std::uint8_t>> leaf_masks =
          leaf_critical_masks(lattice, config.cluster_params, metric);
      for (const Session& s : sessions) {
        if (!config.thresholds.is_problem(metric, s.quality)) continue;
        const double lost = model.lost_minutes(s.quality);
        total_lost_[mi] += lost;
        const ClusterKey leaf = ClusterKey::pack(kFullMask, s.attrs);
        const std::vector<std::uint8_t>& candidates =
            leaf_masks[static_cast<std::size_t>(
                std::lower_bound(leaf_keys.begin(), leaf_keys.end(),
                                 leaf.raw()) -
                leaf_keys.begin())];
        if (candidates.empty()) continue;
        const double share = 1.0 / static_cast<double>(candidates.size());
        for (const std::uint8_t mask : candidates) {
          const ClusterKey key = leaf.project(mask);
          const double r = lattice.stats(key).problem_ratio(metric);
          const double factor = r > 0.0 ? std::max(0.0, 1.0 - global / r)
                                        : 0.0;
          KeyImpact& impact = impact_[mi][key.raw()];
          impact.minutes += share * factor * lost;
          impact.sessions += share * factor;
        }
      }
    }
  }
}

std::vector<EngagementWhatIf::RankedCluster> EngagementWhatIf::ranking(
    Metric metric) const {
  const auto mi = static_cast<std::uint8_t>(metric);
  std::vector<RankedCluster> out;
  out.reserve(impact_[mi].size());
  for (const auto& [raw, impact] : impact_[mi]) {
    out.push_back(
        {ClusterKey::from_raw(raw), impact.minutes, impact.sessions});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedCluster& a, const RankedCluster& b) {
              if (a.minutes_recovered != b.minutes_recovered) {
                return a.minutes_recovered > b.minutes_recovered;
              }
              return a.key.raw() < b.key.raw();
            });
  return out;
}

EngagementWhatIf::Comparison EngagementWhatIf::compare_rankings(
    Metric metric, double top_fraction) const {
  std::vector<RankedCluster> by_minutes = ranking(metric);
  std::vector<RankedCluster> by_sessions = by_minutes;
  std::sort(by_sessions.begin(), by_sessions.end(),
            [](const RankedCluster& a, const RankedCluster& b) {
              if (a.sessions_alleviated != b.sessions_alleviated) {
                return a.sessions_alleviated > b.sessions_alleviated;
              }
              return a.key.raw() < b.key.raw();
            });
  const auto k = static_cast<std::size_t>(std::ceil(
      top_fraction * static_cast<double>(by_minutes.size())));
  Comparison comparison;
  for (std::size_t i = 0; i < std::min(k, by_minutes.size()); ++i) {
    comparison.minutes_engagement_ranked += by_minutes[i].minutes_recovered;
    comparison.minutes_session_ranked += by_sessions[i].minutes_recovered;
  }
  return comparison;
}

}  // namespace vq
