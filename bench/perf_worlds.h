// The two generated worlds the layer benches (perf_expand, perf_critical)
// time the engine on, one epoch each, at the significance floor the CLI
// picks for that epoch size.
//
//   default  379 sites, 19 CDNs, 2000 ASNs: `vidqual generate`'s defaults,
//            about one session per distinct leaf (the analyze_stream and
//            serve_paced worlds)
//   dense    12 sites, 3 CDNs, 25 ASNs: a few sessions per leaf (the
//            analyze_ram world)

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "src/gen/tracegen.h"

namespace vq::bench {

struct PerfWorld {
  const char* name;
  std::uint32_t sites;
  std::uint32_t cdns;
  std::uint32_t asns;
};

inline constexpr std::array<PerfWorld, 2> kPerfWorlds = {{
    {"default", 379, 19, 2000},
    {"dense", 12, 3, 25},
}};

/// One flat-diurnal epoch of `sessions` sessions, seeded as `vidqual
/// generate` seeds its world (2013), events and traffic.
inline SessionTable perf_epoch(const PerfWorld& w, std::uint32_t sessions) {
  WorldConfig world_config;
  world_config.num_sites = w.sites;
  world_config.num_cdns = w.cdns;
  world_config.num_asns = w.asns;
  world_config.seed = 2013;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = 1;
  event_config.seed = world_config.seed + 1;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch = sessions;
  trace_config.diurnal_amplitude = 0.0;
  trace_config.seed = world_config.seed + 2;
  return generate_trace(world, events, trace_config);
}

/// The CLI's automatic min_sessions for epochs of `sessions` sessions:
/// 2% of the epoch, at least 30.
inline std::uint32_t auto_floor(std::uint32_t sessions) {
  return std::max<std::uint32_t>(30, sessions / 50);
}

}  // namespace vq::bench
