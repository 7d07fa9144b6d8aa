// prepare: generate a workload's input.
//
// The world and its planted events are a workload's fixed scenario, drawn
// from kScenarioSeed as `vidqual generate --seed 2013` draws them (world =
// seed, events = seed + 1); --seed draws the sessions.  So runs on
// different seeds see the same CDNs, sites, ASNs and outages with
// different traffic, and a metric's spread across seeds is run-to-run and
// sampling noise rather than a different scenario each time.
//
// Epochs are generated in parallel with generate_epoch on at most nproc
// threads; the result must equal generate_trace, which is checked on a
// prefix of the trace (running all of generate_trace sequentially would
// cost more than the measured run).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "commands.h"
#include "json.h"
#include "spans.h"
#include "src/gen/columnar.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "src/util/thread_pool.h"

namespace vqbench {

namespace {

/// The seed of every workload's world and planted events.
constexpr std::uint64_t kScenarioSeed = 2013;

/// Epochs of generate_trace compared against the parallel output.
constexpr std::uint32_t kCheckEpochs = 2;

/// Expected sessions per epoch that a planted event's scope matches:
/// tests/test_groundtruth.cpp's estimate from the scope's popularity.
double expected_share(const vq::World& world, const vq::ClusterKey& scope) {
  using vq::AttrDim;
  double share = 1.0;
  if (scope.has(AttrDim::kSite)) {
    share *= world.site_sampler().pmf(scope.value(AttrDim::kSite));
  }
  if (scope.has(AttrDim::kCdn)) share *= 0.08;
  if (scope.has(AttrDim::kAsn)) {
    share *= world.asn_sampler().pmf(scope.value(AttrDim::kAsn));
  }
  if (scope.has(AttrDim::kConnType)) share *= 0.25;
  if (scope.has(AttrDim::kBrowser)) share *= 0.25;
  return share;
}

bool same_session(const vq::Session& a, const vq::Session& b) {
  return a.attrs == b.attrs && a.epoch == b.epoch && a.quality == b.quality;
}

}  // namespace

int cmd_prepare(const vq::ArgParser& args) {
  const std::filesystem::path out{required(args, "out")};
  const auto u32 = [&](const char* name) {
    return static_cast<std::uint32_t>(std::stoul(required(args, name)));
  };

  vq::WorldConfig world_config;
  world_config.num_sites = u32("sites");
  world_config.num_cdns = u32("cdns");
  world_config.num_asns = u32("asns");
  world_config.seed = kScenarioSeed;
  const vq::World world = vq::World::build(world_config);

  const std::uint32_t epochs = u32("epochs");
  vq::EventScheduleConfig event_config;
  event_config.num_epochs = epochs;
  event_config.seed = kScenarioSeed + 1;
  const vq::EventSchedule events =
      vq::EventSchedule::generate(world, event_config);

  vq::TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = u32("sessions");
  trace_config.seed = std::stoull(required(args, "seed"));

  // --- gen.prepare: epochs in parallel -----------------------------------
  // parallel_for runs on the pool's workers and the calling thread, so
  // nproc - 1 workers keep the generator to nproc threads.
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1,
      std::max<std::uint32_t>(epochs, 1));
  std::vector<std::vector<vq::Session>> per_epoch(epochs);
  std::vector<double> busy(epochs, 0.0);
  const auto t0 = Clock::now();
  {
    vq::ThreadPool pool{std::max<std::size_t>(threads - 1, 1)};
    pool.parallel_for(0, epochs, [&](std::size_t e) {
      const auto start = Clock::now();
      per_epoch[e] = vq::generate_epoch(world, events, trace_config,
                                        static_cast<std::uint32_t>(e));
      busy[e] = seconds_between(start, Clock::now());
    });
  }
  std::vector<vq::Session> all;
  for (auto& chunk : per_epoch) {
    all.insert(all.end(), chunk.begin(), chunk.end());
    std::vector<vq::Session>{}.swap(chunk);
  }
  const vq::SessionTable table{std::move(all)};
  const double prepare_wall = seconds_between(t0, Clock::now());

  // --- the parallel assembly must equal generate_trace --------------------
  vq::TraceConfig prefix_config = trace_config;
  prefix_config.num_epochs = std::min(epochs, kCheckEpochs);
  const vq::SessionTable prefix =
      vq::generate_trace(world, events, prefix_config);
  bool equal = prefix.size() <= table.size();
  for (std::size_t i = 0; equal && i < prefix.size(); ++i) {
    equal = same_session(prefix.sessions()[i], table.sessions()[i]);
  }
  if (equal && prefix.size() < table.size()) {
    equal = table.sessions()[prefix.size()].epoch >= prefix_config.num_epochs;
  }
  if (!equal) {
    std::fprintf(stderr,
                 "prepare: parallel generate_epoch output differs from "
                 "generate_trace on the first %u epochs\n",
                 prefix_config.num_epochs);
    return 1;
  }

  if (out.extension() == ".vqtc") {
    vq::write_trace_columnar(out, table, world.schema());
  } else if (out.extension() == ".vqtr") {
    vq::write_trace_binary(out, table, world.schema());
  } else {
    throw std::invalid_argument{"prepare: --out must end in .vqtc or .vqtr"};
  }

  // The CLI's automatic --min-sessions rule (2% of a mean epoch, >= 30):
  // the benchmark's one copy, which every analyze run's announced value is
  // checked against and which compose and the serve runs are given.
  const std::uint64_t per_epoch_mean =
      table.num_epochs() == 0 ? 0 : table.size() / table.num_epochs();
  const auto min_sessions = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(30, per_epoch_mean / 50));

  // Major events: expected to reach 4x min_sessions per epoch, the ratio
  // tests/test_groundtruth.cpp uses (400 sessions at min_sessions 100).
  std::string majors = "[";
  std::size_t num_majors = 0;
  for (const vq::ProblemEvent& event : events.events()) {
    const double expected =
        expected_share(world, event.scope) * trace_config.sessions_per_epoch;
    if (expected < 4.0 * min_sessions) continue;
    if (num_majors++ > 0) majors += ',';
    majors += JsonObject{}
                  .str("scope", world.schema().describe(event.scope))
                  .num("start", event.start_epoch)
                  .num("end", std::min(epochs, event.start_epoch +
                                                   event.duration_epochs))
                  .dump();
  }
  majors += "]";

  double busy_total = 0.0;
  for (const double b : busy) busy_total += b;
  std::printf("%s\n",
              JsonObject{}
                  .num("sessions", static_cast<double>(table.size()))
                  .num("epochs", table.num_epochs())
                  .num("min_sessions", min_sessions)
                  .num("events", static_cast<double>(events.events().size()))
                  .num("prepare_busy_s", busy_total)
                  .num("prepare_wall_s", prepare_wall)
                  .num("prepare_threads", static_cast<double>(threads))
                  .num("checked_epochs", prefix_config.num_epochs)
                  .raw("majors", majors)
                  .dump()
                  .c_str());
  return 0;
}

}  // namespace vqbench
