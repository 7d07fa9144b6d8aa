// Checkpoint/restore for StreamingDetector: differential resume (kill at any
// epoch boundary, reload, and the event stream must be byte-identical to the
// uninterrupted run), corruption rejection, exception safety of a failed
// load, and the atomic temp-then-rename file save.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/columns.h"
#include "src/core/monitor.h"
#include "src/gen/columnar.h"
#include "src/gen/tracegen.h"
#include "src/util/fsync.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

MonitorConfig small_monitor() {
  MonitorConfig config;
  config.cluster_params.min_sessions = 50;
  config.escalate_after = 1;
  return config;
}

std::vector<Session> monitored_epoch(std::uint32_t epoch, bool cdn_bad) {
  std::vector<Session> sessions;
  for (std::uint16_t asn = 1; asn <= 4; ++asn) {
    test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                       cdn_bad ? test::bad_buffering() : test::good_quality(),
                       15);
    test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                       test::good_quality(), 10);
  }
  for (std::uint16_t asn = 10; asn < 28; ++asn) {
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::bad_buffering(), 2);
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::good_quality(), 48);
  }
  return sessions;
}

/// Renders every field of an event so "identical event sequence" is a string
/// equality, with hexfloat keeping the attributed mass bit-exact.
std::string fmt(const std::vector<IncidentEvent>& events) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const IncidentEvent& e : events) {
    out << incident_update_name(e.update) << " epoch=" << e.epoch
        << " metric=" << static_cast<int>(e.incident.metric)
        << " key=" << e.incident.key.raw()
        << " first=" << e.incident.first_epoch
        << " streak=" << e.incident.streak
        << " escalated=" << e.incident.escalated
        << " attributed=" << e.incident.attributed
        << " sessions=" << e.incident.stats.sessions;
    for (int k = 0; k < kNumMetrics; ++k) {
      out << " p" << k << "=" << e.incident.stats.problems[k];
    }
    out << "\n";
  }
  return out.str();
}

// New incidents, escalations, clears, a gap-free re-open, and a quiet tail.
constexpr bool kScript[] = {true, true, false, true,
                            true, false, false, true};
constexpr std::uint32_t kEpochs = 8;

TEST(Checkpoint, ResumeReproducesIdenticalEventSequence) {
  const MonitorConfig config = small_monitor();

  StreamingDetector uninterrupted{config};
  std::string baseline;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    baseline += fmt(uninterrupted.ingest(monitored_epoch(e, kScript[e]), e));
  }

  for (std::uint32_t cut = 1; cut < kEpochs; ++cut) {
    StreamingDetector first{config};
    std::string replay;
    for (std::uint32_t e = 0; e < cut; ++e) {
      replay += fmt(first.ingest(monitored_epoch(e, kScript[e]), e));
    }
    std::stringstream checkpoint{std::ios::in | std::ios::out |
                                 std::ios::binary};
    first.save_checkpoint(checkpoint);

    StreamingDetector resumed{config};
    resumed.load_checkpoint(checkpoint);
    EXPECT_TRUE(resumed.has_ingested());
    EXPECT_EQ(resumed.last_epoch(), cut - 1);
    for (std::uint32_t e = cut; e < kEpochs; ++e) {
      replay += fmt(resumed.ingest(monitored_epoch(e, kScript[e]), e));
    }
    EXPECT_EQ(replay, baseline) << "killed at epoch boundary " << cut;
    EXPECT_EQ(resumed.total_opened(Metric::kBufRatio),
              uninterrupted.total_opened(Metric::kBufRatio));
  }
}

TEST(Checkpoint, RowAndColumnarIngestMatchByteForByte) {
  // One detector ingests Session rows, the other the SessionColumns a
  // ColumnarReader decodes from a .vqtc copy of them.  With degraded and
  // stale epochs in the feed, events and checkpoint bytes must match.
  SessionTable table;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    for (const Session& s : monitored_epoch(e, kScript[e])) table.append(s);
  }
  table.finalize();
  std::stringstream vqtc{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_columnar(vqtc, table, World::build({}).schema());
  ColumnarReader reader{vqtc};

  MonitorConfig config = small_monitor();
  config.order_policy = EpochOrderPolicy::kSkipStale;
  StreamingDetector rows{config};
  StreamingDetector columnar{config};
  SessionColumns columns;
  for (const std::uint32_t e : {0u, 1u, 2u, 3u, 4u, 3u, 5u, 6u, 7u}) {
    const EpochDataQuality quality{.degraded = e == 2 || e == 5};
    (void)reader.read_epoch(e, columns);
    EXPECT_EQ(fmt(columnar.ingest(columns, e, quality)),
              fmt(rows.ingest(table.epoch(e), e, quality)))
        << e;
  }
  EXPECT_GT(rows.total_opened(Metric::kBufRatio), 0u);
  EXPECT_EQ(rows.stale_epochs_dropped(), 1u);  // the second epoch 3
  EXPECT_GT(rows.suppressed_clears(), 0u);
  std::ostringstream rows_bytes{std::ios::binary};
  std::ostringstream columnar_bytes{std::ios::binary};
  rows.save_checkpoint(rows_bytes);
  columnar.save_checkpoint(columnar_bytes);
  EXPECT_EQ(rows_bytes.str(), columnar_bytes.str());
}

TEST(Checkpoint, RoundTripsCountersAndIncidentFields) {
  MonitorConfig config = small_monitor();
  config.order_policy = EpochOrderPolicy::kSkipStale;
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  (void)detector.ingest(monitored_epoch(0, true), 0);  // stale, dropped
  // A degraded quiet epoch: the open incident survives, clear suppressed.
  (void)detector.ingest(monitored_epoch(1, false), 1, {.degraded = true});

  std::stringstream checkpoint{std::ios::in | std::ios::out |
                               std::ios::binary};
  detector.save_checkpoint(checkpoint);
  StreamingDetector restored{config};
  restored.load_checkpoint(checkpoint);

  EXPECT_EQ(restored.stale_epochs_dropped(), 1u);
  EXPECT_EQ(restored.suppressed_clears(), detector.suppressed_clears());
  EXPECT_EQ(restored.last_epoch(), 1u);
  const auto before = detector.active(Metric::kBufRatio);
  const auto after = restored.active(Metric::kBufRatio);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].first_epoch, before[i].first_epoch);
    EXPECT_EQ(after[i].streak, before[i].streak);
    EXPECT_EQ(after[i].escalated, before[i].escalated);
    EXPECT_EQ(after[i].attributed, before[i].attributed);
    EXPECT_EQ(after[i].stats.sessions, before[i].stats.sessions);
  }
}

std::string checkpoint_bytes(const StreamingDetector& detector) {
  std::stringstream out{std::ios::in | std::ios::out | std::ios::binary};
  detector.save_checkpoint(out);
  return out.str();
}

void expect_load_throws(const std::string& bytes, const MonitorConfig& config,
                        const char* what_substr) {
  std::istringstream in{bytes, std::ios::binary};
  StreamingDetector detector{config};
  try {
    detector.load_checkpoint(in);
    FAIL() << "expected throw for " << what_substr;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(what_substr), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(Checkpoint, RejectsCorruptContainers) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  const std::string good = checkpoint_bytes(detector);

  std::string bad_magic = good;
  bad_magic[0] ^= 0x01;
  expect_load_throws(bad_magic, config, "bad magic");

  std::string bad_version = good;
  bad_version[4] = 99;
  expect_load_throws(bad_version, config, "unsupported version");

  // Any payload bit flip is caught by the trailing checksum.
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x10;
  expect_load_throws(flipped, config, "checksum mismatch");

  std::string extended = good;
  extended.push_back('\0');
  expect_load_throws(extended, config, "checksum mismatch");

  MonitorConfig other = config;
  other.escalate_after = 7;
  expect_load_throws(good, other, "fingerprint mismatch");

  // Every truncation length is rejected (header, payload, or checksum cut).
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::istringstream in{good.substr(0, len), std::ios::binary};
    StreamingDetector fresh{config};
    EXPECT_THROW(fresh.load_checkpoint(in), std::runtime_error)
        << "truncated to " << len;
  }
}

TEST(Checkpoint, FailedLoadLeavesDetectorUnchanged) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  std::string corrupt = checkpoint_bytes(detector);
  corrupt[corrupt.size() / 2] ^= 0x01;

  StreamingDetector control{config};
  (void)control.ingest(monitored_epoch(0, true), 0);

  std::istringstream in{corrupt, std::ios::binary};
  EXPECT_THROW(detector.load_checkpoint(in), std::runtime_error);

  // The failed load must not have touched registry or counters: the next
  // epoch behaves exactly like the control's.
  EXPECT_EQ(detector.last_epoch(), control.last_epoch());
  EXPECT_EQ(fmt(detector.ingest(monitored_epoch(1, true), 1)),
            fmt(control.ingest(monitored_epoch(1, true), 1)));
}

TEST(Checkpoint, ConfigFingerprintTracksResultAffectingFieldsOnly) {
  const MonitorConfig base = small_monitor();
  EXPECT_EQ(StreamingDetector::config_fingerprint(base),
            StreamingDetector::config_fingerprint(base));

  MonitorConfig delay = base;
  delay.escalate_after = 3;
  MonitorConfig sessions = base;
  sessions.cluster_params.min_sessions = 51;
  MonitorConfig policy = base;
  policy.order_policy = EpochOrderPolicy::kSkipStale;
  MonitorConfig arity = base;
  arity.engine.max_arity = 3;
  for (const MonitorConfig& changed : {delay, sessions, policy, arity}) {
    EXPECT_NE(StreamingDetector::config_fingerprint(base),
              StreamingDetector::config_fingerprint(changed));
  }

  // Parallelism and the expand kernel are differential-tested
  // bit-identical, so they may legitimately change across a save/restore.
  MonitorConfig parallel = base;
  parallel.workers = 4;
  MonitorConfig scalar = base;
  scalar.engine.expand_kernel = BatchKernel::kScalar;
  for (const MonitorConfig& same : {parallel, scalar}) {
    EXPECT_EQ(StreamingDetector::config_fingerprint(base),
              StreamingDetector::config_fingerprint(same));
  }
}

TEST(Checkpoint, V2RoundTripsStreakRegistry) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    (void)detector.ingest(monitored_epoch(e, kScript[e]), e);
  }
  std::stringstream checkpoint{std::ios::in | std::ios::out |
                               std::ios::binary};
  detector.save_checkpoint(checkpoint);
  StreamingDetector restored{config};
  restored.load_checkpoint(checkpoint);

  EXPECT_EQ(restored.epochs_observed(), kEpochs);
  bool any = false;  // the registry must be non-trivial on this script
  for (const Metric m : kAllMetrics) {
    const std::vector<ProblemStreak> want = detector.problem_streaks(m);
    const std::vector<ProblemStreak> got = restored.problem_streaks(m);
    any = any || !want.empty();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].key.raw(), got[i].key.raw());
      EXPECT_EQ(want[i].first_epoch, got[i].first_epoch);
      EXPECT_EQ(want[i].last_epoch, got[i].last_epoch);
      EXPECT_EQ(want[i].epochs_seen, got[i].epochs_seen);
      EXPECT_EQ(want[i].streak, got[i].streak);
      EXPECT_EQ(want[i].max_streak, got[i].max_streak);
      EXPECT_EQ(want[i].prevalence, got[i].prevalence);
    }
  }
  EXPECT_TRUE(any);
}

TEST(Checkpoint, AtomicFileSaveAndLoad) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);

  const std::filesystem::path dir{::testing::TempDir()};
  const std::filesystem::path path = dir / "vidqual_checkpoint_test.vqck";
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);

  detector.save_checkpoint(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "temp file must be renamed";

  // Overwriting an existing checkpoint goes through the same rename.
  (void)detector.ingest(monitored_epoch(1, true), 1);
  detector.save_checkpoint(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  StreamingDetector restored{config};
  restored.load_checkpoint(path);
  EXPECT_EQ(restored.last_epoch(), 1u);
  EXPECT_EQ(restored.total_opened(Metric::kBufRatio),
            detector.total_opened(Metric::kBufRatio));

  std::filesystem::remove(path);
  EXPECT_THROW(restored.load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, CrashBetweenWriteAndRenameKeepsThePreviousCheckpoint) {
  // Simulates a process killed after writing the temp file but before the
  // rename: the stray .tmp must never shadow the committed checkpoint, and
  // the next save must replace it cleanly.
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);

  const std::filesystem::path dir{::testing::TempDir()};
  const std::filesystem::path path = dir / "vidqual_checkpoint_crash.vqck";
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);

  detector.save_checkpoint(path);  // the committed v1

  // The "crash": a half-written temp file left beside the checkpoint.
  {
    std::ofstream garbage{tmp, std::ios::binary | std::ios::trunc};
    garbage << "VQCKpartial-write-then-kill-9";
  }
  ASSERT_TRUE(std::filesystem::exists(tmp));

  // Loading reads only the committed path — the garbage is invisible.
  StreamingDetector restored{config};
  restored.load_checkpoint(path);
  EXPECT_EQ(restored.last_epoch(), 0u);
  EXPECT_EQ(restored.total_opened(Metric::kBufRatio),
            detector.total_opened(Metric::kBufRatio));

  // The next save truncates the stray temp file and commits over it.
  (void)detector.ingest(monitored_epoch(1, true), 1);
  detector.save_checkpoint(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  StreamingDetector after{config};
  after.load_checkpoint(path);
  EXPECT_EQ(after.last_epoch(), 1u);

  std::filesystem::remove(path);
}

TEST(Checkpoint, FsyncPathFailureIsAttributedToItsCaller) {
  const std::filesystem::path missing =
      std::filesystem::path{::testing::TempDir()} / "vq_no_such_file.vqck";
  std::filesystem::remove(missing);
  try {
    detail::fsync_path(missing, /*directory=*/false, "save_checkpoint");
    FAIL() << "fsync_path on a missing file must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("save_checkpoint"), std::string::npos) << what;
    EXPECT_NE(what.find(missing.string()), std::string::npos) << what;
  }
  // The happy path on a real directory is a no-op worth pinning too.
  EXPECT_NO_THROW(detail::fsync_path(::testing::TempDir(),
                                     /*directory=*/true, "test"));
}

}  // namespace
}  // namespace vq
