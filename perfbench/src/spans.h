// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around calls into the library's public layer
// functions, from the benchmark's own code; the library's internal
// VQ_SPAN instrumentation stays off.  Each span keeps its name, start,
// end, parent (the enclosing span on the same thread, else the open
// phase), epoch and thread.  A phase is a top-level span on the driving
// thread; its capacity is its duration times the number of threads that
// ran spans inside it, so the unattributed time (capacity minus every
// layer's self time) counts idle workers as well as code outside any span.
//
// A disabled recorder reads no clock and stores nothing, which is how the
// untraced run of the same composition is timed.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace vqbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start_s = 0.0;  // since the recorder's origin
  double end_s = 0.0;
  int parent = -1;       // index into spans(), -1 for none
  std::int64_t epoch = -1;
  int thread = 0;        // small dense id, 0 = first thread seen
  bool is_phase = false;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span; closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t epoch,
          bool is_phase);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_ = nullptr;  // null when recording is off
    int index_ = -1;
  };

  [[nodiscard]] Scope span(const char* name, std::int64_t epoch = -1) {
    return Scope{*this, name, epoch, false};
  }
  /// Top-level span on the driving thread; phases do not nest.
  [[nodiscard]] Scope phase(const char* name) {
    return Scope{*this, name, -1, true};
  }

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const VQ_EXCLUDES(mutex_);

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(std::ostream& out) const;

 private:
  int begin(const char* name, std::int64_t epoch, bool is_phase)
      VQ_EXCLUDES(mutex_);
  void end(int index) VQ_EXCLUDES(mutex_);
  [[nodiscard]] double now_s() const {
    return seconds_between(origin_, Clock::now());
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable vq::Mutex mutex_;
  std::vector<Span> spans_ VQ_GUARDED_BY(mutex_);
  std::map<std::thread::id, int> thread_ids_ VQ_GUARDED_BY(mutex_);
  int open_phase_ VQ_GUARDED_BY(mutex_) = -1;
};

/// Layer accounting over a finished recording.
struct SelfTimes {
  /// name -> summed self time (duration minus same-thread children), for
  /// every non-phase span.
  std::map<std::string, double> by_name;
  /// Sum over phases of duration x threads that ran spans in the phase.
  double capacity_s = 0.0;
  /// capacity_s minus every non-phase span's self time.
  double unattributed_s = 0.0;
};

[[nodiscard]] SelfTimes self_times(const std::vector<Span>& spans);

}  // namespace vqbench
