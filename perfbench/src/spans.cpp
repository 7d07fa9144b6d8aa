#include "spans.h"

#include <cstdio>
#include <set>

namespace vqbench {

namespace {

/// Open spans of the current thread, innermost last.  One enabled recorder
/// is live at a time, so a single per-thread stack suffices.
thread_local std::vector<int> t_open;

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_{enabled}, origin_{Clock::now()} {}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name,
                           std::int64_t epoch, bool is_phase) {
  if (!rec.enabled()) return;
  rec_ = &rec;
  index_ = rec.begin(name, epoch, is_phase);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ != nullptr) rec_->end(index_);
}

int SpanRecorder::begin(const char* name, std::int64_t epoch,
                        bool is_phase) {
  const double t = now_s();
  const vq::MutexLock lock{mutex_};
  const auto [it, inserted] = thread_ids_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(thread_ids_.size()));
  Span s;
  s.name = name;
  s.start_s = t;
  s.end_s = t;
  s.parent = t_open.empty() ? open_phase_ : t_open.back();
  s.epoch = epoch;
  s.thread = it->second;
  s.is_phase = is_phase;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  if (is_phase) open_phase_ = index;
  t_open.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  const double t = now_s();
  const vq::MutexLock lock{mutex_};
  spans_[static_cast<std::size_t>(index)].end_s = t;
  if (spans_[static_cast<std::size_t>(index)].is_phase) open_phase_ = -1;
  t_open.pop_back();
}

std::vector<Span> SpanRecorder::spans() const {
  const vq::MutexLock lock{mutex_};
  return spans_;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  const std::vector<Span> all = spans();
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"epoch\":%lld}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), s.thread,
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                  static_cast<long long>(s.epoch));
    out << buf;
  }
  out << "]}\n";
}

SelfTimes self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  std::vector<std::set<int>> phase_threads(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_s - spans[i].start_s;
    if (spans[i].is_phase) phase_threads[i].insert(spans[i].thread);
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (spans[p].is_phase) phase_threads[p].insert(s.thread);
    // A child on another thread ran in parallel with its parent; only
    // same-thread children are carved out of the parent's own time.
    if (spans[p].thread == s.thread) self[p] -= s.end_s - s.start_s;
  }
  SelfTimes out;
  double attributed = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.is_phase) {
      out.capacity_s += static_cast<double>(phase_threads[i].size()) *
                        (s.end_s - s.start_s);
      continue;
    }
    out.by_name[s.name] += self[i];
    attributed += self[i];
  }
  out.unattributed_s = out.capacity_s - attributed;
  return out;
}

}  // namespace vqbench
