// Child-process handling for the benchmark: spawn the vidqual CLI with its
// stdout and stderr on pipes, timestamp each output line as it arrives,
// and reap it with wait4 so its rusage is its own (RUSAGE_CHILDREN is a
// running maximum over every child ever reaped, so it would carry one
// run's peak RSS into the next).  The destructor kills and reaps a child
// that is still running, so no exit path leaves one behind.

#pragma once

#include <sys/types.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"

namespace vqbench {

struct ChildExit {
  int status = -1;       // raw wait status
  double user_s = 0.0;
  double sys_s = 0.0;
  double maxrss_mb = 0.0;
  Clock::time_point at;  // when wait4 returned

  [[nodiscard]] bool ok() const noexcept;
};

class Child {
 public:
  /// Spawns argv[0] (a path) with stdin from /dev/null; throws
  /// std::runtime_error when the spawn fails.
  explicit Child(const std::vector<std::string>& argv);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] Clock::time_point started() const noexcept {
    return started_;
  }

  using LineFn =
      std::function<void(Clock::time_point, std::string_view line)>;

  /// Reads both pipes, calling the matching callback with every complete
  /// line (newline stripped) and the time it was read, until both reach end
  /// of file (returns true) or `until` returns true after a read (returns
  /// true; call again to continue).  Returns false when `deadline` passes
  /// first.
  bool pump(const LineFn& on_stdout, const LineFn& on_stderr,
            Clock::time_point deadline,
            const std::function<bool()>& until = {});

  /// Blocks until the child exits and returns its own rusage.
  ChildExit wait();

  /// SIGTERM: a serve child drains and exits.
  void terminate() noexcept;

  /// SIGKILL and reap, when still running.
  void kill() noexcept;

 private:
  struct Stream {
    int fd = -1;
    std::string partial;
    bool open = true;
  };

  pid_t pid_ = -1;
  Stream out_;
  Stream err_;
  Clock::time_point started_;
};

/// Starts argv, waits for its first stderr line that starts with `prefix`,
/// then kills and reaps it: returns the seconds from start to that line.
/// Throws std::runtime_error when no such line comes within `timeout`.
[[nodiscard]] double time_to_ready(const std::vector<std::string>& argv,
                                   std::string_view prefix,
                                   Clock::duration timeout);

}  // namespace vqbench
