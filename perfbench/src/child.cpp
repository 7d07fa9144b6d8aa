#include "child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>

extern char** environ;

namespace vqbench {

bool ChildExit::ok() const noexcept {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Child::Child(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::invalid_argument{"Child: empty argv"};
  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error{std::string{"pipe2: "} + std::strerror(errno)};
  }
  if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw std::runtime_error{std::string{"pipe2: "} + std::strerror(errno)};
  }
  out_.fd = out_pipe[0];
  err_.fd = err_pipe[0];

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);

  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  started_ = Clock::now();
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr,
                               args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  if (rc != 0) {
    pid_ = -1;
    ::close(out_.fd);
    ::close(err_.fd);
    throw std::runtime_error{"posix_spawn " + argv[0] + ": " +
                             std::strerror(rc)};
  }
}

Child::~Child() {
  kill();
  ::close(out_.fd);
  ::close(err_.fd);
}

void Child::kill() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

void Child::terminate() noexcept {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
}

bool Child::pump(const LineFn& on_stdout, const LineFn& on_stderr,
                 Clock::time_point deadline,
                 const std::function<bool()>& until) {
  const std::array<std::pair<Stream*, const LineFn*>, 2> streams{
      std::pair{&out_, &on_stdout}, std::pair{&err_, &on_stderr}};
  char buf[65536];
  while (out_.open || err_.open) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - now)
                             .count();
    std::array<pollfd, 2> pfds{};
    std::array<std::size_t, 2> which{};
    nfds_t n = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (!streams[i].first->open) continue;
      pfds[n] = pollfd{streams[i].first->fd, POLLIN, 0};
      which[n++] = i;
    }
    const int ready = ::poll(pfds.data(), n, static_cast<int>(wait_ms) + 1);
    if (ready < 0 && errno != EINTR) return false;
    const auto t = Clock::now();
    for (nfds_t i = 0; i < n; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Stream& s = *streams[which[i]].first;
      const LineFn& fn = *streams[which[i]].second;
      const ssize_t got = ::read(s.fd, buf, sizeof buf);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        if (!s.partial.empty()) fn(t, s.partial);
        s.partial.clear();
        s.open = false;
        continue;
      }
      s.partial.append(buf, static_cast<std::size_t>(got));
      std::size_t from = 0;
      for (std::size_t nl = s.partial.find('\n'); nl != std::string::npos;
           nl = s.partial.find('\n', from)) {
        fn(t, std::string_view{s.partial}.substr(from, nl - from));
        from = nl + 1;
      }
      s.partial.erase(0, from);
    }
    if (until && until()) return true;
  }
  return true;
}

ChildExit Child::wait() {
  if (pid_ <= 0) throw std::logic_error{"Child::wait: no running child"};
  ChildExit out;
  rusage usage{};
  int status = 0;
  pid_t got = -1;
  do {
    got = ::wait4(pid_, &status, 0, &usage);
  } while (got < 0 && errno == EINTR);
  out.at = Clock::now();
  if (got != pid_) throw std::runtime_error{"wait4 failed"};
  pid_ = -1;
  out.status = status;
  out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

double time_to_ready(const std::vector<std::string>& argv,
                     std::string_view prefix, Clock::duration timeout) {
  Child child{argv};
  std::optional<double> ready;
  const Child::LineFn ignore = [](Clock::time_point, std::string_view) {};
  const Child::LineFn on_err = [&](Clock::time_point t, std::string_view l) {
    if (!ready.has_value() && l.starts_with(prefix)) {
      ready = seconds_between(child.started(), t);
    }
  };
  child.pump(ignore, on_err, child.started() + timeout,
             [&] { return ready.has_value(); });
  if (!ready.has_value()) {
    throw std::runtime_error{"no ready line from " + argv[0]};
  }
  return *ready;  // ~Child kills and reaps
}

}  // namespace vqbench
