// vqbench — the benchmark's helper binary; perfbench/run.py drives it.
//
//   vqbench prepare --out FILE.vqtc|.vqtr --seed S --sites N --cdns N
//                   --asns N --sessions N --epochs N
//   vqbench compose --in FILE --workers N --min-sessions N [--report FILE]
//                   [--traced --checkpoint FILE --trace-out FILE]
//   vqbench run     --stdout FILE --timeout-s S [--ready PREFIX [--setups N]]
//                   -- PROGRAM ARGS...
//   vqbench serve   --in FILE --mode paced|burst --rate ROWS_PER_S
//                   --frame-rows N --socket PATH --stdout FILE --timeout-s S
//                   [--setups N]
//                   -- VIDQUAL monitor --serve unix:PATH ...
//
// Every value comes from perfbench/run.py, which owns the workloads'
// constants.  Each command prints one JSON object on stdout.  A nonzero
// exit (a child that timed out or never became ready, say) is a failed
// operation to the caller.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "child.h"
#include "commands.h"
#include "json.h"

namespace vqbench {

std::string required(const vq::ArgParser& args, const char* name) {
  const auto v = args.option(name);
  if (!v.has_value()) {
    throw std::invalid_argument{std::string{"missing --"} + name};
  }
  return std::string{*v};
}

/// run: one child to completion; setup is spawn -> the first stderr line
/// starting with --ready, run is that line -> exit.  --setups N more
/// children are first started and killed once ready, for more set-up
/// samples.
int cmd_run(const vq::ArgParser& args, const std::vector<std::string>& argv) {
  const std::optional<std::string_view> prefix = args.option("ready");
  const auto timeout =
      std::chrono::seconds{std::stoull(required(args, "timeout-s"))};
  const std::string stdout_path = required(args, "stdout");

  std::vector<double> setups;
  for (std::uint64_t i = args.option_u64("setups", 0); i > 0; --i) {
    setups.push_back(time_to_ready(argv, prefix.value_or(""), timeout));
  }

  Child child{argv};
  std::optional<Clock::time_point> ready;
  std::string out_text;
  std::string err_text;
  const bool finished = child.pump(
      [&](Clock::time_point, std::string_view line) {
        out_text.append(line);
        out_text += '\n';
      },
      [&](Clock::time_point t, std::string_view line) {
        if (prefix.has_value() && !ready.has_value() &&
            line.starts_with(*prefix)) {
          ready = t;
        }
        err_text.append(line);
        err_text += '\n';
      },
      child.started() + timeout);
  JsonObject out;
  if (!finished) {
    child.kill();
    out.str("error", "timeout").str("stderr", err_text);
    std::printf("%s\n", out.dump().c_str());
    return 1;
  }
  const ChildExit ex = child.wait();
  std::ofstream{stdout_path, std::ios::trunc} << out_text;
  const Clock::time_point from = ready.value_or(child.started());
  out.num("exit_code", ex.ok() ? 0 : 1)
      .num("wall_s", seconds_between(child.started(), ex.at))
      .num("setup_s", ready.has_value()
                          ? seconds_between(child.started(), *ready)
                          : -1.0)
      .raw("setup_only_s", json_array(setups))
      .num("run_s", seconds_between(from, ex.at))
      .num("user_s", ex.user_s)
      .num("sys_s", ex.sys_s)
      .num("maxrss_mb", ex.maxrss_mb)
      .str("stderr", err_text);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace vqbench

int main(int argc, char** argv) {
  // A server that dies mid-send must surface as EPIPE in the producer.
  std::signal(SIGPIPE, SIG_IGN);
  // `run` and `serve` pass everything after "--" to the child untouched.
  int own = argc;
  std::vector<std::string> child_argv;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      own = i;
      child_argv.assign(argv + i + 1, argv + argc);
      break;
    }
  }
  const vq::ArgParser args{own, argv};
  const std::string_view command = args.positional(0);
  try {
    if (command == "prepare") return vqbench::cmd_prepare(args);
    if (command == "compose") return vqbench::cmd_compose(args);
    if (!child_argv.empty()) {
      if (command == "serve") return vqbench::cmd_serve(args, child_argv);
      if (command == "run") return vqbench::cmd_run(args, child_argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vqbench %s: %s\n", std::string{command}.c_str(),
                 e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: vqbench prepare|compose|run|serve ... (see main.cpp)\n");
  return 2;
}
