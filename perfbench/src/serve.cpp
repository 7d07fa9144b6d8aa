// serve: one pass of a workload through `vidqual monitor --serve`.
//
// The helper starts the server command given after "--" as its child (it
// must listen on the Unix socket named by --socket), waits for its
// "serving on" line, then one producer thread
// sends the trace over one connection with serve::Producer, in frames of a
// fixed row count.  Paced mode sends on an open-loop schedule (frame f is
// due at origin + f * frame_rows / rate, however late earlier frames
// went); burst mode sends each frame as soon as the previous one was
// accepted, so --overload block backpressure sets the rate.  The calling
// thread reads the child's stdout and stderr and timestamps each line.
// With the server's IO and detector threads that is four threads in all.
//
// Before the pass, --setups more servers are started and killed as soon
// as they are ready, so set-up time is a median of several starts.
//
// Everything is reported raw (frame due/start/end times, the frame holding
// each epoch's first and last row, stdout line times, the child's own
// rusage); perfbench/run.py turns them into latencies.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "child.h"
#include "commands.h"
#include "json.h"
#include "src/gen/columnar.h"
#include "src/gen/trace_io.h"
#include "src/serve/producer.h"

namespace vqbench {

namespace {

struct FrameTimes {
  std::vector<double> due;
  std::vector<double> start;
  std::vector<double> end;
};

}  // namespace

int cmd_serve(const vq::ArgParser& args,
              const std::vector<std::string>& argv) {
  const std::string mode = required(args, "mode");
  if (mode != "paced" && mode != "burst") {
    throw std::invalid_argument{"serve: --mode must be paced or burst"};
  }
  const bool paced = mode == "paced";
  const double rate = std::stod(required(args, "rate"));
  const auto frame_rows =
      static_cast<std::size_t>(std::stoull(required(args, "frame-rows")));
  const std::string socket = required(args, "socket");
  const auto timeout =
      std::chrono::seconds{std::stoull(required(args, "timeout-s"))};

  const std::filesystem::path in{required(args, "in")};
  const vq::LoadedTrace loaded = in.extension() == ".vqtc"
                                     ? vq::read_trace_columnar(in)
                                     : vq::read_trace_binary(in);
  const std::span<const vq::Session> rows = loaded.table.sessions();
  const std::size_t num_frames = (rows.size() + frame_rows - 1) / frame_rows;
  std::vector<std::int64_t> first_frame(loaded.table.num_epochs(), -1);
  std::vector<std::int64_t> last_frame(loaded.table.num_epochs(), -1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto f = static_cast<std::int64_t>(i / frame_rows);
    if (first_frame[rows[i].epoch] < 0) first_frame[rows[i].epoch] = f;
    last_frame[rows[i].epoch] = f;
  }

  const std::string address = "unix:" + socket;
  std::vector<double> setups;
  for (std::uint64_t i = args.option_u64("setups", 0); i > 0; --i) {
    std::filesystem::remove(socket);
    setups.push_back(time_to_ready(argv, "serving on", timeout));
  }

  std::filesystem::remove(socket);
  Child child{argv};
  const auto origin = child.started();
  const auto deadline = origin + timeout;
  const auto rel = [origin](Clock::time_point t) {
    return seconds_between(origin, t);
  };

  std::optional<double> ready;
  std::string out_text;
  std::string err_text;
  std::vector<double> line_t;
  const Child::LineFn on_out = [&](Clock::time_point t, std::string_view l) {
    line_t.push_back(rel(t));
    out_text.append(l);
    out_text += '\n';
  };
  const Child::LineFn on_err = [&](Clock::time_point t, std::string_view l) {
    if (!ready.has_value() && l.starts_with("serving on")) ready = rel(t);
    err_text.append(l);
    err_text += '\n';
  };

  bool finished =
      child.pump(on_out, on_err, deadline, [&] { return ready.has_value(); });
  FrameTimes frames;
  std::size_t rows_sent = 0;
  std::string producer_error;
  if (finished && ready.has_value()) {
    frames.due.resize(num_frames);
    frames.start.resize(num_frames);
    frames.end.resize(num_frames);
    std::jthread producer{[&] {
      try {
        vq::serve::Producer p{address};
        p.send_hello(loaded.schema);
        const auto t0 = Clock::now();
        for (std::size_t f = 0; f < num_frames; ++f) {
          auto due = Clock::now();
          if (paced) {
            due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(f * frame_rows) / rate));
            std::this_thread::sleep_until(due);
          }
          const auto start = Clock::now();
          const std::size_t n = std::min(frame_rows, rows.size() - f * frame_rows);
          p.send_rows(rows.subspan(f * frame_rows, n), frame_rows);
          frames.due[f] = rel(due);
          frames.start[f] = rel(start);
          frames.end[f] = rel(Clock::now());
          rows_sent += n;
        }
        p.close();
      } catch (const std::exception& e) {
        producer_error = e.what();
      }
    }};
    finished = child.pump(on_out, on_err, deadline);
    // A child that overran its deadline is killed here, which also fails
    // the producer's blocked send, so the join below cannot hang.
    if (!finished) child.kill();
  } else {
    finished = false;
  }

  JsonObject out;
  if (!finished) {
    child.kill();
    out.str("error", ready.has_value() ? "timeout" : "no ready line");
    out.str("stderr", err_text);
    std::printf("%s\n", out.dump().c_str());
    return 1;
  }
  const ChildExit ex = child.wait();
  std::ofstream{required(args, "stdout"), std::ios::trunc} << out_text;
  out.num("exit_code", ex.ok() ? 0 : 1)
      .num("setup_s", *ready)
      .raw("setup_only_s", json_array(setups))
      .num("exit_s", rel(ex.at))
      .num("user_s", ex.user_s)
      .num("sys_s", ex.sys_s)
      .num("maxrss_mb", ex.maxrss_mb)
      .num("rows", static_cast<double>(rows.size()))
      .num("rows_sent", static_cast<double>(rows_sent))
      .str("producer_error", producer_error)
      .raw("frame_due", json_array(frames.due))
      .raw("frame_start", json_array(frames.start))
      .raw("frame_end", json_array(frames.end))
      .raw("epoch_first_frame", json_array(first_frame))
      .raw("epoch_last_frame", json_array(last_frame))
      .raw("line_t", json_array(line_t))
      .str("stderr", err_text);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace vqbench
