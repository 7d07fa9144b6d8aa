#!/usr/bin/env python3
"""End-to-end benchmark of the vidqual CLI (see perfbench/README.md).

    python3 perfbench/run.py --workload analyze_stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve_paced --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload serve_paced --steadiness 10

Run from the root of a checkout.  The first run configures and builds the
CLI and the vqbench helper under .bench_build/perfbench; later runs only
rebuild what changed.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import bisect
import collections
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HELPER = BUILD / "vqbench"
CLI = BUILD / "vidqual" / "tools" / "vidqual"

# serve: one frame of 512 rows is due every 6.4 ms at 80K rows/s, about 40%
# of what the detector ingests at 4K sessions per epoch.  These constants
# live here only; vqbench takes every value on its command line.
SERVE_RATE = 80_000
SERVE_FRAME_ROWS = 512
SERVE_SOCKET = "serve.sock"
SERVE_SESSIONS_PER_EPOCH = 4_000
SERVE_MIN_EPOCHS = 240  # >= 12 latency samples beyond p95
# With the default 200 ms push deadline a full queue sheds rows under a
# burst (the traced run of an analyze workload sends its rows as one, as
# fast as backpressure allows): the detector seals every queued epoch (64K rows, ~16 epochs) before
# it pops again.  The benchmark's server keeps blocking instead, so
# backpressure is lossless and every run can be checked against file mode.
SERVE_PUSH_DEADLINE_MS = 60_000
# Repetitions are short next to --seconds; a run keeps at least this many
# so its medians are of several samples.
MIN_REPS = 3
# A child that runs longer than this (plus its schedule, for a paced serve
# pass) is killed and its operation failed, so a hang still ends the run in
# time.
CHILD_TIMEOUT_S = 60

DEFAULT_WORLD = dict(sites=379, cdns=19, asns=2000)
DENSE_WORLD = dict(sites=12, cdns=3, asns=25)

# workers: `vidqual analyze --workers` on analyze workloads, and the pool
# of the traced composition everywhere (the server's detector runs one).
# Streaming analyze runs on one worker: at --workers 4 its sharded epochs
# wait on cross-vCPU wake-ups, and on a 4-vCPU VM its wall time swung by
# 30% between sets of runs while its CPU time per session held within 5%.
# setups: extra starts per repetition, killed once ready, so a run's set-up
# time is the median of 20 or more starts where one start takes
# milliseconds (serve_paced makes one pass, so it starts more before it).
WORKLOADS = {
    "analyze_stream": dict(kind="analyze", world=DEFAULT_WORLD,
                           sessions=40_000, epochs=16, ext=".vqtc",
                           workers=1, setups=4),
    "analyze_ram": dict(kind="analyze", world=DENSE_WORLD,
                        sessions=40_000, epochs=48, ext=".vqtr",
                        workers=4, setups=0),
    "serve_paced": dict(kind="serve", mode="paced", world=DEFAULT_WORLD,
                        sessions=SERVE_SESSIONS_PER_EPOCH, ext=".vqtr",
                        workers=1, setups=24),
}
# The file-mode reference for serve output; its detector workers do not
# change the incidents it prints.
REFERENCE_WORKERS = 4

UNITS = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "cpu_s_per_msession": "s",
    "peak_rss_mb": "MB",
    "planted_recall": "ratio",
    "gen.load_s": "s",
    "gen.read_s": "s",
    "gen.prepare_s": "s",
    "core.fold.busy_s": "s",
    "core.fold.sessions_per_leaf": "ratio",
    "core.expand.busy_s": "s",
    "core.expand.share": "ratio",
    "core.expand.cells_per_leaf": "ratio",
    "core.critical.busy_s": "s",
    "core.critical.problem_clusters": "count",
    "core.critical.criticals": "count",
    "core.monitor.ingest_p50_ms": "ms",
    "core.monitor.ingest_p95_ms": "ms",
    "core.monitor.events": "count",
    "core.monitor.tracked_keys": "count",
    "core.monitor.checkpoint_bytes": "bytes",
    "core.monitor.checkpoint_ms": "ms",
    "serve.report_p50_ms": "ms",
    "serve.report_p95_ms": "ms",
    "serve.rows_sent": "count",
    "serve.rows_failed": "count",
    "serve.queue_highwater_rows": "count",
    "serve.seal_wait_p50_ms": "ms",
    "serve.handoff_p50_ms": "ms",
    "serve.backlog_max_epochs": "count",
    "serve.producer_late_p95_ms": "ms",
    "process.capacity_s": "s",
    "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}

SERVE_STATS = re.compile(
    r"^serve: \d+ conns, rows received=(\d+) admitted=(\d+) "
    r"quarantined=(\d+) shed=(\d+) stale=(\d+), \d+ epochs sealed, "
    r"queue highwater=(\d+)(.*)$", re.M)
INCIDENT = re.compile(r"^(\d+):00 (\S+)\s+\S+\s+(\[.*\]) \(streak")


class BenchError(Exception):
    pass


# --- processes -------------------------------------------------------------

def call(argv, cwd, timeout, stdout=subprocess.PIPE):
    """Runs argv in its own process group; on any exit path the group
    (the helper and the vidqual child it spawned) is killed and reaped."""
    proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=stdout,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out, err


def helper(cwd, *args, timeout=CHILD_TIMEOUT_S + 20):
    try:
        code, out, err = call([HELPER, *args], cwd, timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"vqbench {args[0]} timed out") from None
    lines = (out or "").strip().splitlines()
    if code != 0 or not lines:
        detail = json.loads(lines[-1]).get("error", "") if lines else ""
        raise BenchError(f"vqbench {args[0]} failed (exit {code}): "
                         f"{detail} {err.strip()}")
    sys.stderr.write(err)
    return json.loads(lines[-1])


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        code, _, err = call(["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"], ROOT, 300,
                            stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError(f"cmake configure failed: {err.strip()}")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _, err = call(["cmake", "--build", BUILD, "--target", "vidqual_cli",
                         "vqbench", "-j", jobs], ROOT, 850, stdout=sys.stderr)
    if code != 0:
        raise BenchError(f"build failed: {err.strip()}")


# --- statistics --------------------------------------------------------------

def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise BenchError("percentile of no samples")
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scope_pairs(desc):
    inner = desc.strip()[1:-1]
    return frozenset() if inner in ("", "*") else frozenset(inner.split(", "))


def planted_recall(majors, detected):
    """Share of major planted events matched, during an epoch the event is
    active, by a detected cluster that generalizes the event's scope or is
    generalized by it (tests/test_groundtruth.cpp's rule).  `detected` holds
    (epoch, scope) pairs.  With no major event the recall is vacuously 1."""
    by_epoch = collections.defaultdict(set)
    for epoch, desc in detected:
        by_epoch[epoch].add(scope_pairs(desc))
    if not majors:
        return 1.0
    hits = 0
    for ev in majors:
        scope = scope_pairs(ev["scope"])
        if any(scope <= d or d <= scope
               for e in range(ev["start"], ev["end"]) for d in by_epoch[e]):
            hits += 1
    return hits / len(majors)


# --- workloads ---------------------------------------------------------------

def prepare(spec, seed, seconds, run_dir):
    epochs = spec.get("epochs") or max(
        SERVE_MIN_EPOCHS, -(-seconds * SERVE_RATE // SERVE_SESSIONS_PER_EPOCH))
    path = run_dir / ("input" + spec["ext"])
    world = spec["world"]
    meta = helper(run_dir, "prepare", "--out", path, "--seed", seed,
                  "--sites", world["sites"], "--cdns", world["cdns"],
                  "--asns", world["asns"], "--sessions", spec["sessions"],
                  "--epochs", epochs)
    return path, meta


def monitor_reference(path, meta, run_dir):
    """File-mode `vidqual monitor` on the same rows: the output every serve
    run must reproduce.  Failing here is an operation that failed."""
    ref = helper(run_dir, "run", "--stdout", run_dir / "monitor_expected.txt",
                 "--timeout-s", CHILD_TIMEOUT_S, "--", CLI, "monitor",
                 "--in", path, "--min-sessions", meta["min_sessions"],
                 "--workers", REFERENCE_WORKERS)
    if ref["exit_code"] != 0:
        raise BenchError("file-mode monitor failed: " + ref["stderr"])
    return (run_dir / "monitor_expected.txt").read_text()


def checked(op, *args, **kwargs):
    """Runs one timed operation; a child that fails, hangs or never becomes
    ready is a failed operation, not a crashed benchmark."""
    try:
        return op(*args, **kwargs)
    except BenchError as e:
        sys.stderr.write(f"{op.__name__} failed: {e}\n")
        return False, None


def serve_pass(path, meta, mode, setups, expected, run_dir, ingest_ms=None):
    """One server child fed the whole trace; returns (ok, figures)."""
    got = run_dir / "serve_got.txt"
    # A paced pass lasts rows / rate by design; the timeout comes on top.
    timeout = CHILD_TIMEOUT_S + int(meta["sessions"] / SERVE_RATE)
    r = helper(run_dir, "serve", "--in", path, "--mode", mode,
               "--rate", SERVE_RATE, "--frame-rows", SERVE_FRAME_ROWS,
               "--socket", SERVE_SOCKET, "--stdout", got,
               "--timeout-s", timeout, "--setups", setups,
               "--", CLI, "monitor", "--serve", "unix:" + SERVE_SOCKET,
               "--min-sessions", meta["min_sessions"], "--serve-drain",
               "--push-deadline-ms", SERVE_PUSH_DEADLINE_MS,
               timeout=timeout + 20)
    text = got.read_text()
    stats = SERVE_STATS.search(r["stderr"])
    rows_failed = (sum(int(stats.group(i)) for i in (3, 4, 5))
                   if stats else None)
    ok = (r["exit_code"] == 0 and not r["producer_error"] and
          text == expected and stats is not None and rows_failed == 0 and
          "MISMATCH" not in stats.group(7) and
          r["rows_sent"] == r["rows"])
    if not ok:
        sys.stderr.write(f"serve pass failed: exit {r['exit_code']} "
                         f"producer_error={r['producer_error']!r} "
                         f"output_equal={text == expected} "
                         f"stats={stats.group(0) if stats else None}\n")
        return False, None

    due, start, end = r["frame_due"], r["frame_start"], r["frame_end"]
    last_frame, first_frame = r["epoch_last_frame"], r["epoch_first_frame"]
    lines = text.splitlines()
    t_total = next(t for t, line in zip(r["line_t"], lines)
                   if line.startswith("total incidents opened:"))
    first_line = {}
    escalated = []
    for t, line in zip(r["line_t"], lines):
        m = INCIDENT.match(line)
        if not m:
            continue
        epoch = int(m.group(1))
        first_line.setdefault(epoch, t)
        if m.group(2) == "escalated":
            escalated.append((epoch, m.group(3)))

    def due_last(e):
        return due[int(last_frame[e])]

    latency_ms = {e: (t - due_last(e)) * 1e3 for e, t in first_line.items()
                  if last_frame[e] >= 0}
    fig = dict(
        setup_s=[r["setup_s"], *r["setup_only_s"]],
        sessions_per_s=r["rows"] / (t_total - start[0]),
        cpu_s_per_msession=(r["user_s"] + r["sys_s"]) / r["rows"] * 1e6,
        peak_rss_mb=r["maxrss_mb"],
        planted_recall=planted_recall(meta["majors"], escalated),
    )
    if ingest_ms is not None:
        # Seal wait: from epoch e's last row being due until the frame with
        # e+1's first row, which moves the watermark past e, was sent.
        seal_ms = {}
        for e in range(len(last_frame) - 1):
            if last_frame[e] >= 0 and first_frame[e + 1] >= 0:
                seal_ms[e] = (start[int(first_frame[e + 1])] - due_last(e)) * 1e3
        handoff = [latency_ms[e] - seal_ms[e] - ingest_ms[e]
                   for e in latency_ms if e in seal_ms]
        # Backlog at e's first line: the newest epoch fully sent by then,
        # minus e.  Epochs go out in order, so send times ascend.
        sent = [(end[int(f)], e) for e, f in enumerate(last_frame) if f >= 0]
        sent_t = [t for t, _ in sent]
        backlog = 0
        for e, t in first_line.items():
            i = bisect.bisect_right(sent_t, t)
            if i:
                backlog = max(backlog, sent[i - 1][1] - e)
        late_ms = [(s - d) * 1e3 for s, d in zip(start, due)]
        fig.update({
            "serve.report_p50_ms": percentile(latency_ms.values(), 50),
            "serve.report_p95_ms": percentile(latency_ms.values(), 95),
            "serve.rows_sent": r["rows_sent"],
            "serve.rows_failed": rows_failed,
            "serve.queue_highwater_rows": int(stats.group(6)),
            "serve.seal_wait_p50_ms": percentile(seal_ms.values(), 50),
            "serve.handoff_p50_ms": percentile(handoff, 50),
            "serve.backlog_max_epochs": backlog,
            "serve.producer_late_p95_ms": percentile(late_ms, 95),
        })
    return True, fig


def analyze_rep(path, meta, spec, expected, run_dir):
    got = run_dir / "analyze_got.txt"
    r = helper(run_dir, "run", "--ready", "analyzing ",
               "--setups", spec["setups"], "--stdout", got,
               "--timeout-s", CHILD_TIMEOUT_S, "--", CLI, "analyze",
               "--in", path, "--workers", spec["workers"])
    announced = re.search(r"\(min_sessions=(\d+)\)", r["stderr"])
    ok = (r["exit_code"] == 0 and r["setup_s"] > 0 and
          got.read_text() == expected and announced is not None and
          int(announced.group(1)) == meta["min_sessions"])
    if not ok:
        sys.stderr.write("analyze run failed its output check\n")
        return False, None
    return True, dict(
        setup_s=[r["setup_s"], *r["setup_only_s"]],
        sessions_per_s=meta["sessions"] / r["run_s"],
        cpu_s_per_msession=(r["user_s"] + r["sys_s"]) / meta["sessions"] * 1e6,
        peak_rss_mb=r["maxrss_mb"],
    )


def end_to_end(figs, recall):
    """Medians over a run's repetitions; set-up time over every start in
    the run."""
    out = {k: statistics.median(f[k] for f in figs)
           for k in ("sessions_per_s", "cpu_s_per_msession", "peak_rss_mb")}
    out["setup_s"] = statistics.median(x for f in figs for x in f["setup_s"])
    out["planted_recall"] = recall
    return out


def measure(name, seed, seconds, trace, run_dir):
    spec = WORKLOADS[name]
    path, meta = prepare(spec, seed, seconds, run_dir)
    attempted = failed = 0
    figs = []

    def record(result):
        nonlocal attempted, failed
        attempted += 1
        ok, fig = result
        if ok:
            figs.append(fig)
        else:
            failed += 1

    def done():
        # Past the deadline, one failure is enough: a hung child would
        # otherwise cost a timeout per repetition.
        return time.monotonic() >= deadline and (attempted >= MIN_REPS or
                                                 failed > 0)

    composed = None
    if spec["kind"] == "analyze" or trace:
        composed = helper(
            run_dir, "compose", "--in", path, "--workers", spec["workers"],
            "--min-sessions", meta["min_sessions"],
            "--report", run_dir / "analyze_expected.txt",
            *(["--traced", "--checkpoint", run_dir / "detector.vqck",
               "--trace-out",
               BUILD / f"trace-{name}-{seed}.json"] if trace else []))

    if spec["kind"] == "analyze":
        expected = (run_dir / "analyze_expected.txt").read_text()
        recall = planted_recall(meta["majors"], composed["criticals"])
        deadline = time.monotonic() + seconds
        while True:
            record(checked(analyze_rep, path, meta, spec, expected, run_dir))
            if trace or done():
                break
        expected_monitor = None
    else:
        # One paced pass, whose schedule lasts --seconds.
        expected_monitor = monitor_reference(path, meta, run_dir)
        if not trace:
            record(checked(serve_pass, path, meta, spec["mode"],
                           spec["setups"], expected_monitor, run_dir))
        recall = figs[0]["planted_recall"] if figs else None

    if not trace:
        metrics = end_to_end(figs, recall) if figs else {}
    else:
        # The serve layer on every workload: one checked pass over its
        # rows, paced where the workload is paced, otherwise as fast as
        # backpressure allows.
        if expected_monitor is None:
            expected_monitor = monitor_reference(path, meta, run_dir)
        figs.clear()
        record(checked(serve_pass, path, meta, spec.get("mode", "burst"),
                       spec["setups"], expected_monitor, run_dir,
                       ingest_ms=composed["ingest_ms"]))
        metrics = dict(composed["layers"])
        if figs:
            metrics.update({k: v for k, v in figs[0].items()
                            if k.startswith("serve.")})
        metrics["gen.prepare_s"] = meta["prepare_busy_s"]
        metrics["core.monitor.ingest_p50_ms"] = percentile(
            composed["ingest_ms"], 50)
        metrics["core.monitor.ingest_p95_ms"] = percentile(
            composed["ingest_ms"], 95)
        metrics["core.monitor.checkpoint_ms"] = percentile(
            composed["checkpoint_ms"], 50)
    return dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": v, "unit": UNITS[k]}
                 for k, v in sorted(metrics.items())},
    )


def run_once(name, seed, seconds, trace):
    """One run of a workload.  Whatever fails after the build (an input,
    a reference output or a timed operation) makes the result incorrect;
    the result is still printed."""
    run_dir = BUILD / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(name, seed, seconds, trace, run_dir)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return dict(correct=False, attempted=1, failed=1, metrics={})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def steadiness(name, runs, first_seed, seconds):
    """Runs the untraced benchmark on `runs` seeds and prints, per
    end-to-end metric, the median and the interquartile spread as a share of
    the median, against the metric's bound in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = seconds or bench["run_seconds"]
    values = collections.defaultdict(list)
    all_correct = True
    for seed in range(first_seed, first_seed + runs):
        result = run_once(name, seed, seconds, trace=False)
        all_correct &= result["correct"]
        if not result["metrics"]:
            raise BenchError(f"seed {seed}: no run succeeded")
        for k, v in result["metrics"].items():
            values[k].append(v["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"\n{name}: {runs} runs of {seconds} s, all correct: {all_correct}")
    print(f"{'metric':<22}{'median':>14}{'IQR/median':>12}{'bound':>8}  ok")
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread <= metric["bound"]
        print(f"{metric['name']:<22}{med:>14.6g}{spread:>12.4f}"
              f"{metric['bound']:>8}  {'yes' if ok else 'NO'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="run RUNS seeds from --seed and print each "
                             "end-to-end metric's spread against its bound")
    args = parser.parse_args()
    # SIGTERM unwinds through the finally blocks that kill children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        if args.steadiness:
            steadiness(args.workload, args.steadiness, args.seed, args.seconds)
            return 0
        result = run_once(args.workload, args.seed, args.seconds or 15,
                          bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
