#!/usr/bin/env python3
"""ORACLE benchmark: one command, four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; metric names and units come from
BENCHMARK.json there. The first run builds the library, the oracle_batch
CLI and the perfbench binary (perfbench/CMakeLists.txt, Release) into
.bench_build/; results, traces and the cached serve fixture go to
.perfbench_out/.

Workloads (inputs derived from --seed; see perfbench/README.md):
  sweep_tiny     9,600 ~1 ms fib:9 jobs in one process, store + checkpoint
  sweep_steal    1,152 heavy-tailed fib:16 jobs, oracle_batch run --steal
  serve_rw       oracle_batch serve under nproc-1 warm readers + 1 cold writer
  large_machine  one 131,072-PE hypercube:17 run on the parallel engine

--trace 0 measures with tracing off and reports the end-to-end metrics.
--trace 1 makes the traced pass and reports every per-layer metric; a
metric the workload does not exercise (or whose spans the program no
longer emits) is reported as -1 and listed under "absent".

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when every correctness check passed.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_tiny", "sweep_steal", "serve_rw", "large_machine")

ABSENT = -1.0
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the three targets up to date."""
    if not (ROOT / "src" / "oracle.hpp").is_file():
        raise RuntimeError(f"no ORACLE sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr)


def run_workload(args, out_dir):
    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir),
           "--fixture-dir", str(OUT_DIR / "fixture"),
           "--oracle-batch", str(BUILD_DIR / "oracle_batch")]
    # A process group of its own, so every process the run starts can be
    # stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"timed out after {RUN_TIMEOUT_S}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def load_events(paths):
    """Chrome trace documents and per-process trace-event line files."""
    events = []
    for path in paths:
        text = Path(path).read_text()
        if text.lstrip().startswith('{"traceEvents"'):
            events.extend(json.loads(text)["traceEvents"])
            continue
        for line in text.splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                pass  # a killed worker's torn tail
    return events


def pct(values, p):
    """Linear-interpolated percentile (R-7), as perfbench computes them."""
    v = sorted(values)
    h = (len(v) - 1) * p / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def trace_layers(events, context):
    """Per-layer metrics from the spans and counters the program emits."""
    def spans(name):
        return [e for e in events if e.get("ph") == "X" and e.get("name") == name]

    def counter_sum(name, arg):
        vals = [e["args"][arg] for e in events
                if e.get("ph") == "C" and e.get("name") == name
                and arg in e.get("args", {})]
        return sum(vals), len(vals)

    out = {}
    wall_s = context.get("wall_s", 0.0)
    workers = context.get("workers", 1.0)

    jobs = [e for e in spans("job") if e.get("cat") == "exec"]
    job_us = [e["dur"] for e in jobs]
    events_total, event_samples = counter_sum("engine.events", "value")
    ticks, _ = counter_sum("engine.batches", "ticks")
    if job_us:
        out["exp.executor.job_wall_ms_p50"] = pct(job_us, 50) / 1e3
        out["exp.executor.job_wall_ms_p99"] = pct(job_us, 99) / 1e3
        if wall_s > 0:
            out["exp.executor.parallel_efficiency"] = (
                sum(job_us) / 1e6 / (workers * wall_s))
        waits = [e["args"]["wait_us"] for e in jobs
                 if "wait_us" in e.get("args", {})]
        if waits:
            out["exp.executor.queue_wait_us_p50"] = pct(waits, 50)
            out["exp.executor.queue_wait_us_p99"] = pct(waits, 99)
        if events_total > 0:
            out["sim.ns_per_event"] = sum(job_us) * 1e3 / events_total
    if event_samples:
        out["sim.events_per_job"] = events_total / event_samples
    if ticks > 0:
        out["sim.events_per_batch"] = events_total / ticks

    windows, n = counter_sum("engine.windows", "windows")
    if n:
        out["machine.windows"] = windows
        out["machine.window_stalls"] = counter_sum("engine.window_stalls", "value")[0]
        out["machine.cross_messages"] = counter_sum("engine.cross_messages", "value")[0]

    commits = [e for e in spans("commit") if e.get("cat") == "exec"]
    committed = sum(e.get("args", {}).get("jobs", 0) for e in commits)
    ckpt_us = [e["dur"] for e in spans("checkpoint.fsync")]
    if commits and committed:
        if wall_s > 0:
            out["exp.commit.share"] = sum(e["dur"] for e in commits) / 1e6 / wall_s
        out["exp.commit.jobs_per_batch"] = committed / len(commits)
        # One store fsync per commit batch, plus checkpoint fsyncs if any.
        out["exp.commit.fsyncs_per_job"] = (len(commits) + len(ckpt_us)) / committed
    if ckpt_us:
        out["exp.checkpoint.fsync_us_p50"] = pct(ckpt_us, 50)
        out["exp.checkpoint.fsync_us_p99"] = pct(ckpt_us, 99)

    merges = spans("merge")
    if merges:
        out["exp.shard.merge_s"] = sum(e["dur"] for e in merges) / 1e6
        out["exp.shard.steals"] = sum(
            1 for e in events if e.get("ph") == "s" and e.get("name") == "steal")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    out_dir = OUT_DIR / f"{args.workload}-trace{args.trace}"
    t0 = time.monotonic()
    try:
        raw = run_workload(args, out_dir)
    except (RuntimeError, ValueError) as e:
        log(f"perfbench: {args.workload}: {e}")
        return 1
    elapsed = time.monotonic() - t0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        events = load_events(raw["traces"])
        layers = trace_layers(events, raw["context"])
        layers.update(raw["layers"])
        trace_doc = out_dir / "trace.json"
        if not trace_doc.exists():  # per-process line files: stitch them
            trace_doc.write_text(json.dumps({"traceEvents": events}))
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], raw["e2e"]

    metrics, absent = {}, []
    for name, unit in ((m["name"], m["unit"]) for m in wanted):
        v = values.get(name)
        if v is None or not math.isfinite(v):
            absent.append(name)
            v = ABSENT
        metrics[name] = {"value": v, "unit": unit}
    correct = bool(raw["correct"]) and (bool(args.trace) or not absent)

    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "absent": absent,
        "failures": raw["failures"], "context": raw["context"],
        "fingerprint": raw["fingerprint"], "wall_s": elapsed}, indent=1))

    fp = raw["fingerprint"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({elapsed:.1f}s): nproc={fp['nproc']} cpu=\"{fp['cpu_model']}\" "
          f"build={fp['build_type']} store_fs={fp['store_fs']}")
    for name, m in metrics.items():
        tag = "  (absent)" if name in absent else ""
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{tag}")
    for name, v in raw["context"].items():
        print(f"  [{name}] {v:.6g}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {correct}; results in {out_dir / 'result.json'}")
    for f in raw["failures"]:
        print(f"  FAILED: {f}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
