"""oov-forge benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload train-planted --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The workload's inputs are generated
from the seed into .bench_work/, then the workload runs in a fresh process
(so its peak RSS is its own) with every BLAS/OpenMP pool pinned to one
thread. With --trace 0 the result holds the end-to-end metrics; with
--trace 1 the workload runs untraced and then traced, and the result holds
the per-layer metrics plus the tracing overhead. Human-readable detail lines
start with '#'; the last line is the JSON result. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import spans  # bench/spans.py: the per-layer metric names and units

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the three measured stages of each workload, in run order:
# (stage, the metric's name in the detail lines)
STAGES = {
    "train-planted": [("train", "train_episodes_per_s"),
                      ("adapt", "adapt_updates_per_s"),
                      ("infer", "infer_episodes_per_s")],
    "eval-d300": [("hice", "hice_items_per_s"),
                  ("additive", "additive_items_per_s"),
                  ("alacarte", "alacarte_items_per_s")],
    "artifact-io": [("table", "table_round_trip_rows_per_s"),
                    ("nn", "nn_queries_per_s"),
                    ("checkpoint", "checkpoint_round_trips_per_s")],
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # with transparent huge pages in madvise mode, numpy's huge-page requests
    # make page faults wait on memory compaction, whose cost depends on the
    # machine's fragmentation rather than on the program
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env.pop("PYTHONPATH", None)  # the scripts put this checkout's src/ first
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a bench script to completion (killed at the deadline); -> stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + os.path.basename(args[0]))
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(args[0])} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(args[0])} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return proc.stdout


def run_workload(workload, inputs, seed, seconds, deadline, spans=None) -> dict:
    args = [os.path.join(BENCH_DIR, "workload.py"), "--workload", workload,
            "--inputs", inputs, "--seed", str(seed), "--seconds", str(seconds)]
    if spans:
        args += ["--trace", spans]
    out = run_child(args, deadline)
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload, res) -> dict:
    metrics = {
        "setup_s": {"value": res["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
    }
    for i, (stage, _) in enumerate(STAGES[workload], start=1):
        metrics[f"stage{i}_per_s"] = {"value": res["stages"][stage]["rate"],
                                      "unit": "1/s"}
    return metrics


def detail_lines(workload, res) -> list[str]:
    lines = [f"# setup_s = {res['setup_s']!r} s (median of "
             f"{[round(t, 4) for t in res['setup_times']]}; "
             f"wall-clock {res['setup_wall_s']!r})",
             f"# peak_rss_mb = {res['peak_rss_mb']!r} MiB"]
    for i, (stage, name) in enumerate(STAGES[workload], start=1):
        st = res["stages"][stage]
        lines.append(f"# stage{i}_per_s: {name} = {st['rate']!r} {st['unit']} "
                     f"(over {st['ops']} operations; wall-clock {st['wall_rate']!r})")
    for name, (value, unit) in res["details"].items():
        lines.append(f"# {name} = {value!r} {unit}")
    for err in res["errors"]:
        lines.append("# FAILED " + err.replace("\n", "\n#   "))
    return lines


def stage_seconds_per_unit(workload, res) -> list[float]:
    return [1.0 / res["stages"][s]["rate"] for s, _ in STAGES[workload]
            if res["stages"].get(s, {}).get("rate")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(STAGES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running child and the
    # generated inputs are deleted
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "oov_forge", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/oov_forge is missing",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    inputs = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        run_child([os.path.join(BENCH_DIR, "gen.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", inputs], deadline)
        plain = run_workload(args.workload, inputs, args.seed, args.seconds, deadline)
        results = [plain]
        if args.trace:
            span_file = os.path.join(WORK_DIR, "traces",
                                     f"{args.workload}-s{args.seed}.jsonl")
            os.makedirs(os.path.dirname(span_file), exist_ok=True)
            results.append(run_workload(args.workload, inputs, args.seed,
                                        args.seconds, deadline, span_file))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    env = dict(plain["env"], nproc=os.cpu_count(), python=platform.python_version(),
               loadavg_before=load_before, loadavg_after=os.getloadavg())
    print("# env " + json.dumps(env))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g}")
    for line in detail_lines(args.workload, plain):
        print(line)
    if args.trace:
        traced = results[1]
        base = stage_seconds_per_unit(args.workload, plain)
        slow = stage_seconds_per_unit(args.workload, traced)
        overhead = (100.0 * (sum(s / b for s, b in zip(slow, base)) / len(base) - 1.0)
                    if base and len(base) == len(slow) else 0.0)
        values = dict(traced["layers"], **{"trace.overhead_pct": overhead})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in spans.LAYER_METRICS.items()}
        print(f"# spans: {os.path.relpath(span_file, ROOT)}")
        for err in traced["errors"]:
            print("# FAILED (traced) " + err.replace("\n", "\n#   "))
    else:
        metrics = end_to_end(args.workload, plain)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
