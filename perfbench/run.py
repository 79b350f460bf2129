#!/usr/bin/env python3
"""Benchmark of dampdisc: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from any directory; the package is taken from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the result holds
the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run (see perfbench/README.md).  The last line of standard output is the
result; the line before it records the environment.

Set-up time is measured here, in fresh interpreters, before the workload
process starts: each imports dampdisc and completes the workload's first
request.  The workload process runs with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("presets", "points", "backward", "montecarlo")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 5  # after one unmeasured run that fills the bytecode cache
DEADLINE_S = 175.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run the workload process and wait for it; kill it if it overruns."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def measure_setup(workload: str, seed: int, repeats: int, tiny: bool, deadline: float) -> tuple[list, int]:
    args = ["--setup", "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times, failed = [], 0
    for i in range(repeats + (0 if tiny else 1)):
        start = time.perf_counter()
        done = run_child(args, deadline - time.monotonic())
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            failed += 1
        elif tiny or i > 0:
            times.append(elapsed)
    return times, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dampdisc" / "__init__.py").is_file():
        print(f"perfbench: no dampdisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setup_times, setup_failed = [], 0
    if not args.trace:
        repeats = 1 if args.tiny else SETUP_REPEATS
        setup_times, setup_failed = measure_setup(args.workload, args.seed, repeats, args.tiny, deadline)

    child_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    child_args += ["--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    done = run_child(child_args, deadline - time.monotonic())
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if not args.trace:
        if not setup_times:
            print("perfbench: every set-up run failed", file=sys.stderr)
            return 1
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
        result["attempted"] += len(setup_times) + setup_failed
        result["failed"] += setup_failed
        result["correct"] = result["correct"] and setup_failed == 0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
