"""Benchmark workloads for dampdisc: seeded requests, a closed loop, output checks.

This file is the workload process that ``perfbench/run.py`` starts in a fresh
interpreter, with ``src/`` of the checkout on ``PYTHONPATH`` and BLAS pinned to
one thread.  One client thread sends the next request only after the previous
one returned.  The package is driven through its public calls only:
``run_sweep``, ``emit``, ``run_point``, ``run_mc`` and ``cli.main``.

Modes:
  --workload W --seed N --seconds S --trace 0|1   measure; print an env line and a result line
  --setup --workload W --seed N                    run only the workload's first request
  --write-reference                                rewrite the preset reference datasets
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("presets", "points", "backward", "montecarlo")

# every default-grid preset except fig15, whose POVM search per cell takes minutes
PRESET_NAMES = ("fig2new", "fig3", "fig4new", "fig4", "fig6", "fig7", "fig8", "fig10", "fig11", "fig13")
POINT_STRATEGIES = (
    "one-shot",
    "side-ent",
    "feedback",
    "two-shot-entangled",
    "two-shot-product",
    "adaptive",
    "adaptive-fb",
    "sequential",
    "polar-curve",
)
HALF_PI = math.pi / 2
# a run regenerates the presets at least twice (about 14 s each): a median over
# one pass, or over single presets, moved with the machine's second-scale noise
PRESET_PASSES = 2

REFERENCE_TOL = 1e-10
BACKWARD_FORWARD_SLACK = 1e-9
MC_Z_LIMIT = 4.0
MC_EXACT_TOL = 1e-12

# Monte Carlo requests draw their channel pair from a fixed pool, each pair with
# its own engine seed.  A correct engine exceeds |z| = 4 with probability 6.3e-5
# per (strategy, pair); a fixed pool of 9 x 24 combinations bounds how often a
# correct engine trips the check, where fresh pairs per request would not.
MC_POOL_SEED = 2009_01000
MC_POOL_SIZE = 24

# requests of one kind over which a latency quantile is taken (see kind_quantile)
QUANTILE_BLOCK = 25


@dataclass
class Scale:
    """Sizes of one run; ``tiny`` is for the smoke test."""

    preset_grid: int | None = None  # None: each preset's default grid
    mc_trials: int = 2**20
    backward_points: int = 150
    mc_probe_trials: int = 2**21


FULL = Scale()
TINY = Scale(preset_grid=3, mc_trials=2**14, backward_points=3, mc_probe_trials=2**16)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Request:
    group: str  # requests of one group repeat the same kind of work
    cells: int  # dataset values the request produces
    run: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed


@dataclass
class Workload:
    name: str
    stream: Iterator[Request]
    min_counts: dict  # group -> requests that every run must complete
    latency_groups: Callable[[str], bool] = lambda group: True
    throughput_groups: Callable[[str], bool] = lambda group: True


# ---------------------------------------------------------------------------
# presets: run_sweep + emit of every default-grid preset, as the regeneration script does


def _load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["presets"]


def _check_preset(name: str, grid, text: str, path: Path, reference: dict) -> None:
    ref = reference[name]
    n_ref, n = ref["grid_n"], len(grid.values[0])
    if (n_ref - 1) % (n - 1):
        raise CheckFailed(f"{name}: grid {n} is not a sub-grid of the reference grid {n_ref}")
    stride = (n_ref - 1) // (n - 1)
    rows = len(ref["values"]) // n_ref
    row_stride = stride if rows == n_ref else 1  # polar curves keep all their angles
    want = [ref["values"][r * n_ref + c] for r in range(0, rows, row_stride) for c in range(0, n_ref, stride)]
    got = [float(v) for v in grid.values.ravel()]
    if len(got) != len(want):
        raise CheckFailed(f"{name}: {len(got)} cells, reference has {len(want)}")
    worst = max(abs(a - b) for a, b in zip(got, want))
    if worst > REFERENCE_TOL:
        raise CheckFailed(f"{name}: cell differs from reference by {worst:.3e}")
    with open(path) as fh:
        written = fh.read()
    if written != text or written.count("\n") != len(got) + 1:
        raise CheckFailed(f"{name}: emitted file does not hold the dataset")


def _regeneration_request(names: list[str], scale: Scale, reference: dict, outdir: Path) -> Request:
    """Regenerate the named presets one after another, as the regeneration script does."""
    from dampdisc import sweep

    jobs = [(name, sweep.PRESETS[name].config(grid_n=scale.preset_grid), outdir / f"{name}.csv") for name in names]

    def run():
        out = []
        for _, cfg, path in jobs:
            grid = sweep.run_sweep(cfg)
            out.append((grid, sweep.emit(grid, "csv", str(path))))
        return out

    def check(outputs):
        for (name, _, path), (grid, text) in zip(jobs, outputs):
            _check_preset(name, grid, text, path, reference)

    cells = 0
    for name, cfg, _ in jobs:
        ref_rows = len(reference[name]["values"]) // reference[name]["grid_n"]
        cells += (cfg.grid_n if ref_rows == reference[name]["grid_n"] else ref_rows) * cfg.grid_n
    return Request(group="regeneration", cells=cells, run=run, check=check)


def presets_workload(rng: random.Random, scale: Scale, outdir: Path) -> Workload:
    reference = _load_reference()

    def stream():
        while True:  # every request regenerates all presets, in a seeded order
            order = list(PRESET_NAMES)
            rng.shuffle(order)
            yield _regeneration_request(order, scale, reference, outdir)

    return Workload("presets", stream(), {"regeneration": PRESET_PASSES})


# ---------------------------------------------------------------------------
# points: in-process CLI point queries


def _point_request(strategy: str, fix_x: bool, rng: random.Random) -> Request:
    from dampdisc import cli

    eta0, eta1 = rng.uniform(0.0, HALF_PI), rng.uniform(0.0, HALF_PI)
    argv = [strategy, "--eta0", repr(eta0), "--eta1", repr(eta1)]
    if fix_x:
        argv += ["--x", repr(rng.uniform(0.0, 1.0))]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(output):
        code, out, err = output
        if code != 0:
            raise CheckFailed(f"{' '.join(argv)}: exit {code}: {err.strip()}")
        label, _, value = out.partition("\n")[0].partition(" = ")
        try:
            number = float(value)
        except ValueError:
            raise CheckFailed(f"{' '.join(argv)}: no value in {out[:80]!r}") from None
        lo, hi = (0.0, 2.0) if label == "radius" else (0.5, 1.0)
        if not lo - 1e-9 <= number <= hi + 1e-9:
            raise CheckFailed(f"{' '.join(argv)}: {label} {number} outside [{lo}, {hi}]")

    group = f"{strategy}{' x' if fix_x else ''}"
    return Request(group=group, cells=1, run=run, check=check)


def points_workload(rng: random.Random, scale: Scale, outdir: Path) -> Workload:
    groups = [(s, fix) for s in POINT_STRATEGIES for fix in (False, True)]

    def stream():
        while True:
            for strategy, fix_x in groups:
                yield _point_request(strategy, fix_x, rng)

    return Workload("points", stream(), {f"{s}{' x' if fix else ''}": 1 for s, fix in groups})


# ---------------------------------------------------------------------------
# backward: run_point("backward") at fixed x, and a fwd-bwd-diff sub-grid sweep


def _backward_point_request(rng: random.Random) -> Request:
    from dampdisc import strategies, sweep

    eta0, eta1, x = rng.uniform(0.0, HALF_PI), rng.uniform(0.0, HALF_PI), rng.uniform(0.0, 1.0)
    cfg = sweep.SweepConfig(strategy="backward", eta0=eta0, eta1=eta1, fixed={"x": x})

    def run():
        return sweep.run_point(cfg).value

    def check(value):
        forward = strategies.adaptive_forward_psucc(strategies.ChannelPair(eta0, eta1), x)
        if not forward - BACKWARD_FORWARD_SLACK <= value <= 1.0:
            raise CheckFailed(f"backward at {(eta0, eta1, x)}: {value} outside [{forward} - 1e-9, 1]")

    return Request(group="point", cells=1, run=run, check=check)


def _backward_sweep_request(rng: random.Random) -> Request:
    from dampdisc import sweep

    # a 2x2 sub-grid away from the diagonal eta0 == eta1 (the package orders
    # each pair itself, so the other side of the diagonal holds the same cells)
    strong, weak = rng.uniform(0.85, 1.45), rng.uniform(0.05, 0.65)
    ranges = ((strong, strong + 0.1), (weak, weak + 0.1))
    cfg = sweep.SweepConfig(strategy="fwd-bwd-diff", grid_n=2, eta0_range=ranges[0], eta1_range=ranges[1])

    def run():
        return sweep.run_sweep(cfg)

    def check(grid):
        worst = float(grid.values.max())
        if worst > BACKWARD_FORWARD_SLACK:
            raise CheckFailed(f"fwd-bwd-diff cell {worst} > 0: forward beat backward on {ranges}")

    return Request(group="sweep", cells=4, run=run, check=check)


def backward_workload(rng: random.Random, scale: Scale, outdir: Path) -> Workload:
    def stream():
        # point queries on both sides of the long sweep, so their latency is
        # sampled across the whole run rather than in one window of it
        for _ in range(scale.backward_points // 2):
            yield _backward_point_request(rng)
        yield _backward_sweep_request(rng)
        while True:
            yield _backward_point_request(rng)

    return Workload(
        "backward",
        stream(),
        {"sweep": 1, "point": scale.backward_points},
        latency_groups=lambda group: group == "point",
        throughput_groups=lambda group: group == "sweep",
    )


# ---------------------------------------------------------------------------
# montecarlo: run_mc over the simulable strategies


def mc_pool() -> list[tuple[float, float, int]]:
    pool_rng = random.Random(MC_POOL_SEED)
    return [
        (pool_rng.uniform(0.0, HALF_PI), pool_rng.uniform(0.0, HALF_PI), MC_POOL_SEED + i)
        for i in range(MC_POOL_SIZE)
    ]


def _mc_request(strategy: str, eta0: float, eta1: float, mc_seed: int, scale: Scale) -> Request:
    from dampdisc import discrimination, protocols, strategies, sweep

    cfg = sweep.SweepConfig(strategy=strategy, eta0=eta0, eta1=eta1, trials=scale.mc_trials, seed=mc_seed)

    def run():
        return sweep.run_mc(cfg)

    def check(report):
        if not abs(report.z) <= MC_Z_LIMIT:
            raise CheckFailed(f"{strategy} at {(eta0, eta1)} seed {mc_seed}: |z| = {abs(report.z):.2f} > 4")
        protocol = protocols.build_protocol(strategy, strategies.ChannelPair(eta0, eta1), {})
        exact = discrimination.exact_psucc(protocol)
        if abs(report.analytic - exact) > MC_EXACT_TOL:
            raise CheckFailed(f"{strategy} at {(eta0, eta1)}: analytic {report.analytic} vs exact {exact}")

    return Request(group=strategy, cells=1, run=run, check=check)


def montecarlo_workload(rng: random.Random, scale: Scale, outdir: Path) -> Workload:
    from dampdisc.protocols import MC_STRATEGIES

    pool = mc_pool()

    def stream():
        while True:
            for strategy in MC_STRATEGIES:
                yield _mc_request(strategy, *rng.choice(pool), scale)

    return Workload("montecarlo", stream(), {s: 1 for s in MC_STRATEGIES})


BUILDERS = {
    "presets": presets_workload,
    "points": points_workload,
    "backward": backward_workload,
    "montecarlo": montecarlo_workload,
}


def first_request(workload: str, seed: int, scale: Scale, outdir: Path) -> Request:
    """The request a new user of the workload sends first; timed as set-up."""
    if workload == "presets":  # the regeneration script starts with the first preset
        return _regeneration_request([PRESET_NAMES[0]], scale, _load_reference(), outdir)
    return next(BUILDERS[workload](random.Random(seed), scale, outdir).stream)


# ---------------------------------------------------------------------------
# closed loop and metrics


@dataclass
class Done:
    group: str
    cells: int
    seconds: float
    error: str | None = None


def timed_run(request: Request) -> tuple[Done, object]:
    start = time.perf_counter()
    try:
        output = request.run()
    except Exception:  # a failed request is counted, and the loop goes on
        return Done(request.group, request.cells, time.perf_counter() - start, traceback.format_exc(limit=3)), None
    return Done(request.group, request.cells, time.perf_counter() - start), output


def checked(request: Request, done: Done, output: object) -> Done:
    if done.error is None:
        try:
            request.check(output)
        except CheckFailed as exc:
            done.error = str(exc)
    return done


def execute(request: Request) -> Done:
    """Time one request, then check its output outside the timed region."""
    return checked(request, *timed_run(request))


def closed_loop(workload: Workload, seconds: float, sent: list | None = None) -> list[Done]:
    """Send requests one after another until time is up and every group met its minimum.

    Time is up at the request boundary nearest to ``seconds``: the next request
    is not sent when, taking as long as the last one, it would end more than
    half its time past ``seconds``.  So a run of 13-s regenerations makes two
    of them in 25 s whether the machine is a little fast or a little slow.
    Requests sent are appended to ``sent`` when given, so they can be replayed.
    """
    done: list[Done] = []
    counts = dict.fromkeys(workload.min_counts, 0)
    started = time.perf_counter()
    for request in workload.stream:
        elapsed = time.perf_counter() - started
        last = done[-1].seconds if done else 0.0
        if elapsed + last / 2 >= seconds and all(counts[g] >= n for g, n in workload.min_counts.items()):
            break
        if sent is not None:
            sent.append(request)
        done.append(execute(request))
        counts[request.group] = counts.get(request.group, 0) + 1
    return done


def _by_group(done: list[Done], keep: Callable[[str], bool]) -> dict:
    groups: dict = {}
    for d in done:  # failed requests too: their time is still the user's wait
        if keep(d.group):
            groups.setdefault(d.group, []).append(d)
    return groups


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of values, interpolated linearly between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


def kind_quantile(groups: dict, q: float) -> float:
    """Mean over request kinds of each kind's q-quantile of request time.

    Every kind weighs alike, so the time running out in the middle of a pass
    does not shift the mix.  A quantile of all requests pooled would sit, at
    q = 0.9, in the gap between the cost levels of the slowest kinds, where a
    few requests sped up by a faster phase of a shared machine move it by a
    third; a quantile within each kind moves only as much as the machine does.
    Within a kind, the quantile is taken over consecutive blocks of
    QUANTILE_BLOCK requests and the median over the blocks is kept, so that a
    slow spell of a second or two does not decide the tail of a whole run.
    """
    per_kind = []
    for requests in groups.values():
        seconds = [d.seconds for d in requests]  # in the order they were sent
        n = len(seconds)
        blocks = max(1, n // QUANTILE_BLOCK)
        per_kind.append(
            statistics.median(quantile(seconds[i * n // blocks : (i + 1) * n // blocks], q) for i in range(blocks))
        )
    return statistics.fmean(per_kind)


def end_to_end(workload: Workload, done: list[Done]) -> dict:
    lat = _by_group(done, workload.latency_groups)
    thr = _by_group(done, workload.throughput_groups)
    # one request of every group, at each group's median time
    cells = sum(v[0].cells for v in thr.values())
    seconds = sum(statistics.median(d.seconds for d in v) for v in thr.values())
    return {
        "cells_per_s": {"value": cells / seconds, "unit": "1/s"},
        "point_p50_ms": {"value": kind_quantile(lat, 0.5) * 1e3, "unit": "ms"},
        "point_p90_ms": {"value": kind_quantile(lat, 0.9) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# traced run


# workloads on which each traced function must be called.  A zero there means
# a binding was missed, or the workload no longer reaches the function; it is
# counted in trace_missed_calls rather than as a failed output, since the
# program's results are not wrong.
EXPECTED_CALLS = {
    "cli.main": ("points",),
    "sweep.run_sweep": ("presets", "backward"),
    "sweep.emit": ("presets",),
    "sweep.run_point": ("points", "backward"),
    "sweep.run_mc": ("montecarlo",),
    "protocols.build_protocol": ("montecarlo",),
    "strategies.one_shot_optimal": ("presets", "points", "montecarlo"),
    "strategies.side_ent_optimal": ("presets", "points", "montecarlo"),
    "strategies.side_ent_psucc": ("presets", "points", "montecarlo"),
    "strategies.feedback_optimal": ("presets", "points"),
    "strategies.two_shot_entangled_optimal": ("points", "montecarlo"),
    "strategies.two_shot_product_optimal": ("presets", "points", "montecarlo"),
    "strategies.adaptive_forward_optimal": ("presets", "points", "backward", "montecarlo"),
    "strategies.adaptive_feedback_psucc": ("presets", "points", "montecarlo"),
    "strategies.sequential_two_shot_optimal": ("points", "montecarlo"),
    "strategies.damping_polar_curve": ("presets",),
    "strategies.backward_adaptive_measurement": ("backward", "montecarlo"),
    "strategies.backward_adaptive_optimal": ("backward",),
    "strategies.fwd_bwd_difference": ("backward",),
    "discrimination.maximize_scalar": ("presets", "points", "backward", "montecarlo"),
    "discrimination.maximize_povm_2x2": ("backward", "montecarlo"),
    "discrimination.helstrom": ("backward", "montecarlo"),
    "discrimination.helstrom_psucc": ("presets", "points", "montecarlo"),
    "discrimination.monte_carlo_psucc": ("montecarlo",),
    "linalg.hermitian_eig": ("presets", "points", "backward", "montecarlo"),
    "linalg.trace_norm": ("presets", "points", "backward", "montecarlo"),
}


def mc_scaling_probe(scale: Scale, nproc: int) -> tuple[dict, list[str]]:
    """Engine alone on one protocol: one worker against nproc workers, same counts."""
    from dampdisc import discrimination, protocols, strategies

    protocol = protocols.build_protocol("adaptive-fb", strategies.ChannelPair(1.2, 0.4), {})
    rates: dict = {1: [], nproc: []}
    counts = set()
    for _ in range(3):
        for workers in (1, nproc):
            start = time.perf_counter()
            est = discrimination.monte_carlo_psucc(protocol, trials=scale.mc_probe_trials, seed=7, workers=workers)
            rates[workers].append(scale.mc_probe_trials / (time.perf_counter() - start))
            counts.add(est.n_correct)
    errors = [] if len(counts) == 1 else [f"monte_carlo_psucc n_correct depends on workers: {sorted(counts)}"]
    metrics = {
        "discrimination.mc_trials_per_s.workers_1": {"value": statistics.median(rates[1]), "unit": "1/s"},
        "discrimination.mc_trials_per_s.workers_nproc": {"value": statistics.median(rates[nproc]), "unit": "1/s"},
    }
    return metrics, errors


def traced_run(workload: Workload, seconds: float, scale: Scale, nproc: int) -> tuple[dict, int, list[str]]:
    from tracer import Tracer

    # the same requests, untraced then traced; the time ratio is the tracing overhead
    sent: list[Request] = []
    plain = closed_loop(workload, seconds / 2, sent)
    tracer = Tracer()
    tracer.install()
    try:
        runs = [timed_run(request) for request in sent]
    finally:
        tracer.uninstall()
    traced = [checked(request, done, output) for request, (done, output) in zip(sent, runs)]
    errors = [d.error for d in plain + traced if d.error is not None]
    metrics = tracer.metrics()
    for name in tracer.absent:
        print(f"trace: {name} is absent from the package", file=sys.stderr)
    missed = [
        name
        for name, where in EXPECTED_CALLS.items()
        if workload.name in where and name not in tracer.absent and tracer.stats[name].calls == 0
    ]
    for name in missed:
        print(f"trace: {name} has no calls on {workload.name}; a binding was missed", file=sys.stderr)
    metrics["trace_missed_calls"] = {"value": len(missed), "unit": "count"}
    cells = sum(d.cells for d in traced if d.group == "regeneration")
    points = tracer.stats["discrimination.maximize_scalar"].count
    metrics["discrimination.maximize_scalar.points_per_cell"] = {
        "value": points / cells if cells else 0.0,
        "unit": "count",
    }
    probe, probe_errors = mc_scaling_probe(scale, nproc)
    metrics.update(probe)
    errors += probe_errors
    overhead = sum(d.seconds for d in traced) / sum(d.seconds for d in plain)
    metrics["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    attempted = len(plain) + len(traced) + 1
    metrics["fail_ratio"] = {"value": len(errors) / attempted, "unit": "ratio"}
    return metrics, attempted, errors


# ---------------------------------------------------------------------------
# entry points


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": available_cpus(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def measure(args: argparse.Namespace, scale: Scale, outdir: Path) -> dict:
    workload = BUILDERS[args.workload](random.Random(args.seed), scale, outdir)
    print(json.dumps({"env": environment(args.seed)}), flush=True)
    if args.trace:
        metrics, attempted, errors = traced_run(workload, args.seconds, scale, available_cpus())
    else:
        done = closed_loop(workload, args.seconds)
        errors = [d.error for d in done if d.error is not None]
        metrics = end_to_end(workload, done)
        attempted = len(done)
    for message in errors[:20]:
        print(f"failed: {message}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}


def write_reference() -> None:
    from dampdisc import sweep

    presets = {}
    for name in PRESET_NAMES:
        preset = sweep.PRESETS[name]
        grid = sweep.run_sweep(preset.config())
        presets[name] = {"grid_n": preset.grid_n, "values": [float(v) for v in grid.values.ravel()]}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"presets": presets}, fh)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    parser.add_argument("--setup", action="store_true", help="run only the first request")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    scale = TINY if args.tiny else FULL
    SCRATCH.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.setup:
            done = execute(first_request(args.workload, args.seed, scale, outdir))
            if done.error is not None:
                print(f"failed: {done.error}", file=sys.stderr)
            return 0 if done.error is None else 1
        result = measure(args, scale, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
