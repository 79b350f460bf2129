"""Per-layer tracing of dampdisc from outside the package.

The tracer wraps the public functions listed in ``TARGETS`` at every place
the package binds them: module namespaces (including names imported from
another module), module-level dicts, and dataclass instances held in those
dicts (such as ``PRESETS["fig15"].cell``).  Nothing under ``src/`` is edited;
``uninstall`` puts every original binding back.

Each wrapped call counts one call and adds its self time, which is the span's
duration minus the time its wrapped children took.  A few functions also count
the work they were handed (objective points, effects, trials, bytes).  A
target that no longer exists in its module is reported as absent, not as an
error, so the tracer keeps working when a later version deletes a function.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time

import numpy as np

TARGETS = {
    "cli": ("main",),
    "sweep": ("run_sweep", "emit", "run_point", "run_mc"),
    "protocols": ("build_protocol",),
    "strategies": (
        "one_shot_optimal",
        "side_ent_optimal",
        "side_ent_psucc",
        "feedback_optimal",
        "two_shot_entangled_optimal",
        "two_shot_product_optimal",
        "adaptive_forward_optimal",
        "adaptive_feedback_psucc",
        "sequential_two_shot_optimal",
        "damping_polar_curve",
        "backward_adaptive_measurement",
        "backward_adaptive_optimal",
        "fwd_bwd_difference",
    ),
    "discrimination": (
        "maximize_scalar",
        "maximize_povm_2x2",
        "helstrom",
        "helstrom_psucc",
        "monte_carlo_psucc",
    ),
    "linalg": ("hermitian_eig", "trace_norm"),
}

# extra work counters: target -> counter name (unit "count" unless noted in UNITS)
COUNTERS = {
    "sweep.emit": "bytes",
    "discrimination.maximize_scalar": "points",
    "discrimination.maximize_povm_2x2": "effects",
    "discrimination.monte_carlo_psucc": "trials",
}
COUNTER_UNITS = {"bytes": "B"}


def target_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class _Stat:
    __slots__ = ("calls", "self_s", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.count = 0


class Tracer:
    """Wraps the targets while installed; keeps aggregates in memory."""

    def __init__(self) -> None:
        self.stats = {name: _Stat() for name in target_names()}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._restore: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        rewrite = self._argument_counter(name, fn, stat)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.self_s += duration - children
                if stack:
                    stack[-1] += duration
            if name == "sweep.emit" and isinstance(result, str):
                stat.count += len(result.encode())
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @staticmethod
    def _argument_counter(name: str, fn, stat: _Stat):
        """Return an (args, kwargs) rewriter that counts the work passed in, or None."""
        param = {
            "discrimination.maximize_scalar": "f",
            "discrimination.maximize_povm_2x2": "batch_objective",
            "discrimination.monte_carlo_psucc": "trials",
        }.get(name)
        if param is None:
            return None
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return None
        if param not in sig.parameters:
            return None

        def counting(objective):
            def counted(x, *rest, **kw):
                # a batched objective gets (..., 2, 2) effects or an array of points
                arr = np.asarray(x)
                stat.count += arr.size // 4 if param == "batch_objective" else max(arr.size, 1)
                return objective(x, *rest, **kw)

            return counted

        def rewrite(args, kwargs):
            try:
                bound = sig.bind(*args, **kwargs)
            except TypeError:
                return args, kwargs  # let the real call raise
            value = bound.arguments.get(param)
            if value is None:
                return args, kwargs
            if param == "trials":
                stat.count += int(value)
                return args, kwargs
            bound.arguments[param] = counting(value)
            return bound.args, bound.kwargs

        return rewrite

    def install(self) -> None:
        import dampdisc  # noqa: F401  (loads every submodule)

        originals = {}
        for mod_name, fns in TARGETS.items():
            module = importlib.import_module(f"dampdisc.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.absent.append(name)
                    continue
                originals[id(fn)] = (fn, self._wrap(name, fn))

        modules = [m for key, m in sys.modules.items() if key == "dampdisc" or key.startswith("dampdisc.")]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(namespace, attr, value, hit[1])
                elif isinstance(value, dict):
                    self._rebind_container(value, originals)

    def _rebind(self, mapping: dict, key, old, new) -> None:
        mapping[key] = new
        self._restore.append(lambda: mapping.__setitem__(key, old))

    def _rebind_container(self, mapping: dict, originals: dict) -> None:
        for key, value in list(mapping.items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                self._rebind(mapping, key, value, hit[1])
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                for f in dataclasses.fields(value):
                    member = getattr(value, f.name, None)
                    hit = originals.get(id(member))
                    if hit is not None and hit[0] is member:
                        object.__setattr__(value, f.name, hit[1])
                        self._restore.append(
                            lambda obj=value, attr=f.name, old=member: object.__setattr__(obj, attr, old)
                        )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = {"value": stat.calls, "unit": "count"}
            out[f"{name}.self_s"] = {"value": stat.self_s, "unit": "s"}
            counter = COUNTERS.get(name)
            if counter is not None:
                out[f"{name}.{counter}"] = {"value": stat.count, "unit": COUNTER_UNITS.get(counter, "count")}
        return out
