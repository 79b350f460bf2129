"""Property test of the CLI contract: random flags and config files never escape as tracebacks.

Every run must end in one of the documented exit codes (0 ok, 1 usage error,
2 consistency failure, 3 i/o error) with no traceback on stderr, and every
usage or i/o error is a single line.  Values are mostly well formed, so that
many runs get past validation; grids stay at most 3x3, so each example is
cheap.  Monte Carlo runs take up to 2**64 trials, past the 2**63 - 1 that the
engine accepts; its cost does not depend on the trial count.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from dampdisc import cli
from dampdisc.sweep import FIXED_KEYS, PRESETS, STRATEGIES, STRATEGY_TABLE

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INCONSISTENT, cli.EXIT_IO}
HALF_PI = math.pi / 2


def _one_in(draw, n: int) -> bool:
    return draw(st.integers(min_value=1, max_value=n)) == 1


def _in(lo: float, hi: float) -> st.SearchStrategy:
    return st.one_of(st.sampled_from([lo, hi, 0.5 * (lo + hi)]), st.floats(min_value=lo, max_value=hi))


bad_json_st = st.one_of(
    st.sampled_from([-0.1, 1.6, 2.0, math.nan, math.inf, -math.inf]),
    st.none(),
    st.booleans(),
    st.sampled_from(["abc", "", [], [1.0], {"x": 1}]),
)
bad_text_st = st.sampled_from(["abc", "", "1e400", "0x1", "nan", "-inf", "--x"])

# (flag, config key, well-formed value); a config key of None has no config form
FIELDS = [
    ("--eta0", "eta0", _in(0.0, HALF_PI)),
    ("--eta1", "eta1", _in(0.0, HALF_PI)),
    ("--x", "x", _in(0.0, 1.0)),
    ("--y", "y", _in(0.0, 1.0)),
    ("--alpha", "alpha", _in(0.0, HALF_PI)),
    ("--variant", "variant", st.sampled_from(["odd", "even"])),
    ("--format", "format", st.sampled_from(["csv", "json"])),
    ("--seed", "seed", st.integers(min_value=0, max_value=2**32)),
    ("--trials", "trials", st.integers(min_value=1, max_value=2**64)),
    ("--grid", "grid_n", st.integers(min_value=2, max_value=3)),
    ("--eta0-range", "eta0_range", st.lists(_in(0.0, HALF_PI), min_size=2, max_size=2).map(sorted)),
    ("--eta1-range", "eta1_range", st.lists(_in(0.0, HALF_PI), min_size=2, max_size=2).map(sorted)),
    ("--out", None, st.sampled_from(["out.csv", "missing/out.csv"])),
]
SWEEP_KEYS = ("grid_n", "eta0_range", "eta1_range")


def _arg_text(value) -> list[str]:
    if isinstance(value, list):
        return [repr(v) for v in value]
    return [value if isinstance(value, str) else repr(value)]


@st.composite
def invocations(draw) -> tuple[list[str], "dict | str | None"]:
    """A target and its flags as argv, plus a config file's content (or None)."""
    target = draw(st.sampled_from(list(STRATEGIES) + list(PRESETS) + ["bogus", "--x"]))
    flags: dict = {}
    config: "dict | str" = {}
    takes = STRATEGY_TABLE[target].params if target in STRATEGY_TABLE else ()  # presets take none
    for flag, key, valid in FIELDS:
        # both angles are usually given, a parameter the target does not take rarely
        if key in ("eta0", "eta1"):
            present = not _one_in(draw, 10)
        elif key in FIXED_KEYS and key not in takes:
            present = _one_in(draw, 10)
        else:
            present = _one_in(draw, 3)
        if not present:
            continue
        bad = _one_in(draw, 20)
        if key is None or draw(st.booleans()):
            flags[flag] = [draw(bad_text_st)] if bad else _arg_text(draw(valid))
        else:
            value = draw(bad_json_st if bad else valid)
            if key in FIXED_KEYS:
                config.setdefault("fixed", {})[key] = value
            else:
                config[key] = value
    if _one_in(draw, 10):
        config[draw(st.sampled_from(["bogus", "strategy", "fixed"]))] = draw(bad_json_st)
    if _one_in(draw, 10):
        config = draw(st.sampled_from(["[1, 2]", "{not json", "null", "\udcff"]))
    # without a small --grid a sweep would run its default 25x25 (or 9x9) grid
    if "--grid" not in flags and (
        target in PRESETS
        or "--eta0-range" in flags
        or "--eta1-range" in flags
        or isinstance(config, dict) and any(key in config for key in SWEEP_KEYS)
    ):
        flags["--grid"] = ["2"]
    argv = [target] + [part for flag, values in flags.items() for part in [flag, *values]]
    return argv, config or None


@settings(max_examples=100, deadline=None)
@given(invocations())
def test_random_invocations_end_in_a_documented_exit_code(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = os.path.join(tmp, argv[i])
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
                fh.write(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    event(f"exit {code}")
    assert code in EXIT_CODES, (argv, config, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, config)
    if code in (cli.EXIT_USAGE, cli.EXIT_IO):
        assert err.getvalue().count("\n") == 1, (argv, config, err.getvalue())
