"""Command line front end.

One positional argument selects a strategy or a figure preset; mode is
inferred from the flags: --trials runs a Monte Carlo check, a grid request
(--grid or a range flag, or a preset) runs a sweep, anything else evaluates a
single point.  Exit codes: 0 success, 1 usage error, 2 numeric consistency
failure (including a Monte Carlo z-score above 4), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .channel import TWO_SHOT_VARIANTS
from .sweep import (
    FIXED_KEYS,
    FIXED_RANGES,
    PRESETS,
    STRATEGIES,
    ConsistencyError,
    SweepConfig,
    emit,
    run_mc,
    run_point,
    run_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3

# the positional argument alone picks the strategy or preset
_CONFIG_KEYS = {f.name for f in dataclasses.fields(SweepConfig)} - {"strategy", "preset"}


class UsageParser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ValueError instead of exiting.

    argparse prints its usage text and exits with status 2; the CLI and the
    scripts print one ``usage error:`` line and exit with status 1.
    """

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def build_parser() -> UsageParser:
    parser = UsageParser(
        prog="dampdisc",
        description="Discrimination strategies for qubit amplitude damping channels.",
    )
    parser.add_argument(
        "target",
        metavar="STRATEGY_OR_PRESET",
        help=f"strategy ({', '.join(STRATEGIES)}) or preset ({', '.join(PRESETS)})",
    )
    parser.add_argument("--eta0", type=float, help="first channel angle in [0, pi/2]")
    parser.add_argument("--eta1", type=float, help="second channel angle in [0, pi/2]")
    for key, (_, hi_text, what) in FIXED_RANGES.items():
        parser.add_argument(f"--{key}", type=float, help=f"{what} in [0, {hi_text}]")
    parser.add_argument("--variant", choices=TWO_SHOT_VARIANTS, help="entangled two-probe input variant")
    parser.add_argument("--grid", type=int, dest="grid_n", help="grid points per axis (sweep mode)")
    parser.add_argument("--eta0-range", nargs=2, type=float, metavar=("LO", "HI"))
    parser.add_argument("--eta1-range", nargs=2, type=float, metavar=("LO", "HI"))
    parser.add_argument("--out", dest="output_path", help="write the dataset here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), help="dataset format (default csv)")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials (enables simulation mode)")
    parser.add_argument("--config", help="JSON file with config fields; explicit flags override it")
    return parser


def _merged_settings(args: argparse.Namespace) -> dict:
    """Config-file values overridden by explicit flags; keys present only when given."""
    merged: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        merged.update(data)
    fixed = merged.get("fixed", {})
    if isinstance(fixed, dict):  # anything else is left for SweepConfig to reject
        fixed = dict(fixed)
        for key in FIXED_KEYS:
            value = getattr(args, key)
            if value is not None:
                fixed[key] = value
        if fixed:
            merged["fixed"] = fixed
    for key in _CONFIG_KEYS - {"fixed"}:
        value = getattr(args, key)
        if value is not None:
            merged[key] = tuple(value) if isinstance(value, list) else value
    return merged


def _build_config(target: str, merged: dict) -> tuple[SweepConfig, str]:
    if target in PRESETS:
        return SweepConfig(preset=target, **merged), "sweep"
    if target not in STRATEGIES:
        raise ValueError(f"unknown strategy or preset {target!r}")
    if "trials" in merged:
        mode = "mc"
    elif any(key in merged for key in ("grid_n", "eta0_range", "eta1_range")):
        mode = "sweep"
    else:
        mode = "point"
    return SweepConfig(strategy=target, **merged), mode


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        merged = _merged_settings(args)
        cfg, mode = _build_config(args.target, merged)
        if mode == "point":
            report = run_point(cfg)
            for line in report.lines():
                print(line)
            return EXIT_OK
        if mode == "mc":
            mc = run_mc(cfg)
            for line in mc.lines():
                print(line)
            return EXIT_OK if mc.ok else EXIT_INCONSISTENT
        grid = run_sweep(cfg)
        text = emit(grid, cfg.format, cfg.output_path)
        if cfg.output_path is not None:
            print(f"wrote {cfg.output_path}")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        path = getattr(exc, "filename", None)
        where = f" ({path})" if path else ""
        print(f"i/o error{where}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
