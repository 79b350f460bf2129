#!/usr/bin/env python3
"""Regenerate every preset dataset.

Writes one file per preset into the output directory.  All presets are
deterministic, so a rerun reproduces the files byte for byte.  Every preset
but fig15 takes about a tenth of a second or less at its default grid; fig15
optimizes the backward strategy over all its cells together and takes about
0.3 s at its default 9x9 grid (median of 9 runs on a 2-core x86 machine with
one BLAS thread).  A malformed flag, an unknown preset or a --grid below 2
is a one-line usage error with exit code 1, and nothing is written.  Pass
--preset to regenerate a subset:

    PYTHONPATH=src python scripts/regen_figure_data.py --preset fig7 --preset fig8
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from dampdisc.cli import UsageParser
from dampdisc.sweep import PRESETS, emit, run_sweep


def main(argv: "list[str] | None" = None) -> int:
    parser = UsageParser(description=__doc__)
    parser.add_argument("--outdir", default="data", help="output directory (default: data)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--preset",
        action="append",
        choices=sorted(PRESETS),
        help="regenerate only this preset (repeatable; default: all)",
    )
    parser.add_argument("--grid", type=int, help="override the per-preset grid size")
    try:
        args = parser.parse_args(argv)
        configs = {name: PRESETS[name].config(grid_n=args.grid) for name in args.preset or PRESETS}
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs.items():
        started = time.perf_counter()
        grid = run_sweep(cfg)
        path = outdir / f"{name}.{args.format}"
        emit(grid, args.format, str(path))
        print(f"{name}: {PRESETS[name].description} -> {path} ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
