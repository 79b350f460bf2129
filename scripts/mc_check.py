#!/usr/bin/env python3
"""Simulate every strategy's measurement tree and compare with its analytic value.

Runs the Monte Carlo engine for each simulable strategy at one channel pair
and reports the z-score of the estimate against the exact success
probability.  Exits 2 if any |z| exceeds 4.  A malformed flag or value is a
one-line usage error with exit code 1, and nothing runs.
"""

from __future__ import annotations

import sys

from dampdisc.cli import UsageParser
from dampdisc.protocols import MC_STRATEGIES
from dampdisc.sweep import SweepConfig, run_mc


def main(argv: "list[str] | None" = None) -> int:
    parser = UsageParser(description=__doc__)
    parser.add_argument("--eta0", type=float, default=1.2)
    parser.add_argument("--eta1", type=float, default=0.4)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20260815)
    try:
        args = parser.parse_args(argv)
        configs = {
            strategy: SweepConfig(
                strategy=strategy, eta0=args.eta0, eta1=args.eta1, trials=args.trials, seed=args.seed
            )
            for strategy in MC_STRATEGIES
        }
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    any_failed = False
    for strategy, cfg in configs.items():
        report = run_mc(cfg)
        flag = "ok" if report.ok else "FAIL"
        print(
            f"{strategy:20s} analytic={report.analytic:.6f} "
            f"estimate={report.estimate:.6f} stderr={report.stderr:.2e} "
            f"z={report.z:+6.2f} {flag}"
        )
        any_failed |= not report.ok
    return 2 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
