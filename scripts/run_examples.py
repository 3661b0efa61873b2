#!/usr/bin/env python3
"""Run both worked examples end to end and the non-identifiable bow case.

Prints one JSON report, then exits non-zero unless each example's symbolic
estimand matches the oracle to 1e-9 and the bow pair agrees observationally
(TV <= 1e-9) while differing under the intervention (TV >= 1e-3)."""

import argparse
import sys

from dolearn.demo import run_bow, run_example1, run_example2
from dolearn.io import dump_json


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--m", type=int, default=100_000)
    args = ap.parse_args()

    report = {
        "example1": run_example1(seed=args.seed, m=args.m),
        "example2": run_example2(seed=args.seed + 4, m=args.m),
        "bow": run_bow(),
    }
    print(dump_json(report), end="")
    checks = [
        (f"{name} symbolic_vs_oracle_max_abs <= 1e-9",
         report[name]["symbolic_vs_oracle_max_abs"] <= 1e-9)
        for name in ("example1", "example2")
    ] + [
        ("bow observational_tv <= 1e-9", report["bow"]["observational_tv"] <= 1e-9),
        ("bow interventional_tv >= 1e-3", report["bow"]["interventional_tv"] >= 1e-3),
    ]
    failed = [what for what, ok in checks if not ok]
    if failed:
        sys.exit("run_examples: failed " + "; ".join(failed))


if __name__ == "__main__":
    main()
