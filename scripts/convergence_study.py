#!/usr/bin/env python3
"""Learning-error curve: distance to the oracle as the sample budget grows.

Prints one CSV row per (case, sample size, repetition) so the output can be
fed straight into a plotting tool. Each case is first fitted to its exact
observational table; the script exits non-zero, naming the case, unless that
fit is within 1e-9 total variation of the oracle.
"""

import argparse
import sys

from dolearn.demo import random_identifiable_case
from dolearn.learn import fit_from_table, learn_interventional
from dolearn.scm import exact_observational, random_net_for, sample_observational
from dolearn.verify import compare_to_oracle

EXACT_TV_BOUND = 1e-9  # the exact-table fit reproduces the oracle up to rounding


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=5)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[1_000, 10_000, 100_000, 1_000_000])
    args = ap.parse_args()

    print("case,seed,n,m,rep,tv,kl")
    for case in range(args.cases):
        case_seed = args.seed + case
        g, x = random_identifiable_case(case_seed, n=args.n)
        net = random_net_for(g, seed=case_seed + 1000)
        exact_tv = compare_to_oracle(fit_from_table(exact_observational(net), g, x), net, x).tv
        if not exact_tv <= EXACT_TV_BOUND:
            sys.exit(f"case {case} (seed {case_seed}): the exact-table fit is "
                     f"{exact_tv:.3g} from the oracle, above {EXACT_TV_BOUND:g}")
        for m in args.sizes:
            for rep in range(args.reps):
                batch = sample_observational(
                    net, seed=10_000 * case_seed + 100 * rep, m=m
                )
                li = learn_interventional(batch, g, x)
                report = compare_to_oracle(li, net, x)
                kl = "" if report.kl is None else f"{report.kl:.6g}"
                print(f"{case},{case_seed},{g.n},{m},{rep},{report.tv:.6g},{kl}")
                sys.stdout.flush()


if __name__ == "__main__":
    main()
