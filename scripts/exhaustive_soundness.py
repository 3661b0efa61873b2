#!/usr/bin/env python3
"""Sweep every binary mixed graph on four variables with at most two
bidirected edges: check each identifiable single-variable intervention
against the brute-force oracle and, optionally, build witness pairs for the
first hedges. Fails when a check exceeds the soundness bound, a witness pair
does not agree observationally (TV <= 1e-9) and differ under the
intervention (TV >= 1e-3), or a case drops out of the sweep."""

import argparse
import time

from dolearn.verify import SOUNDNESS_BOUND, soundness_sweep
from dolearn.witness import indistinguishable_pair


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--realizations", type=int, default=20,
                    help="random nets checked per graph")
    ap.add_argument("--witness-hedges", type=int, default=0,
                    help="also build witness pairs for this many hedges")
    args = ap.parse_args()

    t0 = time.time()
    res = soundness_sweep(args.realizations)
    t1 = time.time()
    assert res.worst < SOUNDNESS_BOUND, (res.worst, res.worst_at)
    witnessed = 0
    for number, g, name, hedge in res.hedges[: args.witness_hedges]:
        pair = indistinguishable_pair(g, {name: 0}, hedge=hedge)
        assert pair.observational_tv <= 1e-9, (number, name, pair.observational_tv)
        assert pair.interventional_tv >= 1e-3, (number, name, pair.interventional_tv)
        witnessed += 1
    print(f"graphs={res.graphs} identifiable={res.identifiable} hedges={len(res.hedges)} "
          f"checks={res.checks} witnessed={witnessed} worst={res.worst:.2e} "
          f"sweep={t1 - t0:.1f}s witness={time.time() - t1:.1f}s")
    assert (res.graphs, res.identifiable, len(res.hedges)) == (11_946, 33_888, 13_896)
    assert res.checks == 33_888 * args.realizations


if __name__ == "__main__":
    main()
