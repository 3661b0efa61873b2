#!/usr/bin/env python3
"""Sweep every binary mixed graph on four variables with at most two
bidirected edges: check each identifiable single-variable intervention
against the brute-force oracle and, optionally, build witness pairs for the
first hedges. Then check the learner's infinite-sample limit on the same
graphs: ``fit_from_table`` on the exact observational table of one net per
graph must reproduce the exact interventional table, for do(v = 0) on every
variable and do(a = 1, b = 0) on every pair. Fails when a check exceeds the
soundness bound, a witness pair does not agree observationally
(TV <= 1e-9) and differ under the intervention (TV >= 1e-3), or a case
drops out of either sweep."""

import argparse
import itertools
import math
import time

import numpy as np

from dolearn import (NotIdentifiable, exact_interventional, exact_observational,
                     fit_from_table, random_net_for)
from dolearn.verify import SOUNDNESS_BOUND, soundness_sweep, sweep_graphs
from dolearn.witness import indistinguishable_pair

# (checks, hedges) of the learner sweep, by number of intervened variables
LEARNER_TOTALS = {1: (33_888, 13_896), 2: (46_572, 25_104)}


def learner_sweep() -> tuple[dict[int, list[int]], float, tuple | None]:
    """Checks and hedges per number of intervened variables, the largest
    entrywise difference between ``fit_from_table(...).table()`` and the
    oracle (NaN counts as infinite), and where it was met. Graph ``k`` is
    realized once, with seed ``100_000·k``."""
    totals = {1: [0, 0], 2: [0, 0]}
    worst, worst_at = 0.0, None
    for number, g in sweep_graphs():
        net = random_net_for(g, seed=100_000 * number)
        obs = exact_observational(net)
        for xs in [*((v,) for v in g.names), *itertools.combinations(g.names, 2)]:
            x = dict(zip(xs, (0,) if len(xs) == 1 else (1, 0)))
            try:
                li = fit_from_table(obs, g, x)
            except NotIdentifiable:
                totals[len(x)][1] += 1
                continue
            oracle = exact_interventional(net, x)
            diff = float(np.abs(li.table().aligned_to(oracle.names).probs - oracle.probs).max())
            diff = math.inf if math.isnan(diff) else diff
            totals[len(x)][0] += 1
            if worst_at is None or diff > worst:
                worst, worst_at = diff, (number, x)
    return totals, worst, worst_at


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

    t2 = time.time()
    totals, worst, worst_at = learner_sweep()
    print(f"learner: checks/hedges do(v)={totals[1]} do(a, b)={totals[2]} "
          f"worst={worst:.2e} time={time.time() - t2:.1f}s")
    assert worst < SOUNDNESS_BOUND, (worst, worst_at)
    assert {k: tuple(v) for k, v in totals.items()} == LEARNER_TOTALS, totals


if __name__ == "__main__":
    main()
