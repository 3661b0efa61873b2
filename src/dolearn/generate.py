"""Exact ancestral sampler for a learned interventional distribution."""

from __future__ import annotations

from typing import Iterable

from .learn import LearnedInterventional
from .tables import Samples, ancestral_sample


def sample(li: LearnedInterventional, seed: int, m: int) -> Samples:
    """Draw ``m`` i.i.d. assignments from the learned distribution.

    Variables are drawn along the stored topological order with one uniform
    draw each, inverted through the cumulative sums of the factor's rows, so
    every conditioning value is already determined when it is read. The
    output matches the evaluator exactly: the probability of producing an
    assignment equals its evaluated mass.
    """
    steps = [li.factors[n].step for n in li.order]
    return ancestral_sample(steps, li.order, seed, m, fixed=li.x)


def sample_marginal(
    li: LearnedInterventional, t: Iterable[str], seed: int, m: int
) -> Samples:
    """Samples projected to a subset of the targets.

    Drawing the full vector and discarding coordinates leaves the marginal
    distribution unchanged; skipping non-ancestors would only be a speedup.
    """
    t = set(t)
    unknown = t - set(li.order)
    if unknown:
        raise ValueError(f"cannot sample {sorted(unknown)}: not among the targets")
    full = sample(li, seed, m)
    return full.project(tuple(n for n in li.order if n in t))
