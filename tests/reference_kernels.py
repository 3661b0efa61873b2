"""Loop-and-stack reference versions of the vectorized batch kernels.

Each function here is the straightforward form that the package code
replaced; the differential tests require the package to match them exactly.
"""

from __future__ import annotations

import numpy as np

from dolearn.tables import strides_for


def draw_compare_and_cap(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draws from an (m, card) array of per-draw cumulative rows."""
    card = cum_rows.shape[1]
    vals = (u[:, None] > cum_rows).sum(axis=1)
    return np.minimum(vals, card - 1).astype(np.int64)


def sample_observational(net, seed: int, m: int) -> np.ndarray:
    """(m, n_observed) draws: per-node row gather, compare-and-cap, stack."""
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    for name in net.topological_order():
        nd = net.node(name)
        rows = np.zeros(m, dtype=np.int64)
        strides = strides_for([net.cardinality(p) for p in nd.parents])
        for p, s in zip(nd.parents, strides):
            rows += cols[p] * s
        cum = np.cumsum(nd.cpt, axis=1)[rows]
        cols[name] = draw_compare_and_cap(cum, rng.random(m))
    obs = net.observables
    return np.stack([cols[n] for n in obs], axis=1) if obs else np.zeros((m, 0), int)


def generate_sample(li, seed: int, m: int) -> np.ndarray:
    """(m, n_targets) draws from a learned object, intervened columns held fixed."""
    rng = np.random.default_rng(seed)
    cols = {n: np.full(m, v, dtype=np.int64) for n, v in li.x.items()}
    for name in li.order:
        f = li.factors[name]
        rows = np.zeros(m, dtype=np.int64)
        for c, s in zip(f.cond, strides_for(f.cond_cards)):
            rows += cols[c] * s
        cols[name] = draw_compare_and_cap(f.cumulative[rows], rng.random(m))
    if not li.order:
        return np.zeros((m, 0), dtype=np.int64)
    return np.stack([cols[n] for n in li.order], axis=1)


def evaluate_point(li, y) -> float:
    """One learned-evaluator value: scalar row lookups multiplied in order."""
    env = dict(li.x)
    env.update(y)
    out = 1.0
    for n in li.order:
        f = li.factors[n]
        out *= float(f.row(env)[env[n]])
    return out


def evaluator_table(li) -> np.ndarray:
    """The learned evaluator at every target assignment, one point at a time."""
    cards = li.cards()
    arr = np.empty(cards, dtype=np.float64)
    for combo in np.ndindex(*cards):
        arr[combo] = evaluate_point(li, dict(zip(li.order, (int(c) for c in combo))))
    return arr


def counts_over(names, values: np.ndarray, keep, cards) -> np.ndarray:
    """Joint counts over ``keep`` by one bincount over all rows."""
    if not keep:
        return np.array(float(len(values)))
    codes = np.zeros(len(values), dtype=np.int64)
    for n, s in zip(keep, strides_for(cards)):
        codes += values[:, list(names).index(n)].astype(np.int64) * s
    size = int(np.prod(cards))
    return np.bincount(codes, minlength=size).reshape(cards).astype(np.float64)
