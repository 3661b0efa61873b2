"""Canonical worked examples and random test-case generators.

The two fixed graphs below exercise every interesting branch of the
identification recursion; the runners execute the full pipeline on random
realizations of them and report agreement with the brute-force oracle.
"""

from __future__ import annotations

import numpy as np

from .admg import Admg
from .identify import CausalQuery, Estimand, identify, is_identifiable
from .learn import learn_interventional
from .scm import (
    CausalBayesNet,
    exact_interventional,
    exact_observational,
    random_admg,
    random_admg_args,
    random_net_for,
    sample_observational,
)
from .tables import as_count
from .verify import compare_to_oracle, exact_tv
from .witness import indistinguishable_pair


def fig3a_graph() -> Admg:
    """Chain with two crossing confounders; the classic two-component case."""
    return Admg.build(
        ["X", "Z1", "Z2", "Y"],
        directed=[("X", "Z1"), ("X", "Y"), ("Z1", "Z2"), ("Z1", "Y"), ("Z2", "Y")],
        bidirected=[("X", "Z2"), ("Z1", "Y")],
    )


def fig4a_graph() -> Admg:
    """A single three-variable confounded component plus an exogenous mediator."""
    return Admg.build(
        ["W", "R", "X", "Y"],
        directed=[("W", "R"), ("R", "X"), ("X", "Y")],
        bidirected=[("W", "X"), ("W", "Y")],
    )


def bow_graph() -> Admg:
    """The smallest non-identifiable query: cause and effect share a confounder."""
    return Admg.build(["X", "Y"], [("X", "Y")], [("X", "Y")])


def example1_query(value: int = 0) -> CausalQuery:
    g = fig3a_graph()
    return CausalQuery(g, {"X": value}, frozenset({"Z1", "Z2", "Y"}))


def example2_query(w: int = 0, r: int = 0, x: int = 1) -> CausalQuery:
    g = fig4a_graph()
    return CausalQuery(g, {"W": w, "R": r, "X": x}, frozenset({"Y"}))


def _run_example(q: CausalQuery, seed: int, m: int) -> dict:
    net = random_net_for(q.graph, seed=seed)
    obs = exact_observational(net)
    est = identify(q)
    assert isinstance(est, Estimand)
    oracle = exact_interventional(net, q.x)
    symbolic = est.table(obs, q.x).aligned_to(oracle.names)
    batch = sample_observational(net, seed=seed + 1, m=m)
    li = learn_interventional(batch, q.graph, q.x)
    report = compare_to_oracle(li, net, q.x)
    return {
        "query": {"intervene": dict(q.x), "targets": sorted(q.y)},
        "formula": est.render(),
        "trace": [t.step for t in est.trace],
        "symbolic_vs_oracle_tv": exact_tv(symbolic, oracle),
        "symbolic_vs_oracle_max_abs": float(
            np.abs(symbolic.probs - oracle.probs).max()
        ),
        "learned_vs_oracle_tv": report.tv,
        "learned_vs_oracle_kl": report.kl,
        "m": m,
        "seed": seed,
    }


def run_example1(seed: int = 7, m: int = 100_000) -> dict:
    return _run_example(example1_query(), seed, m)


def run_example2(seed: int = 11, m: int = 100_000) -> dict:
    return _run_example(example2_query(), seed, m)


def run_bow() -> dict:
    """The non-identifiable bow query, with a witness pair of nets that agree
    on the observational distribution and differ under ``do(X = 1)``."""
    pair = indistinguishable_pair(bow_graph(), {"X": 1})
    return {
        "query": {"intervene": {"X": 1}, "targets": ["Y"]},
        "identifiable": False,
        "observational_tv": pair.observational_tv,
        "interventional_tv": pair.interventional_tv,
    }


def random_identifiable_case(
    seed: int,
    n: int = 6,
    max_in_degree: int = 2,
    n_bidirected: int = 2,
    max_component: int = 3,
    n_intervene: int = 1,
) -> tuple[Admg, dict[str, int]]:
    """Rejection-sample a sparse graph and an intervention whose full-remainder
    effect is identifiable. The size arguments are checked as
    :func:`~dolearn.scm.random_admg` checks them, and ``n_intervene`` must be
    a non-negative integer less than ``n`` (so that some variable is left to
    be a target), before the first draw."""
    n, max_in_degree, n_bidirected, max_component = random_admg_args(
        n, max_in_degree, n_bidirected, max_component)
    n_intervene = as_count(n_intervene, "n_intervene")
    if n_intervene >= n:
        raise ValueError(f"n_intervene must be less than n = {n}, got {n_intervene}")
    rng = np.random.default_rng(seed)
    for attempt in range(500):
        g = random_admg(
            int(rng.integers(0, 2**31)), n,
            max_in_degree=max_in_degree,
            n_bidirected=n_bidirected,
            max_component=max_component,
        )
        picks = rng.choice(n, size=n_intervene, replace=False)
        x = {g.names[int(i)]: int(rng.integers(0, g.cards[int(i)])) for i in picks}
        targets = frozenset(set(g.names) - set(x))
        if targets and is_identifiable(CausalQuery(g, x, targets)):
            return g, x
    raise RuntimeError("could not sample an identifiable case")  # pragma: no cover
