import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dolearn.admg import Admg
from dolearn.identify import CausalQuery, HedgeWitness, identify
from dolearn.scm import (
    exact_interventional,
    exact_observational,
    latent_project,
    random_admg,
)
from dolearn.verify import exact_tv
from dolearn.witness import indistinguishable_pair

from .conftest import admgs


class TestBow:
    def test_pair_exists(self, bow):
        pair = indistinguishable_pair(bow, {"X": 1})
        assert pair.observational_tv <= 1e-9
        assert pair.interventional_tv >= 1e-3

    def test_pair_realizes_the_graph(self, bow):
        pair = indistinguishable_pair(bow, {"X": 1})
        assert latent_project(pair.net_a) == bow
        assert latent_project(pair.net_b) == bow

    def test_pair_verified_against_oracle(self, bow):
        pair = indistinguishable_pair(bow, {"X": 0})
        obs_tv = exact_tv(exact_observational(pair.net_a),
                          exact_observational(pair.net_b))
        int_tv = exact_tv(exact_interventional(pair.net_a, {"X": 0}),
                          exact_interventional(pair.net_b, {"X": 0}))
        assert obs_tv <= 1e-9
        assert int_tv >= 1e-3


class TestOtherHedges:
    def test_instrument_like_hedge(self):
        g = Admg.build(["W", "X", "Y"], [("W", "X"), ("X", "Y")], [("X", "Y")])
        res = identify(CausalQuery(g, {"X": 0}, frozenset({"W", "Y"})))
        assert isinstance(res, HedgeWitness)
        pair = indistinguishable_pair(g, {"X": 0})
        assert pair.interventional_tv >= 1e-3

    def test_longer_hedge(self):
        g = Admg.build(
            ["A", "X", "B", "Y"],
            [("A", "X"), ("X", "B"), ("B", "Y")],
            [("X", "B"), ("B", "Y")],
        )
        res = identify(CausalQuery(g, {"X": 1}, frozenset({"A", "B", "Y"})))
        assert isinstance(res, HedgeWitness)
        pair = indistinguishable_pair(g, {"X": 1})
        assert pair.observational_tv <= 1e-9
        assert pair.interventional_tv >= 1e-3

    def test_non_binary_rejected(self):
        g = Admg.build([("X", 3), ("Y", 2)], [("X", "Y")], [("X", "Y")])
        with pytest.raises(ValueError):
            indistinguishable_pair(g, {"X": 0})

    def test_identifiable_query_rejected(self):
        g = Admg.build(["X", "Y"], [("X", "Y")])
        with pytest.raises(ValueError, match="identifiable"):
            indistinguishable_pair(g, {"X": 0})


def test_sampled_hedges_all_witnessed():
    """Every hedge found in a random sweep admits an explicit model pair."""
    rng = np.random.default_rng(7)
    found = 0
    for seed in range(300):
        if found >= 12:
            break
        g = random_admg(seed, n=4, n_bidirected=2, max_component=4)
        xi = int(rng.integers(0, g.n))
        x = {g.names[xi]: int(rng.integers(0, 2))}
        targets = frozenset(set(g.names) - set(x))
        if not targets:
            continue
        res = identify(CausalQuery(g, x, targets))
        if not isinstance(res, HedgeWitness):
            continue
        found += 1
        pair = indistinguishable_pair(g, x)
        assert pair.interventional_tv >= 1e-3, f"no witness pair for seed {seed}"
    assert found >= 5


@st.composite
def hedged_queries(draw):
    g = draw(admgs(max_n=10, max_bidirected=6, min_n=2, min_bidirected=1))
    names = draw(st.lists(st.sampled_from(g.names), min_size=1, max_size=2, unique=True))
    return g, {n: draw(st.integers(0, 1)) for n in names}


@settings(max_examples=200, deadline=None)
@given(hedged_queries())
def test_every_hedge_gets_a_checked_deterministic_pair(case):
    g, x = case
    assume(len(x) < g.n)
    assume(isinstance(identify(CausalQuery(g, x, frozenset(g.names) - set(x))), HedgeWitness))
    pair = indistinguishable_pair(g, x)
    assert pair.observational_tv == 0.0
    assert pair.interventional_tv >= 1e-3
    assert latent_project(pair.net_a) == g
    assert latent_project(pair.net_b) == g
    again = indistinguishable_pair(g, x)
    for net, net_again in ((pair.net_a, again.net_a), (pair.net_b, again.net_b)):
        for p, q in zip(net.nodes, net_again.nodes, strict=True):
            assert (p.name, p.parents, p.hidden) == (q.name, q.parents, q.hidden)
            assert p.cpt.tobytes() == q.cpt.tobytes()
