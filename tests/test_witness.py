import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dolearn import witness
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

    def test_the_callers_hedge_is_not_identified_again(self, bow, monkeypatch):
        hedge = identify(CausalQuery(bow, {"X": 1}, frozenset({"Y"})))
        want = indistinguishable_pair(bow, {"X": 1})
        monkeypatch.setattr(witness, "identify", None)
        got = indistinguishable_pair(bow, {"X": 1}, hedge=hedge)
        assert (got.observational_tv, got.interventional_tv) == (want.observational_tv,
                                                                 want.interventional_tv)
        for net, net_want in ((got.net_a, want.net_a), (got.net_b, want.net_b)):
            assert [nd.cpt.tobytes() for nd in net.nodes] == [nd.cpt.tobytes()
                                                               for nd in net_want.nodes]

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
    """A graph and an intervention on one variable with a child in its own
    c-component, so that P(V∖X | do(x)) is not identifiable (Tian & Pearl
    2002), and maybe on one more variable. A graph with no such variable gets
    a directed edge along one of its bidirected edges."""
    g = draw(admgs(max_n=10, max_bidirected=6, min_n=2, min_bidirected=1))
    comp = {i: c for c in g.c_components() for i in c}
    heads = sorted({a for a, b in g.directed if b in comp[a]})
    if not heads:
        a, b = draw(st.sampled_from(sorted(g.bidirected)))  # a < b, as admgs orients edges
        g = Admg(g.names, g.cards, g.directed | {(a, b)}, g.bidirected)
        heads = [a]
    head = g.names[draw(st.sampled_from(heads))]
    more = [n for n in g.names if n != head] if g.n > 2 else []
    names = [head] + draw(st.lists(st.sampled_from(more), max_size=1) if more else st.just([]))
    return g, {n: draw(st.integers(0, 1)) for n in names}


@settings(max_examples=200, deadline=None)
@given(hedged_queries())
def test_every_hedge_gets_a_checked_deterministic_pair(case):
    g, x = case
    assume(len(x) < g.n)
    hedge = identify(CausalQuery(g, x, frozenset(g.names) - set(x)))
    assume(isinstance(hedge, HedgeWitness))
    pair = indistinguishable_pair(g, x, hedge=hedge)
    assert pair.observational_tv == 0.0
    assert pair.interventional_tv >= 1e-3
    assert latent_project(pair.net_a) == g
    assert latent_project(pair.net_b) == g
    again = indistinguishable_pair(g, x)
    for net, net_again in ((pair.net_a, again.net_a), (pair.net_b, again.net_b)):
        for p, q in zip(net.nodes, net_again.nodes, strict=True):
            assert (p.name, p.parents, p.hidden) == (q.name, q.parents, q.hidden)
            assert p.cpt.tobytes() == q.cpt.tobytes()
