import pickle

import numpy as np
import pytest

from dolearn.admg import Admg
from dolearn.estimand import BaseDist, ChainProduct, Marginal, Product, to_json_dict
from dolearn.identify import (
    CausalQuery,
    Estimand,
    HedgeWitness,
    InvalidQuery,
    identify,
    is_identifiable,
)
from dolearn.scm import exact_interventional, exact_observational, random_admg, random_net_for


def _depth(expr) -> int:
    """Nodes on the longest root-to-leaf path of an estimand tree."""
    if isinstance(expr, BaseDist):
        return 1
    if isinstance(expr, (Marginal, ChainProduct)):
        return 1 + _depth(expr.child)
    return 1 + max(_depth(c) for c in expr.children)


class TestQueryValidation:
    def test_overlap(self, fig3a):
        with pytest.raises(InvalidQuery):
            CausalQuery(fig3a, {"X": 0}, frozenset({"X", "Y"}))

    def test_unknown_variable(self, fig3a):
        with pytest.raises(InvalidQuery):
            CausalQuery(fig3a, {"Q": 0}, frozenset({"Y"}))

    def test_out_of_range_value(self, fig3a):
        with pytest.raises(InvalidQuery):
            CausalQuery(fig3a, {"X": 5}, frozenset({"Y"}))


class TestGoldenExamples:
    def test_example1_trace(self, fig3a):
        q = CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"}))
        steps = [t.step for t in identify(q).trace]
        assert steps == ["step4", "step5b", "step2", "step5c", "step2", "step1"]

    def test_example1_equals_oracle(self, fig3a):
        est = identify(CausalQuery(fig3a, {"X": 1}, frozenset({"Z1", "Z2", "Y"})))
        assert isinstance(est, Estimand)
        net = random_net_for(fig3a, seed=23)
        obs = exact_observational(net)
        oracle = exact_interventional(net, {"X": 1})
        got = est.table(obs, {"X": 1}).aligned_to(oracle.names)
        assert np.abs(got.probs - oracle.probs).max() < 1e-9

    def test_materialized_estimand_pickles(self, fig3a):
        est = identify(CausalQuery(fig3a, {"X": 1}, frozenset({"Z1", "Z2", "Y"})))
        obs = exact_observational(random_net_for(fig3a, seed=23))
        want = est.table(obs, {"X": 1})  # leaves a compiled plan on the estimand
        copy = pickle.loads(pickle.dumps(est))
        assert copy == est
        assert np.array_equal(copy.table(obs, {"X": 1}).probs, want.probs)

    def test_example2_trace_and_oracle(self, fig4a):
        q = CausalQuery(fig4a, {"W": 0, "R": 0, "X": 0}, frozenset({"Y"}))
        est = identify(q)
        assert isinstance(est, Estimand)
        assert [t.step for t in est.trace] == ["step5c", "step2", "step5b"]
        net = random_net_for(fig4a, seed=29)
        obs = exact_observational(net)
        for xv in ({"W": 0, "R": 0, "X": 0}, {"W": 1, "R": 1, "X": 0}):
            oracle = exact_interventional(net, xv)
            got = est.table(obs, xv).aligned_to(oracle.names)
            assert np.abs(got.probs - oracle.probs).max() < 1e-9

    def test_trace_details(self, fig3a, fig4a):
        # the step descriptions io JSON, the demo and `dolearn identify` print
        est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        assert [(t.step, t.description) for t in est.trace] == [
            ("step4", "targets={Z1,Z2,Y} do={X} over={X,Z1,Z2,Y}"),
            ("step5b", "targets={Z1,Y} do={X,Z2} over={X,Z1,Z2,Y}"),
            ("step2", "targets={Z2} do={X,Z1,Y} over={X,Z1,Z2,Y}"),
            ("step5c", "targets={Z2} do={X,Z1} over={X,Z1,Z2}"),
            ("step2", "targets={Z2} do={X} over={X,Z2}"),
            ("step1", "targets={Z2} do={} over={Z2}"),
        ]
        est = identify(CausalQuery(fig4a, {"W": 0, "R": 0, "X": 0}, frozenset({"Y"})))
        assert [(t.step, t.description) for t in est.trace] == [
            ("step5c", "targets={Y} do={W,R,X} over={W,R,X,Y}"),
            ("step2", "targets={Y} do={W,X} over={W,X,Y}"),
            ("step5b", "targets={Y} do={X} over={X,Y}"),
        ]

    def test_empty_intervention_is_pure_marginal(self, fig3a):
        q = CausalQuery(fig3a, {}, frozenset({"Y"}))
        est = identify(q)
        assert [t.step for t in est.trace] == ["step1"]
        assert isinstance(est.expr, Marginal)
        assert isinstance(est.expr.child, BaseDist)
        assert est.expr.drop == {"X", "Z1", "Z2"}


class TestHedges:
    def test_bow_returns_witness(self, bow):
        res = identify(CausalQuery(bow, {"X": 0}, frozenset({"Y"})))
        assert isinstance(res, HedgeWitness)
        assert res.root_set == {"Y"}
        assert res.internal == {"X"}
        assert [t.step for t in res.trace] == ["step5a"]

    def test_witness_graph_shape(self, bow):
        res = identify(CausalQuery(bow, {"X": 0}, frozenset({"Y"})))
        g = res.graph
        # the witness graph is one c-component, and removing the internal part
        # leaves exactly the root set as one c-component
        assert len(g.c_components()) == 1
        rs = g.indices(res.root_set)
        assert g.c_components(within=rs) == (rs,)

    def test_is_identifiable(self, bow, fig4a):
        assert not is_identifiable(CausalQuery(bow, {"X": 0}, frozenset({"Y"})))
        markov = Admg.build(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert is_identifiable(CausalQuery(markov, {"B": 1}, frozenset({"A", "C"})))
        assert is_identifiable(
            CausalQuery(fig4a, {"W": 0, "R": 0, "X": 0}, frozenset({"Y"}))
        )


class TestStructuralProperties:
    def test_estimand_independent_of_values(self, fig4a):
        tree0 = identify(CausalQuery(fig4a, {"W": 0, "R": 0, "X": 0}, frozenset({"Y"})))
        tree1 = identify(CausalQuery(fig4a, {"W": 1, "R": 1, "X": 1}, frozenset({"Y"})))
        assert to_json_dict(tree0.expr) == to_json_dict(tree1.expr)

    def test_step4_children_partition_remainder(self, fig3a):
        est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        expr = est.expr
        assert isinstance(expr, Product)
        scopes = [c.scope for c in expr.children]
        union = frozenset().union(*scopes)
        assert union == {"Z1", "Z2", "Y"}
        assert sum(len(s) for s in scopes) == len(union)

    def test_trace_and_depth_bounds(self):
        rng = np.random.default_rng(3)
        for seed in range(60):
            g = random_admg(seed, n=int(rng.integers(2, 7)), n_bidirected=3,
                            max_component=4)
            xi = int(rng.integers(0, g.n))
            x = {g.names[xi]: 0}
            targets = frozenset(set(g.names) - set(x))
            if not targets:
                continue
            res = identify(CausalQuery(g, x, targets))
            assert len(res.trace) <= 3 * g.n
            if isinstance(res, Estimand):
                assert _depth(res.expr) <= 3 * g.n

    def test_subset_targets_with_arbitrary_binding(self):
        # W is an ancestor of Y only through X, so step 3 intervenes on it with
        # an arbitrary value; the result must not depend on the value chosen
        for bidirected, steps in [([("W", "Y")], ["step3", "step5c", "step2", "step1"]),
                                  ([], ["step3", "step5b"])]:
            g = Admg.build(["W", "X", "Y"], [("W", "X"), ("X", "Y")], bidirected)
            est = identify(CausalQuery(g, {"X": 1}, frozenset({"Y"})))
            assert isinstance(est, Estimand)
            assert [t.step for t in est.trace] == steps
            assert est.arbitrary == {"W"}
            net = random_net_for(g, seed=31)
            obs = exact_observational(net)
            oracle = exact_interventional(net, {"X": 1}).marginal_to({"Y"}).pmf({"Y": 1})
            for point in ({"X": 1, "Y": 1}, {"X": 1, "Y": 1, "W": 0}, {"X": 1, "Y": 1, "W": 1}):
                assert est.evaluate(obs, point) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("targets", [frozenset(), set(), ()])
def test_an_empty_target_set_fails_by_name(fig3a, targets):
    with pytest.raises(InvalidQuery, match="^target set is empty$"):
        CausalQuery(fig3a, {"X": 0}, targets)
