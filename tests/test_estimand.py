import math
from fractions import Fraction

import numpy as np
import pytest

from dolearn.admg import Admg
from dolearn.estimand import (
    BaseDist,
    ChainProduct,
    DistExpr,
    Marginal,
    Product,
    PositivityViolation,
    ZeroConditioningEvent,
    _plan,
    chain_depth,
    evaluate,
    from_json_dict,
    full_table,
    marginal,
    render,
    to_json_dict,
)
from dolearn.identify import CausalQuery, identify
from dolearn.scm import (
    exact_interventional,
    exact_observational,
    random_net_for,
    sample_observational,
)
from dolearn.tables import EmpiricalAccess, PmfTable, Samples, ScopeMismatch, iter_assignments


def fair_coin():
    return PmfTable(("X",), np.array([0.5, 0.5]))


class TestEvaluate:
    def test_base_fair_coin(self):
        assert evaluate(BaseDist(("X",)), fair_coin(), {"X": 1}) == 0.5

    def test_marginal_dropping_all_is_total_mass(self):
        t = PmfTable(("A", "B"), np.full((2, 2), 0.25))
        expr = Marginal(BaseDist(("A", "B")), frozenset({"A", "B"}))
        assert evaluate(expr, t, {}) == pytest.approx(1.0)

    def test_example2_ratio_against_oracle(self, fig4a):
        net = random_net_for(fig4a, seed=11)
        obs = exact_observational(net)
        est = identify(CausalQuery(fig4a, {"W": 0, "R": 1, "X": 0}, frozenset({"Y"})))
        x = {"W": 0, "R": 1, "X": 0}
        oracle = exact_interventional(net, x)
        for y in range(2):
            got = est.evaluate(obs, {**x, "Y": y})
            # the ratio formula, computed by hand on the exact table
            def term(w, yy):
                pw = obs.marginal_to({"W"}).pmf({"W": w})
                px = obs.marginal_to({"W", "R", "X"}).pmf({"W": w, "R": 1, "X": 0}) \
                    / obs.marginal_to({"W", "R"}).pmf({"W": w, "R": 1})
                py = obs.pmf({"W": w, "R": 1, "X": 0, "Y": yy}) \
                    / obs.marginal_to({"W", "R", "X"}).pmf({"W": w, "R": 1, "X": 0})
                return pw * px * py
            num = sum(term(w, y) for w in range(2))
            den = sum(term(w, yy) for w in range(2) for yy in range(2))
            assert got == pytest.approx(num / den, abs=1e-12)
            assert got == pytest.approx(oracle.pmf({"Y": y}), abs=1e-9)

    def test_missing_env_is_scope_mismatch(self):
        with pytest.raises(ScopeMismatch):
            evaluate(BaseDist(("X",)), fair_coin(), {})

    def test_point_checks_only_the_events_it_reaches(self, fig4a):
        # a batch with no rows at (W=1, R=0, X=0): the table for do(X=1)
        # checks Y's conditioning events at every X and fails, while a point
        # at X=1 reaches only X=1 events and evaluates
        batch = sample_observational(random_net_for(fig4a, seed=11), 3, 2000)
        v = batch.values
        empty = (v[:, 0] == 1) & (v[:, 1] == 0) & (v[:, 2] == 0)
        access = EmpiricalAccess(Samples(batch.names, v[~empty]), fig4a.cards)
        x = {"W": 0, "R": 0, "X": 1}
        est = identify(CausalQuery(fig4a, x, frozenset({"Y"})))
        with pytest.raises(PositivityViolation) as exc:
            est.table(access, x)
        assert (exc.value.variable, exc.value.event) == ("Y", {"W": 1, "X": 0, "R": 0})
        got = [est.evaluate(access, {**x, "Y": y}) for y in (0, 1)]
        assert got == pytest.approx([0.16930466705133673, 0.8306953329486633], abs=1e-12)

    def test_points_count_each_leaf_scope_once_per_batch(self, fig4a, monkeypatch):
        batch = sample_observational(random_net_for(fig4a, seed=11), 3, 2000)
        access = EmpiricalAccess(batch, fig4a.cards)
        asked, tallied = [], []
        counts_over, tally = Samples.counts_over, Samples._tally
        monkeypatch.setattr(Samples, "counts_over", lambda self, names, cards: asked.append(
            (tuple(names), tuple(cards))) or counts_over(self, names, cards))
        monkeypatch.setattr(Samples, "_tally", lambda self, names, cards: tallied.append(
            (names, cards)) or tally(self, names, cards))
        points = list(iter_assignments(fig4a.names, fig4a.cards))
        ests = [identify(CausalQuery(fig4a, {v: p[v] for v in "WRX"}, frozenset({"Y"})))
                for p in points]
        got = [est.evaluate(access, p) for est, p in zip(ests, points)]
        assert len(asked) == 48  # three leaves a point, at 16 points
        assert sorted(tallied) == sorted(set(asked)) == [
            (("W",), (2,)), (("W", "R", "X"), (2, 2, 2)), (("W", "R", "X", "Y"), (2, 2, 2, 2))]
        counts = batch.counts_over(("W",), (2,))
        assert counts is batch.counts_over(["W"], [2]) and not counts.flags.writeable
        fresh = EmpiricalAccess(Samples(batch.names, batch.values), fig4a.cards)
        assert [est.evaluate(fresh, p) for est, p in zip(ests, points)] == got

    def test_marginal_linearity(self):
        t = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        base = BaseDist(("A", "B"))
        expr = Marginal(base, frozenset({"B"}))
        for a in range(2):
            direct = sum(evaluate(base, t, {"A": a, "B": b}) for b in range(2))
            assert evaluate(expr, t, {"A": a}) == pytest.approx(direct)


class TestFullTable:
    def test_base_identity(self):
        t = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        out = full_table(BaseDist(("A", "B")), t)
        assert out.names == t.names
        assert np.allclose(out.probs, t.probs)

    def test_example1_matches_oracle(self, fig3a):
        net = random_net_for(fig3a, seed=7)
        obs = exact_observational(net)
        est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        for xv in (0, 1):
            got = est.table(obs, {"X": xv})
            oracle = exact_interventional(net, {"X": xv})
            assert np.abs(got.aligned_to(oracle.names).probs - oracle.probs).max() < 1e-9

    def test_agrees_with_point_evaluation(self, fig3a):
        net = random_net_for(fig3a, seed=19)
        obs = exact_observational(net)
        est = identify(CausalQuery(fig3a, {"X": 1}, frozenset({"Z1", "Z2", "Y"})))
        tab = est.table(obs, {"X": 1})
        for env in iter_assignments(tab.names, tab.cards):
            assert est.evaluate(obs, {**env, "X": 1}) == pytest.approx(
                tab.pmf(env), abs=1e-12
            )

    def test_batch_marginals_come_from_the_access(self, fig4a, monkeypatch):
        # the rebased estimand of example 2 against a batch: every marginal of
        # the input is counted directly, the full joint is never built
        net = random_net_for(fig4a, seed=11)
        access = EmpiricalAccess(sample_observational(net, 3, 20_000), fig4a.cards)
        joint = access.table()
        x = {"W": 0, "R": 1, "X": 0}
        est = identify(CausalQuery(fig4a, x, frozenset({"Y"})))
        monkeypatch.setattr(EmpiricalAccess, "table", None)
        got = est.table(access, x)
        assert np.abs(got.probs - est.table(joint, x).probs).max() <= 1e-12

    def test_zero_conditioning_is_hard_error(self):
        # point mass on (A=0): conditioning on A=1 has zero mass
        t = PmfTable(("A", "B"), np.array([[0.5, 0.5], [0.0, 0.0]]))
        expr = ChainProduct(BaseDist(("A", "B")), ("B",), (("B", ("A",)),))
        with pytest.raises(ZeroConditioningEvent) as exc:
            full_table(expr, t, {"A": 1})
        assert exc.value.event == {"A": 1}
        with pytest.raises(ZeroConditioningEvent):
            evaluate(expr, t, {"A": 1, "B": 0})

    @pytest.mark.parametrize("value", [-1, 2])
    def test_fixed_values_outside_the_range_fail_by_name(self, fig3a, value):
        # -1 would read the X=1 table and 2 would fail inside numpy
        obs = exact_observational(random_net_for(fig3a, seed=7))
        est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        _plan.cache_clear()
        for _ in range(2):  # with an empty plan cache, then with a warm one
            with pytest.raises(ScopeMismatch, match="'X'"):
                est.table(obs, {"X": value})
            est.table(obs, {"X": 0})
        with pytest.raises(ScopeMismatch, match="'X'"):
            full_table(est.expr, obs, {"X": value})
        with pytest.raises(ScopeMismatch, match="'X'"):
            est.evaluate(obs, {"X": value, "Z1": 0, "Z2": 0, "Y": 0})
        with pytest.raises(ScopeMismatch, match="'Y'"):
            est.evaluate(obs, {"X": 0, "Z1": 0, "Z2": 0, "Y": value})

    def test_one_positivity_error_for_estimands_and_learner(self):
        from dolearn import learn

        assert ZeroConditioningEvent is PositivityViolation is learn.PositivityViolation


class TestRender:
    def test_example1_contains_golden_factors(self, fig3a):
        est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        text = est.render()
        assert "P[z1|x]" in text
        assert "P[y|x,z1,z2]" in text
        assert "Σ_x' P[x']P[z2|x',z1]" in text

    def test_base(self):
        assert render(BaseDist(("X",))) == "P[x]"

    def test_nested_marginals_merge(self):
        base = BaseDist(("A", "B", "C"))
        expr = Marginal(Marginal(base, frozenset({"A"})), frozenset({"B"}))
        text = render(expr)
        assert text.count("Σ") == 1
        assert "{a,b}" in text

    def test_latex_style(self, fig4a):
        est = identify(CausalQuery(fig4a, {"W": 0, "R": 0, "X": 1}, frozenset({"Y"})))
        text = est.render("latex")
        assert "\\sum_" in text and "\\mid" in text

    def test_distinct_trees_render_distinctly(self):
        base = BaseDist(("A", "B"))
        trees = [
            base,
            Marginal(base, frozenset({"A"})),
            Marginal(base, frozenset({"B"})),
            ChainProduct(base, ("B",), (("B", ("A",)),)),
            ChainProduct(base, ("B",), (("B", ()),)),
            Product((ChainProduct(base, ("B",), (("B", ()),)),
                     ChainProduct(base, ("A",), (("A", ()),)))),
        ]
        rendered = [render(t) for t in trees]
        assert len(set(rendered)) == len(rendered)


class TestStructure:
    def test_marginal_constructor_collapses(self):
        base = BaseDist(("A", "B"))
        assert marginal(base, ()) is base
        merged = marginal(marginal(base, {"A"}), {"B"})
        assert isinstance(merged, Marginal)
        assert merged.drop == {"A", "B"}
        assert isinstance(merged.child, BaseDist)

    def test_product_rejects_overlap(self):
        base = BaseDist(("A", "B"))
        child = ChainProduct(base, ("A",), (("A", ()),))
        with pytest.raises(ScopeMismatch):
            Product((child, child))

    def test_chain_depth_counts_nested_chains(self, fig3a, fig4a):
        assert chain_depth(BaseDist(("A",))) == 0
        one = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        two = identify(CausalQuery(fig4a, {"W": 0, "R": 0, "X": 0}, frozenset({"Y"})))
        assert chain_depth(one.expr) == 1
        assert chain_depth(two.expr) == 2

    def test_json_roundtrip(self, fig3a):
        est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        again = from_json_dict(to_json_dict(est.expr))
        assert again == est.expr


def test_soundness_on_random_identifiable_queries():
    """Estimand tables reproduce the brute-force interventional oracle."""
    import numpy as np

    from dolearn.identify import Estimand
    from dolearn.scm import random_admg

    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(40):
        g = random_admg(seed, n=int(rng.integers(3, 7)), n_bidirected=2)
        xi = int(rng.integers(0, g.n))
        x = {g.names[xi]: int(rng.integers(0, 2))}
        targets = frozenset(set(g.names) - set(x))
        if not targets:
            continue
        est = identify(CausalQuery(g, x, targets))
        if not isinstance(est, Estimand):
            continue
        net = random_net_for(g, seed=seed + 1000)
        obs = exact_observational(net)
        got = est.table(obs, x)
        oracle = exact_interventional(net, x)
        assert np.abs(got.aligned_to(oracle.names).probs - oracle.probs).max() < 1e-9
        checked += 1
    assert checked >= 20


AB = BaseDist(("A", "B"))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Marginal(AB, frozenset({"C"})), ScopeMismatch,
     "cannot drop ['C']: not in child scope"),
    (lambda: ChainProduct(AB, ("A", "A"), (("A", ()), ("A", ()))), ScopeMismatch,
     "duplicate variables in chain product"),
    (lambda: ChainProduct(AB, ("A", "B"), (("B", ()), ("A", ()))), ScopeMismatch,
     "conds must list exactly the chain variables in order"),
    (lambda: ChainProduct(AB, ("A",), (("A", ("C",)),)), ScopeMismatch,
     "chain factor 'A' references outside child scope"),
    (lambda: ChainProduct(AB, ("A", "B"), (("A", ("B",)), ("B", ()))), ScopeMismatch,
     "factor 'A' conditions on later chain variables"),
    (lambda: Product(()), ScopeMismatch, "empty product"),
    (lambda: render(AB, "html"), ValueError, "unknown render style 'html'"),
    (lambda: to_json_dict(DistExpr()), TypeError, "unknown expression node DistExpr"),
    (lambda: from_json_dict({"kind": "sum"}), ValueError, "unknown expression kind 'sum'"),
])
def test_named_expression_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_nested_chain_ratios_render_as_text():
    # a chain over another chain prints each factor as a ratio of sums of the
    # child, or as one sum where the factor conditions on nothing
    abcd = ("A", "B", "C", "D")
    inner = ChainProduct(BaseDist(abcd), abcd, (("A", ()), ("B", ()), ("C", ("A", "B")),
                                                ("D", ("A", "B", "C"))))
    outer = ChainProduct(inner, ("C", "D"), (("C", ("A",)), ("D", ("B",))))
    assert render(outer) == (
        "(Σ_{b',d'} P[a]P[b']P[c|a,b']P[d'|a,b',c])"
        "/(Σ_{b',c',d'} P[a]P[b']P[c'|a,b']P[d'|a,b',c'])"
        "(Σ_{a',c'} P[a']P[b]P[c'|a',b]P[d|a',b,c'])"
        "/(Σ_{a',c',d'} P[a']P[b]P[c'|a',b]P[d'|a',b,c'])"
    )
    first = ChainProduct(inner, ("A", "C"), (("A", ()), ("C", ("A",))))
    assert render(first) == (
        "(Σ_{b,c',d} P[a]P[b]P[c'|a,b]P[d|a,b,c'])"
        "(Σ_{b,d} P[a]P[b]P[c|a,b]P[d|a,b,c])"
        "/(Σ_{b,c',d} P[a]P[b]P[c'|a,b]P[d|a,b,c'])"
    )
    assert render(outer, "latex").count(r"\dfrac") == 2


def test_nan_mass_fails_the_table(fig3a):
    # a table cannot be built holding NaN, so the entry is set after construction
    obs = exact_observational(random_net_for(fig3a, seed=7))
    obs.probs[0, 0, 0, 0] = np.nan
    est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
    with pytest.raises(ValueError, match="^estimand table mass nan deviates from 1$"):
        est.table(obs, {"X": 0})
    with pytest.raises(ValueError, match="^negative or NaN probability mass$"):
        est.family_table(obs)


class TestPlanCache:
    def test_equal_trees_of_different_graphs_share_one_plan(self):
        # both graphs give P(B, C | do(A)) = P[b|a]P[c|a,b]
        graphs = [Admg.build(["A", "B", "C"], directed, [("B", "C")])
                  for directed in ([("A", "B")], [("A", "B"), ("B", "C")])]
        ests = [identify(CausalQuery(g, {"A": 0}, frozenset({"B", "C"}))) for g in graphs]
        assert ests[0].expr == ests[1].expr and ests[0].graph != ests[1].graph
        _plan.cache_clear()
        for g, est in zip(graphs, ests):
            net = random_net_for(g, seed=4)
            got = est.table(exact_observational(net), {"A": 1})
            want = exact_interventional(net, {"A": 1})
            assert np.abs(got.aligned_to(want.names).probs - want.probs).max() < 1e-12
        assert _plan.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_a_table_without_its_intervention_value_fails_by_name(self, fig3a):
        est = identify(CausalQuery(fig3a, {"X": 0}, frozenset({"Z1", "Z2", "Y"})))
        obs = exact_observational(random_net_for(fig3a, seed=7))
        with pytest.raises(ScopeMismatch) as exc:
            est.table(obs, {})
        assert str(exc.value) == "fixed values required for ['X']"
        # full_table leaves it as an axis instead
        assert full_table(est.expr, obs).names == obs.names

    def test_a_point_reuses_its_plan(self, fig4a):
        net = random_net_for(fig4a, seed=11)
        access = EmpiricalAccess(sample_observational(net, 3, 2_000), fig4a.cards)
        x = {"W": 0, "R": 1, "X": 0}
        est = identify(CausalQuery(fig4a, x, frozenset({"Y"})))
        _plan.cache_clear()
        first = est.evaluate(access, {**x, "Y": 1})
        assert _plan.cache_info()[:2] == (0, 1)
        assert est.evaluate(access, {**x, "Y": 1}) == first
        assert _plan.cache_info()[:2] == (1, 1)
        est.evaluate(access, {**x, "Y": 0})  # another point is another plan
        assert _plan.cache_info()[:2] == (1, 2)


class FractionAccess:
    """Exact marginals of a joint held as an object array of Fractions."""

    def __init__(self, names, probs):
        self.names, self.probs = tuple(names), probs
        self.cards = probs.shape

    def marginal_probs(self, keep):
        drop = tuple(i for i, n in enumerate(self.names) if n not in keep)
        return self.probs.sum(axis=drop) if drop else self.probs


@pytest.mark.parametrize("graph, x", [
    ("fig3a", {"X": 0}),  # a product of chains over the base
    ("fig4a", {"W": 0, "R": 1, "X": 0}),  # chains over a chain
])
def test_a_plan_over_fractions_stays_exact(graph, x, request):
    g = request.getfixturevalue(graph)
    weights = np.random.default_rng(5).integers(1, 50, size=g.cards)
    joint = np.vectorize(lambda w: Fraction(int(w), int(weights.sum())), otypes=[object])(weights)
    est = identify(CausalQuery(g, x, frozenset(g.names) - set(x)))
    names, run = _plan(est.expr, g.names, tuple(sorted(x.items())), False)
    exact = run(FractionAccess(g.names, joint))
    assert exact.dtype == object and {type(v) for v in exact.flat} == {Fraction}
    assert sum(exact.flat) == 1
    table = est.table(PmfTable(g.names, joint.astype(np.float64)), x)
    assert table.names == names
    assert np.abs(exact.astype(np.float64) - table.probs).max() < 1e-12
