import math

import numpy as np
import pytest

from dolearn.admg import Admg
from dolearn.learn import (
    ConditionalTable,
    LearnConfig,
    LearnedInterventional,
    PositivityViolation,
    _family_conditionals,
    assemble,
    evaluate_point,
    fit_from_table,
    learn_interventional,
    learn_q,
    learn_r,
    recommended_sample_size,
    relative_partition,
)
from dolearn.identify import CausalQuery, InvalidQuery, NotIdentifiable
from dolearn.scm import (
    check_strong_positivity,
    exact_interventional,
    exact_observational,
    random_net_for,
    sample_observational,
)
from dolearn.tables import PmfTable, Samples, ScopeMismatch, iter_assignments
from dolearn.verify import (
    InfiniteKL,
    compare_to_oracle,
    exact_kl,
    exact_tv,
    kl_decomposition_sides,
    tian_q_table,
)


def part_of(g, x_names):
    return relative_partition(g, g.indices(x_names))


def six_ternary_hedge_graph():
    """Under do(V0, V1) the fragment {V3, V5} is not identifiable: its
    recursion rebases at step 5c and only then meets a hedge."""
    return Admg.build(
        [(f"V{i}", 3) for i in range(6)],
        [("V0", "V1"), ("V0", "V5"), ("V1", "V3"), ("V2", "V3"), ("V3", "V4")],
        [("V0", "V3"), ("V1", "V4"), ("V3", "V5")],
    )


def five_ternary_hedge_graph():
    """Under do(V0, V1) the fragments are {V3}, identifiable, then {V2}, not
    identifiable (V1 -> V2 with V1 <-> V2)."""
    return Admg.build(
        [(f"V{i}", 3) for i in range(5)],
        [("V0", "V1"), ("V0", "V2"), ("V1", "V2"), ("V1", "V3")],
        [("V0", "V3"), ("V1", "V2")],
    )


class TestRelativePartition:
    def test_fig3a(self, fig3a):
        part = part_of(fig3a, {"X"})
        assert part.ell == 1
        comps = [set(fig3a.names_of(c)) for c in part.components]
        assert comps == [{"X", "Z2"}, {"Z1", "Y"}]
        assert set(fig3a.names_of(part.c_low)) == {"X", "Z2"}
        assert set(fig3a.names_of(part.c_high)) == {"Z1", "Y"}
        assert [(k, set(fig3a.names_of(c))) for k, c in part.sub_components] == [
            ((0, 0), {"Z2"})
        ]

    def test_fig4a_both_components_touched(self, fig4a):
        part = part_of(fig4a, {"W", "R", "X"})
        assert part.ell == 2
        assert part.c_high == frozenset()
        assert [(k, set(fig4a.names_of(c))) for k, c in part.sub_components] == [
            ((0, 0), {"Y"})
        ]

    def test_empty_intervention(self, fig3a):
        part = part_of(fig3a, set())
        assert part.ell == 0
        assert part.c_low == frozenset()
        assert part.sub_components == ()


class TestLearnQ:
    def test_add1_arithmetic(self):
        g = Admg.build(["A", "B"], [("A", "B")])
        # three samples with (A=0,B=0), one with (A=0,B=1)
        samples = Samples(("A", "B"), np.array([[0, 0], [0, 0], [0, 0], [0, 1]]))
        q = learn_q(samples, g, part_of(g, set()))
        assert np.allclose(q["B"].probs[0], [4 / 6, 2 / 6])

    def test_unseen_configuration_uniform(self):
        g = Admg.build(["A", "B"], [("A", "B")])
        samples = Samples(("A", "B"), np.array([[0, 0]]))
        q = learn_q(samples, g, part_of(g, set()))
        assert np.allclose(q["B"].probs[1], [0.5, 0.5])

    def test_rows_converge_to_truth(self, fig3a):
        net = random_net_for(fig3a, seed=5)
        obs = exact_observational(net)
        samples = sample_observational(net, seed=6, m=100_000)
        part = part_of(fig3a, {"X"})
        q = learn_q(samples, fig3a, part)
        for name, f in q.items():
            joint = obs.marginal_to(set(f.cond) | {name})
            marg = obs.marginal_to(set(f.cond))
            for row_idx in range(f.probs.shape[0]):
                env = {}
                rem = row_idx
                for c, card in zip(f.cond, f.cond_cards):
                    stride = int(np.prod(f.cond_cards[f.cond.index(c) + 1:]))
                    env[c] = (row_idx // stride) % card
                mass = marg.pmf(env) if f.cond else 1.0
                if mass < 0.05:
                    continue
                true_row = [joint.pmf(env | {name: s}) / mass for s in range(f.target_card)]
                assert np.abs(f.probs[row_idx] - true_row).max() < 0.02


class TestFamilyConditionals:
    """The chain rule that splits a fragment table into conditional rows."""

    def test_zero_mass_row_is_uniform_and_the_others_exact_ratios(self):
        g = Admg.build(["C", "A", "B"], [("C", "A"), ("A", "B")])
        arr = np.array([[[0.3, 0.7], [0.0, 0.0]],   # C = 0: A = 1 has no mass
                        [[0.1, 0.2], [0.3, 0.4]]])  # C = 1
        table = PmfTable(("C", "A", "B"), arr, normalized=False)
        rows = _family_conditionals(table, ["A", "B"], g)
        assert (rows["A"].cond, rows["B"].cond) == (("C",), ("C", "A"))
        a_given_c = arr.sum(axis=2)
        assert np.array_equal(rows["A"].probs, a_given_c / a_given_c.sum(axis=1, keepdims=True))
        b = rows["B"].probs
        assert np.array_equal(b[1], [0.5, 0.5])
        for k, row in ((0, arr[0, 0]), (2, arr[1, 0]), (3, arr[1, 1])):
            assert np.array_equal(b[k], row / row.sum())
        assert {f.kind for f in rows.values()} == {"fragment"}

    def test_variation_with_later_context_names_both_variables(self):
        g = Admg.build(["A", "B", "D"], [("A", "B")])
        arr = np.full((2, 2, 2), 0.5)
        arr[1, :, 1] = [0.2, 0.8]  # P(B | A = 1) changes with D, which comes after B
        table = PmfTable(("A", "B", "D"), arr, normalized=False)
        with pytest.raises(ValueError, match="'B' varies with later context 'D'"):
            _family_conditionals(table, ["B"], g)


class TestLearnR:
    def test_example1_fragment_table_exact(self, fig3a):
        net = random_net_for(fig3a, seed=7)
        obs = exact_observational(net)
        part = part_of(fig3a, {"X"})
        fam, depth = learn_r(obs, fig3a, part, {"X": 0})[(0, 0)]
        # the fragment variable Z2 carries the mass; Z1 is a context axis
        assert set(fam.names) == {"Z2", "Z1"}
        assert np.allclose(fam.marginal_to({"Z1"}).probs, 1.0)
        assert depth == 1
        # hand construction: sum_x P(x) P(z2 | x, z1), one row per z1
        px = obs.marginal_to({"X"})
        pj = obs.marginal_to({"X", "Z1", "Z2"})
        pz = obs.marginal_to({"X", "Z1"})
        for z1 in range(2):
            for z2 in range(2):
                hand = sum(
                    px.pmf({"X": x}) * pj.pmf({"X": x, "Z1": z1, "Z2": z2})
                    / pz.pmf({"X": x, "Z1": z1})
                    for x in range(2)
                )
                assert fam.pmf({"Z1": z1, "Z2": z2}) == pytest.approx(hand, abs=1e-12)

    def test_example1_fragment_from_samples(self, fig3a):
        net = random_net_for(fig3a, seed=7)
        part = part_of(fig3a, {"X"})
        samples = sample_observational(net, seed=8, m=200_000)
        fam, _ = learn_r(samples, fig3a, part, {"X": 0})[(0, 0)]
        exact, _ = learn_r(exact_observational(net), fig3a, part, {"X": 0})[(0, 0)]
        assert np.abs(fam.aligned_to(exact.names).probs - exact.probs).max() < 0.02

    def test_example2_single_rebased_table(self, fig4a):
        net = random_net_for(fig4a, seed=11)
        obs = exact_observational(net)
        part = part_of(fig4a, {"W", "R", "X"})
        x = {"W": 0, "R": 1, "X": 0}
        fam, depth = learn_r(obs, fig4a, part, x)[(0, 0)]
        assert fam.names == ("Y",)
        assert fam.context == {"R": 1, "X": 0}
        assert depth == 2
        # the leaf is the rebased conditional at the queried intervention
        def term(w, yy):
            pw = obs.marginal_to({"W"}).pmf({"W": w})
            px = obs.marginal_to({"W", "R", "X"}).pmf({"W": w, "R": 1, "X": 0}) \
                / obs.marginal_to({"W", "R"}).pmf({"W": w, "R": 1})
            py = obs.pmf({"W": w, "R": 1, "X": 0, "Y": yy}) \
                / obs.marginal_to({"W", "R", "X"}).pmf({"W": w, "R": 1, "X": 0})
            return pw * px * py
        for y in range(2):
            num = sum(term(w, y) for w in range(2))
            den = sum(term(w, yy) for w in range(2) for yy in range(2))
            assert fam.pmf({"Y": y}) == pytest.approx(num / den, abs=1e-12)

    def test_empty_intervention_no_fragments(self, fig3a):
        net = random_net_for(fig3a, seed=9)
        samples = sample_observational(net, seed=10, m=100)
        assert learn_r(samples, fig3a, part_of(fig3a, set()), {}) == {}

    def test_not_identifiable_raises(self, bow):
        net = random_net_for(bow, seed=1)
        samples = sample_observational(net, seed=2, m=100)
        with pytest.raises(NotIdentifiable):
            learn_r(samples, bow, part_of(bow, {"X"}), {"X": 0})

    @pytest.mark.parametrize("m", [0, 50, 200_000])
    @pytest.mark.parametrize("case", [
        # small batches leave events of the fragment's own step-5c rebase empty
        (six_ternary_hedge_graph, 1053, 60, {"V0": 1, "V1": 0}, {"V3", "V5"}),
        # small batches leave events of an earlier, identifiable fragment {V3}
        # empty; the later fragment {V2} is not identifiable
        (five_ternary_hedge_graph, 151672821, 151672822, {"V0": 0, "V1": 1}, {"V2"}),
    ])
    def test_not_identifiable_beats_positivity(self, case, m):
        # every fragment is identified on the graph before anything is counted
        make_graph, net_seed, batch_seed, x, root_set = case
        g = make_graph()
        batch = sample_observational(random_net_for(g, net_seed), batch_seed, m)
        with pytest.raises(NotIdentifiable) as exc:
            learn_interventional(batch, g, x)
        witness = exc.value.witness
        assert witness.root_set == root_set
        assert witness.trace and witness.trace[-1].step == "step5a"

    def test_batch_column_order_and_extra_columns_do_not_matter(self, fig4a):
        net = random_net_for(fig4a, seed=11)
        batch = sample_observational(net, seed=12, m=5_000)
        noise = np.arange(batch.m)[:, None] % 5
        shuffled = Samples(("Y", "Extra") + batch.names[:-1],
                           np.hstack([batch.values[:, -1:], noise, batch.values[:, :-1]]))
        part = part_of(fig4a, {"W", "R", "X"})
        x = {"W": 0, "R": 1, "X": 0}
        want, _ = learn_r(batch, fig4a, part, x)[(0, 0)]
        got, _ = learn_r(shuffled, fig4a, part, x)[(0, 0)]
        assert got.names == want.names
        assert np.array_equal(got.probs, want.probs)

    def test_zero_count_conditioning_is_positivity_violation(self, fig3a):
        net = random_net_for(fig3a, seed=3)
        samples = sample_observational(net, seed=4, m=2)
        part = part_of(fig3a, {"X"})
        with pytest.raises(PositivityViolation) as exc:
            learn_r(samples, fig3a, part, {"X": 0})
        assert exc.value.event  # carries the offending configuration


class TestAssembleAndEvaluate:
    def test_empty_intervention_is_plain_bayes_net(self, fig3a):
        net = random_net_for(fig3a, seed=5)
        samples = sample_observational(net, seed=6, m=50_000)
        li = learn_interventional(samples, fig3a, {})
        assert set(li.order) == set(fig3a.names)
        assert all(f.kind == "add1" for f in li.factors.values())
        obs = exact_observational(net)
        assert exact_tv(li.table().aligned_to(obs.names), obs) < 0.05

    def test_example1_factor_structure(self, fig3a):
        net = random_net_for(fig3a, seed=5)
        samples = sample_observational(net, seed=6, m=50_000)
        li = learn_interventional(samples, fig3a, {"X": 1})
        assert li.order == ("Z1", "Z2", "Y")
        assert li.factors["Z1"].cond == ("X",)
        assert li.factors["Y"].cond == ("X", "Z1", "Z2")
        assert li.factors["Z2"].cond == ("Z1",)
        assert li.factors["Z2"].kind == "fragment"

    def test_total_mass_is_one(self, fig3a, fig4a):
        for g, x, seed in [
            (fig3a, {"X": 0}, 5),
            (fig4a, {"W": 1, "R": 0, "X": 1}, 11),
        ]:
            net = random_net_for(g, seed=seed)
            samples = sample_observational(net, seed=seed + 1, m=20_000)
            li = learn_interventional(samples, g, x)
            assert abs(li.table().total - 1.0) < 1e-9

    def test_deterministic_object(self):
        g = Admg.build(["X", "Y"], [("X", "Y")])
        forced = ConditionalTable("Y", 2, ("X",), (2,),
                                  np.array([[1.0, 0.0], [0.0, 1.0]]))
        li = LearnedInterventional(g, {"X": 1}, ("Y",), {"Y": forced})
        assert evaluate_point(li, {"Y": 1}) == 1.0
        assert evaluate_point(li, {"Y": 0}) == 0.0

    def test_scope_mismatch(self, fig3a):
        net = random_net_for(fig3a, seed=5)
        samples = sample_observational(net, seed=6, m=1_000)
        li = learn_interventional(samples, fig3a, {"X": 1})
        with pytest.raises(ScopeMismatch):
            evaluate_point(li, {"Z1": 0})

    @pytest.mark.parametrize("bad", [
        {"Z1": -1, "Z2": 0, "Y": 1},
        {"Z1": 0, "Z2": 0, "Y": 2},
        {"Z1": 0, "Z2": np.array([0, 1, 2]), "Y": 0},
    ])
    def test_out_of_range_symbols_never_alias(self, fig3a, bad):
        net = random_net_for(fig3a, seed=5)
        li = learn_interventional(sample_observational(net, seed=6, m=1_000), fig3a, {"X": 1})
        with pytest.raises(ScopeMismatch, match="not a symbol in"):
            evaluate_point(li, bad)

    def test_factor_order_validation(self):
        g = Admg.build(["X", "Y"], [("X", "Y")])
        backwards = ConditionalTable("X", 2, ("Y",), (2,),
                                     np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ScopeMismatch):
            LearnedInterventional(g, {}, ("X", "Y"), {
                "X": backwards,
                "Y": ConditionalTable("Y", 2, (), (), np.array([[0.5, 0.5]])),
            })

    def test_plugin_consistency(self, fig3a, fig4a):
        for g, x, seed in [
            (fig3a, {"X": 0}, 7),
            (fig3a, {"X": 1}, 7),
            (fig4a, {"W": 1, "R": 0, "X": 1}, 11),
        ]:
            net = random_net_for(g, seed=seed)
            li = fit_from_table(exact_observational(net), g, x)
            report = compare_to_oracle(li, net, x)
            assert report.tv <= 1e-9


class TestInterventionRange:
    @pytest.mark.parametrize("value", [-1, 2, 5])
    def test_out_of_range_intervention_is_invalid_query(self, value):
        # X is alone in its component, so no fragment query ever reads its value
        g = Admg.build(["X", "Z", "Y"], [("X", "Z"), ("Z", "Y")], [("Z", "Y")])
        net = random_net_for(g, seed=3)
        with pytest.raises(InvalidQuery, match="out of range for 'X'"):
            learn_interventional(sample_observational(net, seed=4, m=500), g, {"X": value})
        with pytest.raises(InvalidQuery, match="out of range for 'X'"):
            fit_from_table(exact_observational(net), g, {"X": value})

    @pytest.mark.parametrize("value", [1.5, 1.0, True, np.float64(1)])
    def test_non_integer_intervention_is_invalid_query(self, fig3a, value):
        net = random_net_for(fig3a, seed=3)
        rest = frozenset(fig3a.names) - {"X"}
        with pytest.raises(InvalidQuery, match="'X' is not an integer symbol"):
            CausalQuery(fig3a, {"X": value}, rest)
        with pytest.raises(InvalidQuery, match="'X' is not an integer symbol"):
            learn_interventional(sample_observational(net, seed=4, m=500), fig3a, {"X": value})
        li = fit_from_table(exact_observational(net), fig3a, {"X": 1})
        with pytest.raises(InvalidQuery, match="'X' is not an integer symbol"):
            LearnedInterventional(li.graph, {"X": value}, li.order, li.factors)

    def test_numpy_integer_intervention_is_a_symbol(self, fig3a):
        net = random_net_for(fig3a, seed=3)
        a = fit_from_table(exact_observational(net), fig3a, {"X": np.int64(1)})
        b = fit_from_table(exact_observational(net), fig3a, {"X": 1})
        assert np.array_equal(a.table().probs, b.table().probs)


class TestTableCardinalities:
    """A factor takes its cardinalities from the rows it forms, so a table
    that disagrees with the graph fails by name instead of aliasing rows."""

    def test_bayes_net_factor_of_a_mismatched_table(self):
        g = Admg.build(["C", "D", "B"], [("C", "B"), ("D", "B")])
        probs = np.random.default_rng(0).dirichlet(np.ones(8)).reshape(4, 1, 2)
        with pytest.raises(ScopeMismatch, match=r"factor 'B' declares cardinalities \(2, 4, 1\)"):
            fit_from_table(PmfTable(("C", "D", "B"), probs), g, {"C": 1, "D": 1})

    def test_fragment_factor_of_a_mismatched_table(self):
        g = Admg.build(["X", "M", "Y"], [("X", "M"), ("M", "Y")], [("X", "Y")])
        probs = np.random.default_rng(1).dirichlet(np.ones(12)).reshape(2, 2, 3)
        with pytest.raises(ScopeMismatch, match=r"factor 'Y' declares cardinalities \(3, 2\)"):
            fit_from_table(PmfTable(("X", "M", "Y"), probs), g, {"X": 0})


class TestBoundaryTables:
    """Inside the learner and the oracle check a marginal is a bare array; a
    validated table is built only where one leaves the library."""

    @pytest.mark.parametrize("x", [{}, {"X": 0}])
    def test_a_table_without_a_graph_variable_is_named(self, fig3a, monkeypatch, x):
        obs = exact_observational(random_net_for(fig3a, seed=3)).marginal_to(["X", "Z1", "Y"])
        monkeypatch.setattr("dolearn.learn.conditional",
                            lambda *args, **kwargs: pytest.fail("a row was formed"))
        with pytest.raises(ScopeMismatch, match="'Z2'"):
            fit_from_table(obs, fig3a, x)

    @pytest.mark.parametrize("graph, x", [("fig3a", {"X": 0}),
                                          ("fig4a", {"W": 0, "R": 0, "X": 1})])
    def test_tables_built_to_learn_and_check(self, request, monkeypatch, graph, x):
        g = request.getfixturevalue(graph)
        net = random_net_for(g, seed=7)
        batch = sample_observational(net, seed=8, m=20_000)
        obs = exact_observational(net)
        fragments = len(part_of(g, x).sub_components)
        built = []
        post_init = PmfTable.__post_init__
        monkeypatch.setattr(PmfTable, "__post_init__",
                            lambda self: built.append(self.names) or post_init(self))
        for learn in (lambda: learn_interventional(batch, g, x), lambda: fit_from_table(obs, g, x)):
            built.clear()
            li = learn()
            assert len(built) == fragments == 1  # each fragment's table from full_table
            built.clear()
            compare_to_oracle(li, net, x)
            assert len(built) == 3  # the oracle, the learned table and its alignment


class TestStructuralIdentities:
    @pytest.mark.parametrize("fix, error", [
        ({"X": -1, "Z2": 0}, "not a symbol in"),
        ({"X": 0, "Z2": 2}, "not a symbol in"),
        ({"X": 0}, "lacks value for 'Z2'"),
    ])
    def test_bad_fix_is_a_scope_mismatch(self, fig3a, fix, error):
        obs = exact_observational(random_net_for(fig3a, seed=3))
        part = part_of(fig3a, {"X"})
        with pytest.raises(ScopeMismatch, match=error):
            tian_q_table(obs, fig3a, part, fix)
        with pytest.raises(ScopeMismatch, match=error):
            kl_decomposition_sides(obs, fig3a, part, learn_q(obs, fig3a, part), fix)

    def test_direct_kl_is_infinite_off_the_learned_support(self, fig3a):
        obs = exact_observational(random_net_for(fig3a, seed=3))
        part = part_of(fig3a, {"X"})
        q_factors = learn_q(obs, fig3a, part)
        y = q_factors["Y"]
        rows = np.zeros_like(y.probs)
        rows[:, 0] = 1.0
        q_factors["Y"] = ConditionalTable("Y", y.target_card, y.cond, y.cond_cards, rows)
        with pytest.raises(InfiniteKL):
            kl_decomposition_sides(obs, fig3a, part, q_factors, {"X": 0, "Z2": 0})

    def test_ratio_sandwich(self, fig3a):
        net = random_net_for(fig3a, seed=13)
        obs = exact_observational(net)
        part = part_of(fig3a, {"X"})
        low_comps = [list(fig3a.names_of(c)) for c in part.components[: part.ell]]
        _, reports = check_strong_positivity(net, low_comps, alpha=0.0)
        alpha = min(r.min_probability for r in reports)
        assert alpha > 0
        bound = alpha ** len(part.c_low)
        low = sorted(fig3a.names_of(part.c_low))
        for fix in iter_assignments(low, [fig3a.cards[fig3a.index(n)] for n in low]):
            q = tian_q_table(obs, fig3a, part, fix)
            ratio = obs.probs[tuple(fix.get(n, slice(None)) for n in obs.names)] / q.probs
            assert np.all((bound - 1e-9 <= ratio) & (ratio <= 1.0 + 1e-9))

    def test_tian_q_value_follows_an_in_place_edit_of_the_table(self, fig3a):
        obs = exact_observational(random_net_for(fig3a, seed=3))
        part = part_of(fig3a, {"X"})
        fix = {"X": 0, "Z2": 0}
        point = {"Z1": 1, "Y": 1}
        before = tian_q_table(obs, fig3a, part, fix)
        flat = obs.probs.reshape(-1)
        flat[:] = flat[::-1].copy()
        fresh = PmfTable(obs.names, obs.probs.copy())
        after = tian_q_table(obs, fig3a, part, fix)
        assert np.array_equal(after.probs, tian_q_table(fresh, fig3a, part, fix).probs)
        assert after.pmf(point) != pytest.approx(before.pmf(point))

    def test_kl_decomposition_identity(self, fig3a):
        net = random_net_for(fig3a, seed=17)
        obs = exact_observational(net)
        part = part_of(fig3a, {"X"})
        samples = sample_observational(net, seed=18, m=5_000)
        q_factors = learn_q(samples, fig3a, part)
        low_names = sorted(fig3a.names_of(part.c_low))
        cards = [fig3a.cards[fig3a.index(n)] for n in low_names]
        for fix in iter_assignments(low_names, cards):
            direct, decomposed = kl_decomposition_sides(obs, fig3a, part, q_factors, fix)
            assert direct == pytest.approx(decomposed, abs=1e-9)

    def test_pinsker_consistency(self, fig3a):
        net = random_net_for(fig3a, seed=19)
        obs = exact_observational(net)
        part = part_of(fig3a, {"X"})
        samples = sample_observational(net, seed=20, m=2_000)
        q_factors = learn_q(samples, fig3a, part)
        for fix in ({"X": 0, "Z2": 0}, {"X": 1, "Z2": 1}):
            q = tian_q_table(obs, fig3a, part, fix)
            q_hat = tian_q_table(obs, fig3a, part, fix, q_factors)
            q = PmfTable(q.names, q.probs, normalized=False)
            tv = exact_tv(q, q_hat)
            kl = exact_kl(q, q_hat)
            assert tv <= math.sqrt(0.5 * kl) + 1e-12


class TestStatisticalBehaviour:
    def test_no_positivity_violation_with_enough_samples(self, fig3a):
        # high floor makes the worst component event heavy, so the sample bound
        # is affordable; the learner must then never hit a zero count
        for seed in (0, 1, 2):
            net = random_net_for(fig3a, seed=seed, gamma=0.45)
            part = part_of(fig3a, {"X"})
            low = [list(fig3a.names_of(c)) for c in part.components[: part.ell]]
            _, reports = check_strong_positivity(net, low, alpha=0.0)
            alpha = min(r.min_probability for r in reports)
            m = int(math.ceil(100.0 / alpha**2))
            samples = sample_observational(net, seed=seed + 50, m=m)
            learn_r(samples, fig3a, part, {"X": 0})  # must not raise

    def test_monotone_convergence(self):
        from dolearn.demo import random_identifiable_case

        for seed in (3, 4):
            g, x = random_identifiable_case(seed, n=5)
            net = random_net_for(g, seed=seed + 100)
            tvs = {}
            for m in (10_000, 1_000_000):
                runs = []
                for rep in range(5):
                    samples = sample_observational(net, seed=1000 * seed + rep, m=m)
                    li = learn_interventional(samples, g, x)
                    runs.append(compare_to_oracle(li, net, x).tv)
                tvs[m] = sorted(runs)[2]
            assert tvs[1_000_000] < tvs[10_000]


class TestDualRoute:
    def test_table_fit_matches_symbolic_estimand(self):
        """The table fit (per-fragment estimands chain-ruled into rows, times
        the exact Bayes-net conditionals) must agree exactly with the estimand
        of the whole query on the same input table."""
        from dolearn.demo import random_identifiable_case
        from dolearn.identify import CausalQuery, identify

        for seed in (51, 52, 53, 54):
            g, x = random_identifiable_case(seed, n=5)
            net = random_net_for(g, seed=seed + 500)
            obs = exact_observational(net)
            est = identify(CausalQuery(g, x, frozenset(set(g.names) - set(x))))
            symbolic = est.table(obs, x)
            learned = fit_from_table(obs, g, x).table()
            aligned = learned.aligned_to(symbolic.names)
            assert np.abs(aligned.probs - symbolic.probs).max() < 1e-12

    def test_fragment_recursion_handles_component_splits(self):
        """A target set that is bidirected-disconnected splits into separate
        chain estimates whose product is the joint."""
        from dolearn.estimand import full_table
        from dolearn.identify import CausalQuery, identify
        from dolearn.tables import EmpiricalAccess

        g = Admg.build(["X", "A", "B"], [("X", "A"), ("X", "B")])
        net = random_net_for(g, seed=61)
        samples = sample_observational(net, seed=62, m=200_000)
        # the fragment query the learner compiles, materialized as it does
        est = identify(CausalQuery(g, {"X": 1}, frozenset({"A", "B"})))
        assert est.trace[0].step == "step4"
        fam = full_table(est.expr, EmpiricalAccess(samples, g.cards), {"X": 1})
        assert set(fam.names) == {"A", "B"}
        assert fam.context == {"X": 1}
        oracle = exact_interventional(net, {"X": 1})
        for env in iter_assignments(oracle.names, oracle.cards):
            assert fam.pmf(env) == pytest.approx(oracle.pmf(env), abs=0.01)


class TestInterleavedContext:
    def test_fragment_reference_between_its_variables(self):
        """A fragment over {A, C} whose second factor references B, with B
        between A and C in the order: the assembled factor for A must not
        condition on the later B, while C conditions on both."""
        g = Admg.build(
            ["X", "A", "B", "C"],
            [("A", "B"), ("B", "C")],
            [("X", "A"), ("A", "C")],
        )
        part = relative_partition(g, g.indices({"X"}))
        assert [(k, set(g.names_of(c))) for k, c in part.sub_components] == [
            ((0, 0), {"A", "C"})
        ]
        net = random_net_for(g, seed=3)
        obs = exact_observational(net)
        fam, _ = learn_r(obs, g, part, {"X": 1})[(0, 0)]
        # A and C carry the mass; B is a context axis
        assert set(fam.names) == {"A", "C"} | {"B"}
        assert np.allclose(fam.marginal_to({"B"}).probs, 1.0)

        li0 = fit_from_table(obs, g, {"X": 1})
        assert li0.factors["A"].cond == ()
        assert li0.factors["C"].cond == ("A", "B")
        assert compare_to_oracle(li0, net, {"X": 1}).tv <= 1e-9

        batch = sample_observational(net, seed=4, m=300_000)
        li = learn_interventional(batch, g, {"X": 1})
        assert compare_to_oracle(li, net, {"X": 1}).tv < 0.05


class TestMixedCardinalities:
    def test_pipeline_with_ternary_variables(self):
        # the golden two-component graph, with two variables made ternary
        g = Admg.build(
            [("X", 3), ("Z1", 2), ("Z2", 3), ("Y", 2)],
            [("X", "Z1"), ("X", "Y"), ("Z1", "Z2"), ("Z1", "Y"), ("Z2", "Y")],
            [("X", "Z2"), ("Z1", "Y")],
        )
        net = random_net_for(g, seed=41)
        x = {"X": 2}
        li0 = fit_from_table(exact_observational(net), g, x)
        assert compare_to_oracle(li0, net, x).tv <= 1e-9
        batch = sample_observational(net, seed=42, m=200_000)
        li = learn_interventional(batch, g, x)
        report = compare_to_oracle(li, net, x)
        assert report.tv < 0.05
        assert abs(li.table().total - 1.0) < 1e-9


class TestGoldenConvergence:
    def test_example1_large_budget(self, fig3a):
        net = random_net_for(fig3a, seed=7)
        batch = sample_observational(net, seed=77, m=1_000_000)
        li = learn_interventional(batch, fig3a, {"X": 0})
        assert compare_to_oracle(li, net, {"X": 0}).tv <= 0.05
        assert li.metadata["fragment_rebase_depths"] == {"(0, 0)": 1}


BAD_TARGETS = [
    {"epsilon": 0.0}, {"epsilon": -1.0}, {"epsilon": 1.5},
    {"delta": 0.0}, {"delta": 1.0}, {"alpha": 0.0}, {"alpha": 1.01},
    {"epsilon": float("nan")},
]


class TestBudget:
    def test_budget_monotone_in_epsilon(self, fig3a):
        xset = fig3a.indices({"X"})
        loose, _ = recommended_sample_size(fig3a, xset, 0.2, 0.1, 0.1)
        tight, _ = recommended_sample_size(fig3a, xset, 0.05, 0.1, 0.1)
        assert 0 < loose < tight

    @pytest.mark.parametrize("targets", BAD_TARGETS)
    def test_config_rejects_out_of_range_targets(self, targets):
        name = next(iter(targets))
        with pytest.raises(ValueError, match=name):
            LearnConfig(**targets)

    @pytest.mark.parametrize("targets", BAD_TARGETS)
    def test_budget_rejects_out_of_range_targets(self, fig3a, targets):
        name = next(iter(targets))
        with pytest.raises(ValueError, match=f"^{name} must be in"):
            recommended_sample_size(fig3a, fig3a.indices({"X"}),
                                    **{"epsilon": 0.1, "delta": 0.1, "alpha": 0.1, **targets})

    def test_config_accepts_range_ends(self):
        assert LearnConfig(epsilon=1.0, delta=0.5, alpha=1.0).alpha == 1.0

    def test_budget_details(self, fig3a):
        m, detail = recommended_sample_size(fig3a, fig3a.indices({"X"}), 0.1, 0.1, 0.1)
        assert m >= max(detail["m_q"], detail["m_r"]) - 1
        assert detail["eps_r"] < detail["eps_q"]


@pytest.mark.parametrize("counts", [
    [[-5, 1e9, 3]],  # a shape other than the rows'
    [[1.0, 2.0, 3.0, 4.0]],  # as many counts as entries, in another shape
    [[1.0, -1.0], [2.0, 2.0]],
    [[1.0, np.nan], [2.0, 2.0]],
])
def test_counts_must_match_the_rows_and_be_non_negative(counts):
    rows = np.full((2, 2), 0.5)
    with pytest.raises(ScopeMismatch) as exc:
        ConditionalTable("Z", 2, ("A",), (2,), rows, counts=counts)
    assert str(exc.value) == "Z: counts must be 2 rows of 2 non-negative numbers"
    kept = ConditionalTable("Z", 2, ("A",), (2,), rows, counts=[[0, 3], [1, 1]])
    assert kept.counts.dtype == np.float64 and kept.counts.tolist() == [[0, 3], [1, 1]]
