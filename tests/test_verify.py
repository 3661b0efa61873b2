import dataclasses
import math

import numpy as np
import pytest

from dolearn.admg import Admg
from dolearn.identify import CausalQuery, identify
from dolearn.learn import fit_from_table
from dolearn.scm import (
    exact_interventional,
    exact_observational,
    random_admg,
    random_net_for,
    sample_observational,
)
from dolearn.tables import PmfTable, Samples, ScopeMismatch
from dolearn.verify import (
    GraphMismatch,
    InfiniteKL,
    VerifyReport,
    ZeroEvaluatorMass,
    compare_to_oracle,
    estimate_tv,
    exact_kl,
    exact_tv,
    family_error,
    sweep_graphs,
)


def bern(p):
    return PmfTable(("X",), np.array([1 - p, p]))


def table_sampler(table: PmfTable):
    flat = table.probs.reshape(-1)

    def draw(seed, m):
        rng = np.random.default_rng(seed)
        codes = rng.choice(flat.size, size=m, p=flat)
        values = np.stack(np.unravel_index(codes, table.probs.shape), axis=1)
        return Samples(table.names, values)

    return draw


class TestExactTv:
    def test_identical_zero(self):
        assert exact_tv(bern(0.3), bern(0.3)) == 0.0

    def test_disjoint_point_masses(self):
        assert exact_tv(bern(0.0), bern(1.0)) == 1.0

    def test_half_vs_quarter(self):
        assert exact_tv(bern(0.5), bern(0.25)) == pytest.approx(0.25)

    def test_scope_mismatch(self):
        with pytest.raises(ScopeMismatch):
            exact_tv(bern(0.5), PmfTable(("Y",), np.array([0.5, 0.5])))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            tables = [
                PmfTable(("X",), rng.dirichlet(np.ones(6)))
                for _ in range(3)
            ]
            a, b, c = tables
            assert exact_tv(a, b) == pytest.approx(exact_tv(b, a))
            assert exact_tv(a, c) <= exact_tv(a, b) + exact_tv(b, c) + 1e-12
            assert exact_tv(a, a) == 0.0


class TestExactKl:
    def test_identical_zero(self):
        assert exact_kl(bern(0.25), bern(0.25)) == 0.0

    def test_half_vs_quarter_value(self):
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert exact_kl(bern(0.5), bern(0.25)) == pytest.approx(expected, abs=1e-12)

    def test_pinsker_on_the_pair(self):
        tv = exact_tv(bern(0.5), bern(0.25))
        kl = exact_kl(bern(0.5), bern(0.25))
        assert tv <= math.sqrt(0.5 * kl)

    def test_support_violation(self):
        with pytest.raises(InfiniteKL):
            exact_kl(bern(0.5), bern(0.0))

    def test_zero_mass_convention(self):
        assert exact_kl(bern(0.0), bern(0.5)) == pytest.approx(math.log(2))


class TestEstimateTv:
    def test_equal_evaluators_give_zero(self):
        t = bern(0.3)
        est = estimate_tv(table_sampler(t), t.pmf, t.pmf, 0.05, 0.05, seed=1)
        assert est.value == 0.0
        assert est.samples_used == math.ceil(2 * 0.05**-2 * math.log(2 / 0.05))

    def test_disjoint_supports(self):
        p, q = bern(0.0), bern(1.0)
        est = estimate_tv(table_sampler(p), p.pmf, q.pmf, 0.05, 0.01, seed=2)
        assert est.value >= 1.0 - 0.05

    def test_bernoulli_pair_within_tolerance(self):
        p, q = bern(0.5), bern(0.25)
        est = estimate_tv(table_sampler(p), p.pmf, q.pmf, 0.02, 0.01, seed=3)
        assert abs(est.value - 0.25) <= 0.08

    def test_zero_evaluator_mass(self):
        p = bern(0.5)
        est_zero = lambda a: 0.0
        with pytest.raises(ZeroEvaluatorMass):
            estimate_tv(table_sampler(p), est_zero, p.pmf, 0.1, 0.1, seed=4)

    def test_each_evaluator_is_called_once_with_the_batch_columns(self):
        p, q = bern(0.5), bern(0.25)
        calls = []

        def counted(table):
            def pmf(cols):
                calls.append(cols)
                return table.pmf(cols)
            return pmf

        est = estimate_tv(table_sampler(p), counted(p), counted(q), 0.05, 0.05, seed=3)
        assert len(calls) == 2
        assert all(c["X"].shape == (est.samples_used,) for c in calls)
        batch = table_sampler(p)(3, est.samples_used)
        rows = (dict(zip(batch.names, map(int, row))) for row in batch.values)
        want = sum(max(0.0, 1.0 - q.pmf(a) / p.pmf(a)) for a in rows)
        assert est.value == pytest.approx(want / est.samples_used, abs=1e-12)

    def test_zero_evaluator_mass_names_the_first_zero_row(self):
        t = PmfTable(("A", "B"), np.full((2, 2), 0.25))
        draw = lambda seed, m: Samples(("A", "B"), [[0, 0], [1, 0], [0, 1], [1, 0]][:m])
        zero_at_a1 = lambda cols: np.where(cols["A"] == 1, 0.0, 0.25)
        with pytest.raises(ZeroEvaluatorMass, match=r"\{'A': 1, 'B': 0\}"):
            estimate_tv(draw, zero_at_a1, t.pmf, 1.0, 0.5, seed=0)

    def test_convergence_over_many_seeds(self):
        rng = np.random.default_rng(11)
        probs_a = rng.dirichlet(np.ones(10))
        probs_b = rng.dirichlet(np.ones(10))
        a = PmfTable(("X",), probs_a)
        b = PmfTable(("X",), probs_b)
        truth = exact_tv(a, b)
        eps = 0.04
        hits = sum(
            abs(estimate_tv(table_sampler(a), a.pmf, b.pmf, eps, 0.05, seed=s).value
                - truth) <= 4 * eps
            for s in range(100)
        )
        assert hits >= 99


class TestCompareToOracle:
    def test_plugin_tv_is_tiny(self):
        g = random_admg(23, 5, n_bidirected=1)
        net = random_net_for(g, seed=23)
        from dolearn.demo import random_identifiable_case

        g, x = random_identifiable_case(2, n=5)
        net = random_net_for(g, seed=2)
        li = fit_from_table(exact_observational(net), g, x)
        report = compare_to_oracle(li, net, x)
        assert report.tv <= 1e-9
        assert report.kl is None or report.kl <= 1e-9
        assert all(f.abs_error <= 1e-9 for f in report.factor_errors)

    def test_graph_mismatch(self, fig3a, fig4a):
        net3 = random_net_for(fig3a, seed=1)
        li = fit_from_table(exact_observational(net3), fig3a, {"X": 0})
        net4 = random_net_for(fig4a, seed=1)
        with pytest.raises(GraphMismatch):
            compare_to_oracle(li, net4, {"X": 0})

    def test_finite_sample_report(self, fig3a):
        net = random_net_for(fig3a, seed=7)
        batch = sample_observational(net, seed=8, m=100_000)
        from dolearn.learn import learn_interventional

        li = learn_interventional(batch, fig3a, {"X": 0})
        report = compare_to_oracle(li, net, {"X": 0})
        assert report.tv < 0.05
        assert report.m == 100_000
        worst = report.worst_factor()
        assert worst is not None and worst.abs_error < 0.05


class TestSoundnessSweep:
    def test_graph_numbers_name_fixed_edge_sets(self):
        # realization seeds are 100_000 * number + t, so a number must keep
        # naming the same graph
        def edges(g, kind):
            return {(g.names[a], g.names[b]) for a, b in getattr(g, kind)}

        graphs = dict(sweep_graphs())
        assert sorted(graphs) == list(range(1, 11_947))
        assert edges(graphs[1], "directed") == edges(graphs[1], "bidirected") == set()
        assert edges(graphs[23], "directed") == {("A", "B")}
        assert edges(graphs[23], "bidirected") == set()
        assert edges(graphs[11_946], "directed") == {
            ("B", "A"), ("C", "A"), ("C", "B"), ("D", "A"), ("D", "B"), ("D", "C")}
        assert edges(graphs[11_946], "bidirected") == {("B", "D"), ("C", "D")}

    def test_family_error_is_zero_on_the_truth_and_not_on_another_net(self):
        g = dict(sweep_graphs())[11_946]
        est = identify(CausalQuery(g, {"B": 0}, frozenset({"A", "C", "D"})))
        net = random_net_for(g, seed=1)
        assert family_error(est, net, exact_observational(net)) < 1e-12
        other = exact_observational(random_net_for(g, seed=2))
        assert family_error(est, net, other) > 1e-3


def test_compare_to_oracle_names_another_intervention_and_an_infinite_kl():
    g = Admg.build(["X", "Y"], [("X", "Y")])
    net = random_net_for(g, seed=5)
    li = fit_from_table(exact_observational(net), g, {"X": 0})
    with pytest.raises(GraphMismatch) as exc:
        compare_to_oracle(li, net, {"X": 1})
    assert str(exc.value) == "object was learned for {'X': 0}, queried with {'X': 1}"
    y = li.factors["Y"]
    never_one = dataclasses.replace(y, probs=np.tile([1.0, 0.0], (y.probs.shape[0], 1)))
    report = compare_to_oracle(dataclasses.replace(li, factors={"Y": never_one}), net, {"X": 0})
    assert report.kl is None  # the oracle puts mass on Y = 1
    assert report.tv == pytest.approx(exact_interventional(net, {"X": 0}).pmf({"Y": 1}))
    assert VerifyReport(tv=0.0, kl=0.0, x={}, m=None).worst_factor() is None
