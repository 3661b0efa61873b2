import numpy as np
import pytest

from dolearn.admg import Admg
from dolearn.generate import sample, sample_marginal
from dolearn.learn import ConditionalTable, LearnedInterventional, learn_interventional
from dolearn.scm import random_net_for, sample_observational
from dolearn.tables import PmfTable, iter_assignments, row_product
from dolearn.verify import exact_tv


def deterministic_li():
    g = Admg.build(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    fy = ConditionalTable("Y", 2, ("X",), (2,), np.array([[1.0, 0.0], [0.0, 1.0]]))
    fz = ConditionalTable("Z", 2, ("Y",), (2,), np.array([[0.0, 1.0], [1.0, 0.0]]))
    return LearnedInterventional(g, {"X": 1}, ("Y", "Z"), {"Y": fy, "Z": fz})


@pytest.fixture(scope="module")
def learned_example1():
    from dolearn.demo import fig3a_graph

    g = fig3a_graph()
    net = random_net_for(g, seed=7)
    batch = sample_observational(net, seed=8, m=100_000)
    return learn_interventional(batch, g, {"X": 0})


def empirical_table(batch, li):
    counts = batch.counts_over(li.order, li.cards())
    return PmfTable(li.order, counts / batch.m, normalized=False)


class TestSample:
    def test_deterministic_constant(self):
        li = deterministic_li()
        s = sample(li, seed=0, m=25)
        assert (s.values[:, s.names.index("Y")] == 1).all()
        assert (s.values[:, s.names.index("Z")] == 0).all()

    def test_seed_determinism(self, learned_example1):
        a = sample(learned_example1, seed=5, m=1000)
        b = sample(learned_example1, seed=5, m=1000)
        assert (a.values == b.values).all()
        c = sample(learned_example1, seed=6, m=1000)
        assert not (a.values == c.values).all()

    def test_matches_evaluator_distribution(self, learned_example1):
        li = learned_example1
        batch = sample(li, seed=13, m=1_000_000)
        emp = empirical_table(batch, li)
        model = li.table()
        assert exact_tv(emp, PmfTable(model.names, model.probs, normalized=False)) <= 0.01

    def test_frequency_confidence_band(self, learned_example1):
        li = learned_example1
        m = 200_000
        batch = sample(li, seed=3, m=m)
        emp = empirical_table(batch, li)
        for env in iter_assignments(emp.names, emp.cards):
            p = li.evaluate(env)
            bound = 5.0 * np.sqrt(max(p * (1 - p), 1e-12) / m)
            assert abs(emp.pmf(env) - p) <= bound + 1e-9


class TestSampleMarginal:
    def test_full_set_identical_to_sample(self, learned_example1):
        li = learned_example1
        a = sample(li, seed=2, m=500)
        b = sample_marginal(li, li.order, seed=2, m=500)
        assert a.names == b.names
        assert (a.values == b.values).all()

    def test_empty_set(self, learned_example1):
        s = sample_marginal(learned_example1, (), seed=2, m=10)
        assert s.names == ()
        assert s.values.shape == (10, 0)

    def test_unknown_target_rejected(self, learned_example1):
        with pytest.raises(ValueError):
            sample_marginal(learned_example1, {"X"}, seed=0, m=1)

    def test_example2_marginal_matches_learned_row(self, fig4a):
        net = random_net_for(fig4a, seed=11)
        batch = sample_observational(net, seed=12, m=100_000)
        x = {"W": 1, "R": 0, "X": 1}
        li = learn_interventional(batch, fig4a, x)
        s = sample_marginal(li, {"Y"}, seed=21, m=1_000_000)
        freq = (s.values[:, 0] == 1).mean()
        assert abs(freq - row_product([li.factors["Y"].step], {**x, "Y": 1})) <= 0.01
