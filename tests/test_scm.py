import numpy as np
import pytest

from dolearn import scm
from dolearn.admg import Admg, GraphError
from dolearn.demo import random_identifiable_case
from dolearn.learn import ConditionalTable
from dolearn.scm import (
    CausalBayesNet,
    CbnNode,
    NonStandardForm,
    StateSpaceTooLarge,
    check_strong_positivity,
    exact_interventional,
    exact_observational,
    interventional_family,
    latent_project,
    random_admg,
    random_net_for,
    sample_observational,
)
from dolearn.verify import exact_tv
from dolearn.witness import indistinguishable_pair

from . import reference_kernels as ref


def coin(name, p1=0.5, parents=(), rows=None, hidden=False, card=2):
    if rows is None:
        rows = [[1 - p1, p1]]
    return CbnNode(name, card, parents, np.array(rows, dtype=float), hidden=hidden)


def bow_net(y_rows):
    """U -> X, U -> Y, X -> Y with a fair hidden coin and X = U."""
    return CausalBayesNet([
        coin("U", hidden=True),
        CbnNode("X", 2, ("U",), np.array([[1.0, 0.0], [0.0, 1.0]])),
        CbnNode("Y", 2, ("X", "U"), np.array(y_rows, dtype=float)),
    ])


class TestConstruction:
    def test_bad_row_sum(self):
        with pytest.raises(GraphError):
            CbnNode("A", 2, (), np.array([[0.5, 0.6]]))

    def test_bad_row_count(self):
        with pytest.raises(GraphError):
            CausalBayesNet([
                coin("A"),
                CbnNode("B", 2, ("A",), np.array([[0.5, 0.5]])),
            ])

    def test_unknown_parent(self):
        with pytest.raises(GraphError):
            CausalBayesNet([CbnNode("B", 2, ("A",), np.eye(2))])

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5], [np.nan, 1.0]], "Z: negative or NaN {} entry"),
        ([[0.5, 0.5], [1.5, -0.5]], "Z: negative or NaN {} entry"),
        ([[0.5, 0.5], [0.5, 0.5 + 1e-9]], "Z: {} row 1 does not sum to 1"),
    ])
    def test_one_row_rule_for_nets_and_learned_factors(self, rows, message):
        with pytest.raises(GraphError, match=message.format("cpt")):
            CbnNode("Z", 2, ("A",), np.array(rows))
        with pytest.raises(ValueError, match=message.format("conditional")):
            ConditionalTable("Z", 2, ("A",), (2,), np.array(rows))
        within = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-13]])  # inside the tolerance
        assert CbnNode("Z", 2, ("A",), within).cpt.shape == (2, 2)
        assert ConditionalTable("Z", 2, ("A",), (2,), within).probs.shape == (2, 2)

    @pytest.mark.parametrize("at, row, message", [
        (3, [1.5, -0.5], "^C: negative or NaN cpt entry$"),
        (2, [0.5, 0.5 + 1e-9], "^B: cpt row 1 does not sum to 1$"),
        (0, [np.nan, 1.0], "^A: negative or NaN cpt entry$"),
    ])
    def test_random_net_names_the_node_that_owns_a_bad_row(self, monkeypatch, at, row, message):
        # one Dirichlet draw of five binary rows: A owns row 0, B rows 1-2, C rows 3-4
        drawn = scm._floored_rows

        def spoiled(*args):
            rows = drawn(*args)
            rows[at] = row
            return rows

        monkeypatch.setattr(scm, "_floored_rows", spoiled)
        with pytest.raises(GraphError, match=message):
            random_net_for(Admg.build(["A", "B", "C"], [("A", "B"), ("B", "C")]), seed=0)


    @pytest.mark.parametrize("cardinality", [0, -1])
    def test_a_cardinality_below_one_fails_by_name(self, cardinality):
        with pytest.raises(GraphError) as exc:
            CbnNode("X", cardinality, (), np.ones((1, 1)))
        assert str(exc.value) == "X: cardinality must be positive"


class TestSampling:
    def test_deterministic_net_forces_assignment(self):
        net = CausalBayesNet([
            coin("A", rows=[[0.0, 1.0]]),
            CbnNode("B", 2, ("A",), np.array([[0.0, 1.0], [1.0, 0.0]])),
        ])
        s = sample_observational(net, seed=0, m=50)
        assert (s.values == [1, 0]).all()

    def test_single_coin_frequency(self):
        net = CausalBayesNet([coin("A", p1=0.3)])
        s = sample_observational(net, seed=42, m=100_000)
        freq = s.values[:, 0].mean()
        assert abs(freq - 0.3) < 0.01

    def test_seed_determinism(self):
        net = random_net_for(random_admg(1, 4), seed=5)
        a = sample_observational(net, seed=9, m=500)
        b = sample_observational(net, seed=9, m=500)
        assert (a.values == b.values).all()

    def test_hidden_columns_dropped(self):
        net = bow_net([[1, 0], [0, 1], [0, 1], [1, 0]])
        s = sample_observational(net, seed=1, m=10)
        assert s.names == ("X", "Y")


class TestExactObservational:
    def test_independent_coins_uniform(self):
        net = CausalBayesNet([coin("A"), coin("B")])
        t = exact_observational(net)
        assert np.allclose(t.probs, 0.25)

    def test_bow_all_uniform_cpts(self):
        net = CausalBayesNet([
            coin("U", hidden=True),
            CbnNode("X", 2, ("U",), np.full((2, 2), 0.5)),
            CbnNode("Y", 2, ("X", "U"), np.full((4, 2), 0.5)),
        ])
        assert np.allclose(exact_observational(net).probs, 0.25)

    def test_total_is_one(self):
        net = random_net_for(random_admg(3, 5), seed=8)
        assert abs(exact_observational(net).total - 1.0) < 1e-12

    def test_state_ceiling(self):
        nodes = [coin(f"A{i}", card=4, rows=[[0.25] * 4]) for i in range(13)]
        net = CausalBayesNet(nodes)
        with pytest.raises(StateSpaceTooLarge):
            exact_observational(net)
        # the ceiling is on the whole net, not on the 4^12 states the slice forms
        with pytest.raises(StateSpaceTooLarge):
            exact_interventional(net, {"A0": 0})


class TestExactInterventional:
    def test_chain_no_confounding_matches_conditional(self):
        net = CausalBayesNet([
            coin("X", p1=0.7),
            CbnNode("Y", 2, ("X",), np.array([[0.9, 0.1], [0.2, 0.8]])),
        ])
        t = exact_interventional(net, {"X": 1})
        assert np.allclose(t.probs, [0.2, 0.8])

    def test_bow_confounding_witness(self):
        # Y = X xor U: observationally Y is constant 0, but do(X=1) flips half
        net = bow_net([[1, 0], [0, 1], [0, 1], [1, 0]])
        obs_y = exact_observational(net).marginal_to({"Y"})
        do_y = exact_interventional(net, {"X": 1})
        assert np.allclose(obs_y.probs, [1.0, 0.0])
        assert np.allclose(do_y.probs, [0.5, 0.5])

    def test_empty_intervention_equals_observational(self):
        net = random_net_for(random_admg(11, 5), seed=2)
        a = exact_observational(net)
        b = exact_interventional(net, {})
        assert a.names == b.names
        assert np.array_equal(a.probs, b.probs)

    def test_unknown_variable_is_named(self):
        net = bow_net([[1, 0], [0, 1], [0, 1], [1, 0]])
        with pytest.raises(GraphError, match="unknown variable 'Q'"):
            net.node("Q")
        with pytest.raises(GraphError, match="unknown variable 'Q'"):
            exact_interventional(net, {"Q": 0})
        with pytest.raises(GraphError, match="unknown variable 'Q'"):
            interventional_family(net, {"Q"})

    @pytest.mark.parametrize("val", [0, 7])
    def test_hidden_variable_is_rejected(self, val):
        net = bow_net([[1, 0], [0, 1], [0, 1], [1, 0]])
        with pytest.raises(GraphError, match="cannot intervene on hidden variable 'U'"):
            exact_interventional(net, {"U": val})
        with pytest.raises(GraphError, match="cannot intervene on hidden variable 'U'"):
            interventional_family(net, {"U"})

    @pytest.mark.parametrize("val", [1.5, True, np.True_, "1", None])
    def test_non_integer_value_is_rejected(self, val):
        net = random_net_for(random_admg(11, 4), seed=2)
        with pytest.raises(GraphError, match="for 'V0' is not an integer symbol"):
            exact_interventional(net, {"V0": val})

    def test_numpy_integer_value_is_accepted(self):
        net = random_net_for(random_admg(11, 4), seed=2)
        a = exact_interventional(net, {"V0": np.int64(1)})
        b = exact_interventional(net, {"V0": 1})
        assert a.names == b.names
        assert np.array_equal(a.probs, b.probs)


class TestLatentProjection:
    def test_bow(self):
        net = bow_net([[1, 0], [0, 1], [0, 1], [1, 0]])
        assert latent_project(net) == Admg.build(["X", "Y"], [("X", "Y")], [("X", "Y")])

    def test_no_hiddens(self):
        net = CausalBayesNet([coin("A"), CbnNode("B", 2, ("A",), np.eye(2))])
        g = latent_project(net)
        assert g.bidirected == frozenset()

    def test_fig3a_realization_roundtrip(self, fig3a):
        assert latent_project(random_net_for(fig3a, seed=3)) == fig3a

    def test_random_roundtrip(self):
        for seed in range(6):
            g = random_admg(seed, 5, n_bidirected=2)
            assert latent_project(random_net_for(g, seed=seed)) == g

    def test_nonstandard_three_children(self):
        net = CausalBayesNet([
            coin("U", hidden=True),
            CbnNode("A", 2, ("U",), np.eye(2)),
            CbnNode("B", 2, ("U",), np.eye(2)),
            CbnNode("C", 2, ("U",), np.eye(2)),
        ])
        with pytest.raises(NonStandardForm, match="'U' has 3 observable children, expected 2"):
            latent_project(net)

    @pytest.mark.parametrize("nodes, message", [
        ([coin("U", hidden=True), CbnNode("A", 2, ("U",), np.eye(2))],
         "hidden variable 'U' has 1 observable children, expected 2"),
        ([coin("U", hidden=True), coin("A")],
         "hidden variable 'U' has 0 observable children, expected 2"),
        ([coin("U", hidden=True), CbnNode("W", 2, ("U",), np.eye(2), hidden=True),
          CbnNode("A", 2, ("U", "W"), np.tile(np.eye(2), (2, 1))),
          CbnNode("B", 2, ("W",), np.eye(2))],
         "hidden 'U' has hidden child 'W'"),
    ])
    def test_each_nonstandard_form_names_its_node(self, nodes, message):
        with pytest.raises(NonStandardForm, match=message):
            latent_project(CausalBayesNet(nodes))

    def test_hidden_names_step_around_observables(self):
        # U0 and U1 are observables, so the hidden nodes become _U0 and __U1
        g = Admg.build(["U0", "U1", "_U1"], [("U0", "U1")], [("U0", "U1"), ("U1", "_U1")])
        net = random_net_for(g, seed=3, hidden_cardinality=3)
        assert net.hiddens == ("_U0", "__U1")
        assert net.node("U1").parents == ("U0", "_U0", "__U1")
        assert latent_project(net) == g
        pair = indistinguishable_pair(g, {"U0": 1})
        for witness in (pair.net_a, pair.net_b):
            assert witness.names == net.names
            assert [nd.parents for nd in witness.nodes] == [nd.parents for nd in net.nodes]
            assert latent_project(witness) == g
        assert pair.observational_tv <= 1e-9 and pair.interventional_tv >= 0.5

    def test_nonstandard_hidden_with_parent(self):
        net = CausalBayesNet([
            coin("A"),
            CbnNode("U", 2, ("A",), np.eye(2), hidden=True),
            CbnNode("B", 2, ("U",), np.eye(2)),
            CbnNode("C", 2, ("U",), np.eye(2)),
        ])
        with pytest.raises(NonStandardForm, match="hidden variable 'U' has parents"):
            latent_project(net)


class TestStrongPositivity:
    def test_uniform_independent(self):
        net = CausalBayesNet([coin("A"), CbnNode("B", 2, ("A",), np.full((2, 2), 0.5))])
        ok, reports = check_strong_positivity(net, [["B"]], alpha=0.2)
        assert ok
        assert reports[0].min_probability == pytest.approx(0.25)

    def test_zero_probability_event_fails(self):
        net = CausalBayesNet([coin("A", p1=1.0), coin("B")])
        ok, reports = check_strong_positivity(net, [["A"], ["B"]], alpha=1e-6)
        assert not ok
        assert reports[0].min_probability == 0.0
        assert reports[0].worst_event == {"A": 0}

    def test_fig3a_bounded_cpts(self, fig3a):
        net = random_net_for(fig3a, seed=4)
        clipped = []
        for nd in net.nodes:
            rows = np.clip(nd.cpt, 0.2, 0.8)
            rows = rows / rows.sum(axis=1, keepdims=True)
            clipped.append(CbnNode(nd.name, nd.cardinality, nd.parents, rows, nd.hidden))
        net = CausalBayesNet(clipped)
        ok, reports = check_strong_positivity(net, [["X", "Z2"]], alpha=0.2**3)
        assert ok
        assert set(reports[0].event_scope) == {"X", "Z1", "Z2"}


class TestRandomInstances:
    @pytest.mark.parametrize("n_bidirected", [0, 1, 4, 12, 100])
    def test_one_graph_is_built_per_call(self, monkeypatch, n_bidirected):
        built = []
        post_init = Admg.__post_init__
        monkeypatch.setattr(Admg, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        g = random_admg(5, 12, n_bidirected=n_bidirected)  # 100 > 66 pairs: the attempt cap
        assert len(built) == 1 and built[0] is g
        built.clear()
        assert ref.random_admg(5, 12, n_bidirected=n_bidirected) == g
        assert len(built) > 1 or n_bidirected == 0  # a candidate graph per new pair drawn

    @pytest.mark.parametrize("kwargs, name", [
        ({"n": 4.0}, "n"),
        ({"n": -1}, "n"),
        ({"n": True}, "n"),
        ({"max_in_degree": 1.5}, "max_in_degree"),
        ({"max_in_degree": -1}, "max_in_degree"),
        ({"n_bidirected": -1}, "n_bidirected"),
        ({"n_bidirected": 2.0}, "n_bidirected"),
        ({"max_component": -2}, "max_component"),
        ({"max_component": "3"}, "max_component"),
        ({"n": 1, "n_bidirected": 1}, "n_bidirected"),
        ({"n": 0}, "n_bidirected"),  # the default asks for 2 edges
    ])
    def test_a_bad_size_argument_is_named(self, kwargs, name):
        kwargs = {"n": 5, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must"):
            random_admg(0, **kwargs)
        with pytest.raises(ValueError, match=f"^{name} must"):
            random_identifiable_case(0, **kwargs)

    @pytest.mark.parametrize("n_intervene", [6, 5, -1, 1.0, None])
    def test_a_bad_intervention_count_is_named(self, n_intervene):
        with pytest.raises(ValueError, match="^n_intervene must"):
            random_identifiable_case(0, n=5, n_intervene=n_intervene)

    def test_valid_arguments_draw_as_before(self):
        g = random_admg(3, np.int64(9), np.int8(2), np.uint16(3), np.int32(3))
        assert g == random_admg(3, 9, 2, 3, 3) == ref.random_admg(3, 9, 2, 3, 3)
        assert random_admg(3, 1, n_bidirected=0) == ref.random_admg(3, 1, n_bidirected=0)
        assert random_identifiable_case(4, n=np.int64(6), n_intervene=np.int8(2)) \
            == random_identifiable_case(4, n=6, n_intervene=2)


class TestEmpiricalConvergence:
    def test_tv_to_exact_small_net(self):
        g = random_admg(13, 4, n_bidirected=1)
        net = random_net_for(g, seed=13)
        s = sample_observational(net, seed=21, m=100_000)
        exact = exact_observational(net)
        counts = s.counts_over(exact.names, exact.cards)
        from dolearn.tables import PmfTable

        emp = PmfTable(exact.names, counts / s.m)
        assert exact_tv(emp, exact) <= 0.02
