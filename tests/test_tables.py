import numpy as np
import pytest

from dolearn.admg import Admg
from dolearn.demo import fig3a_graph
from dolearn.estimand import BaseDist, full_table
from dolearn.generate import sample
from dolearn.learn import evaluate_point, fit_from_table
from dolearn.scm import exact_observational, random_net_for, sample_observational
from dolearn.tables import (
    EmpiricalAccess,
    PmfTable,
    Samples,
    ScopeMismatch,
    ancestral_sample,
    iter_assignments,
    row_index,
    strides_for,
)
from dolearn.verify import estimate_tv

COIN_STEPS = [("A", (), (), np.array([[0.5, 0.5]]))]


class TestPmfTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            PmfTable(("A",), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            PmfTable(("A",), np.array([-0.1, 1.1]))
        with pytest.raises(ScopeMismatch):
            PmfTable(("A", "A"), np.full((2, 2), 0.25))
        PmfTable(("A",), np.array([0.7, 0.7]), normalized=False)  # explicit opt-out

    def test_pmf_and_marginals(self):
        t = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert t.pmf({"A": 1, "B": 0, "C": 9}) == pytest.approx(0.3)
        m = t.marginal_to({"B"})
        assert m.names == ("B",)
        assert np.allclose(m.probs, [0.4, 0.6])
        assert np.allclose(t.marginal_probs({"A"}), [0.3, 0.7])

    def test_sliced_records_context(self):
        t = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        s = t.sliced({"A": 1})
        assert s.names == ("B",)
        assert s.context == {"A": 1}
        assert not s.normalized
        assert np.allclose(s.probs, [0.3, 0.4])

    def test_aligned_to(self):
        t = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        u = t.aligned_to(("B", "A"))
        assert u.pmf({"A": 0, "B": 1}) == t.pmf({"A": 0, "B": 1})
        with pytest.raises(ScopeMismatch):
            t.aligned_to(("A", "C"))

    def test_empty_scope_total(self):
        t = PmfTable((), np.array(1.0))
        assert t.pmf({}) == 1.0

    @pytest.mark.parametrize("bad", [{"A": -1, "B": 0}, {"A": 0, "B": 2},
                                     {"A": np.array([0, 2]), "B": 0},
                                     {"A": np.array([0.0, 1.0]), "B": 0}])
    def test_pmf_rejects_symbols_outside_the_table(self, bad):
        t = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        with pytest.raises(ScopeMismatch, match="not a symbol in"):
            t.pmf(bad)

    def test_pmf_over_broadcasting_arrays(self):
        t = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))
        cols = {"A": np.array([1, 0, 1]), "B": np.array([0, 1, 1])}
        assert t.pmf(cols).tolist() == [0.3, 0.2, 0.4]
        grid = t.pmf({"A": np.array([[0], [1]]), "B": np.array([0, 1])})
        assert np.array_equal(grid, t.probs)


class TestHelpers:
    def test_strides_row_major(self):
        assert strides_for((2, 3, 4)) == (12, 4, 1)
        assert strides_for(()) == ()

    def test_iter_assignments_order(self):
        combos = list(iter_assignments(("A", "B"), (2, 2)))
        assert combos[0] == {"A": 0, "B": 0}
        assert combos[-1] == {"A": 1, "B": 1}
        assert list(iter_assignments((), ())) == [{}]


class TestSamples:
    def test_counts_over(self):
        s = Samples(("A", "B"), np.array([[0, 0], [0, 1], [0, 1], [1, 1]]))
        counts = s.counts_over(("A", "B"), (2, 2))
        assert np.array_equal(counts, [[1, 2], [0, 1]])
        assert s.counts_over((), ()) == 4.0

    def test_sampler_batches_are_column_major(self):
        s = sample_observational(random_net_for(fig3a_graph(), seed=7), seed=1, m=100)
        assert s.values.flags.f_contiguous
        assert s.values[:, s.names.index("Y")].flags.c_contiguous

    @pytest.mark.parametrize("arg, value", [
        ("m", -1), ("m", 10.0), ("m", True), ("m", np.True_), ("m", "10"),
        ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", None),
    ])
    def test_sampler_rejects_sizes_and_seeds_that_are_not_counts(self, arg, value):
        what = {"m": "sample size m", "seed": "seed"}[arg]
        with pytest.raises(ValueError, match=f"^{what} must be"):
            ancestral_sample(COIN_STEPS, ("A",), **{"seed": 0, "m": 10, arg: value})

    def test_sampler_takes_numpy_integers_as_python_ones(self):
        a = ancestral_sample(COIN_STEPS, ("A",), seed=np.int64(3), m=np.uint16(50))
        b = ancestral_sample(COIN_STEPS, ("A",), seed=3, m=50)
        assert np.array_equal(a.values, b.values)

    def test_project(self):
        s = Samples(("A", "B"), np.array([[0, 1], [1, 0]]))
        p = s.project(("B",))
        assert p.names == ("B",)
        assert p.values.tolist() == [[1], [0]]

    def test_project_to_an_unknown_name_fails_by_name(self):
        s = Samples(("A", "B"), np.array([[0, 1], [1, 0]]))
        with pytest.raises(ScopeMismatch, match="'Q' not among sampled variables"):
            s.project(["Q"])

    def test_empirical_access(self):
        s = Samples(("A",), np.array([[0], [1], [1], [1]]))
        acc = EmpiricalAccess(s, (2,))
        assert acc.pmf({"A": 1}) == pytest.approx(0.75)
        assert np.allclose(acc.table().probs, [0.25, 0.75])

    def test_empirical_joint_is_counted_once(self, monkeypatch):
        s = Samples(("A", "B"), np.array([[0, 1], [1, 1], [1, 0], [1, 1]]))
        acc = EmpiricalAccess(s, (2, 2))
        calls = []
        counts_over = Samples.counts_over
        monkeypatch.setattr(Samples, "counts_over",
                            lambda self, *a: calls.append(a) or counts_over(self, *a))
        assert acc.pmf({"A": 1, "B": 1}) == 0.5
        assert acc.pmf({"A": 0, "B": 0}) == 0.0
        assert acc.table() is acc.table()
        assert len(calls) == 1

    def test_empirical_marginal(self):
        s = Samples(("A", "B"), np.array([[0, 1], [1, 1], [1, 0], [1, 1]]))
        acc = EmpiricalAccess(s, (2, 2))
        assert acc.marginal_probs({"B"}).tolist() == [0.25, 0.75]
        assert np.array_equal(acc.marginal_probs({"B", "A"}), acc.table().probs)
        with pytest.raises(ScopeMismatch, match="unknown variables"):
            full_table(BaseDist(("C",)), acc)
        empty = EmpiricalAccess(Samples(("A",), np.zeros((0, 1), dtype=np.int64)), (2,))
        assert empty.marginal_probs({"A"}).tolist() == [0.0, 0.0]

    def test_symbol_at_or_above_cardinality_is_rejected(self):
        s = Samples(("A", "B"), [[0, 2], [0, 0], [1, 1]])
        with pytest.raises(ScopeMismatch, match="'B' is out of range for cardinality 2"):
            s.counts_over(("A", "B"), (2, 2))
        assert np.array_equal(s.counts_over(("A",), (2,)), [2, 1])
        assert s.counts_over(("A", "B"), (2, 3))[0, 2] == 1
        with pytest.raises(ScopeMismatch):
            EmpiricalAccess(s, (2, 2)).pmf({"A": 1, "B": 0})

    def test_negative_symbol_is_rejected(self):
        s = Samples(("A", "B"), [[0, 1], [-1, 0]])
        with pytest.raises(ScopeMismatch, match="negative symbol -1 in column 'A'"):
            s.counts_over(("B",), (2,))

    @pytest.mark.parametrize("values", [[[0.7], [1.2]], [[0.0], [1.0]]])
    def test_non_integer_batch_is_rejected(self, values):
        s = Samples(("A",), np.array(values))
        with pytest.raises(ScopeMismatch, match="integer symbols"):
            s.counts_over(("A",), (2,))

    def test_check_symbols_names_missing_columns(self):
        s = Samples(("A",), [[0], [1]])
        assert s.check_symbols(("A",), (2,)) == [0]
        with pytest.raises(ScopeMismatch, match="'B' not among sampled variables"):
            s.check_symbols(("A", "B"), (2, 2))

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(ScopeMismatch, match="duplicate variable names"):
            Samples(("A", "B", "A"), [[0, 1, 1]])
        with pytest.raises(ScopeMismatch, match="duplicate variable names"):
            Samples(("A", "B"), [[0, 1]]).project(("B", "B"))

    def test_largest_symbol(self):
        assert Samples(("A", "B"), [[0, 3], [7, 1]]).largest_symbol == 7
        assert Samples(("A",), np.zeros((0, 1), dtype=np.int64)).largest_symbol == -1
        with pytest.raises(ScopeMismatch, match="negative symbol"):
            Samples(("A",), [[-2]]).largest_symbol

    def test_values_are_read_only_and_statistics_memoized(self):
        raw = np.array([[0, 1], [1, 1], [0, 1]])
        s = Samples(("A", "B"), raw)
        with pytest.raises(ValueError):
            s.values[0, 0] = 1
        assert raw.flags.writeable  # the caller's own array is left alone
        assert s.distinct is s.distinct
        rows, counts = s.distinct
        assert rows.tolist() == [[0, 1], [1, 1]]
        assert counts.tolist() == [2.0, 1.0]
        assert not rows.flags.writeable and not counts.flags.writeable

    def test_empty_batch_counts_zero(self):
        s = Samples(("A", "B"), np.zeros((0, 2), dtype=np.int64))
        assert np.array_equal(s.counts_over(("A", "B"), (2, 2)), np.zeros((2, 2)))
        assert s.counts_over((), ()) == 0.0


AB = PmfTable(("A", "B"), np.array([[0.1, 0.2], [0.3, 0.4]]))


@pytest.mark.parametrize("build, message", [
    (lambda: AB.pmf({"A": 0}), "assignment lacks value for 'B'"),
    (lambda: PmfTable(("A",), np.full((2, 2), 0.25)), "table has 2 axes but 1 names"),
    (lambda: AB.axis("C"), "'C' not in table over ('A', 'B')"),
    (lambda: Samples(("A", "B"), np.zeros((3, 3), dtype=np.int64)),
     "sample array must be (m, n_vars)"),
    (lambda: Samples(("A", "B"), np.zeros(4, dtype=np.int64)),
     "sample array must be (m, n_vars)"),
])
def test_named_scope_errors(build, message):
    with pytest.raises(ScopeMismatch) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("probs", [[[np.nan, 0.5], [0.25, 0.25]],
                                   [[np.nan, np.nan], [np.nan, np.nan]],
                                   [[-0.5, 1.0], [0.25, 0.25]]])
@pytest.mark.parametrize("normalized", [True, False])
def test_negative_or_nan_mass_fails(probs, normalized):
    with pytest.raises(ValueError, match="^negative or NaN probability mass$"):
        PmfTable(("A", "B"), probs, normalized=normalized)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_narrow_symbols_read_the_rows_int64_symbols_read(dtype):
    # B reads six ternary parents; the first has stride 243, so its symbol 2
    # times its stride is past one byte
    g = Admg.build([*((f"P{i}", 3) for i in range(6)), ("B", 2)],
                   [(f"P{i}", "B") for i in range(6)])
    li = fit_from_table(exact_observational(random_net_for(g, seed=3)), g, {})
    wide = dict(zip(li.order, np.indices(li.cards()).reshape(len(li.order), -1)))
    narrow = {n: v.astype(dtype) for n, v in wide.items()}
    _, cond, strides, _ = li.factors["B"].step
    assert np.array_equal(row_index(cond, strides, narrow), row_index(cond, strides, wide))
    assert np.array_equal(evaluate_point(li, narrow), evaluate_point(li, wide))

    def draws(as_dtype):
        return lambda seed, m: Samples(li.order, sample(li, seed, m).values.astype(as_dtype))

    table = li.table()
    want = estimate_tv(draws(np.int64), li.evaluate, table.pmf, 0.1, 0.1, seed=2)
    assert estimate_tv(draws(dtype), li.evaluate, table.pmf, 0.1, 0.1, seed=2) == want
