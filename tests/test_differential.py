"""Package code against reference versions kept in the test tree: the vectorized
batch kernels and the sample CSV writer against their loop-and-stack forms (the
samplers also at batch sizes around their row blocks, with their scratch memory
held to a few blocks, and at the edges of their narrow row indices; the row
codes at the edges of their narrow dtypes, with the count's memory held to a
few blocks), the byte-array sample CSV codec against its row-code
writer and ``np.loadtxt`` reader, the fragment learner against its former copy
of the identification recursion, the Bayes-net learner's conditioning sets
against the former effective-parent rule and its exact rows against the
one-factor chains they replaced, the row products (oracle joints, learned
evaluator, structural identities, factor errors) against their hand-written
forms, the bare marginal reads of the fragment chain rule, the exact-table
rows, the oracle check, the KL weights and the positivity audit bit for bit
against the table-wrapping readers they replaced, compiled estimand plans
against the tree interpreter they replaced,
random nets against one Dirichlet draw per node, their sampling order
against a re-sorted Kahn sort and their latent projection against the walk
over each node's parents, and the witness pairs built from the hedge
beside the seeded parity search they replaced, which must also find one."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dolearn.admg import Admg, CycleDetected, GraphError
from dolearn.demo import fig3a_graph, fig4a_graph
from dolearn.estimand import (
    BaseDist,
    ChainProduct,
    ZeroConditioningEvent,
    _plan,
    chain_depth,
    evaluate,
    full_table,
)
from dolearn.generate import sample
from dolearn.io import SampleCsvError, dump_json, li_to_dict, samples_from_csv, samples_to_csv
from dolearn.identify import (
    CausalQuery,
    HedgeWitness,
    NotIdentifiable,
    identify,
    is_identifiable,
)
from dolearn.learn import (
    LearnedInterventional,
    PositivityViolation,
    evaluate_point,
    fit_from_table,
    learn_interventional,
    learn_q,
    learn_r,
    relative_partition,
)
from dolearn.scm import (
    CausalBayesNet,
    CbnNode,
    StateSpaceTooLarge,
    check_strong_positivity,
    exact_interventional,
    exact_observational,
    interventional_family,
    latent_project,
    random_admg,
    random_net_for,
    sample_observational,
    standard_form,
)
from dolearn.tables import (
    BLOCK_ROWS,
    EmpiricalAccess,
    PmfTable,
    Samples,
    cdf_thresholds,
    draw_inverse_cdf,
    iter_assignments,
)
from dolearn.verify import (
    compare_to_oracle,
    kl_decomposition_sides,
    sweep_graphs,
    tian_q_table,
)
from dolearn.witness import indistinguishable_pair

from . import reference_kernels as ref
from . import reference_learner as ref_learn
from .conftest import admgs


def _cum_with_negative_entry(rng, n_rows, card):
    probs = rng.dirichlet(np.ones(card), size=n_rows)
    probs[0, -1] = -1e-13
    probs[0, 0] += 1e-13
    return np.cumsum(probs, axis=1)


@pytest.mark.parametrize("card", [2, 3, 4])
def test_draw_kernel_matches_compare_and_cap(card):
    rng = np.random.default_rng(card)
    m = 20_000
    cum = _cum_with_negative_entry(rng, 6, card)
    rows = rng.integers(0, 6, size=m)
    u = rng.random(m)
    # uniforms sitting exactly on, just above and just below the thresholds
    edges = cum[rows[:300], rng.integers(0, card, size=300)]
    u[:300] = np.clip(edges + rng.choice([-1e-16, 0.0, 1e-16], size=300), 0.0, np.nextafter(1, 0))
    out = np.empty(m, dtype=np.int64)
    draw_inverse_cdf(cdf_thresholds(cum), rows, u, out)
    assert np.array_equal(out, ref.draw_compare_and_cap(cum[rows], u))
    draw_inverse_cdf(cdf_thresholds(cum), 0, u, out)  # a parentless variable indexes one row
    assert np.array_equal(out, ref.draw_compare_and_cap(cum[np.zeros(m, dtype=int)], u))


def test_draw_kernel_caps_a_short_last_threshold():
    cum = np.array([[0.5, 1.0, 1.0 - 1e-13]])  # last entry below an earlier one
    u = np.array([0.25, 0.75, 1.0 - 5e-14])
    out = np.empty(3, dtype=np.int64)
    draw_inverse_cdf(cdf_thresholds(cum), 0, u, out)
    assert list(out) == [0, 1, 2]
    assert np.array_equal(out, ref.draw_compare_and_cap(cum[[0, 0, 0]], u))


@st.composite
def cumulative_rows(draw):
    """Arbitrary cumulative tables: cards 1-5, unsorted and duplicated
    entries, entries just above 1, and uniforms on and next to every entry."""
    card = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 4))
    special = [0.0, 0.25, 0.5, 1.0 - 1e-13, 1.0, float(np.nextafter(1.0, 2.0)), 1.0 + 1e-12]
    entry = st.one_of(st.sampled_from(special), st.floats(0.0, 1.0))
    cum = np.array(draw(st.lists(entry, min_size=card * n_rows, max_size=card * n_rows)))
    cum = cum.reshape(n_rows, card)
    rows, u = [], []
    for r in range(n_rows):
        for t in cum[r]:
            for v in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)):
                rows.append(r)
                u.append(v)
    extra = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.floats(0.0, 1.0)), max_size=8))
    rows += [r for r, _ in extra]
    u += [v for _, v in extra]
    return cum, np.array(rows, dtype=np.int64), np.array(u, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(cumulative_rows())
def test_draw_kernel_counts_the_smallest_thresholds_as_compare_and_cap(case):
    cum, rows, u = case
    out = np.full(len(u), -1, dtype=np.int64)
    draw_inverse_cdf(cdf_thresholds(cum), rows, u, out)
    assert np.array_equal(out, ref.draw_compare_and_cap(cum[rows], u))
    draw_inverse_cdf(cdf_thresholds(cum), 0, u, out)
    assert np.array_equal(out, ref.draw_compare_and_cap(cum[np.zeros(len(u), dtype=int)], u))


def _card3_net():
    g = random_admg(5, 6, n_bidirected=2, cardinality=3)
    return g, random_net_for(g, seed=5)


def _symbol_dtype(cards):
    """The sampler's dtype rule: one byte a symbol up to cardinality 256, two above."""
    return np.uint8 if max(cards, default=1) <= 256 else np.uint16


def _card257_net():
    """A card-257 observable, so the batch is uint16, read by a child after a
    hidden parent of stride 257, whose uint8 scratch column must not wrap."""
    rng = np.random.default_rng(0)
    return CausalBayesNet([
        CbnNode("U", 2, (), np.array([0.3, 0.7]), hidden=True),
        CbnNode("A", 257, ("U",), rng.dirichlet(np.ones(257), size=2)),
        CbnNode("B", 2, ("U", "A"), rng.dirichlet(np.ones(2), size=514)),
    ])


def _six_ternary_parents_net():
    """B reads six ternary parents: the first has stride 243, past one byte."""
    rng = np.random.default_rng(1)
    parents = tuple(f"P{i}" for i in range(6))
    return CausalBayesNet([CbnNode(p, 3, (), rng.dirichlet(np.ones(3))) for p in parents]
                          + [CbnNode("B", 2, parents, rng.dirichlet(np.ones(2), size=729))])


def _net_with_negative_cpt_entry():
    rows = np.array([[0.6, 0.4 + 1e-13, -1e-13], [0.2, 0.3, 0.5]])
    return CausalBayesNet([
        CbnNode("U", 2, (), np.array([0.3, 0.7]), hidden=True),
        CbnNode("A", 2, ("U",), np.array([[0.9, 0.1], [0.2, 0.8]])),
        CbnNode("B", 3, ("A",), rows),
        CbnNode("C", 2, ("B", "U"), np.full((6, 2), 0.5)),
    ])


@pytest.mark.parametrize("make", [
    lambda: random_net_for(fig3a_graph(), seed=7),
    lambda: random_net_for(fig4a_graph(), seed=3),
    lambda: _card3_net()[1],
    _net_with_negative_cpt_entry,
    _card257_net,
    _six_ternary_parents_net,
])
def test_sample_observational_matches_reference(make):
    net = make()
    for seed, m in [(0, 1), (1, 5_000), (2, 0)]:
        batch = sample_observational(net, seed=seed, m=m)
        assert batch.names == net.observables
        assert batch.rng_algorithm == "numpy-pcg64"
        assert np.array_equal(batch.values, ref.sample_observational(net, seed, m))
        assert batch.values.dtype == _symbol_dtype(net.cardinality(n) for n in net.observables)


def _learned_objects():
    g3, net3 = _card3_net()
    out = []
    for g, net, x in [
        (fig3a_graph(), random_net_for(fig3a_graph(), seed=7), {"X": 0}),
        (fig4a_graph(), random_net_for(fig4a_graph(), seed=3), {"W": 0, "R": 0, "X": 1}),
        (g3, net3, {}),
    ]:
        out.append(fit_from_table(exact_observational(net), g, x))
        out.append(learn_interventional(sample_observational(net, 4, 20_000), g, x))
    rng = np.random.default_rng(11)
    while len(out) < 12:  # identifiable card-3 cases with one intervened variable
        g = random_admg(int(rng.integers(2**31)), 5, n_bidirected=2, cardinality=3)
        name = g.names[int(rng.integers(g.n))]
        x = {name: int(rng.integers(3))}
        if is_identifiable(CausalQuery(g, x, frozenset(g.names) - {name})):
            out.append(fit_from_table(exact_observational(random_net_for(g, 1)), g, x))
    return out


LEARNED = _learned_objects()


@pytest.mark.parametrize("li", LEARNED)
def test_generate_sample_matches_reference(li):
    draws = sample(li, seed=9, m=4_000)
    assert draws.names == li.order
    assert draws.rng_algorithm == "numpy-pcg64"
    assert np.array_equal(draws.values, ref.generate_sample(li, 9, 4_000))


def _check_generate(li, seed, m):
    draws = sample(li, seed=seed, m=m)
    assert np.array_equal(draws.values, ref.generate_sample(li, seed, m))
    assert draws.values.dtype == _symbol_dtype(li.cards())
    again = sample(li, seed=seed, m=m)
    assert np.array_equal(again.values, draws.values)
    cols = [draws.values[:, j] for j in range(len(li.order))]
    for a, b in itertools.combinations(cols, 2):
        assert not np.shares_memory(a, b)


def test_generate_offsets_rows_by_a_fixed_parent_between_drawn_ones():
    # V3 conditions on (V0, V1, V2) with V1 intervened: the fixed parent sits
    # between two drawn ones, and V1 and V3 are ternary
    g = Admg.build([("V0", 2), ("V1", 3), ("V2", 2), ("V3", 3)],
                   [("V0", "V3"), ("V1", "V3"), ("V2", "V3")])
    net = random_net_for(g, seed=4)
    for x in ({"V1": 0}, {"V1": 2}, {"V1": 1, "V2": 1}):
        li = fit_from_table(exact_observational(net), g, x)
        assert li.factors["V3"].cond == ("V0", "V1", "V2")
        _check_generate(li, seed=5, m=3_000)
        li = learn_interventional(sample_observational(net, 6, 5_000), g, x)
        _check_generate(li, seed=7, m=3_000)


@st.composite
def intervened_cases(draw):
    """A random mixed graph with binary and ternary variables and one or two
    intervened variables at random values, leaving at least one target."""
    g = draw(admgs(max_n=5, max_bidirected=3, cardinalities=(2, 3), min_n=2))
    x_names = draw(st.lists(st.sampled_from(g.names), min_size=1, max_size=min(2, g.n - 1),
                            unique=True))
    x = {n: draw(st.integers(0, g.cards[g.index(n)] - 1)) for n in x_names}
    return g, x, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(intervened_cases())
def test_generate_with_intervened_parents_matches_reference(case):
    g, x, seed = case
    assume(is_identifiable(CausalQuery(g, x, frozenset(g.names) - set(x))))
    li = fit_from_table(exact_observational(random_net_for(g, seed=seed)), g, x)
    _check_generate(li, seed=seed, m=2_000)


# batch sizes around the sampler's row blocks: empty, one row, one short of a
# block, exactly one, one over, and three blocks plus a partial fourth
BLOCK_SIZES = (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 17)


def _hidden_card3_net():
    """Seven ternary observables and three hidden nodes of cardinality 3."""
    g = random_admg(0, 7, n_bidirected=3, cardinality=3)
    assert len(g.bidirected) == 3
    return g, random_net_for(g, seed=2, hidden_cardinality=3)


def _hidden_card3_learned():
    g, net = _hidden_card3_net()
    return fit_from_table(exact_observational(net), g, {})


def _fixed_parent_between_drawn_ones():
    g = Admg.build([("V0", 2), ("V1", 3), ("V2", 2), ("V3", 3)],
                   [("V0", "V3"), ("V1", "V3"), ("V2", "V3")])
    li = fit_from_table(exact_observational(random_net_for(g, seed=4)), g, {"V1": 2})
    assert li.factors["V3"].cond == ("V0", "V1", "V2")
    return li


@pytest.mark.parametrize("m", BLOCK_SIZES)
@pytest.mark.parametrize("make", [
    lambda: _hidden_card3_net()[1],
    lambda: random_net_for(fig4a_graph(), seed=3),
], ids=["card3-hidden3", "fig4a"])
def test_sample_observational_matches_reference_across_blocks(make, m):
    net = make()
    batch = sample_observational(net, seed=m + 1, m=m)
    assert np.array_equal(batch.values, ref.sample_observational(net, m + 1, m))
    assert batch.values.dtype == _symbol_dtype(net.cardinality(n) for n in net.observables)


@pytest.mark.parametrize("m", BLOCK_SIZES)
@pytest.mark.parametrize("make", [
    _hidden_card3_learned,
    _fixed_parent_between_drawn_ones,
], ids=["card3-hidden3", "fixed-parent-between-drawn"])
def test_generate_sample_matches_reference_across_blocks(make, m):
    _check_generate(make(), seed=m + 3, m=m)


@pytest.mark.parametrize("draw", ["simulate", "generate"])
def test_sampler_scratch_is_a_few_blocks_whatever_the_batch_size(draw):
    # nine binary observables and two hidden nodes: eleven steps per row
    g = random_admg(0, 9, n_bidirected=2)
    net = random_net_for(g, seed=1)
    assert len(net.nodes) == 11
    li = fit_from_table(exact_observational(net), g, {})
    run = {"simulate": lambda m: sample_observational(net, 5, m),
           "generate": lambda m: sample(li, 5, m)}[draw]
    block_bytes = BLOCK_ROWS * 8
    extra = []
    for m in (8 * BLOCK_ROWS, 16 * BLOCK_ROWS):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch = run(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - base - batch.values.nbytes)
        del batch
    assert max(extra) <= 15 * block_bytes, [e / block_bytes for e in extra]
    # an m-length scratch array would add eight block columns between the sizes
    assert extra[1] <= extra[0] + block_bytes, [e / block_bytes for e in extra]


@pytest.mark.parametrize("li", LEARNED)
def test_table_equals_evaluate_point_everywhere(li):
    table = li.table()
    assert table.names == li.order
    assert np.array_equal(table.probs, ref.evaluator_table(li))
    for env in iter_assignments(table.names, table.cards):
        assert evaluate_point(li, env) == table.pmf(env)


def test_table_with_every_variable_intervened():
    g = Admg.build(["A", "B"], [("A", "B")])
    li = fit_from_table(exact_observational(random_net_for(g, 2)), g, {"A": 1, "B": 0})
    assert li.order == ()
    assert li.table().probs == ref.evaluator_table(li) == 1.0


def _random_batch(rng, m, cards):
    values = np.stack([rng.integers(0, c, size=m) for c in cards], axis=1)
    return tuple(f"V{j}" for j in range(len(cards))), values


@pytest.mark.parametrize("m, cards", [
    (1, (2,)),
    (500, (2, 3, 4)),
    (3_000, (2,) * 14),
    (2_000, (3, 2, 5, 2, 3, 4)),
    (1_000, (2,) * 75),  # too wide for one int64 code: re-densified while encoding
    (200, (300, 300, 7)),  # more symbols than rows in two columns
    (3 * BLOCK_ROWS + 17, (3, 2, 5)),  # first occurrences found block by block
])
def test_counts_over_matches_per_call_bincount(m, cards):
    rng = np.random.default_rng(m + len(cards))
    names, values = _random_batch(rng, m, cards)
    s = Samples(names, values)
    for _ in range(25):
        k = int(rng.integers(0, min(len(cards), 6) + 1))
        keep = tuple(names[j] for j in sorted(rng.choice(len(cards), size=k, replace=False)))
        sub = tuple(cards[names.index(n)] for n in keep)
        assert np.array_equal(s.counts_over(keep, sub), ref.counts_over(names, values, keep, sub))
    rows, counts = s.distinct
    assert counts.sum() == m
    assert len(np.unique(rows, axis=0)) == len(rows)
    for dtype in ("uint16", "uint64"):  # a narrow batch, and one with no safe int64 add
        narrow = Samples(names, values.astype(dtype)).distinct
        assert np.array_equal(narrow.rows, rows) and np.array_equal(narrow.counts, counts)


def _wide_binary_batch():
    # 75 binary columns: rows 1.. differ only in the first 11, whose mixed-radix
    # weights are multiples of 2**64 unless the code is re-densified
    rng = np.random.default_rng(3)
    values = np.zeros((400, 75), dtype=np.int64)
    values[:, :11] = rng.integers(0, 2, size=(400, 11))
    values[0, 11:] = 1
    return Samples(tuple(f"V{j}" for j in range(75)), values)


def test_wide_batch_keeps_rows_that_differ_only_in_leading_columns():
    s = _wide_binary_batch()
    names, values = s.names, s.values
    keep = names[:11]
    assert np.array_equal(s.counts_over(keep, (2,) * 11),
                          ref.counts_over(names, values, keep, (2,) * 11))
    assert len(s.distinct.rows) == len(np.unique(values, axis=0))


def test_distinct_rows_are_first_occurrences_in_code_order():
    values = np.array([[1, 0], [0, 2], [1, 0], [0, 1], [0, 2], [0, 2]])
    rows, counts = Samples(("A", "B"), values).distinct
    assert rows.tolist() == [[0, 1], [0, 2], [1, 0]]
    assert counts.tolist() == [1.0, 3.0, 2.0]


# -- row indices and row codes at the edges of their narrow dtypes


def _wide_family_net(parent_cards, card1_first):
    """B reads parents of ``parent_cards``, first a cardinality-1 parent when
    ``card1_first``: its stride is then as large as the rows B reads. D reads
    B's three rows, from a uint16 batch column when a parent has card 257."""
    rng = np.random.default_rng(len(parent_cards))
    parents = ("C",) * card1_first + tuple(f"P{i}" for i in range(len(parent_cards)))
    cards = (1,) * card1_first + tuple(parent_cards)
    nodes = [CbnNode(p, c, (), rng.dirichlet(np.ones(c))) for p, c in zip(parents, cards)]
    rows = rng.dirichlet(np.ones(3), size=int(np.prod(parent_cards)))
    return CausalBayesNet(nodes + [CbnNode("B", 3, parents, rows),
                                   CbnNode("D", 2, ("B",), rng.dirichlet(np.ones(2), size=3))])


@pytest.mark.parametrize("card1_first", [False, True], ids=["drawn", "card1-first"])
@pytest.mark.parametrize("parent_cards", [(15, 17), (16, 16), (257,)],
                         ids=["255-rows", "256-rows", "257-rows"])
def test_sampler_row_index_at_the_one_byte_edge(parent_cards, card1_first):
    net = _wide_family_net(parent_cards, card1_first)
    for seed, m in [(0, 1), (1, BLOCK_ROWS + 5)]:
        batch = sample_observational(net, seed=seed, m=m)
        assert np.array_equal(batch.values, ref.sample_observational(net, seed, m))


@pytest.mark.parametrize("x", [{"V1": 0}, {"V1": 127}, {"V1": 299}])
def test_generate_row_index_with_a_fixed_parent_between_drawn_ones(x):
    # V3 reads (V0, V1, V2) at strides (600, 2, 1) with V1 intervened: from the
    # offset it reads 2 to 600 rows, past which the cardinality-1 V0 strides
    g = Admg.build([("V0", 1), ("V1", 300), ("V2", 2), ("V3", 2)],
                   [("V0", "V3"), ("V1", "V3"), ("V2", "V3")])
    li = fit_from_table(exact_observational(random_net_for(g, seed=4)), g, x)
    assert li.factors["V3"].cond == ("V0", "V1", "V2")
    _check_generate(li, seed=6, m=BLOCK_ROWS + 5)


@pytest.mark.parametrize("m, cards", [
    (300, (2,) * 8),  # a code space of 2**8
    (300, (256,)),  # one column of radix 2**8
    (300, (257, 1)),  # 2**8 + 1
    (20_000, (2,) * 16),  # 2**16, bincounted without re-densifying
    (70_000, (65_536,)),  # one column of radix 2**16
    (70_000, (1, 65_537)),  # 2**16 + 1
])
def test_row_codes_take_the_dtype_of_their_code_space(m, cards):
    rng = np.random.default_rng(m + len(cards))
    names, values = _random_batch(rng, m, cards)
    values[0] = np.array(cards) - 1  # every column's radix is its card
    size = int(np.prod(cards))
    want = np.ravel_multi_index(tuple(values.T), cards)
    for dtype in ("int64", "uint16", "uint64"):
        if max(cards) > 2**16 and dtype == "uint16":
            continue
        s = Samples(names, values.astype(dtype))
        code, got = s.row_codes()
        assert got == size and code.dtype == np.min_scalar_type(size)
        assert np.array_equal(code, want)
        for keep in [names, names[:1], names[-1:], names[::2]]:
            sub = tuple(cards[names.index(n)] for n in keep)
            assert np.array_equal(s.counts_over(keep, sub),
                                  ref.counts_over(names, values, keep, sub))


def test_distinct_adds_three_bytes_a_row_and_a_few_blocks():
    # 14 binary columns: the code is uint16, 2 bytes a row; one bincount over
    # all of it would copy it to intp, 8 bytes a row more. The rows repeat 64
    # patterns, so the distinct rows kept are a few KiB and the peak is in the count
    m = 2**17
    rng = np.random.default_rng(0)
    patterns = rng.integers(0, 2, size=(64, 14), dtype=np.uint8)
    patterns[0] = 1  # every column's radix is 2
    s = Samples(tuple(f"V{j}" for j in range(14)), patterns[rng.integers(0, 64, size=m)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows, _ = s.distinct
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) <= 64
    block_bytes = BLOCK_ROWS * 8
    # the code, and per block its intp copy, bincount and row numbers, with
    # the counts and first rows over the 2**14 codes
    extra = peak - base
    assert extra <= 3 * m + 5 * block_bytes, (extra - 3 * m) / block_bytes


HEADER_NAMES = ["A", "V10", "B,C", 'say "hi"', " pad ", "Σ", "line\nbreak", "semi;colon"]


@st.composite
def csv_batches(draw):
    """A batch to write: multi-digit cardinalities, sizes from empty to 5e4
    rows, narrow and wide integer dtypes (int64 optionally with symbols at or
    above 2**31), row-major, column-major or projected layouts, and header
    names that the csv module must quote."""
    kind = draw(st.sampled_from(["uint8", "int32", "int64", "int64-big"]))
    wide = 5 if kind == "int64-big" else 1
    names = draw(st.lists(st.sampled_from(HEADER_NAMES), min_size=wide, max_size=6, unique=True))
    cards = [draw(st.integers(2, 12)) for _ in names]
    m = draw(st.sampled_from([0, 1, 50, 50_000]))
    layout = draw(st.sampled_from(["rows", "columns", "projected"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    buf = np.stack([rng.integers(0, c, size=m) for c in cards])
    if kind == "int64-big":
        # huge symbols: every column is re-densified while encoding, and at
        # 5e4 rows the fifth column would overflow the running int64 code
        big = rng.random(buf.shape) < 0.5
        buf = np.where(big, rng.integers(2**31, 2**40, size=buf.shape), buf)
    buf = buf.astype(kind.split("-")[0])
    if layout == "rows":
        return Samples(tuple(names), np.ascontiguousarray(buf.T))
    if layout == "columns":
        return Samples(tuple(names), buf.T)  # the samplers' layout
    wide = Samples(tuple(names) + ("extra",), np.concatenate([buf, buf[:1]]).T)
    return wide.project(tuple(reversed(names)))


@settings(max_examples=60, deadline=None)
@given(csv_batches())
def test_csv_writer_matches_reference(samples):
    if any("\n" in n for n in samples.names):  # no reader could split the header
        with pytest.raises(SampleCsvError, match="holds a line break"):
            samples_to_csv(samples)
        return
    assert samples_to_csv(samples) == ref.samples_to_csv(samples)


def _huge_symbol_batch():
    rng = np.random.default_rng(8)
    values = rng.integers(2**31, 2**40, size=(50_000, 6))
    values[::3] = values[1::3]  # repeated rows among the huge ones
    return Samples(tuple(HEADER_NAMES[:6]), values)


@pytest.mark.parametrize("make", [
    lambda: sample_observational(_card3_net()[1], 4, 5_000),
    lambda: sample(LEARNED[3], 5, 5_000),
    lambda: sample(LEARNED[5], 6, 5_000),
    _huge_symbol_batch,
    _wide_binary_batch,
])
def test_csv_writer_matches_reference_on_fixed_batches(make):
    samples = make()
    assert samples_to_csv(samples) == ref.samples_to_csv(samples)


@st.composite
def codec_batches(draw):
    """A batch of cardinalities 1 to 12 (so some symbols have two digits) at
    m of 1, 2 or an odd size, row- or column-major, with names the reader's
    one-line header can hold."""
    names = draw(st.lists(st.sampled_from([n for n in HEADER_NAMES if "\n" not in n]),
                          min_size=1, max_size=6, unique=True))
    cards = [draw(st.integers(1, 12)) for _ in names]
    m = draw(st.sampled_from([1, 2, 3, 7, 51, 999]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    buf = np.stack([rng.integers(0, c, size=m) for c in cards])
    buf = buf.astype(draw(st.sampled_from(["uint8", "int32", "int64"])))
    if draw(st.booleans()):
        return Samples(tuple(names), buf.T)
    return Samples(tuple(names), np.ascontiguousarray(buf.T))


NEAR_CANONICAL = {
    "no final newline": lambda rows, i: rows[:-1] + [rows[-1].rstrip("\n")],
    "crlf": lambda rows, i: [r.replace("\n", "\r\n") for r in rows],
    "blank line": lambda rows, i: rows[:i] + ["\n"] + rows[i:],
    "extra cell": lambda rows, i: rows[:i] + [rows[i].replace("\n", ",1\n")] + rows[i + 1:],
    "missing cell": lambda rows, i: rows[:i] + [rows[i].partition(",")[2] or "\n"] + rows[i + 1:],
    "trailing comma": lambda rows, i: rows[:i] + [rows[i].replace("\n", ",\n")] + rows[i + 1:],
    "0.7": lambda rows, i: rows[:i] + ["0.7" + rows[i][1:]] + rows[i + 1:],
    "space": lambda rows, i: rows[:i] + [" " + rows[i]] + rows[i + 1:],
    "non-ascii digit": lambda rows, i: rows[:i] + ["\u0663" + rows[i][1:]] + rows[i + 1:],
}


def _read_both(text):
    """The package reader's and the reference reader's result on ``text``:
    the batch, or the ``SampleCsvError`` each raised."""
    out = []
    for read in (samples_from_csv, ref.samples_from_csv_by_loadtxt):
        try:
            out.append(read(text))
        except SampleCsvError as exc:
            out.append(exc)
    return out


@settings(max_examples=150, deadline=None)
@given(codec_batches(), st.sampled_from([None, *NEAR_CANONICAL]), st.integers(0, 2**16))
def test_csv_codec_matches_row_code_writer_and_loadtxt_reader(samples, mutation, at):
    text = samples_to_csv(samples)
    assert text == ref.samples_to_csv_by_row_codes(samples)
    head, _, body = text.partition("\n")
    if mutation is not None:
        rows = body.splitlines(keepends=True)
        body = "".join(NEAR_CANONICAL[mutation](rows, at % len(rows)))
    got, want = _read_both(head + "\n" + body)
    if isinstance(want, SampleCsvError):
        assert isinstance(got, SampleCsvError), mutation
        return
    assert not isinstance(got, SampleCsvError), (mutation, got)
    assert got.names == want.names
    single_digit = mutation is None and samples.largest_symbol < 10
    assert (got.values.dtype, want.values.dtype) == (np.uint8 if single_digit else np.int64,
                                                     np.int64)
    assert np.array_equal(got.values, want.values)
    if mutation is None:
        assert np.array_equal(got.values, samples.values)


# -- fragment learner against the reference recursion ---------------------------


@st.composite
def learner_cases(draw):
    """A random mixed graph with binary and ternary variables, one or two
    intervened variables that each sit on a bidirected edge (so that most
    draws have fragments), a realization seed and a batch size."""
    g = draw(admgs(max_n=7, max_bidirected=5, cardinalities=(2, 3), min_n=3, min_bidirected=1))
    confounded = sorted({g.names[v] for edge in g.bidirected for v in edge})
    names = draw(st.lists(st.sampled_from(confounded), min_size=1, max_size=2, unique=True))
    x = {n: draw(st.integers(0, g.cards[g.index(n)] - 1)) for n in names}
    return g, x, draw(st.integers(0, 2**16)), draw(st.sampled_from([50, 5_000, 50_000]))


def _rebasing_cases(k=6):
    """The first ``k`` ternary graphs, in seed order, whose fragments rebase at
    step 5c of the recursion."""
    out = []
    rng = np.random.default_rng(5)
    while len(out) < k:
        n = 6 + len(out) % 2
        g = random_admg(int(rng.integers(2**31)), n, n_bidirected=5, max_component=5,
                        cardinality=3)
        x = {g.names[int(rng.integers(n))]: int(rng.integers(3))}
        est = identify(CausalQuery(g, x, frozenset(g.names) - set(x)))
        if isinstance(est, HedgeWitness) or all(t.step != "step5c" for t in est.trace):
            continue
        out.append((g, x, int(rng.integers(2**16)), 50_000))
    return out


def _same_witness(a: HedgeWitness, b: HedgeWitness) -> None:
    assert a.graph == b.graph
    assert a.root_set == b.root_set
    assert a.internal == b.internal


def _check_fragments(g, x, seed, m):
    net = random_net_for(g, seed=seed)
    part = relative_partition(g, g.indices(x))
    frag_names = {key: set(g.names_of(cij)) for key, cij in part.sub_components}
    for source in (exact_observational(net), sample_observational(net, seed + 1, m)):
        try:
            want = ref_learn.learn_r(source, g, part, x)
        except NotIdentifiable as exc:
            with pytest.raises(NotIdentifiable) as got:
                learn_r(source, g, part, x)
            _same_witness(got.value.witness, exc.witness)
            continue
        except ref_learn.PositivityViolation as exc:
            # a fragment after the one that hit the empty event may still be
            # non-identifiable; the package reports that first
            with pytest.raises((PositivityViolation, NotIdentifiable)) as got:
                learn_r(source, g, part, x)
            if isinstance(got.value, PositivityViolation):
                assert (got.value.variable, got.value.event) == (exc.variable, exc.event)
            continue
        got = learn_r(source, g, part, x)
        assert set(got) == set(want)
        for key, fam in want.items():
            table, depth = got[key]
            assert set(fam.variables) == frag_names[key]
            assert set(table.names) == set(fam.names)
            assert np.abs(table.aligned_to(fam.names).probs - fam.arr).max() <= 1e-12
            assert dict(table.context) == fam.fixed
            assert depth == fam.rebase_depth


@settings(max_examples=80, deadline=None)
@given(learner_cases())
def test_fragments_match_reference_recursion(case):
    _check_fragments(*case)


@pytest.mark.parametrize("case", _rebasing_cases())
def test_rebased_fragments_match_reference_recursion(case):
    _check_fragments(*case)


@settings(max_examples=80, deadline=None)
@given(learner_cases())
def test_table_fit_matches_estimand_table(case):
    g, x, seed, _ = case
    obs = exact_observational(random_net_for(g, seed=seed))
    est = identify(CausalQuery(g, x, frozenset(g.names) - set(x)))
    if isinstance(est, HedgeWitness):
        with pytest.raises(NotIdentifiable):
            fit_from_table(obs, g, x)
        return
    try:
        want = est.table(obs, x)
    except ZeroConditioningEvent:
        with pytest.raises((PositivityViolation, ZeroConditioningEvent)):
            fit_from_table(obs, g, x)
        return
    got = fit_from_table(obs, g, x).table().aligned_to(want.names)
    assert np.abs(got.probs - want.probs).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(admgs(max_n=6, max_bidirected=4, cardinalities=(2, 3), min_n=2, min_bidirected=1),
       st.integers(0, 2**16), st.data())
def test_declaration_order_does_not_matter(g, seed, data):
    """A net's nodes declared in a random order, and so its projected graph
    and its tables in that order too, give the oracle, the estimand's table
    and the learned table of the net as first declared."""
    confounded = sorted({g.names[v] for edge in g.bidirected for v in edge})
    picks = data.draw(st.lists(st.sampled_from(confounded), min_size=1,
                               max_size=min(2, g.n - 1), unique=True))
    x = {n: data.draw(st.integers(0, g.cards[g.index(n)] - 1)) for n in picks}
    net = random_net_for(g, seed=seed)
    shuffled = CausalBayesNet(data.draw(st.permutations(net.nodes)))
    tables = []
    for graph_net in (net, shuffled):
        graph, obs = latent_project(graph_net), exact_observational(graph_net)
        assert graph.names == obs.names
        out = [exact_interventional(graph_net, x)]
        est = identify(CausalQuery(graph, x, frozenset(graph.names) - set(x)))
        if isinstance(est, HedgeWitness):
            with pytest.raises(NotIdentifiable):
                fit_from_table(obs, graph, x)
        else:
            out += [est.table(obs, x), fit_from_table(obs, graph, x).table()]
        tables.append(out)
    assert len(tables[0]) == len(tables[1])
    for first, again in zip(*tables):
        assert np.abs(again.aligned_to(first.names).probs - first.probs).max() <= 1e-12


# -- the Bayes-net learner's conditioning sets against effective parents --------


def _batch_conds(g, part):
    """Each non-intervened-component variable's conditioning set as
    ``learn_q`` reads it, on a one-row batch."""
    batch = Samples(g.names, np.zeros((1, g.n), dtype=np.int64))
    return {n: f.cond for n, f in learn_q(batch, g, part).items()}


def _reference_conds(g, part):
    order = g.topological_order()
    return {g.names[i]: g.names_of(ref.effective_parents(g, order, i))
            for i in sorted(part.c_high)}


def test_learner_conditions_on_effective_parents_on_every_sweep_graph():
    graphs = 0
    for _, g in sweep_graphs():
        part = relative_partition(g, ())
        assert _batch_conds(g, part) == _reference_conds(g, part)
        graphs += 1
    assert graphs == 11_946


@settings(max_examples=200, deadline=None)
@given(admgs(max_n=7, max_bidirected=5, cardinalities=(2, 3)), st.data())
def test_learner_conditions_on_effective_parents(g, data):
    x_names = data.draw(st.lists(st.sampled_from(g.names), max_size=2, unique=True))
    part = relative_partition(g, g.indices(x_names))
    want = _reference_conds(g, part)
    uniform = PmfTable(g.names, np.full(g.cards, 1.0 / np.prod(g.cards)))
    from_table = {n: f.cond for n, f in learn_q(uniform, g, part).items()}
    for got in (_batch_conds(g, part), from_table):
        assert list(got.items()) == list(want.items())  # same sets, same factor order


# -- the Bayes-net learner's rows against their former forms ----------------------


@settings(max_examples=200, deadline=None)
@given(admgs(max_n=6, cardinalities=(2, 3)), st.data())
def test_learner_rows_match_reference(g, data):
    """Exact rows equal the one-factor chains they replaced, byte for byte, or
    both fail on the same empty event; batch rows equal add-1 on the counts."""
    x_names = data.draw(st.lists(st.sampled_from(g.names), max_size=2, unique=True))
    part = relative_partition(g, g.indices(x_names))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    zeroed = rng.random(g.cards) < data.draw(st.sampled_from([0.0, 0.3, 0.7]))
    probs = np.where(zeroed, 0.0, rng.random(g.cards))
    probs.flat[rng.integers(probs.size)] = 1.0  # some mass survives
    table = PmfTable(g.names, probs / probs.sum())
    try:
        want = ref.q_from_table(table, g, part)
    except PositivityViolation as exc:
        with pytest.raises(PositivityViolation) as got:
            learn_q(table, g, part)
        assert (got.value.variable, got.value.event) == (exc.variable, exc.event)
    else:
        got = learn_q(table, g, part)
        assert list(got) == list(want)
        for n, f in got.items():
            assert (f.cond, f.kind) == (want[n].cond, want[n].kind)
            assert f.probs.tobytes() == want[n].probs.tobytes()

    values = rng.integers(0, g.cards, size=(data.draw(st.integers(0, 40)), g.n))
    for n, f in learn_q(Samples(g.names, values), g, part).items():
        card = f.target_card
        c = ref.counts_over(g.names, values, f.cond + (n,), f.cond_cards + (card,))
        c = c.reshape(-1, card)
        assert f.probs.tobytes() == ((c + 1) / (c.sum(axis=1, keepdims=True) + card)).tobytes()


# -- row products against their hand-written forms -------------------------------


def _with_zero_entries(net, rng):
    """The same net with about a third of every observable CPT entry set to
    zero (each row keeps its largest entry), so that some conditioning events
    of the oracle carry no mass."""
    nodes = []
    for nd in net.nodes:
        cpt = nd.cpt
        if not nd.hidden:
            keep = rng.random(cpt.shape) >= 0.3
            keep[np.arange(len(cpt)), cpt.argmax(axis=1)] = True
            cpt = np.where(keep, cpt, 0.0)
            cpt = cpt / cpt.sum(axis=1, keepdims=True)
        nodes.append(CbnNode(nd.name, nd.cardinality, nd.parents, cpt, hidden=nd.hidden))
    return CausalBayesNet(nodes)


@st.composite
def oracle_cases(draw):
    """A random mixed graph with binary and ternary variables, realized with
    binary or ternary hidden nodes and optionally zero CPT entries, plus an
    intervention, a skip set of mechanisms and a batch size."""
    g = draw(admgs(max_n=5, max_bidirected=3, cardinalities=(2, 3), min_n=2))
    x_names = draw(st.lists(st.sampled_from(g.names), max_size=2, unique=True))
    x = {n: draw(st.integers(0, g.cards[g.index(n)] - 1)) for n in x_names}
    skip = frozenset(draw(st.lists(st.sampled_from(g.names), max_size=3, unique=True)))
    seed = draw(st.integers(0, 2**16))
    hidden_card = draw(st.sampled_from([2, 3]))
    return g, x, skip, seed, hidden_card, draw(st.booleans()), draw(st.sampled_from([300, 20_000]))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_row_products_match_reference(case):
    g, x, skip, seed, hidden_card, sparse, m = case
    net = random_net_for(g, seed=seed, hidden_cardinality=hidden_card)
    if sparse:
        net = _with_zero_entries(net, np.random.default_rng(seed))
    assert np.array_equal(exact_observational(net).probs, ref.observable_family(net))
    assert np.array_equal(interventional_family(net, skip).probs, ref.observable_family(net, skip))
    oracle = exact_interventional(net, x)
    idx = tuple(x.get(n, slice(None)) for n in net.observables)
    assert np.array_equal(oracle.probs, ref.observable_family(net, frozenset(x))[idx])

    batch = sample_observational(net, seed + 1, m)
    try:
        li = learn_interventional(batch, g, x)
    except (NotIdentifiable, PositivityViolation):
        li = None
    if li is not None:
        assert np.array_equal(li.table().probs, ref.evaluator_table(li))
        got = compare_to_oracle(li, net, x).factor_errors
        want = ref.factor_errors(li, oracle)
        assert [f.target for f in got] == [name for name, _, _ in want]
        for f, (_, event, err) in zip(got, want):
            assert f.worst_event == event
            assert _close(f.abs_error, err)
    if sparse:
        return  # the identities need every conditioning event to carry mass

    obs = exact_observational(net)
    part = relative_partition(g, g.indices(x))
    q_factors = learn_q(batch, g, part)
    low = sorted(g.names_of(part.c_low))
    for fix in iter_assignments(low, [g.cards[g.index(n)] for n in low]):
        for factors in (None, q_factors):
            got_q = tian_q_table(obs, g, part, fix, factors)
            want_q = ref.tian_q_table(obs, g, part, fix, factors)
            assert got_q.names == want_q.names
            assert dict(got_q.context) == dict(want_q.context)
            assert np.abs(got_q.probs - want_q.probs).max(initial=0.0) <= 1e-12
        sides = kl_decomposition_sides(obs, g, part, q_factors, fix)
        want_sides = ref.kl_decomposition_sides(obs, g, part, q_factors, fix)
        assert all(map(_close, sides, want_sides))


def _assert_oracle_matches_reference(net, x):
    idx = tuple(x.get(n, slice(None)) for n in net.observables)
    want = ref.observable_family(net, frozenset(x))
    assert np.array_equal(exact_interventional(net, x).probs, want[idx])
    assert np.array_equal(interventional_family(net, x).probs, want)


def test_oracle_edge_cases_match_reference():
    # B is childless, so once its mechanism is skipped no factor reads its axis
    collider = Admg(("A", "B", "C"), (2, 2, 2), frozenset({(0, 1), (2, 1)}),
                    frozenset({(0, 2)}))
    net = random_net_for(collider, seed=3)
    _assert_oracle_matches_reference(net, {"B": 1})
    assert (exact_interventional(net, {}).probs.tobytes()
            == exact_observational(net).probs.tobytes())
    # no hidden node and every observable intervened: no factor is left
    chain = Admg(("A", "B", "C"), (2, 3, 2), frozenset({(0, 1), (1, 2)}), frozenset())
    _assert_oracle_matches_reference(random_net_for(chain, seed=4), {"A": 1, "B": 2, "C": 0})
    # ternary intervention over ternary hidden nodes
    bow = Admg(("X", "Y", "Z"), (3, 3, 2), frozenset({(0, 1), (1, 2)}),
               frozenset({(0, 1), (0, 2)}))
    _assert_oracle_matches_reference(random_net_for(bow, seed=5, hidden_cardinality=3),
                                     {"X": 2})
    # slicing every observable axis before the hidden sum, or the one observable
    # between two runs of hidden axes, would change the order numpy adds in
    triangle = Admg(("A", "B", "C"), (2, 2, 2), frozenset({(0, 1)}),
                    frozenset({(0, 1), (1, 2), (0, 2)}))
    _assert_oracle_matches_reference(random_net_for(triangle, seed=0), {"A": 1, "B": 0, "C": 1})
    net = random_net_for(triangle, seed=0, hidden_cardinality=3)
    pos = {nd.name: i for i, nd in enumerate(net.nodes)}
    interleaved = CausalBayesNet([net.nodes[pos[n]] for n in ("A", "C", "U0", "B", "U1", "U2")])
    _assert_oracle_matches_reference(interleaved, {"B": 1})


def test_compiled_layouts_give_reference_bytes_over_many_seeds():
    """Realizations of one graph share a compiled layout, and every factor,
    joint and family of each one is byte-equal to the reference kernels,
    with ternary observables and binary or ternary hidden nodes."""
    g = Admg.build([("A", 3), "B", ("C", 3), "D"], [("A", "B"), ("B", "C"), ("A", "D")],
                   [("A", "C"), ("B", "D"), ("C", "D")])
    x = {"B": 1, "D": 0}
    idx = tuple(x.get(n, slice(None)) for n in g.names)
    for hidden_card in (2, 3):
        layouts = set()
        for seed in range(40):
            net = random_net_for(g, seed=seed, hidden_cardinality=hidden_card)
            layouts.add(id(net._layout))
            want = ref.random_net_for(g, seed=seed, hidden_cardinality=hidden_card)
            assert [nd.cpt.tobytes() for nd in net.nodes] == [nd.cpt.tobytes()
                                                               for nd in want.nodes]
            for (name, got), nd in zip(net._mechanisms, net.nodes, strict=True):
                assert name == nd.name
                assert got.shape == ref.mechanism_factor(net, nd).shape
                assert got.tobytes() == ref.mechanism_factor(net, nd).tobytes()
            assert exact_observational(net).probs.tobytes() == ref.observable_family(net).tobytes()
            family = ref.observable_family(net, frozenset(x))
            assert exact_interventional(net, x).probs.tobytes() == family[idx].tobytes()
            assert interventional_family(net, x).probs.tobytes() == family.tobytes()
        assert len(layouts) == 1


def _chain_nodes(order=("A", "B", "C"), cards=(2, 2, 2), hidden=()):
    """A → B → C as nodes with random rows, declared in ``order``."""
    rng = np.random.default_rng(len(order))
    parents = {"A": (), "B": ("A",), "C": ("B",)}
    card = dict(zip("ABC", cards))
    return [CbnNode(n, card[n], parents[n],
                    rng.dirichlet(np.ones(card[n]), size=int(np.prod([card[p] for p in parents[n]]))),
                    hidden=n in hidden) for n in order]


def test_nets_that_differ_in_structure_get_their_own_layout():
    base = CausalBayesNet(_chain_nodes())
    flipped = _chain_nodes()
    flipped[2] = CbnNode("C", 2, ("A",), flipped[2].cpt)  # same names, another parent
    variants = [
        CausalBayesNet(_chain_nodes(order=("C", "B", "A"))),
        CausalBayesNet(flipped),
        CausalBayesNet(_chain_nodes(cards=(2, 3, 2))),
        CausalBayesNet(_chain_nodes(hidden=("A",))),
    ]
    assert CausalBayesNet(_chain_nodes())._layout is base._layout
    assert len({id(net._layout) for net in [base, *variants]}) == 5
    assert variants[0].topological_order() == ("A", "B", "C")
    assert variants[0].names == ("C", "B", "A")
    assert variants[3].observables == ("B", "C")
    for net in [base, *variants]:
        assert net.topological_order() == ref.net_topological_order(net)
        assert exact_observational(net).probs.tobytes() == ref.observable_family(net).tobytes()
        _assert_oracle_matches_reference(net, {"B": 1})


def test_a_failed_compile_is_not_cached():
    cyclic = _chain_nodes()
    cyclic[0] = CbnNode("A", 2, ("C",), np.full((2, 2), 0.5))
    unknown = _chain_nodes()
    unknown[2] = CbnNode("C", 2, ("Z",), unknown[2].cpt)
    own_parent, twice_named, twice_read = _chain_nodes(), _chain_nodes(), _chain_nodes()
    own_parent[1] = CbnNode("B", 2, ("B",), np.full((2, 2), 0.5))
    twice_named.append(CbnNode("A", 2, (), [[0.5, 0.5]]))
    twice_read[1] = CbnNode("B", 2, ("A", "A"), np.full((4, 2), 0.5))
    for _ in range(2):
        with pytest.raises(CycleDetected):
            CausalBayesNet(cyclic)
        with pytest.raises(GraphError, match="unknown parent 'Z'"):
            CausalBayesNet(unknown)
        with pytest.raises(GraphError, match="self-loop at variable 'B'"):
            CausalBayesNet(own_parent)
        with pytest.raises(GraphError, match="variable names must be unique"):
            CausalBayesNet(twice_named)
        with pytest.raises(GraphError, match="B: duplicate parents"):
            CausalBayesNet(twice_read)
    short = _chain_nodes()
    short[1] = CbnNode("B", 2, ("A",), short[1].cpt[:1])
    for _ in range(2):  # the layout compiles; each net still checks its own rows
        with pytest.raises(GraphError, match="B: cpt has 1 rows, expected 2"):
            CausalBayesNet(short)
    assert CausalBayesNet(_chain_nodes()).topological_order() == ("A", "B", "C")


@settings(max_examples=150, deadline=None)
@given(admgs(max_n=5, max_bidirected=4, cardinalities=(2, 3)), st.sampled_from([2, 3]),
       st.integers(0, 2**16), st.randoms(use_true_random=False))
def test_projection_and_order_match_the_parent_walk(g, hidden_card, seed, rnd):
    """A standard-form net projects back onto its graph, also with its nodes
    declared in another order, as the walk over each node's parents says;
    its sampling order is the re-sorted Kahn sort's, and strong positivity
    reads each component's Pa+ in the graph."""
    net = random_net_for(g, seed=seed, hidden_cardinality=hidden_card)
    assert latent_project(net) == ref.latent_project(net) == g
    shuffled = CausalBayesNet(rnd.sample(net.nodes, len(net.nodes)))
    assert latent_project(shuffled) == ref.latent_project(shuffled)
    for n in (net, shuffled):
        assert n.topological_order() == ref.net_topological_order(n)
    comps = [g.names_of(c) for c in g.c_components()]
    _, reports = check_strong_positivity(net, comps, alpha=0.0)
    for comp, report in zip(comps, reports, strict=True):
        assert report.event_scope == g.names_of(g.pa_plus(g.indices(comp)))


def test_a_net_above_the_ceiling_compiles_without_a_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("an open grid was formed")

    monkeypatch.setattr(np, "indices", no_grid)
    names = [f"V{i}" for i in range(30)]
    nodes = [CbnNode(names[0], 2, (), [[0.5, 0.5]])]
    nodes += [CbnNode(n, 2, (p,), [[0.9, 0.1], [0.2, 0.8]]) for p, n in zip(names, names[1:])]
    net = CausalBayesNet(nodes)
    assert net.joint_states() == 2**30
    assert net.topological_order() == tuple(names)
    for oracle in (exact_observational, lambda net: interventional_family(net, {"V3"}),
                   lambda net: exact_interventional(net, {"V3": 1})):
        with pytest.raises(StateSpaceTooLarge):
            oracle(net)
    assert sample_observational(net, seed=0, m=5).values.shape == (5, 30)


# -- bare marginal reads against the table-wrapping readers they replaced -------


def _names_reversed(g):
    """``g`` with its variables listed in reverse, so that table order is not
    a topological order."""
    return Admg.build([(n, c) for n, c in zip(reversed(g.names), reversed(g.cards))],
                      [(g.names[a], g.names[b]) for a, b in g.directed],
                      [(g.names[a], g.names[b]) for a, b in g.bidirected])


def _marginal_reader_cases():
    """(graph, intervention, net seed, hidden cardinality, batch size): fig3a
    and fig4a with their queries, fig3a with no intervention, both realized
    again with ternary hidden nodes and with their variables listed in
    reverse, and the ternary graphs whose fragments rebase at step 5c, some
    with context axes after a fragment variable."""
    fig3a, fig4a = fig3a_graph(), fig4a_graph()
    return [(fig3a, {"X": 0}, 7, 2, 20_000), (fig3a, {}, 7, 2, 20_000),
            (fig4a, {"W": 0, "R": 0, "X": 1}, 11, 2, 20_000),
            (fig3a, {"X": 1}, 3, 3, 20_000), (fig4a, {"W": 1, "R": 0, "X": 0}, 5, 3, 20_000),
            (_names_reversed(fig3a), {"X": 0}, 7, 2, 20_000),
            (_names_reversed(fig4a), {"W": 0, "R": 0, "X": 1}, 11, 2, 20_000),
            *((g, x, seed, 2, m) for g, x, seed, m in _rebasing_cases())]


@pytest.mark.parametrize("case", _marginal_reader_cases())
def test_marginal_readers_match_table_wrapping_reference(case):
    g, x, seed, hidden_card, m = case
    net = random_net_for(g, seed=seed, hidden_cardinality=hidden_card)
    obs = exact_observational(net)
    batch = sample_observational(net, seed + 1, m)
    part = relative_partition(g, g.indices(x))
    fragments = dict(part.sub_components)
    for source in (batch, obs):
        try:
            li = learn_interventional(batch, g, x) if source is batch else fit_from_table(obs, g, x)
        except PositivityViolation:
            assert source is batch  # a fragment event the batch never saw
            continue
        want = dict(learn_q(batch, g, part) if source is batch
                    else ref.learn_q_by_tables(obs, g, part))
        for key, (table, _) in learn_r(source, g, part, x).items():
            want.update(ref.family_conditionals(table, g.names_of(fragments[key]), g))
        assert set(li.factors) == set(want)
        for name, f in li.factors.items():
            assert np.array_equal(f.probs, want[name].probs)
            assert (f.counts is None) == (want[name].counts is None)
            assert f.counts is None or np.array_equal(f.counts, want[name].counts)
        want_li = LearnedInterventional(g, x, li.order, want, li.metadata)
        assert dump_json(li_to_dict(li)) == dump_json(li_to_dict(want_li))
        assert compare_to_oracle(li, net, x) == ref.compare_to_oracle_by_tables(li, net, x)
    comps = [g.names_of(c) for c in part.components]
    assert check_strong_positivity(net, comps, 0.05) == ref.strong_positivity(net, comps, 0.05)
    q_factors = learn_q(batch, g, part)
    low = sorted(g.names_of(part.c_low))
    for fix in iter_assignments(low, [g.cards[g.index(n)] for n in low]):
        assert kl_decomposition_sides(obs, g, part, q_factors, fix) \
            == ref.kl_sides_by_tables(obs, g, part, q_factors, fix)


# -- compiled estimand plans and run-drawn nets against their former forms -------


@st.composite
def estimand_cases(draw):
    """A random mixed graph with binary and ternary variables, an intervention
    on one or two variables, a realization with binary or ternary hidden
    nodes (optionally with zero CPT entries), and a batch size small enough
    that some conditioning events are empty."""
    g = draw(admgs(max_n=6, max_bidirected=4, cardinalities=(2, 3), min_n=3))
    names = draw(st.lists(st.sampled_from(g.names), min_size=1, max_size=2, unique=True))
    x = {n: draw(st.integers(0, g.cards[g.index(n)] - 1)) for n in names}
    seed = draw(st.integers(0, 2**16))
    return (g, x, seed, draw(st.sampled_from([2, 3])), draw(st.booleans()),
            draw(st.sampled_from([20, 300, 20_000])))


def _check_plans(g, x, net, m, seed):
    est = identify(CausalQuery(g, x, frozenset(g.names) - set(x)))
    if isinstance(est, HedgeWitness):
        return
    accesses = (exact_observational(net),
                EmpiricalAccess(sample_observational(net, seed, m), g.cards))
    _plan.cache_clear()  # shared by both accesses: the plan depends on names only
    for access in accesses:
        # the family table (free references as axes) and one intervention
        for fixed in ({n: 0 for n in est.arbitrary},
                      {**dict.fromkeys(est.arbitrary, 0), **x}):
            def run():
                return full_table(est.expr, access, fixed)

            try:
                want_names, want = ref.node_table(est.expr, access, fixed)
            except PositivityViolation as exc:
                for _ in range(2):
                    with pytest.raises(PositivityViolation) as got:
                        run()
                    assert (got.value.variable, got.value.event) == (exc.variable, exc.event)
                continue
            for _ in range(2):  # compiled on first use, then reused from the cache
                got = run()
                assert got.names == want_names
                assert got.probs.shape == want.shape
                assert got.probs.tobytes() == want.tobytes()
        _check_points(est, access, x)


def _check_points(est, access, x):
    """Point evaluation at every target assignment of the intervention: the
    reference's value to 1e-12, or a positivity error wherever it raises."""
    targets = sorted(est.targets, key=est.graph.names.index)
    cards = [est.graph.cards[est.graph.index(n)] for n in targets]
    for point in iter_assignments(targets, cards):
        env = {**dict.fromkeys(est.arbitrary, 0), **x, **point}
        try:
            want = ref.evaluate(est.expr, access, env)
        except PositivityViolation:
            with pytest.raises(PositivityViolation):
                evaluate(est.expr, access, env)
            continue
        assert abs(evaluate(est.expr, access, env) - want) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(estimand_cases())
def test_compiled_plans_match_reference_interpreter(case):
    g, x, seed, hidden_card, sparse, m = case
    net = random_net_for(g, seed=seed, hidden_cardinality=hidden_card)
    if sparse:
        net = _with_zero_entries(net, np.random.default_rng(seed))
    _check_plans(g, x, net, m, seed + 1)


@pytest.mark.parametrize("seed", range(60))
def test_compiled_plans_match_reference_on_tiny_batches(seed):
    # denser confounding than the drawn graphs: many of these hit an empty
    # conditioning event whose reported event includes sliced interventions
    g = random_admg(seed, 5, n_bidirected=3, cardinality=2 + seed % 2)
    x = {g.names[int(np.random.default_rng(seed).integers(5))]: 0}
    _check_plans(g, x, random_net_for(g, seed=seed), 20, seed)


def test_one_plan_serves_a_table_and_a_batch_with_the_same_names():
    g = fig4a_graph()
    x = {"W": 0, "R": 1, "X": 0}
    est = identify(CausalQuery(g, x, frozenset({"Y"})))
    fixed = {**dict.fromkeys(est.arbitrary, 0), **x}
    net = random_net_for(g, seed=11)
    accesses = (exact_observational(net),
                EmpiricalAccess(sample_observational(net, 3, 20_000), g.cards))
    assert accesses[0].names == accesses[1].names
    _plan.cache_clear()
    for access in accesses:
        want_names, want = ref.node_table(est.expr, access, fixed)
        got = full_table(est.expr, access, fixed)
        assert got.names == want_names
        assert got.probs.tobytes() == want.tobytes()
    assert _plan.cache_info()[:2] == (1, 1)  # (hits, misses)


# the binary graphs random_admg(seed, 5, n_bidirected=3, max_component=5) with
# target sets whose estimand nests a chain product inside another's child,
# found by a search over seeds 0-999; the drawn graphs above almost never do,
# and there the point and table binding rules differ most
NESTED_CHAIN_SEEDS = (82, 88, 222, 321, 343, 372, 385, 417, 482, 530, 595, 668, 699,
                      872, 887, 942)


@pytest.mark.parametrize("seed", NESTED_CHAIN_SEEDS)
def test_points_match_reference_on_nested_chains(seed):
    g = random_admg(seed, 5, n_bidirected=3, max_component=5)
    net = random_net_for(g, seed=seed)
    rng = np.random.default_rng(seed)
    nested = 0
    for r in range(1, g.n):
        for targets in itertools.combinations(g.names, r):
            x = {n: int(rng.integers(g.cards[g.index(n)])) for n in g.names if n not in targets}
            est = identify(CausalQuery(g, x, frozenset(targets)))
            if isinstance(est, HedgeWitness) or chain_depth(est.expr) < 2:
                continue
            nested += 1
            _check_plans(g, x, net, 30, seed + nested)
    assert nested


@pytest.mark.parametrize("seed", range(24))
def test_points_match_reference_on_fig4a_tiny_batches(seed):
    g = fig4a_graph()
    x = dict(zip(("W", "R", "X"), map(int, np.random.default_rng(seed).integers(2, size=3))))
    _check_plans(g, x, random_net_for(g, seed=seed), 10 + 5 * (seed % 4), seed)


def test_points_match_reference_where_conditioning_sets_are_not_nested():
    # identify's chains condition on nested sets; a hand-built chain need not.
    # Factor C reads the child at A=0, factor D at B=0, so neither reaches the
    # empty event (A=1, B=1) that the child's own factors condition on
    abcd = ("A", "B", "C", "D")
    probs = np.random.default_rng(5).dirichlet(np.ones(16)).reshape((2,) * 4)
    probs[1, 1] = 0.0
    obs = PmfTable(abcd, probs / probs.sum())
    inner = ChainProduct(BaseDist(abcd), abcd, (("A", ()), ("B", ()), ("C", ("A", "B")),
                                                ("D", ("A", "B", "C"))))
    outer = ChainProduct(inner, ("C", "D"), (("C", ("A",)), ("D", ("B",))))
    for c, d in itertools.product(range(2), repeat=2):
        env = {"A": 0, "B": 0, "C": c, "D": d}
        assert abs(evaluate(outer, obs, env) - ref.evaluate(outer, obs, env)) <= 1e-12
    with pytest.raises(PositivityViolation):
        evaluate(outer, obs, {"A": 1, "B": 1, "C": 0, "D": 0})


@settings(max_examples=100, deadline=None)
@given(admgs(max_n=6, max_bidirected=4, cardinalities=(2, 3)),
       st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([0.0, 0.1, 0.3]))
def test_random_net_rows_match_per_node_draws(g, seed, hidden_card, gamma):
    got = random_net_for(g, seed=seed, gamma=gamma, hidden_cardinality=hidden_card)
    want = ref.random_net_for(g, seed=seed, gamma=gamma, hidden_cardinality=hidden_card)
    assert got.names == want.names
    for a, b in zip(got.nodes, want.nodes):
        assert (a.name, a.cardinality, a.parents, a.hidden) == (b.name, b.cardinality,
                                                                b.parents, b.hidden)
        assert a.cpt.shape == b.cpt.shape
        assert a.cpt.tobytes() == b.cpt.tobytes()


@settings(max_examples=100, deadline=None)
@given(admgs(max_n=6, max_bidirected=4), st.randoms(use_true_random=False))
def test_net_topological_order_matches_reference(g, rnd):
    nodes = list(random_net_for(g, seed=0).nodes)
    rnd.shuffle(nodes)  # declaration order no longer topological
    net = CausalBayesNet(nodes)
    assert net.topological_order() == ref.net_topological_order(net)


# -- random instances: union-find generator and one-pass standard form --------

# observable names that the hidden names U0 and U1 must step around (to _U0
# and __U1), given to the first vertices of a graph
COLLIDING = ("U0", "U1", "_U1")


def _check_random_instance(seed, n, max_in_degree, n_bidirected, max_component, cardinality):
    """The generator draws the reference's graph, or both reject the call;
    the standard form of the graph, and of it with colliding names, is the
    reference's."""
    args = (seed, n, max_in_degree, n_bidirected, max_component, cardinality)
    try:
        want = ref.random_admg(*args)
    except ValueError:  # numpy cannot draw a pair among fewer than two variables
        assert n_bidirected > 0 and n < 2
        with pytest.raises(ValueError, match="^n_bidirected must"):
            random_admg(*args)
        return
    got = random_admg(*args)
    assert got == want
    assert len(got.bidirected) <= n_bidirected
    assert max((len(c) for c in got.c_components()), default=0) <= max(max_component, 1)
    renamed = Admg(COLLIDING[:n] + got.names[len(COLLIDING):], got.cards, got.directed,
                   got.bidirected)
    for g in (got, renamed):
        for hidden_card in (2, 3):
            assert standard_form(g, hidden_card) == ref.standard_form(g, hidden_card)


def _generator_grid(n):
    """Every in-degree bound, edge counts up to one past the number of pairs
    (the attempt cap) on up to 7 variables, and component bounds from 0 to n,
    with cardinalities 1 to 3."""
    pairs = n * (n - 1) // 2
    edge_counts = {0, 1, 2, n // 3} | ({pairs, pairs + 1} if n <= 7 else {n} if n <= 16 else set())
    for d in range(5):
        for b in sorted(edge_counts):
            for k in sorted({0, 1, 2, 3, n // 2, n}):
                yield d, b, k, 1 + (d + b + k) % 3


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 9, 16, 40])
def test_random_admg_matches_reference_on_a_grid(n):
    for seed, (d, b, k, card) in enumerate(_generator_grid(n)):
        _check_random_instance(1000 * n + seed, n, d, b, k, card)


@st.composite
def generator_args(draw):
    n = draw(st.integers(0, 40))
    pairs = n * (n - 1) // 2
    return (draw(st.integers(0, 2**32 - 1)), n, draw(st.integers(0, 4)),
            draw(st.integers(0, pairs + 2 if n <= 7 else n)),
            draw(st.integers(0, n)), draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(generator_args())
def test_random_admg_matches_reference(args):
    _check_random_instance(*args)


# -- witness pairs: built from the hedge, beside the former seeded search ------


def _assert_both_witness(g, x, seed):
    """The reference search finds a pair, and the built pair agrees
    observationally, differs under ``do(x)`` and realizes ``g``."""
    assert ref.indistinguishable_pair(g, x, seed=seed) is not None
    pair = indistinguishable_pair(g, x)
    assert pair.observational_tv == 0.0
    assert pair.interventional_tv >= 1e-3
    assert latent_project(pair.net_a) == g
    assert latent_project(pair.net_b) == g


def test_witness_pairs_match_reference_on_criterion_4_hedges():
    graphs = [g for _, g in sweep_graphs()]  # 543 DAGs, 22 bidirected sets each
    assert len(graphs) == 543 * 22
    hedges = 0
    for d in np.random.default_rng(4).choice(543, size=16, replace=False):
        for b in range(22):
            g = graphs[22 * d + b]
            for xi, name in enumerate(g.names):
                x = {name: int(d + b + xi) % 2}
                if is_identifiable(CausalQuery(g, x, frozenset(g.names) - {name})):
                    continue
                hedges += 1
                seed = int(d) * 100 + b
                _assert_both_witness(g, x, seed)
    assert hedges > 100


def test_witness_pairs_match_reference_with_three_hidden_bits():
    hedges = 0
    for seed in range(24):
        g = random_admg(seed, 5, n_bidirected=3, max_component=5)
        assert len(g.bidirected) == 3
        rng = np.random.default_rng(seed)
        for names in itertools.chain(itertools.combinations(g.names, 1),
                                     itertools.combinations(g.names, 2)):
            x = {n: int(rng.integers(2)) for n in names}
            if is_identifiable(CausalQuery(g, x, frozenset(g.names) - set(x))):
                continue
            hedges += 1
            _assert_both_witness(g, x, seed)
    assert hedges > 50
