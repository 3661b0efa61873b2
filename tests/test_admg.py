import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolearn.admg import Admg, CycleDetected, GraphError
from dolearn.identify import chain_conds

from .conftest import admgs, fig3b_graph, fig4b_graph


def names_of(g, idxs):
    return set(g.names_of(idxs))


def effective_parents(g, vi):
    """``vi``'s conditioning set: the ``chain_conds`` of its c-component."""
    comp = next(c for c in g.c_components() if vi in c)
    conds = dict(chain_conds(g, g.topological_order(), comp, frozenset(range(g.n))))
    return g.indices(conds[g.names[vi]])


class TestConstruction:
    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            Admg.build(["A", "B"], [("A", "B"), ("B", "A")])

    def test_duplicate_names(self):
        with pytest.raises(GraphError):
            Admg.build(["A", "A"])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            Admg.build(["A", "B"], [("A", "A")])

    def test_unknown_endpoint(self):
        with pytest.raises(GraphError):
            Admg.build(["A"], [("A", "B")])

    def test_duplicate_edge(self):
        with pytest.raises(GraphError):
            Admg.build(["A", "B"], [("A", "B"), ("A", "B")])


class TestTopologicalOrder:
    def test_chain_unique(self):
        g = Admg.build(["X", "Z1", "Z2"], [("X", "Z1"), ("Z1", "Z2")])
        assert [g.names[i] for i in g.topological_order()] == ["X", "Z1", "Z2"]

    def test_fig3a(self, fig3a):
        assert [fig3a.names[i] for i in fig3a.topological_order()] == ["X", "Z1", "Z2", "Y"]

    def test_edgeless_tie_break(self):
        g = Admg.build(["A", "B"])
        assert [g.names[i] for i in g.topological_order()] == ["A", "B"]


class TestAncestors:
    def test_fig4a(self, fig4a):
        assert names_of(fig4a, fig4a.ancestors(fig4a.indices({"Y"}))) == {"W", "R", "X", "Y"}

    def test_all_vars(self, fig3a):
        all_idx = fig3a.indices(fig3a.names)
        assert fig3a.ancestors(all_idx) == all_idx

    def test_source(self):
        g = Admg.build(["X", "Y"], [("X", "Y")])
        assert names_of(g, g.ancestors(g.indices({"X"}))) == {"X"}


class TestCComponents:
    def test_fig3a(self, fig3a):
        comps = [names_of(fig3a, c) for c in fig3a.c_components()]
        assert comps == [{"X", "Z2"}, {"Z1", "Y"}]

    def test_fig4a(self, fig4a):
        comps = [names_of(fig4a, c) for c in fig4a.c_components()]
        assert comps == [{"W", "X", "Y"}, {"R"}]

    def test_no_bidirected_all_singletons(self):
        g = Admg.build(["A", "B", "C"], [("A", "B")])
        assert [len(c) for c in g.c_components()] == [1, 1, 1]


class TestEffectiveParents:
    def test_fig3a_y(self, fig3a):
        z = effective_parents(fig3a, fig3a.index("Y"))
        assert names_of(fig3a, z) == {"X", "Z1", "Z2"}

    def test_first_in_order(self, fig3a):
        assert effective_parents(fig3a, fig3a.index("X")) == frozenset()

    def test_singleton_component_plain_parents(self):
        g = Admg.build(["A", "B"], [("A", "B")])
        assert names_of(g, effective_parents(g, g.index("B"))) == {"A"}


class TestInducedSubgraph:
    def test_fig4a_to_fig4b(self, fig4a):
        sub = fig4a.induced_subgraph(fig4a.indices({"W", "X", "Y"}))
        assert sub == fig4b_graph()

    def test_full_identity(self, fig3a):
        assert fig3a.induced_subgraph(range(fig3a.n)) == fig3a

    def test_fig3a_to_fig3b(self, fig3a):
        sub = fig3a.induced_subgraph(fig3a.indices({"X", "Z1", "Z2"}))
        assert sub == fig3b_graph()


@settings(max_examples=60)
@given(admgs())
def test_c_components_partition(g):
    comps = g.c_components()
    union = frozenset().union(*comps)
    assert union == frozenset(range(g.n))
    assert sum(len(c) for c in comps) == g.n


@settings(max_examples=60)
@given(admgs())
def test_c_components_internally_connected(g):
    for comp in g.c_components():
        if len(comp) < 2:
            continue
        start = min(comp)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for a, b in g.bidirected:
                if u == a and b in comp and b not in seen:
                    seen.add(b)
                    stack.append(b)
                if u == b and a in comp and a not in seen:
                    seen.add(a)
                    stack.append(a)
        assert seen == comp


@settings(max_examples=60)
@given(admgs(), st.data())
def test_ancestors_monotone_and_idempotent(g, data):
    universe = list(range(g.n))
    y1 = frozenset(data.draw(st.lists(st.sampled_from(universe), unique=True)))
    extra = frozenset(data.draw(st.lists(st.sampled_from(universe), unique=True)))
    y2 = y1 | extra
    a1, a2 = g.ancestors(y1), g.ancestors(y2)
    assert a1 <= a2
    assert g.ancestors(a1) == a1


@settings(max_examples=60)
@given(admgs(), st.data())
def test_effective_parents_in_prefix(g, data):
    order = g.topological_order()
    vi = data.draw(st.sampled_from(list(range(g.n))))
    z = effective_parents(g, vi)
    prefix = frozenset(order[: order.index(vi)])
    assert z <= prefix
    if not g.bidirected:
        assert z == g.parents(vi) & prefix


@settings(max_examples=60)
@given(admgs(), st.data())
def test_induced_subgraph_respects_components(g, data):
    comps = list(g.c_components())
    chosen = data.draw(st.lists(st.sampled_from(comps), unique=True))
    if not chosen:
        return
    s = frozenset().union(*chosen)
    sub = g.induced_subgraph(s)
    sub_comps = {frozenset(sub.names[i] for i in c) for c in sub.c_components()}
    expected = {frozenset(g.names[i] for i in c) for c in chosen}
    assert sub_comps == expected


@pytest.mark.parametrize("build, message", [
    (lambda: Admg(("A", "B"), (2,), (), ()), "names and cardinalities differ in length"),
    (lambda: Admg(("A", "B"), (2, 2), {(0, 2)}, ()),
     "edge (0,2) references an unknown variable"),
    (lambda: Admg(("A", "B"), (2, 2), (), {(-1, 1)}),
     "edge (-1,1) references an unknown variable"),
    (lambda: Admg.build(["A", "B"]).index("Q"), "unknown variable 'Q'"),
])
def test_named_graph_errors(build, message):
    with pytest.raises(GraphError) as exc:
        build()
    assert str(exc.value) == message
