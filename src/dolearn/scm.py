"""Ground-truth causal Bayes nets with explicit hidden variables.

This is the verification backbone: it can sample observational data, compute
exact observational and interventional tables by brute-force enumeration, and
project the hidden structure down to an ADMG over the observables. Everything
here favors auditability over asymptotics; state spaces are capped at desk
scale.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .admg import Admg, GraphError
from .tables import (
    PmfTable,
    Samples,
    ancestral_sample,
    as_integer,
    check_rows,
    row_index,
    strides_for,
)

STATE_CEILING = 2**24


class StateSpaceTooLarge(ValueError):
    """The joint state space exceeds the brute-force enumeration ceiling."""


class NonStandardForm(ValueError):
    """A hidden variable has parents or does not have exactly two observable children."""


@dataclass(frozen=True, eq=False)
class CbnNode:
    """One mechanism: a variable, its parents, and a conditional table.

    ``cpt`` has one row per parent configuration (row-major in ``parents``
    order) and one column per symbol; every row sums to 1. Rows nested over
    the parents, as a net JSON file holds them, are read by their last axis.
    """

    name: str
    cardinality: int
    parents: tuple[str, ...]
    cpt: np.ndarray
    hidden: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        cpt = np.asarray(self.cpt, dtype=np.float64)
        if cpt.ndim != 2:  # one row, or rows nested over the parents, symbols last
            cpt = cpt.reshape(math.prod(cpt.shape[:-1]), cpt.shape[-1])
        object.__setattr__(self, "cpt", cpt)
        if self.cardinality < 1:
            raise GraphError(f"{self.name}: cardinality must be positive")
        if cpt.shape[1] != self.cardinality:
            raise GraphError(f"{self.name}: cpt has {cpt.shape[1]} columns, "
                             f"expected {self.cardinality}")
        check_rows(self.name, "cpt", cpt, GraphError)


class _Layout:
    """Everything about a net that its CPT values do not touch, compiled from
    the node signatures ``(name, cardinality, parents, hidden)`` in declaration
    order: the structure checks, the DAG over every node as an ``Admg`` and
    its topological order (parents before children; among ready nodes,
    declaration order first), each node's parent strides and expected row
    count, the state space and its hidden axes, and on first use the DAG on
    the observables and each node's gather index over the open grid."""

    def __init__(self, signature: tuple[tuple[str, int, tuple[str, ...], bool], ...]):
        self.names = tuple(name for name, _, _, _ in signature)
        self.pos = {name: i for i, name in enumerate(self.names)}
        self.shape = tuple(card for _, card, _, _ in signature)
        self.signature = signature
        strides, rows, directed = [], [], set()
        for i, (name, _, parents, _) in enumerate(signature):
            if len(set(parents)) != len(parents):  # an Admg would merge the two edges
                raise GraphError(f"{name}: duplicate parents")
            for p in parents:
                if p not in self.pos:
                    raise GraphError(f"{name}: unknown parent {p!r}")
                directed.add((self.pos[p], i))
            cards = [self.shape[self.pos[p]] for p in parents]
            strides.append(strides_for(cards))
            rows.append(math.prod(cards))
        self.strides, self.rows = tuple(strides), tuple(rows)  # shared: kept immutable
        # raises GraphError on a repeated name or a self-parent, CycleDetected on a cycle
        self.graph = Admg(self.names, self.shape, frozenset(directed), frozenset())
        self.order = tuple(self.names[i] for i in self.graph.topological_order())
        self.joint_states = math.prod(self.shape)
        self.observables = tuple(name for name, _, _, hidden in signature if not hidden)
        self.hiddens = tuple(name for name, _, _, hidden in signature if hidden)
        self.hidden_axes = tuple(i for i, (_, _, _, hidden) in enumerate(signature) if hidden)
        # Each maximal run of consecutive observables, length-1 axes aside, that
        # comes after a hidden axis in declaration order. Slicing a whole run away
        # before the hidden sum would leave hidden axes innermost or join two runs
        # of them, and numpy would then add them in another order.
        runs = itertools.groupby((s for s in signature if s[1] > 1), key=lambda s: s[3])
        self.runs_after_hidden = tuple(tuple(s[0] for s in run) for k, (hidden, run)
                                       in enumerate(runs) if k > 0 and not hidden)

    @cached_property
    def observed(self) -> Admg:
        """The DAG induced on the observables, indexed in declaration order."""
        return self.graph.induced_subgraph(set(range(len(self.names))) - set(self.hidden_axes))

    @cached_property
    def gathers(self) -> tuple[np.ndarray, ...]:
        """Per node, the flat index into its CPT of the entry at every point of
        an open grid over all nodes, with length-1 axes for the nodes it does
        not read; only a net under :data:`STATE_CEILING` asks for it."""
        grid = dict(zip(self.names, np.indices(self.shape, sparse=True)))
        return tuple(row_index(parents, strides, grid) * card + grid[name]
                     for (name, card, parents, _), strides in zip(self.signature, self.strides))


# Bounded: a sweep realizes each graph back to back, so one entry per graph in
# flight is all the reuse there is.
_layout = functools.lru_cache(maxsize=64)(_Layout)


class CausalBayesNet:
    """A Bayes net over observables and hidden variables, read causally.

    The node list fixes the variable order used for tables and samples.
    Instances are immutable after construction. Nets whose nodes have the
    same names, cardinalities, parents and hidden flags in the same order
    share one compiled layout; each net checks its own CPT row counts.
    """

    def __init__(self, nodes: Sequence[CbnNode]):
        self.nodes: tuple[CbnNode, ...] = tuple(nodes)
        self._layout = _layout(tuple((nd.name, nd.cardinality, nd.parents, nd.hidden)
                                     for nd in self.nodes))
        for nd, expected_rows in zip(self.nodes, self._layout.rows):
            if nd.cpt.shape[0] != expected_rows:
                raise GraphError(f"{nd.name}: cpt has {nd.cpt.shape[0]} rows, "
                                 f"expected {expected_rows}")

    @classmethod
    def _compiled(cls, nodes: tuple[CbnNode, ...], layout: _Layout) -> "CausalBayesNet":
        """A net over nodes that are known to match ``layout`` and to hold
        checked CPT rows, built without checking them again."""
        net = object.__new__(cls)
        net.nodes, net._layout = nodes, layout
        return net

    def node(self, name: str) -> CbnNode:
        try:
            return self.nodes[self._layout.pos[name]]
        except KeyError:
            raise GraphError(f"unknown variable {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return self._layout.names

    @property
    def observables(self) -> tuple[str, ...]:
        return self._layout.observables

    @property
    def hiddens(self) -> tuple[str, ...]:
        return self._layout.hiddens

    def cardinality(self, name: str) -> int:
        return self.node(name).cardinality

    def topological_order(self) -> tuple[str, ...]:
        """Parents before children; among ready nodes, declaration order first."""
        return self._layout.order

    def joint_states(self) -> int:
        return self._layout.joint_states

    @cached_property
    def _mechanisms(self) -> tuple[tuple[str, np.ndarray], ...]:
        """Every mechanism's CPT entries gathered over the layout's open grid,
        in declaration order, so that products of them broadcast: built once
        per net, because the oracle multiplies the same factors again for
        every intervened set, starting from the first and in this order."""
        return tuple((nd.name, nd.cpt.ravel()[at])
                     for nd, at in zip(self.nodes, self._layout.gathers))


def _full_joint(
    net: CausalBayesNet,
    skip: frozenset[str] = frozenset(),
    fixed: Mapping[str, int] | None = None,
) -> np.ndarray:
    """Truncated-factorization array over the observables: the product of every
    mechanism outside ``skip``, with the hidden axes summed out. Skipped
    variables keep their axes but carry no factor.

    The product starts from the first factor and multiplies the others in
    declaration order, growing by broadcasting, so each entry takes the same
    multiplications in the same order as from a full array of ones. Each axis
    of ``fixed`` (a subset of ``skip``) is sliced to its value before
    multiplying and is returned with length 1. The hidden axes are summed
    over a C-ordered array; a run of the layout's ``runs_after_hidden`` wholly in
    ``fixed`` keeps its last axis until after that sum. numpy then adds in
    the order it would over the unsliced array, so every entry is
    bit-identical to the same slice of it.
    """
    fixed = fixed or {}
    for name in skip:
        if net.node(name).hidden:
            raise GraphError(f"cannot intervene on hidden variable {name!r}")
    if net.joint_states() > STATE_CEILING:
        raise StateSpaceTooLarge(
            f"joint state space {net.joint_states()} exceeds ceiling {STATE_CEILING}"
        )
    layout = net._layout
    shape = layout.shape
    late: set[str] = set()
    cuts: list[tuple[int, tuple[slice, ...]]] = []
    if fixed:
        late = {run[-1] for run in layout.runs_after_hidden if all(n in fixed for n in run)}
        cuts = [(i, (slice(None),) * i + (slice(fixed[nd.name], fixed[nd.name] + 1),))
                for i, nd in enumerate(net.nodes) if nd.name in fixed and nd.name not in late]
        shape = tuple(1 if (nd.name in fixed and nd.name not in late) else k
                      for nd, k in zip(net.nodes, shape))
    joint: float | np.ndarray = 1.0
    for name, factor in net._mechanisms:
        if name not in skip:
            for axis, at in cuts:
                if factor.shape[axis] > 1:  # the factor reads this axis
                    factor = factor[at]
            joint = joint * factor
    if np.shape(joint) != shape:  # an axis no factor reads
        full = np.empty(shape)
        full[...] = joint
        joint = full
    joint = np.asarray(joint, order="C")
    if layout.hidden_axes:
        joint = np.add.reduce(joint, axis=layout.hidden_axes)
    if late:
        joint = joint[tuple(slice(fixed[n], fixed[n] + 1) if n in late else slice(None)
                            for n in net.observables)]
    return joint


def exact_observational(net: CausalBayesNet) -> PmfTable:
    """Exact joint over the observables, marginalizing out every hidden node."""
    return PmfTable(net.observables, _full_joint(net))


def exact_interventional(net: CausalBayesNet, x: Mapping[str, int]) -> PmfTable:
    """Exact truncated-factorization distribution over observables minus ``x``.

    Mechanisms of intervened variables are deleted and their axes sliced to
    the clamped values before the remaining factors are multiplied, so only
    the returned states are formed; hidden variables are summed out. With
    ``x`` empty this coincides exactly with :func:`exact_observational`.
    """
    for name, val in x.items():
        nd = net.node(name)
        if as_integer(val) is None:
            raise GraphError(f"value {val!r} for {name!r} is not an integer symbol")
        if not nd.hidden and not 0 <= val < nd.cardinality:
            raise GraphError(f"value {val} out of range for {name!r}")
    joint = _full_joint(net, skip=frozenset(x), fixed=x)
    kept = tuple(n for n in net.observables if n not in x)
    return PmfTable(kept, joint.reshape([net.cardinality(n) for n in kept]),
                    context=dict(x))


def interventional_family(net: CausalBayesNet, x_vars: Iterable[str]) -> PmfTable:
    """Truncated-factorization table over all observables at once.

    The intervened variables keep their axes; slicing them at an assignment
    gives exactly the interventional distribution for that assignment. Marked
    unnormalized because the whole array sums to the number of slices.
    """
    return PmfTable(net.observables, _full_joint(net, skip=frozenset(x_vars)),
                    normalized=False)


def sample_observational(net: CausalBayesNet, seed: int, m: int) -> Samples:
    """Draw ``m`` i.i.d. joint observations and drop the hidden coordinates.

    Each node is sampled in topological order from its conditional row via one
    uniform draw. Deterministic for a fixed seed.
    """
    layout = net._layout
    steps = ((nd.name, nd.parents, layout.strides[layout.pos[nd.name]], nd.cpt)
             for nd in map(net.node, layout.order))
    return ancestral_sample(steps, net.observables, seed, m)


def latent_project(net: CausalBayesNet) -> Admg:
    """Collapse hidden variables to bidirected edges between their two children.

    Requires standard form: every hidden node is parentless and has exactly two
    observable children. Observable-to-observable edges pass through unchanged.
    """
    g, observed, hidden = net._layout.graph, net._layout.observed, net._layout.hidden_axes
    bidirected = set()
    for h in hidden:
        name, kids = g.names[h], g.children(h)
        if g.parents(h):
            raise NonStandardForm(f"hidden variable {name!r} has parents")
        if kids.intersection(hidden):
            raise NonStandardForm(f"hidden {name!r} has hidden child "
                                  f"{g.names_of(kids.intersection(hidden))[0]!r}")
        if len(kids) != 2:
            raise NonStandardForm(f"hidden variable {name!r} has {len(kids)} "
                                  f"observable children, expected 2")
        bidirected.add(tuple(observed.index(k) for k in g.names_of(kids)))
    return Admg(observed.names, observed.cards, observed.directed, frozenset(bidirected))


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a strong-positivity audit for one component."""

    component: tuple[str, ...]
    event_scope: tuple[str, ...]
    min_probability: float
    worst_event: dict[str, int]
    alpha: float

    @property
    def ok(self) -> bool:
        return self.min_probability >= self.alpha


def check_strong_positivity(
    net: CausalBayesNet,
    components: Iterable[Iterable[str]],
    alpha: float,
) -> tuple[bool, list[PositivityReport]]:
    """Verify that every configuration of each component-plus-parents set has
    probability at least ``alpha``; reports the minimizing event per component."""
    obs_table = exact_observational(net)
    g = net._layout.observed
    reports = []
    for comp in components:
        comp = tuple(comp)
        marg = obs_table.marginal_to(g.names_of(g.pa_plus(g.indices(comp))))
        flat = marg.probs.reshape(-1)
        worst_flat = int(flat.argmin())
        worst_idx = np.unravel_index(worst_flat, marg.probs.shape)
        worst = {n: int(v) for n, v in zip(marg.names, worst_idx)}
        reports.append(PositivityReport(
            component=comp,
            event_scope=marg.names,
            min_probability=float(flat[worst_flat]),
            worst_event=worst,
            alpha=alpha,
        ))
    return all(r.ok for r in reports), reports


# -- random instances for property tests and experiments ----------------------


def _floored_rows(rng: np.random.Generator, n_rows: int, card: int, gamma: float) -> np.ndarray:
    """Dirichlet(1) rows floored entrywise at gamma and renormalized, so every
    conditional symbol probability is bounded away from zero."""
    rows = rng.dirichlet(np.ones(card), size=n_rows)
    rows = np.maximum(rows, gamma)
    return rows / rows.sum(axis=1, keepdims=True)


def standard_form(g: Admg, hidden_cardinality: int = 2) -> tuple[tuple, ...]:
    """The node signatures ``(name, cardinality, parents, hidden)`` of a
    standard-form net on ``g``, in declaration order. First comes one
    parentless hidden node per bidirected edge, in sorted edge order, named
    ``U{k}`` prefixed with ``_`` until no observable or earlier hidden node
    has the name. Then each observable reads its parents in index order and
    then the hidden nodes of its edges."""
    hidden: list[str] = []
    taken = set(g.names)
    for k in range(len(g.bidirected)):
        name = f"U{k}"
        while name in taken:
            name = "_" + name
        hidden.append(name)
        taken.add(name)
    edges = sorted(g.bidirected)
    return tuple([(h, hidden_cardinality, (), True) for h in hidden] + [
        (name, g.cards[i], g.names_of(g.parents(i))
         + tuple(h for h, e in zip(hidden, edges) if i in e), False)
        for i, name in enumerate(g.names)])


def random_net_for(
    g: Admg,
    seed: int,
    gamma: float = 0.1,
    hidden_cardinality: int = 2,
) -> CausalBayesNet:
    """Realize an ADMG as a standard-form causal Bayes net with random CPTs.

    One hidden variable per bidirected edge. Flooring at ``gamma`` makes
    strong positivity certifiable by construction. The hidden nodes come
    first, then the observables; each run of consecutive nodes of equal
    cardinality takes its CPT rows from one Dirichlet draw, which consumes
    the seed's stream exactly as one draw per node would. The nodes without
    their rows, and the net's layout, are planned once per graph and hidden
    cardinality. Each draw's rows are checked once, with
    :func:`~dolearn.tables.check_rows`; a bad row raises the
    :class:`GraphError` that the node owning it would raise.
    """
    layout, plan = _net_plan(g, hidden_cardinality)
    rng = np.random.default_rng(seed)
    nodes: list[CbnNode] = []
    for card, n_rows, run in plan:
        rows = _floored_rows(rng, n_rows, card, gamma)
        try:
            check_rows("", "cpt", rows, GraphError)
        except GraphError:
            for name, _, _, start, stop in run:
                check_rows(name, "cpt", rows[start:stop], GraphError)
            raise
        for name, parents, hidden, start, stop in run:
            node = object.__new__(CbnNode)  # its fields are those CbnNode() would check
            node.__dict__.update(name=name, cardinality=card, parents=parents,
                                 cpt=rows[start:stop], hidden=hidden)
            nodes.append(node)
    return CausalBayesNet._compiled(tuple(nodes), layout)


@functools.lru_cache(maxsize=64)  # see _layout
def _net_plan(g: Admg, hidden_cardinality: int) -> tuple[_Layout, tuple]:
    """:func:`random_net_for`'s layout, and its nodes without their rows: per
    run of equal cardinality, ``(cardinality, rows drawn, ((name, parents,
    hidden, first row, end row), ...))``."""
    signature = standard_form(g, hidden_cardinality)
    layout = _layout(signature)
    plan = []
    for card, run in itertools.groupby(zip(signature, layout.rows),
                                       key=lambda spec: spec[0][1]):
        members, start = [], 0
        for (name, _, parents, hidden), n_rows in run:
            members.append((name, parents, hidden, start, start + n_rows))
            start += n_rows
        plan.append((card, start, tuple(members)))
    return layout, tuple(plan)


def random_admg(
    seed: int,
    n: int,
    max_in_degree: int = 2,
    n_bidirected: int = 2,
    max_component: int = 3,
    cardinality: int = 2,
) -> Admg:
    """A random sparse ADMG with bounded in-degree and c-component size."""
    rng = np.random.default_rng(seed)
    names = tuple(f"V{i}" for i in range(n))
    directed: set[tuple[int, int]] = set()
    for child in range(1, n):
        k = int(rng.integers(0, min(max_in_degree, child) + 1))
        for p in rng.choice(child, size=k, replace=False):
            directed.add((int(p), child))
    g = Admg(names, (cardinality,) * n, frozenset(directed), frozenset())
    bidirected: set[tuple[int, int]] = set()
    attempts = 0
    while len(bidirected) < n_bidirected and attempts < 50 * (n_bidirected + 1):
        attempts += 1
        a, b = rng.choice(n, size=2, replace=False)
        edge = (int(min(a, b)), int(max(a, b)))
        if edge in bidirected:
            continue
        candidate = Admg(names, (cardinality,) * n, frozenset(directed),
                         frozenset(bidirected | {edge}))
        if max(len(c) for c in candidate.c_components()) <= max_component:
            bidirected.add(edge)
            g = candidate
    return g
