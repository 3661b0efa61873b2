"""Compile interventional queries on an ADMG into observational estimands.

The compiler is a recursion over the query graph. Either it produces an
expression tree whose evaluation against the observational distribution equals
the queried interventional distribution, or it returns a witness subgraph
proving that no such expression exists. The output tree is symbolic in the
intervention values: they are bound only when the estimand is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .admg import Admg
from .estimand import (
    BaseDist,
    ChainProduct,
    DistAccess,
    DistExpr,
    Product,
    evaluate,
    full_table,
    marginal,
    render,
)
from .tables import PmfTable, as_integer


class InvalidQuery(ValueError):
    """Query variables overlap, are unknown, or carry out-of-range values."""


class NotIdentifiable(RuntimeError):
    """Raised by callers that need an estimand when only a witness exists."""

    def __init__(self, witness: "HedgeWitness"):
        self.witness = witness
        super().__init__(
            f"query is not identifiable; witness root set {sorted(witness.root_set)}"
        )


@dataclass(frozen=True)
class TraceStep:
    """One step of the identification recursion: its name (``step1`` to
    ``step5c``) and the call it was taken in, as index sets of ``graph``.
    ``description`` names the call's targets, interventions and vertex set;
    it is formatted when first read."""

    step: str
    graph: Admg = field(repr=False)
    targets: frozenset[int] = field(repr=False)
    intervened: frozenset[int] = field(repr=False)
    within: frozenset[int] = field(repr=False)

    @cached_property
    def description(self) -> str:
        g = self.graph
        return (f"targets={{{','.join(g.names_of(self.targets))}}} "
                f"do={{{','.join(g.names_of(self.intervened))}}} "
                f"over={{{','.join(g.names_of(self.within))}}}")


@dataclass(frozen=True)
class CausalQuery:
    """An intervention assignment, a target set, and the graph they live on."""

    graph: Admg
    x: Mapping[str, int]
    y: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", dict(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        g = self.graph
        names = set(g.names)
        unknown = (set(self.x) | self.y) - names
        if unknown:
            raise InvalidQuery(f"unknown variables {sorted(unknown)}")
        overlap = set(self.x) & self.y
        if overlap:
            raise InvalidQuery(f"intervened and target sets overlap on {sorted(overlap)}")
        if not self.y:
            raise InvalidQuery("target set is empty")
        check_intervention(g, self.x)


def check_intervention(g: Admg, x: Mapping[str, int]) -> None:
    """Raise :class:`InvalidQuery` unless every intervention value is a symbol
    of its variable."""
    for n, v in x.items():
        card = g.cards[g.index(n)]
        value = as_integer(v)
        if value is None:
            raise InvalidQuery(f"value {v!r} for {n!r} is not an integer symbol")
        if not 0 <= value < card:
            raise InvalidQuery(f"value {v} out of range for {n!r} (cardinality {card})")


@dataclass(frozen=True)
class HedgeWitness:
    """The subgraph at which identification failed.

    ``graph`` is a single c-component whose vertex set splits into the root
    set (the surviving targets) and the internal, intervened remainder; this
    shape certifies that two models can agree observationally while differing
    interventionally.
    """

    graph: Admg
    root_set: frozenset[str]
    internal: frozenset[str]
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class Estimand:
    """A compiled query: expression tree plus its variable roles.

    ``intervened`` values parametrize the tree; ``arbitrary`` lists variables
    whose values provably do not matter (they may be bound to anything at
    evaluation time and default to symbol 0). Materializations compile the
    tree once per access layout and fixing, and keep the plans here.
    """

    expr: DistExpr
    graph: Admg
    targets: frozenset[str]
    intervened: frozenset[str]
    arbitrary: frozenset[str]
    trace: tuple[TraceStep, ...]
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_plans": {}}  # compiled plans are not picklable

    def _env(self, env: Mapping[str, int]) -> dict[str, int]:
        full = {n: 0 for n in self.arbitrary}
        full.update(env)
        return full

    def evaluate(self, access: DistAccess, env: Mapping[str, int]) -> float:
        """Probability of the target assignment in ``env`` given the
        intervention values in ``env``."""
        return evaluate(self.expr, access, self._env(env))

    def table(self, access: DistAccess, x: Mapping[str, int]) -> PmfTable:
        """Materialize the interventional distribution for one intervention."""
        return full_table(self.expr, access, self._env(x), plans=self._plans)

    def family_table(self, access: DistAccess) -> PmfTable:
        """One table covering every intervention value: the free references
        stay as axes and each slice is the corresponding distribution."""
        return full_table(
            self.expr, access, {n: 0 for n in self.arbitrary}, allow_free_axes=True,
            plans=self._plans,
        )

    def render(self, style: str = "text") -> str:
        return render(self.expr, style)


class _Hedge(Exception):
    def __init__(self, root: frozenset[int], vs: frozenset[int]):
        self.root = root
        self.vs = vs


def chain_conds(
    g: Admg,
    order: tuple[int, ...],
    over: frozenset[int],
    vs: frozenset[int],
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Effective-parent conditioning sets along ``over``.

    ``over`` is a c-component of the graph restricted to ``vs``; each variable
    conditions on the parents-plus of that component cut to the variable's
    prefix in the fixed global order. This is the one conditioning-set rule:
    the estimand chains and the Bayes-net learner both read it.
    """
    pa_plus = g.pa_plus(over, vs)
    conds = []
    for vi in (i for i in order if i in over):
        prefix = frozenset(order[: order.index(vi)]) & vs
        zs = pa_plus & prefix
        conds.append((g.names[vi], tuple(g.names[z] for z in sorted(zs))))
    return tuple(conds)


def _chain(
    g: Admg,
    order: tuple[int, ...],
    base: DistExpr,
    over: frozenset[int],
    vs: frozenset[int],
) -> ChainProduct:
    conds = chain_conds(g, order, over, vs)
    return ChainProduct(base, tuple(v for v, _ in conds), conds)


def _id(
    g: Admg,
    order: tuple[int, ...],
    y: frozenset[int],
    x: frozenset[int],
    base: DistExpr,
    vs: frozenset[int],
    trace: list[TraceStep],
    arbitrary: set[int],
    depth: int = 0,
) -> DistExpr:
    if depth > 3 * g.n + 3:  # pragma: no cover - termination guard
        raise RuntimeError("identification recursion exceeded its depth bound")

    def log(step: str) -> None:
        trace.append(TraceStep(step, g, y, x, vs))

    if not x:
        log("step1")
        return marginal(base, g.names_of(vs - y))

    an = g.ancestors(y, within=vs)
    if vs - an:
        log("step2")
        pruned = marginal(base, g.names_of(vs - an))
        return _id(g, order, y, x & an, pruned, an, trace, arbitrary, depth + 1)

    w = (vs - x) - g.ancestors(y, within=vs, severed=x)
    if w:
        log("step3")
        arbitrary |= w
        return _id(g, order, y, x | w, base, vs, trace, arbitrary, depth + 1)

    comps = g.c_components(within=vs - x)
    if len(comps) > 1:
        log("step4")
        children = tuple(
            _id(g, order, s, vs - s, base, vs, trace, arbitrary, depth + 1)
            for s in comps
        )
        return marginal(Product(children), g.names_of((vs - x) - y))

    s = comps[0]
    cc = g.c_components(within=vs)
    if len(cc) == 1:
        log("step5a")
        raise _Hedge(s, vs)
    if s in cc:
        log("step5b")
        return marginal(_chain(g, order, base, s, vs), g.names_of(s - y))

    s_prime = next(c for c in cc if s < c)
    log("step5c")
    rebased = _chain(g, order, base, s_prime, vs)
    return _id(g, order, y, x & s_prime, rebased, s_prime, trace, arbitrary, depth + 1)


def identify(q: CausalQuery) -> Estimand | HedgeWitness:
    """Run the identification recursion on a query.

    Returns a symbolic :class:`Estimand` when the interventional distribution
    is a unique functional of the observational one, and a
    :class:`HedgeWitness` otherwise. The result depends on the graph and on
    which variables are intervened or targeted, never on the numeric values.
    """
    g = q.graph
    order = g.topological_order()
    y = g.indices(q.y)
    x = g.indices(q.x)
    base = BaseDist(g.names)
    trace: list[TraceStep] = []
    arbitrary: set[int] = set()
    try:
        expr = _id(g, order, y, x, base, frozenset(range(g.n)), trace, arbitrary)
    except _Hedge as h:
        return HedgeWitness(
            graph=g.induced_subgraph(h.vs),
            root_set=frozenset(g.names_of(h.root)),
            internal=frozenset(g.names_of(h.vs - h.root)),
            trace=tuple(trace),
        )
    return Estimand(
        expr=expr,
        graph=g,
        targets=frozenset(q.y),
        intervened=frozenset(q.x),
        arbitrary=frozenset(g.names_of(arbitrary)),
        trace=tuple(trace),
    )


def is_identifiable(q: CausalQuery) -> bool:
    return isinstance(identify(q), Estimand)
