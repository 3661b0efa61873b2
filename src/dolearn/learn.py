"""Learn an interventional distribution from finite observational samples.

The pipeline splits the problem along the c-component structure of the graph:

* components untouched by the intervention keep a Bayes-net form; one
  :func:`learn_q` forms their conditionals over effective-parent
  configurations, add-1 smoothed from a batch or exact from a table;
* every component that contains intervened variables splits into fragments
  ``C``; each fragment's query ``P(C | do(V∖C))`` is compiled by
  :func:`~dolearn.identify.identify` and its estimand is materialized by
  :func:`~dolearn.estimand.full_table` against the sample batch (or an exact
  table), so there is one identification recursion. A non-identifiable
  fragment raises :class:`~dolearn.identify.NotIdentifiable` carrying
  identify's witness and step trace. Every row, like every chain factor, is
  formed by :func:`~dolearn.estimand.conditional`, the one place where an
  empty conditioning event raises :class:`PositivityViolation`.

The assembled object is a product of per-variable conditional rows in a fixed
topological order, usable both as a pointwise evaluator and as the driver of
an ancestral sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .admg import Admg
from .estimand import PositivityViolation, chain_depth, conditional, full_table
from .identify import (
    CausalQuery,
    HedgeWitness,
    NotIdentifiable,
    chain_conds,
    check_intervention,
    identify,
)
from .tables import (
    EmpiricalAccess,
    PmfTable,
    Samples,
    ScopeMismatch,
    check_rows,
    row_product,
    strides_for,
    symbols_of,
)

FAMILY_CONSTANCY_TOL = 1e-9


@dataclass(frozen=True)
class LearnConfig:
    """Accuracy targets and assumptions for the learner.

    ``alpha`` is an assumption about the ground truth, never estimated from
    data.
    """

    epsilon: float = 0.1
    delta: float = 0.1
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class RelativePartition:
    """C-component structure of a graph relative to an intervened set.

    Components intersecting the intervention come first (``ell`` of them);
    ``sub_components`` are the c-components of each such component after its
    intervened part is removed.
    """

    components: tuple[frozenset[int], ...]
    ell: int
    c_low: frozenset[int]
    c_high: frozenset[int]
    sub_components: tuple[tuple[tuple[int, int], frozenset[int]], ...]


def relative_partition(g: Admg, x: Iterable[int]) -> RelativePartition:
    x = frozenset(x)
    comps = g.c_components()
    touched = [c for c in comps if c & x]
    untouched = [c for c in comps if not c & x]
    ordered = tuple(touched + untouched)
    ell = len(touched)
    c_low = frozenset().union(*touched) if touched else frozenset()
    c_high = frozenset().union(*untouched) if untouched else frozenset()
    subs = []
    for i, c in enumerate(touched):
        rest = c - x
        for j, cij in enumerate(g.c_components(within=rest)):
            subs.append(((i, j), cij))
    return RelativePartition(ordered, ell, c_low, c_high, tuple(subs))


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Rows of conditional probabilities for one target variable.

    ``probs`` has one row per configuration of ``cond`` (row-major) and one
    column per target symbol; every row sums to 1. ``kind`` names the former:
    ``"add1"`` is :func:`learn_q` on a batch, with the raw ``counts`` kept
    (one non-negative count per entry of ``probs``);
    ``"exact"`` is :func:`learn_q` on an exact table; ``"fragment"`` is
    chain-ruled from a fragment table, uniform where a configuration is
    unreachable. ``fixed_context`` records intervention coordinates baked
    into the rows.
    """

    target: str
    target_card: int
    cond: tuple[str, ...]
    cond_cards: tuple[int, ...]
    probs: np.ndarray
    counts: np.ndarray | None = None
    kind: str = "add1"
    fixed_context: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if self.target_card < 1 or probs.size % self.target_card:
            raise ScopeMismatch(f"{self.target}: {probs.size} probabilities do not make "
                                f"rows of {self.target_card}")
        probs = probs.reshape(-1, self.target_card)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cond", tuple(self.cond))
        object.__setattr__(self, "cond_cards", tuple(self.cond_cards))
        object.__setattr__(self, "fixed_context", dict(self.fixed_context))
        expected = int(np.prod(self.cond_cards)) if self.cond_cards else 1
        if probs.shape[0] != expected:
            raise ScopeMismatch(
                f"{self.target}: {probs.shape[0]} rows, expected {expected}"
            )
        check_rows(self.target, "conditional", probs)
        if self.counts is not None:
            counts = np.asarray(self.counts, dtype=np.float64)
            if counts.shape != probs.shape or not counts.min(initial=0.0) >= 0.0:
                raise ScopeMismatch(f"{self.target}: counts must be {probs.shape[0]} rows of "
                                    f"{self.target_card} non-negative numbers")
            object.__setattr__(self, "counts", counts)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        return strides_for(self.cond_cards)

    @property
    def step(self) -> tuple[str, tuple[str, ...], tuple[int, ...], np.ndarray]:
        """This factor as a :func:`~dolearn.tables.row_product` step."""
        return self.target, self.cond, self._strides, self.probs


# -- the two learners and assembly ---------------------------------------------


def _q_conds(g: Admg, part: RelativePartition) -> dict[str, tuple[str, ...]]:
    """Effective parents of each variable outside the intervened components:
    :func:`~dolearn.identify.chain_conds` of its component over the graph."""
    order = g.topological_order()
    return {v: zs for comp in part.components[part.ell:]
            for v, zs in chain_conds(g, order, comp, frozenset(range(g.n)))}


def learn_q(
    samples_or_table: Samples | PmfTable, g: Admg, part: RelativePartition
) -> dict[str, ConditionalTable]:
    """Conditionals for every variable outside the intervened components,
    conditioned on its effective parents: add-1 smoothed counts of a batch,
    or exact ratios of a table, where an empty event raises
    :class:`PositivityViolation`."""
    conds = _q_conds(g, part)
    out: dict[str, ConditionalTable] = {}
    for i in sorted(part.c_high):
        name = g.names[i]
        names = conds[name] + (name,)
        counts = None
        if isinstance(samples_or_table, PmfTable):  # divided in table order, as chains are
            marg = samples_or_table.marginal_to(names)
            rows = conditional(marg.probs, marg.names, name)
            rows = rows.transpose([marg.names.index(n) for n in names])
        else:
            counts = samples_or_table.counts_over(names, [g.cards[g.index(n)] for n in names])
            rows = conditional(counts + 1.0, names, name)
        out[name] = ConditionalTable(
            name, rows.shape[-1], conds[name], rows.shape[:-1], rows,
            counts=None if counts is None else counts.reshape(-1, rows.shape[-1]),
            kind="exact" if counts is None else "add1",
        )
    return out


def learn_r(
    samples_or_table: Samples | PmfTable,
    g: Admg,
    part: RelativePartition,
    x: Mapping[str, int],
) -> dict[tuple[int, int], tuple[PmfTable, int]]:
    """One materialized table per intervened-component fragment, with its
    rebase depth.

    Fragment ``C`` is the query ``P(C | do(V∖C))``. Every fragment is first
    compiled by :func:`identify` on the graph alone, so a non-identifiable
    query raises :class:`NotIdentifiable` with identify's witness and trace
    before anything is counted. Each estimand is then materialized against
    the batch or the exact table with the intervention coordinates baked in
    at their queried values; its other references stay as context axes, one
    distribution over ``C`` per configuration. The rebase depth counts the
    nested chain materializations of the estimand, the quantity the nominal
    pointwise approximation factor grows with.
    """
    exprs = {}
    for key, cij in part.sub_components:
        frag = frozenset(g.names_of(cij))
        # the estimand is symbolic in the intervention values; references
        # outside x only need some in-range value to form the query
        rest = {n: x.get(n, 0) for n in g.names if n not in frag}
        est = identify(CausalQuery(g, rest, frag))
        if isinstance(est, HedgeWitness):
            raise NotIdentifiable(est)
        exprs[key] = est.expr
    if isinstance(samples_or_table, PmfTable):
        access = samples_or_table
    else:
        samples = samples_or_table
        if samples.names != g.names:
            samples = samples.project(g.names)
        access = EmpiricalAccess(samples, g.cards)
    return {
        key: (
            full_table(expr, access, {n: x[n] for n in g.names if n in expr.free and n in x}),
            chain_depth(expr),
        )
        for key, expr in exprs.items()
    }


def _family_conditionals(
    table: PmfTable,
    variables: Iterable[str],
    g: Admg,
) -> dict[str, ConditionalTable]:
    """Chain-rule a fragment table into per-variable conditional rows.

    ``variables`` carry the mass; the other axes of the table are context.
    Context axes that follow a variable in the global order provably do not
    influence its conditional (the fragment factorizes along the order), so
    they are sliced away; the residual variation is checked against a tight
    bound.
    """
    topo_pos = {g.names[i]: k for k, i in enumerate(g.topological_order())}
    variables = sorted(variables, key=topo_pos.get)
    ctx = set(table.names) - set(variables)
    out: dict[str, ConditionalTable] = {}
    for t, v in enumerate(variables):
        marg = table.marginal_to(ctx | set(variables[: t + 1]))
        later_ctx = [n for n in marg.names if n in ctx and topo_pos[n] > topo_pos[v]]
        for n in later_ctx:
            ax = marg.axis(n)
            spread = marg.probs.max(axis=ax) - marg.probs.min(axis=ax)
            if spread.max(initial=0.0) > FAMILY_CONSTANCY_TOL:
                raise ValueError(
                    f"fragment table for {v!r} varies with later context {n!r}"
                )
        marg = marg.sliced(dict.fromkeys(later_ctx, 0))
        # order conditioning axes by topological position for the row layout
        cond = tuple(sorted((n for n in marg.names if n != v), key=topo_pos.get))
        # unreachable configurations get uniform rows
        rows = conditional(marg.aligned_to(cond + (v,)).probs, cond + (v,), v, uniform=True)
        out[v] = ConditionalTable(
            v, rows.shape[-1], cond, rows.shape[:-1], rows,
            kind="fragment", fixed_context=dict(table.context or {}),
        )
    return out


@dataclass(frozen=True, eq=False)
class LearnedInterventional:
    """Per-variable conditional factors plus a sampling order: the learned
    interventional distribution, usable as evaluator and generator."""

    graph: Admg
    x: Mapping[str, int]
    order: tuple[str, ...]
    factors: Mapping[str, ConditionalTable]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", dict(self.x))
        object.__setattr__(self, "factors", dict(self.factors))
        object.__setattr__(self, "metadata", dict(self.metadata))
        check_intervention(self.graph, self.x)  # a baked-in value must not alias a row
        pos = {n: i for i, n in enumerate(self.order)}
        for n in self.order:
            if n not in self.factors:
                raise ScopeMismatch(f"{n!r} is in the sampling order but has no factor")
        for n in self.factors:
            if n not in pos:
                raise ScopeMismatch(f"factor {n!r} is not in the sampling order")
        for n, f in self.factors.items():
            declared = (f.target_card, *f.cond_cards)
            cards = tuple(self.graph.cards[self.graph.index(v)] for v in (f.target, *f.cond))
            if declared != cards:  # a wrong stride would read another row
                raise ScopeMismatch(
                    f"factor {n!r} declares cardinalities {declared} for "
                    f"{(f.target, *f.cond)}, the graph has {cards}"
                )
            for c in f.cond:
                if c not in self.x and pos.get(c, len(pos)) >= pos[n]:
                    raise ScopeMismatch(
                        f"factor {n!r} conditions on {c!r} which is not yet determined"
                    )

    def cards(self) -> tuple[int, ...]:
        return tuple(self.graph.cards[self.graph.index(n)] for n in self.order)

    def evaluate(self, y: Mapping[str, int]) -> float:
        return evaluate_point(self, y)

    def table(self) -> PmfTable:
        """Materialize the evaluator over all target assignments: one
        :func:`evaluate_point` call over an open grid of the targets."""
        grid = dict(zip(self.order, np.indices(self.cards(), sparse=True)))
        arr = np.asarray(evaluate_point(self, grid), dtype=np.float64)
        return PmfTable(self.order, arr, context=dict(self.x), normalized=False)


def evaluate_point(
    li: LearnedInterventional, y: Mapping[str, int | np.ndarray]
) -> float | np.ndarray:
    """Product of conditional-row lookups along the sampling order, through
    :func:`~dolearn.tables.row_product`.

    The values of ``y`` may also be integer arrays that broadcast together;
    the result is then the array of products at every broadcast position,
    each formed with the same multiplications in the same order. A symbol
    outside ``[0, card)`` raises :class:`ScopeMismatch`.
    """
    if set(y) != set(li.order):
        raise ScopeMismatch(
            f"assignment must cover exactly {sorted(li.order)}, got {sorted(y)}"
        )
    symbols_of(y, li.order, li.cards())
    env = dict(li.x)
    env.update(y)
    out = row_product((li.factors[n].step for n in li.order), env)
    return float(out) if np.ndim(out) == 0 else out


def assemble(
    q_factors: Mapping[str, ConditionalTable],
    r_factors: Mapping[tuple[int, int], tuple[PmfTable, int]],
    part: RelativePartition,
    g: Admg,
    x: Mapping[str, int],
    metadata: Mapping[str, object] | None = None,
) -> LearnedInterventional:
    """Combine the two factor maps into one evaluator/generator object."""
    factors: dict[str, ConditionalTable] = dict(q_factors)
    fragments = dict(part.sub_components)
    for key, (table, _) in r_factors.items():
        factors.update(_family_conditionals(table, g.names_of(fragments[key]), g))
    order = tuple(
        g.names[i] for i in g.topological_order() if g.names[i] not in x
    )
    missing = set(order) - set(factors)
    if missing:
        raise ScopeMismatch(f"no factor learned for {sorted(missing)}")
    meta = dict(metadata or {})
    meta.setdefault("structure", structure_params(g, g.indices(x)))
    if r_factors:
        # chain materializations along each fragment's recursion path; the
        # nominal pointwise approximation factor grows with this depth
        meta.setdefault(
            "fragment_rebase_depths",
            {str(k): depth for k, (_, depth) in r_factors.items()},
        )
    return LearnedInterventional(g, dict(x), order, factors, meta)


def structure_params(g: Admg, x: Iterable[int]) -> dict[str, int]:
    """The structural quantities the sample-complexity guidance depends on."""
    part = relative_partition(g, x)
    k = max((len(c) for c in part.components), default=1)
    d = max((len(g.parents(i)) for i in range(g.n)), default=0)
    return {
        "n": g.n,
        "k": k,
        "d": d,
        "ell": part.ell,
        "c_low_size": len(part.c_low),
        "sigma": max(g.cards, default=2),
    }


def recommended_sample_size(
    g: Admg,
    x: Iterable[int],
    epsilon: float,
    delta: float,
    alpha: float,
) -> tuple[int, dict[str, float]]:
    """Sample-size guidance from the accuracy targets.

    The budget splits the total variation target between the Bayes-net part
    (through its KL bound) and the fragment tables (pointwise, scaled by the
    recursion blow-up). Constants are indicative, not guarantees.
    """
    p = structure_params(g, x)
    n, k, d, ell, sigma = p["n"], p["k"], p["d"], p["ell"], p["sigma"]
    eps_q = epsilon / 2.0
    r_scale = 2.0 * (3.0 * k) ** (k + 1) * max(ell, 1) * sigma ** (k * ell)
    eps_r = epsilon / r_scale
    kl_target = 2.0 * eps_q**2
    m_q = (
        n * sigma ** (k * d + d) / (alpha ** p["c_low_size"] * kl_target)
        * math.log(n * sigma ** (k * d + d + 1) / delta)
    )
    m_r = (
        (k * d + d + 1) / (alpha**2 * eps_r**2)
        * math.log(sigma * max(k, 1) * max(ell, 1) / delta + 1.0)
    )
    m = int(math.ceil(max(m_q, m_r, 1.0)))
    return m, {"m_q": m_q, "m_r": m_r, "eps_q": eps_q, "eps_r": eps_r}


def _learn(source: Samples | PmfTable, g: Admg, x: Mapping[str, int],
           metadata: Mapping[str, object]) -> LearnedInterventional:
    """Partition, learn both factor groups, assemble: the one pipeline behind
    :func:`learn_interventional` and :func:`fit_from_table`."""
    check_intervention(g, x)
    part = relative_partition(g, g.indices(x))
    return assemble(learn_q(source, g, part), learn_r(source, g, part, x), part, g, x, metadata)


def learn_interventional(
    samples: Samples,
    g: Admg,
    x: Mapping[str, int],
    config: LearnConfig | None = None,
) -> LearnedInterventional:
    """The learner on a sample batch whose symbols fit the graph."""
    config = config or LearnConfig()
    samples.check_symbols(g.names, g.cards)
    return _learn(samples, g, x, {
        "m": samples.m,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "alpha": config.alpha,
        "source": "samples",
        "rng_algorithm": samples.rng_algorithm,
    })


def fit_from_table(
    obs: PmfTable,
    g: Admg,
    x: Mapping[str, int],
) -> LearnedInterventional:
    """Infinite-sample limit: plug an exact observational table straight in.

    All factors become exact ratios of the table, so the assembled evaluator
    reproduces the identification formula with no statistical error. A table
    whose cardinalities disagree with the graph raises :class:`ScopeMismatch`.
    """
    return _learn(obs, g, x, {"source": "exact-table"})
