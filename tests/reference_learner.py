"""The fragment learner's own identification recursion, kept as a reference.

Before fragments were compiled by :func:`dolearn.identify.identify` and
materialized by :func:`dolearn.estimand.full_table`, the learner re-ran the
identification recursion itself over two distribution handles (raw sample
counts, or an already-materialized table family). This is that code. The
differential tests require the package's fragment tables, rebase depths and
hedge witnesses to match it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from dolearn.admg import Admg
from dolearn.identify import HedgeWitness, NotIdentifiable, chain_conds
from dolearn.tables import PmfTable, Samples, ScopeMismatch


class PositivityViolation(RuntimeError):
    """A conditioning event required by the learner has zero mass or count."""

    def __init__(self, variable: str, event: Mapping[str, int], source: str):
        self.variable = variable
        self.event = dict(event)
        self.source = source
        super().__init__(f"conditioning event {self.event!r} for {variable!r} is empty")


@dataclass(frozen=True, eq=False)
class TableFamily:
    """A table of distributions: context axes index the family, variable axes
    carry the mass. Every context slice sums to 1. Axes are addressed by name;
    merged families order them by the host graph's topological order.
    ``rebase_depth`` counts the chain materializations that produced the table,
    the quantity the nominal pointwise approximation factor grows with."""

    names: tuple[str, ...]
    cards: tuple[int, ...]
    ctx: frozenset[str]
    arr: np.ndarray
    fixed: Mapping[str, int] = field(default_factory=dict)
    rebase_depth: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cards", tuple(self.cards))
        object.__setattr__(self, "ctx", frozenset(self.ctx))
        object.__setattr__(self, "fixed", dict(self.fixed))
        arr = np.asarray(self.arr, dtype=np.float64)
        object.__setattr__(self, "arr", arr)
        if arr.shape != self.cards:
            raise ScopeMismatch("family array shape does not match cardinalities")

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n not in self.ctx)

    def var_axes(self) -> tuple[int, ...]:
        return tuple(i for i, n in enumerate(self.names) if n not in self.ctx)

    def marginal_vars(self, keep: Iterable[str]) -> "TableFamily":
        """Sum out distribution variables not in ``keep``; context axes stay."""
        keep = set(keep)
        axes = tuple(
            i for i, n in enumerate(self.names) if n not in self.ctx and n not in keep
        )
        kept = tuple(n for i, n in enumerate(self.names) if i not in axes)
        cards = tuple(c for i, c in enumerate(self.cards) if i not in axes)
        return TableFamily(kept, cards, self.ctx, self.arr.sum(axis=axes),
                           self.fixed, self.rebase_depth)

    def slice_ctx(self, fixed: Mapping[str, int]) -> "TableFamily":
        relevant = {n: v for n, v in fixed.items() if n in self.ctx}
        if not relevant:
            return self
        idx = tuple(relevant.get(n, slice(None)) for n in self.names)
        kept = tuple(n for n in self.names if n not in relevant)
        cards = tuple(c for n, c in zip(self.names, self.cards) if n not in relevant)
        merged = dict(self.fixed)
        merged.update(relevant)
        return TableFamily(kept, cards, self.ctx - set(relevant), self.arr[idx],
                           merged, self.rebase_depth)

    def pmf(self, env: Mapping[str, int]) -> float:
        idx = tuple(env[n] for n in self.names)
        return float(self.arr[idx])


def _align(arr: np.ndarray, names: tuple[str, ...], target: tuple[str, ...]) -> np.ndarray:
    idx = tuple(slice(None) if n in names else None for n in target)
    perm = tuple(names.index(n) for n in target if n in names)
    return np.transpose(arr, perm)[idx]


def _merge_families(fams: Sequence[TableFamily], order_key) -> TableFamily:
    """Pointwise product of families; combined variables absorb matching
    context axes of siblings."""
    all_names = sorted({n for f in fams for n in f.names}, key=order_key)
    all_names = tuple(all_names)
    card_of: dict[str, int] = {}
    for f in fams:
        for n, c in zip(f.names, f.cards):
            card_of[n] = c
    out = np.ones((), dtype=np.float64)
    out = _align(out, (), all_names)
    for f in fams:
        out = out * _align(f.arr, f.names, all_names)
    variables = {n for f in fams for n in f.variables}
    fixed: dict[str, int] = {}
    for f in fams:
        fixed.update(f.fixed)
    return TableFamily(
        all_names,
        tuple(card_of[n] for n in all_names),
        frozenset(all_names) - variables,
        out,
        fixed,
        max(f.rebase_depth for f in fams),
    )


# -- distribution handles ------------------------------------------------------


class _SampleHandle:
    """Empirical access to the observational batch (raw count ratios)."""

    is_samples = True

    def __init__(self, samples: Samples, cards: Mapping[str, int]):
        self.samples = samples
        self.cards = cards

    def restricted(self, keep: frozenset[str]) -> "_SampleHandle":
        return self  # scope is tracked by the recursion, counts are lazy

    def joint(self, keep: Sequence[str]) -> TableFamily:
        keep = tuple(keep)
        cards = tuple(self.cards[n] for n in keep)
        counts = self.samples.counts_over(keep, cards)
        return TableFamily(keep, cards, frozenset(), counts / self.samples.m)

    def _conditional(
        self, v: str, zs: tuple[str, ...], x: Mapping[str, int],
        over: frozenset[str],
    ) -> TableFamily:
        names = tuple(zs) + (v,)
        cards = tuple(self.cards[n] for n in names)
        counts = self.samples.counts_over(names, cards)
        sliced = {n: x[n] for n in zs if n in x and n not in over}
        if sliced:
            idx = tuple(sliced.get(n, slice(None)) for n in names)
            counts = counts[idx]
            names = tuple(n for n in names if n not in sliced)
            cards = tuple(c for n, c in zip(tuple(zs) + (v,), cards) if n not in sliced)
        den = counts.sum(axis=-1, keepdims=True)
        if np.any(den == 0.0):
            flat = int(np.argmax((den == 0.0).reshape(-1)))
            pos = np.unravel_index(flat, den.shape)
            event = {n: int(p) for n, p in zip(names[:-1], pos[:-1])}
            event.update(sliced)
            raise PositivityViolation(v, event, "samples")
        return TableFamily(
            names, cards, frozenset(names[:-1]), counts / den, sliced
        )

    def chain_family(
        self,
        conds: Sequence[tuple[str, tuple[str, ...]]],
        x: Mapping[str, int],
        order_key,
    ) -> TableFamily:
        over = frozenset(v for v, _ in conds)
        factors = [self._conditional(v, zs, x, over) for v, zs in conds]
        merged = _merge_families(factors, order_key)
        return TableFamily(
            merged.names,
            merged.cards,
            frozenset(merged.names) - over,
            merged.arr,
            merged.fixed,
            1,
        )


class _TableHandle:
    """Exact access to an already-materialized table family."""

    is_samples = False

    def __init__(self, family: TableFamily, rebase_depth: int = 0):
        self.family = family
        self.rebase_depth = rebase_depth

    def restricted(self, keep: frozenset[str]) -> "_TableHandle":
        return _TableHandle(self.family.marginal_vars(keep), self.rebase_depth)

    def joint(self, keep: Sequence[str]) -> TableFamily:
        fam = self.family.marginal_vars(keep)
        return fam

    def _conditional(
        self, v: str, zs: tuple[str, ...], x: Mapping[str, int],
        over: frozenset[str],
    ) -> TableFamily:
        fam = self.family
        in_scope = [z for z in zs if z in fam.variables]
        keep = set(in_scope) | {v}
        num = fam.marginal_vars(keep)
        sliced = {n: x[n] for n in in_scope if n in x and n not in over}
        arr = num.arr
        names = num.names
        if sliced:
            idx = tuple(sliced.get(n, slice(None)) for n in names)
            arr = arr[idx]
            names = tuple(n for n in names if n not in sliced)
        v_axis = names.index(v)
        den = arr.sum(axis=v_axis, keepdims=True)
        if np.any(den == 0.0):
            flat = int(np.argmax((den == 0.0).reshape(-1)))
            pos = np.unravel_index(flat, den.shape)
            event = {n: int(p) for n, p in zip(names, pos) if n != v}
            event.update(sliced)
            raise PositivityViolation(v, event, "table")
        cards = tuple(
            c for n, c in zip(num.names, num.cards) if n not in sliced
        )
        fixed = dict(fam.fixed)
        fixed.update(sliced)
        return TableFamily(
            names, cards, frozenset(n for n in names if n != v), arr / den,
            fixed, fam.rebase_depth,
        )

    def chain_family(
        self,
        conds: Sequence[tuple[str, tuple[str, ...]]],
        x: Mapping[str, int],
        order_key,
    ) -> TableFamily:
        over = frozenset(v for v, _ in conds)
        factors = [self._conditional(v, zs, x, over) for v, zs in conds]
        merged = _merge_families(factors, order_key)
        return TableFamily(
            merged.names,
            merged.cards,
            frozenset(merged.names) - over,
            merged.arr,
            merged.fixed,
            self.rebase_depth + 1,
        )


# -- the sample-based identification recursion ---------------------------------


def _hedge_witness(g: Admg, vs: frozenset[int], root: frozenset[int]) -> HedgeWitness:
    return HedgeWitness(
        graph=g.induced_subgraph(vs),
        root_set=frozenset(g.names_of(root)),
        internal=frozenset(g.names_of(vs - root)),
        trace=(),
    )


def _learn_component(
    g: Admg,
    order: tuple[int, ...],
    y: frozenset[int],
    xset: frozenset[int],
    handle,
    vs: frozenset[int],
    x_assign: Mapping[str, int],
    order_key,
    depth: int = 0,
) -> TableFamily:
    if depth > 3 * g.n + 3:  # pragma: no cover - termination guard
        raise RuntimeError("learning recursion exceeded its depth bound")
    if not xset:
        return handle.joint([g.names[i] for i in order if i in y])

    an = g.ancestors(y, within=vs)
    if vs - an:
        keep = frozenset(g.names[i] for i in an)
        return _learn_component(
            g, order, y, xset & an, handle.restricted(keep), an,
            x_assign, order_key, depth + 1,
        )

    # with targets equal to the non-intervened remainder, the third base case
    # of the recursion can never trigger
    assert not (vs - xset) - g.ancestors(y, within=vs, severed=xset)

    comps = g.c_components(within=vs - xset)
    if len(comps) > 1:
        fams = [
            _learn_component(
                g, order, s, vs - s, handle, vs, x_assign, order_key, depth + 1
            )
            for s in comps
        ]
        return _merge_families(fams, order_key)

    s = comps[0]
    cc = g.c_components(within=vs)
    if len(cc) == 1:
        raise NotIdentifiable(_hedge_witness(g, vs, s))
    if s in cc:
        return handle.chain_family(chain_conds(g, order, s, vs), x_assign, order_key)

    s_prime = next(c for c in cc if s < c)
    fam = handle.chain_family(chain_conds(g, order, s_prime, vs), x_assign, order_key)
    return _learn_component(
        g, order, y, xset & s_prime,
        _TableHandle(fam, fam.rebase_depth),
        s_prime, x_assign, order_key, depth + 1,
    )


def learn_r(
    samples_or_table: Samples | PmfTable,
    g: Admg,
    part,
    x: Mapping[str, int],
) -> dict[tuple[int, int], TableFamily]:
    """One materialized table family per intervened-component fragment.

    Each family evaluates the fragment's interventional distribution at every
    assignment of the fragment and of its non-intervened references;
    intervention coordinates are baked in at their queried values.
    """
    order = g.topological_order()
    order_key = {g.names[i]: k for k, i in enumerate(order)}.get
    if isinstance(samples_or_table, PmfTable):
        base = samples_or_table.aligned_to(
            tuple(n for n in g.names if n in samples_or_table.scope)
        )
        handle = _TableHandle(
            TableFamily(base.names, base.cards, frozenset(), base.probs)
        )
    else:
        cards = dict(zip(g.names, g.cards))
        handle = _SampleHandle(samples_or_table, cards)
    out: dict[tuple[int, int], TableFamily] = {}
    every = frozenset(range(g.n))
    for key, cij in part.sub_components:
        out[key] = _learn_component(
            g, order, cij, every - cij, handle, every, dict(x), order_key
        )
    return out
