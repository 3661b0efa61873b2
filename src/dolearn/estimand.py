"""Expression trees over observational-distribution terms.

The identification compiler emits these trees. One compiler turns a tree into
a plan of array operations over the marginals of any distribution access (an
exact table, a learned table, or an empirical frequency estimator); running
the plan materializes a table, or evaluates the tree at one point.
Conditionals are not a node kind: they arise only inside :class:`ChainProduct`
as ratios of two marginals of the child. :func:`conditional` forms those
ratios and the learner's rows alike, so the zero-conditioning error,
:class:`PositivityViolation`, is raised at one site.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Container, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .tables import TOTAL_TOL, PmfTable, ScopeMismatch, symbols_of

TABLE_TOTAL_TOL = 1e-6


class PositivityViolation(ArithmeticError):
    """A conditioning event carries zero mass under the supplied distribution
    (for a sample batch: zero count).

    Raised where conditionals are formed, for the compiled estimands and the
    learner alike; never silently treated as 0/0 = 0.
    """

    def __init__(self, variable: str, event: Mapping[str, int]):
        self.variable = variable
        self.event = dict(event)
        super().__init__(
            f"zero mass conditioning {variable!r} on "
            + (repr(self.event) if self.event else "the empty event")
        )


ZeroConditioningEvent = PositivityViolation  # the error's former name


def conditional(num: np.ndarray, names: Sequence[str], v: str,
                pins: Mapping[str, int] | None = None, uniform: bool = False) -> np.ndarray:
    """``num`` over ``names`` divided by its sum over ``v``'s axis: the one
    former of conditional rows and chain factors. The first empty
    conditioning event in axis order, joined with ``pins`` (values sliced
    away before the call), raises :class:`PositivityViolation`, or with
    ``uniform`` gets the uniform row."""
    axis = names.index(v)
    den = num.sum(axis=axis, keepdims=True)
    if den.all():
        return num / den
    empty = den == 0.0
    if uniform:
        return np.where(empty, 1.0 / num.shape[axis], num / np.where(empty, 1.0, den))
    pos = np.unravel_index(int(np.argmax(empty.reshape(-1))), den.shape)
    event = {n: int(p) for n, p in zip(names, pos) if n != v}
    raise PositivityViolation(v, event | dict(pins or {}))


class DistAccess(Protocol):
    """Marginals of a distribution over an ordered scope.

    ``marginal_probs`` is the bare marginal array that compiled plans read.
    """

    names: tuple[str, ...]
    cards: tuple[int, ...]

    def marginal_probs(self, keep: Container[str]) -> np.ndarray: ...


class DistExpr:
    """Base class for distribution-valued expressions."""

    scope: frozenset[str]

    @cached_property
    def free(self) -> frozenset[str]:
        """Variables whose values parametrize the expression (conditioning
        references bound only at evaluation time)."""
        raise NotImplementedError


@dataclass(frozen=True)
class BaseDist(DistExpr):
    """The observational input distribution over its full ordered scope."""

    names: tuple[str, ...]

    @property
    def scope(self) -> frozenset[str]:
        return frozenset(self.names)

    @cached_property
    def free(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class Marginal(DistExpr):
    """Sum the child over ``drop``."""

    child: DistExpr
    drop: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "drop", frozenset(self.drop))
        if not self.drop <= self.child.scope:
            raise ScopeMismatch(
                f"cannot drop {sorted(self.drop - self.child.scope)}: not in child scope"
            )

    @property
    def scope(self) -> frozenset[str]:
        return self.child.scope - self.drop

    @cached_property
    def free(self) -> frozenset[str]:
        return self.child.free


@dataclass(frozen=True)
class ChainProduct(DistExpr):
    """Product of child conditionals along ``over`` (a topological order).

    ``conds`` lists, per variable of ``over``, the conditioning set. Each
    conditional is the ratio of two marginals of the child; conditioning
    variables outside ``over`` are free references whose values come from the
    evaluation environment. The node denotes a normalized distribution over
    ``over`` for every fixing of its free references.
    """

    child: DistExpr
    over: tuple[str, ...]
    conds: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        over = tuple(self.over)
        object.__setattr__(self, "over", over)
        object.__setattr__(
            self, "conds", tuple((v, tuple(zs)) for v, zs in self.conds)
        )
        if len(set(over)) != len(over):
            raise ScopeMismatch("duplicate variables in chain product")
        if tuple(v for v, _ in self.conds) != over:
            raise ScopeMismatch("conds must list exactly the chain variables in order")
        cscope = self.child.scope
        seen: set[str] = set()
        for v, zs in self.conds:
            if v not in cscope or not set(zs) <= cscope:
                raise ScopeMismatch(f"chain factor {v!r} references outside child scope")
            if set(zs) & set(over) and not set(zs) & set(over) <= seen:
                raise ScopeMismatch(f"factor {v!r} conditions on later chain variables")
            seen.add(v)

    @property
    def scope(self) -> frozenset[str]:
        return frozenset(self.over)

    @cached_property
    def free(self) -> frozenset[str]:
        refs: set[str] = set()
        for _, zs in self.conds:
            refs.update(zs)
        return frozenset(refs - set(self.over)) | self.child.free


@dataclass(frozen=True)
class Product(DistExpr):
    """Product of sub-distributions with pairwise disjoint scopes."""

    children: tuple[DistExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ScopeMismatch("empty product")
        seen: set[str] = set()
        for c in self.children:
            if seen & c.scope:
                raise ScopeMismatch("product children must have disjoint scopes")
            seen |= c.scope

    @property
    def scope(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.children:
            out |= c.scope
        return frozenset(out)

    @cached_property
    def free(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.children:
            out |= c.free
        return frozenset(out - self.scope)


def marginal(child: DistExpr, drop: Iterable[str]) -> DistExpr:
    """Normalized constructor: collapses empty drops and merges nested sums."""
    drop = frozenset(drop)
    if not drop:
        return child
    if isinstance(child, Marginal):
        return Marginal(child.child, child.drop | drop)
    return Marginal(child, drop)


def chain_depth(expr: DistExpr) -> int:
    """The deepest nesting of :class:`ChainProduct` nodes: how many chain
    materializations stack up on the way to the input distribution."""
    if isinstance(expr, BaseDist):
        return 0
    if isinstance(expr, Product):
        return max(chain_depth(c) for c in expr.children)
    return isinstance(expr, ChainProduct) + chain_depth(expr.child)


# -- compiled evaluation and materialization ------------------------------------


_ONE = np.ones(())
_ONE.flags.writeable = False


def _view(names: tuple[str, ...], target: tuple[str, ...]) -> tuple | None:
    """The indexer that broadcasts an array over ``names`` over the axes of
    ``target``, of which it is a subsequence: every compiled array has its
    axes in the access's order. ``None`` for an identity."""
    if len(names) == len(target):
        return None
    return tuple(slice(None) if n in names else None for n in target)


def _apply(arr: np.ndarray, idx: tuple | None) -> np.ndarray:
    return arr if idx is None else arr[idx]


def _leaf_names(keep: frozenset[str], access_names: tuple[str, ...]) -> tuple[str, ...]:
    """Axes of the access's marginal over ``keep``, checked to exist."""
    unknown = keep - set(access_names)
    if unknown:
        raise ScopeMismatch(f"cannot keep unknown variables {sorted(unknown)}")
    return tuple(n for n in access_names if n in keep)


def _sliced(names: tuple[str, ...], pins: Mapping[str, int]) -> tuple:
    """The indexer that slices ``pins`` out of an array over ``names``
    (``None`` if none of them is pinned) and the axes it leaves."""
    if not any(n in pins for n in names):
        return None, names
    return (tuple(pins.get(n, slice(None)) for n in names),
            tuple(n for n in names if n not in pins))


def _symbols(values: Mapping[str, int], access: DistAccess) -> dict[str, int]:
    """The values of the access's variables among ``values``, each checked to
    be a symbol of its variable, so that a pin never wraps around an axis;
    raises :class:`ScopeMismatch` otherwise."""
    names = [n for n in access.names if n in values]
    cards = [c for n, c in zip(access.names, access.cards) if n in values]
    return dict(zip(names, map(int, symbols_of(values, names, cards))))


def _compile(
    expr: DistExpr,
    access_names: tuple[str, ...],
    pins: Mapping[str, int],
    order_key,
    point: bool,
) -> tuple[tuple[str, ...], Callable[[DistAccess], np.ndarray]]:
    """Result axes and runner of one node: a dense array over the node's scope
    plus its free references, less the names pinned here, axes in the
    access's variable order.

    Two binding rules share the compiler. For a table (``point`` false) a pin
    binds only free references of chain products. For a point a pin binds
    every name it reaches: a :class:`Marginal` stops pins on its ``drop``, and
    :func:`_compile_chain` passes its child, per factor, only the pins that
    factor conditions on. Marginals of the input distribution, alone or as chain
    factors, come from the access itself, so the full joint is built only
    when a node needs it whole.
    """
    if _is_base_chain(expr):
        keep = expr.scope
        slc, names = _sliced(_leaf_names(keep, access_names), pins if point else {})
        if slc is None:
            return names, lambda access: access.marginal_probs(keep)
        return names, lambda access: access.marginal_probs(keep)[slc]
    if isinstance(expr, Marginal):
        if point:
            pins = {n: v for n, v in pins.items() if n not in expr.drop}
        cnames, crun = _compile(expr.child, access_names, pins, order_key, point)
        axes = tuple(i for i, n in enumerate(cnames) if n in expr.drop)
        kept = tuple(n for n in cnames if n not in expr.drop)
        return kept, lambda access: crun(access).sum(axis=axes)
    if isinstance(expr, Product):
        parts = [_compile(c, access_names, pins, order_key, point) for c in expr.children]
        union = tuple(sorted({n for names, _ in parts for n in names}, key=order_key))
        steps = tuple((run, _view(names, union)) for names, run in parts)

        def run_product(access: DistAccess) -> np.ndarray:
            out = None
            for run, view in steps:
                a = _apply(run(access), view)
                out = a if out is None else out * a
            return out

        return union, run_product
    if isinstance(expr, ChainProduct):
        return _compile_chain(expr, access_names, pins, order_key, point)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _compile_chain(
    expr: ChainProduct,
    access_names: tuple[str, ...],
    pins: Mapping[str, int],
    order_key,
    point: bool,
) -> tuple[tuple[str, ...], Callable[[DistAccess], np.ndarray]]:
    """Each chain factor is formed by :func:`conditional` from a numerator
    marginal, which checks for an empty conditioning event first.

    A pin the child does not take is sliced from each numerator after it is
    summed, so a factor checks its conditioning events only at the pinned
    values; a pin on the factor's own variable is sliced after that check.
    For a table the child takes every pin and the chain slices only its free
    references. For a point each factor runs the child pinned only on its own
    conditioning set and the child's free references, as the tree interpreter
    did; factors with the same pinned names share one run of the child.
    """
    base_chain = _is_base_chain(expr.child)
    factor_pins = [pins if not point else
                   {n: x for n, x in pins.items() if n in zs or n in expr.child.free}
                   for _, zs in expr.conds]
    if not point:
        pins = {n: v for n, v in pins.items() if n not in expr.scope}
    family = expr.child.free - set(pins)  # context axes: never summed out
    children: dict[tuple, int] = {}  # child pins -> index into child_plans
    child_plans, steps = [], []
    out_names: tuple[str, ...] = ()
    for (v, zs), child_pins in zip(expr.conds, factor_pins):
        keep = frozenset(zs) | {v} | family
        if base_chain:
            child = sum_axes = None
            num_names = _leaf_names(keep, access_names)
        else:
            child = children.setdefault(tuple(sorted(child_pins.items())), len(children))
            if child == len(child_plans):
                child_plans.append(
                    _compile(expr.child, access_names, child_pins, order_key, point))
            cnames = child_plans[child][0]
            sum_axes = tuple(i for i, n in enumerate(cnames) if n not in keep)
            num_names = tuple(n for n in cnames if n in keep)
        slc, num_names = _sliced(num_names, {n: x for n, x in pins.items() if n != v})
        v_slc, factor_names = _sliced(num_names, {v: pins[v]} if v in pins else {})
        target = tuple(sorted(set(out_names) | set(factor_names), key=order_key))
        steps.append((
            keep, child, sum_axes, slc, v, num_names, v_slc,
            {n: pins[n] for n in zs if n in pins},
            _view(out_names, target), _view(factor_names, target),
        ))
        out_names = target
    if set(out_names) != (expr.scope | expr.free) - set(pins):  # pragma: no cover - structural
        raise ScopeMismatch("chain factors do not cover the node scope")

    def run_chain(access: DistAccess) -> np.ndarray:
        carrs = [run(access) for _, run in child_plans]
        out = None  # from the first factor on, so a plan keeps the access's dtype
        for (keep, child, sum_axes, slc, v, num_names, v_slc, event_pins,
             out_view, factor_view) in steps:
            num = (access.marginal_probs(keep) if child is None
                   else carrs[child].sum(axis=sum_axes))
            if slc is not None:
                num = num[slc]
            factor = conditional(num, num_names, v, event_pins)
            if v_slc is not None:
                factor = factor[v_slc]
            factor = _apply(factor, factor_view)
            out = factor if out is None else _apply(out, out_view) * factor
        return _ONE if out is None else out  # an empty chain is the constant 1

    return out_names, run_chain


# Bounded: a plan depends only on its key and holds no access, so equal trees
# share one plan across graphs; a sweep reuses a graph's few plans back to back.
@lru_cache(maxsize=64)
def _plan(expr: DistExpr, access_names: tuple[str, ...], pins: tuple[tuple[str, int], ...],
          point: bool) -> tuple[tuple[str, ...], Callable[[DistAccess], np.ndarray]]:
    """The axes and runner :func:`_compile` gives ``expr`` for an access over
    ``access_names`` with the sorted ``(name, value)`` pairs ``pins`` fixed,
    under the point or the table binding rule."""
    order, pinned = {n: i for i, n in enumerate(access_names)}, dict(pins)
    names, run = _compile(expr, access_names, pinned, order.get, point)
    if not point and expr.free <= set(pinned) and set(names) != expr.scope:  # pragma: no cover
        raise ScopeMismatch(f"materialized axes {names} do not match scope")
    return names, run


def evaluate(expr: DistExpr, access: DistAccess, env: Mapping[str, int]) -> float:
    """Evaluate the expression at one point.

    ``env`` must assign every scope variable and every free reference of the
    expression a symbol of the access; extra keys are ignored. The tree's plan
    with those values pinned is run once. A point checks only the
    conditioning events its values reach, so it can evaluate where the
    table for the same intervention meets an empty event.
    """
    needed = expr.scope | expr.free
    missing = needed - set(env)
    if missing:
        raise ScopeMismatch(f"environment lacks values for {sorted(missing)}")
    pins = _symbols({n: env[n] for n in needed}, access)
    _, run = _plan(expr, access.names, tuple(sorted(pins.items())), True)
    return float(run(access))


def full_table(
    expr: DistExpr, access: DistAccess, fixed: Mapping[str, int] | None = None
) -> PmfTable:
    """Materialize the expression over its scope.

    ``fixed`` assigns free references of the expression values, each a
    symbol of the access (for instance the intervention values); a free
    reference it leaves out stays as an extra axis, one distribution slice per
    configuration. The result axes follow the access's variable order. With
    no extra axes, a total deviating from 1 by more than
    :data:`TABLE_TOTAL_TOL` (or NaN) is an error. The plan comes from the one
    plan cache, keyed by the tree, the access's names and the fixed values.
    """
    fixed = {n: v for n, v in (fixed or {}).items() if n not in expr.scope}
    _symbols(fixed, access)
    names, run = _plan(expr, access.names, tuple(sorted(fixed.items())), False)
    arr = run(access)
    if not expr.free <= set(fixed):
        return PmfTable(names, arr, context=fixed, normalized=False)
    total = float(arr.sum())
    if not abs(total - 1.0) <= TABLE_TOTAL_TOL:
        raise ValueError(f"estimand table mass {total!r} deviates from 1")
    return PmfTable(names, arr, context=fixed, normalized=abs(total - 1.0) <= TOTAL_TOL)


# -- rendering ----------------------------------------------------------------


def _is_base_chain(expr: DistExpr) -> bool:
    while isinstance(expr, Marginal):
        expr = expr.child
    return isinstance(expr, BaseDist)


def _base_order(expr: DistExpr) -> tuple[str, ...]:
    while not isinstance(expr, BaseDist):
        if isinstance(expr, Product):
            expr = expr.children[0]
        else:
            expr = expr.child
    return expr.names


def render(expr: DistExpr, style: str = "text") -> str:
    """Deterministic human-readable formula.

    Conditionals over (marginals of) the input distribution print as
    ``P[v|z,...]``; rebased chain products are inlined as explicit ratios.
    Summation-bound variables are primed when their names occur free or in
    scope at the top level.
    """
    if style not in ("text", "latex"):
        raise ValueError(f"unknown render style {style!r}")
    order = _base_order(expr)
    pos = {n: i for i, n in enumerate(order)}
    taken = expr.scope | expr.free
    symbols = {n: n.lower() for n in order}

    latex = style == "latex"

    def sym(n: str, env: Mapping[str, str]) -> str:
        return env.get(n, symbols[n])

    def bind(names: Sequence[str], env: dict[str, str]) -> list[str]:
        bound = []
        for n in sorted(names, key=pos.get):
            s = symbols[n] + ("'" if n in taken else "")
            while s in env.values():
                s += "'"
            env[n] = s
            bound.append(s)
        return bound

    def sum_prefix(bound: list[str]) -> str:
        inner = ",".join(bound)
        if latex:
            return rf"\sum_{{{inner}}} "
        return f"Σ_{inner} " if len(bound) == 1 else f"Σ_{{{inner}}} "

    def factor(child: DistExpr, v: str, zs: tuple[str, ...], env: dict[str, str]) -> str:
        zs_sorted = sorted(zs, key=pos.get)
        if _is_base_chain(child):
            mid = r" \mid " if latex else "|"
            body = sym(v, env)
            if zs_sorted:
                body += mid + ",".join(sym(z, env) for z in zs_sorted)
            return f"P[{body}]"
        num = walk(marginal(child, child.scope - (set(zs) | {v})), dict(env))
        if not zs:
            return f"({num})" if not latex else num
        den = walk(marginal(child, child.scope - set(zs)), dict(env))
        if latex:
            return rf"\dfrac{{{num}}}{{{den}}}"
        return f"({num})/({den})"

    def walk(node: DistExpr, env: dict[str, str] | None = None) -> str:
        env = dict(env or {})
        if isinstance(node, BaseDist):
            return "P[" + ",".join(sym(n, env) for n in node.names) + "]"
        if isinstance(node, Marginal):
            drop = node.drop
            child = node.child
            while isinstance(child, Marginal):
                drop |= child.drop
                child = child.child
            bound = bind(sorted(drop, key=pos.get), env)
            return sum_prefix(bound) + walk(child, env)
        if isinstance(node, ChainProduct):
            return "".join(factor(node.child, v, zs, env) for v, zs in node.conds)
        if isinstance(node, Product):
            sep = r" \cdot " if latex else "·"
            parts = []
            for c in node.children:
                s = walk(c, env)
                if isinstance(c, (Marginal, Product)):
                    s = f"({s})"
                parts.append(s)
            return sep.join(parts)
        raise TypeError(f"unknown expression node {type(node).__name__}")

    return walk(expr)


def to_json_dict(expr: DistExpr) -> dict:
    """Serialize the tree, mirroring the node variants."""
    if isinstance(expr, BaseDist):
        return {"kind": "base", "scope": list(expr.names)}
    if isinstance(expr, Marginal):
        return {"kind": "marginal", "drop": sorted(expr.drop),
                "child": to_json_dict(expr.child)}
    if isinstance(expr, ChainProduct):
        return {"kind": "chain", "over": list(expr.over),
                "conds": {v: list(zs) for v, zs in expr.conds},
                "child": to_json_dict(expr.child)}
    if isinstance(expr, Product):
        return {"kind": "product", "children": [to_json_dict(c) for c in expr.children]}
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def from_json_dict(obj: Mapping) -> DistExpr:
    kind = obj["kind"]
    if kind == "base":
        return BaseDist(tuple(obj["scope"]))
    if kind == "marginal":
        return Marginal(from_json_dict(obj["child"]), frozenset(obj["drop"]))
    if kind == "chain":
        child = from_json_dict(obj["child"])
        over = tuple(obj["over"])
        conds = tuple((v, tuple(obj["conds"][v])) for v in over)
        return ChainProduct(child, over, conds)
    if kind == "product":
        return Product(tuple(from_json_dict(c) for c in obj["children"]))
    raise ValueError(f"unknown expression kind {kind!r}")
