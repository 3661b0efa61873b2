"""Distances between distributions given tables, evaluators, and samplers,
oracle comparison reports, the exact structural identities of the
component factorization, and the exhaustive soundness sweep over small
mixed graphs."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .admg import Admg, CycleDetected
from .identify import CausalQuery, Estimand, HedgeWitness, identify
from .learn import ConditionalTable, LearnConfig, LearnedInterventional, RelativePartition, learn_q
from .scm import (
    CausalBayesNet,
    exact_interventional,
    exact_observational,
    interventional_family,
    latent_project,
    random_net_for,
)
from .tables import PmfTable, Samples, ScopeMismatch, row_product, symbols_of


class InfiniteKL(ArithmeticError):
    """The first distribution puts mass outside the second's support."""


class ZeroEvaluatorMass(ArithmeticError):
    """The reference evaluator returned zero at a sampled point."""


class GraphMismatch(ValueError):
    """The learned object and the ground-truth net disagree on the graph."""


def _check_aligned(a: PmfTable, b: PmfTable) -> None:
    if a.names != b.names:
        raise ScopeMismatch(f"tables over {a.names} and {b.names} are not aligned")


def exact_tv(a: PmfTable, b: PmfTable) -> float:
    """Total variation distance: half the entrywise L1 difference."""
    _check_aligned(a, b)
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def exact_kl(a: PmfTable, b: PmfTable) -> float:
    """KL divergence in nats, with the 0*log(0/q) = 0 convention."""
    _check_aligned(a, b)
    pa = a.probs
    pb = b.probs
    if np.any((pa > 0.0) & (pb == 0.0)):
        raise InfiniteKL("first table has mass outside the second's support")
    mask = pa > 0.0
    return float(np.sum(pa[mask] * np.log(pa[mask] / pb[mask])))


class TvEstimate(NamedTuple):
    value: float
    samples_used: int


def estimate_tv(
    sampler: Callable[[int, int], Samples],
    eval_p: Callable[[Mapping[str, np.ndarray]], float | np.ndarray],
    eval_q: Callable[[Mapping[str, np.ndarray]], float | np.ndarray],
    epsilon: float,
    delta: float,
    seed: int,
) -> TvEstimate:
    """Monte-Carlo estimate of the distance between two evaluators.

    ``sampler(seed, m)`` must draw from the first distribution. The mean of
    ``max(0, 1 - q(x)/p(x))`` over the draws estimates the distance; with
    pointwise-accurate evaluators the additive error is within ``4*epsilon``
    with probability at least ``1 - delta``.

    Each evaluator is called once, with the whole batch: a mapping from each
    sampled variable to its integer column. It returns the mass at every row
    (an array of length m, or anything that broadcasts to it), as
    ``PmfTable.pmf`` and ``LearnedInterventional.evaluate`` do. ``epsilon``
    and ``delta`` are checked as :class:`~dolearn.learn.LearnConfig` checks
    them.
    """
    LearnConfig(epsilon, delta)
    m = int(math.ceil(2.0 * epsilon**-2 * math.log(2.0 / delta)))
    batch = sampler(seed, m)
    cols = {n: batch.values[:, j] for j, n in enumerate(batch.names)}
    p = np.broadcast_to(np.asarray(eval_p(cols), dtype=np.float64), (batch.m,))
    zero = p == 0.0
    if zero.any():
        row = batch.values[int(np.argmax(zero))]
        a = {n: int(v) for n, v in zip(batch.names, row)}
        raise ZeroEvaluatorMass(f"reference evaluator is zero at {a!r}")
    q = np.broadcast_to(np.asarray(eval_q(cols), dtype=np.float64), (batch.m,))
    return TvEstimate(float(np.maximum(0.0, 1.0 - q / p).sum()) / m, m)


@dataclass(frozen=True)
class FactorError:
    """Worst conditional-row error of one learned factor against the truth."""

    target: str
    worst_event: dict[str, int]
    abs_error: float


@dataclass(frozen=True)
class VerifyReport:
    tv: float
    kl: float | None
    x: dict[str, int]
    m: int | None
    factor_errors: tuple[FactorError, ...] = ()

    def worst_factor(self) -> FactorError | None:
        if not self.factor_errors:
            return None
        return max(self.factor_errors, key=lambda f: f.abs_error)


def compare_to_oracle(
    li: LearnedInterventional,
    net: CausalBayesNet,
    x: Mapping[str, int],
) -> VerifyReport:
    """Materialize the learned evaluator and compare it to the exact
    interventional table of the ground-truth net."""
    if latent_project(net) != li.graph:
        raise GraphMismatch("net does not project onto the learned object's graph")
    if dict(x) != dict(li.x):
        raise GraphMismatch(f"object was learned for {li.x}, queried with {dict(x)}")
    oracle = exact_interventional(net, x)
    learned = li.table().aligned_to(oracle.names)
    tv = exact_tv(learned, oracle)
    try:
        kl = exact_kl(oracle, learned)
    except InfiniteKL:
        kl = None
    factor_errors = []
    for name in li.order:
        f = li.factors[name]
        free = [c for c in f.cond if c not in li.x]
        axes = free + [name]
        cards = [li.graph.cards[li.graph.index(c)] for c in axes]
        grid = dict(li.x)
        grid.update(zip(axes, np.indices(cards, sparse=True)))
        learned = row_product([f.step], grid)
        joint = oracle.marginal_probs(axes)
        mass = oracle.marginal_probs(free)[..., None] if free else 1.0
        # unreachable configurations are skipped: their rows are immaterial
        reached = np.broadcast_to(np.greater(mass, 0.0), joint.shape)
        true = np.divide(joint, mass, out=np.zeros_like(joint), where=reached)
        err = np.where(reached, np.abs(learned - true), 0.0)
        worst = int(np.argmax(err))  # the first maximum in row-major order
        worst_event = (
            dict(zip(axes, map(int, np.unravel_index(worst, err.shape))))
            if err.flat[worst] > 0.0 else {}
        )
        factor_errors.append(FactorError(name, worst_event, float(err.flat[worst])))
    m = li.metadata.get("m") if isinstance(li.metadata, dict) else None
    return VerifyReport(
        tv=tv, kl=kl, x=dict(x), m=m, factor_errors=tuple(factor_errors)
    )


# -- exact structural identities of the component factorization ----------------


def tian_q_table(
    obs: PmfTable,
    g: Admg,
    part: RelativePartition,
    fix: Mapping[str, int],
    factors: Mapping[str, ConditionalTable] | None = None,
) -> PmfTable:
    """The non-intervened-components distribution for one fixing of the rest.

    With ``factors`` given, learned rows replace the exact conditionals.
    A ``fix`` without a symbol in range for each c_low variable raises :class:`ScopeMismatch`.
    """
    symbols_of(fix, g.names_of(part.c_low), [g.cards[i] for i in sorted(part.c_low)])
    if factors is None:
        factors = learn_q(obs, g, part)
    names = tuple(g.names[i] for i in sorted(part.c_high))
    cards = tuple(g.cards[i] for i in sorted(part.c_high))
    grid = dict(fix)
    grid.update(zip(names, np.indices(cards, sparse=True)))
    arr = row_product([factors[n].step for n in names], grid)
    return PmfTable(names, arr, context=dict(fix), normalized=False)


def kl_decomposition_sides(
    obs: PmfTable,
    g: Admg,
    part: RelativePartition,
    q_factors: Mapping[str, ConditionalTable],
    fix: Mapping[str, int],
) -> tuple[float, float]:
    """Both sides of the Bayes-net KL decomposition for one fixing.

    Left: :func:`exact_kl` between the exact and learned component
    distributions. Right: the per-variable sum of conditioning-weighted row
    KLs. A bad ``fix`` raises :class:`ScopeMismatch`, as in :func:`tian_q_table`.
    """
    exact = learn_q(obs, g, part)
    q = tian_q_table(obs, g, part, fix, exact)
    q_hat = tian_q_table(obs, g, part, fix, q_factors)
    direct = exact_kl(q, q_hat)
    decomposed = 0.0
    for name in q.names:
        free = [z for z in exact[name].cond if z in q.names]
        axes = free + [name]
        grid = dict(fix)
        grid.update(zip(axes, np.indices([g.cards[g.index(n)] for n in axes], sparse=True)))
        true = row_product([exact[name].step], grid)
        ratio = np.divide(true, row_product([q_factors[name].step], grid),
                          out=np.ones_like(true), where=true > 0.0)
        row_kl = (true * np.log(ratio)).sum(axis=-1)
        weight = q.marginal_probs(free) if free else np.ones(())
        seen = weight > 0.0
        decomposed += float(np.sum(weight[seen] * row_kl[seen]))
    return direct, decomposed


# -- the exhaustive soundness sweep ------------------------------------------------

SOUNDNESS_BOUND = 1e-7  # the largest family-vs-oracle difference the sweep accepts


def sweep_graphs() -> Iterator[tuple[int, Admg]]:
    """Every binary ADMG of the sweep, numbered from 1: the 543 DAGs on
    A, B, C, D in the order of the bit mask over the ordered vertex pairs,
    each with the 22 bidirected sets in turn (none, each single edge, then
    each pair of edges). Realization seeds are derived from the numbers, so
    a number always names the same graph."""
    names = ("A", "B", "C", "D")
    n = len(names)
    cards = (2,) * n
    ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
    unordered = list(itertools.combinations(range(n), 2))
    bidirected = [frozenset(c) for k in range(3) for c in itertools.combinations(unordered, k)]
    number = 0
    for mask in range(1 << len(ordered)):
        edges = frozenset(p for k, p in enumerate(ordered) if mask >> k & 1)
        try:
            Admg(names, cards, edges, frozenset())
        except CycleDetected:
            continue
        for bid in bidirected:
            number += 1
            yield number, Admg(names, cards, edges, bid)


def family_error(est: Estimand, net: CausalBayesNet, obs: PmfTable) -> float:
    """Largest entrywise difference between the estimand's family table on
    ``obs`` (the net's exact observational table) and the net's exact
    interventional family, over every value of the intervened variables; a
    NaN entry counts as an infinite difference."""
    fam = est.family_table(obs)
    # broadcast over observables the formula never reads
    idx = tuple(slice(None) if n in fam.names else None for n in obs.names)
    got = np.broadcast_to(fam.probs[idx], obs.cards)
    oracle = interventional_family(net, est.intervened)
    diff = float(np.abs(got - oracle.probs).max())
    return math.inf if math.isnan(diff) else diff


@dataclass(frozen=True)
class SweepResult:
    """What :func:`soundness_sweep` counted and where it met its worst check.
    Each hedge keeps its subgraph, root set and internal set, not its trace."""

    graphs: int
    identifiable: int
    checks: int
    worst: float
    worst_at: tuple[int, str, int] | None  # (graph number, variable, net seed)
    hedges: tuple[tuple[int, Admg, str, HedgeWitness], ...]  # (graph number, graph, variable, hedge)


def soundness_sweep(realizations: int) -> SweepResult:
    """Identify ``do(v = 0)`` on every other variable, for every variable
    ``v`` of every graph of :func:`sweep_graphs`, and check each estimand's
    family against the oracle on ``realizations`` random nets per graph,
    graph ``k`` realized with seeds ``100_000·k + t``."""
    graphs = identifiable = checks = 0
    worst, worst_at = 0.0, None
    hedges = []
    for number, g in sweep_graphs():
        graphs += 1
        estimands = []
        for name in g.names:
            res = identify(CausalQuery(g, {name: 0}, frozenset(g.names) - {name}))
            if isinstance(res, Estimand):
                estimands.append((name, res))
            else:
                hedges.append((number, g, name, replace(res, trace=())))
        identifiable += len(estimands)
        if not estimands:
            continue
        for t in range(realizations):
            seed = 100_000 * number + t
            net = random_net_for(g, seed=seed)
            obs = exact_observational(net)
            for name, est in estimands:
                diff = family_error(est, net, obs)
                checks += 1
                if worst_at is None or diff > worst:
                    worst, worst_at = diff, (number, name, seed)
    return SweepResult(graphs, identifiable, checks, worst, worst_at, tuple(hedges))
