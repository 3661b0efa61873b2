"""Loop-and-stack reference versions of the vectorized batch kernels.

Each function here is the straightforward form that the package code
replaced; the differential tests require the package to match them exactly
(or, for the verification identities, to 1e-12).
"""

from __future__ import annotations

import csv
import io as _io
import math
from typing import Iterator

import numpy as np

from dolearn.admg import Admg, GraphError
from dolearn.estimand import (
    BaseDist,
    ChainProduct,
    Marginal,
    PositivityViolation,
    Product,
    _is_base_chain,
    full_table,
)
from dolearn.io import SampleCsvError
from dolearn.learn import ConditionalTable, _q_conds
from dolearn.scm import CausalBayesNet, CbnNode, exact_interventional, exact_observational
from dolearn.tables import PmfTable, Samples, ScopeMismatch, iter_assignments, strides_for
from dolearn.verify import exact_tv
from dolearn.witness import IndistinguishablePair


def draw_compare_and_cap(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draws from an (m, card) array of per-draw cumulative rows."""
    card = cum_rows.shape[1]
    vals = (u[:, None] > cum_rows).sum(axis=1)
    return np.minimum(vals, card - 1).astype(np.int64)


def net_topological_order(net) -> tuple[str, ...]:
    """Kahn's sort with the ready list re-sorted by declaration position after
    every step, recomputed from the nodes on each call."""
    pos = {nd.name: i for i, nd in enumerate(net.nodes)}
    indeg = {nd.name: len(nd.parents) for nd in net.nodes}
    children: dict[str, list[str]] = {nd.name: [] for nd in net.nodes}
    for nd in net.nodes:
        for p in nd.parents:
            children[p].append(nd.name)
    ready = sorted([n for n, d in indeg.items() if d == 0], key=pos.get)
    out: list[str] = []
    while ready:
        u = ready.pop(0)
        out.append(u)
        for c in children[u]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort(key=pos.get)
    return tuple(out)


def latent_project(net) -> Admg:
    """Hidden nodes collapsed to bidirected edges by walking every node's
    parents; returns ``None`` where the net is not in standard form."""
    obs = net.observables
    pos = {n: i for i, n in enumerate(obs)}
    children: dict[str, list[str]] = {h: [] for h in net.hiddens}
    directed = set()
    for nd in net.nodes:
        for p in nd.parents:
            if net.node(p).hidden:
                if nd.hidden:
                    return None
                children[p].append(nd.name)
            elif not nd.hidden:
                directed.add((pos[p], pos[nd.name]))
    bidirected = set()
    for h in net.hiddens:
        if net.node(h).parents or len(children[h]) != 2:
            return None
        bidirected.add(tuple(sorted(pos[k] for k in children[h])))
    return Admg(obs, tuple(net.cardinality(n) for n in obs), frozenset(directed),
                frozenset(bidirected))


def sample_observational(net, seed: int, m: int) -> np.ndarray:
    """(m, n_observed) draws: per-node row gather, compare-and-cap, stack."""
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    for name in net_topological_order(net):
        nd = net.node(name)
        rows = np.zeros(m, dtype=np.int64)
        strides = strides_for([net.cardinality(p) for p in nd.parents])
        for p, s in zip(nd.parents, strides):
            rows += cols[p] * s
        cum = np.cumsum(nd.cpt, axis=1)[rows]
        cols[name] = draw_compare_and_cap(cum, rng.random(m))
    obs = net.observables
    return np.stack([cols[n] for n in obs], axis=1) if obs else np.zeros((m, 0), int)


def generate_sample(li, seed: int, m: int) -> np.ndarray:
    """(m, n_targets) draws from a learned object, intervened columns held fixed."""
    rng = np.random.default_rng(seed)
    cols = {n: np.full(m, v, dtype=np.int64) for n, v in li.x.items()}
    for name in li.order:
        f = li.factors[name]
        rows = np.zeros(m, dtype=np.int64)
        for c, s in zip(f.cond, strides_for(f.cond_cards)):
            rows += cols[c] * s
        cols[name] = draw_compare_and_cap(np.cumsum(f.probs, axis=1)[rows], rng.random(m))
    if not li.order:
        return np.zeros((m, 0), dtype=np.int64)
    return np.stack([cols[n] for n in li.order], axis=1)


def _row(f, env) -> np.ndarray:
    """A learned factor's probability row at the conditioning values in ``env``."""
    return f.probs[sum(env[n] * s for n, s in zip(f.cond, strides_for(f.cond_cards)))]


def evaluate_point(li, y) -> float:
    """One learned-evaluator value: scalar row lookups multiplied in order."""
    env = dict(li.x)
    env.update(y)
    out = 1.0
    for n in li.order:
        f = li.factors[n]
        out *= float(_row(f, env)[env[n]])
    return out


def evaluator_table(li) -> np.ndarray:
    """The learned evaluator at every target assignment, one point at a time."""
    cards = li.cards()
    arr = np.empty(cards, dtype=np.float64)
    for combo in np.ndindex(*cards):
        arr[combo] = evaluate_point(li, dict(zip(li.order, (int(c) for c in combo))))
    return arr


def counts_over(names, values: np.ndarray, keep, cards) -> np.ndarray:
    """Joint counts over ``keep`` by one bincount over all rows."""
    if not keep:
        return np.array(float(len(values)))
    codes = np.zeros(len(values), dtype=np.int64)
    for n, s in zip(keep, strides_for(cards)):
        codes += values[:, list(names).index(n)].astype(np.int64) * s
    size = int(np.prod(cards))
    return np.bincount(codes, minlength=size).reshape(cards).astype(np.float64)


# -- row products and verification identities, as they were before the shared
#    row-product kernel --------------------------------------------------------


def _full_joint(net, skip: frozenset[str] = frozenset()) -> np.ndarray:
    """Dense joint over all nodes in declaration order, omitting the mechanisms
    of ``skip`` (their axes remain but carry no factor)."""
    shape = tuple(nd.cardinality for nd in net.nodes)
    joint = np.ones(shape, dtype=np.float64)
    for nd in net.nodes:
        if nd.name in skip:
            continue
        joint = joint * mechanism_factor(net, nd)
    return joint


def mechanism_factor(net, nd) -> np.ndarray:
    """One node's CPT as an array over all nodes in declaration order, with
    length-1 axes for the nodes it does not read."""
    pos = {m.name: i for i, m in enumerate(net.nodes)}
    shape = tuple(m.cardinality for m in net.nodes)
    axes = [pos[p] for p in nd.parents] + [pos[nd.name]]
    arr = nd.cpt.reshape(
        tuple(net.cardinality(p) for p in nd.parents) + (nd.cardinality,)
    )
    arr = np.transpose(arr, np.argsort(axes))
    full_shape = [1] * len(shape)
    for ax in sorted(axes):
        full_shape[ax] = shape[ax]
    return arr.reshape(full_shape)


def observable_family(net, skip: frozenset[str] = frozenset()) -> np.ndarray:
    """The truncated-factorization array over the observables: the joint above
    with every hidden axis summed out."""
    joint = _full_joint(net, skip)
    hidden_axes = tuple(i for i, nd in enumerate(net.nodes) if nd.hidden)
    if hidden_axes:
        joint = joint.sum(axis=hidden_axes)
    return joint


def component_of(g, i: int, within: frozenset[int] | None = None) -> frozenset[int]:
    for comp in g.c_components(within):
        if i in comp:
            return comp
    raise GraphError(f"variable {i} outside restriction")


def effective_parents(g, order, vi: int, within: frozenset[int] | None = None) -> frozenset[int]:
    """Conditioning set for ``vi``: parents-plus of its c-component, cut to
    the part of ``order`` that precedes ``vi``."""
    scope = frozenset(range(g.n)) if within is None else frozenset(within)
    comp = component_of(g, vi, scope)
    prefix = frozenset(order[: list(order).index(vi)]) & scope
    return g.pa_plus(comp, scope) & prefix


def tian_q_value(obs, g, part, env) -> float:
    """Product of exact effective-parent conditionals over the non-intervened
    components, evaluated at a full assignment."""
    order = g.topological_order()
    out = 1.0
    for i in sorted(part.c_high):
        name = g.names[i]
        zs = sorted(effective_parents(g, order, i))
        znames = [g.names[z] for z in zs]
        num = obs.marginal_to(set(znames) | {name}).pmf(env)
        den = obs.marginal_to(set(znames)).pmf(env)
        if den == 0.0:
            raise PositivityViolation(name, {z: env[z] for z in znames})
        out *= num / den
    return out


def tian_q_table(obs, g, part, fix, factors=None) -> PmfTable:
    """The non-intervened-components distribution for one fixing of the rest.

    With ``factors`` given, learned rows replace the exact conditionals.
    """
    names = tuple(g.names[i] for i in sorted(part.c_high))
    cards = tuple(g.cards[i] for i in sorted(part.c_high))
    arr = np.empty(cards, dtype=np.float64)
    for combo in np.ndindex(*cards):
        env = dict(fix)
        env.update(zip(names, (int(c) for c in combo)))
        if factors is None:
            arr[combo] = tian_q_value(obs, g, part, env)
        else:
            out = 1.0
            for n in names:
                f = factors[n]
                out *= float(_row(f, env)[env[n]])
            arr[combo] = out
    return PmfTable(names, arr, context=dict(fix), normalized=False)


def kl_decomposition_sides(obs, g, part, q_factors, fix) -> tuple[float, float]:
    """Both sides of the Bayes-net KL decomposition for one fixing."""
    order = g.topological_order()
    q = tian_q_table(obs, g, part, fix)
    q_hat = tian_q_table(obs, g, part, fix, q_factors)
    direct = float(
        np.sum(np.where(q.probs > 0.0, q.probs * np.log(
            np.where(q.probs > 0.0, q.probs, 1.0)
            / np.where(q_hat.probs > 0.0, q_hat.probs, 1.0)
        ), 0.0))
    )
    decomposed = 0.0
    high_names = set(q.names)
    for i in sorted(part.c_high):
        name = g.names[i]
        zs = sorted(effective_parents(g, order, i))
        znames = [g.names[z] for z in zs]
        free = [z for z in znames if z in high_names]
        fcards = [g.cards[g.index(z)] for z in free]
        joint = obs.marginal_to(set(znames) | {name})
        z_marg = obs.marginal_to(set(znames))
        q_marg = q.marginal_to(free)
        for combo in np.ndindex(*fcards):
            env = dict(fix)
            env.update(zip(free, (int(c) for c in combo)))
            weight = q_marg.pmf(env) if free else 1.0
            if weight == 0.0:
                continue
            den = z_marg.pmf(env)
            true_row = np.array([
                joint.pmf(env | {name: s}) / den
                for s in range(g.cards[i])
            ])
            hat_row = _row(q_factors[name], env)
            mask = true_row > 0.0
            decomposed += weight * float(
                np.sum(true_row[mask] * np.log(true_row[mask] / hat_row[mask]))
            )
    return direct, decomposed


def factor_errors(li, oracle) -> list[tuple[str, dict[str, int], float]]:
    """(target, worst event, worst absolute error) of each learned factor
    against the conditionals of the oracle table, one assignment at a time."""
    out = []
    for name in li.order:
        f = li.factors[name]
        free = [c for c in f.cond if c not in li.x]
        joint = oracle.marginal_to(set(free) | {name})
        cond_marg = oracle.marginal_to(set(free))
        worst = 0.0
        worst_event: dict[str, int] = {}
        cards = [li.graph.cards[li.graph.index(c)] for c in free]
        for combo in np.ndindex(*cards):
            env = dict(li.x)
            env.update(zip(free, (int(c) for c in combo)))
            mass = cond_marg.pmf(env) if free else 1.0
            if mass <= 0.0:
                continue  # unreachable configuration: rows are immaterial
            row = _row(f, env)
            for s in range(f.target_card):
                true_p = joint.pmf(env | {name: s}) / mass
                err = abs(float(row[s]) - true_p)
                if err > worst:
                    worst = err
                    worst_event = {k: v for k, v in env.items() if k in free}
                    worst_event[name] = s
        out.append((name, worst_event, worst))
    return out


# -- exact Bayes-net rows, as they were before one function formed every
#    conditional ---------------------------------------------------------------


def q_from_table(obs, g, part):
    """Infinite-sample conditionals: exact ratios of the supplied table, each
    materialized as a one-factor chain over the input distribution."""
    conds = _q_conds(g, part)
    base = BaseDist(g.names)
    out = {}
    for i in sorted(part.c_high):
        name = g.names[i]
        znames = conds[name]
        zcards = tuple(g.cards[g.index(z)] for z in znames)
        chain = ChainProduct(base, (name,), ((name, znames),))
        rows = full_table(chain, obs).aligned_to(znames + (name,))
        out[name] = ConditionalTable(
            name, g.cards[i], znames, zcards, rows.probs, kind="exact"
        )
    return out


# -- the sample CSV writer, as it was before it shared the batch's encoding pass


def samples_to_csv(samples) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(samples.names)
    writer.writerows(samples.values.tolist())
    return buf.getvalue()


# -- the sample CSV codec, as it was before single-digit batches became byte arrays


def samples_to_csv_by_row_codes(samples) -> str:
    """Each distinct row rendered once, the lines gathered by the row codes."""
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(samples.names)
    code, size = samples.row_codes()
    at = np.full(size, -1, dtype=np.int64)
    at[code] = np.arange(samples.m)
    present = np.flatnonzero(at >= 0)
    lines = np.empty(size, dtype=object)
    lines[present] = [",".join(map(str, row)) + "\n"
                      for row in samples.values[at[present]].tolist()]
    buf.write("".join(lines[code].tolist()))
    return buf.getvalue()


def samples_from_csv_by_loadtxt(text: str):
    """A header row of names, then every body parsed by ``np.loadtxt``."""
    head, _, body = text.partition("\n")
    header = next(csv.reader([head.rstrip("\r")]), [])
    if not header:
        raise SampleCsvError("sample CSV has no header row")
    if not body.strip():
        raise SampleCsvError("sample CSV has a header but no data rows")
    try:
        values = np.loadtxt(_io.StringIO(body), dtype=np.int64, delimiter=",",
                            comments=None, ndmin=2)
    except ValueError as exc:
        raise SampleCsvError(f"sample CSV body: {exc}") from None
    if values.shape[1] != len(header):
        raise SampleCsvError(
            f"sample CSV rows have {values.shape[1]} cells, header has {len(header)}"
        )
    return Samples(tuple(header), values)


# -- the estimand interpreter, as it was before estimands were compiled to plans


def _marginal_to(access, keep) -> tuple[tuple[str, ...], np.ndarray]:
    """The access's marginal over ``keep``, axes in access order, with every
    name checked to be a variable of the access."""
    unknown = set(keep) - set(access.names)
    if unknown:
        raise ScopeMismatch(f"cannot keep unknown variables {sorted(unknown)}")
    return tuple(n for n in access.names if n in keep), access.marginal_probs(keep)


def _aligned(arr: np.ndarray, names: tuple[str, ...], target: tuple[str, ...]) -> np.ndarray:
    """View ``arr`` broadcastable over the axes of ``target``."""
    idx = tuple(slice(None) if n in names else None for n in target)
    perm = tuple(names.index(n) for n in target if n in names)
    return np.transpose(arr, perm)[idx] if arr.ndim else arr[idx]


def _node_table(expr, access, fixed, order_key) -> tuple[tuple[str, ...], np.ndarray]:
    """Dense array over the node's scope plus unfixed free references,
    re-walking the tree at every call; marginals come from :func:`_marginal_to`."""
    if _is_base_chain(expr):
        return _marginal_to(access, expr.scope)
    if isinstance(expr, Marginal):
        names, arr = _node_table(expr.child, access, fixed, order_key)
        axes = tuple(i for i, n in enumerate(names) if n in expr.drop)
        kept = tuple(n for n in names if n not in expr.drop)
        return kept, arr.sum(axis=axes)
    if isinstance(expr, Product):
        parts = [_node_table(c, access, fixed, order_key) for c in expr.children]
        union = tuple(sorted({n for names, _ in parts for n in names}, key=order_key))
        out = None
        for names, arr in parts:
            a = _aligned(arr, names, union)
            out = a if out is None else out * a
        return union, out
    assert isinstance(expr, ChainProduct)
    fixed_free = {n: v for n, v in fixed.items() if n not in expr.scope}
    family = expr.child.free - set(fixed_free)
    base_chain = _is_base_chain(expr.child)
    if not base_chain:
        cnames, carr = _node_table(expr.child, access, fixed, order_key)
    out = np.ones((), dtype=np.float64)
    out_names: tuple[str, ...] = ()
    for v, zs in expr.conds:
        keep = set(zs) | {v} | family
        if base_chain:
            num_names, num = _marginal_to(access, keep)
        else:
            sum_axes = tuple(i for i, n in enumerate(cnames) if n not in keep)
            num_names = tuple(n for n in cnames if n in keep)
            num = carr.sum(axis=sum_axes)
        slc = tuple(fixed_free[n] if n in fixed_free else slice(None) for n in num_names)
        num = num[slc]
        num_names = tuple(n for n in num_names if n not in fixed_free)
        v_axis = num_names.index(v)
        den = num.sum(axis=v_axis, keepdims=True)
        if np.any(den == 0.0):
            flat = int(np.argmax((den == 0.0).reshape(-1)))
            pos = np.unravel_index(flat, den.shape)
            event = {n: int(p) for n, p in zip(num_names, pos) if n != v}
            event |= {n: fixed_free[n] for n in zs if n in fixed_free}
            raise PositivityViolation(v, event)
        factor = num / den
        target = tuple(sorted(set(out_names) | set(num_names), key=order_key))
        out = _aligned(out, out_names, target) * _aligned(factor, num_names, target)
        out_names = target
    result_names = tuple(sorted((expr.scope | expr.free) - set(fixed_free), key=order_key))
    return result_names, _aligned(out, out_names, result_names)


def node_table(expr, access, fixed) -> tuple[tuple[str, ...], np.ndarray]:
    """The axes and array ``full_table`` materialized for ``fixed`` (unfixed
    free references stay as axes), through the interpreter above."""
    fixed = {n: v for n, v in fixed.items() if n not in expr.scope}
    base_order = {n: i for i, n in enumerate(access.names)}
    return _node_table(expr, access, fixed, base_order.get)


# -- the pointwise estimand interpreter, as it was before point evaluation ran
#    the compiled plan ------------------------------------------------------


def _card_map(access) -> dict[str, int]:
    return dict(zip(access.names, access.cards))


def _marginal_value(
    expr,
    keep: frozenset[str],
    pmf,
    env,
    cards,
) -> float:
    summed = sorted(expr.scope - keep)
    if not summed:
        return _value(expr, pmf, env, cards)
    total = []
    env2 = dict(env)
    for combo in iter_assignments(summed, [cards[v] for v in summed]):
        env2.update(combo)
        total.append(_value(expr, pmf, env2, cards))
    return math.fsum(total)


def _value(
    expr,
    pmf,
    env,
    cards,
) -> float:
    if isinstance(expr, BaseDist):
        return pmf(env)
    if isinstance(expr, Marginal):
        return _marginal_value(expr.child, expr.scope, pmf, env, cards)
    if isinstance(expr, Product):
        out = 1.0
        for c in expr.children:
            out *= _value(c, pmf, env, cards)
        return out
    if isinstance(expr, ChainProduct):
        out = 1.0
        for v, zs in expr.conds:
            zset = frozenset(zs)
            den = _marginal_value(expr.child, zset, pmf, env, cards)
            if den == 0.0:
                raise PositivityViolation(v, {z: env[z] for z in zs})
            num = _marginal_value(expr.child, zset | {v}, pmf, env, cards)
            out *= num / den
        return out
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def evaluate(expr, access, env) -> float:
    """The expression at one point, by walking the tree and summing bound
    variables one assignment at a time, each term the mass of the access's
    full joint at one point."""
    needed = expr.scope | expr.free
    missing = needed - set(env)
    if missing:
        raise ScopeMismatch(f"environment lacks values for {sorted(missing)}")
    names, joint = _marginal_to(access, access.names)

    def pmf(point) -> float:
        return float(joint[tuple(point[n] for n in names)])

    return _value(expr, pmf, env, _card_map(access))


# -- random nets, as they were before the CPT rows were drawn in runs -----------


def random_net_for(g, seed: int, gamma: float = 0.1, hidden_cardinality: int = 2):
    """One Dirichlet draw, floor and renormalization per node."""

    def floored_rows(n_rows: int, card: int) -> np.ndarray:
        rows = np.maximum(rng.dirichlet(np.ones(card), size=n_rows), gamma)
        return rows / rows.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(seed)
    hidden_names = []
    base = set(g.names)
    for k, _ in enumerate(g.bidirected):
        name = f"U{k}"
        while name in base:
            name = "_" + name
        hidden_names.append(name)
        base.add(name)
    edge_list = sorted(g.bidirected)
    nodes = [CbnNode(h, hidden_cardinality, (), floored_rows(1, hidden_cardinality),
                     hidden=True) for h in hidden_names]
    for i, name in enumerate(g.names):
        parents = [g.names[p] for p in sorted(g.parents(i))]
        parents += [hidden_names[k] for k, e in enumerate(edge_list) if i in e]
        n_rows = 1
        for p in parents:
            n_rows *= hidden_cardinality if p in hidden_names else g.cards[g.names.index(p)]
        nodes.append(CbnNode(name, g.cards[i], tuple(parents), floored_rows(n_rows, g.cards[i])))
    return CausalBayesNet(nodes)


# -- random graphs and standard forms, as they were before the union-find ------


def random_admg(
    seed: int,
    n: int,
    max_in_degree: int = 2,
    n_bidirected: int = 2,
    max_component: int = 3,
    cardinality: int = 2,
) -> Admg:
    """A whole candidate graph, with every c-component, per drawn edge."""
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


def standard_form(g, hidden_cardinality: int = 2) -> tuple[tuple, ...]:
    """Each observable scans every bidirected edge for its hidden parents."""
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


# -- witness search, as it was with GF(2) canonical forms ----------------------


def _reduce(basis, vec: int) -> int:
    """Reduce a bit vector modulo an echelon basis (descending leaders)."""
    for b in sorted(basis, reverse=True):
        vec = min(vec, vec ^ b)
    return vec


def _echelon(vectors) -> tuple[int, ...]:
    """Unique reduced echelon basis of the span, so equal subspaces always
    produce equal keys."""
    basis: list[int] = []
    for v in vectors:
        v = _reduce(basis, v)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    # clear each leader from every other vector (Gauss-Jordan over GF(2))
    for b in sorted(basis, reverse=True):
        lead = 1 << (b.bit_length() - 1)
        for j, w in enumerate(basis):
            if w != b and w & lead:
                basis[j] = w ^ b
    return tuple(sorted(basis))


class ParitySearch:
    """Parity models keyed by the canonical affine subspace of their
    observables over the hidden bits."""

    def __init__(self, g, x):
        if any(c != 2 for c in g.cards):
            raise ValueError("witness search supports binary variables only")
        self.g = g
        self.x = {g.index(n): int(v) for n, v in x.items()}
        self.order = g.topological_order()
        self.edges = sorted(g.bidirected)
        self.r = len(self.edges)
        # per node: list of input labels, ("v", parent) before ("u", edge_id)
        self.inputs: list[list[tuple[str, int]]] = []
        for i in range(g.n):
            ins: list[tuple[str, int]] = [("v", p) for p in sorted(g.parents(i))]
            ins += [("u", k) for k, e in enumerate(self.edges) if i in e]
            self.inputs.append(ins)
        self.target = sorted(set(range(g.n)) - set(self.x))

    def model_count(self) -> int:
        total = 1
        for ins in self.inputs:
            total *= 2 ** (len(ins) + 1)
        return total

    def _rows(self, model: tuple[int, ...], intervened: bool) -> tuple[list[int], list[int]]:
        """Affine form of every observable over the hidden bits."""
        rows = [0] * self.g.n
        consts = [0] * self.g.n
        for i in self.order:
            if intervened and i in self.x:
                rows[i] = 0
                consts[i] = self.x[i]
                continue
            mask = model[i]
            row, const = 0, (mask >> len(self.inputs[i])) & 1
            for bit, (kind, ref) in enumerate(self.inputs[i]):
                if not (mask >> bit) & 1:
                    continue
                if kind == "u":
                    row ^= 1 << ref
                else:
                    row ^= rows[ref]
                    const ^= consts[ref]
            rows[i] = row
            consts[i] = const
        return rows, consts

    def _key(self, rows: list[int], consts: list[int], coords: list[int]) -> tuple:
        """Canonical form of the affine image over the chosen coordinates."""
        cols = []
        for j in range(self.r):
            col = 0
            for pos, i in enumerate(coords):
                col |= ((rows[i] >> j) & 1) << pos
            cols.append(col)
        basis = _echelon(iter(cols))
        offset = 0
        for pos, i in enumerate(coords):
            offset |= consts[i] << pos
        return basis, _reduce(basis, offset)

    def keys(self, model: tuple[int, ...]) -> tuple[tuple, tuple]:
        rows, consts = self._rows(model, intervened=False)
        obs_key = self._key(rows, consts, list(range(self.g.n)))
        rows_i, consts_i = self._rows(model, intervened=True)
        int_key = self._key(rows_i, consts_i, self.target)
        return obs_key, int_key

    def build_net(self, model: tuple[int, ...]) -> CausalBayesNet:
        g = self.g
        hidden = [f"U{k}" for k in range(self.r)]
        taken = set(g.names)
        for k, h in enumerate(hidden):
            while h in taken:
                h = "_" + h
            hidden[k] = h
            taken.add(h)
        nodes = [
            CbnNode(h, 2, (), np.array([[0.5, 0.5]]), hidden=True) for h in hidden
        ]
        for i, name in enumerate(g.names):
            ins = self.inputs[i]
            parents = tuple(
                g.names[ref] if kind == "v" else hidden[ref] for kind, ref in ins
            )
            mask = model[i]
            const = (mask >> len(ins)) & 1
            n_rows = 2 ** len(ins)
            cpt = np.zeros((n_rows, 2))
            for row_idx in range(n_rows):
                val = const
                for bit in range(len(ins)):
                    # row index is row-major in ``parents``: first parent varies slowest
                    coord = (row_idx >> (len(ins) - 1 - bit)) & 1
                    if (mask >> bit) & 1:
                        val ^= coord
                cpt[row_idx, val] = 1.0
            nodes.append(CbnNode(name, 2, parents, cpt))
        return CausalBayesNet(nodes)


def _iter_models(search: ParitySearch, seed: int, cap: int) -> Iterator[tuple[int, ...]]:
    rng = np.random.default_rng(seed)
    sizes = [2 ** (len(ins) + 1) for ins in search.inputs]
    total = math.prod(sizes)
    if total <= cap:
        perm = rng.permutation(total)
        for code in perm:
            model = []
            c = int(code)
            for s in sizes:
                model.append(c % s)
                c //= s
            yield tuple(model)
    else:
        seen: set[tuple[int, ...]] = set()
        for _ in range(cap):
            model = tuple(int(rng.integers(0, s)) for s in sizes)
            if model in seen:
                continue
            seen.add(model)
            yield model


def indistinguishable_pair(g, x, seed: int = 0, max_models: int = 250_000):
    """The pair search over :class:`ParitySearch` keys, in the seeded model
    order the package searched in before it built pairs from the hedge."""
    search = ParitySearch(g, x)
    by_obs: dict[tuple, tuple[tuple, tuple[int, ...]]] = {}
    for model in _iter_models(search, seed, max_models):
        obs_key, int_key = search.keys(model)
        obs_key = (obs_key[0], obs_key[1])
        prev = by_obs.get(obs_key)
        if prev is None:
            by_obs[obs_key] = (int_key, model)
            continue
        if prev[0] == int_key:
            continue
        net_a = search.build_net(prev[1])
        net_b = search.build_net(model)
        obs_tv = exact_tv(exact_observational(net_a), exact_observational(net_b))
        int_a = exact_interventional(net_a, x)
        int_b = exact_interventional(net_b, x)
        int_tv = exact_tv(int_a, int_b)
        if obs_tv <= 1e-9 and int_tv >= 1e-3:
            return IndistinguishablePair(net_a, net_b, dict(x), obs_tv, int_tv)
    return None
