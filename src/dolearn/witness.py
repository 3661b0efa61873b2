"""Constructive non-identifiability witnesses.

When identification fails, two ground-truth models must exist that agree on
every observational probability yet disagree interventionally. This module
builds such a pair from the hedge that the identification recursion returns
(Shpitser & Pearl 2006, the hedge criterion). Every hidden variable is a fair
bit and every observable XORs some of its structural inputs. F is the
hedge's vertex set, S ⊆ F its root set, and R the nodes of S with no child
in S. Each non-root node of F keeps one child (in S for nodes of S), and
the bidirected edges of a spanning tree of S, extended to one of F, carry
the hidden bits that are read.

Model A: each node of F XORs its forest parents and its tree bits. Model B:
the nodes of S read only S's forest and S's tree; the rest of F is as in A.
In both models the values of F are uniform on {XOR of R = 0}, so P(V)
agrees. The hedge of the query P(V∖X | do(x)), the one witnessed here, has
F∖S ⊆ X (a hedge of a query with fewer targets need not), so under do(x)
every node of F∖S is clamped. B still has XOR of R = 0, while in A that
parity is the XOR of the tree bits joining S to F∖S plus a constant, a fair
coin, so the interventional distributions differ by a TV of at least 1/2.
Every observable outside F is the constant 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .admg import Admg
from .identify import CausalQuery, HedgeWitness, identify
from .scm import (
    CausalBayesNet,
    CbnNode,
    exact_interventional,
    exact_observational,
    standard_form,
)
from .verify import exact_tv


@dataclass(frozen=True)
class IndistinguishablePair:
    """Two nets realizing the same graph, observationally identical but
    interventionally distinct at the recorded intervention."""

    net_a: CausalBayesNet
    net_b: CausalBayesNet
    x: dict[str, int]
    observational_tv: float
    interventional_tv: float


def build_net(g: Admg, reads: Sequence[Collection[int]]) -> CausalBayesNet:
    """The binary parity net on ``g``, in :func:`~dolearn.scm.standard_form`,
    in which observable i is the XOR of the structural inputs in
    ``reads[i]``: input j < g.n is observable j and input g.n + k is the
    hidden bit of the k-th bidirected edge in sorted order. Each CPT reads
    all of its node's inputs, so the net projects onto ``g``."""
    signature = standard_form(g)
    nodes = [CbnNode(h, 2, (), np.array([[0.5, 0.5]]), hidden=True)
             for h, _, _, hidden in signature if hidden]
    inputs = g.names + tuple(nd.name for nd in nodes)
    for i, (name, _, parents, _) in enumerate(signature[len(nodes):]):
        # row index is row-major in the parents: the first parent varies slowest
        coords = np.arange(2 ** len(parents))[:, None] >> np.arange(len(parents))[::-1] & 1
        value = coords[:, [parents.index(inputs[j]) for j in reads[i]]].sum(axis=1) % 2
        nodes.append(CbnNode(name, 2, parents, np.eye(2)[value]))
    return CausalBayesNet(nodes)


def _tree_edges(
    edges: list[tuple[int, int]], reached: set[int], within: frozenset[int]
) -> list[tuple[int, int]]:
    """Bidirected edges that grow a tree from ``reached`` until it spans
    ``within``: each is the first edge inside ``within`` with one end reached."""
    reached, added = set(reached), []
    while reached != within:
        e = next(e for e in edges
                 if e[0] in within and e[1] in within and len(reached.intersection(e)) == 1)
        added.append(e)
        reached.update(e)
    return added


def indistinguishable_pair(
    g: Admg,
    x: Mapping[str, int],
    seed: int = 0,
    hedge: HedgeWitness | None = None,
) -> IndistinguishablePair:
    """Build two models that witness non-identifiability of P(V∖X | do(x)).

    The pair is a fixed function of ``g`` and ``x``: ``seed`` is not read.
    ``hedge`` is what :func:`identify` returned for that query, if the caller
    holds it; otherwise the query is identified here. Raises ``ValueError``
    if a variable is not binary or the query is identifiable. The pair is
    checked against the brute-force oracle before it is returned.
    """
    if any(c != 2 for c in g.cards):
        raise ValueError("witness construction supports binary variables only")
    if hedge is None:
        hedge = identify(CausalQuery(g, x, frozenset(g.names) - set(x)))
    if not isinstance(hedge, HedgeWitness):
        raise ValueError("query is identifiable: no witness pair exists")
    f = g.indices(hedge.root_set | hedge.internal)
    s = g.indices(hedge.root_set)
    edges = sorted(g.bidirected)
    tree_s = _tree_edges(edges, {min(s)}, s)
    tree_f = tree_s + _tree_edges(edges, set(s), f)
    child = {}  # every node of F but R keeps its first child: in S for a node of S
    for i in f:
        kids = [j for j in sorted(s if i in s else f) if i in g.parents(j)]
        if kids:
            child[i] = kids[0]

    def reads(j: int, forest: frozenset[int], tree: list[tuple[int, int]]) -> set[int]:
        return ({i for i in forest if child.get(i) == j}
                | {g.n + edges.index(e) for e in tree if j in e})

    model_a = [reads(j, f, tree_f) if j in f else set() for j in range(g.n)]
    model_b = [reads(j, s, tree_s) if j in s else model_a[j] for j in range(g.n)]
    net_a, net_b = build_net(g, model_a), build_net(g, model_b)
    obs_tv = exact_tv(exact_observational(net_a), exact_observational(net_b))
    int_tv = exact_tv(exact_interventional(net_a, x), exact_interventional(net_b, x))
    if not (obs_tv <= 1e-9 and int_tv >= 1e-3):  # pragma: no cover - see the module docstring
        raise RuntimeError(
            f"witness pair failed its oracle check: obs_tv={obs_tv:.2e}, int_tv={int_tv:.2e}"
        )
    return IndistinguishablePair(net_a, net_b, dict(x), obs_tv, int_tv)
