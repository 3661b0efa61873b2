"""Constructive non-identifiability witnesses.

When identification fails, two ground-truth models must exist that agree on
every observational probability yet disagree interventionally. This module
finds such a pair by searching parity mechanisms: every hidden variable is a
fair bit and every observable XORs a chosen subset of its structural inputs,
optionally negated. Each hidden assignment is equally likely, so a model's
distribution over some observables is the multiset of their values under
all 2^r assignments of its r hidden bits. That multiset, sorted, is the key:
exact integer counts, no floating point in the search loop. A key costs 2^r
steps per model; the oracle check of each candidate pair already enumerates
2^(n+r) joint states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .admg import Admg
from .scm import (
    CausalBayesNet,
    CbnNode,
    exact_interventional,
    exact_observational,
    hidden_names,
)
from .verify import exact_tv

MAX_MODELS = 250_000


@dataclass(frozen=True)
class IndistinguishablePair:
    """Two nets realizing the same graph, observationally identical but
    interventionally distinct at the recorded intervention."""

    net_a: CausalBayesNet
    net_b: CausalBayesNet
    x: dict[str, int]
    observational_tv: float
    interventional_tv: float


class _ParitySearch:
    def __init__(self, g: Admg, x: Mapping[str, int]):
        if any(c != 2 for c in g.cards):
            raise ValueError("witness search supports binary variables only")
        self.g = g
        self.x = {g.index(n): int(v) for n, v in x.items()}
        self.order = g.topological_order()
        edges = sorted(g.bidirected)
        self.r = len(edges)
        # per node: its inputs, parents before hidden bits; input j < g.n is
        # observable j and input g.n + k is hidden bit k
        self.inputs = [
            sorted(g.parents(i)) + [g.n + k for k, e in enumerate(edges) if i in e]
            for i in range(g.n)
        ]
        self.target = sorted(set(range(g.n)) - set(self.x))
        # a variable's bitmask holds its value under every hidden assignment:
        # bit a is the value when hidden bit k is bit k of a
        self.full = (1 << 2**self.r) - 1
        self.hidden = [
            sum(1 << a for a in range(2**self.r) if a >> k & 1) for k in range(self.r)
        ]

    def _bitmasks(self, model: tuple[int, ...], clamp: Mapping[int, int]) -> list[int]:
        """Every observable's bitmask, then the hidden bits'; a clamped
        variable is constant."""
        masks = [0] * self.g.n + self.hidden
        for i in self.order:
            if i in clamp:
                masks[i] = self.full * clamp[i]
                continue
            ins, mask = self.inputs[i], model[i]
            value = self.full * (mask >> len(ins) & 1)
            for bit, j in enumerate(ins):
                if mask >> bit & 1:
                    value ^= masks[j]
            masks[i] = value
        return masks

    def _key(self, masks: list[int], coords: Iterable[int]) -> tuple[int, ...]:
        """The coordinates' codes under every hidden assignment, sorted."""
        codes = [0] * 2**self.r
        for pos, i in enumerate(coords):
            mask, bit = masks[i], 1 << pos
            for a in range(len(codes)):
                if mask >> a & 1:
                    codes[a] |= bit
        return tuple(sorted(codes))

    def keys(self, model: tuple[int, ...]) -> tuple[tuple, tuple]:
        obs_key = self._key(self._bitmasks(model, {}), range(self.g.n))
        int_key = self._key(self._bitmasks(model, self.x), self.target)
        return obs_key, int_key

    def build_net(self, model: tuple[int, ...]) -> CausalBayesNet:
        g = self.g
        hidden = hidden_names(g)
        names = g.names + tuple(hidden)
        nodes = [CbnNode(h, 2, (), np.array([[0.5, 0.5]]), hidden=True) for h in hidden]
        for i, name in enumerate(g.names):
            ins, mask = self.inputs[i], model[i]
            const = (mask >> len(ins)) & 1
            n_rows = 2 ** len(ins)
            cpt = np.zeros((n_rows, 2))
            for row_idx in range(n_rows):
                val = const
                for bit in range(len(ins)):
                    # row index is row-major in the parents: first parent varies slowest
                    coord = (row_idx >> (len(ins) - 1 - bit)) & 1
                    if (mask >> bit) & 1:
                        val ^= coord
                cpt[row_idx, val] = 1.0
            nodes.append(CbnNode(name, 2, tuple(names[j] for j in ins), cpt))
        return CausalBayesNet(nodes)


def _iter_models(search: _ParitySearch, seed: int, cap: int) -> Iterator[tuple[int, ...]]:
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


def indistinguishable_pair(
    g: Admg,
    x: Mapping[str, int],
    seed: int = 0,
) -> IndistinguishablePair | None:
    """Search for two models that witness non-identifiability of the query.

    Models are inspected in a seed-determined order and grouped by their exact
    observational distribution; the first group containing two interventionally
    distinct members yields the pair, which is then re-verified against the
    brute-force oracle. Returns ``None`` if the search space is exhausted or
    ``MAX_MODELS`` models are drawn without a find.
    """
    search = _ParitySearch(g, x)
    by_obs: dict[tuple, tuple[tuple, tuple[int, ...]]] = {}
    for model in _iter_models(search, seed, MAX_MODELS):
        obs_key, int_key = search.keys(model)
        prev = by_obs.get(obs_key)
        if prev is None:
            by_obs[obs_key] = (int_key, model)
            continue
        if prev[0] == int_key:
            continue
        net_a = search.build_net(prev[1])
        net_b = search.build_net(model)
        obs_tv = exact_tv(exact_observational(net_a), exact_observational(net_b))
        int_tv = exact_tv(exact_interventional(net_a, x), exact_interventional(net_b, x))
        if obs_tv <= 1e-9 and int_tv >= 1e-3:
            return IndistinguishablePair(net_a, net_b, dict(x), obs_tv, int_tv)
    return None
