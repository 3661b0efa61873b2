"""Acyclic directed mixed graphs: directed causation plus bidirected confounding.

Variables are identified by dense integer indices within a graph; every index
has a unique name and a symbol cardinality. All set-valued results are over
indices, and every ordered output breaks ties by ascending index so that runs
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Malformed graph specification (bad endpoints, duplicate names, ...)."""


class CycleDetected(GraphError):
    """The directed edges do not admit a topological order."""


@dataclass(frozen=True)
class Admg:
    """Mixed graph over observable variables.

    ``directed`` holds (parent, child) index pairs and must be acyclic.
    ``bidirected`` holds unordered pairs, stored as (i, j) with i < j; each
    stands for an unobserved common cause of the two endpoints. Instances are
    immutable and safe to share; every method is a pure function.
    """

    names: tuple[str, ...]
    cards: tuple[int, ...]
    directed: frozenset[tuple[int, int]]
    bidirected: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))
        object.__setattr__(self, "directed", frozenset(self.directed))
        object.__setattr__(
            self,
            "bidirected",
            frozenset(tuple(sorted(e)) for e in self.bidirected),
        )
        n = len(self.names)
        if len(self.cards) != n:
            raise GraphError("names and cardinalities differ in length")
        if len(set(self.names)) != n:
            raise GraphError("variable names must be unique")
        if any(c < 1 for c in self.cards):
            raise GraphError("cardinalities must be positive")
        for a, b in self.directed | self.bidirected:
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({a},{b}) references an unknown variable")
            if a == b:
                raise GraphError(f"self-loop at variable {self.names[a]!r}")
        self.topological_order()  # raises CycleDetected on a directed cycle

    @classmethod
    def build(
        cls,
        variables: Sequence[str | tuple[str, int]],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
    ) -> "Admg":
        """Construct from names. Bare strings get cardinality 2."""
        names, cards = [], []
        for v in variables:
            if isinstance(v, str):
                names.append(v)
                cards.append(2)
            else:
                names.append(v[0])
                cards.append(int(v[1]))
        if len(set(names)) != len(names):
            raise GraphError("variable names must be unique")
        pos = {name: i for i, name in enumerate(names)}

        def _pair(edge: Sequence[str]) -> tuple[int, int]:
            if len(edge) != 2:
                raise GraphError(f"edge {list(edge)} must name exactly two variables")
            a, b = edge
            if a not in pos or b not in pos:
                raise GraphError(f"edge ({a},{b}) references an unknown variable")
            return pos[a], pos[b]

        d_pairs = [_pair(e) for e in directed]
        b_pairs = [tuple(sorted(_pair(e))) for e in bidirected]
        if len(set(d_pairs)) != len(d_pairs) or len(set(b_pairs)) != len(b_pairs):
            raise GraphError("duplicate edges")
        return cls(tuple(names), tuple(cards), frozenset(d_pairs), frozenset(b_pairs))

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GraphError(f"unknown variable {name!r}") from None

    def indices(self, names: Iterable[str]) -> frozenset[int]:
        return frozenset(self.index(n) for n in names)

    def names_of(self, idxs: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.names[i] for i in sorted(idxs))

    @cached_property
    def _parents(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set() for _ in range(self.n)]
        for p, c in self.directed:
            out[c].add(p)
        return tuple(frozenset(s) for s in out)

    @cached_property
    def _children(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set() for _ in range(self.n)]
        for p, c in self.directed:
            out[p].add(c)
        return tuple(frozenset(s) for s in out)

    @cached_property
    def _siblings(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set() for _ in range(self.n)]
        for a, b in self.bidirected:
            out[a].add(b)
            out[b].add(a)
        return tuple(frozenset(s) for s in out)

    def parents(self, i: int, within: frozenset[int] | None = None) -> frozenset[int]:
        ps = self._parents[i]
        return ps if within is None else ps & within

    def children(self, i: int) -> frozenset[int]:
        return self._children[i]

    # -- graph algorithms ----------------------------------------------------

    def topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm with a min-heap, so ties go to the smallest index;
        computed once per graph."""
        return self._topological_order

    @cached_property
    def _topological_order(self) -> tuple[int, ...]:
        indeg = [0] * self.n
        for _, c in self.directed:
            indeg[c] += 1
        heap: list[int] = []
        for i, d in enumerate(indeg):
            if d == 0:
                heappush(heap, i)
        out: list[int] = []
        while heap:
            i = heappop(heap)
            out.append(i)
            for c in sorted(self._children[i]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    heappush(heap, c)
        if len(out) != self.n:
            stuck = [self.names[i] for i in range(self.n) if indeg[i] > 0]
            raise CycleDetected(f"directed cycle through {stuck}")
        return tuple(out)

    def ancestors(
        self,
        y: Iterable[int],
        within: frozenset[int] | None = None,
        severed: Iterable[int] = (),
    ) -> frozenset[int]:
        """Reflexive ancestors of ``y`` along directed edges.

        Only edges with both endpoints in ``within`` are walked. Nodes in
        ``severed`` keep their outgoing edges but have all incoming edges
        ignored, which matches cutting the mechanisms of an intervened set.
        """
        scope = frozenset(range(self.n)) if within is None else frozenset(within)
        severed = frozenset(severed)
        seen = set(y) & scope
        stack = list(seen)
        while stack:
            u = stack.pop()
            if u in severed:
                continue
            for p in self._parents[u] & scope:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)

    def c_components(self, within: frozenset[int] | None = None) -> tuple[frozenset[int], ...]:
        """Partition of the (restricted) vertex set by bidirected connectivity.

        Vertices without bidirected edges form singletons. Components are
        returned ordered by their smallest member index.
        """
        scope = sorted(range(self.n)) if within is None else sorted(within)
        scope_set = frozenset(scope)
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for start in scope:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self._siblings[u] & scope_set:
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def pa_plus(self, s: Iterable[int], within: frozenset[int] | None = None) -> frozenset[int]:
        """The set itself plus the directed parents of its members."""
        s = frozenset(s)
        out = set(s)
        for i in s:
            out |= self.parents(i, within)
        return frozenset(out)

    def induced_subgraph(self, s: Iterable[int]) -> "Admg":
        """Subgraph on ``s`` keeping both edge kinds; indices re-densified.

        Names are preserved, so the index correspondence is recoverable by name.
        """
        keep = sorted(frozenset(s))
        keep_set = set(keep)
        remap = {old: new for new, old in enumerate(keep)}
        return Admg(
            tuple(self.names[i] for i in keep),
            tuple(self.cards[i] for i in keep),
            frozenset((remap[a], remap[b]) for a, b in self.directed
                      if a in keep_set and b in keep_set),
            frozenset((remap[a], remap[b]) for a, b in self.bidirected
                      if a in keep_set and b in keep_set),
        )
