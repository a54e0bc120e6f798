"""Simple directed and undirected graphs over vertex ids 1..n.

Both containers validate simplicity on construction (no self-loops, no
duplicate arcs or edges) and iterate their arc/edge sets in ascending
order, so everything built on top of them is reproducible byte for byte.
Adjacency is sorted once, at construction, into ascending tuples kept only
for vertices with an arc or edge, so memory follows those and not n.
Instances are treated as immutable; transforms return new graphs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator


def _sorted_adjacency(lists: dict, n: int, kind: str) -> dict[int, tuple[int, ...]]:
    """Each vertex's list sorted into a tuple, keys ascending.  Rejects an
    id outside 1..n, a vertex listed under itself (a self-loop) and a value
    listed twice under one vertex (a duplicate arc or edge)."""
    out: dict[int, tuple[int, ...]] = {}
    for u in sorted(lists):
        vs = lists[u]
        vs.sort()
        if not (1 <= u <= n and 1 <= vs[0] and vs[-1] <= n):
            v = vs[0] if vs[0] < 1 else vs[-1]
            raise ValueError(f"{kind} ({u}, {v}) out of range 1..{n}")
        if u in vs:
            raise ValueError(f"self-loop at {u}")
        if len(set(vs)) != len(vs):
            dup = next(a for a, b in zip(vs, vs[1:]) if a == b)
            raise ValueError(f"duplicate {kind} ({u}, {dup})")
        out[u] = tuple(vs)
    return out


class DirectedGraph:
    __slots__ = ("n", "m", "_succ")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        succ: dict[int, list[int]] = defaultdict(list)
        m = 0
        for u, v in arcs:
            succ[u].append(v)
            m += 1
        self.m = m
        self._succ = _sorted_adjacency(succ, n, "arc")

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._succ.get(u, ())

    def successors(self, u: int) -> list[int]:
        return list(self._succ.get(u, ()))

    def out_degree(self, u: int) -> int:
        return len(self._succ.get(u, ()))

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u, outs in self._succ.items():
            for v in outs:
                yield (u, v)

    def arc_set(self) -> set[tuple[int, int]]:
        return set(self.arcs())

    def without_arcs(self, removed: Iterable[tuple[int, int]]) -> "DirectedGraph":
        """New graph with the given arcs removed; all must be present."""
        gone = set(removed)
        for u, v in gone:
            if not self.has_arc(u, v):
                raise ValueError(f"arc ({u}, {v}) not in graph")
        keep = [a for a in self.arcs() if a not in gone]
        return DirectedGraph(self.n, keep)

    def __eq__(self, other):
        return (
            isinstance(other, DirectedGraph)
            and self.n == other.n
            and self._succ == other._succ
        )

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, m={self.m})"


class UndirectedGraph:
    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        adj: dict[int, list[int]] = defaultdict(list)
        m = 0
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
            m += 1
        self.m = m
        self._adj = _sorted_adjacency(adj, n, "edge")

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def neighbors(self, v: int) -> list[int]:
        return list(self._adj.get(v, ()))

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, ()))

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, nbrs in self._adj.items():
            for b in nbrs:
                if a < b:
                    yield (a, b)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def __eq__(self, other):
        return (
            isinstance(other, UndirectedGraph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"
