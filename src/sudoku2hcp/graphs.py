"""Simple directed and undirected graphs over vertex ids 1..n.

Both kinds share one container and one storage, `_adj`: ascending tuples
under ascending keys, a key only for a vertex with an arc or edge, so
memory follows those and not n.  A directed graph lists each arc under its
tail, an undirected graph each edge under both of its ends.  Both iterate
their arc/edge sets in ascending order, so everything built on top of them
is reproducible byte for byte.  The public constructors sort their input
once and check it: ids in range, no self-loops, no duplicate arcs or
edges.  A graph that a transform derives from an already checked graph,
where the transform itself keeps it simple and sorted (deleting arcs, the
triplication, compression, reduction), is stored as given through the
private `_derived`.  So is the blank encoding: build_hcp makes its
successor tuples in label order by label arithmetic and checks them
itself.  Instances are treated as immutable; transforms return new graphs.
Beyond that storage a graph has only the methods that other modules call:
`arcs` and `without_arcs` for a directed graph, `edges` for an undirected
one.  The package reads a vertex's neighbours and degree off `_adj`.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from functools import wraps
from itertools import filterfalse
from typing import Iterable, Iterator


def _gc_paused(fn):
    """fn with CPython's cyclic garbage collector paused while it runs, for
    calls that allocate graph-sized numbers of containers and make no
    reference cycles (tests/test_gc_pause.py), so reference counting frees
    all they drop.  The pause holds for every thread, so it goes only on
    calls whose time the graph's size bounds.  If the collector was off on
    entry (the caller's gc.disable(), or an outer pause), it stays off."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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


class _Graph:
    """n vertices, m arcs or edges and their adjacency `_adj`.  A subclass
    names its pairs (`_kind`) and says whether a pair (u, v) is also listed
    under its second end v (`_both_ends`)."""

    __slots__ = ("n", "m", "_adj")
    _kind: str
    _both_ends: bool

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        lists: dict[int, list[int]] = defaultdict(list)
        both = self._both_ends
        m = 0
        for u, v in pairs:
            lists[u].append(v)
            if both:
                lists[v].append(u)
            m += 1
        self.m = m
        self._adj = _sorted_adjacency(lists, n, self._kind)

    @classmethod
    def _derived(cls, n: int, m: int, adj: dict[int, tuple[int, ...]]):
        """Graph stored as given, unchecked: m pairs and an adjacency as the
        module docstring describes it."""
        g = cls.__new__(cls)
        g.n, g.m, g._adj = n, m, adj
        return g

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self._adj == other._adj

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class DirectedGraph(_Graph):
    """Arcs; `_adj` holds each vertex's successors."""

    __slots__ = ()
    _kind, _both_ends = "arc", False

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u, outs in self._adj.items():
            for v in outs:
                yield (u, v)

    def without_arcs(self, removed: Iterable[tuple[int, int]]) -> "DirectedGraph":
        """New graph with the given arcs removed; all must be present, and
        a missing one raises ValueError naming the smallest.  An arc given
        twice is removed once.  Each touched tail's tuple is filtered, so
        it stays sorted, and dropped once it is empty; untouched tuples are
        shared with this graph."""
        gone: dict[int, set[int]] = defaultdict(set)
        for u, v in removed:
            gone[u].add(v)
        succ = dict(self._adj)
        for u, drop in gone.items():
            have = succ.get(u, ())
            kept = tuple(filterfalse(drop.__contains__, have))
            if len(have) - len(kept) != len(drop):
                adj = self._adj
                arc = min((t, v) for t, vs in gone.items() for v in vs if v not in adj.get(t, ()))
                raise ValueError(f"arc {arc} not in graph")
            if kept:
                succ[u] = kept
            else:
                del succ[u]
        return DirectedGraph._derived(self.n, self.m - sum(map(len, gone.values())), succ)


class UndirectedGraph(_Graph):
    """Edges; `_adj` holds each vertex's neighbours."""

    __slots__ = ()
    _kind, _both_ends = "edge", True

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, nbrs in self._adj.items():
            for b in nbrs:
                if a < b:
                    yield (a, b)


def _uncoverable(g: UndirectedGraph) -> str | None:
    """Why no Hamiltonian cycle covers g, found from its sizes alone and
    before anything is allocated per vertex: fewer edges than vertices or
    a vertex of degree below 2, the smallest such.  None when neither
    holds, which is found without a Python-level walk."""
    if g.m < g.n:
        return f"{g.m} edges cannot cover {g.n} vertices"
    adj = g._adj
    if len(adj) == g.n and min(map(len, adj.values()), default=2) >= 2:
        return None
    k = 0
    for k, (v, nbrs) in enumerate(adj.items(), 1):
        if v != k:
            return f"vertex {k} has degree 0"  # keys ascend, so k has none
        if len(nbrs) < 2:
            return f"vertex {v} has degree {len(nbrs)}"
    return f"vertex {k + 1} has degree 0" if k < g.n else None
