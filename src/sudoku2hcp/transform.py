"""Graph transforms and the journal that lifts cycles back through them.

Three transforms are provided: the directed-to-undirected triplication,
removal of the redundant middle vertex inside every candidate triple, and
a degree-2 reduction heuristic.  Each returns a new graph together with a
CycleLifter journal; replaying the journal backwards maps a Hamiltonian
cycle of the transformed graph to one of the original graph.

Record id semantics: every record names vertices by their id in the
journal's base graph, the graph its first transform was applied to (after
a triplication, the 3n-vertex undirected graph).  Ids never shift when a
record deletes a vertex.  The final graph's vertex k is the k-th smallest
base id that no record deletes, so lifting maps a cycle through that list
once and replays the records backwards.  Journal files written before this
numbering (deleting records with renumbered ids) are converted to base ids
when formats.load_journal reads them.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .graphs import DirectedGraph, UndirectedGraph
from .labels import label_cand, label_dup, vertex_count


@dataclass(frozen=True)
class Triplication:
    """Directed graph on n vertices became an undirected one on 3n."""

    n: int


@dataclass(frozen=True)
class GadgetRemoval:
    """Degree-2 vertex `removed` deleted, its neighbours `left` and `right`
    bridged by a new edge."""

    removed: int
    left: int
    right: int


@dataclass(frozen=True)
class Contraction:
    """Adjacent degree-2 vertices merged: `absorbed` folded into `survivor`.

    attach_survivor / attach_absorbed are the outer neighbours at each end
    of the contracted pair, which makes re-expansion unambiguous.
    """

    survivor: int
    absorbed: int
    attach_survivor: int
    attach_absorbed: int


@dataclass(frozen=True)
class EdgeDeletion:
    """Edges removed without touching any vertex."""

    edges: tuple[tuple[int, int], ...]


Record = Triplication | GadgetRemoval | Contraction | EdgeDeletion


@dataclass(frozen=True)
class Infeasible:
    """Certificate that the input graph has no Hamiltonian cycle."""

    reason: str


@dataclass(frozen=True)
class CycleLifter:
    """Journal of transform records, applied first to last."""

    records: tuple[Record, ...] = ()

    def __add__(self, other: "CycleLifter") -> "CycleLifter":
        """This journal followed by `other`, whose records name vertices of
        this journal's final graph; they are rewritten into base ids."""
        gone = sorted({_deleted_id(r) for r in self.records} - {None})
        if not gone:
            return CycleLifter(self.records + other.records)
        base_id = partial(_survivor, gone)
        return CycleLifter(
            self.records + tuple(_map_ids(r, base_id) for r in other.records)
        )

    def lift(self, cycle: list[int]) -> list[int]:
        return lift_cycle(self, cycle)


def _deleted_id(rec: Record) -> int | None:
    """The vertex a record deletes, or None."""
    if isinstance(rec, GadgetRemoval):
        return rec.removed
    if isinstance(rec, Contraction):
        return rec.absorbed
    return None


def _map_ids(rec: Record, f: Callable[[int], int]) -> Record:
    """The record with every vertex id v replaced by f(v)."""
    if isinstance(rec, GadgetRemoval):
        return GadgetRemoval(f(rec.removed), f(rec.left), f(rec.right))
    if isinstance(rec, Contraction):
        return Contraction(
            f(rec.survivor),
            f(rec.absorbed),
            f(rec.attach_survivor),
            f(rec.attach_absorbed),
        )
    if isinstance(rec, EdgeDeletion):
        return EdgeDeletion(tuple((f(u), f(v)) for u, v in rec.edges))
    return rec


def _survivor(gone: list[int], k: int) -> int:
    """The k-th smallest positive id not in `gone`, an ascending list of
    distinct ids: k plus the count of gone ids below it, which is the
    first index j with gone[j] - j > k."""
    if k < 1:
        raise ValueError("journal refers to vertices outside the graph")
    lo, hi = 0, len(gone)
    while lo < hi:
        mid = (lo + hi) // 2
        if gone[mid] - mid > k:
            hi = mid
        else:
            lo = mid + 1
    return k + lo


def from_renumbered(records: list[Record]) -> tuple[Record, ...]:
    """Records in the older numbering, where each record names the ids of
    the graph it was applied to and a deletion shifts every higher id down
    by one, rewritten into base ids.  Memory stays proportional to the
    records, whatever ids they name."""
    gone: list[int] = []
    base_id = partial(_survivor, gone)
    out: list[Record] = []
    for rec in records:
        rec = _map_ids(rec, base_id)
        out.append(rec)
        removed = _deleted_id(rec)
        if removed is not None:
            insort(gone, removed)
    return tuple(out)


def in_copy(v: int) -> int:
    """Triplication id receiving the arcs into directed vertex v."""
    return 3 * v - 2


def mid_copy(v: int) -> int:
    return 3 * v - 1


def out_copy(v: int) -> int:
    """Triplication id emitting the arcs out of directed vertex v."""
    return 3 * v


def undirect(g: DirectedGraph) -> tuple[UndirectedGraph, CycleLifter]:
    """Undirected equivalent of a directed graph.

    Each vertex becomes an in-copy, middle and out-copy chained together;
    each arc (u, v) becomes the edge (out-copy of u, in-copy of v).  The
    result has 3n vertices and 2n + m edges and is Hamiltonian exactly
    when the directed graph is.
    """
    n = g.n
    edges: list[tuple[int, int]] = []
    for v in range(1, n + 1):
        mid = mid_copy(v)
        edges.append((mid - 1, mid))
        edges.append((mid, mid + 1))
    for u, v in g.arcs():
        edges.append((out_copy(u), in_copy(v)))
    return UndirectedGraph(3 * n, edges), CycleLifter((Triplication(n),))


def triplicate_cycle(cycle: list[int]) -> list[int]:
    """The undirected cycle corresponding to a directed one (test helper;
    lift_cycle through the triplication journal inverts it)."""
    out: list[int] = []
    for v in cycle:
        out.extend((in_copy(v), mid_copy(v), out_copy(v)))
    return out


def _project_triplication(cycle: list[int], n: int) -> list[int]:
    """Collapse a Hamiltonian cycle of the triplication to a directed cycle."""
    total = 3 * n
    if len(cycle) != total:
        raise ValueError(f"cycle has {len(cycle)} vertices, expected {total}")
    if set(cycle) != set(range(1, total + 1)):
        raise ValueError("cycle is not a permutation of the triplicated vertices")
    # orient so every triple reads in-copy, middle, out-copy
    t0 = next(idx for idx, lab in enumerate(cycle) if lab % 3 == 2)
    mid = cycle[t0]
    if cycle[(t0 + 1) % total] == mid + 1:
        oriented = cycle
    elif cycle[t0 - 1] == mid + 1:
        oriented = cycle[::-1]
    else:
        raise ValueError("cycle does not keep vertex triples intact")
    s0 = next(idx for idx, lab in enumerate(oriented) if lab % 3 == 1)
    oriented = oriented[s0:] + oriented[:s0]
    out: list[int] = []
    for t in range(0, total, 3):
        a, b, c = oriented[t], oriented[t + 1], oriented[t + 2]
        if a % 3 != 1 or b != a + 1 or c != a + 2:
            raise ValueError("cycle does not keep vertex triples intact")
        out.append((a + 2) // 3)
    low = out.index(min(out))
    return out[low:] + out[:low]


def compress_triples(
    g: UndirectedGraph, order: int
) -> tuple[UndirectedGraph, CycleLifter]:
    """Drop the removable middle vertex of every candidate-triple gadget.

    In the triplication of an encoding graph, the nine vertices of each
    candidate triple form a gadget that is always entered at one end and
    left at the other; the middle copy of the slot-2 vertex can be removed
    and its two neighbours bridged without changing which cycles exist.
    Removes exactly 2N^3 vertices and 2N^3 edges; surviving vertices are
    renumbered in order.
    """
    n = order
    if g.n != 3 * vertex_count(n):
        raise ValueError(
            f"graph has {g.n} vertices, not the triplication of an order-{n} encoding"
        )
    mids: list[int] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                mids.append(mid_copy(label_cand(i, j, k, 2, n)))
                mids.append(mid_copy(label_dup(i, j, k, 2, n)))
    mids.sort(reverse=True)
    removed = set()
    records: list[Record] = []
    for mv in mids:
        if g.neighbors(mv) != [mv - 1, mv + 1]:
            raise ValueError(f"vertex {mv} is not a removable gadget middle")
        if g.has_edge(mv - 1, mv + 1):
            raise ValueError(f"bridge ({mv - 1}, {mv + 1}) already present")
        records.append(GadgetRemoval(mv, mv - 1, mv + 1))
        removed.add(mv)

    alive = [v for v in range(1, g.n + 1) if v not in removed]
    new_id = {v: idx + 1 for idx, v in enumerate(alive)}
    edges = [
        (new_id[a], new_id[b])
        for a, b in g.edges()
        if a not in removed and b not in removed
    ]
    edges.extend((new_id[mv - 1], new_id[mv + 1]) for mv in mids)
    out = UndirectedGraph(len(alive), edges)
    assert out.m == g.m - len(mids)
    return out, CycleLifter(tuple(records))


def reduce_graph(
    g: UndirectedGraph,
) -> tuple[UndirectedGraph, CycleLifter] | Infeasible:
    """Shrink a graph with two cycle-preserving rules, run to a fixpoint.

    Rule 1: two adjacent degree-2 vertices contract to a single vertex.
    Rule 2: a vertex with two degree-2 neighbours keeps only the edges to
    them; its other edges can never be used and are deleted.

    Passes scan vertices in ascending id and apply rule 2 before rule 1,
    since rule 2 creates the chains that rule 1 collapses.  Returns
    Infeasible when the rules certify that no Hamiltonian cycle exists:
    fewer edges than vertices (checked before anything is allocated per
    vertex), a vertex with three or more degree-2 neighbours, a vertex
    left with fewer than two edges, or a contraction that would double an
    edge in a graph larger than a triangle (a forced short cycle).
    Records name vertices by their ids in g.
    """
    if g.n < 4:
        raise ValueError("reduction expects at least 4 vertices")
    if g.m < g.n:
        return Infeasible(f"{g.m} edges cannot cover {g.n} vertices")
    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in range(1, g.n + 1)}
    for v, nbrs in adj.items():
        if len(nbrs) < 2:
            return Infeasible(f"vertex {v} has degree {len(nbrs)}")
    alive = set(adj)
    records: list[Record] = []
    changed = True
    while changed:
        changed = False

        for v in sorted(alive):
            nbrs = adj[v]
            deg2 = [u for u in nbrs if len(adj[u]) == 2]
            if len(deg2) >= 3:
                return Infeasible(
                    f"vertex {v} has {len(deg2)} degree-2 neighbours"
                )
            if len(deg2) == 2 and len(nbrs) > 2:
                others = sorted(nbrs.difference(deg2))
                dropped = []
                for w in others:
                    adj[v].discard(w)
                    adj[w].discard(v)
                    dropped.append((v, w) if v < w else (w, v))
                records.append(EdgeDeletion(tuple(dropped)))
                changed = True

        for v in sorted(alive):
            if v not in alive:
                continue
            node = v
            while len(adj.get(node, ())) == 2:
                partners = sorted(u for u in adj[node] if len(adj[u]) == 2)
                if not partners:
                    break
                s, t = (node, partners[0]) if node < partners[0] else (partners[0], node)
                p = next(iter(adj[s] - {t}))
                q = next(iter(adj[t] - {s}))
                if p == q:
                    if len(alive) > 3:
                        return Infeasible(
                            f"contracting ({s}, {t}) would double edge to {p}"
                        )
                    break  # a bare triangle is terminal and Hamiltonian
                records.append(Contraction(s, t, p, q))
                adj[s].discard(t)
                adj[s].add(q)
                adj[q].discard(t)
                adj[q].add(s)
                del adj[t]
                alive.discard(t)
                changed = True
                node = s

    alive_sorted = sorted(alive)
    new_id = {v: idx + 1 for idx, v in enumerate(alive_sorted)}
    edges = [
        (new_id[a], new_id[b]) for a in alive_sorted for b in adj[a] if a < b
    ]
    return UndirectedGraph(len(alive_sorted), edges), CycleLifter(tuple(records))


def lift_cycle(lifter: CycleLifter, cycle: list[int]) -> list[int]:
    """Replay a journal backwards over a cycle of the final graph.

    Re-inserts gadget middles between their bridged neighbours, re-expands
    contractions using the recorded end attachments, and finally projects
    a leading triplication back to the directed graph.  Raises ValueError
    when the cycle cannot have come from the journal's final graph.
    """
    if not cycle:
        raise ValueError("empty cycle")
    records = lifter.records
    directed_n = None
    if records and isinstance(records[0], Triplication):
        directed_n = records[0].n
        records = records[1:]
    if any(isinstance(r, Triplication) for r in records):
        raise ValueError("triplication record allowed only at the start of a journal")
    deleted = [d for d in map(_deleted_id, records) if d is not None]
    base = len(cycle) + len(deleted)
    if directed_n is not None and base != 3 * directed_n:
        raise ValueError(
            f"cycle length {len(cycle)} inconsistent with journal "
            f"({len(deleted)} deletions from {3 * directed_n} vertices)"
        )
    gone = bytearray(base + 1)
    for d in deleted:
        if not 1 <= d <= base:
            raise ValueError("journal refers to vertices outside the graph")
        if gone[d]:
            raise ValueError(f"journal deletes vertex {d} twice")
        gone[d] = 1
    if sorted(cycle) != list(range(1, len(cycle) + 1)):
        raise ValueError("cycle is not a permutation of the final graph's vertices")
    alive = [v for v in range(1, base + 1) if not gone[v]]
    base_cycle = [alive[c - 1] for c in cycle]

    nxt: dict[int, int] = {}
    prv: dict[int, int] = {}
    for idx, v in enumerate(base_cycle):
        w = base_cycle[(idx + 1) % len(base_cycle)]
        nxt[v] = w
        prv[w] = v

    def splice(new: int, a: int, b: int) -> None:
        # new is off the cycle: it is deleted, and by no other record
        if nxt.get(a) == b:
            nxt[a] = new
            nxt[new] = b
            prv[b] = new
            prv[new] = a
        elif nxt.get(b) == a:
            nxt[b] = new
            nxt[new] = a
            prv[a] = new
            prv[new] = b
        else:
            raise ValueError(
                f"cycle not consistent with journal: {a} and {b} not adjacent"
            )

    for rec in reversed(records):
        if isinstance(rec, GadgetRemoval):
            splice(rec.removed, rec.left, rec.right)
        elif isinstance(rec, Contraction):
            # both None when the survivor is not on the cycle yet
            around = {nxt.get(rec.survivor), prv.get(rec.survivor)}
            if around != {rec.attach_survivor, rec.attach_absorbed}:
                raise ValueError(
                    "cycle not consistent with journal: contraction "
                    f"survivor {rec.survivor} has neighbours {sorted(around)}"
                )
            splice(rec.absorbed, rec.survivor, rec.attach_absorbed)

    out = [base_cycle[0]]
    while True:
        w = nxt[out[-1]]
        if w == out[0]:
            break
        out.append(w)
    if len(out) != base:
        raise ValueError("lifted cycle does not cover the base graph")
    if directed_n is not None:
        return _project_triplication(out, directed_n)
    return out
