"""Graph transforms and the journal that lifts cycles back through them.

Three transforms are provided: the directed-to-undirected triplication,
removal of the redundant middle vertex inside every candidate triple, and
a degree-2 reduction heuristic.  Each leaves its input as it was (the
last two work on its own neighbour tuples and renumber what survives the
same way) and returns a new graph together with a CycleLifter journal;
replaying the journal backwards maps a Hamiltonian cycle of the
transformed graph to one of the original graph.  Deleted edges leave no
record: a cycle of a subgraph is a cycle of the graph.

Record id semantics: every record names vertices by their id in the
journal's base graph, the graph its first transform was applied to (after
a triplication, the 3n-vertex undirected graph).  Ids never shift when a
record deletes a vertex.  The final graph's vertex k is the k-th smallest
base id that no record deletes, so lifting maps a cycle through that list
once and replays the records backwards on one successor array.  Behind a
triplication it reads the directed cycle off the vertex triples, from
vertex 1 in arc order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, filterfalse, pairwise
from typing import Callable

from .graphs import DirectedGraph, UndirectedGraph, _gc_paused, _uncoverable
from .labels import label_cand, label_dup, order_for_vertex_count, vertex_count


@dataclass(frozen=True, slots=True)
class Triplication:
    """Directed graph on n vertices became an undirected one on 3n."""

    n: int


@dataclass(frozen=True, slots=True)
class GadgetRemoval:
    """Degree-2 vertex `removed` deleted, its neighbours `left` and `right`
    bridged by a new edge."""

    removed: int
    left: int
    right: int


@dataclass(frozen=True, slots=True)
class Contraction:
    """A path of degree-2 vertices collapsed into one of them, `survivor`.

    `path` lists the path's vertices in order, survivor included, from the
    vertex next to ends[0] to the vertex next to ends[1]; `ends` are the
    outer neighbours the path attaches to.  Every vertex of `path` but the
    survivor is deleted, and the survivor is left adjacent to both ends.
    reduce_graph writes every path from the side of the survivor's smaller
    neighbour: the vertex before the survivor, or ends[0], has a smaller id
    than the one after it, or ends[1].
    """

    survivor: int
    path: tuple[int, ...]
    ends: tuple[int, int]


Record = Triplication | GadgetRemoval | Contraction


@dataclass(frozen=True, slots=True)
class Infeasible:
    """Certificate that the input graph has no Hamiltonian cycle."""

    reason: str


@dataclass(frozen=True, slots=True)
class CycleLifter:
    """Journal of transform records, applied first to last."""

    records: tuple[Record, ...] = ()

    def __add__(self, other: "CycleLifter") -> "CycleLifter":
        """This journal followed by `other`, whose records name vertices of
        this journal's final graph; ids from 1 up are rewritten into base
        ids, and an id below 1 is kept for the lift to refuse.  Raises
        ValueError, in `lift`'s words, when this journal breaks a rule of
        `_deletions`.  `other` is left to the lift: checking it would cost a
        pass over every journal reduce writes, and no CLI path gives a bad one."""
        gone = sorted(_deletions(self.records))
        if not gone:
            return CycleLifter(self.records + other.records)
        base_id = partial(_survivor, [d - j for j, d in enumerate(gone)])
        return CycleLifter(self.records + tuple(_map_ids(r, base_id) for r in other.records))

    def lift(self, cycle: list[int]) -> list[int]:
        """Replay the journal backwards over a cycle of its final graph.

        The cycle is held as one successor array over the base ids.  Each
        gadget middle is re-inserted between its bridged neighbours and
        each contracted path re-expanded between its recorded ends, in the
        direction the cycle runs there.  A journal led by a triplication
        gives the directed cycle read off the triples, from vertex 1 in arc
        order; any other gives the base cycle from the base id of the
        cycle's first vertex, in its direction.  Raises ValueError when the
        journal breaks a rule of `_deletions`, in the words `+` uses, and
        when the cycle cannot have come from its final graph.
        """
        if not cycle:
            raise ValueError("empty cycle")
        gone = _deletions(self.records)
        records = self.records
        directed_n = None
        if records and isinstance(records[0], Triplication):
            directed_n = records[0].n
            records = records[1:]
        base = len(cycle) + len(gone)
        if directed_n is not None and base != 3 * directed_n:
            raise ValueError(
                f"cycle length {len(cycle)} inconsistent with journal "
                f"({len(gone)} deletions from {3 * directed_n} vertices)"
            )
        if max(gone, default=0) > base:
            raise ValueError("journal refers to vertices outside the graph")
        if sorted(cycle) != list(range(1, len(cycle) + 1)):
            raise ValueError("cycle is not a permutation of the final graph's vertices")
        alive = list(filterfalse(gone.__contains__, range(1, base + 1)))
        base_cycle = [alive[c - 1] for c in cycle]

        # nxt[v] is v's successor on the cycle, 0 while v is off it
        nxt = [0] * (base + 1)
        for v, w in pairwise(chain(base_cycle, base_cycle[:1])):
            nxt[v] = w

        for rec in reversed(records):
            if isinstance(rec, GadgetRemoval):
                a, b = rec.left, rec.right
                if not (0 < a <= base and 0 < b <= base and (nxt[a] == b or nxt[b] == a)):
                    raise ValueError(
                        f"cycle not consistent with journal: {a} and {b} not adjacent"
                    )
                seq = (a, rec.removed, b) if nxt[a] == b else (b, rec.removed, a)
            else:
                s, (a, b), path = rec.survivor, rec.ends, rec.path
                inside = 0 < s <= base and 0 < a <= base and 0 < b <= base
                if inside and nxt[a] == s and nxt[s] == b:
                    seq = (a, *path, b)
                elif inside and nxt[b] == s and nxt[s] == a:
                    seq = (b, *reversed(path), a)
                else:
                    # a survivor off the cycle, or outside the graph, is in no
                    # nxt entry: it has neighbours {0}, as nxt[0] is 0
                    around = {nxt.index(s), nxt[s]} if s in nxt else {0}
                    raise ValueError(
                        "cycle not consistent with journal: contraction "
                        f"survivor {s} has neighbours {sorted(around)}"
                    )
            # the cycle runs along seq now; the vertices inside it other than a
            # survivor were off the cycle, as they are deleted by no other record
            for x, y in pairwise(seq):
                nxt[x] = y

        if directed_n is None:
            out = [base_cycle[0]]
            while (w := nxt[out[-1]]) != out[0]:
                out.append(w)
            if len(out) != base:
                raise ValueError("lifted cycle does not cover the base graph")
            return out
        # every triple reads in-copy, middle, out-copy one way round the cycle:
        # along nxt from in-copy 1 (d = 1), or against it, so that nxt runs
        # from out-copy 3 (d = -1) and meets the directed cycle backwards
        d = nxt[2] - 2
        if d not in (1, -1):
            raise ValueError("cycle does not keep vertex triples intact")
        v = start = 2 - d
        out = []
        for _ in range(directed_n):
            u = v + d
            w = u + d
            if (v - start) % 3 or nxt[v] != u or nxt[u] != w:
                raise ValueError("cycle does not keep vertex triples intact")
            out.append((v + 2) // 3)
            v = nxt[w]
            if v == start:
                break
        if v != start or len(out) != directed_n:
            raise ValueError("lifted cycle does not cover the base graph")
        return out if d == 1 else out[:1] + out[:0:-1]


def _deletions(records: tuple[Record, ...]) -> set[int]:
    """The ids a journal deletes, checked in this order against the rules
    that hold whatever cycle is lifted: a triplication only first, well-formed
    paths (`_deleted_ids`), no deleted id below 1, none deleted twice."""
    if any(isinstance(r, Triplication) for r in records[1:]):
        raise ValueError("triplication record allowed only at the start of a journal")
    ids = list(chain.from_iterable(map(_deleted_ids, records)))
    gone = set(ids)
    if min(gone, default=1) < 1:
        raise ValueError("journal refers to vertices outside the graph")
    if len(gone) < len(ids):
        seen: set[int] = set()
        d = next(d for d in ids if d in seen or seen.add(d))
        raise ValueError(f"journal deletes vertex {d} twice")
    return gone


def _deleted_ids(rec: Record) -> tuple[int, ...]:
    """The vertices a record deletes.  Raises ValueError for a path that
    does not hold its survivor once, among at least 2 vertices, and for a
    survivor that is one of its own ends."""
    if isinstance(rec, GadgetRemoval):
        return (rec.removed,)
    if isinstance(rec, Contraction):
        path, s = rec.path, rec.survivor
        if len(path) < 2 or path.count(s) != 1:
            raise ValueError(
                f"contraction path {path} must hold survivor {s} once, "
                "among at least 2 vertices"
            )
        if s in rec.ends:
            raise ValueError(f"contraction survivor {s} is one of its own ends {rec.ends}")
        k = path.index(s)
        return path[:k] + path[k + 1 :]
    return ()


def _map_ids(rec: Record, f: Callable[[int], int]) -> Record:
    """The record with every vertex id v replaced by f(v)."""
    if isinstance(rec, GadgetRemoval):
        return GadgetRemoval(f(rec.removed), f(rec.left), f(rec.right))
    if isinstance(rec, Contraction):
        return Contraction(
            f(rec.survivor), tuple(map(f, rec.path)), (f(rec.ends[0]), f(rec.ends[1]))
        )
    return rec


def _survivor(shifted: list[int], k: int) -> int:
    """The k-th smallest positive id a journal does not delete, where
    shifted[j] is its j-th smallest deleted id minus j: k plus the count of
    deleted ids below the answer, which is the count of j with
    shifted[j] <= k.  An id below 1 comes back as it is."""
    return k + bisect_right(shifted, k)


@_gc_paused
def undirect(g: DirectedGraph) -> tuple[UndirectedGraph, CycleLifter]:
    """Undirected equivalent of a directed graph.

    Each vertex becomes an in-copy, middle and out-copy chained together;
    each arc (u, v) becomes the edge (out-copy of u, in-copy of v).  The
    result has 3n vertices and 2n + m edges and is Hamiltonian exactly
    when the directed graph is.  It is built straight from g's sorted
    successor tuples and not re-checked: arcs map one to one onto edges
    between different triples, so a simple g gives a simple result.
    """
    n = g.n
    succ = g._adj
    # in-copy lists: v's middle, then the out-copies of v's predecessors,
    # appended in ascending tail order so that each list comes out sorted
    ins: list[list[int] | None] = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        ins[v].append(3 * v - 1)
        o = 3 * v
        for w in succ.get(v, ()):
            ins[w].append(o)
    adj: dict[int, tuple[int, ...]] = {}
    for v in range(1, n + 1):
        i = 3 * v - 2
        mid, o = i + 1, i + 2
        adj[i] = tuple(ins[v])
        ins[v] = None  # drop each list once its tuple is made: a lower peak
        adj[mid] = (i, o)
        far = [3 * w - 2 for w in succ.get(v, ())]
        far.append(mid)
        far.sort()
        adj[o] = tuple(far)
    graph = UndirectedGraph._derived(3 * n, 2 * n + g.m, adj)
    return graph, CycleLifter((Triplication(n),))


def compress_triples(g: UndirectedGraph) -> tuple[UndirectedGraph, CycleLifter]:
    """Drop the removable middle vertex of every candidate-triple gadget.

    In the triplication of an encoding graph, the nine vertices of each
    candidate triple form a gadget that is always entered at one end and
    left at the other; the middle copy of the slot-2 vertex can be removed
    and its two neighbours bridged without changing which cycles exist.
    Removes exactly 2N^3 vertices and 2N^3 edges; surviving vertices are
    renumbered in order.  The order N is the one whose encoding's
    triplication has g.n vertices.
    """
    n = order_for_vertex_count(g.n // 3)
    if g.n != 3 * vertex_count(n):
        raise ValueError(f"graph has {g.n} vertices, not the triplication of an encoding")
    # as in reduce_graph, and before a bare header can make 2N^3 ids
    reason = _uncoverable(g)
    if reason:
        raise ValueError(reason)
    # the slot-2 vertices are every third label of the cand family and of
    # the dup family above it, so their middles lie 9 apart: descending,
    # the dup family's first
    dup, cand = 3 * label_dup(1, 1, 1, 2, n) - 1, 3 * label_cand(1, 1, 1, 2, n) - 1
    span = 9 * n**3
    mids = [*reversed(range(dup, dup + span, 9)), *reversed(range(cand, cand + span, 9))]
    # g's own sorted tuples (keys 1..n, as no degree is < 2); a middle's
    # neighbours swap it for each other, and no id lies between the two
    adj: list[tuple[int, ...]] = [(), *g._adj.values()]
    for mv in mids:
        a, b = mv - 1, mv + 1
        if adj[mv] != (a, b):
            raise ValueError(f"vertex {mv} is not a removable gadget middle")
        if b in adj[a]:
            raise ValueError(f"bridge ({a}, {b}) already present")
        adj[mv] = ()
        adj[a] = _swapped(adj[a], mv, b)
        adj[b] = _swapped(adj[b], mv, a)
    records = tuple(GadgetRemoval(mv, mv - 1, mv + 1) for mv in mids)
    return _renumbered(adj), CycleLifter(records)


@_gc_paused
def reduce_graph(
    g: UndirectedGraph,
) -> tuple[UndirectedGraph, CycleLifter] | Infeasible:
    """Shrink a graph with two cycle-preserving rules, run to a fixpoint.

    Rule 1: two adjacent degree-2 vertices contract to a single vertex.
    Rule 2: a vertex with two degree-2 neighbours keeps only the edges to
    them; its other edges can never be used and are deleted.

    Each pass scans its pending vertices in ascending id, first for rule 2
    and then for rule 1, since rule 2 creates the chains that rule 1
    collapses.  Rule 2 never lowers a vertex below degree 2 and a
    contraction changes no degree, so only a rule-2 deletion makes a
    vertex newly pending: the first pass seeds rule 2 at the vertices with
    two or more degree-2 neighbours and rule 1 at the degree-2 vertices.
    A deletion at v leaves v with degree 2 and makes v and its two kept
    neighbours pending for rule 1.  A dropped neighbour w that falls to
    degree 2 makes w and its neighbours pending for rule 1, and its
    neighbours for rule 2 too: in this scan if they lie above v, in the
    next pass's otherwise.  Every vertex of a degree-2 path is then
    pending, so the rule-1 scan meets each path at its smallest id and
    collapses it there, with one Contraction; the path's deleted vertices
    stop being pending, so the scan skips them.  A path that closes on
    itself, a ring of degree-2 vertices or a path whose two ends are one
    vertex, collapses until its smallest id has two ring vertices left:
    that is one Contraction into the terminal triangle when the ring is
    the whole graph, and Infeasible otherwise.  The passes end when nothing
    is pending for rule 2.  The reduced graph and the reasons are exactly
    those of the pass-by-pass scan that visits every vertex on every pass
    (ascending ids, rule 2 before rule 1) until a pass changes nothing;
    its pair contractions are the journal's paths taken apart.

    Returns Infeasible when the rules certify that no Hamiltonian cycle
    exists: fewer edges than vertices or a vertex of degree below 2 (both
    checked before anything is allocated per vertex), a vertex with three
    or more degree-2 neighbours, or a contraction that would double an
    edge in a graph larger than a triangle (a forced short cycle).
    Records name vertices by their ids in g, which is left unchanged.
    """
    if g.n < 4:
        raise ValueError("reduction expects at least 4 vertices")
    reason = _uncoverable(g)
    if reason:
        return Infeasible(reason)
    n = g.n
    # g's own sorted tuples (keys 1..n, as no degree is < 2); a rule that
    # changes a vertex writes it a new sorted one, and a deleted vertex ()
    adj: list[tuple[int, ...]] = [(), *g._adj.values()]
    records: list[Record] = []
    alive = n
    rule1 = bytearray([len(t) == 2 for t in adj])
    rule2 = bytearray(n + 1)
    for x, k in Counter(chain.from_iterable(compress(adj, rule1))).items():
        if k > 1:
            rule2[x] = 1
    while True:
        next_rule2 = bytearray(n + 1)
        v = rule2.find(1, 1)
        while v != -1:
            nbrs = adj[v]
            if len(nbrs) > 2:
                deg2 = [u for u in nbrs if len(adj[u]) == 2]
                if len(deg2) >= 3:
                    return Infeasible(f"vertex {v} has {len(deg2)} degree-2 neighbours")
                if len(deg2) == 2:
                    d0, d1 = adj[v] = tuple(deg2)
                    for w in nbrs:
                        if w == d0 or w == d1:
                            continue
                        around = adj[w]
                        i = around.index(v)
                        adj[w] = around = around[:i] + around[i + 1 :]
                        if len(around) == 2:
                            rule1[w] = 1
                            for x in around:
                                rule1[x] = 1
                                if x > v:
                                    rule2[x] = 1
                                else:
                                    next_rule2[x] = 1
                    rule1[v] = rule1[d0] = rule1[d1] = 1
            v = rule2.find(1, v + 1)

        v = rule1.find(1, 1)
        while v != -1:
            if len(adj[v]) == 2:
                a, b = adj[v]
                if len(adj[a]) == 2 or len(adj[b]) == 2:
                    alive = _contract_path(adj, v, records, alive, rule1)
                    if isinstance(alive, Infeasible):
                        return alive
            v = rule1.find(1, v + 1)

        if next_rule2.find(1) == -1:
            break
        rule2, rule1 = next_rule2, bytearray(n + 1)

    # the contraction guards never double an edge
    return _renumbered(adj), CycleLifter(tuple(records))


def _renumbered(adj: list[tuple[int, ...]]) -> UndirectedGraph:
    """The graph on the live vertices of adj, indexed by id with () at 0
    and at every deleted vertex, renumbered in order.  The count of live
    vertices up to v is a live v's new id, and monotone, so ascending
    tuples stay ascending; adj must hold each edge under both its ends."""
    renumber = list(accumulate(map(bool, adj))).__getitem__
    out = dict(enumerate([tuple(map(renumber, t)) for t in filter(None, adj)], 1))
    return UndirectedGraph._derived(len(out), sum(map(len, out.values())) // 2, out)


def _swapped(nbrs: tuple[int, ...], old: int, new: int) -> tuple[int, ...]:
    """The tuple nbrs with old swapped for new in its place: still sorted
    when no id of nbrs lies between the two."""
    i = nbrs.index(old)
    return (*nbrs[:i], new, *nbrs[i + 1 :])


def _replaced(nbrs: tuple[int, ...], old: int, new: int) -> tuple[int, ...]:
    """The sorted tuple nbrs with old swapped for new, still sorted."""
    return tuple(sorted(_swapped(nbrs, old, new)))


def _path_side(adj: list, m: int, head: int) -> tuple[list[int], int]:
    """The degree-2 vertices from `head` away from m, in order, and the
    vertex after them: the end the path attaches to, or m for a cycle."""
    side: list[int] = []
    prev, cur = m, head
    while cur != m and len(adj[cur]) == 2:
        side.append(cur)
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    return side, cur


def _contract_path(
    adj: list, m: int, records: list[Record], alive: int, pending: bytearray
) -> int | Infeasible:
    """Collapse the degree-2 run through m, its smallest id, into m with
    one record, from the side of m's smaller neighbour, and return how
    many vertices are left alive.  The run's vertices leave `pending`,
    so that the scan does not visit the deleted ones above m.

    Contracting step by step would keep m and absorb the smaller of its
    degree-2 neighbours each time.  A run that closes on itself, a ring of
    degree-2 vertices or a path whose two ends are one vertex, is taken
    that way from both sides until m is left with two ring vertices, which
    are adjacent.  When they and m are the whole graph, the record ends in
    that terminal triangle; otherwise contracting m with the smaller
    degree-2 one would double the edge to the other, and no Hamiltonian
    cycle exists.
    """
    a, b = adj[m]
    left, end_l = _path_side(adj, m, a)
    right, end_r = _path_side(adj, m, b)
    if end_l == end_r:
        # the ring from a round to b; end_l is on it unless it is m
        ring = left if end_l == m else [*left, end_l, *reversed(right)]
        i, j = 0, len(ring) - 1
        while True:
            x, y = ring[i], ring[j]
            take_x = len(adj[x]) == 2 and (x < y or len(adj[y]) != 2)
            if j - i == 1:
                break
            i, j = (i + 1, j) if take_x else (i, j - 1)
        left, end_l, right, end_r = ring[:i], x, ring[:j:-1], y
        if alive - len(left) - len(right) > 3:
            t, p = (x, y) if take_x else (y, x)
            return Infeasible(f"contracting ({m}, {t}) would double edge to {p}")
        pending[x] = pending[y] = 0  # the terminal triangle stays as it is
    path = (*reversed(left), m, *right)
    records.append(Contraction(m, path, (end_l, end_r)))
    for t in path:
        adj[t] = ()
        pending[t] = 0
    adj[m] = (end_l, end_r) if end_l < end_r else (end_r, end_l)
    if left:
        adj[end_l] = _replaced(adj[end_l], left[-1], m)
    if right:
        adj[end_r] = _replaced(adj[end_r], right[-1], m)
    return alive - len(path) + 1
