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
once and replays the records backwards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, pairwise
from typing import Callable, Iterable

from .graphs import DirectedGraph, UndirectedGraph
from .labels import label_cand, label_dup, order_for_vertex_count, vertex_count


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
    """A path of degree-2 vertices collapsed into one of them, `survivor`.

    `path` lists the path's vertices in order, survivor included, from the
    vertex next to ends[0] to the vertex next to ends[1]; `ends` are the
    outer neighbours the path attaches to.  Every vertex of `path` but the
    survivor is deleted, and the survivor is left adjacent to both ends.
    reduce_graph writes a path it collapses in one sweep from the side of
    the survivor's smaller neighbour: the vertex before the survivor, or
    ends[0], has a smaller id than the one after it, or ends[1].  A pair it
    contracts step by step, on the way to a terminal triangle, reads
    survivor first: path (survivor, absorbed), ends (their other neighbours).
    """

    survivor: int
    path: tuple[int, ...]
    ends: tuple[int, int]


Record = Triplication | GadgetRemoval | Contraction


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
        gone = sorted({d for r in self.records for d in _deleted_ids(r)})
        if not gone:
            return CycleLifter(self.records + other.records)
        base_id = partial(_survivor, gone)
        return CycleLifter(
            self.records + tuple(_map_ids(r, base_id) for r in other.records)
        )

    def lift(self, cycle: list[int]) -> list[int]:
        return lift_cycle(self, cycle)


def _deleted_ids(rec: Record) -> tuple[int, ...]:
    """The vertices a record deletes.  Raises ValueError for a path that
    does not hold its survivor once, among at least 2 vertices."""
    if isinstance(rec, GadgetRemoval):
        return (rec.removed,)
    if isinstance(rec, Contraction):
        path, s = rec.path, rec.survivor
        if len(path) < 2 or path.count(s) != 1:
            raise ValueError(
                f"contraction path {path} must hold survivor {s} once, "
                "among at least 2 vertices"
            )
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
    when the directed graph is.  It is built straight from g's sorted
    successor tuples and not re-checked: arcs map one to one onto edges
    between different triples, so a simple g gives a simple result.
    """
    n = g.n
    succ = g._succ
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


def undirect_without(
    graph: UndirectedGraph, arcs: Iterable[tuple[int, int]]
) -> UndirectedGraph:
    """What undirect gives for a directed graph g without the given arcs,
    derived from graph, undirect's result for g itself, by deleting each
    arc (u, v)'s edge (out-copy of u, in-copy of v).  The journal does not
    change.  An arc given twice is removed once; one g lacks raises
    ValueError naming the smallest missing edge."""
    return graph.without_edges((out_copy(u), in_copy(v)) for u, v in arcs)


def triplicate_cycle(cycle: list[int]) -> list[int]:
    """The undirected cycle corresponding to a directed one (test helper;
    lift_cycle through the triplication journal inverts it)."""
    out: list[int] = []
    for v in cycle:
        out.extend((in_copy(v), mid_copy(v), out_copy(v)))
    return out


def _project_triplication(cycle: list[int], n: int) -> list[int]:
    """Collapse a Hamiltonian cycle of the triplication to a directed cycle.
    The cycle must be a permutation of 1..3n, as lift_cycle's walk makes
    it; only its length and its triples are checked here."""
    total = 3 * n
    if len(cycle) != total:
        raise ValueError(f"cycle has {len(cycle)} vertices, expected {total}")
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


def _uncoverable(g: UndirectedGraph) -> str | None:
    """Why no Hamiltonian cycle covers g, found from its sizes alone and
    before anything is allocated per vertex: fewer edges than vertices or
    a vertex of degree below 2.  None when neither holds."""
    if g.m < g.n:
        return f"{g.m} edges cannot cover {g.n} vertices"
    low = g.low_degree_vertex()
    if low:
        return f"vertex {low} has degree {g.degree(low)}"
    return None


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
    r = range(1, n + 1)
    slot2 = [f(i, j, k, 2, n) for i in r for j in r for k in r for f in (label_cand, label_dup)]
    mids = sorted(map(mid_copy, slot2), reverse=True)
    for mv in mids:
        if g.neighbors(mv) != [mv - 1, mv + 1]:
            raise ValueError(f"vertex {mv} is not a removable gadget middle")
        if g.has_edge(mv - 1, mv + 1):
            raise ValueError(f"bridge ({mv - 1}, {mv + 1}) already present")
    # g's own sorted tuples (keys 1..n, as no degree is < 2); a middle's
    # neighbours swap it for each other, and no id lies between the two
    adj: list[tuple[int, ...]] = [(), *g._adj.values()]
    for mv in mids:
        a, b = mv - 1, mv + 1
        adj[mv] = ()
        adj[a] = _swapped(adj[a], mv, b)
        adj[b] = _swapped(adj[b], mv, a)
    records = tuple(GadgetRemoval(mv, mv - 1, mv + 1) for mv in mids)
    return _renumbered(adj), CycleLifter(records)


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
    collapses it there, with one Contraction.  The passes end when nothing
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
                    alive = _contract_path(adj, v, records, alive)
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
    adj: list, m: int, records: list[Record], alive: int
) -> int | Infeasible:
    """Collapse the degree-2 path through m, its smallest id, into m with
    one record, from the side of m's smaller neighbour, and return how
    many vertices are left alive.

    Contracting step by step would keep m and absorb every other vertex
    of the path.  A cycle of degree-2 vertices and a path whose ends
    attach to one vertex end in Infeasible or the terminal triangle, and
    take the step-by-step walk.
    """
    a, b = adj[m]
    left, end_l = _path_side(adj, m, a)
    if end_l == m:
        return _contract_stepwise(adj, m, records, alive)
    right, end_r = _path_side(adj, m, b)
    if end_l == end_r:
        return _contract_stepwise(adj, m, records, alive)
    path = (*reversed(left), m, *right)
    records.append(Contraction(m, path, (end_l, end_r)))
    for t in path:
        adj[t] = ()
    adj[m] = (end_l, end_r) if end_l < end_r else (end_r, end_l)
    if left:
        adj[end_l] = _replaced(adj[end_l], left[-1], m)
    if right:
        adj[end_r] = _replaced(adj[end_r], right[-1], m)
    return alive - len(path) + 1


def _contract_stepwise(
    adj: list, node: int, records: list[Record], alive: int
) -> int | Infeasible:
    """Contract node with its smaller degree-2 neighbour until it has none."""
    while len(adj[node]) == 2:
        a, b = adj[node]
        partner = a if len(adj[a]) == 2 else b if len(adj[b]) == 2 else 0
        if not partner:
            break
        s, t = (node, partner) if node < partner else (partner, node)
        p = sum(adj[s]) - t
        q = sum(adj[t]) - s
        if p == q:
            if alive > 3:
                return Infeasible(f"contracting ({s}, {t}) would double edge to {p}")
            break  # a bare triangle is terminal and Hamiltonian
        records.append(Contraction(s, (s, t), (p, q)))
        adj[s] = (p, q) if p < q else (q, p)
        adj[q] = _replaced(adj[q], t, s)
        adj[t] = ()
        alive -= 1
        node = s
    return alive


def lift_cycle(lifter: CycleLifter, cycle: list[int]) -> list[int]:
    """Replay a journal backwards over a cycle of the final graph.

    Re-inserts gadget middles between their bridged neighbours, re-expands
    each contracted path between its recorded ends, and finally projects
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
    deleted = list(chain.from_iterable(map(_deleted_ids, records)))
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

    # nxt[v] and prv[v] are v's cycle neighbours, 0 while v is off the cycle
    nxt = [0] * (base + 1)
    prv = [0] * (base + 1)
    for v, w in zip(base_cycle, base_cycle[1:] + base_cycle[:1]):
        nxt[v] = w
        prv[w] = v

    for rec in reversed(records):
        if isinstance(rec, GadgetRemoval):
            a, b = rec.left, rec.right
            if not (0 < a <= base and 0 < b <= base and b in (nxt[a], prv[a])):
                raise ValueError(
                    f"cycle not consistent with journal: {a} and {b} not adjacent"
                )
            if nxt[a] != b:
                a, b = b, a
            seq = (a, rec.removed, b)
        else:
            s, (a, b), path = rec.survivor, rec.ends, rec.path
            around = (prv[s], nxt[s]) if 0 < s <= base else (0, 0)
            if 0 in around or set(around) != {a, b}:
                raise ValueError(
                    "cycle not consistent with journal: contraction "
                    f"survivor {s} has neighbours {sorted(set(around))}"
                )
            if around != (a, b):
                a, b, path = b, a, path[::-1]
            seq = (a, *path, b)
        # the cycle runs along seq now; the vertices inside it other than a
        # survivor were off the cycle, as they are deleted by no other record
        for x, y in pairwise(seq):
            nxt[x] = y
            prv[y] = x

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
