"""Graph transforms and the journal that lifts cycles back through them.

Three transforms are provided: the directed-to-undirected triplication,
removal of the redundant middle vertex inside every candidate triple, and
a degree-2 reduction heuristic.  Each leaves its input as it was (the
last two work on its own neighbour tuples and renumber what survives the
same way) and returns a new graph together with a CycleLifter journal;
replaying the journal backwards maps a Hamiltonian cycle of the
transformed graph to one of the original graph.  Deleted edges leave no
record: a cycle of a subgraph is a cycle of the graph.  The reduction
writes one record per degree-2 run that survives it, however many passes
the run took to form.  solve_instance reduces a directed graph's
triplication without building it (_reduce_directed), to the graph and
journal that the triplication followed by the reduction gives.

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

from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, filterfalse, islice, pairwise
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
    reduce_graph writes one per run that survives in its output: the
    survivor is the run's smallest id, the path every vertex folded into
    it, and the ends are vertices of the output, except that in a terminal
    triangle a record may end on the path of the one written after it.
    It writes every path from the side of the survivor's smaller
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
        base = _base_count(self.records, gone, len(cycle), f"cycle length {len(cycle)}")
        records = self.records
        directed_n = None
        if records and isinstance(records[0], Triplication):
            directed_n = records[0].n
            records = records[1:]
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


def _base_count(records: tuple[Record, ...], gone: set[int], n: int, what: str) -> int:
    """The vertex count of the base graph of a journal, deleting `gone`,
    whose final graph has n vertices (`what` names them in an error): n
    plus the deletions.  Raises ValueError when a leading triplication
    gives another count, or a deleted id lies above it."""
    base = n + len(gone)
    if records and isinstance(records[0], Triplication) and base != 3 * records[0].n:
        raise ValueError(
            f"{what} inconsistent with journal "
            f"({len(gone)} deletions from {3 * records[0].n} vertices)"
        )
    if max(gone, default=0) > base:
        raise ValueError("journal refers to vertices outside the graph")
    return base


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

    Phase 1 applies rule 2 alone, pass by pass, each pass scanning its
    pending vertices in ascending id.  Rule 2 never lowers a vertex below
    degree 2, so only a rule-2 deletion makes a vertex newly pending: the
    first pass seeds the vertices with two or more degree-2 neighbours.  A
    dropped neighbour w that falls to degree 2 makes its neighbours of
    higher degree pending, in this pass if they lie above the vertex v
    that dropped it, in the next pass otherwise.  The passes end when
    nothing is pending; `fell` keeps the pass in which each vertex fell to
    degree 2, and a vertex of degree 2 keeps its two edges from then on.
    Phase 2 is one ascending sweep: it meets each maximal degree-2 run at
    its smallest id and collapses the run into that id with one
    Contraction, so the journal holds one record per run that survives.

    The reduced graph and the reasons equal those of the pass-by-pass scan
    that visits every vertex on every pass, rule 2 and then rule 1 (each
    run collapsed into its smallest id), until a pass changes nothing.  A
    contraction changes no degree and no count of degree-2 neighbours, so
    the scan's rule 2 decides as phase 1 does, and either way a run's
    survivor is its smallest id.  Only a run that closes on itself, a ring
    of degree-2 vertices or a path whose two ends are one vertex, sets
    the scan apart: it meets the run in the pass in which it closes, with
    the stretches that fell in earlier passes already collapsed, and
    either refutes it or, when the ring is the whole graph, keeps the
    terminal triangle.  Which pass that was, and the vertices it left, is
    replayed from `fell` (`_as_met`), only when phase 2 meets a ring or
    phase 1 refutes in a pass after the first.

    Returns Infeasible when the rules certify that no Hamiltonian cycle
    exists: fewer edges than vertices or a vertex of degree below 2 (both
    checked before anything is allocated per vertex), a vertex with three
    or more degree-2 neighbours, or a contraction that would double an
    edge in a graph larger than a triangle (a forced short cycle).
    Records name vertices by their ids in g, which is left unchanged.  A
    triangle, the terminal graph of the reduction, comes back as it is
    with an empty journal; below 3 vertices ValueError is raised, as
    solve_hcp does.
    """
    if g.n < 3:
        raise ValueError("reduction expects at least 3 vertices")
    reason = _uncoverable(g)
    if reason:
        return Infeasible(reason)
    if g.n == 3:
        return g, CycleLifter()
    n = g.n
    # g's own sorted tuples (keys 1..n, as no degree is < 2); a rule that
    # changes a vertex writes it a new sorted one, and a deleted vertex ()
    adj: list[tuple[int, ...]] = [(), *g._adj.values()]
    deg2 = bytearray([len(t) == 2 for t in adj])
    fell = [0] * (n + 1)
    rule2 = bytearray(n + 1)
    for x, k in Counter(chain.from_iterable(compress(adj, deg2))).items():
        if k > 1:
            rule2[x] = 1
    # phase 1: rule 2 to its fixpoint
    passes = 0
    while True:
        next_rule2 = bytearray(n + 1)
        v = rule2.find(1, 1)
        while v != -1:
            nbrs = adj[v]
            if len(nbrs) > 2:
                kept = [u for u in nbrs if len(adj[u]) == 2]
                if len(kept) >= 3:
                    # unless the scan refuted a run that closed in an earlier pass
                    first = _first_closed(adj, fell, passes - 1)
                    return first or Infeasible(f"vertex {v} has {len(kept)} degree-2 neighbours")
                if len(kept) == 2:
                    d0, d1 = adj[v] = tuple(kept)
                    deg2[v] = 1
                    fell[v] = passes
                    for w in nbrs:
                        if w == d0 or w == d1:
                            continue
                        around = adj[w]
                        i = around.index(v)
                        adj[w] = around = around[:i] + around[i + 1 :]
                        if len(around) == 2:
                            deg2[w] = 1
                            fell[w] = passes
                            for x in around:
                                if len(adj[x]) == 2:
                                    continue  # takes no rule-2 step again
                                if x > v:
                                    rule2[x] = 1
                                else:
                                    next_rule2[x] = 1
            v = rule2.find(1, v + 1)
        if next_rule2.find(1) == -1:
            break
        rule2 = next_rule2
        passes += 1

    # phase 2: each run into its smallest id
    records: list[Record] = []
    v = deg2.find(1, 1)
    while v != -1:
        a, b = adj[v]
        if len(adj[a]) == 2 or len(adj[b]) == 2:
            left, end_l = _path_side(adj, v, a)
            right, end_r = _path_side(adj, v, b)
            if end_l == end_r:
                # at the fixpoint a closed run is a ring, a whole component
                # that no contraction has touched
                if len(left) + 1 == n:
                    return _terminal_triangle([v, *left], fell)
                return _first_closed(adj, fell, passes)
            for t in chain(left, right):
                adj[t] = ()
                deg2[t] = 0
            records.append(Contraction(v, (*reversed(left), v, *right), (end_l, end_r)))
            adj[v] = (end_l, end_r) if end_l < end_r else (end_r, end_l)
            if left:
                adj[end_l] = _replaced(adj[end_l], left[-1], v)
            if right:
                adj[end_r] = _replaced(adj[end_r], right[-1], v)
        v = deg2.find(1, v + 1)
    # a run's two ends differ, so no contraction doubles an edge
    return _renumbered(adj), CycleLifter(tuple(records))


@_gc_paused
def _reduce_directed(g: DirectedGraph) -> tuple[UndirectedGraph, CycleLifter] | Infeasible:
    """What reduce_graph(undirect(g)[0]) returns, its journal joined after
    the triplication's, found on g without building the triplication.

    In the triplication, v's in-copy 3v - 2 has degree 1 + indeg(v), its
    middle 3v - 1 degree 2 and its out-copy 3v degree 1 + outdeg(v).  So
    rule 2 fires at u's out-copy exactly when one successor of u has
    in-degree 1, and deletes u's other out-arcs; at v's in-copy exactly
    when one predecessor of v has out-degree 1, and deletes v's other
    in-arcs.  Two such neighbours at one copy are reduce's three degree-2
    neighbours, a conflict.  Rule 2 never deletes an edge to a degree-2
    vertex, so a copy's degree-2 neighbours only grow: without a conflict,
    a copy that fires in one order fires in every order, with the same
    two, and rule 2's fixpoint is the same.  So the propagation here need
    not follow reduce's passes.

    At the fixpoint an arc p -> w with outdeg(p) = 1 or indeg(w) = 1 has
    both: it is forced.  A maximal chain of forced arcs, from a head h of
    in-degree at least 2 to a tail t of out-degree at least 2, is one
    degree-2 run of the triplication: from h's middle to t's middle,
    between h's in-copy and t's out-copy.  Its smallest id survives: h's
    middle when h is the chain's smallest vertex, else that vertex's
    in-copy, whose smaller neighbour is its middle.  So each record runs
    from t's side unless h's middle survives, and the records come in
    ascending survivor, as reduce's sweep writes them.  A chain of one
    vertex keeps its three copies.  The reduced graph is the triplication
    of the digraph of the chains: each chain's in-copy, survivor and
    out-copy, renumbered in id order as _renumbered does.

    g is handed to undirect and reduce_graph instead where reduce's own
    checks or passes decide the answer: fewer than 4 triplicated
    vertices, fewer arcs than vertices or a vertex without an out-arc
    (both found before anything is allocated per vertex) or without an
    in-arc, a conflict (which reduce meets too, in words its passes
    decide), or a ring of forced arcs, the terminal triangle or a forced
    short cycle.  A ring is the only run of a triplication that closes on
    itself, since a chain's two ends are an in-copy and an out-copy.
    """
    n = g.n
    if n < 2 or g.m < n or len(g._adj) < n:
        return _reduced_triplication(g)
    # successor tuples (g's own until rule 2 changes them) and
    # predecessor lists, each ascending
    out: list[tuple[int, ...]] = [(), *g._adj.values()]
    ins: list[list[int]] = [[] for _ in range(n + 1)]
    for u, ws in enumerate(out):
        for w in ws:
            ins[w].append(u)
    if not all(islice(ins, 1, None)):
        return _reduced_triplication(g)

    # rule 2 to its fixpoint: u on the stack asks for it at u's out-copy,
    # -v at v's in-copy
    todo = [p[0] for p in ins if len(p) == 1 and len(out[p[0]]) > 1]
    todo += [-ws[0] for ws in out if len(ws) == 1 and len(ins[ws[0]]) > 1]
    while todo:
        x = todo.pop()
        if x > 0:
            ws = out[x]
            if len(ws) == 1:
                continue
            kept = [w for w in ws if len(ins[w]) == 1]
            if len(kept) > 1:
                return _reduced_triplication(g)
            out[x] = (keep := kept[0],)
            for w in ws:
                if w != keep:
                    ps = ins[w]
                    ps.remove(x)
                    if len(ps) == 1 and len(out[ps[0]]) > 1:
                        todo.append(ps[0])
        else:
            ps = ins[-x]
            if len(ps) == 1:
                continue
            kept = [u for u in ps if len(out[u]) == 1]
            if len(kept) > 1:
                return _reduced_triplication(g)
            ins[-x] = kept
            for u in ps:
                if u != kept[0]:
                    ws = out[u]
                    i = ws.index(-x)
                    out[u] = ws = ws[:i] + ws[i + 1 :]
                    if len(ws) == 1 and len(ins[ws[0]]) > 1:
                        todo.append(-ws[0])

    # each chain as (h, its smallest vertex, t, its vertices), in ascending h
    chains = []
    walked = 0
    for h, ps in enumerate(ins):
        if len(ps) > 1:
            run = [v := h]
            while len(ws := out[v]) == 1:
                run.append(v := ws[0])
            walked += len(run)
            chains.append((h, min(run), v, run))
    if walked < n:
        return _reduced_triplication(g)  # the vertices left lie on rings

    # the kept copies renumbered in id order: v's in-copy when v heads a
    # chain, the survivor of the chain whose smallest vertex v is (v's
    # in-copy, or its middle when v is also the head), v's out-copy when v
    # ends a chain
    new_in, surv, new_out = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for _, low, _, _ in chains:
        surv[low] = 1
    k = 0
    for v in range(1, n + 1):
        if len(ins[v]) > 1:
            k += 1
            new_in[v] = k
        if surv[v]:
            k += 1
            surv[v] = k
        if len(out[v]) > 1:
            k += 1
            new_out[v] = k
    # rows[k - 1] is the neighbours of k
    rows: list[tuple[int, ...]] = [()] * k
    records = []
    for h, low, t, run in chains:
        i, m, o = new_in[h], surv[low], new_out[t]
        row = [new_out[u] for u in ins[h]]
        insort(row, m)
        rows[i - 1] = tuple(row)
        rows[m - 1] = (i, o) if i < o else (o, i)
        row = [new_in[w] for w in out[t]]
        insort(row, m)
        rows[o - 1] = tuple(row)
        if len(run) > 1:
            path = [x for v in run for x in (3 * v - 2, 3 * v - 1, 3 * v)][1:-1]
            if low == h:
                records.append(Contraction(3 * h - 1, tuple(path), (3 * h - 2, 3 * t)))
            else:
                records.append(Contraction(3 * low - 2, tuple(reversed(path)), (3 * t, 3 * h - 2)))
    records.sort(key=lambda r: r.survivor)
    graph = UndirectedGraph._derived(k, sum(map(len, rows)) // 2, dict(enumerate(rows, 1)))
    return graph, CycleLifter((Triplication(n), *records))


def _reduced_triplication(g: DirectedGraph) -> tuple[UndirectedGraph, CycleLifter] | Infeasible:
    """reduce_graph(undirect(g)[0]), its journal joined after the
    triplication's."""
    graph, lifter = undirect(g)
    reduced = reduce_graph(graph)
    if isinstance(reduced, Infeasible):
        return reduced
    return reduced[0], lifter + reduced[1]


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
    vertex after them: the end the path attaches to, or m for a ring."""
    side: list[int] = []
    prev, cur = m, head
    while cur != m and len(adj[cur]) == 2:
        side.append(cur)
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
    return side, cur


def _oriented(s: int, path: tuple[int, ...], ends: tuple[int, int]) -> Contraction:
    """The Contraction of `path` into s between `ends`, turned if need be
    to run from the side of the survivor's smaller neighbour."""
    k = path.index(s)
    before = path[k - 1] if k else ends[0]
    after = path[k + 1] if k + 1 < len(path) else ends[1]
    if before > after:
        path, ends = path[::-1], (ends[1], ends[0])
    return Contraction(s, path, ends)


def _closed_runs(adj: list, fell: list[int], last: int):
    """Every run that had closed on itself by pass `last`, as its cycle of
    vertices and the pass in which each fell to degree 2.  Only vertices
    of degree 2 that fell by then count as the run's; the vertex that both
    ends of a path attach to comes first and counts as falling later."""
    view = [t if f <= last else () for t, f in zip(adj, fell)]
    for m, t in enumerate(view):
        if len(t) == 2:
            left, end_l = _path_side(view, m, t[0])
            right, end_r = _path_side(view, m, t[1])
            for u in chain(left, right):
                view[u] = ()
            if end_l == m:
                yield [m, *left], [fell[u] for u in (m, *left)]
            elif end_l == end_r:
                path = [*reversed(left), m, *right]
                yield [end_l, *path], [last + 1, *(fell[u] for u in path)]


def _as_met(cycle: list[int], f: list[int]):
    """How the pass-by-pass scan meets a closed run, given the pass f[k] in
    which cycle[k] fell to degree 2.  The run closes in pass q, the second
    largest of the f (the largest, when two share it): a vertex that falls
    after q still has a third edge in pass q.  By then each stretch of the
    cycle that fell before q is collapsed into its smallest id.  The scan
    visits the run at m, its smallest id of degree 2, and m absorbs the
    smaller degree-2 one of its two neighbours until two are left, t and
    p, the last to absorb and the other.  Returns (q, m, t, p, groups, i):
    groups are the stretches in cycle order from m's, and t and p stand
    for groups i + 1 and i + 2 in some order."""
    top = max(f)
    k = f.index(top)
    q = max(f[:k] + f[k + 1 :])
    late = cycle[k] if top > q else None
    groups: list[list[int]] = []
    joined = False
    for c, fc in zip(cycle[k:] + cycle[:k], f[k:] + f[:k]):
        if joined and fc < q:
            groups[-1].append(c)
        else:
            groups.append([c])
            joined = fc < q
    ids = [min(gr) for gr in groups]
    m = min(x for x in ids if x != late)
    h = ids.index(m)
    groups = groups[h:] + groups[:h]
    ring = ids[h + 1 :] + ids[:h]
    i, j = 0, len(ring) - 1
    while True:
        x, y = ring[i], ring[j]
        take_x = x != late and (x < y or y == late)
        if j - i == 1:
            break
        i, j = (i + 1, j) if take_x else (i, j - 1)
    t, p = (x, y) if take_x else (y, x)
    return q, m, t, p, groups, i


def _first_closed(adj: list, fell: list[int], last: int) -> Infeasible | None:
    """The forced short cycle the pass-by-pass scan meets first among the
    runs closed by pass `last`, if there is one."""
    met = min((_as_met(c, f)[:4] for c, f in _closed_runs(adj, fell, last)), default=None)
    if met is None:
        return None
    _, m, t, p = met
    return Infeasible(f"contracting ({m}, {t}) would double edge to {p}")


def _terminal_triangle(ring: list[int], fell: list[int]) -> tuple[UndirectedGraph, CycleLifter]:
    """A graph that is one ring, reduced as the pass-by-pass scan does it
    to the triangle of m, t and p.  The stretch that t or p stands for,
    if longer than one vertex, is written first, between its neighbours on
    the ring (the stretches of t and p meet, so one is a single vertex).
    m's record, with every other vertex, attaches to t and p."""
    _, m, _, _, groups, i = _as_met(ring, [fell[u] for u in ring])
    x, y = min(groups[i + 1]), min(groups[i + 2])
    records = []
    for k in (i + 1, i + 2):
        if len(groups[k]) > 1:
            ends = (groups[k - 1][-1], groups[(k + 1) % len(groups)][0])
            records.append(_oriented(min(groups[k]), tuple(groups[k]), ends))
    rest = chain.from_iterable(groups[i + 3 :] + groups[: i + 1])
    records.append(_oriented(m, tuple(rest), (y, x)))
    adj: list[tuple[int, ...]] = [()] * (len(ring) + 1)
    for u, v, w in ((m, x, y), (x, m, y), (y, m, x)):
        adj[u] = (v, w) if v < w else (w, v)
    return _renumbered(adj), CycleLifter(tuple(records))
