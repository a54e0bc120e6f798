"""Hamiltonian cycle search: forced-edge propagation plus backtracking.

Every edge is undecided, forced (must be in the cycle) or excluded.  The
propagation rules are the usual degree arguments: a vertex with only two
usable edges must use both, a vertex with two forced edges can use no
others, and an edge joining the two ends of a forced path may not close a
cycle that is shorter than the whole graph.  Search branches on an
undecided edge at a vertex of minimum remaining degree, trying inclusion
first, and never returns a cycle it has not verified.

The branch vertex comes from buckets of open vertices keyed by usable
degree, kept current by every decision and every undo: it is the smallest
id in the lowest non-empty bucket, found by walking up from a lower bound
on that bucket's ids rather than by scanning every vertex.  The trail holds one entry per decision (an exclusion, or a force
with the path ends it joined), and rollback undoes decisions newest first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graphs import DirectedGraph, UndirectedGraph
from .transform import undirect


class Contradiction(Exception):
    """The current edge assignment admits no Hamiltonian cycle."""


@dataclass
class SolveBudget:
    max_nodes: int = 10_000_000
    max_ms: int = 600_000


@dataclass
class SearchStats:
    nodes: int = 0
    depth: int = 0
    time_ms: int = 0


@dataclass
class SolveOutcome:
    """Result of a solve: status is 'cycle', 'no_cycle' or 'budget'."""

    status: str
    cycle: list[int] | None = None
    stats: SearchStats = field(default_factory=SearchStats)


def verify_cycle(g: DirectedGraph | UndirectedGraph, cycle: list[int]) -> bool:
    """True iff cycle visits every vertex once and each step is an arc/edge."""
    n = g.n
    if len(cycle) != n or len(set(cycle)) != n:
        return False
    if any(not 1 <= v <= n for v in cycle):
        return False
    if isinstance(g, DirectedGraph):
        if n < 2:
            return False
        return all(g.has_arc(cycle[i - 1], cycle[i]) for i in range(n))
    if n < 3:
        return False
    return all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(n))


UNDECIDED, FORCED, EXCLUDED = 0, 1, -1


class SolveState:
    """Edge states plus the forced-path bookkeeping for one undirected graph.

    Edges are numbered in ascending (u, v) order, u < v.  inc[v] lists the
    ids of v's edges in the order of nbrs[v], the graph's own tuple of v's
    ascending neighbours, so an edge is found by scanning its endpoint's
    neighbours.  An open vertex (more usable edges than forced ones, so it
    has an undecided edge) sits in buckets[d] for its usable degree d, and
    no id in buckets[d] is below floor[d]: an add lowers the floor, the
    branch choice raises it to the bucket's smallest id.  The trail
    records decisions: ~e for an exclusion, and eu, ev, len eu, len ev, e
    for a force, with the path ends and lengths as they were before it.
    """

    def __init__(self, g: UndirectedGraph):
        self.g = g
        n = g.n
        self.n = n
        adj = g._adj
        nbrs = [adj.get(v, ()) for v in range(n + 1)]
        self.nbrs = nbrs
        edges: list[tuple[int, int]] = []
        inc: list[list[int]] = [[] for _ in range(n + 1)]
        for u in range(1, n + 1):
            inc_u = inc[u]
            for v in nbrs[u]:
                if u < v:
                    inc_u.append(len(edges))
                    inc[v].append(len(edges))
                    edges.append((u, v))
        self.edges = edges
        self.inc = inc
        self.state = [UNDECIDED] * len(edges)
        self.forced_deg = [0] * (n + 1)
        self.avail_deg = [len(vs) for vs in nbrs]
        self.buckets: list[set[int]] = [set() for _ in range(max(self.avail_deg) + 1)]
        for v in range(1, n + 1):
            if self.avail_deg[v]:
                self.buckets[self.avail_deg[v]].add(v)
        self.floor = [1] * len(self.buckets)
        # forced edges form vertex-disjoint paths; endpoints map to the
        # opposite endpoint and carry the path's edge count
        self.path_other = list(range(n + 1))
        self.path_len = [0] * (n + 1)
        self.forced_total = 0
        self.trail: list[int] = []
        self._force_queue: list[int] = []
        self._exclude_queue: list[int] = []
        self._seeded = False

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        """Undo every decision taken since mark, newest first."""
        trail = self.trail
        pop = trail.pop
        state, edges = self.state, self.edges
        fdeg, adeg, buckets = self.forced_deg, self.avail_deg, self.buckets
        po, pl, floor = self.path_other, self.path_len, self.floor
        while len(trail) > mark:
            e = pop()
            if e < 0:
                e = ~e
                state[e] = UNDECIDED
                for w in edges[e]:
                    d = adeg[w]
                    if d > fdeg[w]:
                        buckets[d].discard(w)
                    d += 1
                    adeg[w] = d
                    buckets[d].add(w)
                    if w < floor[d]:
                        floor[d] = w
            else:
                len_ev = pop()
                len_eu = pop()
                ev = pop()
                eu = pop()
                state[e] = UNDECIDED
                u, v = edges[e]
                for w in (u, v):
                    fdeg[w] -= 1
                    d = adeg[w]
                    buckets[d].add(w)
                    if w < floor[d]:
                        floor[d] = w
                po[eu] = u
                po[ev] = v
                pl[eu] = len_eu
                pl[ev] = len_ev
                self.forced_total -= 1
        self._force_queue.clear()
        self._exclude_queue.clear()

    def _edge(self, u: int, v: int) -> int:
        nb = self.nbrs[u] if 1 <= u <= self.n else ()
        if v not in nb:
            raise ValueError(f"no edge ({u}, {v})")
        return self.inc[u][nb.index(v)]

    def force(self, u: int, v: int) -> None:
        """Mark edge (u, v) as part of the cycle and queue consequences."""
        self._apply_force(self._edge(u, v))

    def exclude(self, u: int, v: int) -> None:
        self._apply_exclude(self._edge(u, v))

    def edge_state(self, u: int, v: int) -> int:
        return self.state[self._edge(u, v)]

    def complete(self) -> bool:
        return self.forced_total == self.n

    def _apply_force(self, e: int) -> None:
        state = self.state
        st = state[e]
        if st == FORCED:
            return
        if st == EXCLUDED:
            raise Contradiction(f"edge {self.edges[e]} both needed and excluded")
        u, v = self.edges[e]
        fdeg = self.forced_deg
        fu, fv = fdeg[u] + 1, fdeg[v] + 1
        if fu == 3 or fv == 3:
            raise Contradiction(f"third forced edge at a vertex of {self.edges[e]}")
        po, pl = self.path_other, self.path_len
        eu = po[u]
        ev = po[v]
        n = self.n
        if eu == v and pl[u] != n - 1:
            # joining the two ends of one forced path too early
            raise Contradiction(f"edge {self.edges[e]} closes a short cycle")
        self.trail += (eu, ev, pl[eu], pl[ev], e)
        state[e] = FORCED
        fdeg[u] = fu
        fdeg[v] = fv
        self.forced_total += 1
        adeg, buckets = self.avail_deg, self.buckets
        if fu == adeg[u]:
            buckets[fu].discard(u)
        if fv == adeg[v]:
            buckets[fv].discard(v)
        if eu == v:
            return
        new_len = pl[eu] + pl[ev] + 1
        po[eu] = ev
        po[ev] = eu
        pl[eu] = new_len
        pl[ev] = new_len
        nb = self.nbrs[eu]
        closing = self.inc[eu][nb.index(ev)] if ev in nb else None
        if new_len == n - 1:
            # the path spans every vertex, the closing edge must exist
            if closing is None or state[closing] == EXCLUDED:
                raise Contradiction("spanning path cannot be closed")
            self._force_queue.append(closing)
        elif closing is not None and state[closing] == UNDECIDED:
            self._exclude_queue.append(closing)
        xq = self._exclude_queue
        if fu == 2:
            xq += [e2 for e2 in self.inc[u] if state[e2] == UNDECIDED]
        if fv == 2:
            xq += [e2 for e2 in self.inc[v] if state[e2] == UNDECIDED]

    def _apply_exclude(self, e: int) -> None:
        state = self.state
        st = state[e]
        if st == EXCLUDED:
            return
        if st == FORCED:
            raise Contradiction(f"edge {self.edges[e]} both needed and excluded")
        self.trail.append(~e)
        state[e] = EXCLUDED
        fdeg, adeg = self.forced_deg, self.avail_deg
        buckets, floor = self.buckets, self.floor
        short = 0
        for w in self.edges[e]:
            left = adeg[w] - 1
            adeg[w] = left
            buckets[left + 1].discard(w)
            if left > fdeg[w]:
                buckets[left].add(w)
                if w < floor[left]:
                    floor[left] = w
                if left == 2:
                    self._force_queue += [
                        e2 for e2 in self.inc[w] if state[e2] == UNDECIDED
                    ]
            if left < 2 and not short:
                short = w
        if short:
            # raised only once both ends are counted, as the trail undoes both
            raise Contradiction(f"vertex {short} has fewer than two usable edges")


def propagate(state: SolveState) -> SolveState:
    """Run the forcing rules to a fixpoint; raises Contradiction when the
    current assignment cannot extend to a Hamiltonian cycle."""
    if not state._seeded:
        state._seeded = True
        for v in range(1, state.n + 1):
            if state.avail_deg[v] < 2:
                raise Contradiction(f"vertex {v} has fewer than two usable edges")
            if state.avail_deg[v] == 2:
                for e in state.inc[v]:
                    if state.state[e] == UNDECIDED:
                        state._force_queue.append(e)
    fq, xq = state._force_queue, state._exclude_queue
    force, exclude = state._apply_force, state._apply_exclude
    while fq or xq:
        if fq:
            force(fq.pop())
        else:
            exclude(xq.pop())
    return state


def _extract_cycle(state: SolveState) -> list[int]:
    fadj: list[list[int]] = [[] for _ in range(state.n + 1)]
    for e, st in enumerate(state.state):
        if st == FORCED:
            u, v = state.edges[e]
            fadj[u].append(v)
            fadj[v].append(u)
    cycle = [1, min(fadj[1])]
    while True:
        a, b = cycle[-2], cycle[-1]
        nxt = fadj[b][0] if fadj[b][0] != a else fadj[b][1]
        if nxt == 1:
            break
        cycle.append(nxt)
    return cycle


def _pick_branch_edge(state: SolveState) -> int | None:
    """The undecided edge to the lowest neighbour of the open vertex with
    the fewest usable edges, lowest id first."""
    for d, bucket in enumerate(state.buckets):
        if bucket:
            break
    else:
        return None
    # the bucket's smallest id, found by walking up from its floor
    for v in range(state.floor[d], state.n + 1):
        if v in bucket:
            break
    state.floor[d] = v
    st = state.state
    for e in state.inc[v]:
        if st[e] == UNDECIDED:
            return e
    return None


def solve_hcp(
    g: UndirectedGraph,
    budget: SolveBudget | None = None,
    # no effect; kept because the benchmark harness passes it
    seed: int = 0,
) -> SolveOutcome:
    """Complete backtracking search for a Hamiltonian cycle.

    Deterministic for fixed inputs; seed is ignored.  A graph with fewer
    edges than vertices or with a vertex of degree below 2 is answered
    'no_cycle' before anything is allocated per vertex.
    """
    del seed
    if g.n < 3:
        raise ValueError("Hamiltonian cycle search needs at least 3 vertices")
    if budget is None:
        budget = SolveBudget()
    t0 = time.monotonic()
    stats = SearchStats()

    def elapsed_ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    def outcome(status: str, cycle: list[int] | None = None) -> SolveOutcome:
        stats.time_ms = elapsed_ms()
        return SolveOutcome(status, cycle, stats)

    if g.m < g.n or g.low_degree_vertex():
        return outcome("no_cycle")

    state = SolveState(g)
    try:
        propagate(state)
    except Contradiction:
        return outcome("no_cycle")

    def attempt(e: int, include: bool) -> bool:
        stats.nodes += 1
        try:
            if include:
                state._apply_force(e)
            else:
                state._apply_exclude(e)
            propagate(state)
            return True
        except Contradiction:
            return False

    frames: list[tuple[int, int, bool]] = []  # (trail mark, edge, tried exclude)
    while True:
        if state.complete():
            cycle = _extract_cycle(state)
            if not verify_cycle(g, cycle):
                raise RuntimeError("internal error: extracted cycle failed verification")
            stats.depth = max(stats.depth, len(frames))
            return outcome("cycle", cycle)
        if stats.nodes >= budget.max_nodes or elapsed_ms() >= budget.max_ms:
            return outcome("budget")
        e = _pick_branch_edge(state)
        if e is None:
            raise RuntimeError("internal error: incomplete state with no branch edge")
        stats.depth = max(stats.depth, len(frames) + 1)
        m = state.mark()
        if attempt(e, True):
            frames.append((m, e, False))
            continue
        state.rollback(m)
        if attempt(e, False):
            frames.append((m, e, True))
            continue
        state.rollback(m)
        while frames:
            m, e2, tried_exclude = frames.pop()
            state.rollback(m)
            if not tried_exclude:
                if stats.nodes >= budget.max_nodes or elapsed_ms() >= budget.max_ms:
                    return outcome("budget")
                if attempt(e2, False):
                    frames.append((m, e2, True))
                    break
                state.rollback(m)
        else:
            return outcome("no_cycle")


def solve_directed(g: DirectedGraph, budget: SolveBudget | None = None) -> SolveOutcome:
    """Solve a directed instance through the undirected conversion and lift
    the cycle back through its triplication journal."""
    ug, lifter = undirect(g)
    out = solve_hcp(ug, budget)
    if out.status == "cycle":
        lifted = lifter.lift(out.cycle)
        if not verify_cycle(g, lifted):
            raise RuntimeError("internal error: lifted cycle failed verification")
        out.cycle = lifted
    return out


def format_stats_line(stats: SearchStats) -> str:
    """Machine-readable one-line summary of a solve."""
    return f"STATS nodes={stats.nodes} depth={stats.depth} time_ms={stats.time_ms}"
