"""Hamiltonian cycle search: forced-edge propagation plus backtracking.

Every edge is undecided, forced (must be in the cycle) or excluded.  The
propagation rules are the usual degree arguments: a vertex with only two
usable edges must use both, a vertex with two forced edges can use no
others, and an edge joining the two ends of a forced path may not close a
cycle that is shorter than the whole graph.  Search branches on an
undecided edge at a vertex of minimum remaining degree, trying inclusion
first, and never returns a cycle it has not verified.

The rules run in one loop over local lists, which a single force or
exclusion also goes through.  Each vertex has one byte in a key: its
usable degree while it is open, capped at 254, and 255 once it is closed.
The branch vertex is the first position of the lowest byte present, found
by `bytearray.find`: the smallest id in the lowest degree, with capped
vertices told apart by their exact degrees.  The trail holds one entry per
decision (an exclusion, or a force with the path ends it joined), and
rollback undoes decisions newest first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import contains

from .graphs import DirectedGraph, UndirectedGraph
from .transform import _uncoverable, undirect


class Contradiction(Exception):
    """The current edge assignment admits no Hamiltonian cycle."""


@dataclass
class SolveBudget:
    max_nodes: int = 10_000_000
    max_ms: int = 600_000


@dataclass
class SearchStats:
    """nodes counts branch attempts, contradictions the failed ones, and
    max_trail the longest decision trail the search held."""

    nodes: int = 0
    depth: int = 0
    time_ms: int = 0
    contradictions: int = 0
    max_trail: int = 0


@dataclass
class SolveOutcome:
    """Result of a solve: status is 'cycle', 'no_cycle' or 'budget'."""

    status: str
    cycle: list[int] | None = None
    stats: SearchStats = field(default_factory=SearchStats)


def verify_cycle(g: DirectedGraph | UndirectedGraph, cycle: list[int]) -> bool:
    """True iff cycle visits every vertex once and each step is an arc/edge."""
    n = g.n
    directed = isinstance(g, DirectedGraph)
    if n < (2 if directed else 3) or len(cycle) != n or len(set(cycle)) != n:
        return False
    adj = g._succ if directed else g._adj
    # step i runs from cycle[i] to cycle[i + 1], the last back to the first;
    # an id outside 1..n is in no adjacency, so its steps fail
    return all(map(contains, map(adj.get, cycle, repeat(())), cycle[1:] + cycle[:1]))


UNDECIDED, FORCED, EXCLUDED = 0, 1, -1
# key bytes: an open vertex's usable degree up to _CAP, a closed vertex _CLOSED
_CAP, _CLOSED = 254, 255


class SolveState:
    """Edge states plus the forced-path bookkeeping for one undirected graph.

    Edges are numbered in ascending (u, v) order, u < v.  inc[v] lists the
    ids of v's edges in the order of nbrs[v], the graph's own tuple of v's
    ascending neighbours, so an edge is found by scanning its endpoint's
    neighbours.  key[v] is cap[d] = min(d, 254) for v's usable degree d
    while v is open (more usable edges than forced ones, so it has an
    undecided edge) and 255 once it is closed.  The trail records
    decisions: ~e for an exclusion, and eu, ev, len eu, len ev, e for a
    force, with the path ends and lengths as they were before it.
    """

    def __init__(self, g: UndirectedGraph):
        self.n = n = g.n
        adj = g._adj
        self.nbrs = nbrs = list(map(adj.get, range(n + 1), repeat(())))
        edges = [(u, v) for u, nb in enumerate(nbrs) for v in nb if u < v]
        # ascending ids list each vertex's lower neighbours, then its higher
        inc: list[list[int]] = [[] for _ in range(n + 1)]
        for e, (u, v) in enumerate(edges):
            inc[u].append(e)
            inc[v].append(e)
        self.edges = edges
        self.inc = inc
        self.state = [UNDECIDED] * len(edges)
        self.forced_deg = [0] * (n + 1)
        self.avail_deg = adeg = list(map(len, nbrs))
        self.cap = cap = list(map(min, range(max(adeg) + 1), repeat(_CAP)))
        self.key = bytearray(map(cap.__getitem__, adeg)).replace(b"\0", b"\xff")
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
        """Undo every decision taken since mark, newest first; each was
        taken on an undecided edge, so both its ends are open again."""
        trail = self.trail
        state, edges, key, cap = self.state, self.edges, self.key, self.cap
        fdeg, adeg = self.forced_deg, self.avail_deg
        po, pl = self.path_other, self.path_len
        forces = 0
        i = len(trail)
        while i > mark:
            i -= 1
            e = trail[i]
            if e < 0:
                e = ~e
                state[e] = UNDECIDED
                for w in edges[e]:
                    adeg[w] = d = adeg[w] + 1
                    key[w] = cap[d]
            else:
                i -= 4
                eu, ev, len_eu, len_ev = trail[i:i + 4]
                state[e] = UNDECIDED
                u, v = edges[e]
                fdeg[u] -= 1
                fdeg[v] -= 1
                key[u] = cap[adeg[u]]
                key[v] = cap[adeg[v]]
                po[eu], po[ev] = u, v
                pl[eu], pl[ev] = len_eu, len_ev
                forces += 1
        del trail[mark:]
        self.forced_total -= forces
        self._force_queue.clear()
        self._exclude_queue.clear()

    def _edge(self, u: int, v: int) -> int:
        nb = self.nbrs[u] if 1 <= u <= self.n else ()
        if v not in nb:
            raise ValueError(f"no edge ({u}, {v})")
        return self.inc[u][nb.index(v)]

    def force(self, u: int, v: int) -> None:
        """Mark edge (u, v) as part of the cycle and queue consequences."""
        self._settle(self._edge(u, v), True, False)

    def exclude(self, u: int, v: int) -> None:
        self._settle(self._edge(u, v), False, False)

    def edge_state(self, u: int, v: int) -> int:
        return self.state[self._edge(u, v)]

    def complete(self) -> bool:
        return self.forced_total == self.n

    def _settle(self, e: int, forcing: bool, drain: bool) -> None:
        """Force or exclude edge e and queue what that implies; with drain,
        go on through the queues, forces first and newest first, until both
        are empty.  Raises Contradiction at the first decision that cannot
        hold.  One loop over local lists, as it runs per decision."""
        state, edges, inc, nbrs = self.state, self.edges, self.inc, self.nbrs
        fdeg, adeg, key, cap = self.forced_deg, self.avail_deg, self.key, self.cap
        po, pl, trail = self.path_other, self.path_len, self.trail
        fq, xq = self._force_queue, self._exclude_queue
        n = self.n
        forces = 0
        try:
            while True:
                st = state[e]
                if st:  # decided already
                    if forcing != (st == FORCED):
                        raise Contradiction(f"edge {edges[e]} both needed and excluded")
                elif forcing:
                    u, v = edges[e]
                    fu, fv = fdeg[u] + 1, fdeg[v] + 1
                    if fu == 3 or fv == 3:
                        raise Contradiction(f"third forced edge at a vertex of {edges[e]}")
                    eu, ev = po[u], po[v]
                    if eu == v and pl[u] != n - 1:
                        # joining the two ends of one forced path too early
                        raise Contradiction(f"edge {edges[e]} closes a short cycle")
                    trail += (eu, ev, pl[eu], pl[ev], e)
                    state[e] = FORCED
                    fdeg[u], fdeg[v] = fu, fv
                    forces += 1
                    if fu == adeg[u]:
                        key[u] = _CLOSED
                    if fv == adeg[v]:
                        key[v] = _CLOSED
                    if eu != v:
                        po[eu], po[ev] = ev, eu
                        pl[eu] = pl[ev] = new_len = pl[eu] + pl[ev] + 1
                        nb = nbrs[eu]
                        closing = inc[eu][nb.index(ev)] if ev in nb else None
                        if new_len == n - 1:
                            # the path spans every vertex, the closing edge must exist
                            if closing is None or state[closing] == EXCLUDED:
                                raise Contradiction("spanning path cannot be closed")
                            fq.append(closing)
                        elif closing is not None and state[closing] == UNDECIDED:
                            xq.append(closing)
                        for w in (u, v):
                            if fdeg[w] == 2:
                                for e2 in inc[w]:
                                    if state[e2] == UNDECIDED:
                                        xq.append(e2)
                else:
                    trail.append(~e)
                    state[e] = EXCLUDED
                    short = 0
                    for w in edges[e]:
                        adeg[w] = left = adeg[w] - 1
                        if left > fdeg[w]:
                            key[w] = cap[left]
                            if left == 2:
                                for e2 in inc[w]:
                                    if state[e2] == UNDECIDED:
                                        fq.append(e2)
                        else:
                            key[w] = _CLOSED
                        if left < 2 and not short:
                            short = w
                    if short:
                        # raised only once both ends are counted, as the trail undoes both
                        raise Contradiction(f"vertex {short} has fewer than two usable edges")
                if not drain:
                    break
                if fq:
                    e = fq.pop()
                    forcing = True
                elif xq:
                    e = xq.pop()
                    forcing = False
                else:
                    break
        finally:
            self.forced_total += forces


def propagate(state: SolveState) -> SolveState:
    """Run the forcing rules to a fixpoint; raises Contradiction when the
    current assignment cannot extend to a Hamiltonian cycle."""
    fq, xq = state._force_queue, state._exclude_queue
    if not state._seeded:
        state._seeded = True
        for v in range(1, state.n + 1):
            if state.avail_deg[v] < 2:
                raise Contradiction(f"vertex {v} has fewer than two usable edges")
            if state.avail_deg[v] == 2:
                fq += [e for e in state.inc[v] if state.state[e] == UNDECIDED]
    if fq:
        state._settle(fq.pop(), True, True)
    elif xq:
        state._settle(xq.pop(), False, True)
    return state


def _extract_cycle(state: SolveState) -> list[int]:
    fadj: list[list[int]] = [[] for _ in range(state.n + 1)]
    for u, v in compress(state.edges, map(FORCED.__eq__, state.state)):
        fadj[u].append(v)
        fadj[v].append(u)
    cycle, prev, cur = [1], 1, min(fadj[1])
    while cur != 1:
        cycle.append(cur)
        a, b = fadj[cur]
        prev, cur = cur, (b if a == prev else a)
    return cycle


def _pick_branch_edge(state: SolveState) -> int | None:
    """The undecided edge to the lowest neighbour of the open vertex with
    the fewest usable edges, lowest id first."""
    find = state.key.find
    for d in range(1, _CLOSED):
        v = find(d, 1)
        if v != -1:
            break
    else:
        return None
    if d == _CAP:
        # capped degrees share one byte, so compare the exact ones
        adeg = state.avail_deg
        w = find(_CAP, v + 1)
        while w != -1:
            if adeg[w] < adeg[v]:
                v = w
            w = find(_CAP, w + 1)
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

    if _uncoverable(g):
        return outcome("no_cycle")

    state = SolveState(g)
    trail = state.trail
    try:
        propagate(state)
    except Contradiction:
        return outcome("no_cycle")
    stats.max_trail = len(trail)

    def attempt(e: int, include: bool) -> bool:
        stats.nodes += 1
        try:
            state._settle(e, include, True)
            ok = True
        except Contradiction:
            stats.contradictions += 1
            ok = False
        stats.max_trail = max(stats.max_trail, len(trail))
        return ok

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
