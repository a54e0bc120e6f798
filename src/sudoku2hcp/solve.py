"""Hamiltonian cycle search: forced-edge propagation plus backtracking.

Every edge is undecided, forced (must be in the cycle) or excluded.  The
propagation rules are the usual degree arguments: a vertex with only two
usable edges must use both, a vertex with two forced edges can use no
others, and an edge joining the two ends of a forced path may not close a
cycle that is shorter than the whole graph.  Search branches on an
undecided edge at a vertex of minimum remaining degree, trying inclusion
first, and never returns a cycle it has not verified.
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
    """Edge states plus the forced-path bookkeeping for one undirected graph."""

    def __init__(self, g: UndirectedGraph):
        self.g = g
        n = g.n
        self.n = n
        self.edges: list[tuple[int, int]] = list(g.edges())
        self.edge_id = {e: idx for idx, e in enumerate(self.edges)}
        self.inc: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        for idx, (u, v) in enumerate(self.edges):
            self.inc[u].append((idx, v))
            self.inc[v].append((idx, u))
        self.state = [UNDECIDED] * len(self.edges)
        self.forced_deg = [0] * (n + 1)
        self.avail_deg = [0] * (n + 1)
        for v in range(1, n + 1):
            self.avail_deg[v] = g.degree(v)
        # forced edges form vertex-disjoint paths; endpoints map to the
        # opposite endpoint and carry the path's edge count
        self.path_other = list(range(n + 1))
        self.path_len = [0] * (n + 1)
        self.forced_total = 0
        self.trail: list[tuple] = []
        self._force_queue: list[int] = []
        self._exclude_queue: list[int] = []
        self._seeded = False
        self._arrays = {
            "s": self.state,
            "f": self.forced_deg,
            "a": self.avail_deg,
            "po": self.path_other,
            "pl": self.path_len,
        }

    # trail helpers: every mutation is recorded so search can roll back

    def _set_state(self, e: int, val: int) -> None:
        self.trail.append(("s", e, self.state[e]))
        self.state[e] = val

    def _set(self, arr_tag: str, arr: list[int], i: int, val: int) -> None:
        self.trail.append((arr_tag, i, arr[i]))
        arr[i] = val

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        arrays = self._arrays
        while len(self.trail) > mark:
            tag, i, old = self.trail.pop()
            if tag == "ft":
                self.forced_total = old
            else:
                arrays[tag][i] = old
        self._force_queue.clear()
        self._exclude_queue.clear()

    def _edge(self, u: int, v: int) -> int:
        e = self.edge_id.get((u, v) if u < v else (v, u))
        if e is None:
            raise ValueError(f"no edge ({u}, {v})")
        return e

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
        st = self.state[e]
        if st == FORCED:
            return
        if st == EXCLUDED:
            raise Contradiction(f"edge {self.edges[e]} both needed and excluded")
        u, v = self.edges[e]
        if self.forced_deg[u] == 2 or self.forced_deg[v] == 2:
            raise Contradiction(f"third forced edge at a vertex of {self.edges[e]}")
        eu = self.path_other[u]
        ev = self.path_other[v]
        if eu == v:
            # joining the two ends of one forced path
            if self.path_len[u] != self.n - 1:
                raise Contradiction(f"edge {self.edges[e]} closes a short cycle")
            self._set_state(e, FORCED)
            self._set("f", self.forced_deg, u, 2)
            self._set("f", self.forced_deg, v, 2)
            self.trail.append(("ft", 0, self.forced_total))
            self.forced_total += 1
            return
        self._set_state(e, FORCED)
        self._set("f", self.forced_deg, u, self.forced_deg[u] + 1)
        self._set("f", self.forced_deg, v, self.forced_deg[v] + 1)
        self.trail.append(("ft", 0, self.forced_total))
        self.forced_total += 1
        new_len = self.path_len[eu] + self.path_len[ev] + 1
        self._set("po", self.path_other, eu, ev)
        self._set("po", self.path_other, ev, eu)
        self._set("pl", self.path_len, eu, new_len)
        self._set("pl", self.path_len, ev, new_len)
        closing = self.edge_id.get((eu, ev) if eu < ev else (ev, eu))
        if new_len == self.n - 1:
            # the path spans every vertex, the closing edge must exist
            if closing is None or self.state[closing] == EXCLUDED:
                raise Contradiction("spanning path cannot be closed")
            self._force_queue.append(closing)
        elif closing is not None and self.state[closing] == UNDECIDED:
            self._exclude_queue.append(closing)
        for w in (u, v):
            if self.forced_deg[w] == 2:
                for e2, _ in self.inc[w]:
                    if self.state[e2] == UNDECIDED:
                        self._exclude_queue.append(e2)

    def _apply_exclude(self, e: int) -> None:
        st = self.state[e]
        if st == EXCLUDED:
            return
        if st == FORCED:
            raise Contradiction(f"edge {self.edges[e]} both needed and excluded")
        self._set_state(e, EXCLUDED)
        for w in self.edges[e]:
            left = self.avail_deg[w] - 1
            self._set("a", self.avail_deg, w, left)
            if left < 2:
                raise Contradiction(f"vertex {w} has fewer than two usable edges")
            if left == 2 and self.forced_deg[w] < 2:
                for e2, _ in self.inc[w]:
                    if self.state[e2] == UNDECIDED:
                        self._force_queue.append(e2)


def propagate(state: SolveState) -> SolveState:
    """Run the forcing rules to a fixpoint; raises Contradiction when the
    current assignment cannot extend to a Hamiltonian cycle."""
    if not state._seeded:
        state._seeded = True
        for v in range(1, state.n + 1):
            if state.avail_deg[v] < 2:
                raise Contradiction(f"vertex {v} has fewer than two usable edges")
            if state.avail_deg[v] == 2:
                for e, _ in state.inc[v]:
                    if state.state[e] == UNDECIDED:
                        state._force_queue.append(e)
    fq, xq = state._force_queue, state._exclude_queue
    while fq or xq:
        if fq:
            state._apply_force(fq.pop())
        else:
            state._apply_exclude(xq.pop())
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
    best_v = 0
    best_avail = 0
    for v in range(1, state.n + 1):
        if state.avail_deg[v] > state.forced_deg[v]:
            if best_v == 0 or state.avail_deg[v] < best_avail:
                best_v, best_avail = v, state.avail_deg[v]
    if best_v == 0:
        return None
    best_e = -1
    best_other = 0
    for e, other in state.inc[best_v]:
        if state.state[e] == UNDECIDED and (best_e < 0 or other < best_other):
            best_e, best_other = e, other
    return best_e


def solve_hcp(
    g: UndirectedGraph,
    budget: SolveBudget | None = None,
    # no effect; kept because the benchmark harness passes it
    seed: int = 0,
) -> SolveOutcome:
    """Complete backtracking search for a Hamiltonian cycle.

    Deterministic for fixed inputs; seed is ignored.  A graph with fewer
    edges than vertices is answered 'no_cycle' before anything is allocated
    per vertex.
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

    if g.m < g.n:
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
