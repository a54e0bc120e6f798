"""Shared test helpers: independent brute-force oracles, fixed graphs and
puzzle generators.  Everything here is deliberately written as plain,
propagation-free enumeration so it stays independent of the library code
it checks, except solve_directed (undirect, solve_hcp and the lift in one
call) and the references at the end.  Those are the library's earlier,
simpler reduce_graph, enumerate_solutions and solve_hcp, its vertex
layout by role (Role, label_of, role_of), its arc-list build_hcp, its
clue_redundant_arcs by label calls and its line-by-line graph writers:
the faster versions, and the label_* arithmetic, must match them exactly.
The earlier reduce_graph wrote one record per contracted pair and one per
rule-2 edge deletion; those record types live here, with folded_runs to
fold the pairs into the library's one record per surviving run."""

from __future__ import annotations

import importlib.util
import random
import sys
import time
import tracemalloc
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from pathlib import Path

from sudoku2hcp import (
    DirectedGraph,
    Grid,
    SearchStats,
    SolveBudget,
    SolveOutcome,
    SudokuInstance,
    UndirectedGraph,
    blank_instance,
    enumerate_solutions,
    solve_hcp,
    undirect,
    verify_cycle,
)
from sudoku2hcp.labels import (
    FINISH,
    START,
    label_block,
    label_cand,
    label_cell_end,
    label_col,
    label_col_end,
    label_dup,
    label_dup_end,
    label_row,
    label_row_end,
    vertex_count,
)
from sudoku2hcp.solve import Contradiction
from sudoku2hcp.sudoku import _check_order, block_of, cells_of_block
from sudoku2hcp.transform import Contraction, Infeasible

# a well-formed 9x9 puzzle with exactly 35 clues and its unique solution,
# frozen from a seeded uniqueness-preserving thinning run
PUZZLE_35 = (
    "060050710023079568070160004210000090050090400"
    "800600053031842070700000000000500306"
)
SOLUTION_35 = (
    "468253719123479568579168234214385697356791482"
    "897624153631842975745936821982517346"
)


def peak_bytes(f) -> int:
    """Peak traced allocation, in bytes, while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_directed_hamiltonian(n: int, arcs) -> list[int] | None:
    """First Hamiltonian cycle by plain DFS over successor lists, or None."""
    succ: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in arcs:
        succ[u].append(v)
    for v in succ:
        succ[v].sort()
    path = [1]
    seen = {1}

    def dfs() -> bool:
        if len(path) == n:
            return 1 in succ[path[-1]]
        for w in succ[path[-1]]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                if dfs():
                    return True
                path.pop()
                seen.remove(w)
        return False

    if n >= 2 and dfs():
        return path[:]
    return None


def brute_undirected_hamiltonian(n: int, edges) -> list[int] | None:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    path = [1]
    seen = {1}

    def dfs() -> bool:
        if len(path) == n:
            return 1 in adj[path[-1]]
        for w in adj[path[-1]]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                if dfs():
                    return True
                path.pop()
                seen.remove(w)
        return False

    if n >= 3 and dfs():
        return path[:]
    return None


def all_undirected_hamiltonian_cycles(n: int, edges) -> list[tuple[int, ...]]:
    """Every Hamiltonian cycle, one canonical tuple per cycle (starts at 1,
    second vertex smaller than the last)."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    out: list[tuple[int, ...]] = []
    path = [1]
    seen = {1}

    def dfs() -> None:
        if len(path) == n:
            if 1 in adj[path[-1]] and path[1] < path[-1]:
                out.append(tuple(path))
            return
        for w in adj[path[-1]]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                dfs()
                path.pop()
                seen.remove(w)

    if n >= 3:
        dfs()
    return out


def random_undirected(rng: random.Random, n: int, p: float) -> UndirectedGraph:
    edges = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if rng.random() < p
    ]
    return UndirectedGraph(n, edges)


def storage(g: DirectedGraph | UndirectedGraph) -> tuple:
    """n, m, the adjacency keys in stored order and the adjacency itself:
    equal exactly when two graphs are stored alike, tuple for tuple."""
    return g.n, g.m, list(g._adj), g._adj


def triplicate_cycle(cycle: list[int]) -> list[int]:
    """The undirected cycle of undirect(g) that a directed cycle of g
    becomes: each vertex v as its in-copy, middle and out-copy (3v - 2,
    3v - 1, 3v).  Lifting through the triplication journal inverts it."""
    return [w for v in cycle for w in (3 * v - 2, 3 * v - 1, 3 * v)]


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


def random_directed_arcs(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b and rng.random() < p
    ]


def petersen() -> UndirectedGraph:
    return UndirectedGraph(
        10,
        [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
            (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
            (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
        ],
    )


def dodecahedron() -> UndirectedGraph:
    # LCF notation [10, 7, 4, -4, -7, 10, -4, 7, -7, 4] twice round a 20-ring
    jumps = [10, 7, 4, -4, -7, 10, -4, 7, -7, 4]
    edges = set()
    for v in range(20):
        edges.add(tuple(sorted((v + 1, (v + 1) % 20 + 1))))
        w = (v + jumps[v % 10]) % 20
        edges.add(tuple(sorted((v + 1, w + 1))))
    return UndirectedGraph(20, sorted(edges))


@lru_cache(maxsize=1)
def all_order4_solutions():
    return tuple(enumerate_solutions(blank_instance(4), 10**6))


def well_formed_order4(rng: random.Random):
    """A uniquely solvable 4x4 instance and its solution."""
    sols = all_order4_solutions()
    solution = rng.choice(sols)
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    rng.shuffle(cells)
    clues: dict[tuple[int, int], int] = {}
    for cell in cells:
        clues[cell] = solution.value(*cell)
        if len(enumerate_solutions(SudokuInstance(4, clues), 2)) == 1:
            break
    return SudokuInstance(4, clues), solution


def thinning(grid: Grid, count: int, rng: random.Random) -> SudokuInstance:
    """count cells of a solved grid, drawn at random, as clues."""
    n = grid.order
    cells = rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)], count)
    return SudokuInstance(n, {(i, j): grid.value(i, j) for i, j in cells})


def random_consistent_instance(
    rng: random.Random, order: int, max_clues: int
) -> SudokuInstance:
    """Random clue set that passes the consistency check (it may still be
    unsatisfiable)."""
    n = order
    while True:
        count = rng.randint(0, max_clues)
        clues = {}
        for _ in range(count):
            clues[(rng.randint(1, n), rng.randint(1, n))] = rng.randint(1, n)
        try:
            return SudokuInstance(n, clues)
        except ValueError:
            continue


@dataclass(frozen=True)
class PairContraction:
    """Adjacent degree-2 vertices merged: `absorbed` folded into `survivor`.

    attach_survivor / attach_absorbed are the outer neighbours at each end
    of the contracted pair.
    """

    survivor: int
    absorbed: int
    attach_survivor: int
    attach_absorbed: int


@dataclass(frozen=True)
class EdgeDeletion:
    """Edges removed without touching any vertex."""

    edges: tuple[tuple[int, int], ...]


def folded_runs(records) -> list[Contraction]:
    """reduce_graph_by_passes' pair contractions folded into one Contraction
    per final survivor, in the order each run last changed.

    A pair (s, t, p, q) stands for p - s - t - q becoming p - s - q: the
    vertices folded into s so far, read from p's side to t's, are followed
    by those folded into t, read from s's side to q's, and s's ends become
    p and q.  A run keeps the ends of its last change, and its path is
    turned to run from the side of the survivor's smaller neighbour."""
    runs: dict[int, tuple[tuple[int, ...], tuple[int, int]]] = {}
    for rec in records:
        if not isinstance(rec, PairContraction):
            continue
        s, t, p, q = rec.survivor, rec.absorbed, rec.attach_survivor, rec.attach_absorbed
        head, (a, _) = runs.pop(s, ((s,), (p, t)))
        tail, (_, d) = runs.pop(t, ((t,), (s, q)))
        # t's end on s's side may since have been folded into s; its far end
        # is still q
        runs[s] = ((head if a == p else head[::-1]) + (tail if d == q else tail[::-1]), (p, q))
    out = []
    for s, (path, ends) in runs.items():
        k = path.index(s)
        before = path[k - 1] if k else ends[0]
        after = path[k + 1] if k + 1 < len(path) else ends[1]
        if before > after:
            path, ends = path[::-1], (ends[1], ends[0])
        out.append(Contraction(s, path, ends))
    return out


def reduce_graph_by_passes(
    g: UndirectedGraph,
) -> tuple[UndirectedGraph, tuple] | Infeasible:
    """Shrink a graph with two cycle-preserving rules, run to a fixpoint.

    The pass-by-pass reduce_graph that rescans every vertex on every pass,
    kept as the oracle the library's reduce_graph must match: the same
    reduced graph and reasons, and its pair contractions folded by
    folded_runs into the library's records.  Returns the reduced graph and
    its PairContraction and EdgeDeletion records.

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
    Records name vertices by their ids in g.  A triangle passes the scan
    unchanged; below 3 vertices ValueError is raised.
    """
    if g.n < 3:
        raise ValueError("reduction expects at least 3 vertices")
    if g.m < g.n:
        return Infeasible(f"{g.m} edges cannot cover {g.n} vertices")
    adj: dict[int, set[int]] = {v: set(g._adj.get(v, ())) for v in range(1, g.n + 1)}
    for v, nbrs in adj.items():
        if len(nbrs) < 2:
            return Infeasible(f"vertex {v} has degree {len(nbrs)}")
    alive = set(adj)
    records: list[PairContraction | EdgeDeletion] = []
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
                records.append(PairContraction(s, t, p, q))
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
    return UndirectedGraph(len(alive_sorted), edges), tuple(records)


def enumerate_solutions_recursive(instance: SudokuInstance, limit: int) -> list[Grid]:
    """Depth-first enumeration of complete solutions, at most `limit` of them.

    The recursive enumerate_solutions, one call level per blank cell, kept
    as the reference the library's iterative search must match grid for
    grid.

    Cells are filled in row-major order and values tried in ascending order,
    so the result list is deterministic: grids appear in lexicographic order
    of their row-major value sequence.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    n = instance.order
    full = (1 << n) - 1
    row_used = [0] * (n + 1)
    col_used = [0] * (n + 1)
    blk_used = [0] * (n + 1)
    cells = [[0] * (n + 1) for _ in range(n + 1)]
    for (i, j), k in instance.clues.items():
        bit = 1 << (k - 1)
        a = block_of(i, j, n)
        row_used[i] |= bit
        col_used[j] |= bit
        blk_used[a] |= bit
        cells[i][j] = k
    todo = [
        (i, j, block_of(i, j, n))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if cells[i][j] == 0
    ]
    out: list[Grid] = []

    def dfs(idx: int) -> None:
        if len(out) >= limit:
            return
        if idx == len(todo):
            out.append(Grid(n, tuple(tuple(cells[i][1:]) for i in range(1, n + 1))))
            return
        i, j, a = todo[idx]
        avail = full & ~(row_used[i] | col_used[j] | blk_used[a])
        while avail:
            bit = avail & -avail
            avail -= bit
            k = bit.bit_length()
            cells[i][j] = k
            row_used[i] |= bit
            col_used[j] |= bit
            blk_used[a] |= bit
            dfs(idx + 1)
            row_used[i] &= ~bit
            col_used[j] &= ~bit
            blk_used[a] &= ~bit
            cells[i][j] = 0
            if len(out) >= limit:
                return

    dfs(0)
    return out


UNDECIDED, FORCED, EXCLUDED = 0, 1, -1


# The solver that finds its branch vertex by scanning every vertex and
# trails single cell writes, kept as the oracle the library's solve_hcp
# must match in status, cycle, nodes and depth.


class ScanSolveState:
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
            self.avail_deg[v] = len(g._adj.get(v, ()))
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


def propagate_by_scan(state: ScanSolveState) -> ScanSolveState:
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


def _extract_cycle_by_scan(state: ScanSolveState) -> list[int]:
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


def _pick_branch_edge_by_scan(state: ScanSolveState) -> int | None:
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


def solve_hcp_by_scan(
    g: UndirectedGraph,
    budget: SolveBudget | None = None,
) -> SolveOutcome:
    """Complete backtracking search for a Hamiltonian cycle.

    Deterministic for fixed inputs.  A graph with fewer edges than vertices
    is answered 'no_cycle' before anything is allocated per vertex.
    """
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

    state = ScanSolveState(g)
    try:
        propagate_by_scan(state)
    except Contradiction:
        return outcome("no_cycle")

    def attempt(e: int, include: bool) -> bool:
        stats.nodes += 1
        try:
            if include:
                state._apply_force(e)
            else:
                state._apply_exclude(e)
            propagate_by_scan(state)
            return True
        except Contradiction:
            stats.contradictions += 1
            return False

    frames: list[tuple[int, int, bool]] = []  # (trail mark, edge, tried exclude)
    while True:
        if state.complete():
            cycle = _extract_cycle_by_scan(state)
            if not verify_cycle(g, cycle):
                raise RuntimeError("internal error: extracted cycle failed verification")
            stats.depth = max(stats.depth, len(frames))
            return outcome("cycle", cycle)
        if stats.nodes >= budget.max_nodes or elapsed_ms() >= budget.max_ms:
            return outcome("budget")
        e = _pick_branch_edge_by_scan(state)
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


@lru_cache(maxsize=1)
def stage16_seed101_puzzles() -> tuple[str, ...]:
    """The puzzle texts of the benchmark's stage16 workload at seed 101,
    drawn by bench/corpus.py, which does not run the library."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    return tuple(corpus.puzzles(corpus.WORKLOADS["stage16"], 101))


@dataclass(frozen=True, order=True)
class Role:
    """A vertex of the encoding named by its family and its indices; the
    static methods make each family's roles."""

    kind: str
    args: tuple[int, ...] = ()

    def __repr__(self):
        if not self.args:
            return self.kind
        return f"{self.kind}({', '.join(map(str, self.args))})"

    @staticmethod
    def start() -> Role:
        return Role("start")

    @staticmethod
    def finish() -> Role:
        return Role("finish")

    @staticmethod
    def block(a: int, k: int) -> Role:
        return Role("block", (a, k))

    @staticmethod
    def row(i: int, k: int) -> Role:
        return Role("row", (i, k))

    @staticmethod
    def row_end(i: int) -> Role:
        return Role("row_end", (i,))

    @staticmethod
    def col(j: int, k: int) -> Role:
        return Role("col", (j, k))

    @staticmethod
    def col_end(j: int) -> Role:
        return Role("col_end", (j,))

    @staticmethod
    def cand(i: int, j: int, k: int, slot: int) -> Role:
        return Role("cand", (i, j, k, slot))

    @staticmethod
    def cell_end(i: int, j: int) -> Role:
        return Role("cell_end", (i, j))

    @staticmethod
    def dup(i: int, j: int, k: int, slot: int) -> Role:
        return Role("dup", (i, j, k, slot))

    @staticmethod
    def dup_end(i: int, j: int) -> Role:
        return Role("dup_end", (i, j))


# The vertex layout by role: each family's kind and the upper bound of each
# of its indices, in label order.  Indices run from 1 and the last one is
# fastest; "n" stands for the order, and a candidate's slot runs 1..3.
_LAYOUT = (
    ("start", ()),
    ("finish", ()),
    ("block", ("n", "n")),
    ("row", ("n", "n")),
    ("row_end", ("n",)),
    ("col", ("n", "n")),
    ("col_end", ("n",)),
    ("cand", ("n", "n", "n", 3)),
    ("cell_end", ("n", "n")),
    ("dup", ("n", "n", "n", 3)),
    ("dup_end", ("n", "n")),
)


def _families(order: int):
    """Each family's kind, index bounds and first label, in label order;
    raises unless the order is a perfect square >= 4."""
    _check_order(order)
    first = 1
    for kind, dims in _LAYOUT:
        bounds = tuple(order if d == "n" else d for d in dims)
        yield kind, bounds, first
        first += prod(bounds)


def label_of(role: Role, order: int) -> int:
    """Numeric label of a role, read off the layout table: the statement of
    the layout that the library's label_* arithmetic must agree with.
    Raises on unknown kinds or out-of-range indices."""
    for kind, bounds, first in _families(order):
        if kind == role.kind and len(bounds) == len(role.args):
            break
    else:
        raise ValueError(f"malformed role {role!r}")
    offset = 0
    for v, bound in zip(role.args, bounds):
        if not 1 <= v <= bound:
            raise ValueError(f"role {role!r} out of range for order {order}")
        offset = offset * bound + v - 1
    return first + offset


def role_of(label: int, order: int) -> Role:
    """Inverse of label_of."""
    _check_order(order)
    total = vertex_count(order)
    if not 1 <= label <= total:
        raise ValueError(f"label {label} out of range 1..{total}")
    for kind, bounds, first in _families(order):
        if label < first + prod(bounds):
            break
    offset, args = label - first, []
    for bound in reversed(bounds):
        offset, v = divmod(offset, bound)
        args.append(v + 1)
    return Role(kind, tuple(reversed(args)))


def _wrap(k: int, n: int) -> int:
    """Map any integer value index back into 1..n."""
    return (k - 1) % n + 1


def encoding_arcs(order: int) -> list[tuple[int, int]]:
    """The blank encoding's arcs, one label call and one tuple at a time:
    the library's earlier build_hcp, before it made successor tuples by
    label arithmetic."""
    n = order
    rng = range(1, n + 1)
    arcs: list[tuple[int, int]] = []
    add = arcs.append

    # entry, exit and the closing arc
    add((START, label_block(1, 1, n)))
    add((label_col_end(n, n), FINISH))
    add((FINISH, START))

    # committing value k in block a enters the chosen cell's triple at k+1
    for a in rng:
        cells = cells_of_block(a, n)
        for k in rng:
            nk = _wrap(k + 1, n)
            for i, j in cells:
                add((label_block(a, k, n), label_cand(i, j, nk, 1, n)))

    for i in rng:
        for j in rng:
            for k in rng:
                x1 = label_cand(i, j, k, 1, n)
                x2 = x1 + 1
                x3 = x1 + 2
                # slot 2 is walkable in both directions inside a triple
                add((x1, x2))
                add((x2, x1))
                add((x2, x3))
                add((x3, x2))
                # triple-to-triple chain through the values of one cell
                add((x3, label_cand(i, j, _wrap(k + 1, n), 1, n)))
                y1 = label_dup(i, j, k, 1, n)
                y2 = y1 + 1
                y3 = y1 + 2
                add((y1, y2))
                add((y2, y1))
                add((y2, y3))
                add((y3, y2))
                add((y3, label_dup(i, j, _wrap(k + 1, n), 1, n)))
                # hop from the first copy to the duplicate copy; a commit of
                # value k exits at slot 3 of value k-1 and lands on k+1
                add((label_cand(i, j, k, 3, n), label_dup(i, j, _wrap(k + 2, n), 1, n)))

    # return hops from the duplicate copy back to the block machinery
    for i in rng:
        for j in rng:
            a = block_of(i, j, n)
            for k in rng:
                if k == n - 1:
                    continue
                add((label_dup(i, j, k, 3, n), label_block(a, _wrap(k + 2, n), n)))
            src = label_dup(i, j, n - 1, 3, n)
            if a < n:
                # committing value n finishes block a, move to the next block
                add((src, label_block(a + 1, 1, n)))
            else:
                # committing value n in the last block hands over to the rows
                add((src, label_row(1, 1, n)))

    # row sweep: collect the committed triple of value k somewhere in row i
    for i in rng:
        for k in rng:
            rv = label_row(i, k, n)
            for j in rng:
                add((rv, label_cand(i, j, k, 3, n)))
    for i in rng:
        for j in rng:
            ve = label_cell_end(i, j, n)
            for k in rng:
                add((label_cand(i, j, k, 1, n), ve))
                add((ve, label_row(i, k, n)))
            add((ve, label_row_end(i, n)))
    for i in range(1, n):
        add((label_row_end(i, n), label_row(i + 1, 1, n)))
    add((label_row_end(n, n), label_col(1, 1, n)))

    # column sweep over the duplicate copies
    for j in rng:
        for k in rng:
            cv = label_col(j, k, n)
            for i in rng:
                add((cv, label_dup(i, j, k, 3, n)))
    for i in rng:
        for j in rng:
            we = label_dup_end(i, j, n)
            for k in rng:
                add((label_dup(i, j, k, 1, n), we))
                add((we, label_col(j, k, n)))
            add((we, label_col_end(j, n)))
    for j in range(1, n):
        add((label_col_end(j, n), label_col(j + 1, 1, n)))
    return arcs


def build_hcp_by_arcs(order: int) -> DirectedGraph:
    """encoding_arcs through the public, checking constructor."""
    return DirectedGraph(vertex_count(order), encoding_arcs(order))


def clue_redundant_arcs_by_labels(order: int, i: int, j: int, k: int) -> list[tuple[int, int]]:
    """The library's earlier clue_redundant_arcs: the same twelve families
    in the same order, with label calls for every arc."""
    n = order
    a = block_of(i, j, n)
    other_cells = [c for c in cells_of_block(a, n) if c != (i, j)]
    other_values = [m for m in range(1, n + 1) if m != k]
    out: list[tuple[int, int]] = []

    # value k committed at a different cell of the block
    for m, p in other_cells:
        out.append((label_block(a, k, n), label_cand(m, p, _wrap(k + 1, n), 1, n)))
    # a different value committed at this cell
    for m in other_values:
        out.append((label_block(a, m, n), label_cand(i, j, _wrap(m + 1, n), 1, n)))
    # crossover hops that such wrong commits would use
    for m, p in other_cells:
        out.append(
            (label_cand(m, p, _wrap(k - 1, n), 3, n), label_dup(m, p, _wrap(k + 1, n), 1, n))
        )
    for m in other_values:
        out.append(
            (label_cand(i, j, _wrap(m - 1, n), 3, n), label_dup(i, j, _wrap(m + 1, n), 1, n))
        )
    # return hops after committing k at a different cell of the block
    if k < n:
        dst = label_block(a, k + 1, n)
    elif a < n:
        dst = label_block(a + 1, 1, n)
    else:
        dst = label_row(1, 1, n)
    for m, p in other_cells:
        out.append((label_dup(m, p, _wrap(k - 1, n), 3, n), dst))
    # return hops after committing another value at this cell
    for m in other_values:
        if m != n:
            out.append((label_dup(i, j, _wrap(m - 1, n), 3, n), label_block(a, m + 1, n)))
    if k < n:
        last = label_block(a + 1, 1, n) if a < n else label_row(1, 1, n)
        out.append((label_dup(i, j, n - 1, 3, n), last))
    # row sweep cannot find value k in another column,
    # nor another value at this cell
    for m in range(1, n + 1):
        if m != j:
            out.append((label_row(i, k, n), label_cand(i, m, k, 3, n)))
            out.append((label_cand(i, m, k, 1, n), label_cell_end(i, m, n)))
    for m in other_values:
        out.append((label_row(i, m, n), label_cand(i, j, m, 3, n)))
    # the same two observations for the column sweep
    for m in range(1, n + 1):
        if m != i:
            out.append((label_col(j, k, n), label_dup(m, j, k, 3, n)))
            out.append((label_dup(m, j, k, 1, n), label_dup_end(m, j, n)))
    for m in other_values:
        out.append((label_col(j, m, n), label_dup(i, j, m, 3, n)))
    return out


def export_graph_by_lines(g: DirectedGraph | UndirectedGraph) -> str:
    """The library's earlier export_graph, one f-string per line."""
    if isinstance(g, DirectedGraph):
        lines = [f"DHCP {g.n} {g.m}"]
        lines.extend(f"{u} {v}" for u, v in g.arcs())
    else:
        lines = [f"UHCP {g.n} {g.m}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def export_tsplib_hcp_by_lines(g: UndirectedGraph, name: str) -> str:
    """The library's earlier export_tsplib_hcp, one f-string per line."""
    lines = [
        f"NAME: {name}",
        "TYPE: HCP",
        f"DIMENSION: {g.n}",
        "EDGE_DATA_FORMAT: EDGE_LIST",
        "EDGE_DATA_SECTION",
    ]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.append("-1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"
