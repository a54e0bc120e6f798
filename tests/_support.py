"""Shared test helpers: independent brute-force oracles, fixed graphs and
puzzle generators.  Everything here is deliberately written as plain,
propagation-free enumeration so it stays independent of the library code
it checks, except the two references at the end: the library's earlier,
simpler reduce_graph and enumerate_solutions, which its faster versions
must match exactly."""

from __future__ import annotations

import random
import tracemalloc
from functools import lru_cache

from sudoku2hcp import (
    Grid,
    SudokuInstance,
    UndirectedGraph,
    blank_instance,
    block_of,
    enumerate_solutions,
)
from sudoku2hcp.transform import (
    Contraction,
    CycleLifter,
    EdgeDeletion,
    Infeasible,
    Record,
)

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


def reduce_graph_by_passes(
    g: UndirectedGraph,
) -> tuple[UndirectedGraph, CycleLifter] | Infeasible:
    """Shrink a graph with two cycle-preserving rules, run to a fixpoint.

    The pass-by-pass reduce_graph that rescans every vertex on every pass,
    kept as the oracle the library's reduce_graph must match record for
    record.

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
