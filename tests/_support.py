"""Shared test helpers: independent brute-force oracles, fixed graphs and
puzzle generators.  Everything here is deliberately written as plain,
propagation-free enumeration so it stays independent of the library code
it checks."""

from __future__ import annotations

import random
import tracemalloc
from functools import lru_cache

from sudoku2hcp import (
    SudokuInstance,
    UndirectedGraph,
    blank_instance,
    enumerate_solutions,
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
