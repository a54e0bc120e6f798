"""Encode an order-N Sudoku as a directed Hamiltonian cycle instance.

The encoding keeps two synchronised copies of the puzzle.  A block sweep
walks every (block, value) pair and commits one cell per pair by leaving
that cell's candidate triple unvisited in both copies.  A row sweep then
consumes the remaining candidate triples row by row, which is possible
exactly when every row contains every value, and a column sweep does the
same over the duplicate copies for the column constraint.  A cycle through
all vertices therefore exists precisely when the committed cells form a
valid solution, and the committed value at each cell can be read back off
the cycle at that cell's cell_end vertex.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

from .graphs import DirectedGraph
from .labels import (
    FINISH,
    START,
    arc_count,
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
from .sudoku import (
    Grid,
    SudokuInstance,
    _check_order,
    blank_instance,
    block_of,
    cells_of_block,
    validate_grid,
)


def _wrap(k: int, n: int) -> int:
    """Map any integer value index back into 1..n."""
    return (k - 1) % n + 1


def build_hcp(order: int) -> DirectedGraph:
    """Directed encoding graph for a blank puzzle of the given order.

    The graph has 6N^3 + 5N^2 + 2N + 2 vertices and
    19N^3 + 2N^2 + 2N + 2 arcs.
    """
    _check_order(order)
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

    g = DirectedGraph(vertex_count(n), arcs)
    if g.m != arc_count(n):
        raise RuntimeError(f"internal error: built {g.m} arcs, expected {arc_count(n)}")
    return g


def clue_redundant_arcs(order: int, i: int, j: int, k: int) -> list[tuple[int, int]]:
    """The 12(N-1) arcs made unusable by fixing value k at cell (i, j).

    Twelve families of N-1 arcs each: the wrong block commits (value k
    elsewhere in the block, another value here) together with their
    crossover and return hops, and the wrong row/column collections.
    A single clue's families are pairwise disjoint, so the list has
    exactly 12N - 12 distinct entries.
    """
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


def redundant_arcs(instance: SudokuInstance) -> Iterator[tuple[int, int]]:
    """Every clue's redundant arc family, one clue after another.  Families
    of different clues may overlap, so an arc may come more than once; the
    union holds at most 12N - 12 arcs per clue, with equality for a single
    clue.  The arcs are made as they are consumed: on a 16x16 puzzle,
    holding them all first made prune_fixed about 10% slower."""
    n = instance.order
    return chain.from_iterable(
        clue_redundant_arcs(n, i, j, k) for (i, j), k in instance.clues.items()
    )


def prune_fixed(
    graph: DirectedGraph, instance: SudokuInstance
) -> tuple[DirectedGraph, int]:
    """Remove every arc made redundant by the instance's clues.

    Returns the pruned graph and the number of arcs removed, the size of
    the union of redundant_arcs(instance).  Raises ValueError naming the
    smallest removed arc the graph lacks.
    """
    n = instance.order
    if graph.n != vertex_count(n):
        raise ValueError(
            f"graph has {graph.n} vertices, expected {vertex_count(n)} for order {n}"
        )
    pruned = graph.without_arcs(redundant_arcs(instance))
    return pruned, graph.m - pruned.m


def _wrapped_others(k: int, n: int) -> list[int]:
    """Values k+1, k+2, ..., k+n-1, wrapped into 1..n (everything but k)."""
    return [_wrap(k + d, n) for d in range(1, n)]


def witness_cycle(instance: SudokuInstance, solution: Grid) -> list[int]:
    """The canonical Hamiltonian cycle encoding a known solution.

    The returned label sequence is a cycle of the blank encoding graph and
    survives prune_fixed for any clue set contained in the solution.
    """
    violations = validate_grid(instance, solution)
    if violations:
        raise ValueError(f"solution is invalid: {violations[:3]}")
    n = instance.order
    seq: list[int] = [START]

    for a in range(1, n + 1):
        cell_of = {solution.value(i, j): (i, j) for i, j in cells_of_block(a, n)}
        for k in range(1, n + 1):
            i, j = cell_of[k]
            seq.append(label_block(a, k, n))
            others = _wrapped_others(k, n)
            for m in others:
                base = label_cand(i, j, m, 1, n)
                seq.extend((base, base + 1, base + 2))
            for m in others:
                base = label_dup(i, j, m, 1, n)
                seq.extend((base, base + 1, base + 2))

    for i in range(1, n + 1):
        col_of = {solution.value(i, j): j for j in range(1, n + 1)}
        for k in range(1, n + 1):
            j = col_of[k]
            base = label_cand(i, j, k, 1, n)
            seq.extend((label_row(i, k, n), base + 2, base + 1, base))
            seq.append(label_cell_end(i, j, n))
        seq.append(label_row_end(i, n))

    for j in range(1, n + 1):
        row_of = {solution.value(i, j): i for i in range(1, n + 1)}
        for k in range(1, n + 1):
            i = row_of[k]
            base = label_dup(i, j, k, 1, n)
            seq.extend((label_col(j, k, n), base + 2, base + 1, base))
            seq.append(label_dup_end(i, j, n))
        seq.append(label_col_end(j, n))

    seq.append(FINISH)
    if len(seq) != vertex_count(n):
        raise RuntimeError(
            f"internal error: witness has {len(seq)} vertices, expected {vertex_count(n)}"
        )
    return seq


def recover_solution(cycle: list[int], order: int) -> Grid:
    """Read the encoded solution off a Hamiltonian cycle.

    For each cell, exactly one cycle neighbour of its cell_end vertex is a
    slot-1 candidate vertex of that cell; the candidate's value index is
    the cell's value.  Those candidates are every third label from
    label_cand(i, j, 1, 1), one per value.  Works on the cycle as a cyclic
    sequence, so either traversal direction is accepted.
    """
    n = order
    total = vertex_count(n)
    if len(cycle) != total:
        raise ValueError(f"cycle has {len(cycle)} vertices, expected {total}")
    pos = {lab: idx for idx, lab in enumerate(cycle)}
    if len(pos) != total:
        raise ValueError("cycle contains repeated vertices")
    rows = []
    for i in range(1, n + 1):
        row_vals = []
        for j in range(1, n + 1):
            idx = pos.get(label_cell_end(i, j, n))
            if idx is None:
                raise ValueError(f"cycle is missing the cell_end vertex of ({i}, {j})")
            first = label_cand(i, j, 1, 1, n)
            slot1 = range(first, first + 3 * n, 3)
            values = []
            for nb in (cycle[idx - 1], cycle[(idx + 1) % total]):
                if not 1 <= nb <= total:
                    raise ValueError(f"label {nb} out of range 1..{total}")
                if nb in slot1:
                    values.append(slot1.index(nb) + 1)
            if len(values) != 1:
                raise ValueError(
                    f"cell ({i}, {j}): expected exactly one adjacent slot-1 "
                    f"candidate, found {len(values)}"
                )
            row_vals.append(values[0])
        rows.append(tuple(row_vals))
    grid = Grid(n, tuple(rows))
    violations = validate_grid(blank_instance(n), grid)
    if violations:
        raise ValueError(f"cycle decodes to an invalid grid: {violations[:3]}")
    return grid
