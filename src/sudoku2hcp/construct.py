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
from math import isqrt
from operator import contains, itemgetter, lt

from .graphs import DirectedGraph, _gc_paused
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


@_gc_paused
def build_hcp(order: int) -> DirectedGraph:
    """Directed encoding graph for a blank puzzle of the given order.

    The graph has 6N^3 + 5N^2 + 2N + 2 vertices and
    19N^3 + 2N^2 + 2N + 2 arcs.  Every vertex has an arc out, so the graph
    is stored as one ascending successor tuple per vertex, made by label
    arithmetic family by family in label order (_successor_tuples).  They
    are checked here instead of regrouped and re-sorted by the checking
    constructor: one tuple per vertex, ids in range, no self-loop, each
    strictly ascending (so no arc twice), and the arc count.
    """
    _check_order(order)
    n = order
    total = vertex_count(n)
    succ = _successor_tuples(n)
    if len(succ) != total:
        raise RuntimeError(f"internal error: {len(succ)} successor tuples for {total} vertices")
    # each tuple's ids but its last against the id after each in the tuple
    before = chain.from_iterable(map(itemgetter(slice(None, -1)), succ))
    after = chain.from_iterable(map(itemgetter(slice(1, None)), succ))
    if not all(map(lt, before, after)):
        raise RuntimeError("internal error: a successor tuple is not strictly ascending")
    if min(map(itemgetter(0), succ)) < 1 or max(map(itemgetter(-1), succ)) > total:
        raise RuntimeError(f"internal error: a successor out of range 1..{total}")
    if any(map(contains, succ, range(1, total + 1))):
        raise RuntimeError("internal error: a self-loop")
    m = sum(map(len, succ))
    if m != arc_count(n):
        raise RuntimeError(f"internal error: built {m} arcs, expected {arc_count(n)}")
    return DirectedGraph._derived(total, m, dict(enumerate(succ, 1)))


def _successor_tuples(n: int) -> list[tuple[int, ...]]:
    """Each vertex's successors as an ascending tuple, in label order."""
    r = range(1, n + 1)
    succ: list[tuple[int, ...]] = [(label_block(1, 1, n),), (START,)]
    # block (a, k) commits value k at a cell of block a, entering that
    # cell's triple of value k+1 at slot 1
    for a in r:
        cells = [label_cand(i, j, 1, 1, n) for i, j in cells_of_block(a, n)]
        succ += [tuple([x + 3 * (k % n) for x in cells]) for k in r]
    # row (i, k) collects value k's triple, at slot 3, in any column of row i
    for i in r:
        succ += [tuple(range(label_cand(i, 1, k, 3, n), label_cand(i, n, k, 3, n) + 1, 3 * n))
                 for k in r]
    succ += [(label_row(i + 1, 1, n),) for i in range(1, n)] + [(label_col(1, 1, n),)]
    # col (j, k) does the same over the duplicate copies of column j
    for j in r:
        succ += [tuple(range(label_dup(1, j, k, 3, n), label_dup(n, j, k, 3, n) + 1, 3 * n * n))
                 for k in r]
    succ += [(label_col(j + 1, 1, n),) for j in range(1, n)] + [(FINISH,)]
    # a commit of value k exits the first copy at slot 3 of value k-1 and
    # lands on the duplicate copy's value k+1
    cells = [(i, j) for i in r for j in r]
    hops = []
    for i, j in cells:
        dups = range(label_dup(i, j, 1, 1, n), label_dup(i, j, n, 1, n) + 1, 3)
        hops.append([*dups[2:], *dups[:2]])
    ends = range(label_cell_end(1, 1, n), label_cell_end(n, n, n) + 1)
    succ += _triples(label_cand(1, 1, 1, 1, n), n, ends, hops)
    # cell_end (i, j) goes back to row i at any value, or on to its end
    for i in r:
        succ += [(*range(label_row(i, 1, n), label_row(i, n, n) + 1), label_row_end(i, n))] * n
    # and the duplicate copy returns to the block machinery: value n-1
    # finishes its block and moves to the next, or the last hands over to
    # the rows
    returns = {}
    for a in r:
        returns[a] = [label_block(a, _wrap(k + 2, n), n) for k in r]
        returns[a][n - 2] = label_block(a + 1, 1, n) if a < n else label_row(1, 1, n)
    hops = [returns[block_of(i, j, n)] for i, j in cells]
    ends = range(label_dup_end(1, 1, n), label_dup_end(n, n, n) + 1)
    succ += _triples(label_dup(1, 1, 1, 1, n), n, ends, hops)
    # dup_end (i, j) goes back to column j at any value, or on to its end
    succ += [(*range(label_col(j, 1, n), label_col(j, n, n) + 1), label_col_end(j, n))
             for j in r] * n
    return succ


def _triples(first: int, n: int, ends: range, hops: list[list[int]]) -> list[tuple[int, ...]]:
    """Successor tuples of one copy's candidate triples (cand or dup), cell
    by cell from label `first`, the first cell's slot 1 of value 1.  Slot 1
    goes to slot 2 and the cell's end vertex, slot 2 to slots 1 and 3
    (walkable both ways), and slot 3 to slot 2, the next value's slot 1
    (value n wraps to 1) and the cell's hop for that value, hops[cell][k-1],
    which lies outside the copy: above it for cand, below it for dup."""
    out: list[tuple[int, ...]] = []
    for c, (end, hop) in enumerate(zip(ends, hops)):
        xs = range(first + 3 * n * c, first + 3 * n * (c + 1), 3)
        for x, nxt, h in zip(xs, [*xs[1:], xs[0]], hop):
            walk = (x + 1, nxt) if nxt > x else (nxt, x + 1)
            out += ((x + 1, end), (x, x + 2), (*walk, h) if h > x else (h, *walk))
    return out


def clue_redundant_arcs(order: int, i: int, j: int, k: int) -> list[tuple[int, int]]:
    """The 12(N-1) arcs made unusable by fixing value k at cell (i, j).

    Twelve families of N-1 arcs each: the wrong block commits (value k
    elsewhere in the block, another value here) together with their
    crossover and return hops, and the wrong row/column collections.
    A single clue's families are pairwise disjoint, so the list has
    exactly 12N - 12 distinct entries.  Each arc comes from a few base
    labels of the clue and the layout's strides: a cell's candidates of
    value m, slot s lie 3(m-1) + s - 1 above its first, cells 3N apart
    along a row and 3N^2 down a column, a duplicate a fixed distance
    above its candidate.  No label is computed per arc.
    """
    n = order
    box = isqrt(n)
    a = block_of(i, j, n)
    here = label_cand(i, j, 1, 1, n)
    corner = label_cand(i - (i - 1) % box, j - (j - 1) % box, 1, 1, n)
    others = [corner + 3 * n * (n * di + dj) for di in range(box) for dj in range(box)]
    others.remove(here)  # the block's other cells, by their first candidate
    values = [m for m in range(1, n + 1) if m != k]
    to_dup = label_dup(1, 1, 1, 1, n) - label_cand(1, 1, 1, 1, n)
    block = label_block(a, 1, n) - 1  # block (a, m) is block + m

    def at(m: int, s: int) -> int:
        """Slot s of value m, wrapped into 1..n, from a cell's first candidate."""
        return 3 * ((m - 1) % n) + s - 1

    up, down = at(k + 1, 1), at(k - 1, 3)
    # value k committed at a different cell of the block
    out = [(block + k, c + up) for c in others]
    # a different value committed at this cell
    out += [(block + m, here + at(m + 1, 1)) for m in values]
    # crossover hops that such wrong commits would use
    out += [(c + down, c + to_dup + up) for c in others]
    out += [(here + at(m - 1, 3), here + to_dup + at(m + 1, 1)) for m in values]
    # return hops after committing k at a different cell of the block
    if k < n:
        dst = block + k + 1
    elif a < n:
        dst = label_block(a + 1, 1, n)
    else:
        dst = label_row(1, 1, n)
    out += [(c + to_dup + down, dst) for c in others]
    # return hops after committing another value at this cell
    out += [(here + to_dup + at(m - 1, 3), block + m + 1) for m in values if m != n]
    if k < n:
        last = label_block(a + 1, 1, n) if a < n else label_row(1, 1, n)
        out.append((here + to_dup + at(n - 1, 3), last))
    # row sweep cannot find value k in another column,
    # nor another value at this cell
    row_k, first, end = label_row(i, k, n), label_cand(i, 1, k, 1, n), label_cell_end(i, 1, n)
    for p in range(n):
        if p != j - 1:
            x = first + 3 * n * p
            out += ((row_k, x + 2), (x, end + p))
    row = label_row(i, 1, n) - 1
    out += [(row + m, here + at(m, 3)) for m in values]
    # the same two observations for the column sweep
    col_k, first, end = label_col(j, k, n), label_dup(1, j, k, 1, n), label_dup_end(1, j, n)
    for q in range(n):
        if q != i - 1:
            y = first + 3 * n * n * q
            out += ((col_k, y + 2), (y, end + n * q))
    col = label_col(j, 1, n) - 1
    out += [(col + m, here + to_dup + at(m, 3)) for m in values]
    return out


def _redundant_arcs(instance: SudokuInstance) -> Iterator[tuple[int, int]]:
    """Every clue's redundant arc family, one clue after another.  Families
    of different clues may overlap, so an arc may come more than once; the
    union holds at most 12N - 12 arcs per clue, with equality for a single
    clue.  The arcs are made as they are consumed: on 16x16 puzzles,
    holding them all first made prune_fixed about 12% slower."""
    n = instance.order
    return chain.from_iterable(
        clue_redundant_arcs(n, i, j, k) for (i, j), k in instance.clues.items()
    )


@_gc_paused
def prune_fixed(
    graph: DirectedGraph, instance: SudokuInstance
) -> tuple[DirectedGraph, int]:
    """Remove every arc made redundant by the instance's clues.

    Returns the pruned graph and the number of arcs removed, the size of
    the union of _redundant_arcs(instance).  Raises ValueError naming the
    smallest removed arc the graph lacks.
    """
    n = instance.order
    if graph.n != vertex_count(n):
        raise ValueError(
            f"graph has {graph.n} vertices, expected {vertex_count(n)} for order {n}"
        )
    pruned = graph.without_arcs(_redundant_arcs(instance))
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
