"""Vertex naming scheme for the Hamiltonian-cycle encoding of order-N Sudoku.

Every vertex of the encoding graph has a role and a numeric label.  Labels
run from 1 to 6N^3 + 5N^2 + 2N + 2 and follow a fixed family order:

    1          start
    2          finish
    block      N^2 vertices, one per (block a, value k), a outer / k inner
    row        N^2 vertices, one per (row i, value k)
    row_end    N vertices, one per row
    col        N^2 vertices, one per (column j, value k)
    col_end    N vertices, one per column
    cand       3N^3 vertices: slots 1..3 of candidate "value k at (i, j)"
    cell_end   N^2 vertices, one per cell, closing the row sweep
    dup        3N^3 vertices: the duplicate candidate copies for columns
    dup_end    N^2 vertices, one per cell, closing the column sweep

Within a family, indices are ordered lexicographically with the last index
fastest.
"""

from __future__ import annotations

START = 1
FINISH = 2


def vertex_count(order: int) -> int:
    """Number of vertices in the encoding graph for a given order."""
    n = order
    return 6 * n**3 + 5 * n**2 + 2 * n + 2


def arc_count(order: int) -> int:
    """Number of arcs in the blank (unpruned) encoding graph."""
    n = order
    return 19 * n**3 + 2 * n**2 + 2 * n + 2


def order_for_vertex_count(n_vertices: int) -> int:
    """Invert vertex_count; raises if no perfect-square order matches.

    vertex_count grows strictly with the box size, so the box is found by
    doubling and then bisection: a vertex count read from a file header
    costs steps in proportion to its digits, not to its sixth root.
    """
    lo, hi = 2, 2
    while vertex_count(hi * hi) < n_vertices:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if vertex_count(mid * mid) < n_vertices:
            lo = mid + 1
        else:
            hi = mid
    if vertex_count(lo * lo) != n_vertices:
        raise ValueError(f"{n_vertices} is not a vertex count of any order")
    return lo * lo


# Label arithmetic.  These run in the hot construction loops, so they take
# the order as a plain argument and do no validation.

def label_block(a: int, k: int, n: int) -> int:
    return 2 + (a - 1) * n + k


def label_row(i: int, k: int, n: int) -> int:
    return 2 + n * n + (i - 1) * n + k


def label_row_end(i: int, n: int) -> int:
    return 2 + 2 * n * n + i


def label_col(j: int, k: int, n: int) -> int:
    return 2 + 2 * n * n + n + (j - 1) * n + k


def label_col_end(j: int, n: int) -> int:
    return 2 + 3 * n * n + n + j


def label_cand(i: int, j: int, k: int, slot: int, n: int) -> int:
    return 2 + 3 * n * n + 2 * n + 3 * (((i - 1) * n + (j - 1)) * n + (k - 1)) + slot


def label_cell_end(i: int, j: int, n: int) -> int:
    return 2 + 3 * n**3 + 3 * n * n + 2 * n + (i - 1) * n + j


def label_dup(i: int, j: int, k: int, slot: int, n: int) -> int:
    return (
        2 + 3 * n**3 + 4 * n * n + 2 * n
        + 3 * (((i - 1) * n + (j - 1)) * n + (k - 1)) + slot
    )


def label_dup_end(i: int, j: int, n: int) -> int:
    return 2 + 6 * n**3 + 4 * n * n + 2 * n + (i - 1) * n + j
