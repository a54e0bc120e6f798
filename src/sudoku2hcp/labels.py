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
fastest.  The bijection between roles and labels is exposed both ways so
that graph files remain stable across runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import prod

from .sudoku import _check_order


@dataclass(frozen=True, order=True)
class Role:
    kind: str
    args: tuple[int, ...] = ()

    def __repr__(self):
        if not self.args:
            return self.kind
        return f"{self.kind}({', '.join(map(str, self.args))})"


def start() -> Role:
    return Role("start")


def finish() -> Role:
    return Role("finish")


def block(a: int, k: int) -> Role:
    return Role("block", (a, k))


def row(i: int, k: int) -> Role:
    return Role("row", (i, k))


def row_end(i: int) -> Role:
    return Role("row_end", (i,))


def col(j: int, k: int) -> Role:
    return Role("col", (j, k))


def col_end(j: int) -> Role:
    return Role("col_end", (j,))


def cand(i: int, j: int, k: int, slot: int) -> Role:
    return Role("cand", (i, j, k, slot))


def cell_end(i: int, j: int) -> Role:
    return Role("cell_end", (i, j))


def dup(i: int, j: int, k: int, slot: int) -> Role:
    return Role("dup", (i, j, k, slot))


def dup_end(i: int, j: int) -> Role:
    return Role("dup_end", (i, j))


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
# the order as a plain argument and do no validation; label_of validates.

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


# The vertex layout: each family's kind and the upper bound of each of its
# indices, in label order.  Indices run from 1 and the last one is fastest;
# "n" stands for the order, and a candidate's slot runs 1..3.
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


def _families(order: int) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """Each family's kind, index bounds and first label, in label order;
    raises unless the order is a perfect square >= 4."""
    _check_order(order)
    first = 1
    for kind, dims in _LAYOUT:
        bounds = tuple(order if d == "n" else d for d in dims)
        yield kind, bounds, first
        first += prod(bounds)


def label_of(role: Role, order: int) -> int:
    """Numeric label of a role; raises on unknown kinds or out-of-range
    indices."""
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
