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

from dataclasses import dataclass
from math import isqrt


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


_ARITIES = {
    "start": 0,
    "finish": 0,
    "block": 2,
    "row": 2,
    "row_end": 1,
    "col": 2,
    "col_end": 1,
    "cand": 4,
    "cell_end": 2,
    "dup": 4,
    "dup_end": 2,
}


def label_of(role: Role, order: int) -> int:
    """Numeric label of a role; raises on unknown kinds or out-of-range
    indices."""
    n = order
    if isqrt(n) ** 2 != n or n < 4:
        raise ValueError(f"order must be a perfect square >= 4, got {n}")
    kind, args = role.kind, role.args
    if _ARITIES.get(kind) != len(args):
        raise ValueError(f"malformed role {role!r}")
    slots = args[3:] if kind in ("cand", "dup") else ()
    plain = args[:3] if kind in ("cand", "dup") else args
    if any(not 1 <= v <= n for v in plain) or any(not 1 <= s <= 3 for s in slots):
        raise ValueError(f"role {role!r} out of range for order {n}")
    if kind == "start":
        return START
    if kind == "finish":
        return FINISH
    if kind == "block":
        return label_block(*args, n)
    if kind == "row":
        return label_row(*args, n)
    if kind == "row_end":
        return label_row_end(*args, n)
    if kind == "col":
        return label_col(*args, n)
    if kind == "col_end":
        return label_col_end(*args, n)
    if kind == "cand":
        return label_cand(*args, n)
    if kind == "cell_end":
        return label_cell_end(*args, n)
    if kind == "dup":
        return label_dup(*args, n)
    return label_dup_end(*args, n)


def role_of(label: int, order: int) -> Role:
    """Inverse of label_of."""
    n = order
    if isqrt(n) ** 2 != n or n < 4:
        raise ValueError(f"order must be a perfect square >= 4, got {n}")
    total = vertex_count(n)
    if not 1 <= label <= total:
        raise ValueError(f"label {label} out of range 1..{total}")
    if label == START:
        return start()
    if label == FINISH:
        return finish()
    n2, n3 = n * n, n**3
    x = label - 2
    if x <= n2:
        a, k = divmod(x - 1, n)
        return block(a + 1, k + 1)
    x -= n2
    if x <= n2:
        i, k = divmod(x - 1, n)
        return row(i + 1, k + 1)
    x -= n2
    if x <= n:
        return row_end(x)
    x -= n
    if x <= n2:
        j, k = divmod(x - 1, n)
        return col(j + 1, k + 1)
    x -= n2
    if x <= n:
        return col_end(x)
    x -= n
    if x <= 3 * n3:
        triple, slot = divmod(x - 1, 3)
        ij, k = divmod(triple, n)
        i, j = divmod(ij, n)
        return cand(i + 1, j + 1, k + 1, slot + 1)
    x -= 3 * n3
    if x <= n2:
        i, j = divmod(x - 1, n)
        return cell_end(i + 1, j + 1)
    x -= n2
    if x <= 3 * n3:
        triple, slot = divmod(x - 1, 3)
        ij, k = divmod(triple, n)
        i, j = divmod(ij, n)
        return dup(i + 1, j + 1, k + 1, slot + 1)
    x -= 3 * n3
    i, j = divmod(x - 1, n)
    return dup_end(i + 1, j + 1)
