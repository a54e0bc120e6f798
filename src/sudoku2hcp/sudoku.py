"""Sudoku data model: instances, complete grids, parsing, validation and an
exhaustive backtracking enumerator used as the correctness oracle for the
graph pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import NamedTuple

Cell = tuple[int, int]


class Violation(NamedTuple):
    """One broken constraint: kind is 'row', 'col', 'block' or 'clue'."""

    kind: str
    where: tuple[int, ...]


def block_of(i: int, j: int, order: int) -> int:
    """Block index (1-based, row-major over boxes) of cell (i, j)."""
    box = isqrt(order)
    if box * box != order:
        raise ValueError(f"order {order} is not a perfect square")
    if not (1 <= i <= order and 1 <= j <= order):
        raise ValueError(f"cell ({i}, {j}) out of range for order {order}")
    return ((i - 1) // box) * box + (j - 1) // box + 1


def cells_of_block(a: int, order: int) -> list[Cell]:
    """Cells of block a in row-major order."""
    box = isqrt(order)
    if not 1 <= a <= order:
        raise ValueError(f"block {a} out of range for order {order}")
    top = ((a - 1) // box) * box + 1
    left = ((a - 1) % box) * box + 1
    return [(i, j) for i in range(top, top + box) for j in range(left, left + box)]


def _check_order(order: int) -> int:
    box = isqrt(order)
    if order < 4 or box * box != order:
        raise ValueError(f"order must be a perfect square >= 4, got {order}")
    return box


@dataclass(frozen=True)
class SudokuInstance:
    """A puzzle: grid order plus a partial, mutually consistent clue set.

    Inconsistent clues (two equal values sharing a row, column or block) are
    rejected on construction so that every instance reaching the graph
    builders is satisfiable-in-principle.
    """

    order: int
    clues: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_order(self.order)
        object.__setattr__(self, "clues", dict(self.clues))
        n = self.order
        for (i, j), k in self.clues.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"clue cell ({i}, {j}) out of range")
            if not 1 <= k <= n:
                raise ValueError(f"clue value {k} at ({i}, {j}) out of range")
        seen: dict[tuple[str, int, int], Cell] = {}
        for (i, j), k in sorted(self.clues.items()):
            for unit in (("row", i, k), ("col", j, k), ("block", block_of(i, j, n), k)):
                if unit in seen:
                    raise ValueError(
                        f"inconsistent clues: value {k} appears twice in "
                        f"{unit[0]} {unit[1]} (cells {seen[unit]} and {(i, j)})"
                    )
                seen[unit] = (i, j)

    @property
    def clue_count(self) -> int:
        return len(self.clues)


@dataclass(frozen=True)
class Grid:
    """A complete assignment of values to every cell."""

    order: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.order
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError(f"grid must be {n}x{n}")
        if any(not 1 <= v <= n for r in self.rows for v in r):
            raise ValueError("grid values out of range")

    @classmethod
    def from_rows(cls, rows) -> "Grid":
        rows = tuple(tuple(r) for r in rows)
        return cls(len(rows), rows)

    def value(self, i: int, j: int) -> int:
        """Value at 1-based cell (i, j)."""
        return self.rows[i - 1][j - 1]


def blank_instance(order: int) -> SudokuInstance:
    return SudokuInstance(order, {})


_LINE_LENGTHS = {16: 4, 81: 9}


def _plain(text: str) -> bool:
    """Whether text holds nothing that int() reads in a token but a plain
    ASCII number lacks: a digit of another script, a '+' sign or a '_'
    between digits.  Every reader of numbers in the package keeps to it:
    the puzzle reader through _is_number, and the graph, cycle and journal
    readers of the formats module on their whole text."""
    return text.isascii() and "+" not in text and "_" not in text


_QUOTE_LIMIT = 60


def _quote(text: str) -> str:
    """A bad line or token as a reader's message quotes it: repr(text) up to
    _QUOTE_LIMIT characters, and past that a prefix of that many, then '…'
    and the text's length, so that a message stays short whatever the
    input."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}… ({len(text)} characters)"


def _is_number(text: str) -> bool:
    """Whether text is one or more ASCII digits: _plain and nothing but
    digits (str.isdigit alone also takes the other scripts' digits and
    superscripts)."""
    return _plain(text) and text.isdigit()


def _read_cells(text: str) -> tuple[int, list[int]]:
    """The order of a puzzle or grid text and its cell values, row-major,
    0 for a blank cell; parse_sudoku describes the two formats.  A value
    above the order is left to the SudokuInstance or Grid it goes into."""
    tokens = text.split()
    if len(tokens) > 1:
        head, cells = tokens[0], tokens[1:]
        if not _is_number(head):
            raise ValueError(f"expected order as first token, got {_quote(head)}")
        # an order of more digits than the cell count has more than that
        # many cells, and int() refuses thousands of digits in its own words
        digits = head.lstrip("0") or "0"
        if len(digits) > len(str(len(cells))):
            raise ValueError(
                f"order has {len(digits)} digits, too many for {len(cells)} cell tokens"
            )
        n = int(digits)
        _check_order(n)
        if len(cells) != n * n:
            raise ValueError(f"expected {n * n} cell tokens, got {len(cells)}")
        if not _is_number("".join(cells)):
            bad = next(tok for tok in cells if not _is_number(tok))
            raise ValueError(f"bad cell token {_quote(bad)}")
    else:
        line = text.strip()
        if len(line) not in _LINE_LENGTHS:
            raise ValueError(f"line format must be 16 or 81 characters, got {len(line)}")
        n = _LINE_LENGTHS[len(line)]
        cells = line.replace(".", "0")
        if not _is_number(cells):
            idx = next(idx for idx, ch in enumerate(cells) if not _is_number(ch))
            raise ValueError(f"bad character {line[idx]!r} at position {idx}")
    return n, list(map(int, cells))


def parse_sudoku(text: str) -> SudokuInstance:
    """Parse a puzzle from grid or line format, whichever the text is in.

    Grid format: first token is the order N, then N rows of N whitespace
    separated integers with 0 meaning blank.  Line format: N*N characters,
    '0' or '.' meaning blank, N inferred from the length (81 -> 9, 16 -> 4).
    A text of more than one whitespace-separated token is in grid format.
    Digits are the ASCII '0'-'9' only.
    """
    n, values = _read_cells(text)
    return SudokuInstance(
        n, {(idx // n + 1, idx % n + 1): v for idx, v in enumerate(values) if v}
    )


def format_grid(grid: Grid) -> str:
    """Grid file format: order on the first line, then one line per row."""
    lines = [str(grid.order)]
    lines.extend(" ".join(str(v) for v in row) for row in grid.rows)
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> Grid:
    """Parse a complete grid (no blanks) in either of parse_sudoku's
    formats.  Values are range-checked but the Sudoku constraints are not;
    use validate_grid for that."""
    n, values = _read_cells(text)
    if 0 in values:
        raise ValueError(f"grid is not complete: cell {values.index(0)} is blank")
    return Grid(n, tuple(tuple(values[r : r + n]) for r in range(0, n * n, n)))


def validate_grid(instance: SudokuInstance, grid: Grid) -> list[Violation]:
    """All row/column/block/clue violations of grid; empty means valid."""
    n = instance.order
    if grid.order != n:
        raise ValueError(f"grid order {grid.order} does not match instance order {n}")
    want = set(range(1, n + 1))
    out: list[Violation] = []
    for i in range(1, n + 1):
        if {grid.value(i, j) for j in range(1, n + 1)} != want:
            out.append(Violation("row", (i,)))
    for j in range(1, n + 1):
        if {grid.value(i, j) for i in range(1, n + 1)} != want:
            out.append(Violation("col", (j,)))
    for a in range(1, n + 1):
        if {grid.value(i, j) for i, j in cells_of_block(a, n)} != want:
            out.append(Violation("block", (a,)))
    for (i, j), k in sorted(instance.clues.items()):
        if grid.value(i, j) != k:
            out.append(Violation("clue", (i, j)))
    return out


def enumerate_solutions(instance: SudokuInstance, limit: int) -> list[Grid]:
    """Depth-first enumeration of complete solutions, at most `limit` of them.

    Cells are filled in row-major order and values tried in ascending order,
    so the result list is deterministic: grids appear in lexicographic order
    of their row-major value sequence.  The search keeps its own stack, so
    its depth, one level per blank cell, is not bounded by Python's
    recursion limit.
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

    def free(idx: int) -> int:
        """The values cell todo[idx] can take, as a bit set."""
        i, j, a = todo[idx]
        return full & ~(row_used[i] | col_used[j] | blk_used[a])

    out: list[Grid] = []
    # rest[d] is the bit set of values not yet tried in cell todo[d]; the
    # explicit stack keeps the search depth off Python's call stack
    rest: list[int] = []
    avail = free(0) if todo else 0
    while True:
        depth = len(rest)
        if depth == len(todo):
            out.append(Grid(n, tuple(tuple(cells[i][1:]) for i in range(1, n + 1))))
            if len(out) >= limit:
                return out
        elif avail:
            bit = avail & -avail
            i, j, a = todo[depth]
            cells[i][j] = bit.bit_length()
            row_used[i] |= bit
            col_used[j] |= bit
            blk_used[a] |= bit
            rest.append(avail - bit)
            avail = free(depth + 1) if depth + 1 < len(todo) else 0
            continue
        if not rest:
            return out
        i, j, a = todo[depth - 1]
        bit = 1 << (cells[i][j] - 1)
        row_used[i] &= ~bit
        col_used[j] &= ~bit
        blk_used[a] &= ~bit
        cells[i][j] = 0
        avail = rest.pop()
