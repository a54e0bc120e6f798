"""Seeded puzzle corpora for the benchmark.

Every puzzle is a thinning of a complete grid drawn by the benchmark's own
randomised solver, so building a corpus does not run the program under
test, and every puzzle is known to be solvable.  The same seed gives the
same puzzle texts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import isqrt


@dataclass(frozen=True)
class Workload:
    """One seeded family of puzzles and how the benchmark runs them.

    A run attempts `puzzles` distinct puzzles, whose clue counts are
    spread evenly over the inclusive range `clues`, so runs of every seed
    see the same mix.  A staged workload runs the CLI's stage chain with its text
    formats instead of solve_instance.  A workload with warmup_order warms
    up on puzzles of that smaller order.
    """

    name: str
    why: str
    order: int
    clues: tuple[int, int]
    puzzles: int
    staged: bool = False
    warmup_order: int = 0


# Why each workload exists is the `why` text; BENCHMARK.json repeats it.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "sparse4",
            "distinct 4x4 thinnings at 1-3 clues: solve is the largest stage "
            "(about 40%), reduce the next, 20-110 nodes a puzzle",
            order=4,
            clues=(1, 3),
            puzzles=90,
        ),
        Workload(
            "stage16",
            "16x16 thinnings at 180-220 clues run stage by stage through text "
            "formats as the CLI chain does: 78k-vertex graphs",
            order=16,
            clues=(180, 220),
            puzzles=2,
            staged=True,
            warmup_order=9,
        ),
    )
}


def _units(n: int) -> list[tuple[int, int, int]]:
    box = isqrt(n)
    return [(i // n, i % n, (i // n // box) * box + (i % n) // box) for i in range(n * n)]


def random_grid(n: int, rng: random.Random) -> list[int]:
    """A complete order-n Sudoku grid, row-major, drawn by a randomised
    search that fills the cell with the fewest candidates first.  A search
    that takes more than 10 n^2 steps starts over, because on a few draws
    the order-16 search backtracks for many seconds."""
    while True:
        grid = _search_grid(n, rng, 10 * n * n)
        if grid is not None:
            return grid


def _search_grid(n: int, rng: random.Random, steps: int) -> list[int] | None:
    units = _units(n)
    full = (1 << n) - 1
    rows, cols, blks = [0] * n, [0] * n, [0] * n
    grid = [0] * (n * n)
    left = steps

    def fill() -> bool | None:
        nonlocal left
        left -= 1
        if left < 0:
            return None
        best, best_mask, best_count = -1, 0, n + 1
        for idx, v in enumerate(grid):
            if v:
                continue
            r, c, b = units[idx]
            mask = full & ~(rows[r] | cols[c] | blks[b])
            if mask.bit_count() < best_count:
                best, best_mask, best_count = idx, mask, mask.bit_count()
                if best_count <= 1:
                    break
        if best < 0:
            return True
        values = [k + 1 for k in range(n) if best_mask >> k & 1]
        rng.shuffle(values)
        r, c, b = units[best]
        for v in values:
            bit = 1 << (v - 1)
            grid[best] = v
            rows[r] |= bit
            cols[c] |= bit
            blks[b] |= bit
            done = fill()
            if done is not False:
                return done
            rows[r] &= ~bit
            cols[c] &= ~bit
            blks[b] &= ~bit
            grid[best] = 0
        return False

    return grid if fill() else None


def thin(solution: list[int], clues: int, rng: random.Random) -> list[int]:
    """Keep `clues` cells of a solution grid, chosen uniformly."""
    keep = set(rng.sample(range(len(solution)), clues))
    return [v if idx in keep else 0 for idx, v in enumerate(solution)]


def puzzle_text(cells: list[int], n: int) -> str:
    """Grid format accepted by parse_sudoku: order, then n rows."""
    rows = (" ".join(str(v) for v in cells[r * n : (r + 1) * n]) for r in range(n))
    return f"{n}\n" + "\n".join(rows) + "\n"


def make_puzzle(
    wl: Workload, seed: int, index: int, clues: int, seen: set[str], order: int = 0
) -> str:
    """Puzzle text number `index` of a workload that is not in `seen`, and
    add it there.  A draw that repeats a text is drawn again; the result
    depends on nothing else than the arguments."""
    n = order or wl.order
    for attempt in range(1000):
        rng = random.Random(f"{wl.name}:{seed}:{n}:{index}:{attempt}")
        text = puzzle_text(thin(random_grid(n, rng), clues, rng), n)
        if text not in seen:
            seen.add(text)
            return text
    raise ValueError(f"no new order-{n} puzzle with {clues} clues")


def puzzles(wl: Workload, seed: int) -> list[str]:
    """The workload's puzzles for one seed, all distinct.  Puzzle j takes
    its clue count from the j-th of `wl.puzzles` equal slices of the clue
    range."""
    lo, hi = wl.clues
    span = hi - lo + 1
    rng = random.Random(f"{wl.name}:{seed}:clues")
    counts = [lo + int((j + rng.random()) * span / wl.puzzles) for j in range(wl.puzzles)]
    rng.shuffle(counts)
    seen: set[str] = set()
    return [make_puzzle(wl, seed, j, clues, seen) for j, clues in enumerate(counts)]


def warmup_puzzles(wl: Workload, seed: int, count: int, timed: list[str]) -> list[str]:
    """Puzzles for the untimed warm-up pass, none of them in `timed`.

    They use the richest clue count, which keeps the solver's share (and
    so set-up time) steady across seeds.  A workload with warmup_order
    warms up on puzzles of that smaller order through the same stages.
    """
    order = wl.warmup_order or wl.order
    clues = wl.clues[1] if order == wl.order else (order * order) // 2
    seen = set(timed)
    return [make_puzzle(wl, seed, -1 - i, clues, seen, order) for i in range(count)]


def corpus_hash(puzzles: list[str]) -> str:
    """sha256 of the puzzle texts, in order."""
    h = hashlib.sha256()
    for text in puzzles:
        h.update(text.encode())
    return h.hexdigest()
