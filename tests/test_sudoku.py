import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku2hcp import (
    Grid,
    SudokuInstance,
    blank_instance,
    block_of,
    cells_of_block,
    enumerate_solutions,
    format_grid,
    parse_grid,
    parse_sudoku,
    validate_grid,
)
from _support import all_order4_solutions, enumerate_solutions_recursive


def call_depth() -> int:
    """Frames on the call stack, this one included."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


GRID_4 = Grid.from_rows([(1, 2, 3, 4), (3, 4, 1, 2), (2, 1, 4, 3), (4, 3, 2, 1)])


class TestParse:
    def test_line_single_clue(self):
        inst = parse_sudoku("1" + "." * 15)
        assert inst.order == 4
        assert inst.clues == {(1, 1): 1}

    def test_line_blank_81(self):
        inst = parse_sudoku("." * 81)
        assert inst.order == 9
        assert inst.clues == {}

    def test_line_zero_is_blank(self):
        inst = parse_sudoku("0" * 80 + "7")
        assert inst.clues == {(9, 9): 7}

    def test_line_wrong_length(self):
        with pytest.raises(ValueError, match="16 or 81"):
            parse_sudoku("1" * 20)

    def test_line_value_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_sudoku("5" + "." * 15)

    def test_grid_format(self):
        text = "4\n1 0 0 0\n0 2 0 0\n0 0 3 0\n0 0 0 4\n"
        inst = parse_sudoku(text)
        assert inst.order == 4
        assert inst.clues == {(1, 1): 1, (2, 2): 2, (3, 3): 3, (4, 4): 4}

    def test_grid_duplicate_in_row_rejected(self):
        text = "4\n1 1 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"
        with pytest.raises(ValueError, match="inconsistent"):
            parse_sudoku(text)

    def test_grid_duplicate_in_block_rejected(self):
        text = "4\n1 0 0 0\n0 1 0 0\n0 0 0 0\n0 0 0 0\n"
        with pytest.raises(ValueError, match="inconsistent"):
            parse_sudoku(text)

    def test_grid_non_square_order(self):
        with pytest.raises(ValueError, match="perfect square"):
            parse_sudoku("5\n" + "0 " * 25)

    def test_grid_token_count(self):
        with pytest.raises(ValueError, match="cell tokens"):
            parse_sudoku("4\n0 0 0\n")

    def test_auto_detection(self):
        assert parse_sudoku("." * 16).order == 4
        assert parse_sudoku("4\n" + "0 " * 16).order == 4

    def test_grid_round_trip(self):
        text = format_grid(GRID_4)
        assert parse_grid(text) == GRID_4
        assert parse_grid("1234341221434321") == GRID_4

    @pytest.mark.parametrize("ch", ["\u0663", "\u00b2", "\uff11", "x", "-"])
    def test_line_takes_ascii_digits_only(self, ch):
        # Arabic-Indic three, superscript two, fullwidth one: digits to
        # str.isdigit and int(), but not cell values
        for parse in (parse_sudoku, parse_grid):
            with pytest.raises(ValueError, match=f"^bad character {ch!r} at position 0$"):
                parse(ch + "." * 15)

    @pytest.mark.parametrize("tok", ["+1", "1_0", "-0", "\u0663", "1.0", "0x1"])
    def test_grid_takes_ascii_digits_only(self, tok):
        # int() reads each of these; a cell token is ASCII digits
        text = "4\n" + tok + " 0 0 0" + "\n0 0 0 0" * 3
        want = f"^bad cell token {re.escape(repr(tok))}$"
        with pytest.raises(ValueError, match=want):
            parse_sudoku(text)
        with pytest.raises(ValueError, match=want):
            parse_grid(text.replace(" 0", " 1"))

    def test_grid_order_takes_ascii_digits_only(self):
        with pytest.raises(ValueError, match="^expected order as first token, got '\\+4'$"):
            parse_sudoku("+4\n" + "0 " * 16)

    def test_grid_order_of_thousands_of_digits(self):
        # int() would refuse a 5000-digit order with Python's own message
        want = "^order has 5000 digits, too many for 16 cell tokens$"
        with pytest.raises(ValueError, match=want):
            parse_sudoku("4" * 5000 + "\n" + "0 " * 16)
        with pytest.raises(ValueError, match=want):
            parse_grid("4" * 5000 + "\n" + "1 " * 16)
        # leading zeros are not digits of the order
        assert parse_sudoku("0" * 5000 + "4\n" + "0 " * 16).order == 4
        with pytest.raises(ValueError, match="^order has 3 digits, too many for 16 cell tokens$"):
            parse_sudoku("100\n" + "0 " * 16)

    def test_grid_value_out_of_range(self):
        with pytest.raises(ValueError, match="^clue value 5 at \\(2, 3\\) out of range$"):
            parse_sudoku("4\n" + "0 " * 6 + "5 " + "0 " * 9)
        with pytest.raises(ValueError, match="^grid values out of range$"):
            parse_grid("4\n" + "1 " * 6 + "5 " + "1 " * 9)

    def test_incomplete_grid_rejected(self):
        with pytest.raises(ValueError, match="^grid is not complete: cell 3 is blank$"):
            parse_grid("123.341221434321")
        with pytest.raises(ValueError, match="^grid is not complete"):
            parse_grid(format_grid(GRID_4)[:-2] + "0\n")


class TestBlockOf:
    def test_corners(self):
        assert block_of(1, 1, 9) == 1
        assert block_of(9, 9, 9) == 9

    def test_middle_cell_by_enumeration(self):
        # block 5 of a 9-grid covers rows 4..6, columns 4..6
        cells = {(i, j) for i in range(4, 7) for j in range(4, 7)}
        assert all(block_of(i, j, 9) == 5 for i, j in cells)
        assert block_of(4, 5, 9) == 5

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_partition(self, n):
        groups = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                groups.setdefault(block_of(i, j, n), set()).add((i, j))
        assert sorted(groups) == list(range(1, n + 1))
        assert all(len(cells) == n for cells in groups.values())
        for a in range(1, n + 1):
            assert set(cells_of_block(a, n)) == groups[a]

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_constant_on_aligned_boxes(self, i, j):
        a = block_of(i, j, 9)
        anchor_i, anchor_j = ((i - 1) // 3) * 3 + 1, ((j - 1) // 3) * 3 + 1
        for di in range(3):
            for dj in range(3):
                assert block_of(anchor_i + di, anchor_j + dj, 9) == a

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block_of(0, 1, 9)
        with pytest.raises(ValueError):
            block_of(1, 10, 9)


class TestValidateGrid:
    def test_valid_grid(self):
        assert validate_grid(blank_instance(4), GRID_4) == []

    def test_all_ones(self):
        bad = Grid.from_rows([(1, 1, 1, 1)] * 4)
        violations = validate_grid(blank_instance(4), bad)
        kinds = [v.kind for v in violations]
        assert kinds.count("row") == 4
        assert kinds.count("col") == 4
        assert kinds.count("block") == 4

    def test_clue_mismatch(self):
        inst = SudokuInstance(4, {(1, 1): 2})
        violations = validate_grid(inst, GRID_4)
        assert violations == [("clue", (1, 1))]

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order"):
            validate_grid(blank_instance(9), GRID_4)


class TestEnumerate:
    def test_blank_order4_count(self):
        sols = all_order4_solutions()
        assert len(sols) == 288
        assert len(set(sols)) == 288
        assert all(validate_grid(blank_instance(4), g) == [] for g in sols)

    def test_blank_order4_against_naive_oracle(self):
        # propagation-free brute force: place values cell by cell
        found = []

        def naive(cells):
            if len(cells) == 16:
                grid = [cells[r * 4 : r * 4 + 4] for r in range(4)]
                found.append(Grid.from_rows(grid))
                return
            idx = len(cells)
            i, j = idx // 4, idx % 4
            for v in range(1, 5):
                ok = all(cells[i * 4 + jj] != v for jj in range(j))
                ok = ok and all(cells[ii * 4 + j] != v for ii in range(i))
                bi, bj = (i // 2) * 2, (j // 2) * 2
                ok = ok and all(
                    cells[ii * 4 + jj] != v
                    for ii in range(bi, min(i + 1, bi + 2))
                    for jj in range(bj, bj + 2)
                    if ii * 4 + jj < idx
                )
                if ok:
                    naive(cells + [v])

        naive([])
        assert sorted(found, key=lambda g: g.rows) == sorted(
            all_order4_solutions(), key=lambda g: g.rows
        )

    def test_lexicographic_order(self):
        sols = all_order4_solutions()
        flat = [tuple(v for row in g.rows for v in row) for g in sols]
        assert flat == sorted(flat)

    def test_fully_determined(self):
        sol = all_order4_solutions()[0]
        clues = {(i, j): sol.value(i, j) for i in range(1, 5) for j in range(1, 5)}
        assert enumerate_solutions(SudokuInstance(4, clues), 10) == [sol]

    def test_limit_respected(self):
        assert len(enumerate_solutions(blank_instance(4), 7)) == 7

    @pytest.mark.parametrize("limit", [1, 3])
    def test_depth_not_bounded_by_recursion_limit(self, limit):
        # a blank 9x9 has 81 blank cells, one call level each when recursive
        want = enumerate_solutions_recursive(blank_instance(9), limit)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(call_depth() + 40)
        try:
            got = enumerate_solutions(blank_instance(9), limit)
            with pytest.raises(RecursionError):
                enumerate_solutions_recursive(blank_instance(9), limit)
        finally:
            sys.setrecursionlimit(saved)
        assert len(got) == limit
        assert got == want

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            enumerate_solutions(blank_instance(4), 0)

    def test_unsatisfiable_consistent_instance(self):
        # row 1 still needs 3 and 4, but its right block already holds both
        inst = SudokuInstance(4, {(1, 1): 1, (1, 2): 2, (2, 3): 4, (2, 4): 3})
        assert enumerate_solutions(inst, 10) == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**30), st.integers(0, 15))
    def test_adding_clue_never_grows_solution_set(self, seed, cell_idx):
        rng = random.Random(seed)
        sols = all_order4_solutions()
        base_sol = rng.choice(sols)
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        rng.shuffle(cells)
        base = SudokuInstance(4, {c: base_sol.value(*c) for c in cells[:3]})
        extra_cell = cells[3 + cell_idx % 13]
        extended = SudokuInstance(
            4, {**base.clues, extra_cell: base_sol.value(*extra_cell)}
        )
        big = set(enumerate_solutions(base, 10**6))
        small = set(enumerate_solutions(extended, 10**6))
        assert small <= big
