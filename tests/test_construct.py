import random
from collections import Counter

import pytest

from sudoku2hcp import (
    SudokuInstance,
    arc_count,
    blank_instance,
    block_of,
    build_hcp,
    clue_redundant_arcs,
    enumerate_solutions,
    label_of,
    prune_fixed,
    recover_solution,
    role_of,
    verify_cycle,
    vertex_count,
    witness_cycle,
)
from sudoku2hcp import construct
from sudoku2hcp import labels as L
from _support import all_order4_solutions


def wrap(k, n):
    return (k - 1) % n + 1


def naive_out_neighbours(role, n):
    """Independent statement of the adjacency rules, per vertex this time:
    for every role, the list of roles its arcs point at."""
    kind, args = role.kind, role.args
    if kind == "start":
        return [L.block(1, 1)]
    if kind == "finish":
        return [L.start()]
    if kind == "block":
        a, k = args
        cells = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if block_of(i, j, n) == a
        ]
        return [L.cand(i, j, wrap(k + 1, n), 1) for i, j in cells]
    if kind == "row":
        i, k = args
        return [L.cand(i, j, k, 3) for j in range(1, n + 1)]
    if kind == "row_end":
        (i,) = args
        return [L.row(i + 1, 1)] if i < n else [L.col(1, 1)]
    if kind == "col":
        j, k = args
        return [L.dup(i, j, k, 3) for i in range(1, n + 1)]
    if kind == "col_end":
        (j,) = args
        return [L.col(j + 1, 1)] if j < n else [L.finish()]
    if kind == "cand":
        i, j, k, slot = args
        if slot == 1:
            return [L.cand(i, j, k, 2), L.cell_end(i, j)]
        if slot == 2:
            return [L.cand(i, j, k, 1), L.cand(i, j, k, 3)]
        return [
            L.cand(i, j, k, 2),
            L.cand(i, j, wrap(k + 1, n), 1),
            L.dup(i, j, wrap(k + 2, n), 1),
        ]
    if kind == "cell_end":
        i, j = args
        return [L.row(i, k) for k in range(1, n + 1)] + [L.row_end(i)]
    if kind == "dup":
        i, j, k, slot = args
        if slot == 1:
            return [L.dup(i, j, k, 2), L.dup_end(i, j)]
        if slot == 2:
            return [L.dup(i, j, k, 1), L.dup(i, j, k, 3)]
        out = [L.dup(i, j, k, 2), L.dup(i, j, wrap(k + 1, n), 1)]
        a = block_of(i, j, n)
        if k != n - 1:
            out.append(L.block(a, wrap(k + 2, n)))
        elif a < n:
            out.append(L.block(a + 1, 1))
        else:
            out.append(L.row(1, 1))
        return out
    assert kind == "dup_end"
    i, j = args
    return [L.col(j, k) for k in range(1, n + 1)] + [L.col_end(j)]


class TestBuild:
    def test_order9_sizes(self):
        g = build_hcp(9)
        assert g.n == 4799
        assert g.m == 14033

    def test_order4_against_per_vertex_oracle(self):
        g = build_hcp(4)
        assert g.n == 474
        assert g.m == 1258
        expected = set()
        for label in range(1, vertex_count(4) + 1):
            role = role_of(label, 4)
            for target in naive_out_neighbours(role, 4):
                expected.add((label, label_of(target, 4)))
        assert g.arc_set() == expected

    @pytest.mark.parametrize("n", [4, 9])
    def test_count_formulas(self, n):
        g = build_hcp(n)
        assert g.n == vertex_count(n) == 6 * n**3 + 5 * n**2 + 2 * n + 2
        assert g.m == arc_count(n) == 19 * n**3 + 2 * n**2 + 2 * n + 2

    def test_slot2_degrees(self):
        g = build_hcp(4)
        ins = Counter(v for _, v in g.arcs())
        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    for fam in (L.cand, L.dup):
                        v = label_of(fam(i, j, k, 2), 4)
                        assert g.out_degree(v) == 2
                        assert ins[v] == 2
                        nbrs = set(g.successors(v))
                        assert nbrs == {v - 1, v + 1}

    def test_bad_order(self):
        with pytest.raises(ValueError):
            build_hcp(5)

    def test_arc_count_checked_without_assert(self, monkeypatch):
        # an explicit check, which python -O keeps
        monkeypatch.setattr(construct, "arc_count", lambda n: 0)
        with pytest.raises(RuntimeError, match="internal error: built 1258 arcs, expected 0"):
            build_hcp(4)


class TestPrune:
    def test_single_clue_removes_96(self):
        g = build_hcp(9)
        rng = random.Random(42)
        for _ in range(10):
            i, j, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
            pruned, removed = prune_fixed(g, SudokuInstance(9, {(i, j): k}))
            assert removed == 96
            assert g.m - pruned.m == 96

    def test_no_clues_no_change(self):
        g = build_hcp(4)
        pruned, removed = prune_fixed(g, blank_instance(4))
        assert removed == 0
        assert pruned == g

    def test_two_clues_same_block_overlap(self):
        g = build_hcp(9)
        inst = SudokuInstance(9, {(1, 1): 1, (1, 2): 2})
        pruned, removed = prune_fixed(g, inst)
        assert removed < 192
        # brute-force union oracle via per-clue graph differences
        base = g.arc_set()
        removed_a = base - prune_fixed(g, SudokuInstance(9, {(1, 1): 1}))[0].arc_set()
        removed_b = base - prune_fixed(g, SudokuInstance(9, {(1, 2): 2}))[0].arc_set()
        union = removed_a | removed_b
        assert removed == len(union)
        assert base - pruned.arc_set() == union

    def test_per_clue_family_is_disjoint_union(self):
        # a single clue's twelve families never overlap
        for n in (4, 9):
            arcs = clue_redundant_arcs(n, 2, 3, 1)
            assert len(arcs) == len(set(arcs)) == 12 * n - 12

    def test_shape_mismatch(self):
        g = build_hcp(4)
        with pytest.raises(ValueError, match="vertices"):
            prune_fixed(g, blank_instance(9))


class TestWitness:
    def test_all_order4_solutions_verify(self):
        g = build_hcp(4)
        blank = blank_instance(4)
        for sol in all_order4_solutions():
            w = witness_cycle(blank, sol)
            assert len(w) == 474
            assert verify_cycle(g, w)

    def test_entry_and_closing_arcs(self):
        sol = all_order4_solutions()[0]
        w = witness_cycle(blank_instance(4), sol)
        assert w[0] == 1
        assert w[1] == label_of(L.block(1, 1), 4)
        assert w[-1] == 2  # finish, wrapping back to start

    def test_block_vertex_precedes_next_candidate(self):
        n = 4
        sol = all_order4_solutions()[17]
        w = witness_cycle(blank_instance(n), sol)
        pos = {lab: idx for idx, lab in enumerate(w)}
        for a in range(1, n + 1):
            for k in range(1, n + 1):
                cell = next(
                    (i, j)
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                    if block_of(i, j, n) == a and sol.value(i, j) == k
                )
                b = label_of(L.block(a, k), n)
                x = label_of(L.cand(*cell, wrap(k + 1, n), 1), n)
                assert pos[x] == pos[b] + 1

    def test_witness_survives_prune_when_clues_in_solution(self):
        g = build_hcp(4)
        rng = random.Random(3)
        for _ in range(10):
            sol = rng.choice(all_order4_solutions())
            cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
            rng.shuffle(cells)
            inst = SudokuInstance(4, {c: sol.value(*c) for c in cells[:6]})
            pruned, _ = prune_fixed(g, inst)
            assert verify_cycle(pruned, witness_cycle(inst, sol))

    def test_length_checked_without_assert(self, monkeypatch):
        sol = all_order4_solutions()[0]
        monkeypatch.setattr(construct, "vertex_count", lambda n: 0)
        with pytest.raises(RuntimeError, match="internal error: witness has 474 vertices"):
            witness_cycle(blank_instance(4), sol)

    def test_invalid_solution_rejected(self):
        from sudoku2hcp import Grid

        bad = Grid.from_rows([(1, 1, 1, 1)] * 4)
        with pytest.raises(ValueError, match="invalid"):
            witness_cycle(blank_instance(4), bad)

    def test_prune_keeps_exactly_the_solution_cycles(self):
        # with up to 6 random clues, every solution's witness survives the
        # pruned graph, and solving the pruned graph never produces a grid
        # outside the solution set
        from sudoku2hcp import solve_directed
        from _support import random_consistent_instance

        rng = random.Random(606)
        g = build_hcp(4)
        for _ in range(12):
            inst = random_consistent_instance(rng, 4, 6)
            pruned, _ = prune_fixed(g, inst)
            solutions = enumerate_solutions(inst, 10**6)
            for sol in solutions:
                assert verify_cycle(pruned, witness_cycle(inst, sol))
            outcome = solve_directed(pruned)
            if solutions:
                assert outcome.status == "cycle"
                assert recover_solution(outcome.cycle, 4) in solutions
            else:
                assert outcome.status == "no_cycle"


class TestRecover:
    def test_round_trip_all_solutions(self):
        blank = blank_instance(4)
        for sol in all_order4_solutions():
            assert recover_solution(witness_cycle(blank, sol), 4) == sol

    def test_round_trip_reversed_cycle(self):
        sol = all_order4_solutions()[100]
        w = witness_cycle(blank_instance(4), sol)
        assert recover_solution(w[::-1], 4) == sol

    def test_malformed_neighbours_raise(self):
        sol = all_order4_solutions()[0]
        w = witness_cycle(blank_instance(4), sol)
        # swap a cell_end vertex with a far-away one to break its neighbours
        pos = {lab: idx for idx, lab in enumerate(w)}
        a = pos[label_of(L.cell_end(1, 1), 4)]
        b = pos[label_of(L.cell_end(3, 3), 4)]
        broken = w[:]
        broken[a], broken[b] = broken[b], broken[a]
        with pytest.raises(ValueError):
            recover_solution(broken, 4)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            recover_solution([1, 2, 3], 4)

    def test_inspects_expected_cell_end_label(self):
        # the decoder must read cell (1,1) of a 9-grid at label 2451
        inst = SudokuInstance(9, {(1, 1): 5})
        sol = enumerate_solutions(inst, 1)[0]
        w = witness_cycle(inst, sol)
        pos = {lab: idx for idx, lab in enumerate(w)}
        idx = pos[2451]
        neighbours = {w[idx - 1], w[(idx + 1) % len(w)]}
        assert label_of(L.cand(1, 1, 5, 1), 9) in neighbours
        assert recover_solution(w, 9).value(1, 1) == 5
