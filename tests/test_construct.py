import random
from collections import Counter

import pytest

from sudoku2hcp import (
    SudokuInstance,
    arc_count,
    blank_instance,
    build_hcp,
    clue_redundant_arcs,
    enumerate_solutions,
    prune_fixed,
    recover_solution,
    verify_cycle,
    vertex_count,
    witness_cycle,
)
from sudoku2hcp import construct
from sudoku2hcp.sudoku import block_of
from _support import (
    Role,
    all_order4_solutions,
    build_hcp_by_arcs,
    clue_redundant_arcs_by_labels,
    label_of,
    role_of,
    storage,
)


def wrap(k, n):
    return (k - 1) % n + 1


def naive_out_neighbours(role, n):
    """Independent statement of the adjacency rules, per vertex this time:
    for every role, the list of roles its arcs point at."""
    kind, args = role.kind, role.args
    if kind == "start":
        return [Role.block(1, 1)]
    if kind == "finish":
        return [Role.start()]
    if kind == "block":
        a, k = args
        cells = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if block_of(i, j, n) == a
        ]
        return [Role.cand(i, j, wrap(k + 1, n), 1) for i, j in cells]
    if kind == "row":
        i, k = args
        return [Role.cand(i, j, k, 3) for j in range(1, n + 1)]
    if kind == "row_end":
        (i,) = args
        return [Role.row(i + 1, 1)] if i < n else [Role.col(1, 1)]
    if kind == "col":
        j, k = args
        return [Role.dup(i, j, k, 3) for i in range(1, n + 1)]
    if kind == "col_end":
        (j,) = args
        return [Role.col(j + 1, 1)] if j < n else [Role.finish()]
    if kind == "cand":
        i, j, k, slot = args
        if slot == 1:
            return [Role.cand(i, j, k, 2), Role.cell_end(i, j)]
        if slot == 2:
            return [Role.cand(i, j, k, 1), Role.cand(i, j, k, 3)]
        return [
            Role.cand(i, j, k, 2),
            Role.cand(i, j, wrap(k + 1, n), 1),
            Role.dup(i, j, wrap(k + 2, n), 1),
        ]
    if kind == "cell_end":
        i, j = args
        return [Role.row(i, k) for k in range(1, n + 1)] + [Role.row_end(i)]
    if kind == "dup":
        i, j, k, slot = args
        if slot == 1:
            return [Role.dup(i, j, k, 2), Role.dup_end(i, j)]
        if slot == 2:
            return [Role.dup(i, j, k, 1), Role.dup(i, j, k, 3)]
        out = [Role.dup(i, j, k, 2), Role.dup(i, j, wrap(k + 1, n), 1)]
        a = block_of(i, j, n)
        if k != n - 1:
            out.append(Role.block(a, wrap(k + 2, n)))
        elif a < n:
            out.append(Role.block(a + 1, 1))
        else:
            out.append(Role.row(1, 1))
        return out
    assert kind == "dup_end"
    i, j = args
    return [Role.col(j, k) for k in range(1, n + 1)] + [Role.col_end(j)]


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
        assert set(g.arcs()) == expected

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
                    for fam in (Role.cand, Role.dup):
                        v = label_of(fam(i, j, k, 2), 4)
                        assert len(g._adj[v]) == 2
                        assert ins[v] == 2
                        nbrs = set(g._adj[v])
                        assert nbrs == {v - 1, v + 1}

    def test_bad_order(self):
        with pytest.raises(ValueError):
            build_hcp(5)

    def test_arc_count_checked_without_assert(self, monkeypatch):
        # an explicit check, which python -O keeps
        monkeypatch.setattr(construct, "arc_count", lambda n: 0)
        with pytest.raises(RuntimeError, match="internal error: built 1258 arcs, expected 0"):
            build_hcp(4)

    @pytest.mark.parametrize("n", [4, 9, 16, 25])
    def test_against_the_arc_list(self, n):
        # the successor tuples made by label arithmetic are stored exactly
        # as the checking constructor stores the earlier arc list
        assert storage(build_hcp(n)) == storage(build_hcp_by_arcs(n))

    @pytest.mark.parametrize(
        "vertex, tuple_, match",
        [
            (5, (9, 7), "not strictly ascending"),
            (5, (7, 7), "not strictly ascending"),
            (5, (0, 7), "out of range 1..474"),
            (5, (7, 475), "out of range 1..474"),
            (5, (5, 7), "self-loop"),
            (474, None, "473 successor tuples for 474 vertices"),
        ],
    )
    def test_emitted_tuples_checked_without_assert(self, monkeypatch, vertex, tuple_, match):
        made = construct._successor_tuples

        def broken(n):
            succ = made(n)
            if tuple_ is None:
                del succ[vertex - 1]
            else:
                succ[vertex - 1] = tuple_
            return succ

        monkeypatch.setattr(construct, "_successor_tuples", broken)
        with pytest.raises(RuntimeError, match=f"^internal error: .*{match}"):
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
        base = set(g.arcs())
        removed_a = base - set(prune_fixed(g, SudokuInstance(9, {(1, 1): 1}))[0].arcs())
        removed_b = base - set(prune_fixed(g, SudokuInstance(9, {(1, 2): 2}))[0].arcs())
        union = removed_a | removed_b
        assert removed == len(union)
        assert base - set(pruned.arcs()) == union

    def test_per_clue_family_is_disjoint_union(self):
        # a single clue's twelve families never overlap
        for n in (4, 9):
            arcs = clue_redundant_arcs(n, 2, 3, 1)
            assert len(arcs) == len(set(arcs)) == 12 * n - 12

    @pytest.mark.parametrize("n", [4, 9])
    def test_clue_families_against_label_calls(self, n):
        # by strides from a few base labels, the same arcs in the same order
        r = range(1, n + 1)
        for i in r:
            for j in r:
                for k in r:
                    want = clue_redundant_arcs_by_labels(n, i, j, k)
                    assert clue_redundant_arcs(n, i, j, k) == want

    @pytest.mark.parametrize("n", [16, 25])
    def test_clue_families_against_label_calls_sampled(self, n):
        rng = random.Random(1600 + n)
        # the corners and edges of the grid and its values, then a sample
        picks = [(i, j, k) for i in (1, n) for j in (1, n) for k in (1, n - 1, n)]
        picks += [tuple(rng.randint(1, n) for _ in range(3)) for _ in range(300)]
        for i, j, k in picks:
            assert clue_redundant_arcs(n, i, j, k) == clue_redundant_arcs_by_labels(n, i, j, k)

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
        assert w[1] == label_of(Role.block(1, 1), 4)
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
                b = label_of(Role.block(a, k), n)
                x = label_of(Role.cand(*cell, wrap(k + 1, n), 1), n)
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
        from _support import random_consistent_instance, solve_directed

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
        a = pos[label_of(Role.cell_end(1, 1), 4)]
        b = pos[label_of(Role.cell_end(3, 3), 4)]
        broken = w[:]
        broken[a], broken[b] = broken[b], broken[a]
        with pytest.raises(ValueError):
            recover_solution(broken, 4)

    @pytest.mark.parametrize(
        "offset, role",
        [
            (1, Role.cand(2, 3, 1, 2)),
            (2, Role.cand(2, 3, 1, 3)),
            (10, Role.cand(2, 3, 4, 2)),
            (11, Role.cand(2, 3, 4, 3)),
            (-3, Role.cand(2, 2, 4, 1)),
            (12, Role.cand(2, 4, 1, 1)),
        ],
    )
    def test_only_the_cells_own_slot1_candidates_count(self, offset, role):
        # cell (2, 3)'s slot-1 candidates are every third label from its
        # first, four of them; put a candidate just off that range or
        # stride next to its cell_end instead of its own
        # the other cells' candidates must not sit next to their own
        # cell_ends, or moving them would break those cells first
        n = 4
        sol = next(
            s for s in all_order4_solutions() if s.value(2, 2) != 4 and s.value(2, 4) != 1
        )
        w = witness_cycle(blank_instance(n), sol)
        stranger = label_of(role, n)
        assert stranger == label_of(Role.cand(2, 3, 1, 1), n) + offset
        own = label_of(Role.cand(2, 3, sol.value(2, 3), 1), n)
        pos = {lab: idx for idx, lab in enumerate(w)}
        cell_end = pos[label_of(Role.cell_end(2, 3), n)]
        assert own in (w[cell_end - 1], w[cell_end + 1])
        broken = w[:]
        broken[pos[own]], broken[pos[stranger]] = stranger, own
        with pytest.raises(
            ValueError,
            match=r"^cell \(2, 3\): expected exactly one adjacent slot-1 candidate, found 0$",
        ):
            recover_solution(broken, n)

    def test_neighbour_outside_the_labels_rejected(self):
        w = witness_cycle(blank_instance(4), all_order4_solutions()[0])
        idx = w.index(label_of(Role.cell_end(1, 1), 4))
        broken = w[:]
        broken[idx - 1] = 0
        with pytest.raises(ValueError, match="^label 0 out of range 1..474$"):
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
        assert label_of(Role.cand(1, 1, 5, 1), 9) in neighbours
        assert recover_solution(w, 9).value(1, 1) == 5
