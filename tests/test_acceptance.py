"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is written into the assertion itself.
"""

import random
import time

from sudoku2hcp import (
    PipelineConfig,
    SolveBudget,
    SudokuInstance,
    blank_instance,
    build_hcp,
    enumerate_solutions,
    graph_stats,
    parse_sudoku,
    prune_fixed,
    recover_solution,
    reduce_graph,
    solve_hcp,
    solve_instance,
    undirect,
    validate_grid,
    verify_cycle,
    vertex_count,
    witness_cycle,
)
from sudoku2hcp.transform import Infeasible, compress_triples
from _support import (
    PUZZLE_35,
    SOLUTION_35,
    Role,
    all_order4_solutions,
    brute_undirected_hamiltonian,
    dodecahedron,
    label_of,
    petersen,
    random_undirected,
    role_of,
    well_formed_order4,
)


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_1_exact_order9_size():
    t0 = time.monotonic()
    g = build_hcp(9)
    elapsed = time.monotonic() - t0
    assert g.n == 4799
    assert g.m == 14033
    assert elapsed < 1.0
    report(1, f"build_hcp(9) = 4799 vertices / 14033 arcs in {elapsed:.3f}s")


def test_criterion_2_formula_suite():
    t0 = time.monotonic()
    for n in (4, 9, 16):
        g = build_hcp(n)
        assert g.n == 6 * n**3 + 5 * n**2 + 2 * n + 2
        assert g.m == 19 * n**3 + 2 * n**2 + 2 * n + 2
        ug, _ = undirect(g)
        assert ug.n == 18 * n**3 + 15 * n**2 + 6 * n + 6
        assert ug.m == 31 * n**3 + 12 * n**2 + 6 * n + 6
        cg, _ = compress_triples(ug)
        assert cg.n == 16 * n**3 + 15 * n**2 + 6 * n + 6
        assert cg.m == 29 * n**3 + 12 * n**2 + 6 * n + 6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, f"all size formulas exact for N in (4, 9, 16), {elapsed:.1f}s")


def test_criterion_3_average_degree():
    averages = {}
    for n in (4, 9, 16, 25):
        ug, _ = undirect(build_hcp(n))
        averages[n] = graph_stats(ug).average_degree
    assert abs(averages[4] - 3.1027) <= 1e-3
    assert abs(averages[9] - 3.2828) <= 1e-3
    values = [averages[n] for n in (4, 9, 16, 25)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < 31 / 9 for v in values)
    report(3, f"average degrees {values} strictly increasing, all below 31/9")


def test_criterion_4_pruning_counts():
    g = build_hcp(9)
    base = set(g.arcs())
    rng = random.Random(40404)
    for _ in range(50):
        i, j, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
        _, removed = prune_fixed(g, SudokuInstance(9, {(i, j): k}))
        assert removed == 96

    def clue_removal(i, j, k):
        pruned, _ = prune_fixed(g, SudokuInstance(9, {(i, j): k}))
        return base - set(pruned.arcs())

    solution = parse_sudoku(SOLUTION_35)
    cells = sorted(solution.clues)
    checked = 0
    while checked < 50:
        count = rng.randint(2, 5)
        chosen = rng.sample(cells, count)
        clues = {c: solution.clues[c] for c in chosen}
        inst = SudokuInstance(9, clues)
        pruned, removed = prune_fixed(g, inst)
        union = set()
        for (i, j), k in clues.items():
            union |= clue_removal(i, j, k)
        assert removed == len(union)
        assert base - set(pruned.arcs()) == union
        checked += 1
    report(4, "50 single clues remove exactly 96 arcs; 50 multi-clue "
              "removals equal the per-clue union")


def test_criterion_5_witness_round_trip():
    t0 = time.monotonic()
    g = build_hcp(4)
    blank = blank_instance(4)
    solutions = all_order4_solutions()
    assert len(solutions) == 288
    for sol in solutions:
        w = witness_cycle(blank, sol)
        assert verify_cycle(g, w)
        assert recover_solution(w, 4) == sol
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(5, f"all 288 order-4 solutions round-trip in {elapsed:.1f}s")


def test_criterion_6_pipeline_oracle_equivalence():
    rng = random.Random(606060)
    worst = 0.0
    for _ in range(100):
        inst, solution = well_formed_order4(rng)
        # solve_instance reduces; the stage chain without reduce_graph
        # searches the triplication itself
        t0 = time.monotonic()
        result = solve_instance(inst)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert elapsed < 5.0
        assert result.status == "solved"
        assert result.grid == solution
        t0 = time.monotonic()
        graph, lifter = undirect(prune_fixed(build_hcp(4), inst)[0])
        outcome = solve_hcp(graph)
        assert outcome.status == "cycle"
        grid = recover_solution(lifter.lift(outcome.cycle), 4)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert elapsed < 5.0
        assert grid == solution
    report(6, f"100 well-formed order-4 puzzles solved with and without "
              f"reduction, worst run {worst:.2f}s")


def test_criterion_7_label_arithmetic():
    assert label_of(Role.cell_end(1, 1), 9) == 2451
    assert label_of(Role.cand(1, 1, 1, 1), 9) == 264
    for n in (4, 9):
        for label in range(1, vertex_count(n) + 1):
            assert label_of(role_of(label, n), n) == label
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert (
                    label_of(Role.cell_end(i, j), n)
                    == 3 * n**3 + 3 * n**2 + (i + 1) * n + (j + 2)
                )
                for k in range(1, n + 1):
                    assert (
                        label_of(Role.cand(i, j, k, 1), n)
                        == 3 * i * n**2 + (3 * j - 1) * n + 3 * k
                    )
    report(7, "closed-form labels match enumeration for every index, N in (4, 9)")


def test_criterion_8_solver_correctness():
    rng = random.Random(808080)
    agree = 0
    for _ in range(200):
        g = random_undirected(rng, rng.randint(4, 10), 0.4)
        brute = brute_undirected_hamiltonian(g.n, set(g.edges()))
        outcome = solve_hcp(g)
        if brute is None:
            assert outcome.status == "no_cycle"
        else:
            assert outcome.status == "cycle"
            assert verify_cycle(g, outcome.cycle)
        agree += 1
    assert solve_hcp(petersen()).status == "no_cycle"
    dode = solve_hcp(dodecahedron())
    assert dode.status == "cycle"
    assert verify_cycle(dodecahedron(), dode.cycle)
    report(8, f"{agree} random graphs agree with brute force; "
              "Petersen has no cycle, dodecahedron does")


def test_criterion_9_desk_scale_order9():
    inst = parse_sudoku(PUZZLE_35)
    assert inst.clue_count == 35
    oracle = enumerate_solutions(inst, 2)
    assert len(oracle) == 1  # well-formed

    t0 = time.monotonic()
    result = solve_instance(
        inst, PipelineConfig(budget=SolveBudget(max_ms=600_000))
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    assert result.status == "solved"
    assert validate_grid(inst, result.grid) == []
    assert result.grid == oracle[0]

    # substitute for the unpublished post-reduction counts: reduction must
    # strictly shrink any pruned instance with at least 17 clues
    g9 = build_hcp(9)
    solution = parse_sudoku(SOLUTION_35)
    cells = sorted(solution.clues)
    rng = random.Random(909090)
    trials = [inst]
    for _ in range(5):
        count = rng.randint(17, 40)
        chosen = rng.sample(cells, count)
        trials.append(SudokuInstance(9, {c: solution.clues[c] for c in chosen}))
    for trial in trials:
        pruned, _ = prune_fixed(g9, trial)
        ug, _ = undirect(pruned)
        out = reduce_graph(ug)
        assert not isinstance(out, Infeasible)
        assert out[0].n < ug.n

    # and it must preserve solvability on the order-4 corpus
    g4 = build_hcp(4)
    rng4 = random.Random(919191)
    for _ in range(10):
        inst4, sol4 = well_formed_order4(rng4)
        pruned4, _ = prune_fixed(g4, inst4)
        ug4, lifter = undirect(pruned4)
        out4 = reduce_graph(ug4)
        assert not isinstance(out4, Infeasible)
        reduced4, step = out4
        assert solve_hcp(reduced4).status == solve_hcp(ug4).status == "cycle"
    report(9, f"35-clue order-9 pipeline solved in {elapsed:.1f}s; reduction "
              "strictly shrinks pruned instances with 17+ clues")


def test_criterion_10_reduction_soundness():
    rng = random.Random(101010)
    g4 = build_hcp(4)
    solvable = unsolvable = 0
    for _ in range(50):
        # random consistent clue sets, solvable or not
        from _support import random_consistent_instance

        inst = random_consistent_instance(rng, 4, 8)
        pruned, _ = prune_fixed(g4, inst)
        ug, lifter = undirect(pruned)
        before = solve_hcp(ug)
        out = reduce_graph(ug)
        if isinstance(out, Infeasible):
            assert before.status == "no_cycle"
            unsolvable += 1
            continue
        reduced, step = out
        after = solve_hcp(reduced)
        assert before.status == after.status
        if after.status == "cycle":
            solvable += 1
            directed = (lifter + step).lift(after.cycle)
            assert verify_cycle(pruned, directed)
        else:
            unsolvable += 1
    assert solvable + unsolvable == 50
    report(10, f"reduction kept solvability on 50 instances "
               f"({solvable} solvable, {unsolvable} not), lifted cycles verify")
