import random
from dataclasses import fields
from math import isqrt

import pytest

from sudoku2hcp import (
    DirectedGraph,
    Grid,
    PipelineConfig,
    SolveBudget,
    SudokuInstance,
    blank_instance,
    build_hcp,
    enumerate_solutions,
    export_graph,
    parse_grid,
    parse_sudoku,
    prune_fixed,
    solve_instance,
    undirect,
    validate_grid,
)
from sudoku2hcp import pipeline, transform
from sudoku2hcp.transform import Infeasible, Triplication, reduce_graph
from _support import (
    PUZZLE_35,
    SOLUTION_35,
    all_order4_solutions,
    random_consistent_instance,
    stage16_seed101_puzzles,
    storage,
    thinning,
)


@pytest.mark.parametrize("setting", [{"prune": False}, {"seed": 1}, {"reduce": False}])
def test_config_takes_only_a_budget(setting):
    with pytest.raises(TypeError):
        PipelineConfig(**setting)


def test_config_fixed_attributes():
    # what the benchmark harness reads
    config = PipelineConfig()
    assert [f.name for f in fields(PipelineConfig)] == ["budget"]
    assert config.prune is True
    assert config.seed == 0


def test_blank_instance_solved():
    inst = blank_instance(4)
    result = solve_instance(inst)
    assert result.status == "solved"
    assert result.pruned_arcs == 0
    assert validate_grid(inst, result.grid) == []


def test_grid_validated(monkeypatch):
    # a recovered grid that breaks the rules is an internal error, not a
    # solution
    bad = Grid.from_rows([(1, 2, 3, 4)] * 4)
    monkeypatch.setattr(pipeline, "recover_solution", lambda cycle, n: bad)
    with pytest.raises(RuntimeError, match="violates"):
        solve_instance(blank_instance(4))


def chain_answer(inst: SudokuInstance, blank: DirectedGraph):
    """What the stage chain build -> prune -> undirect -> reduce gives for
    inst: the pruned graph and its count of pruned arcs, then the reduced
    graph and the journal from the pruned graph to it, or on a refuted
    puzzle the triplication, its journal and the reason."""
    directed, pruned = prune_fixed(blank, inst)
    graph, lifter = undirect(directed)
    reduced = reduce_graph(graph)
    if isinstance(reduced, Infeasible):
        return directed, pruned, graph, lifter, reduced.reason
    return directed, pruned, reduced[0], lifter + reduced[1], None


def assert_matches_the_chain(res, inst: SudokuInstance, blank: DirectedGraph):
    directed, pruned, graph, lifter, reason = chain_answer(inst, blank)
    assert res.pruned_arcs == pruned
    assert export_graph(res.directed) == export_graph(directed)
    assert storage(res.directed) == storage(directed)
    assert storage(res.final_graph) == storage(graph)
    assert res.lifter == lifter
    assert res.reason == reason


class TestDerivedEncoding:
    """solve_instance prunes every puzzle from the cached blank encoding,
    whether it is the first of its order or not, and reduces it in
    directed terms, so its graphs and journal must be stored exactly as
    the stage chain build -> prune -> undirect -> reduce stores them."""

    def test_matches_the_stage_chain(self):
        pipeline._blank_encoding.cache_clear()
        rng = random.Random(1111)
        sols = all_order4_solutions()
        instances = [blank_instance(4), parse_sudoku(PUZZLE_35)]
        instances += [thinning(rng.choice(sols), rng.randint(1, 16), rng) for _ in range(20)]
        solution = parse_grid(SOLUTION_35)
        instances += [thinning(solution, count, rng) for count in (17, 30, 60)]
        instances.append(blank_instance(4))  # back to order 4 after order 9
        # clues that reduce refutes: final_graph is the triplication
        instances.append(SudokuInstance(4, {(1, 1): 1, (2, 3): 1, (3, 2): 1, (4, 4): 2}))
        config = PipelineConfig(budget=SolveBudget(max_nodes=1))
        for inst in instances:
            res = solve_instance(inst, config)
            assert_matches_the_chain(res, inst, build_hcp(inst.order))
        assert res.status == "unsat" and res.reason is not None
        assert res.lifter.records == (Triplication(res.directed.n),)
        # a blank puzzle after a clued one of its order prunes nothing, and
        # its result holds a graph of its own, not the kept one
        assert solve_instance(parse_sudoku("1...2..3......2.")).status == "solved"
        blank = solve_instance(blank_instance(4))
        assert blank.status == "solved" and blank.pruned_arcs == 0
        assert blank.directed is not pipeline._blank_encoding(4)

    def test_cached_graphs_stay_unchanged(self):
        want = storage(build_hcp(4))
        blank = solve_instance(blank_instance(4))
        cached = pipeline._blank_encoding(4)
        assert isinstance(cached, DirectedGraph)
        assert blank.directed is not cached
        rng = random.Random(2222)
        sols = all_order4_solutions()
        for _ in range(10):
            res = solve_instance(thinning(rng.choice(sols), rng.randint(1, 6), rng))
            assert res.status == "solved"
            assert res.directed is not cached
        assert pipeline._blank_encoding(4) is cached
        assert storage(cached) == want


def _pattern_grid(order: int) -> Grid:
    """The solved grid whose row r (0-based) is the first row shifted by
    b * (r mod b) + r // b, for box side b."""
    b = isqrt(order)
    return Grid(order, tuple(
        tuple((b * (r % b) + r // b + c) % order + 1 for c in range(order))
        for r in range(order)
    ))


def test_order16_run_matches_the_stage_chain():
    # three 16x16 thinnings in a row: the second and third reuse the kept
    # blank encoding, and every graph and journal is the stage chain's
    pipeline._blank_encoding.cache_clear()
    blank = build_hcp(16)
    rng = random.Random(1616)
    grid = _pattern_grid(16)
    assert validate_grid(blank_instance(16), grid) == []
    for count in (220, 200, 180):
        inst = thinning(grid, count, rng)
        res = solve_instance(inst)
        assert res.status == "solved" and res.grid == grid
        assert_matches_the_chain(res, inst, blank)
    assert pipeline._blank_encoding.cache_info().misses == 1
    cached = pipeline._blank_encoding(16)
    assert isinstance(cached, DirectedGraph)
    assert storage(cached) == storage(blank)


def test_solved_order16_puzzle_is_never_triplicated(monkeypatch):
    # the reduction runs on the pruned directed graph itself: neither the
    # pipeline nor the reduction calls undirect or reduce_graph
    calls = []
    for module, name in ((pipeline, "undirect"), (transform, "undirect"), (transform, "reduce_graph")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda g, name=name, real=real: calls.append(name) or real(g))
    res = solve_instance(parse_sudoku(stage16_seed101_puzzles()[0]))
    assert res.status == "solved"
    assert calls == []


def test_differential_against_enumeration():
    # random consistent 4x4 clue sets, some of them unsolvable, with a
    # blank 4x4 and a 9x9 puzzle between them so that the kept blank
    # encoding changes order in the middle of the run
    rng = random.Random(3333)
    instances = [random_consistent_instance(rng, 4, 10) for _ in range(60)]
    instances += [blank_instance(4), parse_sudoku(PUZZLE_35)]
    instances += [random_consistent_instance(rng, 4, 10) for _ in range(60)]
    pipeline._blank_encoding.cache_clear()
    seen = {"solved": 0, "unsat by reduce": 0, "unsat by search": 0}
    for inst in instances:
        res = solve_instance(inst)
        oracle = enumerate_solutions(inst, 1)
        if res.status == "solved":
            assert oracle
            assert validate_grid(inst, res.grid) == []
            seen["solved"] += 1
        else:
            assert res.status == "unsat"
            assert oracle == []
            seen["unsat by reduce" if res.outcome is None else "unsat by search"] += 1
    # order 4, then 9 for PUZZLE_35, then 4 again
    assert pipeline._blank_encoding.cache_info().misses == 3
    # the seed gives 110 solved, 8 refuted by reduce and 4 by the search
    assert seen["solved"] >= 90, seen
    assert seen["unsat by reduce"] >= 3 and seen["unsat by search"] >= 3, seen


def _relabelled(grid: Grid, rng: random.Random) -> Grid:
    """grid under a random digit relabelling and random row and column
    permutations within each band and stack: again a solved grid."""
    n, box = grid.order, isqrt(grid.order)
    digits = rng.sample(range(1, n + 1), n)
    rows, cols = (
        [band + r for band in range(0, n, box) for r in rng.sample(range(box), box)]
        for _ in range(2)
    )
    return Grid(n, tuple(tuple(digits[grid.rows[r][c] - 1] for c in cols) for r in rows))


def _clashing_free_change(inst: SudokuInstance, rng: random.Random) -> SudokuInstance:
    """inst with one clue given another value that no other clue clashes
    with (inst itself if no clue has one)."""
    for cell in rng.sample(sorted(inst.clues), inst.clue_count):
        for k in rng.sample(range(1, inst.order + 1), inst.order):
            if k != inst.clues[cell]:
                try:
                    return SudokuInstance(inst.order, {**inst.clues, cell: k})
                except ValueError:
                    pass
    return inst


def test_differential_9x9_against_enumeration():
    # thinnings of relabelled copies of SOLUTION_35 at 28-40 clues, some
    # with a clue changed so that they may have no solution
    rng = random.Random(9090)
    solution = parse_grid(SOLUTION_35)
    instances = []
    for idx in range(25):
        inst = thinning(_relabelled(solution, rng), rng.randint(28, 40), rng)
        instances.append(_clashing_free_change(inst, rng) if idx % 3 == 0 else inst)
    pipeline._blank_encoding.cache_clear()
    seen = {"solved": 0, "unsat": 0}
    for inst in instances:
        res = solve_instance(inst)
        oracle = enumerate_solutions(inst, 1)
        if res.status == "solved":
            assert oracle
            assert validate_grid(inst, res.grid) == []
        else:
            assert res.status == "unsat"
            assert oracle == []
        seen[res.status] += 1
    # the seed gives 19 solved, 5 refuted by the search and 1 by reduce
    assert seen["unsat"] >= 1, seen
