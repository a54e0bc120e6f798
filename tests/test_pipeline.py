import random
from dataclasses import fields
from math import isqrt

import pytest

from sudoku2hcp import (
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
from sudoku2hcp import pipeline
from sudoku2hcp.transform import Infeasible, reduce_graph, undirect_without
from _support import (
    PUZZLE_35,
    SOLUTION_35,
    all_order4_solutions,
    random_consistent_instance,
    storage,
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


def _thinning(grid: Grid, count: int, rng: random.Random) -> SudokuInstance:
    """count cells of a solved grid, drawn at random, as clues."""
    n = grid.order
    cells = rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)], count)
    return SudokuInstance(n, {(i, j): grid.value(i, j) for i, j in cells})


class TestDerivedEncoding:
    """solve_instance derives a puzzle's graphs from the cached blank
    encoding by deletion, unless it is the first puzzle of its order; either
    way they must be stored exactly as the stage chain build -> prune ->
    undirect stores them."""

    def test_matches_the_stage_chain(self, monkeypatch):
        derived = []
        monkeypatch.setattr(
            pipeline,
            "undirect_without",
            lambda g, arcs: derived.append(inst) or undirect_without(g, arcs),
        )
        # the graph that enters reduction is the derived triplication itself
        entered = []
        monkeypatch.setattr(
            pipeline, "reduce_graph", lambda g: entered.append(g) or reduce_graph(g)
        )
        pipeline._blank_encoding.cache_clear()
        rng = random.Random(1111)
        sols = all_order4_solutions()
        instances = [blank_instance(4), parse_sudoku(PUZZLE_35)]
        instances += [_thinning(rng.choice(sols), rng.randint(1, 16), rng) for _ in range(20)]
        solution = parse_grid(SOLUTION_35)
        instances += [_thinning(solution, count, rng) for count in (17, 30, 60)]
        instances.append(blank_instance(4))  # back to order 4 after order 9
        config = PipelineConfig(budget=SolveBudget(max_nodes=1))
        for inst in instances:
            res = solve_instance(inst, config)
            directed, pruned = prune_fixed(build_hcp(inst.order), inst)
            graph, lifter = undirect(directed)
            assert res.pruned_arcs == pruned
            assert export_graph(res.directed) == export_graph(directed)
            assert storage(res.directed) == storage(directed)
            assert export_graph(entered[-1]) == export_graph(graph)
            assert storage(entered[-1]) == storage(graph)
            reduced = reduce_graph(graph)
            if isinstance(reduced, Infeasible):
                assert res.lifter == lifter
            else:
                assert res.lifter == lifter + reduced[1]
        assert len(entered) == len(instances)
        # every puzzle but the first of its order's run is derived:
        # the blank 4x4s, PUZZLE_35, the first 4x4 thinning and the first
        # 9x9 one are not
        assert derived == instances[3:22] + instances[23:25]

    def test_lone_puzzle_is_not_derived(self, monkeypatch):
        # the first puzzle of an order triplicates its own pruned graph,
        # as the stage chain does, and not the blank encoding
        made = []
        monkeypatch.setattr(pipeline, "undirect", lambda g: made.append(g.m) or undirect(g))
        monkeypatch.setattr(pipeline, "undirect_without", None)
        pipeline._blank_encoding.cache_clear()
        res = solve_instance(parse_sudoku(PUZZLE_35))
        assert res.status == "solved"
        assert made == [res.directed.m] and res.pruned_arcs > 0

    def test_cached_graphs_stay_unchanged(self):
        want_directed = storage(build_hcp(4))
        want_graph = storage(undirect(build_hcp(4))[0])
        blank = solve_instance(blank_instance(4))
        cached = pipeline._blank_encoding(4)
        directed = cached.directed
        graph, lifter = cached.triplication
        # a blank puzzle is pruned or derived like any other, and its
        # result holds graphs of its own
        assert blank.directed is not directed
        assert blank.final_graph is not graph
        rng = random.Random(2222)
        sols = all_order4_solutions()
        for _ in range(10):
            res = solve_instance(_thinning(rng.choice(sols), rng.randint(1, 6), rng))
            assert res.status == "solved"
            assert res.directed is not directed
        assert pipeline._blank_encoding(4) is cached
        assert storage(directed) == want_directed
        assert storage(graph) == want_graph
        assert lifter == undirect(build_hcp(4))[1]

    def test_blank_after_a_clued_puzzle_is_derived(self, monkeypatch):
        derived = []
        monkeypatch.setattr(
            pipeline,
            "undirect_without",
            lambda g, arcs: derived.append(g) or undirect_without(g, arcs),
        )
        pipeline._blank_encoding.cache_clear()
        assert solve_instance(parse_sudoku("1...2..3......2.")).status == "solved"
        blank = solve_instance(blank_instance(4))
        assert blank.status == "solved" and blank.pruned_arcs == 0
        cached = pipeline._blank_encoding(4)
        assert len(derived) == 1 and derived[0] is cached.triplication[0]
        kept = {id(cached.directed), id(cached.triplication[0])}
        assert kept.isdisjoint(map(id, (blank.directed, blank.final_graph)))


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


def test_differential_9x9_against_enumeration(monkeypatch):
    # thinnings of relabelled copies of SOLUTION_35 at 28-40 clues, some
    # with a clue changed so that they may have no solution; the first
    # puzzle of the run is pruned and triplicated, the others derived
    derived = []
    monkeypatch.setattr(
        pipeline, "undirect_without", lambda g, arcs: derived.append(1) or undirect_without(g, arcs)
    )
    rng = random.Random(9090)
    solution = parse_grid(SOLUTION_35)
    instances = []
    for idx in range(25):
        inst = _thinning(_relabelled(solution, rng), rng.randint(28, 40), rng)
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
    assert len(derived) == len(instances) - 1
    # the seed gives 19 solved, 5 refuted by the search and 1 by reduce
    assert seen["unsat"] >= 1, seen
