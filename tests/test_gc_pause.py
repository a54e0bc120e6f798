"""The graph-sized library calls pause CPython's cyclic garbage collector
while they run (graphs._gc_paused); solve_hcp pauses only its set-up, not
its search.  These tests check that each call leaves the collector as its
caller had it, on return and on raise, that no collection starts inside a
paused call, and the premise that makes the pause safe: the calls leave no
cyclic garbage, so reference counting alone frees everything they drop."""

import gc
import random

import pytest

from sudoku2hcp import (
    Infeasible,
    PipelineConfig,
    SolveBudget,
    SudokuInstance,
    UndirectedGraph,
    build_hcp,
    export_graph,
    import_graph,
    load_journal,
    parse_grid,
    parse_sudoku,
    prune_fixed,
    reduce_graph,
    save_journal,
    solve_hcp,
    solve_instance,
    undirect,
)
from sudoku2hcp import solve
from sudoku2hcp.graphs import _gc_paused
from _support import PUZZLE_35, SOLUTION_35, all_order4_solutions, thinning

PUZZLE4 = "1...2..3......2."


def _calls():
    """(name, call on small input, call that raises, what it raises) for
    each paused call.  Each raises through its own check of its input,
    except undirect, which has none: any DirectedGraph is valid input, so
    it is handed a non-graph."""
    blank4 = build_hcp(4)
    inst4 = parse_sudoku(PUZZLE4)
    pruned4, _ = prune_fixed(blank4, inst4)
    tri4, journal4 = undirect(pruned4)
    triangle = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
    inst9 = parse_sudoku(PUZZLE_35)
    return [
        ("build_hcp", lambda: build_hcp(4), lambda: build_hcp(5), ValueError),
        ("prune_fixed", lambda: prune_fixed(blank4, inst4),
         lambda: prune_fixed(blank4, inst9), ValueError),
        ("undirect", lambda: undirect(pruned4), lambda: undirect(None), AttributeError),
        ("reduce_graph", lambda: reduce_graph(tri4), lambda: reduce_graph(triangle), ValueError),
        ("import_graph", lambda: import_graph(export_graph(pruned4)),
         lambda: import_graph("DHCP 3 1\n1 x\n"), ValueError),
        ("load_journal", lambda: load_journal(save_journal(journal4)),
         lambda: load_journal("G 1 2 3\n"), ValueError),
        ("solve_hcp", lambda: solve_hcp(tri4),
         lambda: solve_hcp(UndirectedGraph(2, [])), ValueError),
    ]


CALLS = _calls()
NAMES = [name for name, _, _, _ in CALLS]


@pytest.fixture
def collector_restored():
    """Puts the collector back as it was, whatever the test does to it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("name, call, raising, error", CALLS, ids=NAMES)
def test_collector_back_on_after_return_and_raise(name, call, raising, error):
    assert gc.isenabled()
    call()
    assert gc.isenabled()
    with pytest.raises(error):
        raising()
    assert gc.isenabled()


@pytest.mark.parametrize("name, call, raising, error", CALLS, ids=NAMES)
def test_caller_disabled_collector_stays_disabled(name, call, raising, error, collector_restored):
    gc.disable()
    call()
    assert not gc.isenabled()
    with pytest.raises(error):
        raising()
    assert not gc.isenabled()


def test_nested_paused_calls_leave_the_outer_pause():
    # undirect returns inside the outer pause, so it must leave the
    # collector off; the outer call turns it back on when it returns
    pruned = prune_fixed(build_hcp(9), parse_sudoku(PUZZLE_35))[0]
    inside = []

    @_gc_paused
    def outer():
        undirect(pruned)
        inside.append(gc.isenabled())

    outer()
    assert inside == [False]
    assert gc.isenabled()


def test_search_runs_with_the_collector_on(monkeypatch):
    # solve_hcp pauses its set-up (propagation) only: the search may run
    # for its whole budget, and a pause holds for every thread
    seen = {"propagate": set(), "branch": set()}
    real_propagate, real_pick = solve.propagate, solve._pick_branch_edge

    def propagate_seen(state):
        seen["propagate"].add(gc.isenabled())
        return real_propagate(state)

    def pick_seen(state):
        seen["branch"].add(gc.isenabled())
        return real_pick(state)

    monkeypatch.setattr(solve, "propagate", propagate_seen)
    monkeypatch.setattr(solve, "_pick_branch_edge", pick_seen)
    result = solve_instance(parse_sudoku(PUZZLE4))
    assert result.status == "solved" and result.outcome.stats.nodes > 0
    assert seen == {"propagate": {False}, "branch": {True}}
    assert gc.isenabled()


def test_solve_instance_leaves_a_caller_disabled_collector_off(collector_restored):
    gc.disable()
    assert solve_instance(parse_sudoku(PUZZLE_35)).status == "solved"
    assert not gc.isenabled()


def _collections_started(call) -> int:
    starts = []

    def seen(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(seen)
    try:
        call()
    finally:
        gc.callbacks.remove(seen)
    return len(starts)


def test_no_collection_starts_inside_a_paused_call():
    assert gc.isenabled()
    text = export_graph(prune_fixed(build_hcp(9), parse_sudoku(PUZZLE_35))[0])
    assert _collections_started(lambda: import_graph(text)) == 0
    # unpaused, the same import meets the collector
    assert _collections_started(lambda: import_graph.__wrapped__(text)) > 0
    graph = undirect(import_graph(text))[0]
    assert _collections_started(lambda: reduce_graph(graph)) == 0


class TestNoCyclicGarbage:
    """With the collector off, as a paused call runs it, gc.collect() after
    each paused call finds nothing: what the calls drop is freed by
    reference counting.  Inputs are made before the first count."""

    @staticmethod
    def _none_left(call, *args):
        result = call(*args)
        assert gc.collect() == 0, call.__name__
        return result

    def _chain(self, inst: SudokuInstance, budget: SolveBudget):
        """The stage chain with its files, each paused call counted; the
        search's outcome, or None when reduce refutes the puzzle."""
        check = self._none_left
        directed = check(build_hcp, inst.order)
        directed, _ = check(prune_fixed, directed, inst)
        directed = check(import_graph, export_graph(directed))
        graph, lifter = check(undirect, directed)
        reduced = check(reduce_graph, graph)
        check(solve_instance, inst, PipelineConfig(budget=budget))
        if isinstance(reduced, Infeasible):
            return None
        graph, step = reduced
        graph = check(import_graph, export_graph(graph))
        check(load_journal, save_journal(lifter + step))
        return check(solve_hcp, graph, budget)

    def test_sparse_4x4_thinnings(self, collector_restored):
        # 1-3 clues, as the benchmark's sparse4 workload: the search backtracks
        rng = random.Random(404)
        solutions = all_order4_solutions()
        puzzles = [thinning(rng.choice(solutions), rng.randint(1, 3), rng) for _ in range(30)]
        gc.collect()
        gc.disable()
        outcomes = [self._chain(inst, SolveBudget()) for inst in puzzles]
        assert {o.status for o in outcomes} == {"cycle"}
        assert sum(o.stats.contradictions for o in outcomes) > 0

    def test_9x9_thinning_at_the_node_budget(self, collector_restored):
        inst = thinning(parse_grid(SOLUTION_35), 20, random.Random(9))
        gc.collect()
        gc.disable()
        assert self._chain(inst, SolveBudget(max_nodes=100)).status == "budget"

    @pytest.mark.parametrize("reader, text", [
        (import_graph, "DHCP 3 1\n1 x\n"),
        (import_graph, "UHCP 3 3\n1 2\n2 3\n"),
        (load_journal, "G 1 2 3\n"),
        (load_journal, "p 1 2\n"),
    ])
    def test_reader_errors(self, reader, text, collector_restored):
        gc.collect()
        gc.disable()
        with pytest.raises(ValueError):
            reader(text)
        assert gc.collect() == 0

