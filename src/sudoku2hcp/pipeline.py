"""End-to-end orchestration: puzzle to graph to cycle to solved grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .construct import build_hcp, prune_fixed, recover_solution, redundant_arcs
from .graphs import DirectedGraph, UndirectedGraph
from .solve import SolveBudget, SolveOutcome, solve_hcp, verify_cycle
from .sudoku import Grid, SudokuInstance, validate_grid
from .transform import CycleLifter, Infeasible, reduce_graph, undirect, undirect_without


@dataclass
class PipelineConfig:
    """Stage toggles and solve limits for one pipeline run.

    prune removes the arcs the clues make redundant, which is how the clues
    reach the graph; without it solve_instance takes only blank instances.
    reduce runs reduce_graph before the search.  budget
    limits the search.  seed is passed to solve_hcp and has no effect.
    """

    # kept for the benchmark harness, which reads it; the CLI always prunes
    prune: bool = True
    reduce: bool = True
    budget: SolveBudget = field(default_factory=SolveBudget)
    # kept for the benchmark harness, which passes it on to solve_hcp
    seed: int = 0


@dataclass
class PipelineResult:
    """status is 'solved', 'unsat' or 'budget'.  reason is the
    Infeasible reason when reduction decided 'unsat' without a search.
    For a blank instance, directed and final_graph may be the graphs
    solve_instance keeps for its order, shared with later results; graphs
    are immutable (see graphs.py), so they are not to be changed."""

    status: str
    grid: Grid | None
    outcome: SolveOutcome | None
    directed: DirectedGraph
    pruned_arcs: int
    final_graph: UndirectedGraph
    lifter: CycleLifter
    directed_cycle: list[int] | None = None
    reason: str | None = None


class _BlankEncoding:
    """The blank encoding of one order, kept for the next puzzle of it.

    Its triplication is made for the first blank puzzle or the second
    puzzle of the order, whichever comes first.  Until then a clued puzzle
    is pruned and triplicated as the stage chain does it, so a lone puzzle
    costs what it cost without the cache: triplicating the blank encoding
    for one puzzle and deleting from it costs more than triplicating the
    pruned graph."""

    def __init__(self, order: int):
        self.directed = build_hcp(order)
        self.seen = False

    @cached_property
    def triplication(self) -> tuple[UndirectedGraph, CycleLifter]:
        return undirect(self.directed)


@lru_cache(maxsize=1)
def _blank_encoding(order: int) -> _BlankEncoding:
    return _BlankEncoding(order)


def solve_instance(
    instance: SudokuInstance, config: PipelineConfig | None = None
) -> PipelineResult:
    """Run the full pipeline on a parsed instance.

    Take the directed encoding with the clues' redundant arcs pruned and
    its undirected triplication, optionally reduce, search for a cycle,
    lift it back to the directed graph and decode the grid.  The decoded
    grid is checked against the encoding graph and the instance before it
    is returned.  Raises ValueError, before building anything, when
    config.prune is False and the instance has clues.

    The blank encoding and its triplication depend only on the order, so
    the last order's are kept (see _BlankEncoding), and a later clued
    instance of that order derives its graphs from them by deletion
    (without_arcs, undirect_without).  The graphs equal those of
    undirect(prune_fixed(build_hcp(n), instance)).  For a blank instance
    the kept graphs are returned as they are.
    """
    if config is None:
        config = PipelineConfig()
    if not config.prune and instance.clues:
        raise ValueError(
            "clues reach the graph only by pruning: prune=False needs a blank instance"
        )
    n = instance.order
    blank = _blank_encoding(n)
    directed, pruned_arcs = blank.directed, 0
    if not instance.clues:
        graph, lifter = blank.triplication
    elif not blank.seen:
        directed, pruned_arcs = prune_fixed(directed, instance)
        graph, lifter = undirect(directed)
    else:
        # clue order, duplicates and all: both deletions take an arc given
        # twice once, and a hashed set's order made them slower at order 16
        removed = list(redundant_arcs(instance))
        directed = directed.without_arcs(removed)
        pruned_arcs = blank.directed.m - directed.m
        graph, lifter = blank.triplication
        graph = undirect_without(graph, removed)
    blank.seen = True

    if config.reduce:
        reduced = reduce_graph(graph)
        if isinstance(reduced, Infeasible):
            return PipelineResult(
                "unsat",
                None,
                None,
                directed,
                pruned_arcs,
                graph,
                lifter,
                reason=reduced.reason,
            )
        graph, step = reduced
        lifter = lifter + step

    outcome = solve_hcp(graph, config.budget, config.seed)
    if outcome.status != "cycle":
        status = "unsat" if outcome.status == "no_cycle" else "budget"
        return PipelineResult(
            status, None, outcome, directed, pruned_arcs, graph, lifter
        )

    directed_cycle = lifter.lift(outcome.cycle)
    if not verify_cycle(directed, directed_cycle):
        raise RuntimeError("internal error: lifted cycle failed verification")
    grid = recover_solution(directed_cycle, n)
    violations = validate_grid(instance, grid)
    if violations:
        raise RuntimeError(
            f"internal error: recovered grid violates {violations[:3]}"
        )
    return PipelineResult(
        "solved",
        grid,
        outcome,
        directed,
        pruned_arcs,
        graph,
        lifter,
        directed_cycle,
    )
