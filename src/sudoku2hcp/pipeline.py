"""End-to-end orchestration: puzzle to graph to cycle to solved grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .construct import build_hcp, prune_fixed, recover_solution
from .graphs import DirectedGraph, UndirectedGraph
from .solve import SolveBudget, SolveOutcome, solve_hcp, verify_cycle
from .sudoku import Grid, SudokuInstance, validate_grid
from .transform import CycleLifter, Infeasible, reduce_graph, undirect


@dataclass
class PipelineConfig:
    """Solve limits for one pipeline run: budget limits the search.

    prune and seed are fixed class attributes, not fields: the clues always
    reach the graph by pruning, and solve_hcp ignores its seed.  They are
    kept only because the benchmark harness reads them.
    """

    budget: SolveBudget = field(default_factory=SolveBudget)
    prune = True
    seed = 0


@dataclass
class PipelineResult:
    """status is 'solved', 'unsat' or 'budget'.  reason is the
    Infeasible reason when reduction decided 'unsat' without a search."""

    status: str
    grid: Grid | None
    outcome: SolveOutcome | None
    directed: DirectedGraph
    pruned_arcs: int
    final_graph: UndirectedGraph
    lifter: CycleLifter
    directed_cycle: list[int] | None = None
    reason: str | None = None


@lru_cache(maxsize=1)
def _blank_encoding(order: int) -> DirectedGraph:
    """The blank encoding of the last order asked for, kept for its next
    puzzle."""
    return build_hcp(order)


def solve_instance(
    instance: SudokuInstance, config: PipelineConfig | None = None
) -> PipelineResult:
    """Run the full pipeline on a parsed instance.

    Take the directed encoding with the clues' redundant arcs pruned and
    its undirected triplication, reduce it, search for a cycle, lift it
    back to the directed graph and decode the grid.  The decoded grid is
    checked against the encoding graph and the instance before it is
    returned.

    The blank encoding depends only on the order, so the last order's is
    kept (_blank_encoding) and built once for a run of puzzles of one
    order.  Every puzzle, blank or clued, is then pruned and triplicated
    as the stage chain does it: the graphs are those of
    undirect(prune_fixed(build_hcp(n), instance)).
    """
    if config is None:
        config = PipelineConfig()
    n = instance.order
    directed, pruned_arcs = prune_fixed(_blank_encoding(n), instance)
    graph, lifter = undirect(directed)
    # built once and filled in as each stage finishes; "unsat" stands
    # unless solve ends otherwise
    result = PipelineResult("unsat", None, None, directed, pruned_arcs, graph, lifter)

    reduced = reduce_graph(graph)
    if isinstance(reduced, Infeasible):
        result.reason = reduced.reason
        return result
    graph, step = reduced
    result.final_graph, result.lifter = graph, lifter + step

    outcome = result.outcome = solve_hcp(graph, config.budget)
    if outcome.status != "cycle":
        result.status = "unsat" if outcome.status == "no_cycle" else "budget"
        return result

    directed_cycle = result.directed_cycle = result.lifter.lift(outcome.cycle)
    if not verify_cycle(directed, directed_cycle):
        raise RuntimeError("internal error: lifted cycle failed verification")
    grid = recover_solution(directed_cycle, n)
    violations = validate_grid(instance, grid)
    if violations:
        raise RuntimeError(
            f"internal error: recovered grid violates {violations[:3]}"
        )
    result.status, result.grid = "solved", grid
    return result
