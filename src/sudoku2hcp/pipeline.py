"""End-to-end orchestration: puzzle to graph to cycle to solved grid."""

from __future__ import annotations

from dataclasses import dataclass, field

from .construct import build_hcp, prune_fixed, recover_solution
from .graphs import DirectedGraph, UndirectedGraph
from .solve import SolveBudget, SolveOutcome, solve_hcp, verify_cycle
from .sudoku import Grid, SudokuInstance, validate_grid
from .transform import CycleLifter, Infeasible, reduce_graph, undirect


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


def solve_instance(
    instance: SudokuInstance, config: PipelineConfig | None = None
) -> PipelineResult:
    """Run the full pipeline on a parsed instance.

    Build the directed encoding, prune for the clues, convert to undirected,
    optionally reduce, search for a cycle, lift it back to the directed
    graph and decode the grid.  The decoded grid is checked against the
    encoding graph and the instance before it is returned.  Raises
    ValueError, before building anything, when config.prune is False and
    the instance has clues.
    """
    if config is None:
        config = PipelineConfig()
    if not config.prune and instance.clues:
        raise ValueError(
            "clues reach the graph only by pruning: prune=False needs a blank instance"
        )
    n = instance.order
    directed = build_hcp(n)
    pruned_arcs = 0
    if instance.clues:
        directed, pruned_arcs = prune_fixed(directed, instance)

    graph, lifter = undirect(directed)
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
