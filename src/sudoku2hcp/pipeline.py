"""End-to-end orchestration: puzzle to graph to cycle to solved grid."""

from __future__ import annotations

from dataclasses import dataclass, field

from .construct import build_hcp, prune_fixed, recover_solution
from .graphs import DirectedGraph, UndirectedGraph
from .solve import SolveBudget, SolveOutcome, solve_hcp, verify_cycle
from .sudoku import Grid, SudokuInstance, validate_grid
from .transform import CycleLifter, Infeasible, compress_triples, reduce_graph, undirect


@dataclass
class PipelineConfig:
    """Stage toggles and solve limits for one pipeline run."""

    prune: bool = True
    compress: bool = False
    reduce: bool = True
    budget: SolveBudget = field(default_factory=SolveBudget)
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

    Build the directed encoding, optionally prune for the clues, convert to
    undirected, optionally compress triples and reduce, search for a cycle,
    lift it back to the directed graph and decode the grid.  The decoded
    grid is checked against the encoding graph and the instance before it
    is returned.
    """
    if config is None:
        config = PipelineConfig()
    n = instance.order
    directed = build_hcp(n)
    pruned_arcs = 0
    if config.prune and instance.clues:
        directed, pruned_arcs = prune_fixed(directed, instance)

    graph, lifter = undirect(directed)
    if config.compress:
        graph, step = compress_triples(graph, n)
        lifter = lifter + step
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
    if config.prune:
        # the pruned graph only admits clue-honouring cycles; without
        # pruning the solver may legitimately return any valid grid
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
