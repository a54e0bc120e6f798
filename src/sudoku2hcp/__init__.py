"""sudoku2hcp: generalised Sudoku as a Hamiltonian cycle problem.

Builds the directed encoding graph of an order-N puzzle, prunes arcs made
redundant by clues, converts to an undirected instance, shrinks it, solves
it with a forced-edge backtracking search (or exports it for an external
solver), and decodes solved grids back off the cycle.
"""

from .construct import (
    build_hcp,
    clue_redundant_arcs,
    prune_fixed,
    recover_solution,
    witness_cycle,
)
from .formats import (
    GraphStats,
    export_graph,
    export_tsplib_hcp,
    format_stats,
    graph_stats,
    import_graph,
    load_journal,
    read_cycle,
    save_journal,
    write_cycle,
)
from .graphs import DirectedGraph, UndirectedGraph
from .labels import (
    Role,
    arc_count,
    label_of,
    order_for_vertex_count,
    role_of,
    vertex_count,
)
from .pipeline import PipelineConfig, PipelineResult, solve_instance
from .solve import (
    Contradiction,
    SearchStats,
    SolveBudget,
    SolveOutcome,
    SolveState,
    format_stats_line,
    propagate,
    solve_directed,
    solve_hcp,
    verify_cycle,
)
from .sudoku import (
    Grid,
    SudokuInstance,
    Violation,
    blank_instance,
    block_of,
    cells_of_block,
    enumerate_solutions,
    format_grid,
    parse_grid,
    parse_sudoku,
    validate_grid,
)
from .transform import (
    Contraction,
    CycleLifter,
    EdgeDeletion,
    GadgetRemoval,
    Infeasible,
    Triplication,
    compress_triples,
    lift_cycle,
    reduce_graph,
    triplicate_cycle,
    undirect,
)

__version__ = "0.1.0"

__all__ = [
    "Contradiction",
    "Contraction",
    "CycleLifter",
    "DirectedGraph",
    "EdgeDeletion",
    "GadgetRemoval",
    "GraphStats",
    "Grid",
    "Infeasible",
    "PipelineConfig",
    "PipelineResult",
    "Role",
    "SearchStats",
    "SolveBudget",
    "SolveOutcome",
    "SolveState",
    "SudokuInstance",
    "Triplication",
    "UndirectedGraph",
    "Violation",
    "arc_count",
    "blank_instance",
    "block_of",
    "build_hcp",
    "cells_of_block",
    "clue_redundant_arcs",
    "compress_triples",
    "enumerate_solutions",
    "export_graph",
    "export_tsplib_hcp",
    "format_grid",
    "format_stats",
    "format_stats_line",
    "graph_stats",
    "import_graph",
    "label_of",
    "lift_cycle",
    "load_journal",
    "order_for_vertex_count",
    "parse_grid",
    "parse_sudoku",
    "propagate",
    "prune_fixed",
    "read_cycle",
    "recover_solution",
    "reduce_graph",
    "role_of",
    "save_journal",
    "solve_directed",
    "solve_hcp",
    "solve_instance",
    "triplicate_cycle",
    "undirect",
    "validate_grid",
    "verify_cycle",
    "vertex_count",
    "witness_cycle",
    "write_cycle",
]
