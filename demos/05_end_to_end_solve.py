"""Solve a 9x9 puzzle entirely through the graph pipeline.

Parse, encode, prune, undirect, reduce, search, lift the found cycle back
through the transform journal to the directed graph, and decode the grid.
The embedded solver's forced-edge propagation does almost all of the work
on a clue-rich instance; the node count printed below is the number of
branching decisions it needed on top of pure propagation.
"""

import time

from sudoku2hcp import (
    PipelineConfig,
    format_grid,
    format_stats_line,
    parse_sudoku,
    solve_instance,
    validate_grid,
)

line = ("060050710023079568070160004210000090050090400"
        "800600053031842070700000000000500306")
inst = parse_sudoku(line)
print(f"puzzle: 9x9 with {inst.clue_count} clues")

t0 = time.monotonic()
result = solve_instance(inst, PipelineConfig())
elapsed = time.monotonic() - t0

assert result.status == "solved"
assert validate_grid(inst, result.grid) == []
print(f"solved in {elapsed:.2f}s "
      f"(graph searched: {result.final_graph.n} vertices, "
      f"{result.final_graph.m} edges)")
print(format_stats_line(result.outcome.stats))
print()
print(format_grid(result.grid))

# the same run through the command line:
#   sudoku2hcp pipeline puzzle.txt --stats
