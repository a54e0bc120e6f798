"""Hand an instance to an external HCP/TSP solver and read its answer back.

The undirected instance is written in TSPLIB HCP form (EDGE_LIST data),
which established solvers accept.  The transform journal is saved next to
it; when the external solver returns a cycle (a permutation of the vertex
ids), lifting it through the journal and decoding yields the grid, exactly
as with the embedded solver.
"""

import tempfile
from pathlib import Path

from sudoku2hcp import (
    build_hcp,
    export_tsplib_hcp,
    load_journal,
    parse_sudoku,
    prune_fixed,
    recover_solution,
    save_journal,
    solve_hcp,
    undirect,
    write_cycle,
)

line = ("060050710023079568070160004210000090050090400"
        "800600053031842070700000000000500306")
inst = parse_sudoku(line)

g, _ = prune_fixed(build_hcp(9), inst)
ug, lifter = undirect(g)

workdir = Path(tempfile.mkdtemp(prefix="sudoku2hcp_"))
tsp_path = workdir / "puzzle.hcp.tsp"
journal_path = workdir / "puzzle.journal"
tsp_path.write_text(export_tsplib_hcp(ug, "puzzle35"))
journal_path.write_text(save_journal(lifter))
print(f"wrote {tsp_path} ({ug.n} vertices, {ug.m} edges)")
print(f"wrote {journal_path}")
print()
print("an external solver would consume the .tsp file; here the embedded")
print("solver stands in for it and produces the same kind of cycle file:")

outcome = solve_hcp(ug)
assert outcome.status == "cycle"
cycle_path = workdir / "puzzle.cycle"
cycle_path.write_text(write_cycle(outcome.cycle))
print(f"wrote {cycle_path}")

# a separate invocation can now lift and decode using only the files
journal = load_journal(journal_path.read_text())
directed_cycle = journal.lift(outcome.cycle)
grid = recover_solution(directed_cycle, 9)
print()
print("decoded first row:", " ".join(str(grid.value(1, j)) for j in range(1, 10)))
print("(the command-line equivalent is: sudoku2hcp recover puzzle.cycle "
      "--journal puzzle.journal)")
