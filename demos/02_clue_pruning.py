"""Fixing a value removes arcs the cycle could never use.

Each clue makes twelve families of N-1 arcs redundant: the wrong block
commits, their crossover and return hops, and the wrong row and column
collections, 12N - 12 arcs in total.  Families of different clues can
overlap, so with many clues the removal count per clue drops below that
bound; the pruner removes the union.
"""

from sudoku2hcp import SudokuInstance, build_hcp, prune_fixed

g = build_hcp(9)
print(f"blank 9x9 encoding: {g.n} vertices, {g.m} arcs")

one, removed = prune_fixed(g, SudokuInstance(9, {(1, 1): 5}))
print(f"one clue: removed {removed} arcs (12N - 12 = {12 * 9 - 12})")

# a second clue in the same block shares some redundant arcs with the first
pair = SudokuInstance(9, {(1, 1): 1, (1, 2): 2})
_, removed_pair = prune_fixed(g, pair)
print(f"two clues in one block: removed {removed_pair} arcs "
      f"(less than 2 x 96 = 192 because the families overlap)")

# a realistic 35-clue puzzle
line = ("060050710023079568070160004210000090050090400"
        "800600053031842070700000000000500306")
from sudoku2hcp import parse_sudoku

inst = parse_sudoku(line)
pruned, removed_35 = prune_fixed(g, inst)
print(f"35 clues: removed {removed_35} arcs "
      f"({removed_35 / 35:.1f} per clue on average), "
      f"{pruned.m} arcs remain")
