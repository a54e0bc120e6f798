"""Two ways to shrink an instance before solving, and their trade-off.

Triple compression deletes the removable middle vertex of every candidate
gadget (2N^3 vertices), which is useful when handing the file to an
external solver.  The degree-2 reduction contracts chains and strips
unusable edges; it thrives on pruned (clue-rich) instances but finds less
to do after compression, because compression eats the degree-2 vertices
it feeds on.  The default pipeline therefore reduces without compressing.
"""

from sudoku2hcp import (
    build_hcp,
    compress_triples,
    parse_sudoku,
    prune_fixed,
    reduce_graph,
    undirect,
)

line = ("060050710023079568070160004210000090050090400"
        "800600053031842070700000000000500306")
inst = parse_sudoku(line)

g = build_hcp(9)
pruned, removed = prune_fixed(g, inst)
ug, _ = undirect(pruned)
print(f"pruned 35-clue instance, undirected: {ug.n} vertices, {ug.m} edges")

cg, _ = compress_triples(ug)
print(f"after triple compression:           {cg.n} vertices, {cg.m} edges")

reduced, _ = reduce_graph(ug)
ratio = reduced.n / ug.n
print(f"after degree-2 reduction:           {reduced.n} vertices, "
      f"{reduced.m} edges ({ratio:.0%} of the undirected size)")

both, _ = reduce_graph(cg)
print(f"compression then reduction:         {both.n} vertices, {both.m} edges")
print()
print("reduction on the uncompressed graph wins by a wide margin here;")
print("more clues create more degree-2 chains and hence more contraction.")
