import random
import re
import tracemalloc
from collections import Counter

import pytest

from sudoku2hcp import (
    CycleLifter,
    DirectedGraph,
    Infeasible,
    SudokuInstance,
    UndirectedGraph,
    blank_instance,
    build_hcp,
    compress_triples,
    export_graph,
    parse_sudoku,
    prune_fixed,
    recover_solution,
    reduce_graph,
    solve_hcp,
    solve_instance,
    undirect,
    verify_cycle,
    witness_cycle,
)
from sudoku2hcp.formats import load_journal, save_journal
from sudoku2hcp.labels import label_cand, label_dup, vertex_count
from sudoku2hcp import transform
from sudoku2hcp.transform import Contraction, GadgetRemoval, Triplication, _reduce_directed
from _support import (
    PUZZLE_35,
    EdgeDeletion,
    PairContraction,
    all_order4_solutions,
    all_undirected_hamiltonian_cycles,
    brute_directed_hamiltonian,
    brute_undirected_hamiltonian,
    folded_runs,
    peak_bytes,
    random_consistent_instance,
    random_directed_arcs,
    random_undirected,
    reduce_graph_by_passes,
    stage16_seed101_puzzles,
    storage,
    thinning,
    triplicate_cycle,
    well_formed_order4,
)


class TestUndirect:
    def test_order9_counts(self):
        ug, _ = undirect(build_hcp(9))
        assert ug.n == 14397
        assert ug.m == 23631  # 2*4799 + 14033

    @pytest.mark.parametrize("n", [4, 9])
    def test_closed_forms(self, n):
        ug, _ = undirect(build_hcp(n))
        assert ug.n == 18 * n**3 + 15 * n**2 + 6 * n + 6
        assert ug.m == 31 * n**3 + 12 * n**2 + 6 * n + 6

    def test_single_arc_graph(self):
        ug, _ = undirect(DirectedGraph(2, [(1, 2)]))
        assert ug.n == 6
        assert set(ug.edges()) == {(1, 2), (2, 3), (4, 5), (5, 6), (3, 4)}

    def test_average_degree_values(self):
        ug4, _ = undirect(build_hcp(4))
        ug9, _ = undirect(build_hcp(9))
        assert round(2 * ug4.m / ug4.n, 4) == 3.1027
        assert round(2 * ug9.m / ug9.n, 4) == 3.2828

    def test_hamiltonicity_preserved_on_random_graphs(self):
        rng = random.Random(20250501)
        checked = 0
        for _ in range(50):
            n = rng.randint(3, 10)
            arcs = random_directed_arcs(rng, n, 0.3)
            try:
                g = DirectedGraph(n, arcs)
            except ValueError:
                continue
            directed = brute_directed_hamiltonian(n, arcs) is not None
            ug, _ = undirect(g)
            undirected = (
                brute_undirected_hamiltonian(ug.n, set(ug.edges())) is not None
            )
            assert directed == undirected
            checked += 1
        assert checked >= 50 - 1


def undirect_by_edge_list(g: DirectedGraph) -> UndirectedGraph:
    """The triplication through the public constructor, which sorts and
    checks the edge list it is given."""
    edges = []
    for v in range(1, g.n + 1):
        edges += [(3 * v - 2, 3 * v - 1), (3 * v - 1, 3 * v)]
    edges += [(3 * u, 3 * v - 2) for u, v in g.arcs()]
    return UndirectedGraph(3 * g.n, edges)


class TestUndirectMatchesEdgeList:
    # undirect stores the adjacency it derives unchecked, so it must come
    # out exactly as the checking constructor would store it

    def test_random_digraphs(self):
        rng = random.Random(70)
        shapes = {"n=1": 0, "isolated": 0, "no in-arcs": 0, "no out-arcs": 0}
        for _ in range(600):
            n = rng.randint(1, 12)
            g = DirectedGraph(n, random_directed_arcs(rng, n, rng.choice((0.05, 0.15, 0.4, 0.8))))
            heads = {v for _, v in g.arcs()}
            shapes["n=1"] += n == 1
            shapes["isolated"] += any(
                v not in heads and v not in g._adj for v in range(1, n + 1)
            )
            shapes["no in-arcs"] += len(heads) < n
            shapes["no out-arcs"] += len(g._adj) < n
            ug, lifter = undirect(g)
            assert storage(ug) == storage(undirect_by_edge_list(g))
            assert lifter == CycleLifter((Triplication(n),))
        assert min(shapes.values()) >= 20, shapes

    @pytest.mark.parametrize("order", [4, 9])
    def test_encoding_graphs_blank_and_pruned(self, order):
        g = build_hcp(order)
        text = PUZZLE_35 if order == 9 else "1...2..3......2."
        pruned, _ = prune_fixed(g, parse_sudoku(text))
        for d in (g, pruned):
            assert storage(undirect(d)[0]) == storage(undirect_by_edge_list(d))


class TestProject:
    # lifting through a bare triplication journal projects the cycle
    # back onto the directed graph

    def test_two_vertex_cycle(self):
        lifter = CycleLifter((Triplication(2),))
        assert lifter.lift([1, 2, 3, 4, 5, 6]) == [1, 2]
        assert lifter.lift([6, 5, 4, 3, 2, 1]) == [1, 2]
        # any rotation, in either direction
        assert lifter.lift([4, 5, 6, 1, 2, 3]) == [1, 2]
        assert lifter.lift([2, 1, 6, 5, 4, 3]) == [1, 2]

    def test_witness_round_trip(self):
        g = build_hcp(4)
        ug, lifter = undirect(g)
        assert lifter == CycleLifter((Triplication(g.n),))
        sol = all_order4_solutions()[42]
        w = witness_cycle(blank_instance(4), sol)
        tc = triplicate_cycle(w)
        assert verify_cycle(ug, tc)
        back = lifter.lift(tc)
        assert verify_cycle(g, back)
        assert recover_solution(back, 4) == sol

    def test_broken_triple_rejected(self):
        lifter = CycleLifter((Triplication(2),))
        with pytest.raises(ValueError, match="triples"):
            lifter.lift([1, 2, 4, 3, 5, 6])

    def test_every_rotation_and_direction_lifts_to_one_cycle(self):
        # the directed cycle comes back from vertex 1, in arc order, from
        # wherever the triplication's cycle starts and whichever way it runs
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 7)
            arcs = random_directed_arcs(rng, n, 0.5)
            want = brute_directed_hamiltonian(n, arcs)
            if want is None:
                continue
            assert want[0] == 1
            _, lifter = undirect(DirectedGraph(n, arcs))
            tc = triplicate_cycle(want)
            for c in (tc, tc[::-1]):
                for k in range(len(c)):
                    assert lifter.lift(c[k:] + c[:k]) == want
            checked += 1

    def test_solver_cycle_rotations_lift_to_the_pipelines_cycle(self):
        rng = random.Random(29)
        for _ in range(3):
            inst, _ = well_formed_order4(rng)
            result = solve_instance(inst)
            assert result.status == "solved"
            cyc = result.outcome.cycle
            for c in (cyc, cyc[::-1]):
                for k in range(len(c)):
                    assert result.lifter.lift(c[k:] + c[:k]) == result.directed_cycle


class TestCompress:
    @pytest.mark.parametrize(
        "n,vertices,edges", [(4, 1294, 2078), (9, 12939, 22173)]
    )
    def test_counts(self, n, vertices, edges):
        assert vertices == 16 * n**3 + 15 * n**2 + 6 * n + 6
        assert edges == 29 * n**3 + 12 * n**2 + 6 * n + 6
        ug, _ = undirect(build_hcp(n))
        cg, _ = compress_triples(ug)
        assert cg.n == vertices
        assert cg.m == edges
        assert ug.n - cg.n == 2 * n**3
        assert ug.m - cg.m == 2 * n**3

    def test_end_to_end_blank_order4(self):
        g = build_hcp(4)
        ug, lifter = undirect(g)
        cg, step = compress_triples(ug)
        outcome = solve_hcp(cg)
        assert outcome.status == "cycle"
        directed = (lifter + step).lift(outcome.cycle)
        assert verify_cycle(g, directed)
        grid = recover_solution(directed, 4)
        assert grid in all_order4_solutions()

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            compress_triples(UndirectedGraph(5, [(1, 2)]))

    def test_order_read_off_the_vertex_count(self):
        # n // 3 names no order, or n is 3V + 1 for an order's count V
        v = vertex_count(4)
        for n, match in [(3 * v + 3, f"^{v + 1} is not a vertex count of any order$"),
                         (3 * v + 1, f"^graph has {3 * v + 1} vertices, not the triplication")]:
            with pytest.raises(ValueError, match=match):
                compress_triples(UndirectedGraph(n, [(1, 2)]))

    def test_header_only_rejected_before_the_middles(self):
        # the size of an order-100 triplication and no edges: rejected
        # before the 2N^3 = 2,000,000 gadget middles are listed
        g = UndirectedGraph(3 * vertex_count(100), [])

        def attempt():
            with pytest.raises(ValueError, match="^0 edges cannot cover 18150606 vertices$"):
                compress_triples(g)

        assert peak_bytes(attempt) < 1_000_000

    def test_low_degree_rejected(self):
        ug, _ = undirect(build_hcp(4))
        # in-copy 1 keeps only its edge to its middle, 2
        g = UndirectedGraph(ug.n, [e for e in ug.edges() if 1 not in e or e == (1, 2)])
        assert g.m >= g.n
        with pytest.raises(ValueError, match="^vertex 1 has degree 1$"):
            compress_triples(g)

    def test_right_size_non_encoding_keeps_its_error(self):
        # every degree 2 and m = n, but v's neighbours are v - 2 and v + 2
        n = 3 * vertex_count(4)
        g = UndirectedGraph(n, [(v, (v + 1) % n + 1) for v in range(1, n + 1)])
        with pytest.raises(ValueError, match="is not a removable gadget middle"):
            compress_triples(g)


def gadget_middles(order: int) -> list[int]:
    """The 2N^3 removable middles, in the descending order compress visits."""
    r = range(1, order + 1)
    slot2 = [f(i, j, k, 2, order) for i in r for j in r for k in r for f in (label_cand, label_dup)]
    return sorted((3 * v - 1 for v in slot2), reverse=True)


def compress_by_edge_list(g: UndirectedGraph, order: int):
    """compress_triples as it was before it worked on g's own tuples: the
    same records, and the graph from the public, checking constructor
    over the renumbered edge list with the bridges added."""
    mids = gadget_middles(order)
    gone = set(mids)
    alive = [v for v in range(1, g.n + 1) if v not in gone]
    new_id = {v: idx for idx, v in enumerate(alive, 1)}
    edges = [(new_id[a], new_id[b]) for a, b in g.edges() if a in new_id and b in new_id]
    edges.extend((new_id[mv - 1], new_id[mv + 1]) for mv in mids)
    records = tuple(GadgetRemoval(mv, mv - 1, mv + 1) for mv in mids)
    return UndirectedGraph(len(alive), edges), records


def assert_compress_matches_edge_list(g: UndirectedGraph, order: int):
    """compress_triples(g), for g of an order-`order` encoding, stored tuple
    for tuple as the edge-list rebuild's graph, with the same journal text,
    and g stored as it was."""
    n, m, keys, adj = storage(g)
    before = (n, m, keys, dict(adj))
    out, lifter = compress_triples(g)
    assert storage(g) == before
    want, records = compress_by_edge_list(g, order)
    assert storage(out) == storage(want)
    assert save_journal(lifter) == save_journal(CycleLifter(records))


class TestCompressMatchesEdgeList:
    """compress_triples against the edge-list rebuild it replaced."""

    @pytest.mark.parametrize("order", [4, 9])
    def test_blank(self, order):
        assert_compress_matches_edge_list(undirect(build_hcp(order))[0], order)

    def test_order4_thinnings(self):
        rng = random.Random(404)
        for _ in range(30):
            assert_compress_matches_edge_list(thinned_order4_graph(rng), 4)

    def test_puzzle_35(self):
        pruned, _ = prune_fixed(build_hcp(9), parse_sudoku(PUZZLE_35))
        assert_compress_matches_edge_list(undirect(pruned)[0], 9)

    def test_checks_run_from_the_largest_middle(self):
        # the bridge at one middle and an extra edge at the other: the
        # error names the larger of the two, whichever fault it has
        ug, _ = undirect(build_hcp(4))
        hi, lo = gadget_middles(4)[:2]
        faults = [(lo, hi, f"^vertex {hi} is not"), (hi, lo, f"^bridge \\({hi - 1}, ")]
        for bridged, extra, match in faults:
            edges = [*ug.edges(), (bridged - 1, bridged + 1), (extra, 1)]
            with pytest.raises(ValueError, match=match):
                compress_triples(UndirectedGraph(ug.n, edges))


def cycle_graph(n):
    return UndirectedGraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


class TestReduce:
    def test_chain_contracts(self):
        # 1-2-3-4 path inside a ring: degree-2 chain collapses
        g = cycle_graph(6)
        out = reduce_graph(g)
        assert not isinstance(out, Infeasible)
        reduced, lifter = out
        assert reduced.n == 3  # terminal triangle
        lifted = lifter.lift([1, 2, 3])
        assert verify_cycle(g, lifted)

    def test_rule2_deletes_extra_edges(self):
        # ring of 8 plus two chords at vertex 1; the chords can never be
        # used because 1 already has two degree-2 neighbours
        edges = [(i, i % 8 + 1) for i in range(1, 9)] + [(1, 4), (1, 6)]
        g = UndirectedGraph(8, edges)
        out = reduce_graph(g)
        assert not isinstance(out, Infeasible)
        reduced, lifter = out
        _, passes = reduce_graph_by_passes(g)
        deleted = [r for r in passes if isinstance(r, EdgeDeletion)]
        assert deleted and deleted[0].edges == ((1, 4), (1, 6))
        # the journal keeps no record of the deleted edges
        assert all(isinstance(r, Contraction) for r in lifter.records)
        assert reduced.n == 3  # the remaining ring collapses to a triangle
        lifted = lifter.lift([1, 2, 3])
        assert verify_cycle(g, lifted)
        assert lifted == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_three_degree2_neighbours_infeasible(self):
        # vertex 1 adjacent to three degree-2 vertices
        edges = [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (1, 5)]
        g = UndirectedGraph(5, edges)
        out = reduce_graph(g)
        assert isinstance(out, Infeasible)
        assert brute_undirected_hamiltonian(5, set(g.edges())) is None

    def test_forced_short_cycle_infeasible(self):
        # a triangle hanging off a larger graph via one vertex
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
        g = UndirectedGraph(6, edges)
        out = reduce_graph(g)
        assert isinstance(out, Infeasible)
        assert brute_undirected_hamiltonian(6, set(g.edges())) is None

    def test_fewer_edges_than_vertices_short_circuit(self):
        g = UndirectedGraph(100_000, [(1, 2), (2, 3), (1, 3)])
        tracemalloc.start()
        try:
            reduced = reduce_graph(g)
            outcome = solve_hcp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reduced == Infeasible("3 edges cannot cover 100000 vertices")
        assert outcome.status == "no_cycle"
        assert peak < 1_000_000

    def test_low_degree_short_circuit(self):
        # m >= n, but the header claims 100000 vertices and the edges touch
        # only 450 of them: vertex 451 has no edge
        edges = [(a, b) for a in range(1, 451) for b in range(a + 1, 451)]
        g = UndirectedGraph(100_000, edges)
        assert g.m == 101_025
        tracemalloc.start()
        try:
            reduced = reduce_graph(g)
            outcome = solve_hcp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reduced == Infeasible("vertex 451 has degree 0")
        assert outcome.status == "no_cycle"
        assert outcome.stats.nodes == 0
        assert peak < 1_000_000

    def test_low_degree_infeasible(self):
        g = UndirectedGraph(4, [(1, 2), (2, 3), (3, 4)])
        assert isinstance(reduce_graph(g), Infeasible)

    def test_small_graph_rejected(self):
        for n, edges in ((0, []), (1, []), (2, [(1, 2)])):
            with pytest.raises(ValueError, match="reduction expects at least 3 vertices"):
                reduce_graph(UndirectedGraph(n, edges))

    def test_triangle_comes_back_unchanged(self):
        # the terminal graph of the reduction reduces to itself, so reduce
        # accepts its own output; with an edge missing, it is uncoverable
        triangle = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        reduced, lifter = reduce_graph(triangle)
        assert storage(reduced) == storage(triangle) and lifter == CycleLifter()
        path = UndirectedGraph(3, [(1, 2), (2, 3)])
        assert reduce_graph(path) == Infeasible("2 edges cannot cover 3 vertices")
        assert reduce_graph_by_passes(triangle) == (triangle, ())
        assert reduce_graph_by_passes(path) == reduce_graph(path)

    def test_fixpoint_postcondition(self):
        g = build_hcp(9)
        inst = SudokuInstance(9, dict.fromkeys([(1, 1)], 5))
        pruned, _ = prune_fixed(g, inst)
        ug, _ = undirect(pruned)
        out = reduce_graph(ug)
        assert not isinstance(out, Infeasible)
        reduced, _ = out
        assert reduced.n < ug.n
        for v in range(1, reduced.n + 1):
            if len(reduced._adj[v]) == 2:
                assert all(len(reduced._adj[u]) != 2 for u in reduced._adj[v])

    def test_deterministic(self):
        rng = random.Random(11)
        from _support import random_undirected

        for _ in range(10):
            g = random_undirected(rng, 12, 0.35)
            if any(len(g._adj.get(v, ())) < 2 for v in range(1, 13)):
                continue
            a = reduce_graph(g)
            b = reduce_graph(g)
            if isinstance(a, Infeasible):
                assert a == b
            else:
                assert a[0] == b[0]
                assert a[1] == b[1]

    def test_solution_preserving_on_order4(self):
        rng = random.Random(77)
        g4 = build_hcp(4)
        for _ in range(12):
            inst, sol = well_formed_order4(rng)
            pruned, _ = prune_fixed(g4, inst)
            ug, lifter = undirect(pruned)
            out = reduce_graph(ug)
            assert not isinstance(out, Infeasible)
            reduced, step = out
            before = solve_hcp(ug).status
            after = solve_hcp(reduced).status
            assert before == after == "cycle"
            cyc = solve_hcp(reduced).cycle
            directed = (lifter + step).lift(cyc)
            assert verify_cycle(pruned, directed)
            assert recover_solution(directed, 4) == sol



def canonical_cycle(cycle: list[int]) -> tuple[int, ...]:
    """cycle as all_undirected_hamiltonian_cycles lists it: from vertex 1,
    in the direction whose second vertex is smaller than its last."""
    k = cycle.index(1)
    c = cycle[k:] + cycle[:k]
    if c[1] > c[-1]:
        c = [c[0]] + c[:0:-1]
    return tuple(c)


def check_lift_of_reduce(g: UndirectedGraph):
    """reduce_graph(g) against brute force: Infeasible only when g has no
    Hamiltonian cycle, and otherwise lifting every Hamiltonian cycle of the
    reduced graph gives every one of g's, each once.  Returns the answer."""
    want = all_undirected_hamiltonian_cycles(g.n, g.edges())
    out = reduce_graph(g)
    if isinstance(out, Infeasible):
        assert want == [], (list(g.edges()), out.reason)
        return out
    reduced, lifter = out
    lifted = [
        canonical_cycle(lifter.lift(list(c)))
        for c in all_undirected_hamiltonian_cycles(reduced.n, reduced.edges())
    ]
    assert len(set(lifted)) == len(lifted)
    assert set(lifted) == set(want), list(g.edges())
    return out


class TestLiftOfReduceAgainstBruteForce:
    def test_random_graphs(self):
        rng = random.Random(5151)
        infeasible = shrunk = 0
        for _ in range(600):
            n = rng.randint(4, 9)
            out = check_lift_of_reduce(random_undirected(rng, n, rng.choice((0.3, 0.5, 0.7))))
            if isinstance(out, Infeasible):
                infeasible += 1
            else:
                shrunk += out[0].n < n
        # the seed gives 356 infeasible graphs and 244 compared, 44 of
        # them shrunk
        assert 200 < infeasible < 500 and shrunk > 20, (infeasible, shrunk)

    def test_rings_with_chords(self):
        # a Hamiltonian ring and up to n chords: many degree-2 vertices,
        # so both rules fire and every graph has a cycle to lift
        rng = random.Random(6262)
        shrunk = deleted = 0
        for _ in range(600):
            n = rng.randint(4, 9)
            ring = rng.sample(range(1, n + 1), n)
            edges = {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
            for _ in range(rng.randint(0, n)):
                a, b = rng.sample(range(1, n + 1), 2)
                edges.add((min(a, b), max(a, b)))
            g = UndirectedGraph(n, sorted(edges))
            reduced, _ = check_lift_of_reduce(g)
            shrunk += reduced.n < n
            # a contraction keeps m - n, a rule-2 deletion lowers it
            deleted += reduced.m - reduced.n < g.m - g.n
        # the seed gives 469 shrunk and 279 with deletions
        assert shrunk > 300 and deleted > 150, (shrunk, deleted)

def by_survivor(records) -> list:
    return sorted(records, key=lambda r: r.survivor)


def reduce_text(out):
    """What reduce_graph's answer pins: the Infeasible reason, or the
    reduced graph's file text and storage, and the journal's records by
    survivor."""
    if isinstance(out, Infeasible):
        return out.reason
    reduced, lifter = out
    return export_graph(reduced), storage(reduced), by_survivor(lifter.records)


def oracle_text(out):
    """The same for reduce_graph_by_passes, with its pair contractions
    folded into one record per surviving run; its graph comes from the
    public, checking constructor."""
    if isinstance(out, Infeasible):
        return out.reason
    reduced, records = out
    return export_graph(reduced), storage(reduced), by_survivor(folded_runs(records))


def random_reduce_input(rng: random.Random) -> UndirectedGraph:
    """n in 4..40 and m in n..3n (at most every pair); every other graph
    contains a random Hamiltonian cycle, so most of those pass the degree
    check and exercise both rules."""
    n = rng.randint(4, 40)
    m = rng.randint(n, min(3 * n, n * (n - 1) // 2))
    edges = set()
    if rng.random() < 0.5:
        ring = rng.sample(range(1, n + 1), n)
        edges.update(
            (min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])
        )
    while len(edges) < m:
        a, b = rng.sample(range(1, n + 1), 2)
        edges.add((min(a, b), max(a, b)))
    return UndirectedGraph(n, sorted(edges))


def thinned_order4_graph(rng: random.Random) -> UndirectedGraph:
    solution = rng.choice(all_order4_solutions())
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    cells = rng.sample(cells, rng.randint(1, 3))
    inst = SudokuInstance(4, {c: solution.value(*c) for c in cells})
    pruned, _ = prune_fixed(build_hcp(4), inst)
    return undirect(pruned)[0]


def random_triplication(rng: random.Random) -> UndirectedGraph:
    """The triplication of a digraph on 3..12 vertices, half of them
    holding a random Hamiltonian cycle, in which up to half the vertices
    keep one out-arc and up to half one in-arc: a degree-2 in- or out-copy
    next to its degree-2 middle lets rule 1 contract and rule 2 delete."""
    n = rng.randint(3, 12)
    arcs = set(random_directed_arcs(rng, n, rng.uniform(0.1, 0.6)))
    if rng.random() < 0.5:
        ring = rng.sample(range(1, n + 1), n)
        arcs.update(zip(ring, ring[1:] + ring[:1]))
    for side in (0, 1):
        for v in rng.sample(range(1, n + 1), rng.randint(0, n // 2)):
            at_v = sorted(a for a in arcs if a[side] == v)
            if at_v:
                arcs.difference_update(at_v)
                arcs.add(rng.choice(at_v))
    return undirect(DirectedGraph(n, sorted(arcs)))[0]


def checked_reduce(g: UndirectedGraph):
    """reduce_graph(g), checked to leave g stored as it was: the reduction
    works on g's own neighbour tuples."""
    n, m, keys, adj = storage(g)
    before = (n, m, keys, dict(adj))
    out = reduce_graph(g)
    assert storage(g) == before
    return out


def runs_from_smaller_neighbour(rec: Contraction) -> bool:
    """The orientation reduce_graph gives a path it collapses in one sweep:
    the survivor's neighbour before it on the path (or ends[0]) has a
    smaller id than the one after it (or ends[1])."""
    k = rec.path.index(rec.survivor)
    before = rec.path[k - 1] if k else rec.ends[0]
    after = rec.path[k + 1] if k + 1 < len(rec.path) else rec.ends[1]
    return before < after


def assert_matches_oracle(g: UndirectedGraph):
    """checked_reduce(g) against the pass-by-pass scan, with every path
    following the orientation rule.  The records are compared by survivor:
    the sweep writes them in ascending survivor, the fold as each run last
    changed.  Only in a terminal triangle does one record's end lie on
    another's path, so there both cycles of the triangle are lifted too.
    Returns the oracle's answer."""
    out = checked_reduce(g)
    want = reduce_graph_by_passes(g)
    assert reduce_text(out) == oracle_text(want), list(g.edges())
    if not isinstance(out, Infeasible):
        reduced, lifter = out
        assert all(map(runs_from_smaller_neighbour, lifter.records))
        if reduced.n == 3:
            for c in ([1, 2, 3], [3, 2, 1]):
                assert verify_cycle(g, lifter.lift(c)), list(g.edges())
    return want


def assert_pair_journal_lifts_alike(g: UndirectedGraph) -> bool:
    """When the reduced triplication g has a cycle, the journal of the
    scan's pair contractions, each written as a two-vertex path record the
    way journals of one record per contracted pair were, lifts the
    solver's cycle to the same directed cycle as reduce_graph's journal,
    also after a text round trip.  Returns whether there was a cycle."""
    out = reduce_graph(g)
    if isinstance(out, Infeasible):
        return False
    reduced, lifter = out
    outcome = solve_hcp(reduced)
    if outcome.status != "cycle":
        return False
    pairs = tuple(
        Contraction(r.survivor, (r.survivor, r.absorbed), (r.attach_survivor, r.attach_absorbed))
        for r in reduce_graph_by_passes(g)[1]
        if isinstance(r, PairContraction)
    )
    head = (Triplication(g.n // 3),)
    want = CycleLifter(head + lifter.records).lift(outcome.cycle)
    old = load_journal(save_journal(CycleLifter(head + pairs)))
    assert old.lift(outcome.cycle) == want, list(g.edges())
    return True


class TestReduceMatchesPassByPass:
    """reduce_graph against the pass-by-pass scan it replaced: the same
    reduced graph, the same reasons, and one record per surviving run,
    the scan's pair contractions folded."""

    def test_random_graphs(self):
        rng = random.Random(2024)
        infeasible = 0
        for _ in range(2400):
            want = assert_matches_oracle(random_reduce_input(rng))
            infeasible += isinstance(want, Infeasible)
        # both outcomes are well represented
        assert 400 < infeasible < 2000

    def test_random_triplications(self):
        rng = random.Random(909)
        infeasible = by_rules = deletions = contractions = solved = 0
        for _ in range(1500):
            g = random_triplication(rng)
            want = assert_matches_oracle(g)
            if isinstance(want, Infeasible):
                infeasible += 1
                by_rules += "neighbours" in want.reason or "double" in want.reason
                continue
            records = want[1]
            deletions += any(isinstance(r, EdgeDeletion) for r in records)
            contractions += any(isinstance(r, PairContraction) for r in records)
            solved += assert_pair_journal_lifts_alike(g)
        # infeasible and reduced graphs, the rules deciding some of the
        # former and both firing on many of the latter
        assert 300 < infeasible < 1200 and by_rules > 100
        assert deletions > 150 and contractions > 300 and solved > 200

    def test_order4_thinnings(self):
        rng = random.Random(31)
        for _ in range(30):
            g = thinned_order4_graph(rng)
            assert_matches_oracle(g)
            assert assert_pair_journal_lifts_alike(g)

    def test_puzzle_35(self):
        pruned, _ = prune_fixed(build_hcp(9), parse_sudoku(PUZZLE_35))
        g = undirect(pruned)[0]
        want = assert_matches_oracle(g)
        assert not isinstance(want, Infeasible)
        assert assert_pair_journal_lifts_alike(g)

    @pytest.mark.parametrize("index", [0, 1])
    def test_stage16_seed101(self, index):
        # 77670 vertices, where the scan makes 5116 and 7026 pair
        # contractions and the sweep writes one record per surviving run
        instance = parse_sudoku(stage16_seed101_puzzles()[index])
        pruned, _ = prune_fixed(build_hcp(16), instance)
        g = undirect(pruned)[0]
        _, pairs = assert_matches_oracle(g)
        _, lifter = reduce_graph(g)
        assert len(lifter.records) == (652, 1128)[index]
        # every deleted id in one record, and one record for each final
        # vertex into which the scan folded another
        deleted = Counter(v for r in lifter.records for v in r.path if v != r.survivor)
        into = {r.absorbed: r.survivor for r in pairs if isinstance(r, PairContraction)}
        assert set(deleted.values()) == {1} and deleted.keys() == into.keys()

        def final(v):
            while v in into:
                v = into[v]
            return v

        assert len(lifter.records) == len(set(map(final, into)))

    def test_path_runs_from_the_survivors_smaller_neighbour(self):
        # the path 2-1-9 joins 3 and 4 of a K6 on 3..8; CPython iterates
        # the set {2, 9} as 9, 2, an order that once chose the orientation
        assert list({2, 9}) == [9, 2]
        edges = [(a, b) for a in range(3, 9) for b in range(a + 1, 9)]
        g = UndirectedGraph(9, edges + [(2, 3), (1, 2), (1, 9), (4, 9)])
        assert_matches_oracle(g)
        reduced, lifter = reduce_graph(g)
        assert lifter.records == (Contraction(1, (2, 1, 9), (3, 4)),)
        assert save_journal(lifter) == "p 1 3 4 2 1 9\n"
        assert reduced.n == 7 and set(reduced.edges()) >= {(1, 2), (1, 3)}

    def test_four_cycle_ends_in_triangle(self):
        # a cycle of degree-2 vertices collapses into 1 from its smaller
        # neighbour's side, with one record, until the terminal triangle
        g = cycle_graph(4)
        out = reduce_graph(g)
        assert reduce_text(out) == oracle_text(reduce_graph_by_passes(g))
        reduced, lifter = out
        assert lifter.records == (Contraction(1, (2, 1), (3, 4)),)
        assert set(reduced.edges()) == {(1, 2), (1, 3), (2, 3)}
        assert lifter.lift([1, 2, 3]) == [1, 2, 3, 4]

    def test_path_ends_at_one_vertex(self):
        # rule 2 at 4 leaves the path 6-4-1-7 of degree-2 vertices, and
        # both its ends attach to 2, which the rule-2 scan passed already
        edges = [(1, 4), (1, 7), (2, 3), (2, 5), (2, 6), (2, 7),
                 (3, 4), (3, 5), (4, 5), (4, 6), (4, 7)]
        g = UndirectedGraph(7, edges)
        want = Infeasible("contracting (1, 7) would double edge to 2")
        assert reduce_graph_by_passes(g) == want
        assert reduce_graph(g) == want

    def test_rings_against_the_oracle(self):
        rng = random.Random(4711)
        # a whole ring under random labels: one record into the terminal
        # triangle, whose cycles lift to cycles of the ring
        for k in range(4, 17):
            for _ in range(12):
                ring = rng.sample(range(1, k + 1), k)
                g = UndirectedGraph(k, list(zip(ring, ring[1:] + ring[:1])))
                assert_matches_oracle(g)
                reduced, lifter = reduce_graph(g)
                assert reduced.n == 3 and len(lifter.records) == 1
                for c in ([1, 2, 3], [3, 2, 1]):
                    assert verify_cycle(g, lifter.lift(c))
        # a ring beside a clique: a forced short cycle
        for _ in range(100):
            k, r = rng.randint(3, 12), rng.randint(4, 6)
            labels = rng.sample(range(1, k + r + 1), k + r)
            ring, clique = labels[:k], labels[k:]
            edges = list(zip(ring, ring[1:] + ring[:1]))
            edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
            g = UndirectedGraph(k + r, edges)
            want = assert_matches_oracle(g)
            assert want.reason.startswith(f"contracting ({min(ring)}, ")
        # a path that closes on one vertex e, from relabelling the graph of
        # test_path_ends_at_one_vertex, whose path 6-4-1-7 closes on 2: the
        # scan meets the path at its smallest id m, above e or below it
        edges = [(1, 4), (1, 7), (2, 3), (2, 5), (2, 6), (2, 7),
                 (3, 4), (3, 5), (4, 5), (4, 6), (4, 7)]
        sides = set()
        for _ in range(200):
            label = [0, *rng.sample(range(1, 8), 7)]
            g = UndirectedGraph(7, [(label[a], label[b]) for a, b in edges])
            reason = assert_matches_oracle(g).reason
            found = re.fullmatch(r"contracting \((\d+), \d+\) would double edge to (\d+)", reason)
            path = {label[6], label[4], label[1], label[7]}
            if found and int(found[1]) in path and int(found[2]) == label[2]:
                sides.add(int(found[1]) < label[2])
        assert sides == {True, False}

    def test_deletion_below_cursor_feeds_next_pass(self):
        # rule 2 at 4 drops (4, 5), so 5 falls to degree 2 and its
        # neighbours 1 and 2, both already scanned, gain a degree-2
        # neighbour; the second pass's rule 2 at 1 drops (1, 2) and
        # closes the 4-cycle 1-3-2-5 that rule 1 then contracts
        edges = [(1, 2), (1, 3), (1, 5), (2, 5), (2, 6), (3, 4), (4, 5), (4, 6)]
        g = UndirectedGraph(6, edges)
        out = reduce_graph(g)
        assert reduce_text(out) == oracle_text(reduce_graph_by_passes(g))
        reduced, lifter = out
        # the scan folds 4 and 6 into 3 in the first pass and 3 into 1 in
        # the second, so one record holds the ring's run into 1, between
        # 2 and 5; none is kept for the deleted edges (4, 5) and (1, 2)
        assert lifter.records == (Contraction(1, (6, 4, 3, 1), (2, 5)),)
        assert reduced.n == 3
        assert lifter.lift([1, 2, 3]) == [1, 3, 4, 6, 2, 5]
        assert verify_cycle(g, lifter.lift([1, 2, 3]))

    def test_terminal_triangle_keeps_an_earlier_run(self):
        # rule 2 at 5 drops (1, 5) in the first pass, and the scan folds
        # 5 and 6 into 3; rule 2 at 2 drops (2, 4) in the second, and 1
        # absorbs only 2 before 1, 3 and 4 are the whole graph.  3's run
        # is written first, between its ring neighbours 2 and 4; 1's
        # record then attaches to 3 itself
        edges = [(1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)]
        g = UndirectedGraph(6, edges)
        assert_matches_oracle(g)
        reduced, lifter = reduce_graph(g)
        assert lifter.records == (
            Contraction(3, (3, 5, 6), (2, 4)),
            Contraction(1, (2, 1), (3, 4)),
        )
        assert lifter.lift([1, 2, 3]) == [1, 2, 3, 5, 6, 4]

    @pytest.mark.parametrize(
        "n, edges, reason",
        [
            # the path 4-1-6-3 closes on 5 in the first pass, so the scan
            # refutes it there, before the second pass finds four degree-2
            # neighbours at 5
            (7, [(1, 4), (1, 6), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6),
                 (4, 5), (4, 6), (5, 7), (6, 7)],
             "contracting (1, 3) would double edge to 5"),
            # the ring 4-6-7 closes in the first pass, the ring through 1
            # only in the second
            (7, [(1, 2), (1, 3), (1, 5), (2, 3), (2, 6), (3, 5), (4, 6),
                 (4, 7), (6, 7)],
             "contracting (4, 6) would double edge to 7"),
            # 1 and 6 fall in the first pass, closing the path 1-6 on 2
            # while 2 still has degree 3; the triangle 1-2-6 is a ring
            # only after rule 2 at 2 in the second
            (8, [(1, 2), (1, 6), (2, 4), (2, 6), (3, 5), (3, 8), (4, 5),
                 (4, 7), (5, 8), (6, 8), (7, 8)],
             "contracting (1, 6) would double edge to 2"),
        ],
    )
    def test_closed_run_refuted_in_the_pass_it_closes(self, n, edges, reason):
        g = UndirectedGraph(n, edges)
        assert reduce_graph_by_passes(g) == Infeasible(reason)
        assert reduce_graph(g) == Infeasible(reason)


def two_step(g: DirectedGraph):
    """The stage chain's answer for g: reduce_graph(undirect(g)[0]), its
    journal joined after the triplication's."""
    graph, lifter = undirect(g)
    out = reduce_graph(graph)
    return out if isinstance(out, Infeasible) else (out[0], lifter + out[1])


def answer(reduce, g: DirectedGraph):
    """What reduce(g) pins: the ValueError's message, the Infeasible, or
    the graph's storage and the journal's records in their order."""
    try:
        out = reduce(g)
    except ValueError as e:
        return "raises", str(e)
    if isinstance(out, Infeasible):
        return out
    graph, lifter = out
    return storage(graph), lifter.records


@pytest.fixture
def handed_on(monkeypatch):
    """The digraphs that _reduce_directed hands to undirect and
    reduce_graph, in call order."""
    seen = []
    real = transform._reduced_triplication
    monkeypatch.setattr(transform, "_reduced_triplication", lambda g: seen.append(g) or real(g))
    return seen


def assert_directed_matches_two_step(g: DirectedGraph):
    """_reduce_directed(g) against the stage chain, leaving g stored as it
    was.  Returns the chain's answer."""
    n, m, keys, adj = storage(g)
    got = answer(_reduce_directed, g)
    assert storage(g) == (n, m, keys, dict(adj))
    want = answer(two_step, g)
    assert got == want, (g.n, list(g.arcs()))
    return want


def random_forcing_digraph(rng: random.Random) -> DirectedGraph:
    """A digraph on 0..9 vertices, most on 2..9, half of them holding a
    random Hamiltonian cycle, in which up to half the vertices, each with
    chance 0.7, keep one out-arc, and as many one in-arc, so that arcs are
    forced."""
    n = rng.randint(2, 9) if rng.random() < 0.98 else rng.randint(0, 1)
    p = rng.uniform(0.1, 0.7)
    arcs = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b and rng.random() < p}
    if n > 1 and rng.random() < 0.5:
        ring = rng.sample(range(1, n + 1), n)
        arcs.update(zip(ring, ring[1:] + ring[:1]))
    for side in (0, 1):
        for v in rng.sample(range(1, n + 1), rng.randint(0, n // 2)):
            at_v = sorted(a for a in arcs if a[side] == v)
            if at_v and rng.random() < 0.7:
                arcs.difference_update(at_v)
                arcs.add(rng.choice(at_v))
    return DirectedGraph(n, sorted(arcs))


class TestReduceDirected:
    """_reduce_directed, which solve_instance calls, against the stage
    chain undirect -> reduce_graph it replaces: the same reduced graph,
    the same records in the same order, or the same reason or error."""

    def test_random_digraphs(self, handed_on):
        rng = random.Random(3434)
        outcomes = Counter()
        for _ in range(6000):
            g = random_forcing_digraph(rng)
            before = len(handed_on)
            want = assert_directed_matches_two_step(g)
            path = "handed on" if len(handed_on) > before else "directed"
            if isinstance(want, Infeasible):
                outcomes[path, "refuted"] += 1
            elif want[0] == "raises":
                outcomes[path, "raises"] += 1
            else:
                outcomes[path, "contracted" if len(want[1]) > 1 else "reduced"] += 1
        # both paths well represented, the directed one with and without
        # contractions, and the chain's error reached; only the directed
        # path never refutes
        assert outcomes["directed", "contracted"] > 500, outcomes
        assert outcomes["directed", "reduced"] > 100, outcomes
        assert outcomes["handed on", "refuted"] > 2000, outcomes
        assert outcomes["handed on", "contracted"] > 500, outcomes
        assert outcomes["handed on", "raises"] > 0, outcomes
        assert outcomes["directed", "refuted"] == outcomes["directed", "raises"] == 0

    def test_order4_thinnings(self, handed_on):
        # thinnings of solutions and random clue sets, some of them unsat
        rng = random.Random(44)
        blank = build_hcp(4)
        sols = all_order4_solutions()
        instances = [thinning(rng.choice(sols), rng.randint(1, 16), rng) for _ in range(40)]
        instances += [random_consistent_instance(rng, 4, rng.randint(8, 12)) for _ in range(60)]
        refuted = 0
        for inst in instances:
            want = assert_directed_matches_two_step(prune_fixed(blank, inst)[0])
            refuted += isinstance(want, Infeasible)
        # only the refuted puzzles are handed on
        assert len(handed_on) == refuted > 3, refuted

    def test_puzzle_35(self, handed_on):
        pruned, _ = prune_fixed(build_hcp(9), parse_sudoku(PUZZLE_35))
        assert not isinstance(assert_directed_matches_two_step(pruned), Infeasible)
        assert handed_on == []

    @pytest.mark.parametrize("index", [0, 1])
    def test_stage16_seed101(self, index, handed_on):
        instance = parse_sudoku(stage16_seed101_puzzles()[index])
        pruned, _ = prune_fixed(build_hcp(16), instance)
        _, records = assert_directed_matches_two_step(pruned)
        assert len(records) == 1 + (652, 1128)[index]
        assert handed_on == []

    @pytest.mark.parametrize(
        "n, arcs, want",
        [
            # 1's out-copy has the middle and the in-copies of 2 and 3,
            # each of in-degree 1, as degree-2 neighbours
            (3, [(1, 2), (1, 3), (2, 1), (3, 1)],
             Infeasible("vertex 1 has 3 degree-2 neighbours")),
            # forced arcs ring through every vertex: the terminal triangle
            (3, [(1, 2), (2, 3), (3, 1)], 3),
            # two rings of forced arcs
            (4, [(1, 2), (2, 1), (3, 4), (4, 3)],
             Infeasible("contracting (1, 5) would double edge to 6")),
            # reduce's passes close a path of the triplication on 1's
            # out-copy, 3, before they find a conflict, and refute that
            # path first
            (6, [(1, 2), (1, 3), (1, 5), (1, 6), (2, 4), (3, 5), (4, 2),
                 (4, 5), (5, 1), (5, 2), (5, 3), (5, 6), (6, 2), (6, 5)],
             Infeasible("contracting (1, 7) would double edge to 3")),
            # 3 has no in-arc, 3 no out-arc, too few arcs, too few vertices
            (3, [(1, 2), (2, 1), (3, 1), (3, 2)], Infeasible("vertex 7 has degree 1")),
            (3, [(1, 2), (2, 1), (1, 3), (2, 3)], Infeasible("vertex 9 has degree 1")),
            (4, [(1, 2), (2, 1), (3, 4)], Infeasible("11 edges cannot cover 12 vertices")),
            (1, [], Infeasible("2 edges cannot cover 3 vertices")),
            (0, [], ("raises", "reduction expects at least 3 vertices")),
        ],
        ids=["conflict", "whole ring", "two rings", "path closing on one vertex",
             "in-degree 0", "out-degree 0", "fewer arcs than vertices", "one vertex",
             "no vertex"],
    )
    def test_handed_on_where_reduce_decides_by_its_passes(self, n, arcs, want, handed_on):
        # want is the chain's answer, or for the whole ring the vertex
        # count of the graph it reduces to
        g = DirectedGraph(n, arcs)
        got = assert_directed_matches_two_step(g)
        assert handed_on == [g]
        assert got[0][0] == want if isinstance(want, int) else got == want


class TestLift:
    def test_empty_journal_identity(self):
        assert CycleLifter().lift([2, 3, 1]) == [2, 3, 1]

    def test_single_contraction_replay(self):
        # square 1-2-3-4 with absorbed vertex: contract 2 into ... use a
        # pentagon so reduction stops before a triangle collapse
        rec = Contraction(survivor=2, path=(2, 3), ends=(1, 4))
        # final graph ids: 1..4 (vertex 3 was absorbed, old 4,5 -> 3,4)
        lifted = CycleLifter((rec,)).lift([1, 2, 3, 4])
        assert lifted == [1, 2, 3, 4, 5]
        # the cycle may run through the path either way
        assert CycleLifter((rec,)).lift([4, 3, 2, 1]) == [5, 4, 3, 2, 1]

    def test_path_replay(self):
        # the path 2-3-4-5 collapsed into 4, attached to 1 and 6, in a ring
        # of 7: final ids 1, 4, 6, 7 become 1..4
        rec = Contraction(survivor=4, path=(2, 3, 4, 5), ends=(1, 6))
        lifter = CycleLifter((rec,))
        assert lifter.lift([1, 2, 3, 4]) == [1, 2, 3, 4, 5, 6, 7]
        assert lifter.lift([3, 2, 1, 4]) == [6, 5, 4, 3, 2, 1, 7]

    def test_gadget_replay(self):
        rec = GadgetRemoval(removed=3, left=2, right=4)
        lifted = CycleLifter((rec,)).lift([1, 2, 3, 4])
        assert lifted == [1, 2, 3, 4, 5]

    def test_inconsistent_cycle_rejected(self):
        rec = Contraction(survivor=2, path=(2, 3), ends=(1, 4))
        with pytest.raises(ValueError, match="consistent|neighbours"):
            CycleLifter((rec,)).lift([1, 3, 2, 4])

    def test_full_pipeline_lift(self):
        rng = random.Random(5)
        g4 = build_hcp(4)
        inst, sol = well_formed_order4(rng)
        pruned, _ = prune_fixed(g4, inst)
        ug, lifter = undirect(pruned)
        cg, step1 = compress_triples(ug)
        out = reduce_graph(cg)
        assert not isinstance(out, Infeasible)
        reduced, step2 = out
        chain = lifter + step1 + step2
        outcome = solve_hcp(reduced)
        assert outcome.status == "cycle"
        directed = chain.lift(outcome.cycle)
        assert verify_cycle(pruned, directed)
        assert recover_solution(directed, 4) == sol

    def test_concatenation_rewrites_into_base_ids(self):
        # the left journal deletes base vertex 2, so the right journal's
        # vertex k is the k-th surviving base id: 1, 3, 4, 5, ...
        left = CycleLifter((GadgetRemoval(2, 1, 3),))
        right = CycleLifter(
            (Contraction(2, (2, 3), (1, 4)), Contraction(5, (4, 5, 6), (1, 7)))
        )
        assert (left + right).records == (
            GadgetRemoval(2, 1, 3),
            Contraction(3, (3, 4), (1, 5)),
            # every id of a path is rewritten, the absorbed ones included
            Contraction(6, (5, 6, 7), (1, 8)),
        )
        # a left journal that deletes nothing concatenates unchanged
        assert (CycleLifter((Triplication(2),)) + right).records == (
            Triplication(2),
        ) + right.records

    @pytest.mark.parametrize(
        "right", [CycleLifter(), CycleLifter((Contraction(2, (2, 3), (1, 4)),))]
    )
    def test_concatenation_refuses_a_vertex_deleted_twice(self, right):
        # lift refuses such a journal with the same words
        left = CycleLifter((GadgetRemoval(5, 1, 4), GadgetRemoval(5, 1, 4)))
        with pytest.raises(ValueError, match=r"^journal deletes vertex 5 twice$"):
            left + right

    @pytest.mark.parametrize(
        "records,cycle,match",
        [
            ((GadgetRemoval(3, 2, 4), GadgetRemoval(3, 2, 4)), [1, 2, 3], "twice"),
            ((GadgetRemoval(6, 2, 4),), [1, 2, 3, 4], "outside"),
            ((GadgetRemoval(3, 2, 7),), [1, 2, 3, 4], "adjacent"),
            ((Contraction(7, (7, 3), (1, 4)),), [1, 2, 3, 4], "neighbours"),
            # path records: the survivor missing from the path or in it
            # twice, a path of one vertex, an absorbed id that another
            # record deletes, ends that are not the survivor's neighbours
            ((Contraction(2, (3, 4), (1, 5)),), [1, 2, 3], "survivor 2 once"),
            ((Contraction(2, (2, 3, 2), (1, 4)),), [1, 2, 3], "survivor 2 once"),
            ((Contraction(2, (2,), (1, 3)),), [1, 2, 3], "at least 2"),
            (
                (GadgetRemoval(3, 2, 4), Contraction(2, (2, 3), (1, 4))),
                [1, 2, 3],
                "twice",
            ),
            ((Contraction(2, (2, 3), (1, 5)),), [1, 2, 3, 4], "neighbours"),
            # ids below 1 name no vertex, also where a list index would wrap
            ((GadgetRemoval(3, -1, 1),), [1, 2, 3, 4], "adjacent"),
            ((Contraction(-1, (-1, 3), (4, 1)),), [1, 2, 3, 4], "neighbours"),
            ((Contraction(2, (2, 3), (0, 0)),), [1, 2, 3], "neighbours"),
            # a survivor that is off the cycle when its record is replayed
            (
                (GadgetRemoval(2, 1, 3), Contraction(2, (2, 4), (0, 0))),
                [1, 2, 3],
                "neighbours",
            ),
        ],
    )
    def test_bad_base_ids_rejected(self, records, cycle, match):
        with pytest.raises(ValueError, match=match):
            CycleLifter(records).lift(cycle)

    @pytest.mark.parametrize(
        "records,cycle,message",
        [
            ((), [], "empty cycle"),
            (
                (GadgetRemoval(3, 2, 4), Triplication(2)),
                [1, 2, 3, 4, 5],
                "triplication record allowed only at the start of a journal",
            ),
            (
                (Triplication(10**9),),
                [1, 2, 3],
                "cycle length 3 inconsistent with journal "
                "(0 deletions from 3000000000 vertices)",
            ),
            (
                (GadgetRemoval(6, 2, 4),),
                [1, 2, 3, 4],
                "journal refers to vertices outside the graph",
            ),
            (
                (GadgetRemoval(3, 2, 4), GadgetRemoval(3, 2, 4)),
                [1, 2, 3],
                "journal deletes vertex 3 twice",
            ),
            ((), [1, 2, 2], "cycle is not a permutation of the final graph's vertices"),
            (
                (GadgetRemoval(3, 2, 7),),
                [1, 2, 3, 4],
                "cycle not consistent with journal: 2 and 7 not adjacent",
            ),
            # the message names the survivor's neighbours on the cycle
            (
                (Contraction(2, (2, 3), (1, 4)),),
                [1, 3, 2, 4],
                "cycle not consistent with journal: contraction survivor 2 "
                "has neighbours [4, 5]",
            ),
            (
                (Contraction(7, (7, 3), (1, 4)),),
                [1, 2, 3, 4],
                "cycle not consistent with journal: contraction survivor 7 "
                "has neighbours [0]",
            ),
            (
                (Triplication(2),),
                [1, 2, 4, 3, 5, 6],
                "cycle does not keep vertex triples intact",
            ),
            # the triples read backwards, one of them broken
            (
                (Triplication(2),),
                [6, 5, 3, 4, 2, 1],
                "cycle does not keep vertex triples intact",
            ),
            # a contraction whose survivor is one of its own ends replays
            # into no Hamiltonian cycle, so its shape alone refuses it
            (
                (Contraction(1, (2, 1), (1, 1)),),
                [1],
                "contraction survivor 1 is one of its own ends (1, 1)",
            ),
            (
                (Triplication(2), Contraction(1, (5, 4, 6, 1, 2, 3), (1, 1))),
                [1],
                "contraction survivor 1 is one of its own ends (1, 1)",
            ),
            (
                (Contraction(1, (1, 2), (1, 1)),),
                [1],
                "contraction survivor 1 is one of its own ends (1, 1)",
            ),
            (
                (Contraction(2, (2, 1), (2, 2)),),
                [1],
                "contraction survivor 2 is one of its own ends (2, 2)",
            ),
        ],
    )
    def test_rejection_messages(self, records, cycle, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CycleLifter(records).lift(cycle)

    @pytest.mark.parametrize(
        "records, message",
        [
            ((GadgetRemoval(0, 1, 4),), "journal refers to vertices outside the graph"),
            (
                (Triplication(2), Contraction(2, (-1, 2), (1, 4))),
                "journal refers to vertices outside the graph",
            ),
            (
                (GadgetRemoval(5, 1, 4), Triplication(2)),
                "triplication record allowed only at the start of a journal",
            ),
            (
                (GadgetRemoval(3, 2, 4), Contraction(2, (2, 3), (1, 4))),
                "journal deletes vertex 3 twice",
            ),
            (
                (Contraction(2, (2, 1), (4, 2)),),
                "contraction survivor 2 is one of its own ends (4, 2)",
            ),
            (
                (Contraction(2, (2,), (1, 3)),),
                "contraction path (2,) must hold survivor 2 once, among at least 2 vertices",
            ),
        ],
        ids=["id 0", "negative id", "T after g", "gadget and path", "own end", "short path"],
    )
    def test_concatenation_and_lift_refuse_alike(self, records, message):
        # the faults that no cycle can mend, refused by both in one wording
        left = CycleLifter(records)
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            left + CycleLifter()
        with pytest.raises(ValueError, match=exact):
            left.lift([1, 2, 3])

    def test_right_journal_left_to_the_lift(self):
        # + checks only its left journal; the lift refuses the right one's
        # double deletion, now in base ids (5 -> 6, behind deleted 2)
        joined = CycleLifter((GadgetRemoval(2, 1, 3),)) + CycleLifter(
            (GadgetRemoval(5, 1, 4),) * 2
        )
        with pytest.raises(ValueError, match=r"^journal deletes vertex 6 twice$"):
            joined.lift([1, 2, 3, 4])

    def test_concatenation_maps_to_the_kth_survivor(self):
        # every right-journal id k >= 1 becomes the k-th positive id the
        # left journal does not delete, counted by brute force; an id below
        # 1 stays as it is
        rng = random.Random(30)

        def some_id():
            return rng.randint(-2, 60)

        for _ in range(400):
            gone = rng.sample(range(1, 80), rng.randrange(25))
            kept = [v for v in range(1, 80) if v not in gone]
            left = []
            while gone:
                k = rng.randint(1, 4)
                take, gone = gone[:k], gone[k:]
                if len(take) == 1 and rng.random() < 0.5:
                    left.append(GadgetRemoval(take[0], rng.choice(kept), rng.choice(kept)))
                else:
                    s = rng.choice(kept)
                    take.insert(rng.randrange(len(take) + 1), s)
                    left.append(Contraction(s, tuple(take), (s + 100, s + 200)))
            survivors = kept + list(range(80, 200))

            def base(k):
                return survivors[k - 1] if k >= 1 else k

            right, want = [], []
            for _ in range(rng.randrange(6)):
                if rng.random() < 0.5:
                    ids = [some_id() for _ in range(3)]
                    right.append(GadgetRemoval(*ids))
                    want.append(GadgetRemoval(*map(base, ids)))
                else:
                    s, a, b, *path = (some_id() for _ in range(rng.randint(4, 7)))
                    right.append(Contraction(s, tuple(path), (a, b)))
                    want.append(Contraction(base(s), tuple(map(base, path)), (base(a), base(b))))
            joined = CycleLifter(tuple(left)) + CycleLifter(tuple(right))
            assert joined.records == (*left, *want)

    @pytest.mark.parametrize(
        "left, joined",
        [
            ((), (GadgetRemoval(0, 1, 4),)),
            ((GadgetRemoval(2, 1, 3),), (GadgetRemoval(2, 1, 3), GadgetRemoval(0, 1, 5))),
        ],
        ids=["left deletes nothing", "left deletes 2"],
    )
    def test_right_id_below_1_joins_unmapped(self, left, joined):
        # whether or not the left journal deletes a vertex, + leaves id 0
        # of the right journal as it is, and the lift refuses it
        got = CycleLifter(left) + CycleLifter((GadgetRemoval(0, 1, 4),))
        assert got.records == joined
        message = "journal refers to vertices outside the graph"
        with pytest.raises(ValueError, match=f"^{message}$"):
            got.lift([1, 2, 3])

    def test_survivor_end_refused_by_concatenation(self):
        left = CycleLifter((Contraction(3, (3, 4), (3, 1)),))
        message = "contraction survivor 3 is one of its own ends (3, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            left + CycleLifter((GadgetRemoval(2, 1, 3),))

    def test_triplication_must_lead(self):
        recs = (GadgetRemoval(3, 2, 4), Triplication(2))
        with pytest.raises(ValueError, match="start"):
            CycleLifter(recs).lift([1, 2, 3, 4, 5])
