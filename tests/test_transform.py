import random
import tracemalloc

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
    lift_cycle,
    prune_fixed,
    recover_solution,
    reduce_graph,
    solve_hcp,
    triplicate_cycle,
    undirect,
    verify_cycle,
    witness_cycle,
)
from sudoku2hcp.transform import Contraction, EdgeDeletion, GadgetRemoval, Triplication
from _support import (
    all_order4_solutions,
    brute_directed_hamiltonian,
    brute_undirected_hamiltonian,
    random_directed_arcs,
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
        assert ug.edge_set() == {(1, 2), (2, 3), (4, 5), (5, 6), (3, 4)}

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
                brute_undirected_hamiltonian(ug.n, ug.edge_set()) is not None
            )
            assert directed == undirected
            checked += 1
        assert checked >= 50 - 1


class TestProject:
    # lifting through a bare triplication journal projects the cycle
    # back onto the directed graph

    def test_two_vertex_cycle(self):
        lifter = CycleLifter((Triplication(2),))
        assert lift_cycle(lifter, [1, 2, 3, 4, 5, 6]) == [1, 2]
        assert lift_cycle(lifter, [6, 5, 4, 3, 2, 1]) == [1, 2]
        # any rotation, in either direction
        assert lift_cycle(lifter, [4, 5, 6, 1, 2, 3]) == [1, 2]
        assert lift_cycle(lifter, [2, 1, 6, 5, 4, 3]) == [1, 2]

    def test_witness_round_trip(self):
        g = build_hcp(4)
        ug, lifter = undirect(g)
        assert lifter == CycleLifter((Triplication(g.n),))
        sol = all_order4_solutions()[42]
        w = witness_cycle(blank_instance(4), sol)
        tc = triplicate_cycle(w)
        assert verify_cycle(ug, tc)
        back = lift_cycle(lifter, tc)
        assert verify_cycle(g, back)
        assert recover_solution(back, 4) == sol

    def test_broken_triple_rejected(self):
        lifter = CycleLifter((Triplication(2),))
        with pytest.raises(ValueError, match="triples"):
            lift_cycle(lifter, [1, 2, 4, 3, 5, 6])


class TestCompress:
    @pytest.mark.parametrize(
        "n,vertices,edges", [(4, 1294, 2078), (9, 12939, 22173)]
    )
    def test_counts(self, n, vertices, edges):
        assert vertices == 16 * n**3 + 15 * n**2 + 6 * n + 6
        assert edges == 29 * n**3 + 12 * n**2 + 6 * n + 6
        ug, _ = undirect(build_hcp(n))
        cg, _ = compress_triples(ug, n)
        assert cg.n == vertices
        assert cg.m == edges
        assert ug.n - cg.n == 2 * n**3
        assert ug.m - cg.m == 2 * n**3

    def test_end_to_end_blank_order4(self):
        g = build_hcp(4)
        ug, lifter = undirect(g)
        cg, step = compress_triples(ug, 4)
        outcome = solve_hcp(cg)
        assert outcome.status == "cycle"
        directed = (lifter + step).lift(outcome.cycle)
        assert verify_cycle(g, directed)
        grid = recover_solution(directed, 4)
        assert grid in all_order4_solutions()

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            compress_triples(UndirectedGraph(5, [(1, 2)]), 4)


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
        lifted = lift_cycle(lifter, [1, 2, 3])
        assert verify_cycle(g, lifted)

    def test_rule2_deletes_extra_edges(self):
        # ring of 8 plus two chords at vertex 1; the chords can never be
        # used because 1 already has two degree-2 neighbours
        edges = [(i, i % 8 + 1) for i in range(1, 9)] + [(1, 4), (1, 6)]
        g = UndirectedGraph(8, edges)
        out = reduce_graph(g)
        assert not isinstance(out, Infeasible)
        reduced, lifter = out
        deleted = [r for r in lifter.records if isinstance(r, EdgeDeletion)]
        assert deleted and deleted[0].edges == ((1, 4), (1, 6))
        assert reduced.n == 3  # the remaining ring collapses to a triangle
        lifted = lift_cycle(lifter, [1, 2, 3])
        assert verify_cycle(g, lifted)

    def test_three_degree2_neighbours_infeasible(self):
        # vertex 1 adjacent to three degree-2 vertices
        edges = [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (1, 5)]
        g = UndirectedGraph(5, edges)
        out = reduce_graph(g)
        assert isinstance(out, Infeasible)
        assert brute_undirected_hamiltonian(5, g.edge_set()) is None

    def test_forced_short_cycle_infeasible(self):
        # a triangle hanging off a larger graph via one vertex
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
        g = UndirectedGraph(6, edges)
        out = reduce_graph(g)
        assert isinstance(out, Infeasible)
        assert brute_undirected_hamiltonian(6, g.edge_set()) is None

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

    def test_low_degree_infeasible(self):
        g = UndirectedGraph(4, [(1, 2), (2, 3), (3, 4)])
        assert isinstance(reduce_graph(g), Infeasible)

    def test_small_graph_rejected(self):
        with pytest.raises(ValueError):
            reduce_graph(UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)]))

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
            if reduced.degree(v) == 2:
                assert all(reduced.degree(u) != 2 for u in reduced.neighbors(v))

    def test_deterministic(self):
        rng = random.Random(11)
        from _support import random_undirected

        for _ in range(10):
            g = random_undirected(rng, 12, 0.35)
            if any(g.degree(v) < 2 for v in range(1, 13)):
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


class TestLift:
    def test_empty_journal_identity(self):
        assert lift_cycle(CycleLifter(), [2, 3, 1]) == [2, 3, 1]

    def test_single_contraction_replay(self):
        # square 1-2-3-4 with absorbed vertex: contract 2 into ... use a
        # pentagon so reduction stops before a triangle collapse
        rec = Contraction(survivor=2, absorbed=3, attach_survivor=1, attach_absorbed=4)
        # final graph ids: 1..4 (vertex 3 was absorbed, old 4,5 -> 3,4)
        lifted = lift_cycle(CycleLifter((rec,)), [1, 2, 3, 4])
        assert lifted == [1, 2, 3, 4, 5]

    def test_gadget_replay(self):
        rec = GadgetRemoval(removed=3, left=2, right=4)
        lifted = lift_cycle(CycleLifter((rec,)), [1, 2, 3, 4])
        assert lifted == [1, 2, 3, 4, 5]

    def test_inconsistent_cycle_rejected(self):
        rec = Contraction(survivor=2, absorbed=3, attach_survivor=1, attach_absorbed=4)
        with pytest.raises(ValueError, match="consistent|neighbours"):
            lift_cycle(CycleLifter((rec,)), [1, 3, 2, 4])

    def test_full_pipeline_lift(self):
        rng = random.Random(5)
        g4 = build_hcp(4)
        inst, sol = well_formed_order4(rng)
        pruned, _ = prune_fixed(g4, inst)
        ug, lifter = undirect(pruned)
        cg, step1 = compress_triples(ug, 4)
        out = reduce_graph(cg)
        assert not isinstance(out, Infeasible)
        reduced, step2 = out
        chain = lifter + step1 + step2
        outcome = solve_hcp(reduced)
        assert outcome.status == "cycle"
        directed = lift_cycle(chain, outcome.cycle)
        assert verify_cycle(pruned, directed)
        assert recover_solution(directed, 4) == sol

    def test_concatenation_rewrites_into_base_ids(self):
        # the left journal deletes base vertex 2, so the right journal's
        # vertex k is the k-th surviving base id: 1, 3, 4, 5, ...
        left = CycleLifter((GadgetRemoval(2, 1, 3),))
        right = CycleLifter(
            (Contraction(2, 3, 1, 4), EdgeDeletion(((1, 4),)))
        )
        assert (left + right).records == (
            GadgetRemoval(2, 1, 3),
            Contraction(3, 4, 1, 5),
            EdgeDeletion(((1, 5),)),
        )
        # a left journal that deletes nothing concatenates unchanged
        assert (CycleLifter((Triplication(2),)) + right).records == (
            Triplication(2),
        ) + right.records

    @pytest.mark.parametrize(
        "records,cycle,match",
        [
            ((GadgetRemoval(3, 2, 4), GadgetRemoval(3, 2, 4)), [1, 2, 3], "twice"),
            ((GadgetRemoval(6, 2, 4),), [1, 2, 3, 4], "outside"),
            ((GadgetRemoval(3, 2, 7),), [1, 2, 3, 4], "adjacent"),
            ((Contraction(7, 3, 1, 4),), [1, 2, 3, 4], "neighbours"),
        ],
    )
    def test_bad_base_ids_rejected(self, records, cycle, match):
        with pytest.raises(ValueError, match=match):
            lift_cycle(CycleLifter(records), cycle)

    def test_triplication_must_lead(self):
        recs = (GadgetRemoval(3, 2, 4), Triplication(2))
        with pytest.raises(ValueError, match="start"):
            lift_cycle(CycleLifter(recs), [1, 2, 3, 4, 5])
