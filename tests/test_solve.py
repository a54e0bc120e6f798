import random

import pytest

from sudoku2hcp import (
    DirectedGraph,
    SolveBudget,
    SudokuInstance,
    UndirectedGraph,
    blank_instance,
    build_hcp,
    parse_sudoku,
    prune_fixed,
    reduce_graph,
    solve_hcp,
    undirect,
    verify_cycle,
    witness_cycle,
)
from sudoku2hcp.solve import Contradiction, SolveState, _pick_branch_edge, propagate
from sudoku2hcp.transform import Infeasible
from _support import (
    PUZZLE_35,
    ScanSolveState,
    _pick_branch_edge_by_scan,
    all_order4_solutions,
    all_undirected_hamiltonian_cycles,
    brute_undirected_hamiltonian,
    dodecahedron,
    petersen,
    propagate_by_scan,
    random_directed_arcs,
    random_undirected,
    solve_directed,
    solve_hcp_by_scan,
    well_formed_order4,
)


class TestVerifyCycle:
    def test_triangle(self):
        g = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        assert verify_cycle(g, [1, 2, 3])
        assert verify_cycle(g, [3, 1, 2])

    def test_not_spanning(self):
        g = UndirectedGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        assert not verify_cycle(g, [1, 2, 3])

    def test_non_edges_rejected(self):
        g = UndirectedGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert verify_cycle(g, [1, 2, 3, 4])
        assert not verify_cycle(g, [1, 3, 2, 4])

    def test_directed_respects_orientation(self):
        g = DirectedGraph(3, [(1, 2), (2, 3), (3, 1)])
        assert verify_cycle(g, [1, 2, 3])
        assert not verify_cycle(g, [3, 2, 1])

    def test_witness_on_construction(self):
        g = build_hcp(4)
        w = witness_cycle(blank_instance(4), all_order4_solutions()[0])
        assert verify_cycle(g, w)

    def test_duplicates_rejected(self):
        g = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        assert not verify_cycle(g, [1, 2, 2])

    def test_matches_per_step_check(self):
        rng = random.Random(1603)
        answers = {True: 0, False: 0}
        for _ in range(3000):
            n = rng.randint(0, 7)
            if rng.random() < 0.5:
                g = DirectedGraph(n, random_directed_arcs(rng, n, rng.uniform(0.4, 1.0)))
            else:
                g = random_undirected(rng, n, rng.uniform(0.4, 1.0))
            cycle = rng.sample(range(1, n + 1), n)
            change = rng.randrange(5)
            if change == 1 and cycle:
                cycle[rng.randrange(n)] = rng.choice([0, -1, n + 1, rng.randint(1, n)])
            elif change == 2:
                cycle = cycle[: rng.randint(0, n)] + rng.sample(range(-1, n + 3), rng.randint(0, 2))
            want = _verify_by_steps(g, cycle)
            assert verify_cycle(g, cycle) is want, (g, list(cycle))
            assert verify_cycle(g, tuple(cycle)) is want
            answers[want] += 1
        assert min(answers.values()) >= 300, answers


def _verify_by_steps(g, cycle) -> bool:
    """verify_cycle as one adjacency lookup per step."""
    n = g.n
    if len(cycle) != n or len(set(cycle)) != n:
        return False
    if any(not 1 <= v <= n for v in cycle):
        return False
    steps = all(cycle[i] in g._adj.get(cycle[i - 1], ()) for i in range(n))
    return n >= (2 if isinstance(g, DirectedGraph) else 3) and steps


class TestPropagate:
    def test_five_cycle_fully_forced(self):
        g = UndirectedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        state = propagate(SolveState(g))
        assert state.complete()
        assert all(state.edge_state(u, v) == 1 for u, v in g.edges())

    def test_k4_exclusion(self):
        g = UndirectedGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        state = SolveState(g)
        state.force(1, 2)
        state.force(1, 3)
        propagate(state)
        assert state.edge_state(1, 4) == -1

    def test_triplication_middles_all_forced(self):
        g = build_hcp(4)
        ug, _ = undirect(g)
        state = propagate(SolveState(ug))
        forced = sum(1 for s in state.state if s == 1)
        assert forced >= 2 * g.n
        for v in range(1, g.n + 1):
            mid = 3 * v - 1
            assert state.edge_state(mid - 1, mid) == 1
            assert state.edge_state(mid, mid + 1) == 1

    def test_contradiction_on_low_degree(self):
        g = UndirectedGraph(4, [(1, 2), (2, 3), (3, 4), (4, 2)])
        with pytest.raises(Contradiction):
            propagate(SolveState(g))

    def test_short_cycle_edge_excluded(self):
        # square with one diagonal: forcing 1-2 and 2-3 must exclude 1-3
        g = UndirectedGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        state = SolveState(g)
        state.force(1, 2)
        state.force(2, 3)
        propagate(state)
        assert state.edge_state(1, 3) == -1

    def test_never_excludes_cycle_edges(self):
        rng = random.Random(909)
        graphs = 0
        for _ in range(60):
            g = random_undirected(rng, rng.randint(6, 10), 0.55)
            cycles = all_undirected_hamiltonian_cycles(g.n, set(g.edges()))
            state = SolveState(g)
            try:
                propagate(state)
            except Contradiction:
                assert not cycles
                continue
            graphs += 1
            cycle_edges = set()
            for cyc in cycles:
                for t in range(len(cyc)):
                    a, b = cyc[t - 1], cyc[t]
                    cycle_edges.add((a, b) if a < b else (b, a))
            for (u, v) in g.edges():
                if state.edge_state(u, v) == -1:
                    assert (u, v) not in cycle_edges
                if state.edge_state(u, v) == 1 and cycles:
                    # forced edges must lie on every cycle
                    for cyc in cycles:
                        edges = {
                            tuple(sorted((cyc[t - 1], cyc[t])))
                            for t in range(len(cyc))
                        }
                        assert (u, v) in edges
        assert graphs > 20


class TestSolve:
    def test_petersen_no_cycle(self):
        assert brute_undirected_hamiltonian(10, set(petersen().edges())) is None
        assert solve_hcp(petersen()).status == "no_cycle"

    def test_dodecahedron_cycle(self):
        g = dodecahedron()
        assert brute_undirected_hamiltonian(20, set(g.edges())) is not None
        out = solve_hcp(g)
        assert out.status == "cycle"
        assert verify_cycle(g, out.cycle)

    def test_agreement_with_brute_force(self):
        rng = random.Random(314159)
        for _ in range(60):
            g = random_undirected(rng, rng.randint(4, 10), 0.4)
            expected = brute_undirected_hamiltonian(g.n, set(g.edges()))
            out = solve_hcp(g)
            if expected is None:
                assert out.status == "no_cycle"
            else:
                assert out.status == "cycle"
                assert verify_cycle(g, out.cycle)

    def test_deterministic(self):
        rng = random.Random(12)
        g = random_undirected(rng, 10, 0.4)
        a = solve_hcp(g)
        b = solve_hcp(g)
        assert a.status == b.status
        assert a.cycle == b.cycle
        assert a.stats.nodes == b.stats.nodes
        assert a.stats.depth == b.stats.depth

    def test_budget_outcome(self):
        ug, _ = undirect(build_hcp(9))
        out = solve_hcp(ug, SolveBudget(max_nodes=5, max_ms=60_000))
        assert out.status == "budget"
        assert out.cycle is None
        assert out.stats.nodes >= 5

    def test_propagation_only_solve_beats_zero_budget(self):
        g = UndirectedGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        out = solve_hcp(g, SolveBudget(max_nodes=0, max_ms=60_000))
        assert out.status == "cycle"
        assert out.stats.nodes == 0

    def test_search_counters_repeat(self):
        g35 = _pipeline_graph(parse_sudoku(PUZZLE_35))
        for g, status in ((petersen(), "no_cycle"), (g35, "cycle")):
            runs = [solve_hcp(g) for _ in range(3)]
            assert {out.status for out in runs} == {status}
            assert len({(out.stats.contradictions, out.stats.max_trail) for out in runs}) == 1
            # failed attempts are the scan solver's, whose trail differs
            assert runs[0].stats.contradictions == solve_hcp_by_scan(g).stats.contradictions
        # Petersen's search fails somewhere; a trail holds 5 entries a force
        # (at most n) and 1 an exclusion, and a found cycle forces all n
        assert solve_hcp(petersen()).stats.contradictions > 0
        assert 5 * g35.n <= runs[0].stats.max_trail <= 4 * g35.n + g35.m

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            solve_hcp(UndirectedGraph(2, [(1, 2)]))


class TestSolveDirected:
    def test_directed_triangle(self):
        g = DirectedGraph(3, [(1, 2), (2, 3), (3, 1)])
        out = solve_directed(g)
        assert out.status == "cycle"
        assert out.cycle == [1, 2, 3]

    def test_out_degree_zero_no_cycle(self):
        g = DirectedGraph(3, [(1, 2), (2, 3), (2, 1), (3, 2)])
        assert solve_directed(g).status == "no_cycle"

    def test_blank_order4_graph(self):
        g = build_hcp(4)
        out = solve_directed(g)
        assert out.status == "cycle"
        assert verify_cycle(g, out.cycle)
        from sudoku2hcp import recover_solution

        assert recover_solution(out.cycle, 4) in all_order4_solutions()

    def test_pruned_order9_within_desk_budget(self):
        from sudoku2hcp import parse_sudoku, prune_fixed, recover_solution, validate_grid
        from _support import PUZZLE_35

        inst = parse_sudoku(PUZZLE_35)
        g, _ = prune_fixed(build_hcp(9), inst)
        out = solve_directed(g, SolveBudget(max_ms=600_000))
        assert out.status == "cycle"
        grid = recover_solution(out.cycle, 9)
        assert validate_grid(inst, grid) == []


def _pipeline_graph(instance) -> UndirectedGraph | None:
    """The graph solve_instance hands to the solver, or None when reduce
    refutes the instance."""
    g, _ = prune_fixed(build_hcp(instance.order), instance)
    ug, _ = undirect(g)
    reduced = reduce_graph(ug)
    return None if isinstance(reduced, Infeasible) else reduced[0]


def _same_search(g: UndirectedGraph, budget: SolveBudget) -> str:
    out = solve_hcp(g, budget)
    ref = solve_hcp_by_scan(g, budget)
    assert out.status == ref.status
    assert out.cycle == ref.cycle
    assert out.stats.nodes == ref.stats.nodes
    assert out.stats.depth == ref.stats.depth
    return out.status


class TestMatchesScanSolver:
    """The solver takes the branches of the full-scan solver it replaced,
    so status, cycle, nodes and depth agree exactly."""

    def test_random_graphs(self):
        rng = random.Random(2718)
        statuses = {"cycle": 0, "no_cycle": 0, "budget": 0}
        while sum(statuses.values()) < 2000:
            n = rng.randint(4, 16)
            g = random_undirected(rng, n, rng.uniform(0.2, 0.7))
            if g.m < n:
                continue  # answered before any search
            max_nodes = rng.choice([3, 50, 10**6])
            statuses[_same_search(g, SolveBudget(max_nodes, 10**9))] += 1
        assert min(statuses.values()) >= 200, statuses

    def test_order4_thinnings(self):
        # uniquely solvable thinnings, and thinnings to 1-3 clues
        rng = random.Random(44)
        instances = []
        for _ in range(20):
            inst, solution = well_formed_order4(rng)
            cells = rng.sample(sorted(inst.clues), min(len(inst.clues), rng.randint(1, 3)))
            sparse = SudokuInstance(4, {c: solution.value(*c) for c in cells})
            instances += [inst, sparse]
        for instance in instances:
            g = _pipeline_graph(instance)
            assert g is not None
            assert _same_search(g, SolveBudget(10**6, 10**9)) == "cycle"

    def test_puzzle_35(self):
        g = _pipeline_graph(parse_sudoku(PUZZLE_35))
        assert _same_search(g, SolveBudget(10**6, 10**9)) == "cycle"

    def test_blank_order9_under_budget(self):
        g = _pipeline_graph(blank_instance(9))
        assert _same_search(g, SolveBudget(400, 10**9)) == "budget"


def _snapshot(state) -> tuple:
    return (
        list(state.state),
        list(state.forced_deg),
        list(state.avail_deg),
        list(state.path_other),
        list(state.path_len),
        state.forced_total,
    )


def _assert_key_rebuilt(state: SolveState) -> None:
    """Open vertices hold min(usable degree, 254) in the key, all others
    (vertex 0 too) hold 255."""
    want = bytearray(b"\xff") * (state.n + 1)
    for v in range(1, state.n + 1):
        if state.avail_deg[v] > state.forced_deg[v]:
            want[v] = min(state.avail_deg[v], 254)
    assert state.key == want


def _random_steps(rng, edges, state, ref, steps) -> bool:
    """Random forces, exclusions and propagations on both solver states,
    drawn from edges, stopping at the first contradiction.  Both must agree
    on every contradiction, on every array up to it and on the branch edge
    they would pick, and the key must match the arrays; a contradicted
    state is only ever rolled back, so its arrays may differ.  True when
    the steps ended in a contradiction."""
    for _ in range(steps):
        u, v = rng.choice(edges)
        include = rng.random() < 0.5
        run_propagate = rng.random() < 0.5
        outcomes = []
        for st, prop in ((state, propagate), (ref, propagate_by_scan)):
            try:
                if include:
                    st.force(u, v)
                else:
                    st.exclude(u, v)
                if run_propagate:
                    prop(st)
                outcomes.append(None)
            except Contradiction as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            return True
        assert _snapshot(state) == _snapshot(ref)
        _assert_key_rebuilt(state)
        assert _pick_branch_edge(state) == _pick_branch_edge_by_scan(ref)
    return False


def _steps_and_rollbacks(rng, g, edges, rounds, max_steps) -> None:
    """Rounds of random steps on g's two solver states, each rolled back
    to its mark; every rollback restores every array and the key."""
    state, ref = SolveState(g), ScanSolveState(g)
    fresh = _snapshot(state)
    _assert_key_rebuilt(state)
    assert _pick_branch_edge(state) == _pick_branch_edge_by_scan(ref)
    for _ in range(rounds):
        mark, ref_mark = state.mark(), ref.mark()
        at_mark = _snapshot(state)
        if _random_steps(rng, edges, state, ref, rng.randint(0, max_steps // 2)):
            state.rollback(mark)
            ref.rollback(ref_mark)
            assert _snapshot(state) == at_mark == _snapshot(ref)
            _assert_key_rebuilt(state)
        mark, ref_mark = state.mark(), ref.mark()
        at_mark = _snapshot(state)
        _random_steps(rng, edges, state, ref, rng.randint(1, max_steps))
        state.rollback(mark)
        ref.rollback(ref_mark)
        assert _snapshot(state) == at_mark == _snapshot(ref)
        _assert_key_rebuilt(state)
        if rng.random() < 0.3:
            state.rollback(0)
            ref.rollback(0)
            assert _snapshot(state) == fresh == _snapshot(SolveState(g))
            _assert_key_rebuilt(state)


class TestRollback:
    def test_rollback_restores_every_array_and_key(self):
        rng = random.Random(5150)
        graphs = [random_undirected(rng, rng.randint(5, 14), 0.5) for _ in range(150)]
        graphs.append(_pipeline_graph(parse_sudoku("1...2..3......2.")))
        for g in graphs:
            _steps_and_rollbacks(rng, g, list(g.edges()), 6, 12)

    def test_non_edges_rejected(self):
        state = SolveState(UndirectedGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
        for u, v in ((1, 3), (0, 1), (5, 1), (1, 5), (2, 2)):
            for call in (state.force, state.exclude, state.edge_state):
                with pytest.raises(ValueError):
                    call(u, v)


def _dense_graph(n: int, missing: set[tuple[int, int]]) -> UndirectedGraph:
    return UndirectedGraph(
        n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in missing]
    )


class TestDegreeCap:
    """Usable degrees of 254 and more share the key byte 254; the pick
    among them must still be the scan's."""

    def test_complete_graph(self):
        g = _dense_graph(258, set())  # every degree 257
        few = list(_dense_graph(6, set()).edges())
        _steps_and_rollbacks(random.Random(258), g, few, 5, 14)

    def test_degrees_254_255_and_300(self):
        # 300 keeps 254 edges, 10 keeps 255, their dropped neighbours 299
        # and everyone else 300
        missing = {(a, 300) for a in range(200, 246)} | {(10, b) for b in range(250, 295)}
        g = _dense_graph(301, missing)
        assert [len(g._adj[v]) for v in (1, 10, 200, 250, 300)] == [300, 255, 299, 299, 254]
        state = SolveState(g)
        assert state.key[1] == state.key[10] == state.key[300] == 254
        assert state.edges[_pick_branch_edge(state)] == (1, 300)
        around = {1, 2, 10, 200, 250, 300}
        few = [(a, b) for a, b in g.edges() if a in around and b in around]
        _steps_and_rollbacks(random.Random(300), g, few, 5, 14)
