import random
from collections import Counter
from itertools import chain

import pytest

from sudoku2hcp import (
    DirectedGraph,
    UndirectedGraph,
    build_hcp,
    clue_redundant_arcs,
    parse_sudoku,
    prune_fixed,
    undirect,
)
from sudoku2hcp.graphs import _uncoverable
from _support import (
    PUZZLE_35,
    peak_bytes,
    random_directed_arcs,
    storage,
)


def shuffled(pairs, seed):
    pairs = list(pairs)
    random.Random(seed).shuffle(pairs)
    return pairs


class TestSortedStorage:
    def test_undirected_comes_out_ascending(self):
        rng = random.Random(7)
        n = 40
        edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.random() < 0.3]
        # each edge given in a random orientation and a random order
        given = shuffled(((a, b) if rng.random() < 0.5 else (b, a)
                          for a, b in edges), 1)
        g = UndirectedGraph(n + 5, given)
        assert list(g.edges()) == sorted(edges)
        for v in range(1, n + 6):
            nbrs = g._adj.get(v, ())
            assert isinstance(nbrs, tuple)
            assert list(nbrs) == sorted({b for a, b in edges if a == v}
                                        | {a for a, b in edges if b == v})

    def test_directed_comes_out_ascending(self):
        g0 = build_hcp(4)
        arcs = list(g0.arcs())
        assert arcs == sorted(arcs)
        g = DirectedGraph(g0.n, shuffled(arcs, 2))
        assert list(g.arcs()) == arcs
        assert g == g0
        for v in range(1, g.n + 1):
            succ = g._adj.get(v, ())
            assert isinstance(succ, tuple)
            assert list(succ) == sorted(b for a, b in arcs if a == v)

    def test_duplicates_rejected_in_either_orientation(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            UndirectedGraph(3, [(1, 2), (2, 3), (2, 1)])
        with pytest.raises(ValueError, match=r"duplicate arc \(2, 1\)"):
            DirectedGraph(3, [(2, 1), (1, 2), (2, 1)])
        DirectedGraph(2, [(1, 2), (2, 1)])

    @pytest.mark.parametrize(
        "n,edges,want",
        [
            (4, [(1, 2), (2, 3), (3, 4), (4, 1)], None),
            (5, [(1, 2), (2, 3), (3, 4), (4, 1)], 5),  # 5 has no edge
            (5, [(1, 2), (2, 4), (4, 5), (5, 1)], 3),  # 3 has no edge
            (5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)], 5),  # degree 1
            (5, [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5)], 5),
            (5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 1)], None),
            (3, [(1, 2)], 1),
            (3, [], 1),
            # every vertex has a key, and only the first has degree 1
            (4, [(1, 2), (2, 3), (3, 4), (4, 2)], 1),
            (6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4)], None),
        ],
    )
    def test_low_degree_vertex(self, n, edges, want):
        # want is the smallest vertex of degree below 2; the edge count is
        # named first when it is below n, so the degree scan is also run
        # alone, on a _derived copy that claims n edges
        g = UndirectedGraph(n, edges)
        degree = Counter(chain.from_iterable(edges))
        low = [v for v in range(1, n + 1) if degree[v] < 2]
        assert want == (low[0] if low else None)
        scan = f"vertex {want} has degree {degree[want]}" if want else None
        assert _uncoverable(g) == (f"{g.m} edges cannot cover {n} vertices" if g.m < n else scan)
        derived = UndirectedGraph._derived(n, g.m, dict(g._adj))
        assert _uncoverable(derived) == _uncoverable(g)
        assert _uncoverable(UndirectedGraph._derived(n, max(g.m, n), dict(g._adj))) == scan

    def test_low_degree_vertex_of_a_triplication(self):
        # undirect stores its graph through _derived; every in- and
        # out-copy of a directed cycle has degree 2
        ug, _ = undirect(DirectedGraph(3, [(1, 2), (2, 3), (3, 1)]))
        assert _uncoverable(ug) is None
        ug, _ = undirect(DirectedGraph(3, [(1, 2), (2, 3)]))
        assert _uncoverable(ug) == "8 edges cannot cover 9 vertices"
        scan = UndirectedGraph._derived(ug.n, ug.n, ug._adj)
        assert _uncoverable(scan) == "vertex 1 has degree 1"  # vertex 1 has no in-arc

    @pytest.mark.parametrize("cls", [UndirectedGraph, DirectedGraph])
    def test_memory_follows_the_edges_not_n(self, cls):
        assert peak_bytes(lambda: cls(10**6, [(1, 2)])) < 1_000_000


class TestOneContainer:
    # both kinds store one adjacency, so only the kind tells them apart

    def test_kinds_with_equal_adjacency_are_not_equal(self):
        d = DirectedGraph(2, [(1, 2), (2, 1)])
        u = UndirectedGraph(2, [(1, 2)])
        assert d._adj == u._adj == {1: (2,), 2: (1,)}
        assert d != u and u != d
        assert d == DirectedGraph(2, [(2, 1), (1, 2)])
        assert u == UndirectedGraph(2, [(2, 1)])

    def test_repr_names_the_kind(self):
        assert repr(DirectedGraph(3, [(1, 2), (2, 3)])) == "DirectedGraph(n=3, m=2)"
        assert repr(UndirectedGraph(0, [])) == "UndirectedGraph(n=0, m=0)"

    @pytest.mark.parametrize("cls, word", [(DirectedGraph, "arc"), (UndirectedGraph, "edge")])
    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (-1, [], "vertex count must be non-negative"),
            (3, [(1, 4)], "{} (1, 4) out of range 1..3"),
            (3, [(0, 2)], "{} (0, 2) out of range 1..3"),
            (3, [(2, 2)], "self-loop at 2"),
            (3, [(1, 2), (2, 3), (1, 2)], "duplicate {} (1, 2)"),
        ],
    )
    def test_rejections_keep_the_kind_word(self, cls, word, n, pairs, message):
        with pytest.raises(ValueError) as err:
            cls(n, pairs)
        assert str(err.value) == message.format(word)


class TestWithoutArcs:
    # without_arcs keeps the tuples it does not touch and stores the rest
    # unchecked, so it must come out as the checking constructor stores
    # the arcs that are left

    def test_matches_constructor_on_random_digraphs(self):
        rng = random.Random(71)
        emptied = 0
        for _ in range(400):
            n = rng.randint(1, 10)
            g = DirectedGraph(n, random_directed_arcs(rng, n, rng.choice((0.1, 0.3, 0.7))))
            arcs = list(g.arcs())
            gone = rng.sample(arcs, rng.randint(0, len(arcs)))
            given = gone + rng.sample(gone, len(gone) // 3)  # some given twice
            h = g.without_arcs(shuffled(given, rng.randrange(10**6)))
            kept = set(arcs).difference(gone)
            assert storage(h) == storage(DirectedGraph(n, kept))
            assert list(g.arcs()) == arcs
            tails = {u for u, _ in gone}
            for u, outs in h._adj.items():
                if u not in tails:
                    assert outs is g._adj[u]
            emptied += any(u not in h._adj for u in tails)
        assert emptied >= 50

    def test_tail_that_loses_every_arc_is_dropped(self):
        g = DirectedGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 1)])
        h = g.without_arcs([(1, 3), (1, 2)])
        want = DirectedGraph(4, [(2, 3), (3, 4), (4, 1)])
        assert storage(h) == storage(want) and h == want
        assert list(h._adj) == [2, 3, 4]

    def test_missing_arc_names_the_smallest(self):
        g = DirectedGraph(5, [(1, 2), (2, 3), (3, 1), (4, 5)])
        with pytest.raises(ValueError, match=r"arc \(2, 5\) not in graph"):
            g.without_arcs([(5, 1), (1, 2), (2, 5), (2, 3), (3, 4)])
        with pytest.raises(ValueError, match=r"arc \(1, 4\) not in graph"):
            g.without_arcs([(1, 4), (1, 4)])
        assert g.m == 4 and list(g.arcs()) == [(1, 2), (2, 3), (3, 1), (4, 5)]

    @pytest.mark.parametrize("text", [PUZZLE_35, "1...2..3......2."])
    def test_prune_fixed_matches_constructor(self, text):
        inst = parse_sudoku(text)
        g = build_hcp(inst.order)
        gone = set()
        for (i, j), k in inst.clues.items():
            gone.update(clue_redundant_arcs(inst.order, i, j, k))
        pruned, removed = prune_fixed(g, inst)
        want = DirectedGraph(g.n, [a for a in g.arcs() if a not in gone])
        assert storage(pruned) == storage(want)
        assert removed == len(gone) == g.m - pruned.m
        # pruning twice finds every arc missing, and names the smallest
        with pytest.raises(ValueError, match=rf"arc \({min(gone)[0]}, {min(gone)[1]}\) not"):
            prune_fixed(pruned, inst)
