import random

import pytest

from sudoku2hcp import DirectedGraph, UndirectedGraph, build_hcp
from _support import peak_bytes


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
            nbrs = g.neighbors(v)
            assert isinstance(nbrs, list)
            assert nbrs == sorted({b for a, b in edges if a == v}
                                  | {a for a, b in edges if b == v})

    def test_directed_comes_out_ascending(self):
        g0 = build_hcp(4)
        arcs = list(g0.arcs())
        assert arcs == sorted(arcs)
        g = DirectedGraph(g0.n, shuffled(arcs, 2))
        assert list(g.arcs()) == arcs
        assert g == g0
        for v in range(1, g.n + 1):
            succ = g.successors(v)
            assert isinstance(succ, list)
            assert succ == sorted(b for a, b in arcs if a == v)

    def test_duplicates_rejected_in_either_orientation(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            UndirectedGraph(3, [(1, 2), (2, 3), (2, 1)])
        with pytest.raises(ValueError, match=r"duplicate arc \(2, 1\)"):
            DirectedGraph(3, [(2, 1), (1, 2), (2, 1)])
        DirectedGraph(2, [(1, 2), (2, 1)])

    def test_from_adjacency_matches_edge_list(self):
        g = UndirectedGraph(5, [(1, 2), (2, 3), (3, 1), (3, 4)])
        h = UndirectedGraph._from_adjacency(5, {1: [3, 2], 2: [3, 1], 3: [4, 2, 1], 4: [3]})
        assert h == g and h.m == g.m == 4
        assert list(h.edges()) == list(g.edges())
        with pytest.raises(ValueError, match="out of range"):
            UndirectedGraph._from_adjacency(2, {1: [3], 3: [1]})
        with pytest.raises(ValueError, match="self-loop"):
            UndirectedGraph._from_adjacency(2, {1: [1, 2], 2: [1]})
        with pytest.raises(ValueError, match="duplicate"):
            UndirectedGraph._from_adjacency(2, {1: [2, 2], 2: [1, 1]})

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
        ],
    )
    def test_low_degree_vertex(self, n, edges, want):
        g = UndirectedGraph(n, edges)
        assert g.low_degree_vertex() == want
        low = [v for v in range(1, n + 1) if g.degree(v) < 2]
        assert want == (low[0] if low else None)

    @pytest.mark.parametrize("cls", [UndirectedGraph, DirectedGraph])
    def test_memory_follows_the_edges_not_n(self, cls):
        assert peak_bytes(lambda: cls(10**6, [(1, 2)])) < 1_000_000
