import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku2hcp import (
    DirectedGraph,
    SudokuInstance,
    UndirectedGraph,
    build_hcp,
    enumerate_solutions,
    export_graph,
    export_tsplib_hcp,
    format_stats,
    graph_stats,
    import_graph,
    load_journal,
    parse_sudoku,
    prune_fixed,
    read_cycle,
    recover_solution,
    reduce_graph,
    save_journal,
    undirect,
    verify_cycle,
    write_cycle,
)
from _support import peak_bytes, random_undirected


class TestGraphFormat:
    def test_directed_triangle_bytes(self):
        g = DirectedGraph(3, [(1, 2), (2, 3), (3, 1)])
        assert export_graph(g) == "DHCP 3 3\n1 2\n2 3\n3 1\n"

    def test_undirected_triangle(self):
        g = UndirectedGraph(3, [(2, 3), (1, 3), (1, 2)])
        assert export_graph(g) == "UHCP 3 3\n1 2\n1 3\n2 3\n"
        assert import_graph("UHCP 3 3\n1 2\n1 3\n2 3\n") == g

    def test_round_trip_order9(self):
        g = build_hcp(9)
        text = export_graph(g)
        assert len(text.splitlines()) == 14034  # header plus one line per arc
        again = import_graph(text)
        assert again == g
        assert export_graph(again) == text

    def test_round_trip_transformed(self):
        g = build_hcp(4)
        g, _ = prune_fixed(g, SudokuInstance(4, {(1, 1): 1}))
        ug, _ = undirect(g)
        text = export_graph(ug)
        assert export_graph(import_graph(text)) == text

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="3 lines"):
            import_graph("UHCP 3 3\n1 2\n2 3\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            import_graph("XHCP 3 3\n1 2\n2 3\n3 1\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            import_graph("DHCP 3 1\n2 2\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            import_graph("UHCP 3 2\n1 2\n2 1\n")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**30))
    def test_random_round_trips(self, seed):
        rng = random.Random(seed)
        g = random_undirected(rng, rng.randint(1, 12), 0.4)
        assert import_graph(export_graph(g)) == g


class TestTsplib:
    def test_triangle_layout(self):
        g = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        text = export_tsplib_hcp(g, "tri")
        lines = text.splitlines()
        assert lines[0] == "NAME: tri"
        assert lines[1] == "TYPE: HCP"
        assert lines[2] == "DIMENSION: 3"
        assert lines[3] == "EDGE_DATA_FORMAT: EDGE_LIST"
        assert lines[4] == "EDGE_DATA_SECTION"
        assert lines[5:8] == ["1 2", "1 3", "2 3"]
        assert lines[8] == "-1"
        assert lines[9] == "EOF"
        assert text.endswith("EOF\n")

    def test_blank_order9_dimension(self):
        ug, _ = undirect(build_hcp(9))
        text = export_tsplib_hcp(ug, "order9")
        assert "DIMENSION: 14397" in text.splitlines()[2]
        # 5 header lines, the edges, the -1 terminator and EOF
        assert len(text.splitlines()) == 7 + ug.m


class TestCycleFormat:
    def test_canonical_form(self):
        assert write_cycle([3, 1, 2, 4]) == "CYCLE 4\n1\n2\n4\n3\n"
        # both rotations and directions of the same cycle canonicalise alike
        assert write_cycle([4, 2, 1, 3]) == write_cycle([3, 1, 2, 4])

    def test_round_trip(self):
        text = write_cycle([5, 3, 1, 2, 4])
        assert write_cycle(read_cycle(text)) == text

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="3 vertices"):
            read_cycle("CYCLE 3\n1\n2\n")

    def test_repeat_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            read_cycle("CYCLE 3\n1\n2\n2\n")


class TestJournalFormat:
    def test_round_trip(self):
        g = build_hcp(4)
        g, _ = prune_fixed(g, SudokuInstance(4, {(1, 1): 1, (2, 3): 2}))
        ug, lifter = undirect(g)
        out = reduce_graph(ug)
        assert isinstance(out, tuple)
        reduced, step = out
        chain = lifter + step
        text = save_journal(chain)
        again = load_journal(text)
        assert save_journal(again) == text
        assert text.startswith("T 474\n")
        assert {ln[0] for ln in text.splitlines()[1:]} <= set("gcd")

    def test_older_format_lifts_to_the_same_cycle(self):
        # a triplication, compress and reduce journal written with the
        # older renumbered G/C/D records, the cycle the solver found on the
        # reduced graph, and the directed cycle that journal lifted it to
        data = Path(__file__).parent / "data"
        text = (data / "legacy_compress_reduce.journal").read_text()
        cycle = read_cycle((data / "legacy_compress_reduce.cycle").read_text())
        lifted = read_cycle((data / "legacy_compress_reduce.lifted").read_text())
        lifter = load_journal(text)
        assert lifter.lift(cycle) == lifted
        assert load_journal(save_journal(lifter)) == lifter
        inst = parse_sudoku("1...2..3......2.")
        pruned, _ = prune_fixed(build_hcp(4), inst)
        assert verify_cycle(pruned, lifted)
        assert [recover_solution(lifted, 4)] == enumerate_solutions(inst, 2)

    def test_mixed_formats_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            load_journal("T 2\nG 3 2 4\ng 3 2 4\n")

    def test_empty_journal(self):
        from sudoku2hcp import CycleLifter

        assert save_journal(CycleLifter()) == ""
        assert load_journal("") == CycleLifter()

    def test_bad_line(self):
        with pytest.raises(ValueError, match="journal line"):
            load_journal("Q 1 2\n")


class TestStats:
    def test_average_degrees(self):
        ug4, _ = undirect(build_hcp(4))
        ug9, _ = undirect(build_hcp(9))
        assert graph_stats(ug4).average_degree == 3.1027
        assert graph_stats(ug9).average_degree == 3.2828

    def test_directed_triangle(self):
        st_ = graph_stats(DirectedGraph(3, [(1, 2), (2, 3), (3, 1)]))
        assert st_.vertices == 3
        assert st_.edges == 3
        assert st_.min_out_degree == st_.max_out_degree == 1
        assert st_.min_in_degree == st_.max_in_degree == 1

    def test_histogram(self):
        g = UndirectedGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        st_ = graph_stats(g)
        assert st_.histogram == ((2, 2), (3, 2))
        assert st_.min_degree == 2
        assert st_.max_degree == 3

    def test_report_text(self):
        g = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        text = format_stats(graph_stats(g))
        assert "vertices: 3" in text
        assert "average degree: 2.0000" in text

    @pytest.mark.parametrize("kind", ["UHCP", "DHCP"])
    def test_memory_follows_the_file_not_the_header(self, kind):
        # a header claiming a million vertices, with one arc or edge
        text = f"{kind} 1000000 1\n1 2\n"
        assert peak_bytes(lambda: graph_stats(import_graph(text))) < 1_000_000
        st_ = graph_stats(import_graph(text))
        assert st_.vertices == 1_000_000
        assert st_.min_degree == 0 and st_.max_degree == 1
        assert st_.histogram == ((0, 999_998), (1, 2))
