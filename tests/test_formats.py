import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku2hcp import (
    DirectedGraph,
    SudokuInstance,
    UndirectedGraph,
    blank_instance,
    build_hcp,
    export_graph,
    export_tsplib_hcp,
    format_stats,
    graph_stats,
    import_graph,
    load_journal,
    prune_fixed,
    read_cycle,
    reduce_graph,
    save_journal,
    undirect,
    verify_cycle,
    witness_cycle,
    write_cycle,
)
from _support import (
    all_order4_solutions,
    export_graph_by_lines,
    export_tsplib_hcp_by_lines,
    peak_bytes,
    random_directed_arcs,
    random_undirected,
)


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


    @pytest.mark.parametrize(
        "text, line",
        [
            ("DHCP 3 3\n+1 2\n2 3\n3 1\n", "+1 2"),
            ("DHCP 3 3\n1 2\n1_0 3\n3 1\n", "1_0 3"),
            ("UHCP 3 3\n1 2\n1 3\n\u0662 3\n", "\u0662 3"),
            ("UHCP 3 3\n1 2\n1 3\n2 \uff13\n", "2 \uff13"),
        ],
    )
    def test_edge_line_takes_plain_numbers_only(self, text, line):
        # int() reads all of these, as '+1', 10, 2 and 3
        with pytest.raises(ValueError, match="^" + re.escape(f"bad edge line {line!r}") + "$"):
            import_graph(text)

    @pytest.mark.parametrize("head", ["DHCP 0_3 3", "DHCP +3 3", "UHCP \u0663 3"])
    def test_header_takes_plain_numbers_only(self, head):
        with pytest.raises(ValueError, match="^" + re.escape(f"bad header {head!r}") + "$"):
            import_graph(f"{head}\n1 2\n2 3\n3 1\n")

    def test_negative_ids_left_to_the_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            import_graph("DHCP 3 3\n-1 2\n2 3\n3 1\n")


class TestBulkWriters:
    """export_graph and export_tsplib_hcp against the earlier writers that
    made one f-string per line, byte for byte."""

    def graphs(self, seed):
        rng = random.Random(seed)
        for n in (0, 1, 2, 3, 7, 12, 30):
            for p in (0.0, 0.1, 0.5):
                # isolated vertices are common at the lower densities
                yield DirectedGraph(n, random_directed_arcs(rng, n, p))
                yield random_undirected(rng, n, p)

    def test_export_graph(self):
        for g in self.graphs(1901):
            assert export_graph(g) == export_graph_by_lines(g)

    def test_export_tsplib_hcp(self):
        for g in self.graphs(1902):
            if isinstance(g, UndirectedGraph):
                assert export_tsplib_hcp(g, "g") == export_tsplib_hcp_by_lines(g, "g")

    def test_no_edges(self):
        assert export_graph(DirectedGraph(4, [])) == "DHCP 4 0\n"
        assert export_tsplib_hcp(UndirectedGraph(0, []), "e").endswith(
            "EDGE_DATA_SECTION\n-1\nEOF\n")

    def test_transformed_order9(self):
        g, _ = prune_fixed(build_hcp(9), SudokuInstance(9, {(1, 1): 1, (5, 7): 3}))
        ug, _ = undirect(g)
        assert export_graph(g) == export_graph_by_lines(g)
        assert export_graph(ug) == export_graph_by_lines(ug)
        assert export_tsplib_hcp(ug, "x") == export_tsplib_hcp_by_lines(ug, "x")


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

    @pytest.mark.parametrize("name", ["", "x\nTYPE: TSP", "x\r", "a\tb", "x\u2028y", "café"])
    def test_name_must_be_one_printable_line(self, name):
        g = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError, match="^TSPLIB name must be non-empty and printable"):
            export_tsplib_hcp(g, name)

    def test_rejected_name_quoted_bounded(self):
        # a short name is quoted whole; a megabyte one by a bounded prefix
        # and its length, as the readers quote a bad line
        g = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        prefix = "TSPLIB name must be non-empty and printable ASCII, got "
        with pytest.raises(ValueError) as info:
            export_tsplib_hcp(g, "café")
        assert str(info.value) == prefix + "'café'"
        with pytest.raises(ValueError) as info:
            export_tsplib_hcp(g, "é" * 10**6)
        msg = str(info.value)
        assert msg.startswith(prefix + "'éé") and len(msg) < 300
        assert msg.endswith("… (1000000 characters)")

    def test_name_may_hold_spaces(self):
        g = UndirectedGraph(3, [(1, 2), (2, 3), (1, 3)])
        assert export_tsplib_hcp(g, "order 4 blank").splitlines()[:2] == [
            "NAME: order 4 blank", "TYPE: HCP"]


class TestCycleFormat:
    def test_canonical_form(self):
        assert write_cycle([3, 1, 2, 4]) == "CYCLE 4\n1\n2\n4\n3\n"
        # the reverse cycle is rotated the same way and keeps its direction
        assert write_cycle([4, 2, 1, 3]) == "CYCLE 4\n1\n3\n4\n2\n"

    def test_round_trip(self):
        text = write_cycle([5, 3, 1, 2, 4])
        assert write_cycle(read_cycle(text)) == text

    def test_witness_cycles_keep_their_arc_order(self):
        g = build_hcp(4)
        blank = blank_instance(4)
        for sol in all_order4_solutions():
            w = witness_cycle(blank, sol)
            low = w.index(min(w))
            want = w[low:] + w[:low]
            for r in (0, 100, 473):
                back = read_cycle(write_cycle(w[r:] + w[:r]))
                assert back == want
                assert verify_cycle(g, back)
                assert not verify_cycle(g, back[::-1])

    @pytest.mark.parametrize(
        "cycle, err",
        [
            ([], "cycle must have at least 3 vertices"),
            ([1], "cycle must have at least 3 vertices"),
            ([1, 2], "cycle must have at least 3 vertices"),
            ([1, 1], "cycle contains repeated vertices"),
            ([1, 2, 1], "cycle contains repeated vertices"),
            ([1, 2, 2, 3], "cycle contains repeated vertices"),
        ],
    )
    def test_writer_and_reader_refuse_alike(self, cycle, err):
        with pytest.raises(ValueError, match=f"^{err}$"):
            write_cycle(cycle)
        text = f"CYCLE {len(cycle)}\n" + "".join(f"{v}\n" for v in cycle)
        with pytest.raises(ValueError, match=f"^{err}$"):
            read_cycle(text)

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="3 vertices"):
            read_cycle("CYCLE 3\n1\n2\n")

    def test_repeat_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            read_cycle("CYCLE 3\n1\n2\n2\n")

    @pytest.mark.parametrize("head", ["CYCLE \u0663", "CYCLE +3", "CYCLE 0_3"])
    def test_header_takes_plain_numbers_only(self, head):
        with pytest.raises(ValueError, match="^" + re.escape(f"bad header {head!r}") + "$"):
            read_cycle(f"{head}\n1\n2\n3\n")

    @pytest.mark.parametrize("line", ["+2", "2_0", "\uff12", "x", "--2", "2 3"])
    def test_vertex_line_named(self, line):
        want = "^" + re.escape(f"non-integer vertex line {line!r}") + "$"
        with pytest.raises(ValueError, match=want):
            read_cycle(f"CYCLE 3\n1\n{line}\n3\n")

    def test_vertex_line_may_be_padded(self):
        assert read_cycle("CYCLE 3\n 1\n2 \n\t3\n") == [1, 2, 3]

    @pytest.mark.parametrize("head", ["CYCLEX 3", "CYCLE3", "cycle 3", "XCYCLE 3"])
    def test_header_word_must_be_cycle(self, head):
        with pytest.raises(ValueError, match="^missing CYCLE header$"):
            read_cycle(f"{head}\n1\n2\n3\n")


_LONG = "4" * 5000


@pytest.mark.parametrize(
    "read, text, err",
    [
        (import_graph, f"DHCP {_LONG} 1\n1 2\n",
         "bad header 'DHCP " + "4" * 55 + "'… (5007 characters)"),
        (import_graph, f"DHCP 3 1\n{_LONG} 2\n",
         "bad edge line '" + "4" * 60 + "'… (5002 characters)"),
        (read_cycle, f"CYCLE {_LONG}\n1\n",
         "bad header 'CYCLE " + "4" * 54 + "'… (5006 characters)"),
        (read_cycle, f"CYCLE 3\n1\n{_LONG}\n3\n",
         "non-integer vertex line '" + "4" * 60 + "'… (5000 characters)"),
        (load_journal, f"T {_LONG}\n",
         "bad journal line 'T " + "4" * 58 + "'… (5002 characters)"),
    ],
    ids=["graph-header", "edge-line", "cycle-header", "vertex-line", "journal-line"],
)
def test_thousands_of_digits_named(read, text, err):
    # plain ASCII digits, which int() refuses past 4300 in its own words;
    # the message quotes the line's first 60 characters and its length
    with pytest.raises(ValueError, match="^" + re.escape(err) + "$"):
        read(text)


_MB = "x" * 1_000_000


@pytest.mark.parametrize(
    "read, text, err",
    [
        (import_graph, f"{_MB}\n", "bad header"),
        (import_graph, f"DHCP 3 1\n1 {_MB}\n", "bad edge line"),
        (import_graph, f"DHCP 3 1\n1 +{_MB}\n", "bad edge line"),
        (read_cycle, f"CYCLE 1 {_MB}\n1\n", "bad header"),
        (read_cycle, f"CYCLE 1\n{_MB}\n", "non-integer vertex line"),
        (read_cycle, f"CYCLE 1\n+{_MB}\n", "non-integer vertex line"),
        (load_journal, f"T {_MB}\n", "bad journal line"),
        (load_journal, f"T +{_MB}\n", "bad journal line"),
    ],
    ids=["graph-header", "edge-line", "edge-line-plus", "cycle-header",
         "vertex-line", "vertex-line-plus", "journal-line", "journal-line-plus"],
)
def test_long_bad_line_quoted_bounded(read, text, err):
    # a megabyte line is named by a bounded prefix and its length, on the
    # path that splits the line and on the one that finds it by _plain
    with pytest.raises(ValueError) as info:
        read(text)
    msg = str(info.value)
    assert msg.startswith(err + " '") and len(msg) < 120
    assert re.fullmatch(r"'[^']{60}'… \(\d+ characters\)", msg[len(err) + 1:])


@pytest.mark.parametrize("size, quoted", [(60, True), (61, False)])
def test_bad_line_quoted_whole_up_to_60_characters(size, quoted):
    line = "x" * size
    want = repr(line) if quoted else f"'{'x' * 60}'… (61 characters)"
    with pytest.raises(ValueError, match="^" + re.escape(f"bad journal line {want}") + "$"):
        load_journal(line + "\n")


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
        assert {ln[0] for ln in text.splitlines()[1:]} == {"p"}

    @pytest.mark.parametrize(
        "line", ["c 1 2 3 4", "C 1 2 3 4", "d 1 2", "D 1 2", "G 1 2 3"]
    )
    def test_retired_line_kinds_rejected(self, line):
        # the pair and renumbered records older versions wrote
        with pytest.raises(ValueError, match=f"^bad journal line '{line}'$"):
            load_journal(f"T 2\n{line}\n")

    @pytest.mark.parametrize(
        "text,cycle,match",
        [
            # a path line needs a survivor, two ends and two path vertices
            ("p 2 1 4 2\n", None, "journal line"),
            ("p 2\n", None, "journal line"),
            ("p 2 1 5 3 4\n", [1, 2, 3], "survivor 2 once"),
            ("p 2 1 4 2 3 2\n", [1, 2, 3], "survivor 2 once"),
            ("g 3 2 4\np 2 1 4 2 3\n", [1, 2, 3], "twice"),
            ("p 2 1 5 2 3\n", [1, 2, 3, 4], "neighbours"),
        ],
    )
    def test_hostile_path_lines_rejected(self, text, cycle, match):
        with pytest.raises(ValueError, match=match):
            load_journal(text).lift(cycle)

    @pytest.mark.parametrize("line", ["T +2", "T 2_0", "T \u0662", "g 1 2 \uff13"])
    def test_lines_take_plain_numbers_only(self, line):
        with pytest.raises(ValueError, match="^" + re.escape(f"bad journal line {line!r}") + "$"):
            load_journal(f"{line}\n")

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

    def test_degrees_match_a_count_over_the_pairs(self):
        # graph_stats reads the degrees off the adjacency; counted arc by
        # arc or edge by edge, with isolated vertices, they come out equal
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(0, 12)
            p = rng.choice((0.05, 0.3, 0.8))
            if rng.random() < 0.5:
                g = DirectedGraph(n, random_directed_arcs(rng, n, p))
                pairs = list(g.arcs())
            else:
                g = random_undirected(rng, n, p)
                pairs = list(g.edges())
            outs = [sum(u == v for u, _ in pairs) for v in range(1, n + 1)]
            ins = [sum(w == v for _, w in pairs) for v in range(1, n + 1)]
            degrees = sorted(map(sum, zip(outs, ins)))
            st_ = graph_stats(g)
            assert st_.histogram == tuple(
                (d, degrees.count(d)) for d in sorted(set(degrees))
            )
            assert (st_.min_degree, st_.max_degree) == (
                (degrees[0], degrees[-1]) if n else (0, 0)
            )
            if isinstance(g, DirectedGraph) and n:
                assert (st_.min_out_degree, st_.max_out_degree) == (min(outs), max(outs))
                assert (st_.min_in_degree, st_.max_in_degree) == (min(ins), max(ins))
            else:
                assert st_.min_out_degree is st_.max_in_degree is None

    @pytest.mark.parametrize("kind", ["UHCP", "DHCP"])
    def test_memory_follows_the_file_not_the_header(self, kind):
        # a header claiming a million vertices, with one arc or edge
        text = f"{kind} 1000000 1\n1 2\n"
        assert peak_bytes(lambda: graph_stats(import_graph(text))) < 1_000_000
        st_ = graph_stats(import_graph(text))
        assert st_.vertices == 1_000_000
        assert st_.min_degree == 0 and st_.max_degree == 1
        assert st_.histogram == ((0, 999_998), (1, 2))
