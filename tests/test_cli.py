import argparse
import re
from pathlib import Path

import pytest

from sudoku2hcp import (
    blank_instance,
    build_hcp,
    enumerate_solutions,
    format_grid,
    parse_grid,
    parse_sudoku,
    prune_fixed,
    undirect,
    witness_cycle,
    write_cycle,
)
from sudoku2hcp.cli import _parser, main
from sudoku2hcp.formats import export_graph
from sudoku2hcp.transform import triplicate_cycle
from _support import all_order4_solutions, peak_bytes

BLANK4 = "." * 16
PUZZLE4 = "1...2..3......2."


@pytest.fixture
def puzzle_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_pipeline_blank_order4(puzzle_file, capsys, tmp_path):
    path = puzzle_file("blank.txt", BLANK4)
    rc = main(["pipeline", path])
    out = capsys.readouterr().out
    grid = parse_grid(out)
    assert rc == 0
    assert grid in all_order4_solutions()


def test_pipeline_well_formed_puzzle(puzzle_file, capsys):
    path = puzzle_file("p.txt", PUZZLE4)
    inst = enumerate_solutions(__import__("sudoku2hcp").parse_sudoku(PUZZLE4), 2)
    rc = main(["pipeline", path, "--stats"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("STATS nodes=")
    grid = parse_grid("\n".join(lines[1:]))
    assert [grid] == inst


@pytest.mark.parametrize(
    "argv",
    [["pipeline", "--no-prune"], ["pipeline", "--compress"],
     ["pipeline", "--seed", "1"], ["solve", "-o", "c.cyc", "--seed", "1"],
     ["convert", "-o", "g.dhcp", "--prune"],
     ["convert", "-o", "g.dhcp", "--format", "line"], ["pipeline", "--format", "line"],
     ["compress", "-o", "c.uhcp", "--journal-out", "c.journal", "--order", "4"],
     ["recover", "--order", "4"], ["pipeline", "--no-reduce"]],
)
def test_removed_options_rejected(puzzle_file, capsys, argv):
    path = puzzle_file("p.txt", "2" + "." * 15)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [path] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_format_option_removed(puzzle_file, capsys):
    p = puzzle_file("p.txt", BLANK4)
    g = puzzle_file("g.txt", format_grid(all_order4_solutions()[0]))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--puzzle", p, "--grid", g, "--format", "grid"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pipeline_inconsistent_exit_3(puzzle_file, capsys):
    path = puzzle_file("bad.txt", "11..............")
    rc = main(["pipeline", path])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_pipeline_order_of_thousands_of_digits_exit_3(puzzle_file, capsys):
    path = puzzle_file("p.txt", "4" * 5000 + "\n" + "0 " * 16)
    assert main(["pipeline", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: order has 5000 digits, too many for 16 cell tokens\n"
    assert captured.out == ""


def test_pipeline_unsat_exit_1(puzzle_file, capsys, tmp_path):
    # consistent clues without a solution, refuted by reduce: the pipeline
    # gives the reason in the reduce subcommand's words
    text = "12....43........"
    assert enumerate_solutions(__import__("sudoku2hcp").parse_sudoku(text), 1) == []
    path = puzzle_file("unsat.txt", text)
    rc = main(["pipeline", path])
    assert rc == 1
    said = capsys.readouterr().err.splitlines()
    d = str(tmp_path)
    assert main(["convert", path, "-o", f"{d}/g.dhcp"]) == 0
    assert main(["undirect", f"{d}/g.dhcp", "-o", f"{d}/g.uhcp",
                 "--journal-out", f"{d}/g.journal"]) == 0
    capsys.readouterr()
    assert main(["reduce", f"{d}/g.uhcp", "-o", f"{d}/r.uhcp",
                 "--journal-out", f"{d}/r.journal"]) == 1
    reduce_said = capsys.readouterr().err.splitlines()
    assert reduce_said[0].startswith("infeasible: ")
    assert said == reduce_said + ["puzzle is unsatisfiable"]


def test_pipeline_budget_exit_2(puzzle_file, capsys):
    path = puzzle_file("blank9.txt", "." * 81)
    rc = main(["pipeline", path, "--budget-ms", "1"])
    assert rc == 2


def test_stage_by_stage_matches_pipeline(puzzle_file, capsys, tmp_path):
    path = puzzle_file("p.txt", PUZZLE4)
    d = str(tmp_path)
    assert main(["convert", path, "-o", f"{d}/g.dhcp"]) == 0
    assert (
        main(["undirect", f"{d}/g.dhcp", "-o", f"{d}/g.uhcp",
              "--journal-out", f"{d}/g.journal"]) == 0
    )
    assert (
        main(["reduce", f"{d}/g.uhcp", "-o", f"{d}/r.uhcp",
              "--journal", f"{d}/g.journal", "--journal-out", f"{d}/r.journal"]) == 0
    )
    assert main(["solve", f"{d}/r.uhcp", "-o", f"{d}/c.cycle"]) == 0
    capsys.readouterr()
    assert main(["recover", f"{d}/c.cycle", "--journal", f"{d}/r.journal"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    sols = enumerate_solutions(__import__("sudoku2hcp").parse_sudoku(PUZZLE4), 2)
    assert [grid] == sols


def test_stage_chain_without_reduce_matches_pipeline(puzzle_file, capsys, tmp_path):
    # pipeline always reduces; an unreduced search is the stage chain
    # without its reduce stage
    path = puzzle_file("p.txt", PUZZLE4)
    d = str(tmp_path)
    assert main(["pipeline", path]) == 0
    piped = capsys.readouterr().out
    assert main(["convert", path, "-o", f"{d}/g.dhcp"]) == 0
    assert main(["undirect", f"{d}/g.dhcp", "-o", f"{d}/g.uhcp",
                 "--journal-out", f"{d}/g.journal"]) == 0
    assert main(["solve", f"{d}/g.uhcp", "-o", f"{d}/c.cycle"]) == 0
    capsys.readouterr()
    assert main(["recover", f"{d}/c.cycle", "--journal", f"{d}/g.journal"]) == 0
    assert capsys.readouterr().out == piped


def test_stage_chain_with_compress(puzzle_file, capsys, tmp_path):
    # compress deletes vertices, so reduce's journal is rewritten into the
    # compressed journal's base ids when the two are chained through files
    path = puzzle_file("p.txt", PUZZLE4)
    d = str(tmp_path)
    assert main(["convert", path, "-o", f"{d}/g.dhcp"]) == 0
    assert main(["undirect", f"{d}/g.dhcp", "-o", f"{d}/g.uhcp",
                 "--journal-out", f"{d}/g.journal"]) == 0
    assert main(["compress", f"{d}/g.uhcp", "-o", f"{d}/c.uhcp",
                 "--journal", f"{d}/g.journal", "--journal-out", f"{d}/c.journal"]) == 0
    assert main(["reduce", f"{d}/c.uhcp", "-o", f"{d}/r.uhcp",
                 "--journal", f"{d}/c.journal", "--journal-out", f"{d}/r.journal"]) == 0
    assert main(["solve", f"{d}/r.uhcp", "-o", f"{d}/r.cycle"]) == 0
    capsys.readouterr()
    assert main(["recover", f"{d}/r.cycle", "--journal", f"{d}/r.journal"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    sols = enumerate_solutions(__import__("sudoku2hcp").parse_sudoku(PUZZLE4), 2)
    assert [grid] == sols


def test_compress_stage(puzzle_file, capsys, tmp_path):
    d = str(tmp_path)
    path = puzzle_file("blank.txt", BLANK4)
    assert main(["convert", path, "-o", f"{d}/g.dhcp"]) == 0
    assert (
        main(["undirect", f"{d}/g.dhcp", "-o", f"{d}/g.uhcp",
              "--journal-out", f"{d}/g.journal"]) == 0
    )
    assert (
        main(["compress", f"{d}/g.uhcp", "-o", f"{d}/c.uhcp",
              "--journal", f"{d}/g.journal", "--journal-out", f"{d}/c.journal"]) == 0
    )
    capsys.readouterr()
    assert main(["stats", f"{d}/c.uhcp"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 1294" in out


def test_convert_prunes_for_the_clues(puzzle_file, capsys, tmp_path):
    # a chain of stage commands must solve the puzzle given, not the blank grid
    d = str(tmp_path)
    path = puzzle_file("p.txt", PUZZLE4)
    assert main(["convert", path, "-o", f"{d}/g.dhcp"]) == 0
    pruned, removed = prune_fixed(build_hcp(4), parse_sudoku(PUZZLE4))
    assert removed > 0
    assert Path(d, "g.dhcp").read_text() == export_graph(pruned)
    said = capsys.readouterr().out
    assert said == f"wrote {d}/g.dhcp: {pruned.n} vertices, {pruned.m} arcs, {removed} pruned\n"


def test_recover_rejects_a_retired_journal(puzzle_file, capsys):
    cf = puzzle_file("c.cycle", "CYCLE 3\n1\n2\n3\n")
    jf = puzzle_file("g.journal", "G 1 2 3\n")
    assert main(["recover", cf, "--journal", jf]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: bad journal line 'G 1 2 3'\n"
    assert captured.out == ""


def test_verify_grid(puzzle_file, capsys):
    sol = all_order4_solutions()[0]
    p = puzzle_file("p.txt", BLANK4)
    g = puzzle_file("g.txt", format_grid(sol))
    assert main(["verify", "--puzzle", p, "--grid", g]) == 0
    assert "valid" in capsys.readouterr().out
    bad = puzzle_file("bad.txt", format_grid(sol).replace("1", "2", 1))
    assert main(["verify", "--puzzle", p, "--grid", bad]) == 1


def test_verify_cycle(puzzle_file, capsys, tmp_path):
    g4 = build_hcp(4)
    w = witness_cycle(blank_instance(4), all_order4_solutions()[0])
    gf = puzzle_file("g.dhcp", export_graph(g4))
    cf = puzzle_file("c.cycle", write_cycle(w))
    assert main(["verify", "--graph", gf, "--cycle", cf]) == 0
    ug, _ = undirect(g4)
    uf = puzzle_file("g.uhcp", export_graph(ug))
    ucf = puzzle_file("u.cycle", write_cycle(triplicate_cycle(w)))
    assert main(["verify", "--graph", uf, "--cycle", ucf]) == 0
    # a cycle of the wrong graph is invalid
    assert main(["verify", "--graph", uf, "--cycle", cf]) == 1


def test_export_tsplib(puzzle_file, capsys, tmp_path):
    d = str(tmp_path)
    path = puzzle_file("blank.txt", BLANK4)
    assert main(["convert", path, "-o", f"{d}/g.dhcp"]) == 0
    assert (
        main(["undirect", f"{d}/g.dhcp", "-o", f"{d}/g.uhcp",
              "--journal-out", f"{d}/j"]) == 0
    )
    assert (
        main(["export-tsplib", f"{d}/g.uhcp", "-o", f"{d}/g.tsp",
              "--name", "blank4"]) == 0
    )
    text = Path(d, "g.tsp").read_text()
    assert text.splitlines()[0] == "NAME: blank4"
    assert "DIMENSION: 1422" in text


def test_export_tsplib_rejects_a_header_injecting_name(puzzle_file, capsys, tmp_path):
    # a line break in the name would write a second TYPE: line
    gf = puzzle_file("g.uhcp", export_graph(undirect(build_hcp(4))[0]))
    argv = ["export-tsplib", gf, "-o", f"{tmp_path}/g.tsp", "--name", "x\nTYPE: TSP"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: TSPLIB name must be non-empty and printable")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.uhcp"]


def test_missing_file_exit_3(capsys):
    assert main(["stats", "/nonexistent/graph.uhcp"]) == 3


def test_recover_witness_exact_grid(puzzle_file, capsys):
    sol = all_order4_solutions()[7]
    w = witness_cycle(blank_instance(4), sol)
    cf = puzzle_file("w.cycle", write_cycle(w))
    assert main(["recover", cf]) == 0
    assert parse_grid(capsys.readouterr().out) == sol


def test_undirect_fewer_arcs_than_vertices(puzzle_file, capsys, tmp_path):
    # a header claiming 200k vertices and no arcs: answered before any of
    # the 2n chain edges exist, with nothing written
    d = str(tmp_path)
    path = puzzle_file("empty.dhcp", "DHCP 200000 0\n")
    argv = ["undirect", path, "-o", f"{d}/g.uhcp", "--journal-out", f"{d}/j"]
    rcs = []
    assert peak_bytes(lambda: rcs.append(main(argv))) < 1_000_000
    assert rcs == [1]
    captured = capsys.readouterr()
    assert captured.err == "infeasible: 0 arcs cannot cover 200000 vertices\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.dhcp"]


@pytest.mark.parametrize(
    "argv,rc,err",
    [
        (["compress", "-o", "c.uhcp", "--journal-out", "j"], 3,
         "error: 0 edges cannot cover 18150606 vertices\n"),
        (["reduce", "-o", "r.uhcp", "--journal-out", "j"], 1,
         "infeasible: 0 edges cannot cover 18150606 vertices\n"),
        (["solve", "-o", "s.cycle"], 1, "no Hamiltonian cycle\n"),
    ],
)
def test_header_only_graph(puzzle_file, capsys, tmp_path, argv, rc, err):
    # 16 bytes claim the triplication of an order-100 encoding, whose
    # compression alone would list 2N^3 = 2,000,000 gadget middles; each
    # stage answers in bounded memory, with nothing written
    path = puzzle_file("empty.uhcp", "UHCP 18150606 0")
    argv = [argv[0], path] + [a if a.startswith("-") else f"{tmp_path}/{a}" for a in argv[1:]]
    rcs = []
    assert peak_bytes(lambda: rcs.append(main(argv))) < 1_000_000
    assert rcs == [rc]
    captured = capsys.readouterr()
    assert captured.err == err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.uhcp"]


def test_readme_synopsis_matches_the_parser():
    # every --option a `sudoku2hcp <cmd>` line of README's command-line
    # synopsis names, continuation lines included, is one <cmd> accepts
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    (commands,) = (
        a.choices for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    named = []
    cmd = None
    for line in block.splitlines():
        if line.startswith("sudoku2hcp "):
            cmd = line.split()[1]
        assert cmd in commands, line
        for option in re.findall(r"--[a-z][a-z-]*", line):
            named.append(option)
            assert option in commands[cmd]._option_string_actions, (cmd, option)
    assert len(named) > 10
