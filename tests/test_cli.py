import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import sudoku2hcp
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
from _support import all_order4_solutions, peak_bytes, triplicate_cycle

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
     ["recover", "--order", "4"], ["pipeline", "--no-reduce"],
     ["verify", "--puzzle", "p.txt", "--grid", "g.txt"],
     ["verify", "--graph", "g.dhcp", "--cycle", "c.cycle"]],
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
        main(["verify", p, g, "--format", "grid"])
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


def test_recover_rejects_a_survivor_that_is_its_own_end(puzzle_file, capsys):
    cf = puzzle_file("c.cycle", "CYCLE 3\n1\n2\n3\n")
    jf = puzzle_file("p.journal", "p 2 2 4 2 3\n")
    assert main(["recover", cf, "--journal", jf]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: contraction survivor 2 is one of its own ends (2, 4)\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, journal, message",
    [
        pytest.param(command, journal, message, id=command + tag)
        for tag, journal, message in [
            ("", "g 5 1 4\ng 5 1 4\n", "journal deletes vertex 5 twice"),
            ("-id 0", "g 0 1 4\n", "journal refers to vertices outside the graph"),
            (
                "-T after g",
                "g 5 1 4\nT 2\n",
                "triplication record allowed only at the start of a journal",
            ),
        ]
        for command in ("reduce", "compress")
    ],
)
def test_chained_journal_that_deletes_a_vertex_twice(
    puzzle_file, capsys, tmp_path, command, journal, message
):
    # refused when it is chained, in recover's words, not only later by
    # recover; nothing is written
    graph = puzzle_file("sq.uhcp", "UHCP 4 4\n1 2\n2 3\n3 4\n1 4\n")
    if command == "compress":
        graph = puzzle_file("t.uhcp", export_graph(undirect(build_hcp(4))[0]))
    jf = puzzle_file("bad.journal", journal)
    out, jout = tmp_path / "o.uhcp", tmp_path / "o.journal"
    argv = [command, graph, "-o", str(out), "--journal", jf, "--journal-out", str(jout)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not jout.exists()


@pytest.mark.parametrize("journal", ["missing", "g 0 1 4\n"])
def test_chained_journal_read_before_reduce_refutes(puzzle_file, capsys, tmp_path, journal):
    # the path 1-2-3-4 is refuted by reduce, but a journal that cannot be
    # read or breaks a rule is still an input error, with nothing written
    graph = puzzle_file("path.uhcp", "UHCP 4 3\n1 2\n2 3\n3 4\n")
    jf = str(tmp_path / "missing.journal")
    if journal != "missing":
        jf = puzzle_file("zero.journal", journal)
    out, jout = tmp_path / "o.uhcp", tmp_path / "o.journal"
    argv = ["reduce", graph, "-o", str(out), "--journal", jf, "--journal-out", str(jout)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    if journal == "missing":
        assert err.startswith("error: [Errno 2] No such file or directory")
    else:
        assert err == "error: journal refers to vertices outside the graph\n"
    assert not out.exists() and not jout.exists()
    assert main(argv[:4] + argv[6:]) == 1


@pytest.mark.parametrize(
    "name, text, err",
    [
        ("g.dhcp", "DHCP 3 3\n+1 2\n2 3\n3 1\n", "bad edge line '+1 2'"),
        ("c.cycle", "CYCLE \u0663\n1\n2\n3\n", "bad header 'CYCLE \u0663'"),
        ("g.journal", "T +2\n", "bad journal line 'T +2'"),
    ],
)
def test_files_take_plain_numbers_only(tmp_path, capsys, name, text, err):
    # files are read as UTF-8, so the reader sees the line and names it
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    cycle = tmp_path / "ok.cycle"
    cycle.write_text("CYCLE 3\n1\n2\n3\n")
    argv = {
        "g.dhcp": ["undirect", path, "-o", tmp_path / "u.uhcp",
                   "--journal-out", tmp_path / "u.journal"],
        "c.cycle": ["recover", path],
        "g.journal": ["recover", cycle, "--journal", path],
    }[name]
    assert main(list(map(str, argv))) == 3
    assert capsys.readouterr().err == f"error: {err}\n"


def test_megabyte_header_quoted_bounded(tmp_path, capsys):
    # a bad line is quoted by a bounded prefix and its length
    graph = tmp_path / "g.dhcp"
    graph.write_text("x" * 2_000_000 + "\n")
    argv = ["undirect", graph, "-o", tmp_path / "u.uhcp", "--journal-out", tmp_path / "u.journal"]
    assert main(list(map(str, argv))) == 3
    err = capsys.readouterr().err
    assert err == f"error: bad header '{'x' * 60}'… (2000000 characters)\n"
    assert len(err.encode()) < 300


@pytest.mark.parametrize("command", ["recover", "verify"])
def test_vertex_line_of_thousands_of_digits(tmp_path, capsys, command):
    # int() refuses it in its own words; the reader names the line
    long = "4" * 5000
    cycle = tmp_path / "c.cycle"
    cycle.write_text(f"CYCLE 3\n1\n{long}\n3\n")
    graph = tmp_path / "g.uhcp"
    graph.write_text("UHCP 3 3\n1 2\n1 3\n2 3\n")
    argv = {
        "recover": ["recover", cycle],
        "verify": ["verify", graph, cycle],
    }[command]
    assert main(list(map(str, argv))) == 3
    err = f"error: non-integer vertex line '{'4' * 60}'… (5000 characters)\n"
    assert capsys.readouterr().err == err


def test_verify_grid(puzzle_file, capsys):
    sol = all_order4_solutions()[0]
    p = puzzle_file("p.txt", BLANK4)
    g = puzzle_file("g.txt", format_grid(sol))
    assert main(["verify", p, g]) == 0
    assert "valid" in capsys.readouterr().out
    bad = puzzle_file("bad.txt", format_grid(sol).replace("1", "2", 1))
    assert main(["verify", p, bad]) == 1


def test_verify_cycle(puzzle_file, capsys, tmp_path):
    g4 = build_hcp(4)
    w = witness_cycle(blank_instance(4), all_order4_solutions()[0])
    gf = puzzle_file("g.dhcp", export_graph(g4))
    cf = puzzle_file("c.cycle", write_cycle(w))
    assert main(["verify", gf, cf]) == 0
    ug, _ = undirect(g4)
    uf = puzzle_file("g.uhcp", export_graph(ug))
    ucf = puzzle_file("u.cycle", write_cycle(triplicate_cycle(w)))
    assert main(["verify", uf, ucf]) == 0
    # a cycle of the wrong graph is invalid
    assert main(["verify", uf, cf]) == 1


@pytest.mark.parametrize("order, rc, said", [("1 2 3", 0, "valid"), ("1 3 2", 1, "invalid")])
def test_verify_directed_cycle_in_arc_order_only(puzzle_file, capsys, order, rc, said):
    # 1 3 2 is a cycle of the reversed graph, not of 1 -> 2 -> 3 -> 1
    gf = puzzle_file("g.dhcp", "DHCP 3 3\n1 2\n2 3\n3 1\n")
    cf = puzzle_file("c.cycle", "CYCLE 3\n" + order.replace(" ", "\n") + "\n")
    assert main(["verify", gf, cf]) == rc
    assert capsys.readouterr().out == f"{said}\n"


@pytest.mark.parametrize(
    "given,answer,err",
    [
        # swapped pairs
        ("g.txt", "p.txt", "grid is not complete: cell 0 is blank"),
        ("c.cycle", "g.dhcp", "expected order as first token, got 'CYCLE'"),
        # mismatched pairs
        ("g.dhcp", "g.txt", "missing CYCLE header"),
        ("p.txt", "c.cycle", "expected order as first token, got 'CYCLE'"),
    ],
)
def test_verify_wrong_pair_exit_3(puzzle_file, capsys, given, answer, err):
    # GIVEN's header picks the check, and the answer's reader refuses a
    # file of the other kind in its own words
    sol = all_order4_solutions()[0]
    files = {
        "p.txt": BLANK4,
        "g.txt": format_grid(sol),
        "g.dhcp": export_graph(build_hcp(4)),
        "c.cycle": write_cycle(witness_cycle(blank_instance(4), sol)),
    }
    paths = {name: puzzle_file(name, text) for name, text in files.items()}
    assert main(["verify", paths[given], paths[answer]]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


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
    # a line break in the name would write a second TYPE: line, and a
    # non-ASCII name would fail only once the output file is open
    gf = puzzle_file("g.uhcp", export_graph(undirect(build_hcp(4))[0]))
    for name in ["x\nTYPE: TSP", "café"]:
        argv = ["export-tsplib", gf, "-o", f"{tmp_path}/g.tsp", "--name", name]
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


# names that left the package: test oracles now in tests/_support.py, or
# names that stay in their submodule (sudoku2hcp.solve, sudoku2hcp.sudoku)
_NOT_PUBLIC = (
    "Role", "label_of", "role_of", "solve_directed", "triplicate_cycle",
    "SolveState", "propagate", "Contradiction", "block_of", "cells_of_block",
)


def test_readme_table_names_the_public_surface():
    # the "public names" column of README's module table is __all__, each
    # name defined in a module of its row
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## What is in the box\n", 1)[1].split("\n## ", 1)[0]
    rows = [ln for ln in section.splitlines() if ln.startswith("| `sudoku2hcp.")]
    named = []
    for row in rows:
        modules, _, names = row.strip("|").split(" | ")
        found = re.findall(r"`(\w+)`", names)
        homes = [importlib.import_module(m) for m in re.findall(r"`([\w.]+)`", modules)]
        for name in found:
            assert any(name in vars(home) for home in homes), (modules, name)
        named += found
    assert len(named) == len(set(named)) == len(sudoku2hcp.__all__)
    assert set(named) == set(sudoku2hcp.__all__)
    for name in _NOT_PUBLIC:
        assert not hasattr(sudoku2hcp, name), name


# a solver function that the differential solver tests drive, as they drive
# SolveState's methods; like SolveState it is not in __all__
_DRIVEN_BY_TESTS = ("solve.propagate",)


def _names_used(source: str) -> tuple[set[str], set[str]]:
    """The bare names and the attributes that code reads: f-string
    expressions count, docstrings, comments and imports do not."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def test_every_public_name_has_a_caller_outside_its_module():
    # the rule for __all__, applied to the public names it does not list:
    # each public method or property of a class in __all__, and each public
    # function of a submodule, is read by another module of src/, the bench,
    # a demo or a python block of README, is named as code in README (the
    # module table names every function in __all__), or is a console script
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    outside = [p.read_text(encoding="utf-8") for d in ("bench", "demos")
               for p in sorted((root / d).glob("*.py"))]
    outside += re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    names, attrs = _names_used("\n".join(outside))
    named = set(re.findall(r"`(\w+)`", readme))
    named |= set(re.findall(r'"sudoku2hcp\.\w+:(\w+)"', (root / "pyproject.toml").read_text()))
    outside_reads = (names | named, attrs | named)
    reads = {p.stem: _names_used(p.read_text(encoding="utf-8"))
             for p in (root / "src" / "sudoku2hcp").glob("*.py") if p.stem != "__init__"}

    def reached(module: str, name: str, attribute: bool) -> bool:
        others = [used for m, used in reads.items() if m != module] + [outside_reads]
        return any(name in (a if attribute else n | a) for n, a in others)

    unreached = []
    for module in reads:
        mod = importlib.import_module(f"sudoku2hcp.{module}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and f"{module}.{name}" not in _DRIVEN_BY_TESTS
                    and not reached(module, name, False)):
                unreached.append(f"{module}.{name}")
    for cls in map(vars(sudoku2hcp).get, sudoku2hcp.__all__):
        if not inspect.isclass(cls):
            continue
        module = cls.__module__.rsplit(".", 1)[1]
        for name, obj in vars(cls).items():
            method = inspect.isfunction(obj) or isinstance(obj, (property, classmethod, staticmethod))
            if method and not name.startswith("_") and not reached(module, name, True):
                unreached.append(f"{cls.__name__}.{name}")
    assert not unreached, f"public but read only inside their own module: {unreached}"
