import pytest

from sudoku2hcp import (
    blank_instance,
    build_hcp,
    enumerate_solutions,
    format_grid,
    parse_grid,
    undirect,
    witness_cycle,
    write_cycle,
)
from sudoku2hcp.cli import main
from sudoku2hcp.formats import export_graph
from sudoku2hcp.transform import triplicate_cycle
from _support import all_order4_solutions

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
     ["pipeline", "--seed", "1"], ["solve", "-o", "c.cyc", "--seed", "1"]],
)
def test_removed_options_rejected(puzzle_file, capsys, argv):
    path = puzzle_file("p.txt", "2" + "." * 15)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [path] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pipeline_inconsistent_exit_3(puzzle_file, capsys):
    path = puzzle_file("bad.txt", "11..............")
    rc = main(["pipeline", path])
    assert rc == 3
    assert "error" in capsys.readouterr().err


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
    assert main(["convert", path, "--prune", "-o", f"{d}/g.dhcp"]) == 0
    assert main(["undirect", f"{d}/g.dhcp", "-o", f"{d}/g.uhcp",
                 "--journal-out", f"{d}/g.journal"]) == 0
    capsys.readouterr()
    assert main(["reduce", f"{d}/g.uhcp", "-o", f"{d}/r.uhcp",
                 "--journal-out", f"{d}/r.journal"]) == 1
    reduce_said = capsys.readouterr().err.splitlines()
    assert reduce_said[0].startswith("infeasible: ")
    assert said == reduce_said + ["puzzle is unsatisfiable"]


def test_pipeline_budget_exit_2(puzzle_file, capsys, monkeypatch):
    monkeypatch.setenv("SUDOKU2HCP_BUDGET_MS", "1")
    path = puzzle_file("blank9.txt", "." * 81)
    rc = main(["pipeline", path])
    assert rc == 2
    monkeypatch.delenv("SUDOKU2HCP_BUDGET_MS")


def test_stage_by_stage_matches_pipeline(puzzle_file, capsys, tmp_path):
    path = puzzle_file("p.txt", PUZZLE4)
    d = str(tmp_path)
    assert main(["convert", path, "--prune", "-o", f"{d}/g.dhcp"]) == 0
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


def test_stage_chain_with_compress(puzzle_file, capsys, tmp_path):
    # compress deletes vertices, so reduce's journal is rewritten into the
    # compressed journal's base ids when the two are chained through files
    path = puzzle_file("p.txt", PUZZLE4)
    d = str(tmp_path)
    assert main(["convert", path, "--prune", "-o", f"{d}/g.dhcp"]) == 0
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
    text = open(f"{d}/g.tsp").read()
    assert text.splitlines()[0] == "NAME: blank4"
    assert "DIMENSION: 1422" in text


def test_missing_file_exit_3(capsys):
    assert main(["stats", "/nonexistent/graph.uhcp"]) == 3


def test_recover_witness_exact_grid(puzzle_file, capsys):
    sol = all_order4_solutions()[7]
    w = witness_cycle(blank_instance(4), sol)
    cf = puzzle_file("w.cycle", write_cycle(w))
    assert main(["recover", cf]) == 0
    assert parse_grid(capsys.readouterr().out) == sol
