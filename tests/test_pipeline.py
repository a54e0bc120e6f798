import pytest

from sudoku2hcp import (
    Grid,
    PipelineConfig,
    blank_instance,
    parse_sudoku,
    solve_instance,
    validate_grid,
)
from sudoku2hcp import pipeline


def test_prune_off_rejects_clues(monkeypatch):
    def build_hcp(n):
        raise AssertionError("built a graph")

    monkeypatch.setattr(pipeline, "build_hcp", build_hcp)
    with pytest.raises(ValueError, match="prune"):
        solve_instance(parse_sudoku("2" + "." * 15), PipelineConfig(prune=False))


def test_prune_off_solves_a_blank_instance():
    inst = blank_instance(4)
    result = solve_instance(inst, PipelineConfig(prune=False))
    assert result.status == "solved"
    assert result.pruned_arcs == 0
    assert validate_grid(inst, result.grid) == []


def test_grid_validated_with_prune_off(monkeypatch):
    # a recovered grid that breaks the rules is an internal error whatever
    # the config, not a solution
    bad = Grid.from_rows([(1, 2, 3, 4)] * 4)
    monkeypatch.setattr(pipeline, "recover_solution", lambda cycle, n: bad)
    with pytest.raises(RuntimeError, match="violates"):
        solve_instance(blank_instance(4), PipelineConfig(prune=False))
