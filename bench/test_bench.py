"""Tests of the benchmark's own logic: corpus determinism, the tail rule,
the correctness gate and the traced chain.  Run with

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import corpus
import run
from tracing import Tracer

sys.path.insert(0, str(run.SRC))
pkg = run.import_fresh()
CONFIG = pkg.PipelineConfig(budget=pkg.SolveBudget(run.MAX_NODES, run.OUT_OF_REACH_MS))


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_corpus_repeats_for_a_seed_and_changes_with_it(name):
    wl = corpus.WORKLOADS[name]
    a, b, c = corpus.puzzles(wl, 7), corpus.puzzles(wl, 7), corpus.puzzles(wl, 8)
    assert a == b
    assert len(set(a)) == len(a)
    assert corpus.corpus_hash(a) == corpus.corpus_hash(b)
    assert corpus.corpus_hash(a) != corpus.corpus_hash(c)
    warm = corpus.warmup_puzzles(wl, 7, 2, a)
    assert warm == corpus.warmup_puzzles(wl, 7, 2, a)
    assert not set(warm) & set(a)


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_clue_counts_spread_evenly_over_the_range(name):
    wl = corpus.WORKLOADS[name]
    lo, hi = wl.clues
    span = hi - lo + 1
    clues = sorted(pkg.parse_sudoku(text).clue_count for text in corpus.puzzles(wl, 3))
    assert len(clues) == wl.puzzles
    for j, c in enumerate(clues):
        assert lo + j * span // wl.puzzles <= c < lo + (j + 1) * span / wl.puzzles


@pytest.mark.parametrize("n", [4, 9, 16])
def test_puzzles_are_thinnings_of_valid_grids(n):
    rng = random.Random(n)
    cells = corpus.random_grid(n, rng)
    grid = pkg.Grid.from_rows([cells[r * n : (r + 1) * n] for r in range(n)])
    assert pkg.validate_grid(pkg.blank_instance(n), grid) == []
    # a search cut short of one step per cell gives up, and is redrawn
    assert corpus._search_grid(n, rng, n * n - 1) is None
    kept = corpus.thin(cells, 2 * n, rng)
    assert sum(1 for v in kept if v) == 2 * n
    assert all(v in (0, g) for v, g in zip(kept, cells))


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(1, 31)]
    value, pct, n = run.tail(samples)
    assert (value, n) == (20.0, 30)
    assert sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail(samples[:21])[:2] == (11.0, pytest.approx(100 * 11 / 21))
    # below 21 samples nothing at or above the median has ten beyond it,
    # and the tail is the upper median
    assert run.tail(samples[:20])[:2] == (11.0, 55.0)
    assert run.tail(samples[:12])[:2] == (7.0, pytest.approx(100 * 7 / 12))
    assert run.tail([0.2, 0.1]) == (0.2, 100.0, 2)
    assert run.tail([0.1]) == (0.1, 100.0, 1)


def test_gate_accepts_right_answers_and_trips_on_wrong_verdicts():
    wl = corpus.WORKLOADS["sparse4"]
    text = corpus.puzzles(wl, 1)[0]
    _, good = run.run_once(pkg, wl, text, CONFIG, None)
    assert good.status == "solved"
    assert run.check(pkg, text, good) is None
    assert run.check(pkg, text, run.Result("budget", {})) is None

    assert "thinning" in run.check(pkg, text, run.Result("unsat", {}))
    rows = [list(r) for r in good.grid.rows]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    fake = run.Result("solved", {}, pkg.Grid.from_rows(rows), good.directed, good.directed_cycle)
    assert "violates" in run.check(pkg, text, fake)
    broken = list(good.directed_cycle)
    broken[0], broken[1] = broken[1], broken[0]
    fake = run.Result("solved", {}, good.grid, good.directed, broken)
    assert "verify_cycle" in run.check(pkg, text, fake)


def test_traced_chain_matches_solve_instance():
    wl = corpus.WORKLOADS["sparse4"]
    stage16 = corpus.WORKLOADS["stage16"]
    for text in corpus.puzzles(wl, 2)[:3] + corpus.warmup_puzzles(stage16, 2, 1, []):
        tracer = Tracer()
        _, plain = run.run_once(pkg, wl, text, CONFIG, None)
        _, traced = run.run_once(pkg, wl, text, CONFIG, tracer)
        assert (plain.status, plain.counts) == (traced.status, traced.counts)
        assert plain.grid == traced.grid
        names = {s[1] for s in tracer.spans}
        assert {"pipeline", "construct.build", "transform.reduce", "solve.solve"} <= names
        assert not any(name.startswith("formats.") for name in names)


def test_staged_chain_round_trips_through_text():
    wl = corpus.WORKLOADS["stage16"]
    text = corpus.warmup_puzzles(wl, 1, 1, [])[0]
    _, plain = run.run_once(pkg, corpus.WORKLOADS["sparse4"], text, CONFIG, None)
    tracer = Tracer()
    _, staged = run.run_once(pkg, wl, text, CONFIG, tracer)
    assert staged.status == plain.status == "solved"
    assert staged.grid == plain.grid
    assert staged.counts["formats.bytes_written"] > 0
    assert {k: v for k, v in staged.counts.items() if k != "formats.bytes_written"} == {
        k: v for k, v in plain.counts.items() if k != "formats.bytes_written"
    }
    assert set(run.SPAN_METRICS) == {s[1] for s in tracer.spans}


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        [0, "pipeline", -1, 0.0, 10.0],
        [0, "transform.reduce", 0, 1.0, 5.0],
        [0, "solve.solve", 0, 5.0, 9.0],
        [1, "pipeline", -1, 20.0, 22.0],
    ]
    assert tracer.self_seconds() == {
        "pipeline": 2.0 + 2.0,
        "transform.reduce": 4.0,
        "solve.solve": 4.0,
    }


def test_command_exits_nonzero_on_a_wrong_verdict(monkeypatch, capsys):
    def wrong(pkg, wl, text, config, tracer):
        return 0.001, run.Result("unsat", dict.fromkeys(run.COUNT_KEYS, 0))

    monkeypatch.setattr(run, "run_once", wrong)
    assert run.main(["--workload", "sparse4", "--seed", "1", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["metrics"] == {}


def test_traced_measure_repeats_its_counts_and_reports_every_layer_metric():
    wl = corpus.WORKLOADS["sparse4"]
    puzzles = corpus.puzzles(wl, 1)[:3]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        r = run.measure(pkg, wl, CONFIG, puzzles, 0, tracer)
        assert (r.passes, r.attempted, r.failed) == (1, 6, 0)
        runs.append(r)
    assert runs[0].counts == runs[1].counts
    layer = run.per_layer(runs[1], tracer)
    assert set(layer) == set(run.metric_units()[1])
    assert layer["solve.nodes"] == sum(c["solve.nodes"] for c in runs[1].counts) > 0


def test_workloads_and_metrics_agree_with_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        wl.name: wl.why for wl in corpus.WORKLOADS.values()
    }
    e2e, layer = run.metric_units()
    r = run.Run(2, passes=1, attempted=2)
    r.best = [0.1, 0.2]
    info: dict = {}
    assert set(run.end_to_end(r, [1.0], info)) == set(e2e)
    assert info["tail"] == {"percentile": 100.0, "samples": 2}
