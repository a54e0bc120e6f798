"""Seeded benchmark of the sudoku2hcp pipeline: puzzle text to cycle to grid.

    python3 bench/run.py --workload sparse4 --seed 1 --seconds 50 --trace 0

One single-threaded process, closed loop with one caller: the next puzzle
goes in only when the previous answer is back.  The program receives only
puzzle text, generated from the seed (see corpus.py for the workloads and
why each exists).  Every answer is checked outside the timed region: a
solved grid must come from a lifted cycle that verify_cycle accepts and
pass validate_grid, and no puzzle may come back unsat.  A wrong answer or
an exception makes the command exit 1.

A run makes passes over the workload's puzzles until --seconds of timed
work are done, and times each puzzle by its fastest pass.  The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` (node-budget exhaustions) and `metrics`.  The line before it
records the machine, the corpus hash, the exact counts of the puzzles
(equal for equal code and seed) and the percentile behind
`latency_tail_ms`.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each puzzle
twice, untraced and traced in alternating order, and reports per-layer
self times and counts, and the tracing overhead (traced minus untraced).
Metric names and units are those of BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
from corpus import Workload
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = "sudoku2hcp"
SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP = 2  # puzzles in each untimed warm-up pass
# The node budget is the only solver limit; the time limit is out of reach
# so that verdicts do not depend on machine speed.
MAX_NODES = 20_000
OUT_OF_REACH_MS = 10**12

COUNT_KEYS = (
    "graphs.directed_v",
    "graphs.directed_e",
    "construct.pruned_arcs",
    "transform.reduce_in_v",
    "transform.reduce_in_e",
    "transform.reduce_out_v",
    "transform.reduce_out_e",
    "transform.reduce_infeasible",
    "transform.journal_records",
    "solve.nodes",
    "solve.depth",
    "solve.outcome.cycle",
    "solve.outcome.no_cycle",
    "solve.outcome.budget",
    "formats.bytes_written",
)


@dataclass
class Result:
    """One answer: status is 'solved', 'unsat' or 'budget'.  counts holds
    the exact, machine-independent sizes the puzzle produced."""

    status: str
    counts: dict[str, int]
    grid: object = None
    directed: object = None
    directed_cycle: list[int] | None = None


def make_counts(directed, pruned, reduce_in, reduced, journal, outcome, written):
    """Counts for one puzzle.  reduce_in is (n, m) of the graph entering
    reduce; reduced is the graph it returned, None when it reported
    Infeasible.  The reduce sizes cover reductions that returned a graph."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts["graphs.directed_v"] = directed.n
    counts["graphs.directed_e"] = directed.m
    counts["construct.pruned_arcs"] = pruned
    counts["transform.journal_records"] = journal
    counts["formats.bytes_written"] = written
    if reduced is None:
        counts["transform.reduce_infeasible"] = 1
    else:
        counts["transform.reduce_in_v"], counts["transform.reduce_in_e"] = reduce_in
        counts["transform.reduce_out_v"] = reduced.n
        counts["transform.reduce_out_e"] = reduced.m
    if outcome is not None:
        counts["solve.nodes"] = outcome.stats.nodes
        counts["solve.depth"] = outcome.stats.depth
        counts[f"solve.outcome.{outcome.status}"] = 1
    return counts


def from_pipeline(res) -> Result:
    """Result of a solve_instance call.  PipelineResult does not keep the
    graph that entered reduce; undirect makes it 3n vertices and 2n + m
    edges, and a traced run, which sees that graph, must agree."""
    d = res.directed
    infeasible = res.status == "unsat" and res.outcome is None
    counts = make_counts(
        d,
        res.pruned_arcs,
        (3 * d.n, 2 * d.n + d.m),
        None if infeasible else res.final_graph,
        len(res.lifter.records),
        res.outcome,
        0,
    )
    return Result(res.status, counts, res.grid, d, res.directed_cycle)


def direct(name, fn, *args):
    return fn(*args)


def run_chain(pkg, text: str, config, call=direct, files: bool = False) -> Result:
    """The stage calls solve_instance makes, each made through `call`.

    With files=True the graphs, journal and cycle also take the text round
    trips of the CLI chain (convert, undirect, export-tsplib, reduce,
    solve, recover), in memory: the graph after build/prune and after
    reduce goes through export_graph/import_graph, the undirected graph
    is exported as TSPLIB, the journal through save_journal/load_journal
    and the cycle through write_cycle/read_cycle.
    """
    written = 0

    def roundtrip(g):
        nonlocal written
        out = call("formats.export_graph", pkg.export_graph, g)
        written += len(out)
        return call("formats.import_graph", pkg.import_graph, out)

    inst = call("sudoku.parse", pkg.parse_sudoku, text)
    n = inst.order
    directed = call("construct.build", pkg.build_hcp, n)
    pruned = 0
    if config.prune and inst.clues:
        directed, pruned = call("construct.prune", pkg.prune_fixed, directed, inst)
    if files:
        directed = roundtrip(directed)
    graph, lifter = call("transform.undirect", pkg.undirect, directed)
    if files:
        written += len(call("formats.tsplib", pkg.export_tsplib_hcp, graph, "bench"))
    reduce_in = (graph.n, graph.m)
    reduced = call("transform.reduce", pkg.reduce_graph, graph)
    if isinstance(reduced, pkg.Infeasible):
        counts = make_counts(directed, pruned, reduce_in, None, len(lifter.records), None, written)
        return Result("unsat", counts)
    graph, step = reduced
    lifter = lifter + step
    journal = len(lifter.records)
    if files:
        graph = roundtrip(graph)
        saved = call("formats.save_journal", pkg.save_journal, lifter)
        written += len(saved)
        lifter = call("formats.load_journal", pkg.load_journal, saved)
    outcome = call("solve.solve", pkg.solve_hcp, graph, config.budget, config.seed)
    if outcome.status != "cycle":
        status = "unsat" if outcome.status == "no_cycle" else "budget"
        counts = make_counts(directed, pruned, reduce_in, graph, journal, outcome, written)
        return Result(status, counts)
    cycle = outcome.cycle
    if files:
        saved = call("formats.write_cycle", pkg.write_cycle, cycle)
        written += len(saved)
        cycle = call("formats.read_cycle", pkg.read_cycle, saved)
    directed_cycle = call("transform.lift", lifter.lift, cycle)
    if not call("solve.verify", pkg.verify_cycle, directed, directed_cycle):
        raise RuntimeError("lifted cycle failed verification")
    grid = call("construct.recover", pkg.recover_solution, directed_cycle, n)
    violations = call("sudoku.validate", pkg.validate_grid, inst, grid)
    if violations:
        raise RuntimeError(f"recovered grid violates {violations[:3]}")
    counts = make_counts(directed, pruned, reduce_in, graph, journal, outcome, written)
    return Result("solved", counts, grid, directed, directed_cycle)


def run_once(pkg, wl: Workload, text: str, config, tracer: Tracer | None):
    """(seconds, Result) of one puzzle.  Untraced unstaged workloads time
    the public calls parse_sudoku -> solve_instance; staged workloads time
    the stage-by-stage chain; traced runs time the chain inside spans."""
    if tracer is not None:
        t0 = perf_counter()
        result = tracer.call("pipeline", run_chain, pkg, text, config, tracer.call, wl.staged)
        return perf_counter() - t0, result
    if wl.staged:
        t0 = perf_counter()
        result = run_chain(pkg, text, config, files=True)
        return perf_counter() - t0, result
    t0 = perf_counter()
    res = pkg.solve_instance(pkg.parse_sudoku(text), config)
    seconds = perf_counter() - t0
    return seconds, from_pipeline(res)


def check(pkg, text: str, result: Result) -> str | None:
    """Why an answer is wrong, or None when it is right.  Every puzzle is
    a thinning of a complete grid, so 'unsat' is always wrong; a budget
    exhaustion is a failed operation, not a wrong answer."""
    if result.status == "budget":
        return None
    if result.status != "solved":
        return f"{result.status} on a thinning of a complete grid"
    if not pkg.verify_cycle(result.directed, result.directed_cycle):
        return "lifted cycle fails verify_cycle on the directed graph"
    violations = pkg.validate_grid(pkg.parse_sudoku(text), result.grid)
    if violations:
        return f"grid violates {violations[:3]}"
    return None


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at
    least ten samples above it, but never below the median: with fewer
    than 21 samples it is the upper median.  The percentile is the share
    of samples at or below the value."""
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 11, n // 2)
    return xs[i], 100.0 * (i + 1) / n, n


def import_fresh():
    """Import the package from the checkout's src/, dropping earlier copies."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError(f"imported {pkg.__file__}, not the checkout's src/")
    return pkg


def machine() -> dict:
    u = os.uname()
    return {
        "machine": f"{u.sysname} {u.release} {u.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


class Failure(Exception):
    """A wrong answer, an exception in the program or a count that did not
    repeat: the run is not correct."""


@dataclass
class Run:
    """What one measured run saw.  best[i] is puzzle i's fastest untraced
    time over the passes; best_traced[i] and best_trace[i] are the time
    and trace id of its fastest traced attempt."""

    puzzles: int
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    counts: list[dict[str, int]] = field(default_factory=list)
    best: list[float] = field(init=False)
    best_traced: list[float] = field(init=False)
    best_trace: list[int] = field(init=False)

    def __post_init__(self):
        self.best = [math.inf] * self.puzzles
        self.best_traced = [math.inf] * self.puzzles
        self.best_trace = [-1] * self.puzzles


def attempt(pkg, wl, text, config, tracer) -> tuple[float, Result]:
    """Time one puzzle, then check its answer outside the timed region."""
    try:
        seconds, result = run_once(pkg, wl, text, config, tracer)
    except Exception as exc:
        traceback.print_exc()
        raise Failure(f"exception on puzzle {text!r}") from exc
    wrong = check(pkg, text, result)
    if wrong:
        raise Failure(f"wrong answer ({wrong}) on puzzle {text!r}")
    return seconds, result


def set_up(wl: Workload, warm: list[str]):
    """Import the package and run the untimed warm-up pass; returns
    (seconds, package, config, results)."""
    t0 = perf_counter()
    pkg = import_fresh()
    config = pkg.PipelineConfig(
        budget=pkg.SolveBudget(max_nodes=MAX_NODES, max_ms=OUT_OF_REACH_MS)
    )
    results = [run_once(pkg, wl, text, config, None)[1] for text in warm]
    return perf_counter() - t0, pkg, config, results


def measure(pkg, wl, config, puzzles: list[str], seconds: float, tracer) -> Run:
    """Passes over the puzzles until `seconds` of timed work are done, at
    least one pass.  Passes alternate direction, and each puzzle keeps its
    fastest time: the machine this runs on may be shared, and a puzzle's
    best time over passes some seconds apart is the least disturbed by
    other processes.  With a tracer every puzzle also runs traced, before
    or after its untraced attempt in turn.  A puzzle whose status or counts
    differ between attempts fails the run."""
    run = Run(len(puzzles))
    first: list[tuple | None] = [None] * len(puzzles)
    elapsed = 0.0
    while run.passes == 0 or elapsed < seconds:
        order = range(len(puzzles))
        for i in order if run.passes % 2 == 0 else reversed(order):
            modes = [False] if tracer is None else [False, True]
            if (i + run.passes) % 2:
                modes.reverse()
            for traced in modes:
                if traced:
                    tracer.trace_id += 1
                dt, result = attempt(pkg, wl, puzzles[i], config, tracer if traced else None)
                elapsed += dt
                run.attempted += 1
                run.failed += result.status == "budget"
                seen = (result.status, result.counts)
                if first[i] is None:
                    first[i] = seen
                elif seen != first[i]:
                    raise Failure(f"puzzle {i}: counts did not repeat: {seen} != {first[i]}")
                if not traced:
                    run.best[i] = min(run.best[i], dt)
                elif dt < run.best_traced[i]:
                    run.best_traced[i], run.best_trace[i] = dt, tracer.trace_id
        run.passes += 1
    run.counts = [counts for _, counts in first]
    return run


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def summed(counts: list[dict[str, int]]) -> dict[str, int]:
    return {k: sum(c[k] for c in counts) for k in COUNT_KEYS}


def end_to_end(run: Run, setup: list[float], info: dict) -> dict[str, float]:
    value, pct, n = tail(run.best)
    info["tail"] = {"percentile": round(pct, 2), "samples": n}
    return {
        "puzzles_per_s": run.puzzles / sum(run.best),
        "latency_p50_ms": statistics.median(run.best) * 1000,
        "latency_tail_ms": value * 1000,
        "decided_frac": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


SPAN_METRICS = {
    "pipeline": "pipeline.self_ms",
    **{
        span: span + "_ms"
        for span in (
            "sudoku.parse",
            "sudoku.validate",
            "construct.build",
            "construct.prune",
            "construct.recover",
            "transform.undirect",
            "transform.reduce",
            "transform.lift",
            "solve.solve",
            "solve.verify",
            "formats.export_graph",
            "formats.import_graph",
            "formats.tsplib",
            "formats.save_journal",
            "formats.load_journal",
            "formats.write_cycle",
            "formats.read_cycle",
        )
    },
}


def per_layer(run: Run, tracer: Tracer) -> dict[str, float]:
    """Self time per span as ms per puzzle, from each puzzle's fastest
    traced attempt; counts summed over the puzzles; tracing overhead as
    traced minus untraced time."""
    k = run.puzzles
    self_s = tracer.self_seconds(set(run.best_trace))
    out = {metric: self_s.get(span, 0.0) * 1000 / k for span, metric in SPAN_METRICS.items()}
    c = summed(run.counts)
    for key in COUNT_KEYS:
        if key != "solve.depth":
            out[key] = c[key]
    in_v = c["transform.reduce_in_v"]
    out["transform.reduce_shrink"] = (in_v - c["transform.reduce_out_v"]) / in_v if in_v else 0.0
    out["solve.max_depth"] = max(x["solve.depth"] for x in run.counts)
    solved = [x for x in run.counts if x["solve.outcome.cycle"]]
    nodes = sum(x["solve.nodes"] for x in solved)
    out["solve.branch_efficiency"] = sum(x["solve.depth"] for x in solved) / nodes if nodes else 0.0
    solve_s = self_s.get("solve.solve", 0.0)
    out["solve.nodes_per_s"] = c["solve.nodes"] / solve_s if solve_s else 0.0
    untraced, traced = sum(run.best), sum(run.best_traced)
    out["pipeline.untraced_ms"] = untraced * 1000 / k
    out["pipeline.traced_ms"] = traced * 1000 / k
    out["trace.overhead_ms"] = (traced - untraced) * 1000 / k
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = corpus.WORKLOADS[args.workload]
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} source under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    units_e2e, units_layer = metric_units()

    puzzles = corpus.puzzles(wl, args.seed)
    warm = corpus.warmup_puzzles(wl, args.seed, WARMUP, puzzles)

    setup: list[float] = []
    first = None
    correct = True
    run = Run(len(puzzles))
    tracer = Tracer() if args.trace else None
    try:
        for _ in range(SETUPS):
            seconds, pkg, config, results = set_up(wl, warm)
            setup.append(seconds)
            for text, r in zip(warm, results):
                wrong = check(pkg, text, r)
                if wrong:
                    raise Failure(f"wrong warm-up answer ({wrong})")
            seen = [(r.status, r.counts) for r in results]
            if first is None:
                first = seen
            elif seen != first:
                raise Failure(f"warm-up counts did not repeat across set-ups: {seen} != {first}")
        run = measure(pkg, wl, config, puzzles, args.seconds, tracer)
    except Failure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        correct = False

    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        **machine(),
        "corpus_sha256": corpus.corpus_hash(puzzles),
        "puzzles": len(puzzles),
        "passes": run.passes,
        "counts": summed(run.counts) if len(run.counts) == len(puzzles) else None,
    }
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if correct:
        if tracer is None:
            metrics, units = end_to_end(run, setup, info), units_e2e
        else:
            metrics, units = per_layer(run, tracer), units_layer
            tracer.write(OUT / f"spans_{wl.name}_{args.seed}.jsonl")
        if set(metrics) != set(units):
            raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
