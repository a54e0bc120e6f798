"""Command-line pipeline over the library.

Exit codes: 0 success, 1 unsatisfiable or invalid, 2 budget exhausted,
3 input errors.  The solve and pipeline subcommands take their budget from
--budget-nodes and --budget-ms only.
"""

from __future__ import annotations

import argparse
import sys

from .construct import build_hcp, prune_fixed, recover_solution
from .formats import (
    GRAPH_HEADERS,
    export_graph,
    export_tsplib_hcp,
    format_stats,
    graph_stats,
    import_graph,
    load_journal,
    read_cycle,
    save_journal,
    write_cycle,
)
from .graphs import DirectedGraph, UndirectedGraph
from .labels import order_for_vertex_count
from .pipeline import PipelineConfig, solve_instance
from .solve import SolveBudget, format_stats_line, solve_hcp, verify_cycle
from .sudoku import format_grid, parse_grid, parse_sudoku, validate_grid
from .transform import CycleLifter, Infeasible, compress_triples, reduce_graph, undirect
from .transform import _base_count, _deletions

OK, UNSAT, BUDGET, INPUT_ERROR = 0, 1, 2, 3


def _read(path: str) -> str:
    """The file's text.  It is decoded as UTF-8, so that a digit of another
    script reaches the reader, which names the line it is on."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _budget(args) -> SolveBudget:
    budget = SolveBudget()
    if args.budget_nodes is not None:
        budget.max_nodes = args.budget_nodes
    if args.budget_ms is not None:
        budget.max_ms = args.budget_ms
    return budget


def _load_undirected(path: str) -> UndirectedGraph:
    g = import_graph(_read(path))
    if not isinstance(g, UndirectedGraph):
        raise ValueError(f"{path} holds a directed graph, expected undirected")
    return g


def _cmd_convert(args) -> int:
    # always pruned for the clues: the blank encoding would drop them
    instance = parse_sudoku(_read(args.puzzle))
    g, removed = prune_fixed(build_hcp(instance.order), instance)
    _write(args.out, export_graph(g))
    print(f"wrote {args.out}: {g.n} vertices, {g.m} arcs, {removed} pruned")
    return OK


def _cmd_undirect(args) -> int:
    g = import_graph(_read(args.graph))
    if not isinstance(g, DirectedGraph):
        raise ValueError(f"{args.graph} holds an undirected graph already")
    if g.m < g.n:
        # a Hamiltonian cycle uses n arcs; answered before the 2n chain edges
        print(f"infeasible: {g.m} arcs cannot cover {g.n} vertices", file=sys.stderr)
        return UNSAT
    ug, lifter = undirect(g)
    _write(args.out, export_graph(ug))
    _write(args.journal_out, save_journal(lifter))
    print(f"wrote {args.out}: {ug.n} vertices, {ug.m} edges")
    return OK


def _chain_journal(args, g: UndirectedGraph) -> CycleLifter:
    """The --journal to extend, or none, checked as `+` checks it and, by
    the sizes a lift checks, to end in a graph of g's vertex count: read
    before g is transformed, whatever the transform answers."""
    chain = load_journal(_read(args.journal)) if args.journal else CycleLifter()
    gone = _deletions(chain.records)
    _base_count(chain.records, gone, g.n, f"graph of {g.n} vertices")
    return chain


def _cmd_compress(args) -> int:
    g = _load_undirected(args.graph)
    chain = _chain_journal(args, g)
    out, step = compress_triples(g)
    journal = save_journal(chain + step)
    _write(args.out, export_graph(out))
    _write(args.journal_out, journal)
    print(f"wrote {args.out}: {out.n} vertices, {out.m} edges")
    return OK


def _cmd_reduce(args) -> int:
    g = _load_undirected(args.graph)
    chain = _chain_journal(args, g)
    result = reduce_graph(g)
    if isinstance(result, Infeasible):
        print(f"infeasible: {result.reason}", file=sys.stderr)
        return UNSAT
    out, step = result
    journal = save_journal(chain + step)
    _write(args.out, export_graph(out))
    _write(args.journal_out, journal)
    print(
        f"wrote {args.out}: {out.n} vertices, {out.m} edges "
        f"(was {g.n} vertices, {g.m} edges)"
    )
    return OK


def _cmd_solve(args) -> int:
    g = _load_undirected(args.graph)
    outcome = solve_hcp(g, _budget(args))
    if args.stats:
        print(format_stats_line(outcome.stats))
    if outcome.status == "budget":
        print("budget exhausted", file=sys.stderr)
        return BUDGET
    if outcome.status == "no_cycle":
        print("no Hamiltonian cycle", file=sys.stderr)
        return UNSAT
    _write(args.out, write_cycle(outcome.cycle))
    print(f"wrote {args.out}: cycle of length {len(outcome.cycle)}")
    return OK


def _cmd_export_tsplib(args) -> int:
    g = _load_undirected(args.graph)
    _write(args.out, export_tsplib_hcp(g, args.name))
    print(f"wrote {args.out}: DIMENSION {g.n}, {g.m} edges")
    return OK


def _cmd_recover(args) -> int:
    cycle = read_cycle(_read(args.cycle))
    if args.journal:
        cycle = load_journal(_read(args.journal)).lift(cycle)
    grid = recover_solution(cycle, order_for_vertex_count(len(cycle)))
    sys.stdout.write(format_grid(grid))
    return OK


def _cmd_verify(args) -> int:
    # a graph file names itself in its header; any other text is a puzzle
    given, answer = _read(args.given), _read(args.answer)
    first = given.split(maxsplit=1)[:1]
    if first and first[0] in GRAPH_HEADERS:
        g = import_graph(given)
        ok = verify_cycle(g, read_cycle(answer))
        print("valid" if ok else "invalid")
        return OK if ok else UNSAT
    violations = validate_grid(parse_sudoku(given), parse_grid(answer))
    if violations:
        for v in violations:
            print(f"violation: {v.kind} {v.where}", file=sys.stderr)
        return UNSAT
    print("valid")
    return OK


def _cmd_stats(args) -> int:
    g = import_graph(_read(args.graph))
    sys.stdout.write(format_stats(graph_stats(g)))
    return OK


def _cmd_pipeline(args) -> int:
    instance = parse_sudoku(_read(args.puzzle))
    result = solve_instance(instance, PipelineConfig(budget=_budget(args)))
    if args.stats and result.outcome is not None:
        print(format_stats_line(result.outcome.stats))
    if result.status == "budget":
        print("budget exhausted", file=sys.stderr)
        return BUDGET
    if result.status == "unsat":
        if result.reason is not None:
            print(f"infeasible: {result.reason}", file=sys.stderr)
        print("puzzle is unsatisfiable", file=sys.stderr)
        return UNSAT
    sys.stdout.write(format_grid(result.grid))
    return OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sudoku2hcp",
        description="Convert Sudoku puzzles to Hamiltonian cycle instances, "
        "shrink them, solve them, and read solutions back.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def budget_opts(sp):
        sp.add_argument("--budget-nodes", type=int, default=None)
        sp.add_argument("--budget-ms", type=int, default=None)
        sp.add_argument("--stats", action="store_true")

    sp = sub.add_parser("convert", help="puzzle to directed graph file, pruned for its clues")
    sp.add_argument("puzzle")
    sp.add_argument("-o", "--out", required=True)
    sp.set_defaults(func=_cmd_convert)

    sp = sub.add_parser("undirect", help="directed graph to undirected")
    sp.add_argument("graph")
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--journal-out", required=True)
    sp.set_defaults(func=_cmd_undirect)

    sp = sub.add_parser("compress", help="remove redundant triple middles")
    sp.add_argument("graph")
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--journal", default=None)
    sp.add_argument("--journal-out", required=True)
    sp.set_defaults(func=_cmd_compress)

    sp = sub.add_parser("reduce", help="degree-2 reduction heuristic")
    sp.add_argument("graph")
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--journal", default=None)
    sp.add_argument("--journal-out", required=True)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("solve", help="search an undirected graph for a cycle")
    sp.add_argument("graph")
    sp.add_argument("-o", "--out", required=True)
    budget_opts(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("export-tsplib", help="write a TSPLIB HCP file")
    sp.add_argument("graph")
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--name", default="sudoku2hcp")
    sp.set_defaults(func=_cmd_export_tsplib)

    sp = sub.add_parser("recover", help="cycle file plus journal to grid")
    sp.add_argument("cycle")
    sp.add_argument("--journal", default=None)
    sp.set_defaults(func=_cmd_recover)

    sp = sub.add_parser("verify", help="check a puzzle's grid or a graph's cycle")
    sp.add_argument("given", help="puzzle or graph file")
    sp.add_argument("answer", help="grid file for a puzzle, cycle file for a graph")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("stats", help="degree statistics of a graph file")
    sp.add_argument("graph")
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("pipeline", help="puzzle to solved grid in one run")
    sp.add_argument("puzzle")
    budget_opts(sp)
    sp.set_defaults(func=_cmd_pipeline)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
