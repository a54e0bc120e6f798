"""File formats: graph exports, TSPLIB HCP, cycle files, transform journals
and graph statistics.  All writers are byte-deterministic."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

from .graphs import DirectedGraph, UndirectedGraph, _gc_paused
from .sudoku import _plain, _quote
from .transform import Contraction, CycleLifter, GadgetRemoval, Triplication

# The first word of a graph file, and the kind of graph it announces.
GRAPH_HEADERS = {"DHCP": DirectedGraph, "UHCP": UndirectedGraph}


def export_graph(g: DirectedGraph | UndirectedGraph) -> str:
    """Graph text format: 'DHCP n m' or 'UHCP n m', then one 'u v' line per
    arc or edge in ascending order (undirected pairs with u < v)."""
    (word,) = (w for w, kind in GRAPH_HEADERS.items() if isinstance(g, kind))
    pairs = g.arcs() if isinstance(g, DirectedGraph) else g.edges()
    return f"{word} {g.n} {g.m}\n" + _pair_lines(pairs)


def _pair_lines(pairs: Iterable[tuple[int, int]]) -> str:
    """One 'u v' line per pair, each ending in a newline, formatted by a
    single % over the flat list of ids: no string is made per line, and
    the flat tuple holds the ids the graph already has."""
    flat = tuple(chain.from_iterable(pairs))
    return ("%d %d\n" * (len(flat) // 2)) % flat


@_gc_paused
def import_graph(text: str) -> DirectedGraph | UndirectedGraph:
    """Inverse of export_graph; rejects malformed or inconsistent input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    odd = _odd_line(text)
    head = lines[0].split()
    if odd == lines[0] or len(head) != 3 or head[0] not in GRAPH_HEADERS:
        raise ValueError(f"bad header {_quote(lines[0])}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"bad header {_quote(lines[0])}") from None
    if odd is not None:
        raise ValueError(f"bad edge line {_quote(odd)}")
    if len(lines) - 1 != m:
        raise ValueError(f"header says {m} lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"bad edge line {_quote(ln)}")
        try:
            pairs.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise ValueError(f"bad edge line {_quote(ln)}") from None
    return GRAPH_HEADERS[head[0]](n, pairs)


def _odd_line(text: str) -> str | None:
    """The first non-blank line of text that is not _plain, or None.  One
    scan of the whole text clears the common case; its lines are split
    and looked at only when it fails."""
    if _plain(text):
        return None
    return next((ln for ln in text.splitlines() if ln.strip() and not _plain(ln)), None)


def export_tsplib_hcp(g: UndirectedGraph, name: str) -> str:
    """TSPLIB HCP stanza with an EDGE_LIST section, for external solvers.

    The '-1' terminator is written with a trailing newline; some TSPLIB
    readers are picky about this, ours includes it.  The name must be a
    non-empty printable ASCII line, so that it cannot add header lines and
    the file stays ASCII, as every file the package writes is.
    """
    if not name or not name.isprintable() or not name.isascii():
        raise ValueError(f"TSPLIB name must be non-empty and printable ASCII, got {_quote(name)}")
    head = (
        f"NAME: {name}\n"
        "TYPE: HCP\n"
        f"DIMENSION: {g.n}\n"
        "EDGE_DATA_FORMAT: EDGE_LIST\n"
        "EDGE_DATA_SECTION\n"
    )
    return head + _pair_lines(g.edges()) + "-1\nEOF\n"


def write_cycle(cycle: list[int]) -> str:
    """Cycle file: 'CYCLE n' then one vertex per line, rotated to start at
    the smallest id in the cycle's own direction (arc order for a directed
    cycle).  Raises ValueError for a list `_check_cycle` refuses."""
    _check_cycle(cycle)
    low = cycle.index(min(cycle))
    rotated = cycle[low:] + cycle[:low]
    lines = [f"CYCLE {len(rotated)}"]
    lines.extend(str(v) for v in rotated)
    return "\n".join(lines) + "\n"


def read_cycle(text: str) -> list[int]:
    """Inverse of write_cycle: the vertices in file order, which is the
    cycle's direction, from whichever comes first.  Raises ValueError for
    a bad header or line, then for a list `_check_cycle` refuses."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    toks = lines[0].split() if lines else []
    if not toks or toks[0] != "CYCLE":
        raise ValueError("missing CYCLE header")
    odd = _odd_line(text)
    if odd == lines[0] or len(toks) != 2:
        raise ValueError(f"bad header {_quote(lines[0])}")
    try:
        n = int(toks[1])
    except ValueError:
        raise ValueError(f"bad header {_quote(lines[0])}") from None
    if odd is not None:
        raise ValueError(f"non-integer vertex line {_quote(odd)}")
    if len(lines) - 1 != n:
        raise ValueError(f"header says {n} vertices, found {len(lines) - 1}")
    cycle = []
    for ln in lines[1:]:
        try:
            cycle.append(int(ln))
        except ValueError:
            raise ValueError(f"non-integer vertex line {_quote(ln)}") from None
    _check_cycle(cycle)
    return cycle


def _check_cycle(cycle: list[int]) -> None:
    """The rule both cycle-file functions keep, in these words: a cycle
    has at least 3 vertices, none repeated (checked first)."""
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle contains repeated vertices")
    if len(cycle) < 3:
        raise ValueError("cycle must have at least 3 vertices")


def save_journal(lifter: CycleLifter) -> str:
    """Line format, in the journal's base ids: 'T n',
    'g removed left right' and 'p survivor end0 end1 v1 ... vk', a
    contracted path v1..vk (survivor included, k >= 2) that runs from the
    vertex next to end0 to the vertex next to end1.  reduce_graph orients
    it as Contraction states: in end0 v1 ... vk end1 the id just before
    the survivor is smaller than the id just after it."""
    lines = []
    for rec in lifter.records:
        if isinstance(rec, Triplication):
            lines.append(f"T {rec.n}")
        elif isinstance(rec, GadgetRemoval):
            lines.append(f"g {rec.removed} {rec.left} {rec.right}")
        else:
            lines.append(
                f"p {rec.survivor} {rec.ends[0]} {rec.ends[1]} "
                + " ".join(map(str, rec.path))
            )
    return "\n".join(lines) + ("\n" if lines else "")


@_gc_paused
def load_journal(text: str) -> CycleLifter:
    """Inverse of save_journal.  A line of any other kind or shape, such as
    the pair ('c', 'd') and renumbered ('G', 'C', 'D') records that older
    versions wrote, raises ValueError."""
    odd = _odd_line(text)
    if odd is not None:
        raise ValueError(f"bad journal line {_quote(odd)}")
    records = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        kind, *toks = ln.split()
        try:
            args = list(map(int, toks))
        except ValueError:
            raise ValueError(f"bad journal line {_quote(ln)}") from None
        if kind == "T" and len(args) == 1:
            records.append(Triplication(args[0]))
        elif kind == "g" and len(args) == 3:
            records.append(GadgetRemoval(*args))
        elif kind == "p" and len(args) >= 5:
            records.append(Contraction(args[0], tuple(args[3:]), (args[1], args[2])))
        else:
            raise ValueError(f"bad journal line {_quote(ln)}")
    return CycleLifter(tuple(records))


@dataclass(frozen=True)
class GraphStats:
    directed: bool
    vertices: int
    edges: int
    min_degree: int
    max_degree: int
    average_degree: float
    histogram: tuple[tuple[int, int], ...]
    min_out_degree: int | None = None
    max_out_degree: int | None = None
    min_in_degree: int | None = None
    max_in_degree: int | None = None


def _histogram(counts: dict, n: int) -> Counter:
    """How many of the vertices 1..n have each count; absent ones count 0."""
    hist = Counter(counts.values())
    if n > len(counts):
        hist[0] = n - len(counts)
    return hist


def graph_stats(g: DirectedGraph | UndirectedGraph) -> GraphStats:
    """Degree summary; the average is rounded to 4 decimal places.  Memory
    follows the arcs or edges present, not the vertex count claimed."""
    n = g.n
    directed = isinstance(g, DirectedGraph)
    adj = g._adj
    # each listed vertex's tuple length: its out-degree, or its degree
    lens = dict(zip(adj, map(len, adj.values())))
    if directed:
        heads = Counter(chain.from_iterable(adj.values()))
        hist = _histogram(Counter(lens) + heads, n)
        outs, ins = _histogram(lens, n), _histogram(heads, n)
    else:
        hist = _histogram(lens, n)
        outs = ins = {}
    avg = round(2 * g.m / n, 4) if n else 0.0
    return GraphStats(
        directed=directed,
        vertices=n,
        edges=g.m,
        min_degree=min(hist, default=0),
        max_degree=max(hist, default=0),
        average_degree=avg,
        histogram=tuple(sorted(hist.items())),
        min_out_degree=min(outs, default=None),
        max_out_degree=max(outs, default=None),
        min_in_degree=min(ins, default=None),
        max_in_degree=max(ins, default=None),
    )


def format_stats(st: GraphStats) -> str:
    kind = "directed" if st.directed else "undirected"
    lines = [
        f"kind: {kind}",
        f"vertices: {st.vertices}",
        f"{'arcs' if st.directed else 'edges'}: {st.edges}",
        f"min degree: {st.min_degree}",
        f"max degree: {st.max_degree}",
        f"average degree: {st.average_degree:.4f}",
    ]
    if st.directed:
        lines.append(f"out degree: {st.min_out_degree}..{st.max_out_degree}")
        lines.append(f"in degree: {st.min_in_degree}..{st.max_in_degree}")
    lines.append(
        "degree histogram: "
        + " ".join(f"{d}:{c}" for d, c in st.histogram)
    )
    return "\n".join(lines) + "\n"
