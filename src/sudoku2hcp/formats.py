"""File formats: graph exports, TSPLIB HCP, cycle files, transform journals
and graph statistics.  All writers are byte-deterministic."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import DirectedGraph, UndirectedGraph
from .transform import (
    Contraction,
    CycleLifter,
    EdgeDeletion,
    GadgetRemoval,
    Triplication,
    from_renumbered,
)


def export_graph(g: DirectedGraph | UndirectedGraph) -> str:
    """Graph text format: 'DHCP n m' or 'UHCP n m', then one 'u v' line per
    arc or edge in ascending order (undirected pairs with u < v)."""
    if isinstance(g, DirectedGraph):
        lines = [f"DHCP {g.n} {g.m}"]
        lines.extend(f"{u} {v}" for u, v in g.arcs())
    else:
        lines = [f"UHCP {g.n} {g.m}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def import_graph(text: str) -> DirectedGraph | UndirectedGraph:
    """Inverse of export_graph; rejects malformed or inconsistent input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] not in ("DHCP", "UHCP"):
        raise ValueError(f"bad header {lines[0]!r}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header says {m} lines, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        try:
            pairs.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
    if head[0] == "DHCP":
        return DirectedGraph(n, pairs)
    return UndirectedGraph(n, pairs)


def export_tsplib_hcp(g: UndirectedGraph, name: str) -> str:
    """TSPLIB HCP stanza with an EDGE_LIST section, for external solvers.

    The '-1' terminator is written with a trailing newline; some TSPLIB
    readers are picky about this, ours includes it.
    """
    lines = [
        f"NAME: {name}",
        "TYPE: HCP",
        f"DIMENSION: {g.n}",
        "EDGE_DATA_FORMAT: EDGE_LIST",
        "EDGE_DATA_SECTION",
    ]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.append("-1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def write_cycle(cycle: list[int]) -> str:
    """Cycle file: 'CYCLE n' then one vertex per line, canonicalised to
    start at the smallest id with the smaller cycle-neighbour second."""
    if len(cycle) < 3:
        raise ValueError("cycle must have at least 3 vertices")
    low = cycle.index(min(cycle))
    rotated = cycle[low:] + cycle[:low]
    if rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[1:][::-1]
    lines = [f"CYCLE {len(rotated)}"]
    lines.extend(str(v) for v in rotated)
    return "\n".join(lines) + "\n"


def read_cycle(text: str) -> list[int]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("CYCLE"):
        raise ValueError("missing CYCLE header")
    toks = lines[0].split()
    if len(toks) != 2:
        raise ValueError(f"bad header {lines[0]!r}")
    try:
        n = int(toks[1])
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}") from None
    if len(lines) - 1 != n:
        raise ValueError(f"header says {n} vertices, found {len(lines) - 1}")
    try:
        cycle = [int(ln) for ln in lines[1:]]
    except ValueError:
        raise ValueError("non-integer vertex line") from None
    if len(set(cycle)) != n:
        raise ValueError("cycle contains repeated vertices")
    return cycle


def save_journal(lifter: CycleLifter) -> str:
    """Line format, in the journal's base ids: 'T n',
    'g removed left right',
    'c survivor absorbed attach_survivor attach_absorbed', 'd u v'."""
    lines = []
    for rec in lifter.records:
        if isinstance(rec, Triplication):
            lines.append(f"T {rec.n}")
        elif isinstance(rec, GadgetRemoval):
            lines.append(f"g {rec.removed} {rec.left} {rec.right}")
        elif isinstance(rec, Contraction):
            lines.append(
                f"c {rec.survivor} {rec.absorbed} "
                f"{rec.attach_survivor} {rec.attach_absorbed}"
            )
        else:
            lines.extend(f"d {u} {v}" for u, v in rec.edges)
    return "\n".join(lines) + ("\n" if lines else "")


def load_journal(text: str) -> CycleLifter:
    """Inverse of save_journal.  Also reads the older format, whose 'G',
    'C' and 'D' lines name the ids of the graph each record was applied
    to, and converts it to base ids.  One journal uses one of the two."""
    records = []
    kinds = set()
    for ln in text.splitlines():
        if not ln.strip():
            continue
        toks = ln.split()
        kind = toks[0]
        try:
            args = [int(t) for t in toks[1:]]
        except ValueError:
            raise ValueError(f"bad journal line {ln!r}") from None
        if kind == "T" and len(args) == 1:
            records.append(Triplication(args[0]))
        elif kind in ("g", "G") and len(args) == 3:
            records.append(GadgetRemoval(*args))
        elif kind in ("c", "C") and len(args) == 4:
            records.append(Contraction(*args))
        elif kind in ("d", "D") and len(args) == 2:
            records.append(EdgeDeletion(((args[0], args[1]),)))
        else:
            raise ValueError(f"bad journal line {ln!r}")
        kinds.add(kind)
    if kinds & set("GCD"):
        if kinds & set("gcd"):
            raise ValueError("journal mixes base-id and renumbered records")
        return CycleLifter(from_renumbered(records))
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


def _histogram(counts: Counter, n: int) -> Counter:
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
    tails: Counter = Counter()
    heads: Counter = Counter()
    for u, v in g.arcs() if directed else g.edges():
        tails[u] += 1
        heads[v] += 1
    hist = _histogram(tails + heads, n)
    outs = _histogram(tails, n) if directed else {}
    ins = _histogram(heads, n) if directed else {}
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
