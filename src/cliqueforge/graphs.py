"""Core graph types and K_q divisibility arithmetic.

Simple graphs live on a dense vertex range 0..n-1 with edges stored as
sorted pairs; isolated vertices are first-class (fixers must span their
host).  The optimal leave number implemented here is the universal
lower bound on the leave of any K_q packing: the least k with
k = e(G) mod binom(q,2) and 2k >= sum_v (d(v) mod (q-1)).
"""

import math
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Graph",
    "Packing",
    "PackingReport",
    "edge_key",
    "union",
    "subtract",
    "is_kq_divisible",
    "optimal_leave_number",
    "leave_bound",
    "verify_packing",
    "parse_graph",
    "serialize_graph",
    "parse_packing",
    "serialize_packing",
]


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical sorted form of an edge pair."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


# ===================================================================
# Graph
# ===================================================================


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """Validate every edge; an already-sorted tuple is stored as given."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        es = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (u < v and type(e) is tuple):
                e = (u, v) if u < v else (v, u)
            if not (0 <= e[0] and e[1] < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            es.add(e)
        self.n = n
        self.edges: frozenset[tuple[int, int]] = frozenset(es)
        self._adj = None

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        """Adjacency sets, built once and cached.  Do not mutate."""
        if self._adj is None:
            adj: dict[int, set[int]] = {v: set() for v in range(self.n)}
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    def degrees(self) -> list[int]:
        """Degrees by vertex, counted off the edges."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def union(*graphs: Graph, expect_edge_disjoint: bool = False) -> Graph:
    """Union on a shared vertex universe (n = max of inputs)."""
    n = max((g.n for g in graphs), default=0)
    if expect_edge_disjoint:
        total = sum(g.m for g in graphs)
        out = set().union(*(g.edges for g in graphs))
        if len(out) != total:
            raise ValueError("graphs share edges but were required disjoint")
        return Graph(n, out)
    return Graph(n, set().union(*(g.edges for g in graphs)))


def subtract(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """G minus the given edges (in either orientation)."""
    drop = {edge_key(u, v) for u, v in edges}
    return _spanning_subgraph(g, g.edges - drop)


def _spanning_subgraph(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph on g's vertices with edges, which must be a subset of
    g.edges: every such edge was validated when g was built, so none is
    checked again."""
    h = Graph.__new__(Graph)
    h.n = g.n
    h.edges = frozenset(edges)
    h._adj = None
    return h


# ===================================================================
# Divisibility
# ===================================================================


def _check_q(q: int) -> None:
    if q < 3:
        raise ValueError(f"q must be at least 3, got {q}")


def is_kq_divisible(g: Graph, q: int) -> bool:
    """binom(q,2) divides e(G) and (q-1) divides every degree."""
    _check_q(q)
    return g.m % math.comb(q, 2) == 0 and not any(d % (q - 1) for d in g.degrees())


def optimal_leave_number(g: Graph, q: int) -> int:
    """Least k = e(G) mod binom(q,2) with 2k >= sum of degree residues.

    Every K_q packing of G leaves at least this many edges uncovered:
    the union of the packing is K_q-divisible-by-parts, so the leave H
    keeps e(H) = e(G) mod binom(q,2) and d_H(v) = d_G(v) mod (q-1), and
    2 e(H) = sum_v d_H(v) >= sum_v (d_G(v) mod (q-1)).
    """
    _check_q(q)
    return leave_bound(g.m, sum(d % (q - 1) for d in g.degrees()), q)


def leave_bound(m: int, residue_sum: int, q: int) -> int:
    """Least k = m mod binom(q,2) with 2k >= residue_sum.

    optimal_leave_number of a graph with m edges whose degree residues
    mod (q-1) sum to residue_sum.
    """
    period = math.comb(q, 2)
    lb = -(-residue_sum // 2)  # ceil
    k = m % period
    if k < lb:
        k += period * (-(-(lb - k) // period))
    return k


# ===================================================================
# Packings
# ===================================================================


def _sorted_clique(c: Iterable[int], q: int) -> tuple[int, ...]:
    """c as a sorted tuple, which must hold q distinct vertices."""
    t = tuple(sorted(c))
    if len(t) != q or len(set(t)) != q:
        raise ValueError(f"clique {t} does not have {q} distinct vertices")
    return t


class Packing:
    """A set of q-vertex cliques, stored as sorted vertex tuples."""

    __slots__ = ("q", "cliques")

    def __init__(self, q: int, cliques: Iterable[Iterable[int]]):
        _check_q(q)
        self.q = q
        self.cliques: tuple[tuple[int, ...], ...] = tuple(
            _sorted_clique(c, q) for c in cliques
        )

    def __len__(self):
        return len(self.cliques)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.cliques)

    def __eq__(self, other):
        return (
            isinstance(other, Packing)
            and self.q == other.q
            and sorted(self.cliques) == sorted(other.cliques)
        )

    def __hash__(self):
        return hash((self.q, tuple(sorted(self.cliques))))

    def __repr__(self):
        return f"Packing(q={self.q}, k={len(self.cliques)})"


class PackingReport(NamedTuple):
    valid: bool
    covered: int
    leave: Graph
    problems: tuple[str, ...]


def verify_packing(g: Graph, p: Packing) -> PackingReport:
    """Check edge-disjointness and membership; report the leave graph.

    The report is valid iff every clique lies in G and no edge is used
    twice.  The leave is G minus all covered edges (computed even when
    invalid, from the cliques that do fit).
    """
    problems = []
    seen: set[tuple[int, int]] = set()
    for c in p.cliques:
        if c[-1] >= g.n:
            problems.append(f"clique {c} has a vertex outside 0..{g.n - 1}")
            continue
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                e = (c[i], c[j])
                if e not in g.edges:
                    problems.append(f"clique {c} uses missing edge {e}")
                elif e in seen:
                    problems.append(f"edge {e} covered twice (clique {c})")
                else:
                    seen.add(e)
    leave = _spanning_subgraph(g, g.edges - seen)
    return PackingReport(not problems, len(seen), leave, tuple(problems))


# ===================================================================
# Text formats
# ===================================================================
# Graphs: header "n m", then m lines "u v".  Output is lexicographic.
# Packings: header "q k", then k lines of q vertex ids.  Weightings
# (fractional.py) add a weight after the q ids.


def _parse_ints(line: str, lineno: int, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise ValueError(
            f"line {lineno}: expected {count} fields for {what}, got {len(parts)}"
        )
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer field in {what!r}: {line!r}")


def _read_records(text: str, kind: str) -> tuple[int, list[tuple[int, str]]]:
    """The header's first field and the (lineno, line) records of a graph
    ("n m" header, n nonnegative), packing or weighting file ("q k", q at
    least 3); blank lines and # comments are skipped."""
    lines = [
        (i, line)
        for i, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and not line.startswith("#")
    ]
    header, noun = ("n m", "edges") if kind == "graph" else ("q k", "cliques")
    if not lines:
        raise ValueError(f"line 1: empty {kind} file, expected '{header}' header")
    lineno, line = lines[0]
    first, count = _parse_ints(line, lineno, 2, f"{kind} header")
    if kind != "graph" and first < 3:
        raise ValueError(f"line {lineno}: q must be at least 3, got {first}")
    elif first < 0:
        raise ValueError(f"line {lineno}: vertex count must be nonnegative, got {first}")
    if len(lines) - 1 != count:
        raise ValueError(
            f"line {lineno}: header promises {count} {noun}, file has {len(lines) - 1}"
        )
    return first, lines[1:]


def _parse_clique(line: str, lineno: int, q: int) -> list[int]:
    """The q distinct vertex ids of a packing or weighting record."""
    vs = _parse_ints(line, lineno, q, "clique")
    if len(set(vs)) != q:
        raise ValueError(f"line {lineno}: repeated vertex in clique {vs}")
    return vs


def parse_graph(text: str) -> Graph:
    n, records = _read_records(text, "graph")
    edges = set()
    for lineno, line in records:
        u, v = _parse_ints(line, lineno, 2, "edge")
        if u == v:
            raise ValueError(f"line {lineno}: loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        e = edge_key(u, v)
        if e in edges:
            raise ValueError(f"line {lineno}: edge ({u}, {v}) listed twice")
        edges.add(e)
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"


def parse_packing(text: str) -> Packing:
    q, records = _read_records(text, "packing")
    return Packing(q, [_parse_clique(line, lineno, q) for lineno, line in records])


def serialize_packing(p: Packing) -> str:
    out = [f"{p.q} {len(p.cliques)}"]
    out.extend(" ".join(str(v) for v in c) for c in sorted(p.cliques))
    return "\n".join(out) + "\n"
