"""Exact K_q decomposition machinery.

Decomposition search is exact cover: columns are edge ids, rows are
q-cliques.  Branching picks the most constrained column (fewest
available cliques), breaking ties toward the lowest edge id, so runs
are deterministic.  A node budget distinguishes "no decomposition
exists" from "search gave up".  Minimum-leave packing wraps the same
machinery in branch and bound, pruning with the optimal leave number of
the still-undecided subgraph (a valid lower bound on any completion).
"""

from itertools import combinations
from operator import getitem, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .graphs import (
    Graph,
    Packing,
    is_kq_divisible,
    leave_bound,
    optimal_leave_number,
    union,
    verify_packing,
)

__all__ = [
    "SolveBudget",
    "BudgetExceeded",
    "DecompResult",
    "MinLeaveResult",
    "CliqueIndex",
    "enumerate_cliques",
    "exact_decomposition",
    "min_leave_packing",
    "verify_transformer",
    "verify_absorber",
]


class BudgetExceeded(Exception):
    pass


class SolveBudget:
    """Node cap for exact searches."""

    __slots__ = ("max_nodes", "nodes")

    def __init__(self, max_nodes: int | None = None):
        self.max_nodes = max_nodes
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceeded(f"node budget {self.max_nodes} exceeded")


# ===================================================================
# Clique enumeration
# ===================================================================


def enumerate_cliques(g: Graph, q: int) -> list[tuple[int, ...]]:
    """All q-cliques as sorted tuples, in lexicographic order.

    Reads only the upper neighbours up[v] = {w > v : vw in E}, built
    here from the edges, so g's full adjacency sets are never built.
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    up: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        up[u].add(v)
    out: list[tuple[int, ...]] = []
    for v in range(g.n):
        _extend_cliques(up, q, out, (v,), sorted(up[v]))
    return out


def _extend_cliques(up, q, out, prefix, cands) -> None:
    """Append to out the q-cliques that extend prefix by vertices of
    cands (common upper neighbours of prefix, ascending).  A module
    function, not a closure: a closure that calls itself is a reference
    cycle, which would keep up alive until the next garbage collection.
    With two vertices to go, the last level is taken inline.
    """
    need = q - len(prefix)
    if need == 1:
        out.extend([prefix + (w,) for w in cands])
        return
    if need == 2:
        for i, v in enumerate(cands):
            uv, pv = up[v], prefix + (v,)
            out.extend([pv + (w,) for w in cands[i + 1 :] if w in uv])
        return
    for i, v in enumerate(cands):
        if len(cands) - i < need:
            break
        uv = up[v]
        _extend_cliques(up, q, out, prefix + (v,), [w for w in cands[i + 1 :] if w in uv])


class CliqueIndex:
    """q-cliques of a graph over integer edge ids, one record per clique.

    edges[e] is the key of edge id e (ids follow sorted edge order) and
    edge_ids its inverse.  hedges[t] holds the edge ids of clique t in
    pair order (c0c1, c0c2, ...), with the cliques in lexicographic
    order, and through[e] the ids of the cliques on edge e, ascending.
    Because ids follow key order, each hedge and the sequence of hedges
    are strictly increasing, so loops over ids visit edges and cliques
    in their key order, and a hedge can be found by bisecting hedges.
    clique(t) reads the vertices of clique t back off its edges.

    The hedges are built a pair column at a time, with no tuple key
    hashed: up[a][b] is the id of edge ab for a < b, the column of pair
    (i, j) is up[c[i]][c[j]] over the cliques c, taken by C-level maps,
    and zip turns the pair columns into the hedges.  The list of vertex
    tuples goes before through is built.
    """

    __slots__ = ("q", "edges", "edge_ids", "hedges", "through")

    def __init__(self, g: Graph, q: int):
        self.q = q
        self.edges: tuple[tuple[int, int], ...] = tuple(g.sorted_edges())
        self.edge_ids = {e: i for i, e in enumerate(self.edges)}
        cliques = enumerate_cliques(g, q)
        up: list[dict[int, int]] = [{} for _ in range(g.n)]
        for e, (a, b) in enumerate(self.edges):
            up[a][b] = e
        row = up.__getitem__
        columns = [
            map(getitem, map(row, map(itemgetter(i), cliques)), map(itemgetter(j), cliques))
            for i, j in combinations(range(q), 2)
        ]
        self.hedges: tuple[tuple[int, ...], ...] = tuple(zip(*columns))
        del cliques, columns
        self.through: list[list[int]] = [[] for _ in self.edges]
        for t, hedge in enumerate(self.hedges):
            for e in hedge:
                self.through[e].append(t)

    def __len__(self):
        return len(self.hedges)

    def clique(self, t: int) -> tuple[int, ...]:
        """The vertices of clique t, ascending: c0 and c1 off its edge
        c0c1, then c2, ..., c(q-1) off its edges c0c2, ..., c0c(q-1)."""
        edges, hedge = self.edges, self.hedges[t]
        return edges[hedge[0]] + tuple([edges[e][1] for e in hedge[1 : self.q - 1]])


# ===================================================================
# Exact cover
# ===================================================================


class _ExactCover:
    """Algorithm X on live-row counts, as in Knuth's dancing links.

    Columns and rows are numbered from 0: cols[c] lists the rows through
    column c in ascending order and rows[r] the columns of row r.  live[r]
    marks the rows that meet no selected row, and count[c] is the number
    of live rows through c.  key[c] is count[c] capped at 254 while c is
    uncovered and 255 once it is covered, and left counts the uncovered
    columns.  The branching column, the one with the fewest live rows
    and the lowest number among those, is then the first byte of the
    least value in key, found by key.find (a C-level memchr); only when
    every uncovered column has 254 or more live rows does it take a
    Python min over their counts.
    """

    __slots__ = ("cols", "rows", "live", "count", "key", "left", "solution")

    def __init__(self, cols, rows):
        self.cols = cols
        self.rows = rows
        self.live = bytearray(b"\x01") * len(rows)
        self.count = [len(rs) for rs in cols]
        self.key = bytearray(min(k, 254) for k in self.count)
        self.left = len(cols)
        self.solution: list[int] = []

    def _select(self, r: int) -> list[int]:
        """Take row r: cover its columns and kill every live row that
        meets it (r included); returns the killed rows."""
        cols, rows, live, count, key = (
            self.cols, self.rows, self.live, self.count, self.key
        )
        covered = rows[r]
        for c in covered:
            key[c] = 255
        killed = []
        for c in covered:
            for r2 in cols[c]:
                if not live[r2]:
                    continue
                live[r2] = 0
                killed.append(r2)
                for c2 in rows[r2]:
                    k = count[c2] - 1
                    count[c2] = k
                    if k < 254 and key[c2] != 255:
                        key[c2] = k
        self.left -= len(covered)
        return killed

    def _unselect(self, r: int, killed: list[int]) -> None:
        """Undo _select(r), which returned killed."""
        rows, live, count, key = self.rows, self.live, self.count, self.key
        for r2 in killed:
            live[r2] = 1
            for c2 in rows[r2]:
                k = count[c2] + 1
                count[c2] = k
                if k < 255 and key[c2] != 255:
                    key[c2] = k
        covered = rows[r]
        for c in covered:
            key[c] = min(count[c], 254)
        self.left += len(covered)

    def _branch(self) -> Iterator[int]:
        """Live rows of the most constrained column, ascending.

        The walk is lazy: the search undoes every deeper selection
        before it asks for the next row, so live is then as it was here.
        """
        key, count = self.key, self.count
        for k in range(254):
            c = key.find(k)
            if c >= 0:
                break
        else:  # every uncovered column has 254 or more live rows
            c = min((count[s], s) for s, b in enumerate(key) if b == 254)[1]
        return filter(self.live.__getitem__, self.cols[c])

    def solutions(self, budget: SolveBudget) -> Iterator[list[int]]:
        """Depth-first Algorithm X on an explicit stack.

        branches[d] walks the candidate rows at depth d; undo[d] restores
        the row selected there.  The row order, the budget charges and
        the solutions match the recursive formulation, without its depth
        limit (a decomposition can need thousands of cliques).
        """
        if not self.left:
            yield list(self.solution)
            return
        branches = [self._branch()]
        undo: list = []
        while branches:
            if len(undo) == len(branches):
                self.solution.pop()
                self._unselect(*undo.pop())
            r = next(branches[-1], None)
            if r is None:
                branches.pop()
                continue
            budget.spend()
            undo.append((r, self._select(r)))
            self.solution.append(r)
            if self.left:
                branches.append(self._branch())
            else:
                yield list(self.solution)


class DecompResult(NamedTuple):
    """status is "found", "none", or "budget"."""

    status: str
    packing: Packing | None
    nodes: int


def exact_decomposition(
    g: Graph, q: int, budget: SolveBudget | None = None
) -> DecompResult:
    """Search for a K_q decomposition of G (every edge in one clique)."""
    if budget is None:
        budget = SolveBudget(max_nodes=1_000_000)
    if not is_kq_divisible(g, q):
        return DecompResult("none", None, 0)
    if g.m == 0:
        return DecompResult("found", Packing(q, []), 0)
    index = CliqueIndex(g, q)
    cover = _ExactCover(index.through, index.hedges)
    try:
        for sol in cover.solutions(budget):
            packing = Packing(q, [index.clique(t) for t in sol])
            return DecompResult("found", packing, budget.nodes)
    except BudgetExceeded:
        return DecompResult("budget", None, budget.nodes)
    return DecompResult("none", None, budget.nodes)


def exact_cover_solutions(
    columns: Iterable,
    rows: Iterable[tuple],
    budget: SolveBudget,
) -> Iterator[list]:
    """Generic exact cover enumeration (used by the absorber search).

    rows holds (key, columns) pairs.  Columns and keys must be sortable:
    the search branches on the column with the fewest rows left, the
    least such column first, and walks its rows in key order.  Each
    solution lists its keys in the order they were taken.  A repeated
    key or a row naming a column outside columns is a ValueError.
    """
    names = sorted(set(columns))
    col_id = {c: i for i, c in enumerate(names)}
    row_cols: dict = {}
    for key, cs in rows:
        if key in row_cols:
            raise ValueError(f"duplicate row key {key!r}")
        row_cols[key] = cs
    keys = sorted(row_cols)
    cols: list[list[int]] = [[] for _ in names]
    ids: list[list[int]] = []
    for r, key in enumerate(keys):
        row = []
        for c in dict.fromkeys(row_cols[key]):
            i = col_id.get(c)
            if i is None:
                raise ValueError(f"row {key!r} names unknown column {c!r}")
            row.append(i)
            cols[i].append(r)
        ids.append(row)
    cover = _ExactCover(cols, ids)
    return ([keys[r] for r in sol] for sol in cover.solutions(budget))


# ===================================================================
# Minimum leave
# ===================================================================


class MinLeaveResult(NamedTuple):
    """status is "optimal" or "budget" (best found within budget)."""

    status: str
    packing: Packing
    leave: int
    nodes: int


def min_leave_packing(
    g: Graph, q: int, budget: SolveBudget | None = None
) -> MinLeaveResult:
    """Branch and bound for a K_q packing minimizing the leave.

    Each node branches on the first undecided edge (in id order): every
    clique through it whose edges are all undecided, then leaving it.
    The bound is the optimal leave number of the undecided subgraph,
    kept as its edge count and per-vertex degrees, so a node costs
    O(degree) rather than O(m).
    """
    if budget is None:
        budget = SolveBudget(max_nodes=500_000)
    index = CliqueIndex(g, q)
    hedges, through, edges = index.hedges, index.through, index.edges
    m = len(edges)
    global_lb = optimal_leave_number(g, q)

    # greedy seed, lexicographic
    taken: list[int] = []
    used: set[int] = set()
    for cid, hedge in enumerate(hedges):
        if used.isdisjoint(hedge):
            taken.append(cid)
            used.update(hedge)
    best_leave = g.m - len(used)
    best_cliques = list(taken)

    qsize = q * (q - 1) // 2
    r = q - 1
    decided = bytearray(m)
    deg = g.degrees()  # undecided degree of each vertex
    residues = sum(d % r for d in deg)
    undecided = m
    n_left = 0
    chosen: list[int] = []
    out_of_budget = False

    def flip(es, step: int) -> None:
        """Decide the edges es (step 1) or undecide them (step -1)."""
        nonlocal residues, undecided
        undecided -= step * len(es)
        for e in es:
            decided[e] = step > 0
            for v in edges[e]:
                residues -= deg[v] % r
                deg[v] -= step
                residues += deg[v] % r

    def node(start: int):
        """Charge one search node; its target edge, or None at a leaf or a cut.

        Every edge before start is decided: start is one past the parent's
        target, which the move into this node decided.
        """
        nonlocal best_leave, best_cliques, out_of_budget
        try:
            budget.spend()
        except BudgetExceeded:
            out_of_budget = True
            return None
        target = decided.find(0, start)
        if target < 0:
            if n_left < best_leave:
                best_leave = n_left
                best_cliques = list(chosen)
            return None
        if n_left + leave_bound(undecided, residues, q) >= best_leave:
            return None
        return target

    def branches(target):
        """Each clique through target that still fits, then leaving target."""
        is_decided = decided.__getitem__
        for cid in through[target]:
            hedge = hedges[cid]
            if not any(map(is_decided, hedge)):
                yield hedge, cid
        yield (target,), None

    # Depth-first on an explicit stack: stack[d] walks the branches of
    # the open node at depth d, whose target edge is targets[d]; undo[d]
    # is the move taken there.  The branch order and budget charges are
    # those of the recursive search, without its depth limit (one level
    # per decided edge).
    root = node(0) if best_leave > global_lb else None
    targets = [] if root is None else [root]
    stack = [branches(t) for t in targets]
    undo: list = []
    while stack and not out_of_budget and best_leave > global_lb:
        if len(undo) == len(stack):
            es, cid = undo.pop()
            flip(es, -1)
            if cid is None:
                n_left -= 1
            else:
                chosen.pop()
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
            targets.pop()
            continue
        es, cid = move
        flip(es, 1)
        if cid is None:
            n_left += 1
        else:
            chosen.append(cid)
        undo.append(move)
        child = node(targets[-1] + 1)
        if child is not None:
            targets.append(child)
            stack.append(branches(child))

    packing = Packing(q, [index.clique(cid) for cid in best_cliques])
    status = "budget" if out_of_budget else "optimal"
    leave = g.m - qsize * len(best_cliques)
    return MinLeaveResult(status, packing, leave, budget.nodes)


# ===================================================================
# Certificate verification
# ===================================================================


def _assert_decomposes(host: Graph, packing: Packing, what: str, problems: list[str]):
    rep = verify_packing(host, packing)
    if not rep.valid:
        problems.extend(f"{what}: {p}" for p in rep.problems[:5])
    elif rep.leave.m:
        problems.append(f"{what}: {rep.leave.m} edges uncovered")


def verify_transformer(bundle) -> list[str]:
    """Check a transformer bundle; returns a list of problems (empty = ok).

    Expects fields q, t, l, l_prime (graphs), roots (iterable), and the
    two certificates decomp_tl, decomp_tl_prime.
    """
    problems: list[str] = []
    roots = set(bundle.roots)
    for u, v in bundle.t.edges:
        if u in roots and v in roots:
            problems.append(f"T has an edge inside the root set: ({u}, {v})")
    for name, lg in (("L", bundle.l), ("L'", bundle.l_prime)):
        for u, v in lg.edges:
            if u not in roots or v not in roots:
                problems.append(f"{name} edge ({u}, {v}) leaves the root set")
    _assert_decomposes(
        union(bundle.t, bundle.l), bundle.decomp_tl, "decomp of T u L", problems
    )
    _assert_decomposes(
        union(bundle.t, bundle.l_prime),
        bundle.decomp_tl_prime,
        "decomp of T u L'",
        problems,
    )
    return problems


def verify_absorber(bundle) -> list[str]:
    """Check an absorber bundle; returns a list of problems (empty = ok).

    Expects fields q, l, a (graphs), roots (= V(L)), decomp_a and
    decomp_la.  L must be K_q-divisible, roots independent in A, and
    both certificates must decompose exactly.
    """
    problems: list[str] = []
    roots = set(bundle.roots)
    if not is_kq_divisible(bundle.l, bundle.q):
        problems.append("L is not divisible")
    for u, v in bundle.a.edges:
        if u in roots and v in roots:
            problems.append(f"A has an edge inside the root set: ({u}, {v})")
    for u, v in bundle.l.edges:
        if u not in roots or v not in roots:
            problems.append(f"L edge ({u}, {v}) leaves the root set")
    _assert_decomposes(bundle.a, bundle.decomp_a, "decomp of A", problems)
    _assert_decomposes(
        union(bundle.l, bundle.a), bundle.decomp_la, "decomp of L u A", problems
    )
    return problems
