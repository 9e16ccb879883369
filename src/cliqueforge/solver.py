"""Exact K_q decomposition machinery.

Decomposition search is exact cover: columns are edge ids, rows are
q-cliques.  Branching picks the most constrained column (fewest
available cliques), breaking ties toward the lowest edge id, so runs
are deterministic.  A node budget distinguishes "no decomposition
exists" from "search gave up".  Minimum-leave packing wraps the same
machinery in branch and bound, pruning with the optimal leave number of
the still-undecided subgraph (a valid lower bound on any completion).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

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
    """All q-cliques as sorted tuples, in lexicographic order."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    adj = g.adjacency()
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], cands: list[int]) -> None:
        """The cliques that extend prefix by vertices of cands (common
        neighbours of prefix, all above it, ascending)."""
        if len(prefix) == q - 1:
            out.extend([prefix + (w,) for w in cands])
            return
        need = q - len(prefix)
        for i, v in enumerate(cands):
            if len(cands) - i < need:
                break
            av = adj[v]
            extend(prefix + (v,), [w for w in cands[i + 1 :] if w in av])

    for v in range(g.n):
        extend((v,), sorted(w for w in adj[v] if w > v))
    return out


class CliqueIndex:
    """q-cliques of a graph over integer edge ids.

    edges[e] is the key of edge id e (ids follow sorted edge order) and
    edge_ids its inverse.  cliques are in lexicographic order; hedges[t]
    holds the edge ids of clique t in pair order (c0c1, c0c2, ...), and
    through[e] the ids of the cliques on edge e, ascending.  Loops over
    ids therefore visit edges and cliques in their key order.
    """

    __slots__ = ("q", "edges", "edge_ids", "cliques", "hedges", "through")

    def __init__(self, g: Graph, q: int):
        self.q = q
        self.edges: tuple[tuple[int, int], ...] = tuple(g.sorted_edges())
        self.edge_ids = ids = {e: i for i, e in enumerate(self.edges)}
        self.cliques: tuple[tuple[int, ...], ...] = tuple(enumerate_cliques(g, q))
        self.hedges: tuple[tuple[int, ...], ...] = tuple(
            tuple(map(ids.__getitem__, combinations(c, 2))) for c in self.cliques
        )
        self.through: list[list[int]] = [[] for _ in self.edges]
        for t, hedge in enumerate(self.hedges):
            for e in hedge:
                self.through[e].append(t)

    def __len__(self):
        return len(self.cliques)


# ===================================================================
# Exact cover
# ===================================================================


_DONE = object()


class _ExactCover:
    """Algorithm X over sets.

    Every column must be covered exactly once.  Rows are keyed by
    sortable hashables (clique ids).
    """

    def __init__(self, columns, rows):
        self.row_cols: dict = {}
        self.cols: dict = {c: set() for c in columns}
        for key, cols in rows:
            cs = tuple(cols)
            self.row_cols[key] = cs
            for c in cs:
                self.cols[c].add(key)
        self.active: set = set(self.cols)
        self.solution: list = []

    def _select(self, key):
        """Take row key: drop every row that meets it and cover its columns
        (all still active, since rows meeting a covered column are gone)."""
        removed_rows = set()
        covered = self.row_cols[key]
        for c in covered:
            removed_rows |= self.cols[c]
        for r in removed_rows:
            for c in self.row_cols[r]:
                self.cols[c].discard(r)
        self.active.difference_update(covered)
        return removed_rows, covered

    def _unselect(self, removed_rows, covered):
        self.active.update(covered)
        for r in removed_rows:
            for c in self.row_cols[r]:
                self.cols[c].add(r)

    def _branch(self) -> Iterator:
        """Rows of the most constrained column, in key order."""
        c = min(self.active, key=lambda x: (len(self.cols[x]), x))
        return iter(sorted(self.cols[c]))

    def solutions(self, budget: SolveBudget) -> Iterator[list]:
        """Depth-first Algorithm X on an explicit stack.

        branches[d] walks the candidate rows at depth d; undo[d] restores
        the row selected there.  The row order, the budget charges and
        the solutions match the recursive formulation, without its depth
        limit (a decomposition can need thousands of cliques).
        """
        if not self.active:
            yield list(self.solution)
            return
        branches = [self._branch()]
        undo: list = []
        while branches:
            if len(undo) == len(branches):
                self.solution.pop()
                self._unselect(*undo.pop())
            key = next(branches[-1], _DONE)
            if key is _DONE:
                branches.pop()
                continue
            budget.spend()
            undo.append(self._select(key))
            self.solution.append(key)
            if self.active:
                branches.append(self._branch())
            else:
                yield list(self.solution)


class DecompResult:
    """status is "found", "none", or "budget"."""

    __slots__ = ("status", "packing", "nodes")

    def __init__(self, status: str, packing: Packing | None, nodes: int):
        self.status = status
        self.packing = packing
        self.nodes = nodes

    def __repr__(self):
        return f"DecompResult(status={self.status!r}, nodes={self.nodes})"


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
    cover = _ExactCover(range(g.m), enumerate(index.hedges))
    try:
        for sol in cover.solutions(budget):
            packing = Packing(q, [index.cliques[t] for t in sol])
            return DecompResult("found", packing, budget.nodes)
    except BudgetExceeded:
        return DecompResult("budget", None, budget.nodes)
    return DecompResult("none", None, budget.nodes)


def exact_cover_solutions(
    columns: Iterable,
    rows: Iterable[tuple],
    budget: SolveBudget,
) -> Iterator[list]:
    """Generic exact cover enumeration (used by the absorber search)."""
    yield from _ExactCover(columns, rows).solutions(budget)


# ===================================================================
# Minimum leave
# ===================================================================


class MinLeaveResult:
    """status is "optimal" or "budget" (best found within budget)."""

    __slots__ = ("status", "packing", "leave", "nodes")

    def __init__(self, status, packing, leave, nodes):
        self.status: str = status
        self.packing: Packing = packing
        self.leave: int = leave
        self.nodes: int = nodes

    def __repr__(self):
        return f"MinLeaveResult(status={self.status!r}, leave={self.leave})"


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
        target = start
        while target < m and decided[target]:
            target += 1
        if target == m:
            if n_left < best_leave:
                best_leave = n_left
                best_cliques = list(chosen)
            return None
        if n_left + leave_bound(undecided, residues, q) >= best_leave:
            return None
        return target

    def branches(target):
        """Each clique through target that still fits, then leaving target."""
        for cid in through[target]:
            hedge = hedges[cid]
            if not any(decided[e] for e in hedge):
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

    packing = Packing(q, [index.cliques[cid] for cid in best_cliques])
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
