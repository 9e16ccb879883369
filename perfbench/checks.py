"""Output checks that do not trust the library's own ``valid`` flags.

Every function returns a list of problems; an empty list means the
output is correct.  Graphs are re-sampled from their seeds by the
caller, and the arithmetic here (clique membership, edge loads,
density ratios, the divisibility leave bound) is recomputed from
scratch.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _pairs(c):
    return itertools.combinations(c, 2)


def leave_bound(edges, n: int, q: int) -> int:
    """Least leave of any K_q packing allowed by divisibility.

    The leave keeps e mod binom(q,2) edges and every degree mod (q-1),
    so it has at least ceil(sum of degree residues / 2) edges.
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    period = q * (q - 1) // 2
    need = -(-sum(d % (q - 1) for d in deg) // 2)
    k = len(edges) % period
    while k < need:
        k += period
    return k


def packed_edges(cliques, edges, q: int, problems: list) -> set:
    """Edges covered by edge-disjoint K_q's of the given edge set."""
    seen: set = set()
    for c in cliques:
        if len(c) != q or len(set(c)) != q:
            problems.append(f"{c} is not a {q}-set")
            continue
        for e in _pairs(sorted(c)):
            if e not in edges:
                problems.append(f"clique {c} uses non-edge {e}")
            elif e in seen:
                problems.append(f"edge {e} covered twice")
            else:
                seen.add(e)
    return seen


def check_pack(rep, g, q: int) -> tuple[list[str], int]:
    """Problems with one PackReport on graph g, and its leave excess.

    Accounting contract: the stages plus the leave equal e(G), and
    fixer_deleted + leave >= the divisibility bound.
    """
    problems: list[str] = []
    deleted = set(rep.deleted)
    if len(deleted) != len(rep.deleted) or not deleted <= g.edges:
        problems.append("deleted edges are repeated or not in G")
    base = g.edges - deleted
    covered = packed_edges(rep.packing.cliques, base, q, problems)
    leave = len(base) - len(covered)
    bound = leave_bound(g.edges, g.n, q)
    st = rep.stages
    if rep.leave != leave:
        problems.append(f"reported leave {rep.leave}, recount {leave}")
    if st["fixer_deleted"] != len(deleted):
        problems.append("fixer_deleted does not match the deleted edges")
    if st["nibble"] + st["reserve"] + st["absorbed"] != len(covered):
        problems.append("stage tallies do not match the covered edges")
    if sum(st.values()) + rep.leave != g.m:
        problems.append("stages plus leave differ from e(G)")
    if rep.optimal_leave != bound:
        problems.append(f"optimal_leave {rep.optimal_leave}, recount {bound}")
    if len(deleted) + leave < bound:
        problems.append("deleted + leave is below the divisibility bound")
    if not rep.valid:
        problems.append("the library marked its own output invalid")
    return problems, len(deleted) + leave - bound


def check_cover(packing, g, q: int) -> list[str]:
    """The packing is a K_q decomposition of g: leave 0."""
    problems: list[str] = []
    covered = packed_edges(packing.cliques, g.edges, q, problems)
    if len(covered) != g.m:
        problems.append(f"leave {g.m - len(covered)}, want 0")
    return problems


def check_min_leave(res, g, q: int) -> tuple[list[str], int]:
    problems: list[str] = []
    covered = packed_edges(res.packing.cliques, g.edges, q, problems)
    bound = leave_bound(g.edges, g.n, q)
    if res.leave != g.m - len(covered):
        problems.append(f"reported leave {res.leave}, recount {g.m - len(covered)}")
    if res.leave < bound:
        problems.append("leave is below the divisibility bound")
    if res.status != "optimal":
        problems.append(f"status {res.status}")
    return problems, res.leave - bound


def check_weighting(w, g, q: int) -> list[str]:
    """Every weighted set is a q-clique of g and every edge load is exactly 1."""
    problems: list[str] = []
    loads: dict = {}
    for c, v in w.weights.items():
        if len(c) != q or not all(e in g.edges for e in _pairs(c)):
            problems.append(f"weighted set {c} is not a {q}-clique of G")
        for e in _pairs(c):
            loads[e] = loads.get(e, 0) + v
    for e in g.edges:
        if loads.get(e, 0) != 1:
            problems.append(f"load {loads.get(e, 0)} on edge {e}")
            break
    if any(v != 0 for e, v in loads.items() if e not in g.edges):
        problems.append("nonzero load on a non-edge")
    return problems


def edge_outside_cliques(g, k: int):
    """An edge of g in no k-clique, or None."""
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    for u, v in sorted(g.edges):
        common = sorted(adj[u] & adj[v])
        if not any(
            all(b in adj[a] for a, b in _pairs(rest))
            for rest in itertools.combinations(common, k - 2)
        ):
            return (u, v)
    return None


def witness_ratio(g, witness, roots=None) -> Fraction:
    """Rooted ratio e(W)/|W - R|, or the 2-density ratio (e(W)-1)/(|W|-2)."""
    w = set(witness)
    e = sum(1 for a, b in g.edges if a in w and b in w)
    if roots is not None:
        return Fraction(e, len(w - set(roots)))
    return Fraction(e - 1, len(w) - 2)


def check_density(dv, g, roots=None, pinned=None) -> list[str]:
    problems: list[str] = []
    rooted = dv.kind == "rooted"
    if rooted and roots is None:
        problems.append("rooted witness for an unrooted functional")
        return problems
    if not rooted and len(set(dv.witness)) < 3:
        problems.append("2-density witness has fewer than 3 vertices")
        return problems
    if rooted and not set(dv.witness) - set(roots):
        problems.append("rooted witness has no non-root vertex")
        return problems
    got = witness_ratio(g, dv.witness, roots if rooted else None)
    if got != dv.value:
        problems.append(f"witness evaluates to {got}, reported {dv.value}")
    if roots is None and g.n >= 3 and dv.value < Fraction(g.m - 1, g.n - 2):
        problems.append("value is below the whole graph's 2-density ratio")
    if pinned is not None and dv.value != pinned:
        problems.append(f"value {dv.value}, known value {pinned}")
    return problems
