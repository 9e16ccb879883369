"""Exact rooted density functionals.

All values are exact rationals (fractions.Fraction); floating point is
never used here.  The three functionals:

  max_rooted_density(H, R)   max e(H') / |V(H') \\ R| over subgraphs H'
                             with V(H') \\ R nonempty,
  max_2_density(H)           max (e(H') - 1) / (v(H') - 2) over v(H') >= 3,
  rooted_2_density(H, R)     the max of the two.

Roots must be independent in H.  Maximizers can be taken induced and
holding all of R, so the rooted functional is the max of e(T u R) / |T|
over nonempty vertex sets T of V \\ R.

Engine.  For lam = a/b, the least T maximising e(T u R) - lam |T| is the
source side of the least minimum s-t cut (Goldberg, UCB/CSD-84-171,
1984), read off the residual network of a maximum flow.  Each
vertex v of V \\ R gets the weight w(v) = b (d(v) + 2 r(v)) - 2a, where
d(v) counts its edges to other non-roots and r(v) its edges to roots;
s -> v has capacity w(v) when w(v) > 0, v -> t has -w(v) when w(v) < 0,
and every non-root edge is a pair of arcs of capacity b.  A cut with
source side T then costs W - 2b (e(T u R) - lam |T|), W the sum of the
positive weights.  Dinkelbach's iteration (Management Science 13(7),
1967) starts at lam = e(H) / |V \\ R| and moves lam to the ratio of the
cut's source side until that side is empty, i.e. until no set beats
lam.  Each step raises lam strictly, so it stops at the exact maximum.

Pinning.  A cut cannot state m_2's v(H') >= 3.  But for a set S of at
least 3 vertices holding an edge uv, (e(S) - 1) / (|S| - 2) equals
e_{H-uv}(S) / |S \\ {u, v}|, so m_2(H) is the max over edges uv of
m(H - uv, {u, v}); an edgeless H has -1/(n - 2), attained by V(H).  The
search starts at the ratio of V(H) and pins the edges in sorted order,
each with one Dinkelbach warm-started at the best lam so far.  Only the
(floor(lam) + 1)-core is searched: if S beats lam >= 0 and some x in S
has degree d <= lam inside S, then |S| >= 4 (three vertices that beat
lam have minimum degree above lam), and dropping x keeps the ratio at
least as high, because (e(S) - 1) / (|S| - 2) > d.  The search that
pins uv (u < v) takes its free vertices from the core vertices above u
alone: a vertex below u has had every edge pinned or skipped, and a set
holding one cannot beat the lam those searches reached, so each
Dinkelbach step finds the same least maximiser as over the whole core
(the argument is in _pinned_search).  The cost is one warm-started
Dinkelbach per core edge, usually a single min cut on the core vertices
above u; no step enumerates subsets and no size is capped.

Witnesses are deterministic.  The rooted witness is R plus the last
source side that raised lam, which is the least maximiser at the lam
before it (all of V \\ R when the start is optimal).  The 2-density
witness comes from the last pinned edge that raised lam, i.e. the first
in sorted order whose sets reach the maximum, or is V(H) when no pinned
set beats the whole graph.
rooted_2_density pins edges only for sets that beat the rooted value,
so ties keep the rooted witness.
"""

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .graphs import Graph

__all__ = [
    "DensityValue",
    "max_rooted_density",
    "max_2_density",
    "rooted_2_density",
    "evaluate_rooted_ratio",
    "evaluate_two_density_ratio",
]

class DensityValue(NamedTuple):
    """An exact density value with the witness vertex set attaining it.

    kind is "rooted" or "two_density"; the witness re-evaluates to the
    value through evaluate_rooted_ratio / evaluate_two_density_ratio.
    """

    value: Fraction
    witness: tuple[int, ...]
    kind: str


def _check_roots(g: Graph, roots: Iterable[int]) -> frozenset[int]:
    """The roots as a set, once each is a vertex of g and no edge joins two."""
    rs = frozenset(roots)
    for r in sorted(rs):
        if not 0 <= r < g.n:
            raise ValueError(f"root {r} out of range for n={g.n}")
    for u, v in g.edges:
        if u in rs and v in rs:
            raise ValueError(f"roots are not independent: edge ({u}, {v})")
    return rs


def evaluate_rooted_ratio(g: Graph, roots: Iterable[int], witness: Iterable[int]) -> Fraction:
    """e(G[W]) / |W \\ R| for re-verifying a rooted witness."""
    w = set(witness)
    rs = set(roots)
    free = len(w - rs)
    if free == 0:
        raise ValueError("witness has no non-root vertices")
    e = sum(1 for u, v in g.edges if u in w and v in w)
    return Fraction(e, free)


def evaluate_two_density_ratio(g: Graph, witness: Iterable[int]) -> Fraction:
    """(e(G[W]) - 1) / (|W| - 2) for re-verifying a 2-density witness."""
    w = set(witness)
    if len(w) < 3:
        raise ValueError("2-density witness needs at least 3 vertices")
    e = sum(1 for u, v in g.edges if u in w and v in w)
    return Fraction(e - 1, len(w) - 2)


# ===================================================================
# Engine: Goldberg's min cut inside Dinkelbach's iteration
# ===================================================================


def _source_side(nbrs, root_deg, lam: Fraction) -> set[int]:
    """The least T maximising e(T u R) - lam |T|, read off an s-t min cut."""
    a, b = lam.numerator, lam.denominator
    verts = list(nbrs)
    index = {v: i for i, v in enumerate(verts)}
    s, t = len(verts), len(verts) + 1
    head: list[list[int]] = [[] for _ in range(t + 1)]
    to: list[int] = []
    cap: list[int] = []

    def arc(x, y, c, back):
        head[x].append(len(to))
        to.append(y)
        cap.append(c)
        head[y].append(len(to))
        to.append(x)
        cap.append(back)

    for i, v in enumerate(verts):
        w = b * (len(nbrs[v]) + 2 * root_deg[v]) - 2 * a
        if w > 0:
            arc(s, i, w, 0)
        elif w < 0:
            arc(i, t, -w, 0)
        for x in nbrs[v]:
            if index[x] > i:
                arc(i, index[x], b, b)
    while True:
        level = [-1] * (t + 1)
        level[s] = 0
        queue = [s]
        for x in queue:
            for e in head[x]:
                if cap[e] and level[to[e]] < 0:
                    level[to[e]] = level[x] + 1
                    queue.append(to[e])
        if level[t] < 0:
            return {verts[x] for x in queue[1:]}
        _blocking_flow(head, to, cap, level, s, t)


def _blocking_flow(head, to, cap, level, s, t) -> None:
    """Saturate every shortest s-t path (Dinic's phase), without recursion."""
    ptr = [0] * len(head)
    path: list[int] = []
    x = s
    while True:
        if x == t:
            f = min(cap[e] for e in path)
            for e in path:
                cap[e] -= f
                cap[e ^ 1] += f
            path.clear()
            x = s
            continue
        arcs = head[x]
        i = ptr[x]
        while i < len(arcs) and not (cap[arcs[i]] and level[to[arcs[i]]] == level[x] + 1):
            i += 1
        ptr[x] = i
        if i < len(arcs):
            path.append(arcs[i])
            x = to[arcs[i]]
        elif x == s:
            return
        else:
            x = to[path.pop() ^ 1]
            ptr[x] += 1


def _dinkelbach(nbrs, root_deg, lam: Fraction, witness):
    """Raise lam to max e(T u R) / |T| over nonempty T, if that beats it.

    nbrs maps each free vertex to its free neighbours, root_deg to its
    number of edges into the roots.  Returns (lam, witness): the witness
    is the last source side that raised lam, or the given one if none did.
    """
    while True:
        t = _source_side(nbrs, root_deg, lam)
        if not t:
            return lam, witness
        twice_e = sum(2 * root_deg[v] + len(nbrs[v] & t) for v in t)
        lam, witness = Fraction(twice_e, 2 * len(t)), t


def _pinned_search(g: Graph, lam: Fraction, witness):
    """Best (e(S) - 1) / (|S| - 2) over sets S that beat lam, pinning each edge.

    Edges run in sorted order, and the search that pins uv (u < v) takes
    its free vertices only from the alive vertices above u.  Each
    Dinkelbach step still returns the least maximiser T of
    e(T u {u, v}) - lam |T| over all alive vertices, so values and
    witnesses are those of the unrestricted search.  Every vertex of T
    has more than lam >= 0 neighbours in S = T u {u, v} (lam >= 0 once
    there is an edge), or dropping it would not lower the objective.
    Were the least vertex w of T below u, it would have a neighbour y in
    S, y > w, so the edge wy came before uv.  Both were alive then, since
    alive only shrinks, and S lies in that search's domain, so it raised
    lam to at least the ratio of S, and S cannot beat lam now.  The
    excluded vertices stay in alive and in its core peeling, so the same
    edges are searched or skipped; dropping them from alive would change
    the core, and nothing then shows the witnesses stay the same.

    Returns (lam, witness), unchanged when no set beats lam.
    """
    adj = g.adjacency()
    alive = set(range(g.n))
    k = 0
    for u, v in g.sorted_edges():
        if math.floor(lam) + 1 > k:
            k = math.floor(lam) + 1
            _peel_to_core(adj, alive, k)
        if u not in alive or v not in alive:
            continue
        free = {x for x in alive if x > u}
        free.discard(v)
        nbrs = {x: adj[x] & free for x in free}
        root_deg = {x: (u in adj[x]) + (v in adj[x]) for x in free}
        best, t = _dinkelbach(nbrs, root_deg, lam, None)
        if t is not None:
            lam, witness = best, tuple(sorted(t | {u, v}))
    return lam, witness


def _peel_to_core(adj, alive: set[int], k: int) -> None:
    """Shrink alive to the vertex set of the k-core of the graph it induces."""
    deg = {v: len(adj[v] & alive) for v in alive}
    low = [v for v in alive if deg[v] < k]
    alive.difference_update(low)
    while low:
        v = low.pop()
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] < k:
                    alive.discard(w)
                    low.append(w)


# ===================================================================
# Public functionals
# ===================================================================


def max_rooted_density(g: Graph, roots: Iterable[int]) -> DensityValue:
    """m(H, R): max e(H') / |V(H') \\ R|, exact, with witness."""
    rs = _check_roots(g, roots)
    free = set(range(g.n)) - rs
    if not free:
        raise ValueError("V(H) \\ R is empty")
    adj = g.adjacency()
    nbrs = {v: adj[v] & free for v in free}
    root_deg = {v: len(adj[v] & rs) for v in free}
    lam, t = _dinkelbach(nbrs, root_deg, Fraction(g.m, len(free)), free)
    return DensityValue(lam, tuple(sorted(t | rs)), "rooted")


def max_2_density(g: Graph) -> DensityValue:
    """m_2(H): max (e(H') - 1) / (v(H') - 2) over v(H') >= 3, exact."""
    _check_three_vertices(g)
    lam, witness = _pinned_search(g, Fraction(g.m - 1, g.n - 2), tuple(range(g.n)))
    return DensityValue(lam, witness, "two_density")


def rooted_2_density(g: Graph, roots: Iterable[int]) -> DensityValue:
    """m_2(H, R) = max(m(H, R), m_2(H)); ties prefer the rooted witness."""
    rooted = max_rooted_density(g, roots)
    _check_three_vertices(g)
    lam, witness = _pinned_search(g, rooted.value, None)
    if witness is None:
        return rooted
    return DensityValue(lam, witness, "two_density")


def _check_three_vertices(g: Graph) -> None:
    if g.n < 3:
        raise ValueError(f"2-density needs at least 3 vertices, got {g.n}")
