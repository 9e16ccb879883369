"""Brute-force reference implementations the tests check against.

Everything here recomputes results from first principles by exhaustive
enumeration, so it stays trivially auditable; the exceptions are
reference_exact_cover, Algorithm X over plain sets, solved_edge_gadget,
Gauss-Jordan over the full load system, reference_boost, the plain
Fraction form of the fractional boost, reference_pinned_search, the
pinned 2-density search with every alive vertex free, and
reference_repair, the pairing model's switch repair with a scan of the
bad set per round.  The density bounds (rooted_degeneracy,
concatenation_bound), the absorber diagnostics and two_layer_boost are
checks built on the library, which itself never calls them.
Nothing is imported from the package beyond the Graph container itself,
save the min cut and core peeling that reference_pinned_search drives,
the seeded streams that reference_gnd draws from, rooted_2_density,
which concatenation_bound evaluates on both pieces, and boost with its
weighting and result types, which two_layer_boost finishes a first
layer with.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
import math

from cliqueforge.density import _dinkelbach, _peel_to_core, rooted_2_density
from cliqueforge.fractional import BoostResult, CliqueWeighting, boost
from cliqueforge.graphs import Graph
from cliqueforge.randgraphs import stream


# ===================================================================
# Small graph builders
# ===================================================================


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def induced_edges(g: Graph, vs) -> int:
    s = set(vs)
    return sum(1 for u, v in g.edges if u in s and v in s)


# ===================================================================
# Densities by subset enumeration
# ===================================================================


def brute_rooted_density(g: Graph, roots) -> Fraction:
    """max e(H') / |V(H') \\ R|; induced subgraphs dominate, and adding
    all of R never hurts, so vertex subsets of V - R suffice."""
    rs = set(roots)
    others = [v for v in range(g.n) if v not in rs]
    best = None
    for k in range(1, len(others) + 1):
        for extra in combinations(others, k):
            val = Fraction(induced_edges(g, rs | set(extra)), k)
            if best is None or val > best:
                best = val
    return best


def brute_2_density(g: Graph) -> Fraction:
    best = None
    for k in range(3, g.n + 1):
        for vs in combinations(range(g.n), k):
            val = Fraction(induced_edges(g, vs) - 1, k - 2)
            if best is None or val > best:
                best = val
    return best


def brute_rooted_2_density(g: Graph, roots) -> Fraction:
    return max(brute_rooted_density(g, roots), brute_2_density(g))


def reference_pinned_search(g: Graph, lam: Fraction, witness):
    """density._pinned_search with every alive vertex free: the search
    that pins uv runs over all of alive - {u, v}, not only the vertices
    above u.  Returns (lam, witness), unchanged when no set beats lam."""
    adj = g.adjacency()
    alive = set(range(g.n))
    k = 0
    for u, v in g.sorted_edges():
        if math.floor(lam) + 1 > k:
            k = math.floor(lam) + 1
            _peel_to_core(adj, alive, k)
        if u not in alive or v not in alive:
            continue
        free = alive - {u, v}
        nbrs = {x: adj[x] & free for x in free}
        root_deg = {x: (u in adj[x]) + (v in adj[x]) for x in free}
        best, t = _dinkelbach(nbrs, root_deg, lam, None)
        if t is not None:
            lam, witness = best, tuple(sorted(t | {u, v}))
    return lam, witness


# ===================================================================
# Upper bounds on the rooted 2-density
# ===================================================================


def rooted_degeneracy(g: Graph, roots) -> tuple[int, tuple[int, ...]]:
    """Min-degree peeling of V(H) \\ R; returns (degeneracy, peel order).

    Degrees count edges into roots.  If the peeling never sees degree
    above d, then every subgraph has a non-root vertex of degree <= d,
    which gives m_2(H, R) <= d for d >= 2 (e(H') <= d (v' - 2) whenever
    H' keeps >= 2 roots, and e(H') <= d v' - binom(d+1, 2) in general).
    """
    rs = set(roots)
    adj = g.adjacency()
    deg = {v: len(adj[v]) for v in range(g.n) if v not in rs}
    order = []
    value = 0
    remaining = set(deg)
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        if deg[v] > value:
            value = deg[v]
        order.append(v)
        remaining.remove(v)
        for w in adj[v]:
            if w in remaining:
                deg[w] -= 1
    return value, tuple(order)


def concatenation_bound(g: Graph, roots, inner_vertices) -> Fraction:
    """The two-step bound max(m_2(H1, R), m_2(H - E(H1), V(H1))).

    For H rooted at R and the subgraph H1 that inner_vertices induce,
    holding R and proper in H, it bounds m_2(H, R) from above.
    """
    rs = frozenset(roots)
    inner = frozenset(inner_vertices)
    inner_edges = {e for e in g.edges if e[0] in inner and e[1] in inner}
    h1 = Graph(g.n, inner_edges)
    h2 = Graph(g.n, g.edges - inner_edges)
    return max(rooted_2_density(h1, rs).value, rooted_2_density(h2, inner).value)


# ===================================================================
# Divisibility and leaves
# ===================================================================


def residues(g: Graph, q: int) -> tuple[int, list[int]]:
    """e(G) mod binom(q,2) and each degree mod q-1, by vertex."""
    return g.m % math.comb(q, 2), [d % (q - 1) for d in g.degrees()]


def brute_leave_bound(g, q: int) -> int:
    """First k >= 0 with k = e(G) mod binom(q,2) and 2k >= residue sum,
    found by linear scan rather than ceiling arithmetic."""
    period = math.comb(q, 2)
    rsum = sum(d % (q - 1) for d in g.degrees())
    for k in range(g.m + period + 1):
        if k % period == g.m % period and 2 * k >= rsum:
            return k
    raise AssertionError("scan bound too small")


def brute_cliques(g: Graph, q: int) -> list[tuple[int, ...]]:
    return [
        c
        for c in combinations(range(g.n), q)
        if all((u, v) in g.edges for u, v in combinations(c, 2))
    ]


def reference_hedges(cliques, edge_ids) -> tuple[tuple[int, ...], ...]:
    """Edge ids of each clique in pair order, one tuple key looked up
    in edge_ids per pair."""
    return tuple(tuple(map(edge_ids.__getitem__, combinations(c, 2))) for c in cliques)


def max_codegree(hedges) -> int:
    """Most hyperedges through one pair of vertices, by counting pairs."""
    pairs = Counter(p for h in hedges for p in combinations(sorted(h), 2))
    return max(pairs.values(), default=0)


def brute_min_leave(g: Graph, q: int) -> int:
    """Exact minimum leave by depth-first search over clique subsets.

    Only for tiny graphs; branches on the lexicographically least
    uncovered edge, which every optimal packing either covers or skips.
    """
    cliques = brute_cliques(g, q)
    by_edge: dict[tuple[int, int], list[int]] = {e: [] for e in g.edges}
    pairs = [tuple(combinations(c, 2)) for c in cliques]
    for i, ps in enumerate(pairs):
        for e in ps:
            by_edge[e].append(i)
    edges = sorted(g.edges)
    best = [g.m]

    def rec(pos: int, used: set, skipped: int) -> None:
        if skipped >= best[0]:
            return
        while pos < len(edges) and edges[pos] in used:
            pos += 1
        if pos == len(edges):
            best[0] = skipped
            return
        e = edges[pos]
        for i in by_edge[e]:
            if not used.intersection(pairs[i]):
                rec(pos + 1, used | set(pairs[i]), skipped)
        rec(pos + 1, used, skipped + 1)

    rec(0, set(), 0)
    return best[0]


# ===================================================================
# Exact cover over sets
# ===================================================================


def reference_exact_cover(columns, rows, budget):
    """Algorithm X with a set of live rows per column, recursively.

    Branches on the column with the fewest live rows (ties to the least
    column), tries its rows in key order and charges budget.spend() per
    row taken, as the solver's exact cover does.  Yields each solution
    as its keys in the order they were taken.
    """
    row_cols = {key: tuple(cs) for key, cs in rows}
    cols = {c: set() for c in columns}
    for key, cs in row_cols.items():
        for c in cs:
            cols[c].add(key)
    active = set(cols)
    solution = []

    def search():
        if not active:
            yield list(solution)
            return
        c = min(active, key=lambda x: (len(cols[x]), x))
        for key in sorted(cols[c]):
            budget.spend()
            covered = row_cols[key]
            removed = set().union(*(cols[x] for x in covered))
            for r in removed:
                for x in row_cols[r]:
                    cols[x].discard(r)
            active.difference_update(covered)
            solution.append(key)
            yield from search()
            solution.pop()
            active.update(covered)
            for r in removed:
                for x in row_cols[r]:
                    cols[x].add(r)

    return search()


# ===================================================================
# Fixer anchors by testing every combination
# ===================================================================


def reference_fat_prefixes(body: Graph, pool: Graph, t: int, demand: int, cap=40):
    """t-cliques of the body among its 30 vertices of highest pool
    degree, found by testing every t-subset in combinations order; the
    pool-degree cutoff falls from demand to demand - 2 to 0 until one
    is found."""
    pool_adj = pool.adjacency()
    body_adj = body.adjacency()
    for cutoff in (demand, demand - 2, 0):
        cands = sorted(
            (v for v in range(body.n) if len(pool_adj[v]) >= cutoff),
            key=lambda v: (-len(pool_adj[v]), v),
        )[:30]
        out = []
        for combo in combinations(cands, t):
            if all(y in body_adj[x] for x, y in combinations(combo, 2)):
                out.append(combo)
                if len(out) == cap:
                    break
        if out:
            return out
    return []


# ===================================================================
# Absorber diagnostics
# ===================================================================


def absorber_certificates_disjoint(bundle) -> bool:
    return not set(bundle.decomp_a.cliques) & set(bundle.decomp_la.cliques)


def absorber_nonroot_degrees(bundle) -> dict[int, int]:
    """Degrees in A of the non-root vertices incident to an A-edge."""
    roots = set(bundle.roots)
    deg: dict[int, int] = {}
    for u, v in bundle.a.edges:
        for w in (u, v):
            if w not in roots:
                deg[w] = deg.get(w, 0) + 1
    return deg


# ===================================================================
# Fractional boost, one Fraction update per gadget entry
# ===================================================================


def _solve_square(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Gauss-Jordan over rationals; None when singular."""
    n = len(a)
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def solved_edge_gadget(q: int, r: int) -> dict[tuple[int, ...], Fraction]:
    """The edge gadget on e = (0..r-1), J = (r..r+q-1) for any r <= q,
    by solving the load equations of all r-subsets (rows) in the
    weights of all q-subsets (columns): square, since C(q+r, r) =
    C(q+r, q), and nonsingular for r <= q."""
    cols = list(combinations(range(q + r), q))
    rows = list(combinations(range(q + r), r))
    a = [[Fraction(set(row) <= set(col)) for col in cols] for row in rows]
    b = [Fraction(row == tuple(range(r))) for row in rows]
    x = _solve_square(a, b)
    assert x is not None, f"gadget system (q={q}, r={r}) is singular"
    return dict(zip(cols, x))


def reference_gadget(q: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """The r=2 edge gadget on e = (0, 1), J = (2..q+1), in closed form.

    The gadget is unique, so it is invariant under the permutations
    fixing e and J: a q-set h gets x_k with k = |h & e|.  Unit load on
    e, zero load on the pairs {a, j} and {j, j'} (a in e; j, j' in J):
        C(q,2) x2 = 1
        (q-1) x1 + C(q-1,2) x2 = 0
        x0 + 2(q-2) x1 + C(q-2,2) x2 = 0
    """
    x2 = Fraction(1, math.comb(q, 2))
    x1 = -math.comb(q - 1, 2) * x2 / (q - 1)
    x0 = -2 * (q - 2) * x1 - math.comb(q - 2, 2) * x2
    x = (x0, x1, x2)
    return [(h, x[len(set(h) & {0, 1})]) for h in combinations(range(q + 2), q)]


def reference_boost(g: Graph, q: int, h_cliques, qset_cliques, phi, d):
    """(weights, in_range, max_deviation, c_range) of the boost, summed
    gadget entry by gadget entry in Fraction arithmetic."""
    d = Fraction(d)
    edges = g.sorted_edges()
    targets = {e: Fraction(phi[e] if isinstance(phi, dict) else phi) for e in edges}
    hset = {tuple(sorted(c)) for c in h_cliques}
    psi = {h: 1 / d for h in hset}
    h_at_edge = Counter(e for h in hset for e in combinations(h, 2))
    q_at_edge: dict = {}
    for qc in qset_cliques:
        qc = tuple(sorted(qc))
        for e in combinations(qc, 2):
            q_at_edge.setdefault(e, []).append(qc)
    gadget = reference_gadget(q)
    c_values = []
    for e in edges:
        at = q_at_edge[e]
        c_e = (d * targets[e] - h_at_edge[e]) / len(at)
        c_values.append(c_e)
        for qc in at:  # the gadget relabeled: e first, then J
            labels = e + tuple(v for v in qc if v not in e)
            for h, v in gadget:
                psi[tuple(sorted(labels[i] for i in h))] += c_e / d * v
    in_range = all(Fraction(1, 2) / d <= v <= Fraction(3, 2) / d for v in psi.values())
    max_dev = max((abs(d * v - 1) for v in psi.values()), default=Fraction(0))
    return psi, in_range, max_dev, (min(c_values), max(c_values))


def two_layer_boost(
    g: Graph, q: int, first: CliqueWeighting, h_cliques, qset_cliques, p, d
) -> BoostResult:
    """Finish a partial first layer into a full fractional decomposition.

    The first layer is scaled by 1/p (it was built on a p-fraction of
    its cliques); the residual targets 1 - first(e)/p are boosted over
    h_cliques and the layers are merged.  Residual targets must land
    in [0, 1].
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    targets = {}
    for e in g.sorted_edges():
        t = 1 - first.edge_load(*e) / p
        if not 0 <= t <= 1:
            raise ValueError(f"residual target {t} at edge {e} is outside [0, 1]")
        targets[e] = t
    res = boost(g, q, h_cliques, qset_cliques, targets, d)
    merged = dict(res.weighting.weights)
    for c, v in first.weights.items():
        merged[c] = merged.get(c, Fraction(0)) + v / p
    weighting = CliqueWeighting(q, merged)
    for e in g.sorted_edges():
        if weighting.edge_load(*e) != 1:
            raise AssertionError(f"two-layer identity failed at edge {e}")
    return BoostResult(weighting, res.in_range, res.max_deviation, res.c_range)


# ===================================================================
# The pairing model, rescanning the bad set after every switch
# ===================================================================


def reference_gnd(n: int, d: int, seed: int) -> Graph:
    """gnd's stub pairing and restarts around reference_repair, for n
    and d that gnd accepts."""
    rng = stream(seed, "gnd")
    for _ in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if reference_repair(pairs, rng):
            return Graph(n, pairs)
    raise RuntimeError(f"pairing model failed to produce a simple graph (n={n}, d={d})")


def reference_repair(pairs: list[tuple[int, int]], rng) -> bool:
    """Switch away loops and duplicates in place; False when stuck.

    Takes min(bad) every round and, after every accepted switch,
    rescans all of bad for pairs whose key is no longer duplicated.
    """

    def key(i):
        u, v = pairs[i]
        return (u, v) if u < v else (v, u)

    counts: dict[tuple[int, int], int] = {}
    bad: set[int] = set()
    for i, (u, v) in enumerate(pairs):
        if u == v:
            bad.add(i)
        else:
            counts[key(i)] = counts.get(key(i), 0) + 1
    for i in range(len(pairs)):
        if pairs[i][0] != pairs[i][1] and counts[key(i)] > 1:
            bad.add(i)

    budget = 200 * max(len(pairs), 1)
    while bad and budget:
        budget -= 1
        i = min(bad)
        j = rng.randrange(len(pairs))
        if j == i:
            continue
        u, v = pairs[i]
        a, b = pairs[j]
        # switch to (u, a), (v, b); requires both new pairs simple and fresh
        if u == a or v == b:
            continue
        new1 = (u, a) if u < a else (a, u)
        new2 = (v, b) if v < b else (b, v)
        if new1 == new2 or counts.get(new1, 0) or counts.get(new2, 0):
            continue
        # remove both old pairs from the counts, then re-add the new ones
        for idx in (i, j):
            u0, v0 = pairs[idx]
            if u0 != v0:
                counts[key(idx)] -= 1
        pairs[i] = (u, a)
        pairs[j] = (v, b)
        counts[new1] = counts.get(new1, 0) + 1
        counts[new2] = counts.get(new2, 0) + 1
        bad.discard(i)
        bad.discard(j)
        # a removed duplicate may have freed its twin
        stale = [t for t in bad if pairs[t][0] != pairs[t][1] and counts[key(t)] == 1]
        for t in stale:
            bad.discard(t)
    return not bad
