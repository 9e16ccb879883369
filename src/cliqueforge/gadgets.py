"""Divisibility gadgets and absorber constructions.

Everything here is built explicitly, with certificates (clique lists
that decompose the advertised unions) emitted by the constructors and
machine-verified before a bundle is returned.  The ledger of residues
that makes the gadgets work:

  anti-edge on a pair S: binom(q,2)-1 edges (= -1), root degrees q-2
  (= -1 mod q-1), internal degrees q-1 (= 0);
  fake edge on S: one anti-edge per pair of S u {hubs} except S itself,
  giving (binom(q,2)-1)^2 edges (= +1), root degrees (q-2)^2 (= +1),
  hub degrees (q-1)(q-2) (= 0).

The connecting pairs inside a fake edge are not edges of the gadget;
including them would break all three residues at once.
"""

from typing import Iterable, NamedTuple

from .graphs import Graph, Packing, _check_q, is_kq_divisible, union
from .solver import (
    BudgetExceeded,
    SolveBudget,
    enumerate_cliques,
    exact_cover_solutions,
    exact_decomposition,
    verify_absorber,
    verify_transformer,
)

__all__ = [
    "Gadget",
    "TransformerBundle",
    "AbsorberBundle",
    "NablaExpansion",
    "anti_edge",
    "fake_edge",
    "nabla",
    "nabla_expansion",
    "tilde_nabla",
    "star_transformer",
    "anti_clique_absorber",
    "nabla_absorber",
    "trivial_absorber",
    "OmniVerifyReport",
    "verify_omni_absorber",
    "OmniAbsorber",
    "naive_omni_absorber",
    "serialize_bundle",
    "load_bundle",
]


class _Fresh:
    """Monotone vertex id allocator."""

    __slots__ = ("next",)

    def __init__(self, start: int):
        self.next = start

    def take(self, k: int) -> tuple[int, ...]:
        ids = tuple(range(self.next, self.next + k))
        self.next += k
        return ids


def _clique_pairs(vs: Iterable[int]):
    vs = sorted(vs)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def _anti_edge_pairs(u: int, v: int, internals: tuple[int, ...]):
    """Edge set of K_q minus u-v on {u, v} u internals."""
    out = [p for p in _clique_pairs((u, v) + internals) if p != (min(u, v), max(u, v))]
    return out


# ===================================================================
# Basic gadgets
# ===================================================================


class Gadget(NamedTuple):
    """A rooted gadget graph with a kind tag."""

    kind: str
    q: int
    graph: Graph
    roots: tuple[int, ...]


def anti_edge(q: int) -> Gadget:
    """K_q minus one edge, rooted at the missing pair (vertices 0, 1)."""
    _check_q(q)
    internals = tuple(range(2, q))
    return Gadget("anti_edge", q, Graph(q, _anti_edge_pairs(0, 1, internals)), (0, 1))


def fake_edge(q: int) -> Gadget:
    """The nabla-expansion of the anti-edge: anti-edges on every pair of
    {roots} u {q-2 hubs} except the root pair.

    Rooted at vertices 0, 1; hubs are 2..q-1.  Edge, root-degree and
    hub-degree residues are +1, +1, 0, the exact opposite of deleting
    one edge at the roots.
    """
    return Gadget("fake_edge", q, nabla(q, anti_edge(q).graph), (0, 1))


# ===================================================================
# Nabla
# ===================================================================


class NablaExpansion(NamedTuple):
    """One anti-edge per base edge, all internals fresh and disjoint.

    anti maps each base edge to its ordered internal vertex tuple.  The
    union base u graph decomposes into one K_q per base edge (the edge
    plus its anti-edge), available as tilde_decomposition().
    """

    q: int
    base: Graph
    graph: Graph
    anti: dict[tuple[int, int], tuple[int, ...]]

    @property
    def full(self) -> Graph:
        return union(self.base, self.graph, expect_edge_disjoint=True)

    def tilde_decomposition(self) -> Packing:
        return Packing(
            self.q, [e + self.anti[e] for e in sorted(self.anti)]
        )


def nabla_expansion(q: int, base: Graph) -> NablaExpansion:
    """Replace every edge of base by an anti-edge on fresh internals.

    Internals are numbered from base.n up, q-2 per base edge in sorted
    edge order.  Every gadget and absorber layout is built from this.
    """
    _check_q(q)
    return _expand(q, base, _Fresh(base.n))


def _expand(q: int, base: Graph, fresh: _Fresh) -> NablaExpansion:
    """nabla_expansion drawing internals from a shared allocator, so
    several expansions can live on one vertex universe."""
    anti: dict[tuple[int, int], tuple[int, ...]] = {}
    edges: list[tuple[int, int]] = []
    for e in base.sorted_edges():
        ws = fresh.take(q - 2)
        anti[e] = ws
        edges.extend(_anti_edge_pairs(e[0], e[1], ws))
    return NablaExpansion(q, base, Graph(fresh.next, edges), anti)


def _carry(
    mapping: dict[int, int], ex: NablaExpansion, target: NablaExpansion
) -> dict[int, int]:
    """Extend mapping, defined on the ends of ex's base edges, to ex's
    internals: each base edge's internals go, in order, to those of its
    image's anti-edge in target.  Returns mapping."""
    for (u, v), ws in ex.anti.items():
        a, b = mapping[u], mapping[v]
        mapping.update(zip(ws, target.anti[(a, b) if a < b else (b, a)]))
    return mapping


def nabla(q: int, base: Graph) -> Graph:
    """The edge-by-edge anti-edge replacement of base (divisibility kept)."""
    return nabla_expansion(q, base).graph


def tilde_nabla(q: int, base: Graph) -> Graph:
    """base u nabla(base); decomposes into one K_q per base edge."""
    return nabla_expansion(q, base).full


# ===================================================================
# Star transformers
# ===================================================================


class TransformerBundle(NamedTuple):
    """A transformer T between two stars L, L' on shared root leaves.

    x is the center of L, x_prime the center of L'; leaf_roots are the
    q-1 shared leaves.  decomp_tl decomposes T u L, decomp_tl_prime
    decomposes T u L'.  internals lists the non-root vertices.
    """

    q: int
    k: int | None
    t: Graph
    l: Graph
    l_prime: Graph
    x: int
    x_prime: int
    leaf_roots: tuple[int, ...]
    internals: tuple[int, ...]
    decomp_tl: Packing
    decomp_tl_prime: Packing

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(sorted(self.leaf_roots + (self.x, self.x_prime)))


def _triangle_transformer(k: int) -> TransformerBundle:
    # path v_0..v_{k+1} with both star centers joined to the interior
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and at least 2, got {k}")
    x = k + 2
    xp = k + 3
    n = k + 4
    t_edges = [(i - 1, i) for i in range(1, k + 2)]
    t_edges += [(x, i) for i in range(1, k + 1)]
    t_edges += [(xp, i) for i in range(1, k + 1)]
    l = Graph(n, [(x, 0), (x, k + 1)])
    lp = Graph(n, [(xp, 0), (xp, k + 1)])

    def certs(a, b):
        # a plays the role of x in the L-side decomposition
        tri = [(a, 2 * i, 2 * i + 1) for i in range(k // 2 + 1)]
        tri += [(b, 2 * i - 1, 2 * i) for i in range(1, k // 2 + 1)]
        return Packing(3, tri)

    return TransformerBundle(
        q=3,
        k=k,
        t=Graph(n, t_edges),
        l=l,
        l_prime=lp,
        x=x,
        x_prime=xp,
        leaf_roots=(0, k + 1),
        internals=tuple(range(1, k + 1)),
        decomp_tl=certs(x, xp),
        decomp_tl_prime=certs(xp, x),
    )


def _grid_transformer(q: int) -> TransformerBundle:
    # (q-1) x (q-1) grid: first row holds the shared leaves, rows 2..q-1
    # and all columns are cliques, both centers join rows 2..q-1
    w = q - 1

    def vid(i, j):  # rows and columns 1-based
        return (i - 1) * w + (j - 1)

    x = w * w
    xp = w * w + 1
    n = w * w + 2
    t_edges: list[tuple[int, int]] = []
    for i in range(2, q):
        t_edges.extend(_clique_pairs([vid(i, j) for j in range(1, q)]))
    for j in range(1, q):
        t_edges.extend(_clique_pairs([vid(i, j) for i in range(1, q)]))
    for i in range(2, q):
        for j in range(1, q):
            t_edges.append((x, vid(i, j)))
            t_edges.append((xp, vid(i, j)))
    leaves = tuple(vid(1, j) for j in range(1, q))
    l = Graph(n, [(x, v) for v in leaves])
    lp = Graph(n, [(xp, v) for v in leaves])

    def certs(a, b):
        cols = [
            tuple(sorted([a] + [vid(i, j) for i in range(1, q)])) for j in range(1, q)
        ]
        rows = [
            tuple(sorted([b] + [vid(i, j) for j in range(1, q)])) for i in range(2, q)
        ]
        return Packing(q, cols + rows)

    return TransformerBundle(
        q=q,
        k=None,
        t=Graph(n, t_edges),
        l=l,
        l_prime=lp,
        x=x,
        x_prime=xp,
        leaf_roots=leaves,
        internals=tuple(vid(i, j) for i in range(2, q) for j in range(1, q)),
        decomp_tl=certs(x, xp),
        decomp_tl_prime=certs(xp, x),
    )


def star_transformer(q: int, k: int = 2) -> TransformerBundle:
    """Transformer between the stars K_{1,q-1} of two centers.

    For q = 3 the body is a path of k interior vertices (k even); the
    certificates alternate triangles between the centers.  For q >= 4
    the body is the row/column clique grid and the certificates are the
    columns with one center and the rows with the other; the grid has
    no length, so k must be 2 there.  Certificates are verified before
    returning.
    """
    if q >= 4 and k != 2:
        raise ValueError(f"k must be 2 at q >= 4, got {k}")
    bundle = _triangle_transformer(k) if q == 3 else _grid_transformer(q)
    problems = verify_transformer(bundle)
    if problems:
        raise AssertionError(f"transformer certificates failed: {problems[:3]}")
    return bundle


def _relabel_packing(p: Packing, mapping: dict[int, int]) -> list[tuple[int, ...]]:
    return [tuple(sorted(mapping[v] for v in c)) for c in p.cliques]


def _relabel_edges(edges, mapping):
    out = []
    for u, v in edges:
        a, b = mapping[u], mapping[v]
        out.append((a, b) if a < b else (b, a))
    return out


def _place_copy(mapping, fresh, nonroots, edges, certificates, edge_out, cert_outs):
    """Place one copy of a certified piece: mapping, given on the piece's
    roots, sends its nonroots, in ascending order, to fresh ids; the
    relabelled edges go to edge_out and each relabelled certificate to
    the matching list of cert_outs."""
    mapping.update(zip(nonroots, fresh.take(len(nonroots))))
    edge_out.extend(_relabel_edges(edges, mapping))
    for cert, out in zip(certificates, cert_outs):
        out.extend(_relabel_packing(cert, mapping))


# ===================================================================
# Absorbers
# ===================================================================


class AbsorberBundle(NamedTuple):
    """An absorber A for a divisible graph L, with both certificates.

    roots = support of L, independent in A.  decomp_a decomposes A and
    decomp_la decomposes L u A.
    """

    kind: str
    q: int
    l: Graph
    a: Graph
    roots: tuple[int, ...]
    decomp_a: Packing
    decomp_la: Packing


def _support(g: Graph) -> tuple[int, ...]:
    return tuple(sorted({v for e in g.edges for v in e}))


def _checked_bundle(bundle: AbsorberBundle) -> AbsorberBundle:
    problems = verify_absorber(bundle)
    if problems:
        raise AssertionError(f"absorber certificates failed: {problems[:3]}")
    return bundle


def trivial_absorber(l: Graph, q: int) -> AbsorberBundle:
    """The empty absorber, available exactly when L itself decomposes."""
    res = exact_decomposition(l, q)
    if res.status != "found":
        raise ValueError(
            f"no decomposition of L found (status {res.status}); "
            "the empty absorber requires one"
        )
    return _checked_bundle(
        AbsorberBundle(
            "trivial_absorber",
            q,
            l,
            Graph(l.n, []),
            _support(l),
            Packing(q, []),
            res.packing,
        )
    )


def anti_clique_absorber(q: int, k: int = 2) -> AbsorberBundle:
    """Absorber for L = nabla(K_q) built from a double expansion.

    Layer plan on one vertex universe: S1 = nabla(K_q) is L itself;
    S2 = nabla(S1) is the first absorber layer.  A disjoint primed copy
    S'_0 (a fresh K_q, edges kept) expands twice to S'_1, S'_2, with a
    structural bijection phi: V(S2) -> V(S'_2).  Every edge e of S2
    gets a fresh connector clique K_{q-2} joined to the ends of e and
    of phi(e).  Finally each vertex v of S2 splits its edges into
    groups of q-1, and each (group, connector index) pair receives a
    transformer copy between the stars of v and phi(v) on the matching
    connector vertices.  The two certificates walk the layers in
    opposite directions; both are verified before returning.
    """
    canonical = star_transformer(q, k)  # first, so a bad k fails fast
    base = Graph(q, _clique_pairs(range(q)))
    ex1 = nabla_expansion(q, base)  # S1 = L
    s1 = ex1.graph
    ex2 = nabla_expansion(q, s1)  # S2
    s2 = ex2.graph

    fresh = _Fresh(s2.n)
    # primed tower: a fresh K_q expanded twice on the same allocator; the
    # primed base is a monotone image of the unprimed one, so both towers
    # allocate internals in the same edge order
    p_base_ids = fresh.take(q)
    sp0 = Graph(fresh.next, _clique_pairs(p_base_ids))
    pex1 = _expand(q, sp0, fresh)
    pex2 = _expand(q, pex1.graph, fresh)
    # phi: V(S2) -> V(S'_2), a graph isomorphism by construction
    phi = _carry(_carry(dict(zip(range(q), p_base_ids)), ex1, pex1), ex2, pex2)

    # connectors: one fresh K_{q-2} per edge of S2, joined to both images
    connectors: dict[tuple[int, int], tuple[int, ...]] = {}
    a3_edges: list[tuple[int, int]] = []
    for e in s2.sorted_edges():
        qe = fresh.take(q - 2)
        connectors[e] = qe
        a3_edges.extend(_clique_pairs(qe))
        for end in (e[0], e[1], phi[e[0]], phi[e[1]]):
            a3_edges.extend((min(end, w), max(end, w)) for w in qe)

    # transformer copies
    groups: dict[int, list[list[tuple[int, int]]]] = {}
    adj_edges: dict[int, list[tuple[int, int]]] = {}
    for e in s2.sorted_edges():
        adj_edges.setdefault(e[0], []).append(e)
        adj_edges.setdefault(e[1], []).append(e)
    for v, es in sorted(adj_edges.items()):
        if len(es) % (q - 1):
            raise AssertionError(f"S2 degree at {v} not divisible by q-1")
        groups[v] = [es[i : i + q - 1] for i in range(0, len(es), q - 1)]

    a4_edges: list[tuple[int, int]] = []
    cert_unprimed: list[tuple[int, ...]] = []
    cert_primed: list[tuple[int, ...]] = []
    for v in sorted(groups):
        for group in groups[v]:
            for i in range(q - 2):
                mapping = {canonical.x: v, canonical.x_prime: phi[v]}
                for leaf, e in zip(canonical.leaf_roots, group):
                    mapping[leaf] = connectors[e][i]
                _place_copy(
                    mapping, fresh, canonical.internals, canonical.t.edges,
                    (canonical.decomp_tl, canonical.decomp_tl_prime),
                    a4_edges, (cert_unprimed, cert_primed),
                )

    n = fresh.next
    l = Graph(n, s1.edges)
    a = union(
        Graph(n, s2.edges),
        Graph(n, sp0.edges),
        Graph(n, pex1.graph.edges),
        Graph(n, pex2.graph.edges),
        Graph(n, a3_edges),
        Graph(n, a4_edges),
        expect_edge_disjoint=True,
    )

    decomp_la = Packing(
        q,
        list(ex2.tilde_decomposition().cliques)  # covers S1 (= L) and S2
        + list(pex1.tilde_decomposition().cliques)  # covers S'_0 and S'_1
        + [
            tuple(sorted(connectors[e] + (phi[e[0]], phi[e[1]])))
            for e in s2.sorted_edges()
        ]  # covers S'_2, connector internals, primed joins
        + cert_unprimed,  # covers transformer bodies and unprimed joins
    )
    decomp_a = Packing(
        q,
        [tuple(sorted(p_base_ids))]  # S'_0 as one clique
        + list(pex2.tilde_decomposition().cliques)  # covers S'_1 and S'_2
        + [
            tuple(sorted(connectors[e] + e))
            for e in s2.sorted_edges()
        ]  # covers S2, connector internals, unprimed joins
        + cert_primed,  # covers transformer bodies and primed joins
    )
    return _checked_bundle(
        AbsorberBundle(
            "anti_clique_absorber", q, l, a, _support(l), decomp_a, decomp_la
        )
    )


def nabla_absorber(
    l: Graph,
    booster: AbsorberBundle,
    base: AbsorberBundle | None = None,
) -> AbsorberBundle:
    """Absorber for any divisible L from a base absorber and a booster.

    The booster must be an absorber bundle for nabla(K_q) (the
    anti-clique absorber is one).  A' replaces every edge of L and of
    the base absorber A by an anti-edge, then roots one booster copy on
    the expansion of every clique of the base certificates.  Without a
    base, trivial_absorber(L, q) is the base: L itself must decompose
    and A is empty.
    """
    q = booster.q
    if not is_kq_divisible(l, q):
        raise ValueError("L is not divisible")
    if base is None:
        base = trivial_absorber(l, q)
    elif base.q != q:
        raise ValueError("base and booster disagree on q")
    elif base.l.edges != l.edges:
        raise ValueError("base absorber is not an absorber for this L")

    ex = nabla_expansion(q, union(l, base.a))
    fresh = _Fresh(ex.graph.n)

    # booster root layout: canonical nabla(K_q) vertices in a fixed order
    booster_base = Graph(q, _clique_pairs(range(q)))
    booster_ex = nabla_expansion(q, booster_base)
    if booster.l.edges != booster_ex.graph.edges:
        raise ValueError("booster is not an absorber for the canonical nabla(K_q)")
    booster_nonroots = [v for v in range(booster.a.n) if v not in booster.roots]

    copy_edges: list[tuple[int, int]] = []
    q1_cliques: list[tuple[int, ...]] = []
    q2_cliques: list[tuple[int, ...]] = []
    # copies over Q2 put their absorbed certificate into Q1' and their
    # plain one into Q2'; copies over Q1 do the reverse
    for grp, into in (
        (base.decomp_la, (q2_cliques, q1_cliques)),
        (base.decomp_a, (q1_cliques, q2_cliques)),
    ):
        for clique in sorted(grp.cliques):
            _place_copy(
                _carry(dict(zip(range(q), clique)), booster_ex, ex),
                fresh, booster_nonroots, booster.a.edges,
                (booster.decomp_a, booster.decomp_la), copy_edges, into,
            )

    n = fresh.next
    a_prime = union(
        Graph(n, ex.graph.edges), Graph(n, copy_edges), expect_edge_disjoint=True
    )
    tilde = [c for c in ex.tilde_decomposition().cliques if c[:2] in l.edges]
    return _checked_bundle(
        AbsorberBundle(
            "nabla_absorber",
            q,
            Graph(n, l.edges),
            a_prime,
            _support(l),
            Packing(q, q1_cliques),
            Packing(q, tilde + q2_cliques),
        )
    )


# ===================================================================
# Omni absorbers
# ===================================================================


class OmniVerifyReport(NamedTuple):
    """Outcome of checking the omni property subgraph by subgraph.

    failures lists divisible edge subsets refuted by exhausted search
    ("none"); unknown lists those where the budget ran out ("budget").
    refinement is the max number of decompositions any single edge
    appears in, over the successful checks.
    """

    ok: bool
    checked: int
    failures: list[tuple[tuple, str]]
    unknown: list[tuple[tuple, str]]
    refinement: int


def verify_omni_absorber(
    x: Graph,
    a: Graph,
    q: int,
    cap: int = 10,
    budget_nodes: int = 200_000,
) -> OmniVerifyReport:
    """Check that every divisible subgraph of X decomposes with A.

    Exhaustive over the 2^e(X) edge subsets, so e(X) is capped
    (default 10).  X and A must be edge-disjoint on one universe.
    """
    if x.m > cap:
        raise ValueError(f"e(X) = {x.m} exceeds the verification cap {cap}")
    if x.edges & a.edges:
        raise ValueError("X and A share edges")
    n = max(x.n, a.n)
    failures: list[tuple[tuple, str]] = []
    unknown: list[tuple[tuple, str]] = []
    checked = 0
    edge_uses: dict[tuple[int, int], int] = {}
    xedges = x.sorted_edges()
    for bits in range(1 << x.m):
        subset = tuple(xedges[i] for i in range(x.m) if bits >> i & 1)
        lg = Graph(n, subset)
        if not is_kq_divisible(lg, q):
            continue
        checked += 1
        res = exact_decomposition(
            union(lg, Graph(n, a.edges)), q, SolveBudget(max_nodes=budget_nodes)
        )
        if res.status == "found":
            for c in res.packing.cliques:
                for e in _clique_pairs(c):
                    edge_uses[e] = edge_uses.get(e, 0) + 1
        elif res.status == "none":
            failures.append((subset, "none"))
        else:
            unknown.append((subset, "budget"))
    refinement = max(edge_uses.values(), default=0)
    return OmniVerifyReport(
        not failures and not unknown, checked, failures, unknown, refinement
    )


class OmniAbsorber(NamedTuple):
    """Private-absorber union with a per-subgraph decomposition table.

    table maps each divisible edge subset L of X, the empty one first,
    to a decomposition of L u A.
    """

    q: int
    x: Graph
    a: Graph
    table: dict[frozenset, Packing]


# The bounded search of naive_omni_absorber: at most this many fresh
# vertices per private absorber, and this many exact-cover nodes per
# host size.
OMNI_MAX_FRESH = 6
OMNI_BUDGET_NODES = 2_000_000


def _private_absorber_search(lg: Graph, support):
    """Joint search for (A_L, D1, D2) over hosts with m fresh vertices.

    Exact cover formulation: per L-edge one primary column (covered by
    a D2 triangle); per host edge two primary columns, one for each
    side, covered either by one triangle per side (edge used by A_L)
    or together by a slack row (edge unused).  Solutions are exactly
    the pairs of decompositions agreeing on A_L = union(D1).
    """
    led = lg.sorted_edges()
    for m in range(1, OMNI_MAX_FRESH + 1):
        fresh_ids = tuple(range(lg.n, lg.n + m))
        n = lg.n + m
        host_pairs = [
            (a, b)
            for a, b in _clique_pairs(tuple(support) + fresh_ids)
            if not (a in support and b in support)
        ]
        host_set = set(host_pairs)
        full = Graph(n, list(lg.edges) + host_pairs)
        tris = enumerate_cliques(full, 3)
        cols: list = [("L", e) for e in led]
        for f in host_pairs:
            cols.append(("D1", f))
            cols.append(("D2", f))
        rows = []
        for t in tris:
            pairs = _clique_pairs(t)
            lpart = [p for p in pairs if p in lg.edges]
            hpart = [p for p in pairs if p in host_set]
            rows.append((("d2", t), [("L", p) for p in lpart] + [("D2", p) for p in hpart]))
            if not lpart:
                rows.append((("d1", t), [("D1", p) for p in hpart]))
        for f in host_pairs:
            rows.append((("skip", f), [("D1", f), ("D2", f)]))
        budget = SolveBudget(max_nodes=OMNI_BUDGET_NODES)
        try:
            for sol in exact_cover_solutions(cols, rows, budget):
                d1 = [key[1] for key in sol if key[0] == "d1"]
                d2 = [key[1] for key in sol if key[0] == "d2"]
                a_edges = sorted(
                    set().union(*(set(_clique_pairs(t)) for t in d2)) - lg.edges
                    if d2
                    else []
                )
                return Graph(n, a_edges), Packing(3, d1), Packing(3, d2)
        except BudgetExceeded:
            continue
    return None


def naive_omni_absorber(x: Graph) -> OmniAbsorber:
    """Vertex-disjoint private absorbers for every divisible L inside X.

    Bounded exact search over hosts K_m on the support of L plus m
    fresh vertices, m increasing; raises when the caps are exhausted
    (existence at some size is known, this search is just bounded).
    The search is for q = 3 only, and e(X) is capped at 6.
    """
    if x.m > 6:
        raise ValueError(f"e(X) = {x.m} exceeds the cap of 6")
    xedges = x.sorted_edges()
    # each private absorber's fresh vertices go past those already placed
    n = x.n
    placed: list[tuple[frozenset, Graph, Packing, Packing]] = []
    for bits in range(1, 1 << x.m):
        subset = tuple(xedges[i] for i in range(x.m) if bits >> i & 1)
        lg = Graph(x.n, subset)
        if not is_kq_divisible(lg, 3):
            continue
        support = set(_support(lg))
        found = _private_absorber_search(lg, support)
        if found is None:
            raise ValueError(
                f"no private absorber for a divisible subgraph with "
                f"{len(subset)} edges within {OMNI_MAX_FRESH} fresh vertices"
            )
        ag, d1, d2 = found
        mapping = {v: (v if v < x.n else v + n - x.n) for v in range(ag.n)}
        n += ag.n - x.n
        placed.append(
            (
                frozenset(subset),
                Graph(n, _relabel_edges(ag.edges, mapping)),
                Packing(3, _relabel_packing(d1, mapping)),
                Packing(3, _relabel_packing(d2, mapping)),
            )
        )
    a_total = Graph(n, [e for _, ag, _, _ in placed for e in ag.edges])
    # L u A decomposes as L's own piece by its certificate of L u A_L and
    # every other piece by its certificate of A_L alone
    table: dict[frozenset, Packing] = {}
    for subset in [frozenset()] + [key for key, _, _, _ in placed]:
        cliques: list[tuple[int, ...]] = []
        for key, _, d1, d2 in placed:
            cliques.extend(d2.cliques if key == subset else d1.cliques)
        table[subset] = Packing(3, cliques)
    return OmniAbsorber(3, x, a_total, table)


# ===================================================================
# Serialization
# ===================================================================


def _packing_json(p: Packing) -> list[list[int]]:
    return [list(c) for c in p.cliques]


def serialize_bundle(obj) -> tuple[Graph, dict]:
    """(main graph, sidecar dict) for a gadget or bundle."""
    if isinstance(obj, Gadget):
        return obj.graph, {
            "kind": obj.kind,
            "q": obj.q,
            "roots": list(obj.roots),
            "certificates": {},
        }
    if isinstance(obj, TransformerBundle):
        return obj.t, {
            "kind": "star_transformer",
            "q": obj.q,
            "k": obj.k,
            "roots": list(obj.roots),
            "x": obj.x,
            "x_prime": obj.x_prime,
            "leaf_roots": list(obj.leaf_roots),
            "internals": list(obj.internals),
            "certificates": {
                "l_edges": [list(e) for e in obj.l.sorted_edges()],
                "l_prime_edges": [list(e) for e in obj.l_prime.sorted_edges()],
                "decomp_tl": _packing_json(obj.decomp_tl),
                "decomp_tl_prime": _packing_json(obj.decomp_tl_prime),
            },
        }
    if isinstance(obj, AbsorberBundle):
        return obj.a, {
            "kind": obj.kind,
            "q": obj.q,
            "roots": list(obj.roots),
            "certificates": {
                "l_edges": [list(e) for e in obj.l.sorted_edges()],
                "decomp_a": _packing_json(obj.decomp_a),
                "decomp_la": _packing_json(obj.decomp_la),
            },
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_bundle(graph: Graph, sidecar: dict):
    """Rebuild a gadget or bundle from its graph and sidecar."""
    kind = sidecar["kind"]
    q = sidecar["q"]
    certs = sidecar.get("certificates", {})
    if kind in ("anti_edge", "fake_edge"):
        return Gadget(kind, q, graph, tuple(sidecar["roots"]))
    if kind == "star_transformer":
        return TransformerBundle(
            q=q,
            k=sidecar.get("k"),
            t=graph,
            l=Graph(graph.n, [tuple(e) for e in certs["l_edges"]]),
            l_prime=Graph(graph.n, [tuple(e) for e in certs["l_prime_edges"]]),
            x=sidecar["x"],
            x_prime=sidecar["x_prime"],
            leaf_roots=tuple(sidecar["leaf_roots"]),
            internals=tuple(sidecar["internals"]),
            decomp_tl=Packing(q, certs["decomp_tl"]),
            decomp_tl_prime=Packing(q, certs["decomp_tl_prime"]),
        )
    if kind in ("anti_clique_absorber", "nabla_absorber", "trivial_absorber"):
        return AbsorberBundle(
            kind,
            q,
            Graph(graph.n, [tuple(e) for e in certs["l_edges"]]),
            graph,
            tuple(sidecar["roots"]),
            Packing(q, certs["decomp_a"]),
            Packing(q, certs["decomp_la"]),
        )
    raise ValueError(f"unknown gadget kind {kind!r}")
