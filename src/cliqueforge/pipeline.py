"""The nibble, reserve and polish stages and the end-to-end pipeline.

The pipeline packs a sampled random graph in stages: embed a spanning
divisibility fixer (Hamilton path power plus fake-edge gadgets placed
in a dedicated slice) and apply it, or else fall back on the residue
burn, which at q >= 4 deletes edges until every degree is divisible by
q-1 and so fences them off from the greedy nibble, and at q = 3
deletes nothing; reserve an edge slice of the unfenced rest, pack the
remainder greedily through the design hypergraph, complete leftovers
through reserve cliques in one pass in edge-id order, then polish on
all of G: fill the packing to maximality and run Stinson's switch walk
on the leave for WALK_STEPS * e(G) steps, which may cover
fixer-deleted edges again.
Stage failures always degrade to a larger leave, never to an invalid
packing.  Inputs of at most EXACT_CUTOFF edges are solved exactly
instead, with the same report and validity check.

Accounting: stages fixer_deleted / nibble / reserve / absorbed plus
the reported leave partition e(G) exactly.  fixer_deleted counts the
fixer-deleted edges the polish left uncovered, and the polish's net
coverage falls into nibble.  absorbed is always 0: no pack stage
absorbs, and the key stays so the version-1 report keeps its shape.
The classical lower bound applies to all uncovered edges, deleted or
not, so the validity check is fixer_deleted + leave >=
optimal_leave_number(G).
"""

import itertools
import time
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .fixers import FixerBlueprint, EmbeddedFixer, apply_fixer
from .gadgets import anti_edge, nabla_expansion
from .graphs import (
    Graph,
    Packing,
    _spanning_subgraph,
    optimal_leave_number,
    verify_packing,
)
from .randgraphs import _below, gnd, gnp, slice_graph, stream
from .solver import CliqueIndex, enumerate_cliques, min_leave_packing

__all__ = [
    "design_hypergraph",
    "reserve_hypergraph",
    "random_greedy_matching",
    "ReserveMatchingResult",
    "matching_with_reserves",
    "PackReport",
    "pack_gnp",
    "pack_gnd",
    "bench",
    "EmbedFailure",
    "embed_fixer",
    "fix_by_deletion",
]

# Switch-walk steps per edge of G, spanning-path attempts and
# placement attempts per fake-edge gadget when embedding the fixer.
WALK_STEPS = 5
HAMILTON_TRIES = 60
GADGET_TRIES = 40
# Shares of the edges sliced off for the reserve and the gadget pool,
# and the edge count up to which a pack is solved exactly instead of
# staged.
RESERVE_FRAC = Fraction(1, 24)
GADGET_FRAC = Fraction(1, 4)
EXACT_CUTOFF = 30


# ===================================================================
# Hypergraphs over edge ids
# ===================================================================


def design_hypergraph(g: Graph, q: int) -> CliqueIndex:
    """The K_q-hypergraph of g: its q-cliques as edge-id tuples."""
    return CliqueIndex(g, q)


def reserve_hypergraph(index: CliqueIndex, zone, edges) -> dict[int, list[int]]:
    """For each A-edge e in edges, the reserve cliques on it: those in
    through[e] whose other edges all lie in B, ascending.

    zone holds a byte per edge id of index: 1 for A, 2 for B, 0 for
    neither.  Ascending ids are lexicographic order: for q = 3, the
    cliques on e come by ascending apex.  A zone byte is at most 2, so
    the other binom(q, 2) - 1 edges of t all lie in B exactly when
    their bytes sum to 2 (binom(q, 2) - 1), which is one C-level sum
    over t's edges less zone[e].
    """
    hedges, through, byte = index.hedges, index.through, zone.__getitem__
    full = 2 * (index.q * (index.q - 1) // 2 - 1)
    return {
        e: [t for t in through[e] if sum(map(byte, hedges[t])) - zone[e] == full]
        for e in edges
    }


def random_greedy_matching(index: CliqueIndex, rng, fence):
    """Uniform random greedy to maximality, off the fenced edge ids.

    Draws cliques uniformly from the remaining pool, which starts as the
    cliques with no fenced edge in id order (conflicted ones are
    discarded as drawn; they can never become valid again), so each
    accepted draw is uniform over the currently valid cliques.  A draw
    is rng.randrange(len(pool)), taken through randgraphs._below.
    Returns the chosen clique ids and the set of covered edge ids.
    """
    live = bytearray([1]) * len(index.hedges)
    for e in fence:
        for t in index.through[e]:
            live[t] = 0
    pool = list(itertools.compress(range(len(live)), live))
    used: set[int] = set()
    chosen: list[int] = []
    hedges = index.hedges
    below = _below(rng)
    while pool:
        i = below(len(pool))
        idx = pool[i]
        pool[i] = pool[-1]
        pool.pop()
        hedge = hedges[idx]
        if not used.isdisjoint(hedge):
            continue
        chosen.append(idx)
        used.update(hedge)
    return chosen, used


# ===================================================================
# Local search: greedy fill, then a switch walk on the leave
# ===================================================================

# owner[e] for an edge id e in no chosen clique
LEAVE = -1


def _fill_pass(h: CliqueIndex, owner: list[int]) -> int:
    """Take every clique whose edges are all leave, in id order, so the
    packing is maximal; returns the number of edges gained.

    Cliques are in lexicographic order, so grouping them by their first
    (least) edge id and visiting the leave edges in id order visits
    every candidate in id order.  An owner is LEAVE = -1 or a clique id
    >= 0, so a clique's edges are all leave exactly when their owners
    sum to -len(hedge).
    """
    hedges, through, own = h.hedges, h.through, owner.__getitem__
    gain = 0
    for e, o in enumerate(owner):
        if o != LEAVE:
            continue
        for t in through[e]:
            hedge = hedges[t]
            if hedge[0] == e and sum(map(own, hedge)) == -len(hedge):
                for x in hedge:
                    owner[x] = t
                gain += len(hedge)
    return gain


def _triangle(cliques, v: int, u: int, w: int) -> int:
    """Id of the triangle on v, u and w (u < w) in the lexicographic
    cliques of a q = 3 index, which must hold it."""
    return bisect_left(cliques, (v, u, w) if v < u else (u, v, w) if v < w else (u, w, v))


def _augment_pass(h: CliqueIndex, owner: list[int], rng, steps: int) -> int:
    """Stinson's switch walk on the leave for the given number of steps.

    A step draws a vertex v of leave degree at least 2 and an ordered
    pair of its leave edges vu, vw.  It stalls if uw is not an edge;
    otherwise it draws a clique t uniformly from those on u, v and w
    (for q = 3, the triangle uvw).  If every other edge of t is leave
    or lies in one chosen clique b, t is taken and b dropped.  That
    gains binom(q, 2) edges or none, so coverage never falls while the
    leave keeps moving.  Mutates owner; returns the number of edges
    gained.

    Every draw is the one rng.choice / rng.randrange would make, taken
    through randgraphs._below.  At q = 3 the triangle uvw is found by
    _triangle's bisect on the lexicographic cliques, with no draw; at
    q >= 4 the cliques on u, v and w are those of through[vu] that hold
    vw.

    nbrs[v] lists the leave edge ids at v; slot[2e] and slot[2e + 1]
    are the places of e in the lists of its lower and upper end, and
    ends[e] is the sum of its two ends, so its far end from v is
    ends[e] - v.  hot lists the vertices of leave degree >= 2, spot[v]
    the place of v in it; both lists change by append and swap-remove.
    """
    edges, hedges, through, ids = h.edges, h.hedges, h.through, h.edge_ids
    cliques, triangles = h.cliques, h.q == 3
    ends = [a + b for a, b in edges]
    n = 1 + max((b for _, b in edges), default=-1)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    slot = [0] * (2 * len(edges))
    hot: list[int] = []
    spot = [0] * n

    def put(v, s, e):
        """Append the leave edge e to nbrs[v], its place going to slot[s]."""
        at = nbrs[v]
        slot[s] = len(at)
        at.append(e)
        if len(at) == 2:
            spot[v] = len(hot)
            hot.append(v)

    def cut(v, i):
        """Swap-remove the leave edge at place i of nbrs[v]."""
        at = nbrs[v]
        last = at.pop()
        if i < len(at):
            at[i] = last
            slot[2 * last + (edges[last][1] == v)] = i
        if len(at) == 1:
            last = hot.pop()
            if last != v:
                hot[spot[v]] = last
                spot[last] = spot[v]

    for e, o in enumerate(owner):
        if o == LEAVE:
            a, b = edges[e]
            put(a, 2 * e, e)
            put(b, 2 * e + 1, e)
    below = _below(rng)
    gain = 0
    for _ in range(steps):
        if not hot:
            break
        v = hot[below(len(hot))]
        at = nbrs[v]
        k = len(at)
        i, j = divmod(below(k * (k - 1)), k - 1)
        if j >= i:
            j += 1
        e1, e2 = at[i], at[j]
        u = ends[e1] - v
        w = ends[e2] - v
        if u > w:
            u, w = w, u
        if (u, w) not in ids:
            continue
        if triangles:
            t = _triangle(cliques, v, u, w)
        else:
            ts = [t for t in through[e1] if e2 in hedges[t]]
            if not ts:
                continue
            t = ts[0] if len(ts) == 1 else ts[below(len(ts))]
        hedge = hedges[t]
        drop = LEAVE
        for x in hedge:
            o = owner[x]
            if o == LEAVE:
                continue
            if drop != LEAVE and drop != o:
                break
            drop = o
        else:
            for x in hedge:
                if owner[x] == LEAVE:
                    a, b = edges[x]
                    cut(a, slot[2 * x])
                    cut(b, slot[2 * x + 1])
                owner[x] = t
            if drop == LEAVE:
                gain += len(hedge)
            else:
                for x in hedges[drop]:
                    if owner[x] == drop:
                        owner[x] = LEAVE
                        a, b = edges[x]
                        put(a, 2 * x, x)
                        put(b, 2 * x + 1, x)
    return gain


def _polish(h: CliqueIndex, chosen: list[int], used: set, rng, steps: int) -> int:
    """Fill the packing to maximality, then walk the leave for steps.

    Mutates chosen (left in id order) and used; returns the number of
    edges gained.
    """
    owner = [LEAVE] * len(h.edges)
    for t in chosen:
        for x in h.hedges[t]:
            owner[x] = t
    gain = _fill_pass(h, owner) + _augment_pass(h, owner, rng, steps)
    chosen[:] = sorted({o for o in owner if o >= 0})
    used.clear()
    used.update(e for e, o in enumerate(owner) if o >= 0)
    return gain


# ===================================================================
# Nibble with reserves
# ===================================================================


class ReserveMatchingResult(NamedTuple):
    """The nibble and reserve clique ids, the stranded A-edge ids and the
    edge ids the packing covers, all in the ids of one clique index."""

    nibble_cliques: list[int]
    reserve_cliques: list[int]
    stranded: tuple[int, ...]
    used: set[int]

    @property
    def ok(self) -> bool:
        return not self.stranded


def matching_with_reserves(index: CliqueIndex, zone, rng) -> ReserveMatchingResult:
    """Nibble on the cliques inside A, then complete uncovered A-edges.

    zone marks A and B as reserve_hypergraph reads it; the nibble is a
    random greedy matching that fences every edge outside A.  Completion
    visits the uncovered A-edges once, in id order, and takes a clique
    drawn uniformly among that edge's reserve cliques still disjoint
    from the covered edges; an edge with none is stranded.  A reserve
    clique has one A-edge, so no pick covers another edge's target.
    Failure lists the stranded A-edges; the chosen cliques always form
    a valid partial packing.
    """
    fence = [e for e, z in enumerate(zone) if z != 1]
    chosen, used = random_greedy_matching(index, rng, fence)

    need = [e for e, z in enumerate(zone) if z == 1 and e not in used]
    reserves = reserve_hypergraph(index, zone, need)
    hedges = index.hedges
    reserve_chosen: list[int] = []
    stranded: list[int] = []
    for e in need:
        opts = [t for t in reserves[e] if used.isdisjoint(hedges[t])]
        if not opts:
            stranded.append(e)
            continue
        t = opts[rng.randrange(len(opts))]
        reserve_chosen.append(t)
        used.update(hedges[t])

    return ReserveMatchingResult(chosen, reserve_chosen, tuple(stranded), used)


# ===================================================================
# Fixer embedding
# ===================================================================


class EmbedFailure(Exception):
    pass


def _hamilton_path_power(g: Graph, power: int, rng, tries: int, prefix):
    """Spanning path that starts with prefix and whose i..i+power
    windows are cliques; None if no try reaches every vertex.

    The caller guarantees the prefix's own adjacency.  power 1 rotates
    when boxed in: it reverses the tail after a pivot, a neighbour of
    the last vertex at or after the prefix's end, so the prefix stays
    put; higher powers restart instead.
    """
    n = g.n
    adj = g.adjacency()
    keep = len(prefix)
    for _ in range(tries):
        path = list(prefix)
        inside = set(path)
        steps = 0
        while len(path) < n and steps < 6 * n:
            steps += 1
            back = path[-power:]
            cands = set(adj[back[-1]])
            for v in back[:-1]:
                cands &= adj[v]
            cands -= inside
            if cands:
                ordered = sorted(cands)
                nxt = ordered[rng.randrange(len(ordered))]
                path.append(nxt)
                inside.add(nxt)
            elif power == 1:
                pivots = [
                    u for u in sorted(adj[path[-1]] & inside)
                    if path.index(u) >= keep - 1
                ]
                if len(pivots) <= 1:
                    break
                u = pivots[rng.randrange(len(pivots))]
                i = path.index(u)
                path[i + 1 :] = reversed(path[i + 1 :])
            else:
                break
        if len(path) == n:
            return path
    return None


def _fat_prefixes(body: Graph, pool: Graph, t: int, demand: int, cap: int = 40):
    """t-cliques of the body whose vertices have pool degree >= demand.

    The fat-zone vertices each anchor (t-1)(q(q-1)-1) gadgets, so they
    must start with that many spare pool edges; candidates are taken in
    decreasing pool-degree order, and the first cap t-cliques among them
    are returned in itertools.combinations order (the lexicographic
    cliques of the candidates relabelled by position).
    """
    pool_adj = pool.adjacency()
    body_adj = body.adjacency()
    for cutoff in (demand, demand - 2, 0):
        cands = sorted(
            (v for v in range(body.n) if len(pool_adj[v]) >= cutoff),
            key=lambda v: (-len(pool_adj[v]), v),
        )[:30]
        at = {v: i for i, v in enumerate(cands)}
        sub = Graph(
            len(cands), [(at[v], at[w]) for v in cands for w in body_adj[v] if w in at]
        )
        out = [tuple(cands[i] for i in c) for c in enumerate_cliques(sub, t)[:cap]]
        if out:
            return out
    return []


def embed_fixer(
    g: Graph,
    q: int,
    rng,
    gadget_pool: Graph,
) -> EmbeddedFixer:
    """Place a spanning fixer: path power outside the pool, gadgets in it.

    The path power starts from a fat prefix, a t-clique of the body
    (t = max(3, q - 2)) whose vertices have many pool edges; there is
    no search from any other start.  Raises EmbedFailure when g has
    fewer than t vertices, when the pool has fewer edges than the
    gadgets take (each takes fake_edge(q).graph.m pool edges, disjoint
    from the others'), when no path power from a fat prefix spans the
    body, or when some fake-edge gadget cannot be placed edge-disjointly
    in the pool.
    """
    t = max(3, q - 2)
    if g.n < t:
        raise EmbedFailure(f"host has {g.n} vertices, the fat zone needs {t}")
    blueprint = FixerBlueprint(q, g.n)
    keys = blueprint.gadget_keys()
    # the fake edge is the nabla-expansion of the anti-edge; its anti
    # items, in order, are the layout every gadget is placed by
    gadget = nabla_expansion(q, anti_edge(q).graph)
    need = len(keys) * gadget.graph.m
    if gadget_pool.m < need:
        raise EmbedFailure(
            f"gadget pool has {gadget_pool.m} edges, {len(keys)} gadgets need {need}"
        )
    body = _spanning_subgraph(g, g.edges - gadget_pool.edges)
    demand = (t - 1) * (q * (q - 1) - 1) + 2
    prefixes = _fat_prefixes(body, gadget_pool, t, demand)
    per = max(4, HAMILTON_TRIES // max(1, len(prefixes)))
    for prefix in prefixes:
        order = _hamilton_path_power(body, q - 2, rng, per, prefix)
        if order is not None:
            break
    else:
        raise EmbedFailure("no spanning path power found")
    avail = {v: set(ws) for v, ws in gadget_pool.adjacency().items()}

    def take(x, y):
        avail[x].discard(y)
        avail[y].discard(x)

    def internals_for(x, y, count, banned):
        """count mutually adjacent common available neighbors of x and y."""
        commons = sorted((avail[x] & avail[y]) - banned)
        if count == 1:
            return commons[:1] or None
        for i, w1 in enumerate(commons):
            group = [w1]
            for w2 in commons[i + 1 :]:
                if all(w2 in avail[w] for w in group):
                    group.append(w2)
                    if len(group) == count:
                        return group
        return None

    maps: dict[tuple[int, int, int], dict[int, int]] = {}
    for key in keys:
        u, v, _ = key
        ru, rv = order[u], order[v]
        placed = None
        # a failed try gives back exactly the edges it took, so every try
        # draws its hubs from the same pool, and hubs that failed once
        # would fail again: they are still drawn, so the draws stay those
        # of a try each, but not tried; a pool short of q - 2 hubs gets
        # no try
        hub_pool = sorted(
            (w for w in range(g.n) if w not in (ru, rv) and len(avail[w]) >= q),
            key=lambda w: -len(avail[w]),
        )[: 6 * q]
        tries = GADGET_TRIES if len(hub_pool) >= q - 2 else 0
        tried: set[tuple[int, ...]] = set()
        for _ in range(tries):
            mp = {0: ru, 1: rv}
            hubs: list[int] = []
            while len(hubs) < q - 2:
                w = hub_pool[rng.randrange(len(hub_pool))]
                if w not in hubs:
                    hubs.append(w)
            if tuple(hubs) in tried:
                continue
            tried.add(tuple(hubs))
            mp.update(zip(range(2, q), hubs))
            banned = set(mp.values())
            taken_edges: list[tuple[int, int]] = []
            # one host anti-edge per gadget pair: common pool neighbours of
            # the pair's images become its internals, and every pair of its
            # vertices but the first (the gadget pair itself) is taken
            for (a, b), ws in gadget.anti.items():
                hs = internals_for(mp[a], mp[b], q - 2, banned)
                if hs is None:
                    break
                mp.update(zip(ws, hs))
                banned.update(hs)
                ends = (mp[a], mp[b], *hs)
                for x, y in itertools.islice(itertools.combinations(ends, 2), 1, None):
                    taken_edges.append((x, y))
                    take(x, y)
            else:
                placed = mp
                break
            for x, y in taken_edges:
                avail[x].add(y)
                avail[y].add(x)
        if placed is None:
            raise EmbedFailure(f"gadget {key} could not be placed in the pool")
        maps[key] = placed
    return EmbeddedFixer(blueprint, order, maps)


def fix_by_deletion(g: Graph, q: int, rng) -> tuple[Graph, list[tuple[int, int]]]:
    """The residue burn: the fallback fence when no fixer embeds.

    At q >= 4 it deletes one edge at a time, drawn among the edges
    joining two vertices whose degree is not divisible by q-1, else
    among the edges of one such vertex, until every degree is divisible
    or 6 e(G) steps have passed; the edge count stays where it falls.
    The caller fences the deleted edges off from the greedy nibble and
    the polish may cover them again.  At q = 3 it deletes nothing,
    because the polish walk would cover those edges again.
    """
    deleted: list[tuple[int, int]] = []
    adj = {v: set(ws) for v, ws in g.adjacency().items()}
    for _ in range(6 * g.m if q > 3 else 0):
        bad = [v for v in range(g.n) if len(adj[v]) % (q - 1)]
        if not bad:
            break
        badset = set(bad)
        pairs = [(u, w) for u in bad for w in sorted(adj[u]) if w in badset and u < w]
        if pairs:
            u, w = pairs[rng.randrange(len(pairs))]
        else:
            u = bad[rng.randrange(len(bad))]
            ws = sorted(adj[u])
            w = ws[rng.randrange(len(ws))]
        adj[u].discard(w)
        adj[w].discard(u)
        deleted.append((u, w) if u < w else (w, u))
    return _spanning_subgraph(g, g.edges.difference(deleted)), deleted


# ===================================================================
# Packing pipeline
# ===================================================================


class PackReport(NamedTuple):
    """Result of one pipeline run; to_json follows the stable schema."""

    n: int
    p: Fraction | None
    d: int | None
    q: int
    seed: int
    stages: dict[str, int]
    leave: int
    optimal_leave: int
    valid: bool
    ms: int
    packing: Packing
    fixer_mode: str
    deleted: tuple[tuple[int, int], ...]

    def to_json(self, include_ms: bool = True) -> dict:
        out = {
            "version": 1,
            "params": {
                "n": self.n,
                "p": None if self.p is None else str(Fraction(self.p)),
                "d": self.d,
                "q": self.q,
                "seed": self.seed,
            },
            "stages": dict(self.stages),
            "leave": self.leave,
            "optimal_leave": self.optimal_leave,
            "valid": self.valid,
        }
        if include_ms:
            out["ms"] = self.ms
        return out


def _pack(g: Graph, q: int, seed: int, p, d) -> PackReport:
    t0 = time.perf_counter()
    opt_bound = optimal_leave_number(g, q)
    stages = {"fixer_deleted": 0, "nibble": 0, "reserve": 0, "absorbed": 0}

    if g.m <= EXACT_CUTOFF:
        res = min_leave_packing(g, q)
        fixer_mode, deleted, packing, leave = "exact", [], res.packing, res.leave
        stages["nibble"] = g.m - leave
    else:
        # (ii) fixer: embed and apply it, or repair by deletion; the
        # nibble leaves the fenced edges (the fixer's, or the deleted
        # ones) alone
        gadget_pool, _ = slice_graph(g, GADGET_FRAC, seed ^ 0x67616467)
        rng_embed = stream(seed, "embed")
        try:
            emb = embed_fixer(g, q, rng_embed, gadget_pool)
        except EmbedFailure:
            fixer_mode, deleted = "deletion", fix_by_deletion(g, q, rng_embed)[1]
            fenced = frozenset(deleted)
        else:
            fixer_mode, deleted = "embedded", apply_fixer(g, emb).deleted
            fenced = frozenset(emb.realized_edges())

        # (iii) reserve slice from the unfenced part
        pool = _spanning_subgraph(g, g.edges - fenced)
        x_res, main = slice_graph(pool, RESERVE_FRAC, seed ^ 0x72657376)

        # (iv) + (v) nibble on the main slice A, completion through
        # reserve cliques; every stage from here on works on one clique
        # index of g, so ids pass between stages
        index = design_hypergraph(g, q)
        ids = index.edge_ids
        zone = bytearray(len(index.edges))
        for e in main.edges:
            zone[ids[e]] = 1
        for e in x_res.edges:
            zone[ids[e]] = 2
        match = matching_with_reserves(index, zone, stream(seed, "nibble"))
        chosen, used = match.nibble_cliques + match.reserve_cliques, match.used

        # (vi) polish on all of G, deleted edges included; only the
        # deleted edges the polish left uncovered count as deleted
        _polish(index, chosen, used, stream(seed, "walk"), WALK_STEPS * g.m)
        deleted = [e for e in deleted if ids[e] not in used]
        stages["fixer_deleted"] = len(deleted)
        per = q * (q - 1) // 2
        reserve_ids = set(match.reserve_cliques)
        stages["reserve"] = per * sum(1 for t in chosen if t in reserve_ids)
        stages["nibble"] = len(used) - stages["reserve"]
        packing = Packing(q, [index.cliques[t] for t in chosen])
        leave = g.m - len(deleted) - len(used)

    ms = int((time.perf_counter() - t0) * 1000)
    base = _spanning_subgraph(g, g.edges.difference(deleted)) if deleted else g
    rep = verify_packing(base, packing)
    valid = (
        rep.valid
        and rep.leave.m == leave
        and stages["fixer_deleted"] + leave >= opt_bound
        and sum(stages.values()) + leave == g.m
    )
    return PackReport(
        g.n, p, d, q, seed, stages, leave, opt_bound, valid, ms,
        packing, fixer_mode, tuple(deleted),
    )


def pack_gnp(n: int, p, q: int, seed: int) -> PackReport:
    """Sample G(n, p) and run the staged packing pipeline on it."""
    return _pack(gnp(n, p, seed), q, seed, Fraction(p), None)


def pack_gnd(n: int, d: int, q: int, seed: int) -> PackReport:
    """Sample a d-regular graph and run the staged packing pipeline."""
    return _pack(gnd(n, d, seed), q, seed, None, d)


# ===================================================================
# Benchmarks
# ===================================================================


def bench(
    kind: str,
    n: int,
    q: int,
    trials: int,
    master_seed: int,
    threads: int = 1,
    p=None,
    d=None,
) -> tuple[dict, list[PackReport]]:
    """Seed-split trials on a pool of threads; JSON is schedule-free.

    Per-trial wall times are deliberately left out of the JSON (they
    are the only schedule-dependent values); callers wanting timings
    read them off the returned reports.
    """
    if kind not in ("gnp", "gnd"):
        raise ValueError(f"kind must be gnp or gnd, got {kind!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    model = {"p": p, "d": d}
    name, other = ("p", "d") if kind == "gnp" else ("d", "p")
    if model[name] is None:
        raise ValueError(f"kind {kind} needs {name}")
    if model[other] is not None:
        raise ValueError(f"kind {kind} takes no {other}")
    seeds = [stream(master_seed, "trial", i).getrandbits(63) for i in range(trials)]

    def run(s):
        if kind == "gnp":
            return pack_gnp(n, p, q, s)
        return pack_gnd(n, d, q, s)

    # imported here, its only use: concurrent.futures loads logging, and
    # the two cost a few ms of every import of the package
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        reports = list(pool.map(run, seeds))

    leaves = [r.leave for r in reports]
    ratios = [
        Fraction(r.stages["fixer_deleted"] + r.leave, max(r.optimal_leave, 1))
        for r in reports
    ]
    doc = {
        "version": 1,
        "kind": kind,
        "params": {
            "n": n,
            "p": None if p is None else str(Fraction(p)),
            "d": d,
            "q": q,
            "seed": master_seed,
            "trials": trials,
        },
        "trials": [r.to_json(include_ms=False) for r in reports],
        "aggregate": {
            "leave_mean": str(Fraction(sum(leaves), max(len(leaves), 1))),
            "leave_min": min(leaves, default=0),
            "leave_max": max(leaves, default=0),
            "bound_ratio_min": str(min(ratios)) if ratios else None,
            "all_valid": all(r.valid for r in reports),
        },
    }
    return doc, reports
