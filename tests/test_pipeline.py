"""Hypergraph arithmetic and the staged packing pipeline."""

import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliqueforge import graphs as graphs_module, pipeline, randgraphs, solver
from cliqueforge.fixers import FixerBlueprint, apply_fixer
from cliqueforge.gadgets import fake_edge
from cliqueforge.graphs import (
    Graph,
    Packing,
    is_kq_divisible,
    optimal_leave_number,
    verify_packing,
)
from cliqueforge.pipeline import (
    EmbedFailure,
    _fat_prefixes,
    _pack_triangles,
    _polish,
    bench,
    design_hypergraph,
    embed_fixer,
    fix_by_deletion,
    matching_with_reserves,
    pack_gnd,
    pack_gnp,
    random_greedy_matching,
    reserve_hypergraph,
)
from cliqueforge.randgraphs import gnp, slice_graph, stream
from cliqueforge.solver import enumerate_cliques

from oracles import (
    complete_graph,
    max_codegree,
    reference_fat_prefixes,
)


# ===================================================================
# Design hypergraphs
# ===================================================================


@pytest.mark.parametrize("n", range(5, 13))
def test_design_k3_regularity(n):
    h = design_hypergraph(complete_graph(n), 3)
    assert len(h) == math.comb(n, 3)
    assert all(len(ts) == n - 2 for ts in h.through)
    assert max_codegree(h.hedges) <= 1


@pytest.mark.parametrize("n", range(6, 13))
def test_design_k4_regularity(n):
    h = design_hypergraph(complete_graph(n), 4)
    assert all(len(ts) == math.comb(n - 2, 2) for ts in h.through)


def test_design_hyperedges_are_clique_edge_sets():
    g = gnp(12, Fraction(1, 2), 7)
    h = design_hypergraph(g, 3)
    cliques = enumerate_cliques(g, 3)
    assert len(h) == len(cliques)
    for c, hedge in zip(cliques, h.hedges):
        assert len(hedge) == 3
        pairs = [h.edges[e] for e in hedge]
        assert all(g.has_edge(u, v) for u, v in pairs)
        assert set(pairs) == {(c[0], c[1]), (c[0], c[2]), (c[1], c[2])}


def _zone(index, a, b):
    """The edge bytes reserve_hypergraph reads: 1 on A, 2 on B."""
    zone = bytearray(len(index.edges))
    for e in a:
        zone[index.edge_ids[e]] = 1
    for e in b:
        zone[index.edge_ids[e]] = 2
    return zone


def _reserves(index, a, b):
    """reserve_hypergraph on every A-edge, as {A-edge key: clique ids}."""
    ids = sorted(index.edge_ids[e] for e in a)
    got = reserve_hypergraph(index, _zone(index, a, b), ids)
    assert list(got) == ids
    return {index.edges[e]: ts for e, ts in got.items()}


def test_reserve_hypergraph_one_target_edge_each():
    # star reserves at the apex: wedges in B closed by an A edge
    n = 6
    b = {(i, n - 1) for i in range(n - 1)}
    a = {(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)}
    pool = design_hypergraph(complete_graph(n), 3)
    h = _reserves(pool, a, b)
    assert sum(map(len, h.values())) == math.comb(n - 1, 2)
    for e, ts in h.items():
        for t in ts:
            keys = [pool.edges[x] for x in pool.hedges[t]]
            assert [k for k in keys if k in a] == [e]
            assert sum(1 for k in keys if k in b) == 2


def test_reserve_hypergraph_drops_cliques_off_a_and_b():
    # K_6 with apex 5: B its star, A the edges among 0..4 except 01,
    # which is in neither slice, so the reserve clique 015 is gone
    n = 6
    b = {(i, n - 1) for i in range(n - 1)}
    a = {(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)} - {(0, 1)}
    pool = design_hypergraph(complete_graph(n), 3)
    h = _reserves(pool, a, b)
    assert [pool.clique(t) for e in sorted(a) for t in h[e]] == [
        (i, j, n - 1) for i, j in sorted(a)
    ]
    e01 = pool.edge_ids[0, 1]
    assert not any(e01 in pool.hedges[t] for ts in h.values() for t in ts)
    # with 01 back in A, the clique 015 is a reserve clique again
    h = _reserves(pool, a | {(0, 1)}, b)
    assert sum(map(len, h.values())) == math.comb(n - 1, 2)
    assert [pool.clique(t) for t in h[0, 1]] == [(0, 1, n - 1)]


def test_reserve_cliques_on_an_a_edge_come_in_apex_order():
    # the completion stage draws by position in these lists
    g = gnp(14, Fraction(3, 5), 2)
    b, a = slice_graph(g, Fraction(1, 3), 2)
    pool = design_hypergraph(g, 3)
    h = _reserves(pool, a.edges, b.edges)
    badj = b.adjacency()
    for e in sorted(a.edges):
        apexes = [next(v for v in pool.clique(t) if v not in e) for t in h[e]]
        assert apexes == sorted(badj[e[0]] & badj[e[1]])


def test_reserve_hypergraph_q4():
    g = complete_graph(7)
    b = {(i, 6) for i in range(6)}
    a = {e for e in g.edges if e not in b}
    pool = design_hypergraph(g, 4)
    # no K_4 has exactly one edge outside the apex star, or one inside it
    assert not any(_reserves(pool, a, b).values())
    assert not any(_reserves(pool, b, a).values())
    # a perfect matching of K_6: a K_4 holds exactly one matching edge
    # unless the two vertices it misses are matched (3 of 15)
    k6 = complete_graph(6)
    pool = design_hypergraph(k6, 4)
    matching = {(0, 1), (2, 3), (4, 5)}
    h = _reserves(pool, matching, k6.edges - matching)
    assert sum(map(len, h.values())) == 12
    for e, ts in h.items():
        for t in ts:
            assert [pool.edges[x] for x in pool.hedges[t] if pool.edges[x] in matching] == [e]


# ===================================================================
# Matchings
# ===================================================================


def _fenced(draw, g):
    """A random set of edges of g to fence (about a quarter of them)."""
    marks = draw(st.lists(st.integers(0, 3), min_size=g.m, max_size=g.m))
    return {e for e, k in zip(g.sorted_edges(), marks) if k == 3}


def test_random_greedy_matching_is_a_maximal_matching():
    h = design_hypergraph(complete_graph(9), 3)
    chosen, used = random_greedy_matching(h, stream(5, "greedy"), ())
    seen = set()
    for idx in chosen:
        assert not seen & set(h.hedges[idx])
        seen |= set(h.hedges[idx])
    assert used == seen
    # maximality: no hyperedge fits in the complement
    for hedge in h.hedges:
        assert any(e in used for e in hedge)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_random_greedy_matching_off_a_fence_draws_as_on_the_rest(data):
    # the pool is the unfenced cliques in id order, so the draws match
    # those on the host minus the fence
    g = gnp(12, Fraction(3, 5), data.draw(st.integers(0, 50)))
    fence = _fenced(data.draw, g)
    h = design_hypergraph(g, 3)
    sub = design_hypergraph(Graph(g.n, g.edges - fence), 3)
    seed = data.draw(st.integers(0, 50))
    chosen, used = random_greedy_matching(
        h, stream(seed, "greedy"), [h.edge_ids[e] for e in fence]
    )
    want, want_used = random_greedy_matching(sub, stream(seed, "greedy"), ())
    assert [h.clique(t) for t in chosen] == [sub.clique(t) for t in want]
    assert {h.edges[e] for e in used} == {sub.edges[e] for e in want_used}


@st.composite
def hosts(draw, min_n):
    """A host of min_n to 14 vertices, each pair an edge with one of the
    densities 1/2, 2/3 and 3/4."""
    n = draw(st.integers(min_n, 14))
    sparse = draw(st.sampled_from([2, 3, 4]))  # edge density 1 - 1/sparse
    pairs = list(combinations(range(n), 2))
    picks = draw(st.lists(
        st.integers(0, sparse - 1), min_size=len(pairs), max_size=len(pairs)
    ))
    return Graph(n, [e for e, k in zip(pairs, picks) if k])


@st.composite
def partial_packings(draw):
    """A host, its K_q index and a random partial packing (cliques drawn
    in random order, each kept or skipped)."""
    q = draw(st.sampled_from([3, 4]))
    h = design_hypergraph(draw(hosts(q)), q)
    order = draw(st.permutations(range(len(h))))
    keep = draw(st.lists(st.booleans(), min_size=len(h), max_size=len(h)))
    chosen: list[int] = []
    used: set[int] = set()
    for t, k in zip(order, keep):
        hedge = h.hedges[t]
        if k and used.isdisjoint(hedge):
            chosen.append(t)
            used.update(hedge)
    return h, chosen, used


@given(partial_packings(), st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_polish_walk_keeps_a_packing(instance, seed):
    h, chosen, used = instance
    covered = []
    for steps in (0, 1, 2, 5, 20, 80):
        c, u = list(chosen), set(used)
        gain = _polish(h, c, u, stream(seed, "walk"), steps)
        # the chosen ids are edge-disjoint cliques of the index, in id
        # order, covering exactly used
        assert c == sorted(set(c)) and all(0 <= t < len(h) for t in c)
        edges = [x for t in c for x in h.hedges[t]]
        assert len(edges) == len(set(edges)) and set(edges) == u
        assert gain == len(u) - len(used)
        if not steps:
            # the fill alone makes the packing maximal
            assert all(u.intersection(hedge) for hedge in h.hedges)
        # the same seed gives the same output
        again_c, again_u = list(chosen), set(used)
        _polish(h, again_c, again_u, stream(seed, "walk"), steps)
        assert (again_c, again_u) == (c, u)
        covered.append(len(u))
    # a longer walk repeats a shorter one's steps, so coverage never falls
    assert covered == sorted(covered)


@given(hosts(3), st.integers(0, 50))
@example(complete_graph(9), 0)
@settings(max_examples=200, deadline=None)
def test_triangle_walk_keeps_a_packing(g, seed):
    covered = []
    for steps in (0, 1, 5, 80):
        triangles = _pack_triangles(g, stream(seed, "walk"), steps)
        # edge-disjoint triangles of g, in lexicographic order
        assert triangles == sorted(set(triangles))
        assert all(len(t) == 3 and t[0] < t[1] < t[2] for t in triangles)
        edges = [e for t in triangles for e in combinations(t, 2)]
        assert len(edges) == len(set(edges)) and set(edges) <= g.edges
        if not steps:
            # the fill alone leaves no triangle of g wholly in the leave
            leave = g.edges - set(edges)
            assert not any(set(combinations(t, 2)) <= leave for t in enumerate_cliques(g, 3))
        # the same seed gives the same output
        assert _pack_triangles(g, stream(seed, "walk"), steps) == triangles
        covered.append(len(triangles))
    # a longer walk repeats a shorter one's steps, so coverage never falls
    assert covered == sorted(covered)


def test_matching_with_reserves_completes_the_star_instance():
    n = 7
    g = complete_graph(n)
    b = {(i, n - 1) for i in range(n - 1)}
    a = frozenset(g.edges - b)
    pool = design_hypergraph(g, 3)
    zone = _zone(pool, a, b)
    oks = 0
    for seed in range(6):
        res = matching_with_reserves(pool, zone, stream(seed, "mwr"))
        cliques = [pool.clique(t) for t in res.nibble_cliques + res.reserve_cliques]
        rep = verify_packing(g, Packing(3, cliques))
        assert rep.valid
        assert all(_pairs(pool.clique(t)) <= a for t in res.nibble_cliques)
        assert all(len(_pairs(pool.clique(t)) & a) == 1 for t in res.reserve_cliques)
        covered = {e for c in cliques for e in _pairs(c)}
        assert {pool.edges[e] for e in res.used} == covered
        assert (not res.stranded) == (covered & a == a)
        assert {pool.edges[e] for e in res.stranded} == a - covered
        oks += not res.stranded
    assert oks >= 1


@st.composite
def zoned_hosts(draw):
    """A host of at most 12 vertices, its K_q index and a zone byte per
    edge id: 1 for A, 2 for B, 0 for neither."""
    q = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(q, 12))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    h = design_hypergraph(Graph(n, [e for e, k in zip(pairs, keep) if k]), q)
    zones = draw(st.lists(
        st.sampled_from([0, 1, 2]), min_size=len(h.edges), max_size=len(h.edges)
    ))
    return h, bytearray(zones)


@given(zoned_hosts(), st.integers(0, 50))
@settings(max_examples=200, deadline=None)
def test_reserve_completion_is_maximal(instance, seed):
    h, zone = instance
    res = matching_with_reserves(h, zone, stream(seed, "mwr"))
    chosen = res.nibble_cliques + res.reserve_cliques
    edges = [x for t in chosen for x in h.hedges[t]]
    assert len(edges) == len(set(edges)) and set(edges) == res.used
    assert all(zone[x] == 1 for t in res.nibble_cliques for x in h.hedges[t])
    for t in res.reserve_cliques:
        assert sorted(zone[x] for x in h.hedges[t]) == [1] + [2] * (len(h.hedges[t]) - 1)
    uncovered = [e for e, z in enumerate(zone) if z == 1 and e not in res.used]
    assert res.stranded == tuple(uncovered)
    # no stranded edge has a reserve clique that is still free
    for e in res.stranded:
        for t in h.through[e]:
            hedge = h.hedges[t]
            if all(zone[x] == 2 for x in hedge if x != e):
                assert not res.used.isdisjoint(hedge)


def _pairs(c):
    return {(c[i], c[j]) for i in range(len(c)) for j in range(i + 1, len(c))}


# ===================================================================
# Fixer stage
# ===================================================================


def test_fix_by_deletion_leaves_divisible_remainders():
    # at q = 3 the walk covers deleted edges again, so nothing is deleted
    for seed in range(8):
        g = gnp(24, Fraction(1, 2), seed)
        rng = stream(seed, "fix")
        state = rng.getstate()
        fixed, deleted = fix_by_deletion(g, 3, rng)
        assert deleted == [] and fixed.edges == g.edges
        assert rng.getstate() == state


def test_fix_by_deletion_other_q():
    # the residue burn makes every degree divisible by q - 1; the edge
    # count is left as it falls
    g = gnp(30, Fraction(3, 5), 11)
    fixed, deleted = fix_by_deletion(g, 4, stream(11, "fix"))
    assert all(len(ws) % 3 == 0 for ws in fixed.adjacency().values())
    assert fixed.edges == g.edges - set(deleted)
    assert set(deleted) <= g.edges


def test_embed_fixer_then_apply_on_a_dense_host():
    g = gnp(40, Fraction(4, 5), 0)
    pool, _ = slice_graph(g, Fraction(1, 4), 0)
    emb = embed_fixer(g, 3, stream(0, "embed"), pool)
    assert emb.validate(g) == []
    res = apply_fixer(g, emb)
    assert is_kq_divisible(res.graph, 3)
    assert set(res.deleted) <= set(emb.realized_edges())


def test_embed_fixer_fails_loudly_on_sparse_hosts():
    g = gnp(30, Fraction(1, 10), 3)
    pool, _ = slice_graph(g, Fraction(1, 4), 3)
    with pytest.raises(EmbedFailure):
        embed_fixer(g, 3, stream(3, "embed"), pool)


def test_embed_fixer_refuses_a_body_with_no_spanning_path_power():
    # two disjoint K_20: the pool is large enough, but no path spans both
    g = Graph(40, [e for s in (0, 20) for e in combinations(range(s, s + 20), 2)])
    pool, _ = slice_graph(g, Fraction(1, 4), 0)
    assert pool.m == 101
    with pytest.raises(EmbedFailure, match="no spanning path power found"):
        embed_fixer(g, 3, stream(0, "embed"), pool)


@pytest.mark.parametrize("g, q, per", [
    (gnp(40, Fraction(4, 5), 0), 3, 4),
    # the q=4 fat zone anchors 33 gadgets of 25 edges on three roots,
    # so the host is complete and the body the square of a path
    (complete_graph(130), 4, 25),
])
def test_each_gadget_takes_fake_edge_many_pool_edges(g, q, per):
    # the pool-size check in embed_fixer counts on this: every gadget
    # takes exactly e(fake_edge(q)) pool edges, disjoint from the others'
    if q == 3:
        pool, _ = slice_graph(g, Fraction(1, 4), 0)
    else:
        pool = Graph(g.n, {(u, v) for u, v in g.edges if v - u > 2})
    emb = embed_fixer(g, q, stream(0, "embed"), pool)
    assert fake_edge(q).graph.m == per
    taken = [emb.gadget_edges(key) for key in emb.blueprint.gadget_keys()]
    assert all(len(set(es)) == per and set(es) <= pool.edges for es in taken)
    flat = [e for es in taken for e in es]
    assert len(flat) == len(set(flat)) == len(taken) * per


@pytest.mark.parametrize("n, p, q, seed", [
    (26, Fraction(2, 5), 3, 3),
    (16, Fraction(3, 4), 4, 3),
])
def test_embed_fixer_refuses_a_pool_too_small_for_its_gadgets(monkeypatch, n, p, q, seed):
    g = gnp(n, p, seed)
    pool, _ = slice_graph(g, Fraction(1, 4), seed)
    need = len(FixerBlueprint(q, n).gadget_keys()) * fake_edge(q).graph.m
    assert pool.m < need

    def no_search(*args):
        raise AssertionError("the path search ran")

    monkeypatch.setattr(pipeline, "_fat_prefixes", no_search)
    monkeypatch.setattr(pipeline, "_hamilton_path_power", no_search)
    rng = stream(seed, "embed")
    state = rng.getstate()
    with pytest.raises(EmbedFailure, match=f"has {pool.m} edges, .* need {need}"):
        embed_fixer(g, q, rng, pool)
    assert rng.getstate() == state


@given(
    st.integers(3, 40),
    st.fractions(Fraction(1, 5), Fraction(1), max_denominator=20),
    st.integers(0, 10_000),
    st.integers(2, 4),
    st.integers(0, 16),
    st.sampled_from([1, 3, 40]),
)
@settings(max_examples=80, deadline=None)
def test_fat_prefixes_match_the_combinations_oracle(n, p, seed, t, demand, cap):
    """The body cliques the fixer may start from: the same list, in
    itertools.combinations order, as testing every t-subset."""
    g = gnp(n, p, seed)
    pool, body = slice_graph(g, Fraction(1, 3), seed)
    assert _fat_prefixes(body, pool, t, demand, cap) == reference_fat_prefixes(
        body, pool, t, demand, cap
    )


# ===================================================================
# Pipeline reports
# ===================================================================


def check_report(rep, g):
    assert sum(rep.stages.values()) + rep.leave == g.m
    assert rep.stages["fixer_deleted"] + rep.leave >= optimal_leave_number(g, rep.q)
    host = Graph(g.n, g.edges - set(rep.deleted))
    inner = verify_packing(host, rep.packing)
    assert inner.valid and inner.leave.m == rep.leave
    assert rep.valid


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pack_gnp_report_accounting(seed):
    rep = pack_gnp(40, Fraction(2, 5), 3, seed)
    check_report(rep, gnp(40, Fraction(2, 5), seed))


# the pack stages the benchmark tracer times, as pipeline looks them up
PACK_STAGES = (
    "embed_fixer", "fix_by_deletion", "design_hypergraph", "reserve_hypergraph",
    "random_greedy_matching", "matching_with_reserves", "apply_fixer",
    "_polish", "_fill_pass", "_augment_pass",
)


def _count_calls(monkeypatch, patched):
    """Rebind each (module, name) to a wrapper that logs name per call;
    returns the log."""
    calls = []
    for module, name in patched:
        f = getattr(module, name)

        def counted(*args, f=f, name=name):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


# Only q >= 4 packs take the staged path, and none of them has been seen
# to embed its fixer (0 of 12 at gnp(60, 303/500), none at gnd(40, 21)
# or gnd(64, 27)), so the staged-path tests below have no "embedded"
# sample.
@pytest.mark.parametrize("mode, sample", [
    ("deletion", lambda: pack_gnp(16, Fraction(3, 4), 4, 1)),
])
def test_a_pack_enumerates_the_cliques_of_g_once(monkeypatch, mode, sample):
    # the nibble, reserve completion and global polish share one index,
    # so neither entry point runs twice; every traced stage runs once,
    # except the repair of the other fixer mode, which does not run
    patched = [(pipeline, name) for name in PACK_STAGES] + [(solver, "enumerate_cliques")]
    calls = _count_calls(monkeypatch, patched)
    rep = sample()
    assert rep.fixer_mode == mode and rep.valid
    idle = "fix_by_deletion" if mode == "embedded" else "apply_fixer"
    want = {name: 1 for _, name in patched if name != idle}
    assert Counter(calls) == want


def test_a_triangle_pack_runs_on_edge_ids_alone(monkeypatch):
    # above EXACT_CUTOFF a q = 3 pack slices nothing, builds no clique
    # index and runs no fixer, reserve or polish stage
    patched = [(pipeline, name) for name in PACK_STAGES + ("slice_graph", "CliqueIndex")]
    patched += [(randgraphs, "slice_graph"), (solver, "enumerate_cliques"),
                (solver, "CliqueIndex")]
    calls = _count_calls(monkeypatch, patched)
    for g, rep in (
        (gnp(60, Fraction(3, 10), 2), pack_gnp(60, Fraction(3, 10), 3, 2)),
        (randgraphs.gnd(60, 12, 3), pack_gnd(60, 12, 3, 3)),
    ):
        assert g.m > pipeline.EXACT_CUTOFF
        assert rep.fixer_mode == "none" and rep.valid and rep.deleted == ()
        assert rep.stages == {
            "fixer_deleted": 0, "nibble": g.m - rep.leave, "reserve": 0, "absorbed": 0,
        }
    assert calls == []


@pytest.mark.parametrize("mode, sample, sites", [
    ("deletion", lambda: pack_gnp(16, Fraction(3, 4), 4, 1),
     {"slice_graph", "fix_by_deletion", "_pack", "verify_packing"}),
])
def test_derived_graphs_equal_graphs_built_on_their_edges(monkeypatch, mode, sample, sites):
    """Graphs a pack derives from a validated graph skip re-validation;
    each still equals the graph built and checked on its edges."""
    derived = []
    spanning = graphs_module._spanning_subgraph

    def recorded(g, edges):
        h = spanning(g, edges)
        derived.append((sys._getframe(1).f_code.co_name, g, h))
        return h

    for module in (graphs_module, randgraphs, pipeline):
        monkeypatch.setattr(module, "_spanning_subgraph", recorded)
    rep = sample()
    assert rep.fixer_mode == mode and rep.valid
    assert {site for site, _, _ in derived} == sites
    for _, g, h in derived:
        built = Graph(h.n, h.edges)
        assert h == built and h.n == g.n and h.edges <= g.edges
        assert isinstance(h.edges, frozenset)
        assert h.adjacency() == built.adjacency()


def test_a_host_smaller_than_the_fat_zone_falls_back_to_deletion():
    # at q = 12 the fat zone takes 10 vertices, one more than K_9 has
    k9 = complete_graph(9)
    with pytest.raises(EmbedFailure, match="host has 9 vertices"):
        embed_fixer(k9, 12, stream(0, "embed"), k9)
    rep = pack_gnp(9, 1, 12, 0)
    assert rep.fixer_mode == "deletion"
    assert rep.stages["fixer_deleted"] == 36 and rep.leave == 0
    assert rep.valid


def test_pack_gnp_exact_cutoff_path():
    g = gnp(8, Fraction(1, 2), 5)
    assert g.m <= pipeline.EXACT_CUTOFF
    rep = pack_gnp(8, Fraction(1, 2), 3, 5)
    assert rep.fixer_mode == "exact"
    assert rep.leave >= rep.optimal_leave
    assert rep.valid


def test_exact_cutoff_path_recounts_the_leave(monkeypatch):
    # a search result whose leave disagrees with its packing is invalid
    def miscounted(g, q):
        res = solver.min_leave_packing(g, q)
        return res._replace(leave=res.leave + 1)

    monkeypatch.setattr(pipeline, "min_leave_packing", miscounted)
    rep = pack_gnp(8, Fraction(1, 2), 3, 5)
    assert rep.fixer_mode == "exact"
    assert rep.valid is False


def test_pack_gnd_report_accounting():
    rep = pack_gnd(24, 9, 3, 7)
    assert rep.d == 9 and rep.p is None
    assert sum(rep.stages.values()) + rep.leave == 24 * 9 // 2
    assert rep.valid


def test_pack_is_deterministic():
    a = pack_gnp(30, Fraction(2, 5), 3, 9)
    b = pack_gnp(30, Fraction(2, 5), 3, 9)
    assert a.to_json() == b.to_json() or (
        a.to_json(include_ms=False) == b.to_json(include_ms=False)
    )


def test_pack_report_json_schema():
    rep = pack_gnp(20, Fraction(1, 2), 3, 4)
    doc = rep.to_json()
    assert set(doc) == {
        "version", "params", "stages", "leave", "optimal_leave", "valid", "ms",
    }
    assert doc["params"]["p"] == "1/2"
    assert "ms" not in rep.to_json(include_ms=False)
    assert json.dumps(doc, sort_keys=True)  # JSON-serializable throughout


# ===================================================================
# Bench
# ===================================================================


def test_bench_json_identical_across_threads():
    docs = []
    for threads in (1, 2, 4):
        doc, reports = bench(
            "gnp", 30, 3, trials=3, master_seed=42, threads=threads, p=Fraction(2, 5)
        )
        docs.append(json.dumps(doc, indent=2, sort_keys=True))
        assert all(r.valid for r in reports)
    assert docs[0] == docs[1] == docs[2]


def test_bench_document_shape():
    doc, reports = bench("gnd", 18, 3, trials=2, master_seed=7, d=8)
    assert doc["kind"] == "gnd"
    assert doc["params"]["trials"] == 2
    assert len(doc["trials"]) == 2
    assert all("ms" not in t for t in doc["trials"])
    agg = doc["aggregate"]
    assert agg["leave_min"] <= agg["leave_max"]
    assert agg["all_valid"] == all(r.valid for r in reports)
    with pytest.raises(ValueError):
        bench("other", 10, 3, trials=1, master_seed=0)


@pytest.mark.parametrize("kind, name", [("gnp", "p"), ("gnd", "d")])
def test_bench_refuses_a_missing_model_parameter(kind, name):
    with pytest.raises(ValueError, match=f"kind {kind} needs {name}"):
        bench(kind, 20, 3, 2, 1)


@pytest.mark.parametrize("kind, other", [("gnp", "d"), ("gnd", "p")])
def test_bench_refuses_the_other_models_parameter(kind, other):
    with pytest.raises(ValueError, match=f"kind {kind} takes no {other}"):
        bench(kind, 20, 3, 2, 1, p=Fraction(1, 2), d=4)


@pytest.mark.parametrize("threads", [0, -3])
def test_bench_refuses_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be positive"):
        bench("gnp", 10, 3, trials=1, master_seed=0, threads=threads, p=Fraction(1, 2))
