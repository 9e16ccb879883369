"""Exact search: clique enumeration, decomposition, minimum leave."""

import gc
import inspect
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforge.gadgets import anti_clique_absorber
from cliqueforge.graphs import (
    Graph,
    is_kq_divisible,
    optimal_leave_number,
    union,
    verify_packing,
)
from cliqueforge.randgraphs import gnp
from cliqueforge.solver import (
    BudgetExceeded,
    CliqueIndex,
    SolveBudget,
    _ExactCover,
    enumerate_cliques,
    exact_cover_solutions,
    exact_decomposition,
    min_leave_packing,
)

from conftest import graphs
from oracles import (
    brute_cliques,
    brute_min_leave,
    complete_graph,
    cycle_graph,
    reference_exact_cover,
    reference_hedges,
)


# ===================================================================
# Enumeration
# ===================================================================


@given(graphs(8), st.integers(2, 6))
@settings(max_examples=120, deadline=None)
def test_enumerate_cliques_matches_oracle(g, q):
    got = enumerate_cliques(g, q)
    assert got == brute_cliques(g, q)
    assert got == sorted(got)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_enumerate_cliques_matches_oracle_on_dense_graphs(q, seed):
    g = gnp(14, Fraction(3, 5), seed)
    assert enumerate_cliques(g, q) == brute_cliques(g, q)


@given(graphs(10), st.integers(3, 5))
@settings(max_examples=60, deadline=None)
def test_enumeration_and_divisibility_leave_adjacency_unbuilt(g, q):
    fresh = Graph(g.n, g.edges)
    assert enumerate_cliques(fresh, q) == brute_cliques(g, q)
    is_kq_divisible(fresh, q)
    assert fresh._adj is None


def test_exact_decomposition_leaves_adjacency_unbuilt():
    b = anti_clique_absorber(3)
    host = union(b.l, b.a)
    assert exact_decomposition(host, 3).status == "found"
    assert host._adj is None


def test_enumerate_cliques_leaves_no_garbage_cycle():
    # its working sets must go on return, not at the next collection
    g = complete_graph(8)
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_cliques(g, 4)) == 70
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_cliques_counts_on_k6():
    g = complete_graph(6)
    assert len(enumerate_cliques(g, 3)) == 20
    assert len(enumerate_cliques(g, 4)) == 15
    assert len(enumerate_cliques(g, 6)) == 1
    with pytest.raises(ValueError):
        enumerate_cliques(g, 1)


def test_clique_index_edge_lookup():
    g = complete_graph(5)
    index = CliqueIndex(g, 3)
    assert len(index) == 10
    assert list(index.edges) == g.sorted_edges()
    assert all(index.edge_ids[e] == i for i, e in enumerate(index.edges))
    e01 = index.edge_ids[0, 1]
    through = index.through[e01]
    assert all(e01 in index.hedges[cid] for cid in through)
    assert len(through) == 3
    for c, hedge in zip(enumerate_cliques(g, 3), index.hedges):
        pairs = [(c[0], c[1]), (c[0], c[2]), (c[1], c[2])]
        assert [index.edges[e] for e in hedge] == pairs
    # through[e] lists every clique on e, ascending
    for e, ts in enumerate(index.through):
        assert ts == [t for t, hedge in enumerate(index.hedges) if e in hedge]


@given(graphs(8), st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=120, deadline=None)
def test_clique_index_hedges_match_the_pair_key_oracle(g, q):
    index = CliqueIndex(g, q)
    assert index.hedges == reference_hedges(enumerate_cliques(g, q), index.edge_ids)


@given(graphs(8), st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=120, deadline=None)
def test_clique_index_reads_each_clique_off_its_hedge(g, q):
    # the walk bisects hedges for a triangle's ascending edge ids, so
    # each hedge and the sequence of hedges must be strictly increasing
    index = CliqueIndex(g, q)
    assert [index.clique(t) for t in range(len(index))] == enumerate_cliques(g, q)
    hedges = index.hedges
    assert all(a < b for a, b in zip(hedges, hedges[1:]))
    assert all(list(hedge) == sorted(set(hedge)) for hedge in hedges)


def test_clique_index_holds_one_record_per_clique():
    # an edge-id tuple and three through entries come to about 170 bytes
    # a triangle; a second record per clique (a vertex tuple) takes 235
    g = gnp(160, Fraction(3, 10), 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = CliqueIndex(g, 3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 200 * len(index)


# ===================================================================
# Exact decomposition
# ===================================================================


def test_steiner_triple_system_on_k7():
    res = exact_decomposition(complete_graph(7), 3)
    assert res.status == "found"
    assert len(res.packing) == 7
    rep = verify_packing(complete_graph(7), res.packing)
    assert rep.valid and rep.leave.m == 0


def test_k9_triple_decomposition():
    res = exact_decomposition(complete_graph(9), 3)
    assert res.status == "found"
    assert len(res.packing) == 12


def test_k13_quadruple_decomposition():
    res = exact_decomposition(complete_graph(13), 4)
    assert res.status == "found"
    rep = verify_packing(complete_graph(13), res.packing)
    assert rep.valid and rep.leave.m == 0


def test_indivisible_graph_has_no_decomposition():
    assert exact_decomposition(complete_graph(4), 3).status == "none"


def test_divisible_but_undecomposable():
    # two disjoint triangles joined by a 3-edge matching: divisible
    # (m = 9, all degrees even) but triangle-free off the ends
    g = Graph(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    )
    res = exact_decomposition(g, 3)
    assert res.status == "none"


def test_empty_graph_decomposes_trivially():
    res = exact_decomposition(Graph(4, []), 3)
    assert res.status == "found" and len(res.packing) == 0


def test_deep_decomposition_does_not_hit_the_recursion_limit():
    # 1186 K4s: one search level per chosen clique, past Python's
    # default recursion limit of 1000
    b = anti_clique_absorber(4)
    g = union(b.l, b.a)
    res = exact_decomposition(g, 4)
    assert res.status == "found"
    assert len(res.packing) == g.m // 6 == 1186
    rep = verify_packing(g, res.packing)
    assert rep.valid and rep.leave.m == 0


def test_budget_exhaustion_reports_budget():
    res = exact_decomposition(complete_graph(15), 3, SolveBudget(max_nodes=3))
    assert res.status == "budget"
    assert res.packing is None
    assert res.nodes >= 3


# ===================================================================
# Minimum leave
# ===================================================================


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: complete_graph(4), 3),
        (lambda: complete_graph(5), 4),
        (lambda: complete_graph(6), 3),
        (lambda: complete_graph(7), 0),
        (lambda: cycle_graph(5), 5),
    ],
)
def test_min_leave_pinned_values(build, want):
    g = build()
    res = min_leave_packing(g, 3)
    assert res.status == "optimal"
    assert res.leave == want
    rep = verify_packing(g, res.packing)
    assert rep.valid and rep.leave.m == res.leave


@given(graphs(7))
@settings(max_examples=50, deadline=None)
def test_min_leave_matches_oracle(g):
    for q in (3, 4):
        res = min_leave_packing(g, q)
        assert res.status == "optimal"
        assert res.leave == brute_min_leave(g, q)
        assert res.leave >= optimal_leave_number(g, q)


def test_min_leave_respects_budget():
    res = min_leave_packing(complete_graph(9), 3, SolveBudget(max_nodes=2))
    assert res.status == "budget"
    # the greedy seed is still a valid packing
    assert verify_packing(complete_graph(9), res.packing).valid


def test_min_leave_search_depth_is_not_bounded_by_the_recursion_limit():
    # a path has no triangle, so the search leaves its 200 edges one
    # level at a time, twice as deep as the lowered limit allows
    g = Graph(201, [(i, i + 1) for i in range(200)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        res = min_leave_packing(g, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert res.status == "optimal"
    assert res.leave == 200


def test_exact_cover_generic_interface():
    # cover each of the columns 0..3 exactly once by rows
    rows = [
        ("a", (0, 1)),
        ("b", (2, 3)),
        ("c", (1, 2)),
        ("d", (0, 3)),
        ("e", (2,)),
    ]
    sols = list(exact_cover_solutions(range(4), rows, SolveBudget(max_nodes=10_000)))
    assert sorted(sorted(s) for s in sols) == [["a", "b"], ["c", "d"]]


def test_exact_cover_rejects_a_repeated_row_key():
    rows = [("a", (0, 1)), ("a", (2, 3)), ("b", (2, 3))]
    with pytest.raises(ValueError, match="duplicate row key 'a'"):
        list(exact_cover_solutions(range(4), rows, SolveBudget(max_nodes=1000)))


def test_exact_cover_rejects_an_unknown_column():
    rows = [("a", (0, 1)), ("b", (2, 5))]
    with pytest.raises(ValueError, match="row 'b' names unknown column 5"):
        list(exact_cover_solutions(range(4), rows, SolveBudget(max_nodes=1000)))


# ===================================================================
# Exact cover against the set-based oracle
# ===================================================================


def _drain(solutions, budget):
    """Every solution in order, how the search ended, and its node count."""
    sols = []
    try:
        for sol in solutions:
            sols.append(sol)
    except BudgetExceeded:
        return sols, "budget", budget.nodes
    return sols, "done", budget.nodes


def _first(solutions, budget):
    """exact_decomposition's reading of a search: its first solution."""
    try:
        for sol in solutions:
            return "found", sol, budget.nodes
    except BudgetExceeded:
        return "budget", None, budget.nodes
    return "none", None, budget.nodes


@st.composite
def cover_instances(draw):
    """Columns 0..k-1 in any order, rows under distinct keys (a row may
    name a column twice), and a node cap, often a small one."""
    k = draw(st.integers(0, 7))
    columns = draw(st.permutations(range(k)))
    cols = st.just([])
    if k:
        cols = st.lists(st.integers(0, k - 1), min_size=1, max_size=3)
    rows = draw(
        st.lists(
            st.tuples(st.text("abcdef", min_size=1, max_size=2), cols),
            max_size=16,
            unique_by=lambda row: row[0],
        )
    )
    return columns, rows, draw(st.none() | st.integers(0, 12))


@given(cover_instances())
@settings(max_examples=300, deadline=None)
def test_exact_cover_matches_the_set_based_oracle(instance):
    columns, rows, cap = instance
    got = SolveBudget(cap)
    want = SolveBudget(cap)
    assert _drain(exact_cover_solutions(columns, rows, got), got) == _drain(
        reference_exact_cover(columns, rows, want), want
    )


def _two_column_rows(only0, only1, both):
    """Rows on {0}, on {1} and on {0, 1}, keyed 0, 1, 2, ... with the
    three kinds interleaved in key order."""
    rows = []
    for i in range(max(only0, only1, both)):
        for n, cs in ((only0, (0,)), (only1, (1,)), (both, (0, 1))):
            if i < n:
                rows.append((len(rows), cs))
    return rows


@pytest.mark.parametrize(
    "only0, only1, both",
    [
        (300, 260, 10),  # both columns above the cap, the lower one fuller
        (240, 250, 20),  # column 1 drops below the cap and comes back
        (270, 270, 5),  # a tie above the cap goes to the lower column
    ],
)
def test_exact_cover_matches_the_oracle_above_the_count_cap(only0, only1, both):
    """Every uncovered column has more than 254 live rows, so the
    branching column comes from the exact counts, not the byte key."""
    rows = _two_column_rows(only0, only1, both)
    got, want = SolveBudget(2_000), SolveBudget(2_000)
    assert _drain(exact_cover_solutions(range(2), rows, got), got) == _drain(
        reference_exact_cover(range(2), rows, want), want
    )


def _cover_of(rows, k):
    """The solver's numbered columns and rows for (key, columns) rows
    listed in key order over the columns 0..k-1."""
    cols = [[r for r, (_, cs) in enumerate(rows) if c in cs] for c in range(k)]
    return cols, [list(cs) for _, cs in rows]


_K7 = CliqueIndex(complete_graph(7), 3)  # its 30 Steiner triple systems


@pytest.mark.parametrize(
    "cols, rows, solutions",
    [
        (*_cover_of(_two_column_rows(1, 1, 300), 2), 301),
        (_K7.through, _K7.hedges, 30),
    ],
)
def test_an_exhaustive_search_restores_counts_keys_and_live_rows(cols, rows, solutions):
    cover = _ExactCover(cols, rows)
    start = list(cover.count), bytes(cover.key), bytes(cover.live)
    assert start[1] == bytes(min(len(rs), 254) for rs in cols)
    assert sum(1 for _ in cover.solutions(SolveBudget())) == solutions
    assert (cover.count, bytes(cover.key), bytes(cover.live)) == start
    assert (cover.left, cover.solution) == (len(cols), [])


@st.composite
def clique_unions(draw):
    """Unions of a few cliques of q to q + 2 vertices, often divisible."""
    q = draw(st.integers(3, 4))
    n = draw(st.integers(q, 9))
    blocks = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=q, max_size=q + 2, unique=True),
            min_size=1,
            max_size=6,
        )
    )
    g = Graph(n, {p for b in blocks for p in combinations(sorted(b), 2)})
    return g, q, draw(st.none() | st.integers(0, 30))


@given(clique_unions())
@settings(max_examples=200, deadline=None)
def test_decomposition_search_matches_the_set_based_oracle(instance):
    """All exact covers of the edges by q-cliques, then the decomposition
    itself: the same cliques in the same order for the same nodes."""
    g, q, cap = instance
    cliques = brute_cliques(g, q)
    ids = {e: i for i, e in enumerate(g.sorted_edges())}
    rows = [(t, [ids[p] for p in combinations(c, 2)]) for t, c in enumerate(cliques)]
    got, want = SolveBudget(cap), SolveBudget(cap)
    expected = _drain(reference_exact_cover(range(g.m), rows, want), want)
    assert _drain(exact_cover_solutions(range(g.m), rows, got), got) == expected

    res = exact_decomposition(g, q, SolveBudget(cap))
    if not is_kq_divisible(g, q):
        assert (res.status, res.nodes) == ("none", 0)
        return
    want = SolveBudget(cap)
    status, sol, nodes = _first(reference_exact_cover(range(g.m), rows, want), want)
    assert (res.status, res.nodes) == (status, nodes)
    if sol is not None:
        assert list(res.packing.cliques) == [cliques[t] for t in sol]
