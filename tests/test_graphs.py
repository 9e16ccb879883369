"""Graph containers, divisibility arithmetic, packings, text formats."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforge.graphs import (
    Graph,
    Packing,
    edge_key,
    is_kq_divisible,
    optimal_leave_number,
    parse_graph,
    parse_packing,
    serialize_graph,
    serialize_packing,
    subtract,
    union,
    verify_packing,
)

from conftest import graphs
from oracles import (
    brute_leave_bound,
    brute_min_leave,
    complete_graph,
    cycle_graph,
    residues,
)


# ===================================================================
# Containers
# ===================================================================


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


@pytest.mark.parametrize(
    "edge, error, match",
    [
        ((1, 1), ValueError, "loop at vertex 1"),
        ([2, 2], ValueError, "loop at vertex 2"),
        ((0, 3), ValueError, r"edge \(0, 3\) out of range for n=3"),
        ((3, 0), ValueError, r"edge \(0, 3\) out of range for n=3"),
        ((-1, 2), ValueError, r"edge \(-1, 2\) out of range"),
        ([1, 5], ValueError, r"edge \(1, 5\) out of range"),
        ((0, 1, 2), ValueError, "unpack"),
        ((0,), ValueError, "unpack"),
        (7, TypeError, "cannot unpack"),
    ],
)
def test_graph_validates_every_edge_however_it_is_given(edge, error, match):
    """Sorted tuples are stored as given, yet each is still checked."""
    with pytest.raises(error, match=match):
        Graph(3, [(0, 1), edge])


def test_graph_stores_edges_as_sorted_tuples():
    g = Graph(4, [[3, 1], (2, 0), [0, 3], (1, 2)])
    assert g.sorted_edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert all(type(e) is tuple for e in g.edges)


def test_graph_dedups_and_sorts():
    g = Graph(4, [(2, 0), (0, 2), (1, 3)])
    assert g.m == 2
    assert g.sorted_edges() == [(0, 2), (1, 3)]
    assert g.has_edge(2, 0) and not g.has_edge(0, 1)


def test_isolated_vertices_carry_degree_zero():
    g = Graph(5, [(0, 1)])
    assert g.degrees() == [1, 1, 0, 0, 0]


@given(graphs(10))
@settings(max_examples=100, deadline=None)
def test_degrees_with_and_without_cached_adjacency(g):
    fresh = Graph(g.n, g.edges)
    counted = fresh.degrees()
    assert fresh._adj is None
    adj = fresh.adjacency()
    assert counted == [len(adj[v]) for v in range(g.n)] == fresh.degrees()


def test_edge_key_orders_and_rejects_loop():
    assert edge_key(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        edge_key(4, 4)


def test_union_and_subtract():
    a = Graph(3, [(0, 1)])
    b = Graph(4, [(1, 2), (0, 1)])
    assert union(a, b).edges == {(0, 1), (1, 2)}
    assert union(a, b).n == 4
    with pytest.raises(ValueError):
        union(a, b, expect_edge_disjoint=True)
    assert subtract(b, [(2, 1)]).edges == {(0, 1)}


# ===================================================================
# Divisibility and the leave bound
# ===================================================================


def test_residue_profile_k4_q3():
    g = complete_graph(4)
    assert residues(g, 3) == (0, [1, 1, 1, 1])
    assert not is_kq_divisible(g, 3)


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("check", [is_kq_divisible, optimal_leave_number])
def test_divisibility_refuses_q_below_3(check, q):
    with pytest.raises(ValueError) as exc:
        check(complete_graph(4), q)
    assert str(exc.value) == f"q must be at least 3, got {q}"


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_complete_graph_divisibility(q):
    # for K_n both conditions reduce to binomial arithmetic
    for n in range(1, 2 * q * (q - 1) + 2):
        want = (n - 1) % (q - 1) == 0 and math.comb(n, 2) % math.comb(q, 2) == 0
        assert is_kq_divisible(complete_graph(n), q) == want
    # the two Steiner-adjacent families as spot checks
    assert is_kq_divisible(complete_graph(7), 3)
    assert is_kq_divisible(complete_graph(13), 4)


@given(graphs(8), st.integers(3, 6))
@settings(max_examples=150, deadline=None)
def test_leave_bound_matches_scan_oracle(g, q):
    assert optimal_leave_number(g, q) == brute_leave_bound(g, q)


@given(graphs(8), st.integers(3, 5))
@settings(max_examples=100, deadline=None)
def test_leave_bound_congruence_and_zero_iff_divisible(g, q):
    k = optimal_leave_number(g, q)
    assert k % math.comb(q, 2) == g.m % math.comb(q, 2)
    assert (k == 0) == is_kq_divisible(g, q)


@pytest.mark.parametrize(
    "build, q, want",
    [
        (lambda: complete_graph(4), 3, 3),
        (lambda: complete_graph(5), 3, 1),
        (lambda: complete_graph(6), 3, 3),
        (lambda: complete_graph(7), 3, 0),
        (lambda: cycle_graph(5), 3, 2),
        (lambda: complete_graph(6), 4, 9),
    ],
)
def test_leave_bound_pinned_values(build, q, want):
    assert optimal_leave_number(build(), q) == want


@given(graphs(7))
@settings(max_examples=60, deadline=None)
def test_leave_bound_below_true_min_leave(g):
    # the congruence bound never exceeds the exact minimum leave
    assert optimal_leave_number(g, 3) <= brute_min_leave(g, 3)


# ===================================================================
# Packings
# ===================================================================


def test_packing_validates_clique_shape():
    with pytest.raises(ValueError):
        Packing(3, [(0, 1)])
    with pytest.raises(ValueError):
        Packing(3, [(0, 1, 1)])
    p = Packing(3, [(2, 0, 1)])
    assert p.cliques == ((0, 1, 2),)


def test_packing_equality_ignores_order():
    assert Packing(3, [(0, 1, 2), (3, 4, 5)]) == Packing(3, [(3, 4, 5), (0, 1, 2)])


def test_verify_packing_clean_decomposition():
    g = complete_graph(4)
    g = union(g, Graph(7, [(4, 5), (5, 6), (4, 6)]))
    rep = verify_packing(g, Packing(3, [(4, 5, 6)]))
    assert rep.valid
    assert rep.covered == 3
    assert rep.leave.edges == complete_graph(4).edges


def test_verify_packing_flags_missing_edge_and_overlap():
    g = complete_graph(4)
    rep = verify_packing(g, Packing(3, [(0, 1, 2), (0, 1, 3)]))
    assert not rep.valid
    assert any("twice" in p for p in rep.problems)
    rep = verify_packing(Graph(4, [(0, 1), (1, 2)]), Packing(3, [(0, 1, 2)]))
    assert not rep.valid
    assert any("missing edge" in p for p in rep.problems)
    rep = verify_packing(Graph(3, [(0, 1), (1, 2), (0, 2)]), Packing(3, [(1, 2, 3)]))
    assert not rep.valid
    assert any("outside" in p for p in rep.problems)


# ===================================================================
# Text formats
# ===================================================================


@given(graphs(10))
@settings(max_examples=100, deadline=None)
def test_graph_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_graph_format_layout():
    text = serialize_graph(Graph(3, [(1, 2), (0, 2)]))
    assert text == "3 2\n0 2\n1 2\n"
    g = parse_graph("  # comment\n3 2\n\n0 2\n1 2\n")
    assert g.m == 2


GRAPH_ERRORS = {
    "": "line 1: empty graph file, expected 'n m' header",
    "3\n": "line 1: expected 2 fields for graph header, got 1",
    "3 1\n": "line 1: header promises 1 edges, file has 0",
    "3 1\n0 1\n1 2\n": "line 1: header promises 1 edges, file has 2",
    "3 1\n0 a\n": "line 2: non-integer field in 'edge': '0 a'",
    "3 1\n0 3\n": "line 2: edge (0, 3) out of range for n=3",
    "3 1\n1 1\n": "line 2: loop at vertex 1",
    "3 2\n0 1\n0 1\n": "line 3: edge (0, 1) listed twice",
    "3 2\n0 1\n1 0\n": "line 3: edge (1, 0) listed twice",
    "-1 0\n": "line 1: vertex count must be nonnegative, got -1",
}


@pytest.mark.parametrize("text, message", GRAPH_ERRORS.items(), ids=list(GRAPH_ERRORS))
def test_parse_graph_rejects_malformed(text, message):
    with pytest.raises(ValueError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


@given(
    st.integers(3, 5).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.lists(
                st.sets(st.integers(0, 20), min_size=q, max_size=q).map(
                    lambda s: tuple(sorted(s))
                ),
                max_size=6,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_packing_round_trip(qc):
    q, cliques = qc
    p = Packing(q, cliques)
    assert parse_packing(serialize_packing(p)) == p


PACKING_ERRORS = {
    "3 1\n0 1\n": "line 2: expected 3 fields for clique, got 2",
    "2 0\n": "line 1: q must be at least 3, got 2",
    "": "line 1: empty packing file, expected 'q k' header",
    "3 2\n0 1 2\n": "line 1: header promises 2 cliques, file has 1",
    "3 1\n0 0 1\n": "line 2: repeated vertex in clique [0, 0, 1]",
}


@pytest.mark.parametrize(
    "text, message", PACKING_ERRORS.items(), ids=list(PACKING_ERRORS)
)
def test_parse_packing_rejects_malformed(text, message):
    with pytest.raises(ValueError) as exc:
        parse_packing(text)
    assert str(exc.value) == message
