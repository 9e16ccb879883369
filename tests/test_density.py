"""Rooted density functionals against subset-enumeration oracles.

The gadget values pinned here were first computed by exhaustive
enumeration: for the anti-edge rooted at its missing pair the rooted
2-density is (q+1)/2 for q in 3..6; for the fake edge rooted at the pair
alone the true values are 4/3 (q=3) and 25/12 (q=4), while (q+1)/2 is
attained exactly when the hubs are rooted as well.  At q=5 and q=6 (32
and 62 vertices) the min-cut engine gives 27/10 and 49/15, which is
e/(v-2) of the whole gadget, and (q+1)/2 again with the hubs rooted;
the enumeration oracles cannot reach these sizes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from cliqueforge.density import (
    DensityValue,
    evaluate_rooted_ratio,
    evaluate_two_density_ratio,
    max_2_density,
    max_rooted_density,
    rooted_2_density,
)
from cliqueforge.gadgets import anti_edge, fake_edge, star_transformer
from cliqueforge.graphs import Graph
from cliqueforge.randgraphs import gnp

from conftest import graphs
from oracles import (
    brute_2_density,
    brute_rooted_2_density,
    brute_rooted_density,
    complete_graph,
    concatenation_bound,
    cycle_graph,
    path_graph,
    reference_pinned_search,
    rooted_degeneracy,
)


def independent_roots(g):
    """Greedy independent set to root hypothesis-drawn graphs at."""
    adj = g.adjacency()
    roots = []
    for v in range(g.n):
        if all(w not in adj[v] for w in roots):
            roots.append(v)
        if len(roots) == 2:
            break
    return roots


# ===================================================================
# Oracle agreement
# ===================================================================


@given(graphs(8, min_n=2))
@settings(max_examples=120, deadline=None)
def test_rooted_density_matches_oracle(g):
    roots = independent_roots(g)
    if len(roots) == g.n:
        return
    got = max_rooted_density(g, roots)
    assert got.value == brute_rooted_density(g, roots)
    assert evaluate_rooted_ratio(g, roots, got.witness) == got.value


@given(graphs(8, min_n=3))
@settings(max_examples=120, deadline=None)
def test_two_density_matches_oracle(g):
    got = max_2_density(g)
    assert got.value == brute_2_density(g)
    assert evaluate_two_density_ratio(g, got.witness) == got.value


@given(graphs(8, min_n=3))
@settings(max_examples=100, deadline=None)
def test_rooted_2_density_is_the_max(g):
    roots = independent_roots(g)
    if len(roots) == g.n:
        return
    got = rooted_2_density(g, roots)
    assert got.value == brute_rooted_2_density(g, roots)


def test_witness_kind_prefers_rooted_on_ties():
    # a triangle hung off one root: two-density 2 beats rooted 4/3
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    got = rooted_2_density(g, [0])
    assert got.value == Fraction(2)
    assert got.kind == "two_density"
    # anti-edge(4) beside a disjoint K_4: both functionals hit 5/2
    gad = anti_edge(4)
    shifted = [(u + 4, v + 4) for u, v in complete_graph(4).edges]
    g = Graph(8, list(gad.graph.edges) + shifted)
    got = rooted_2_density(g, gad.roots)
    assert got.value == Fraction(5, 2)
    assert got.kind == "rooted"


# ===================================================================
# Pinned search against the search with every alive vertex free
# ===================================================================


def reference_max_2_density(g):
    start = Fraction(g.m - 1, g.n - 2)
    lam, witness = reference_pinned_search(g, start, tuple(range(g.n)))
    return DensityValue(lam, witness, "two_density")


def reference_rooted_2_density(g, roots):
    rooted = max_rooted_density(g, roots)
    lam, witness = reference_pinned_search(g, rooted.value, None)
    if witness is None:
        return rooted
    return DensityValue(lam, witness, "two_density")


def assert_matches_reference(g, roots):
    """Value, witness and kind of both functionals equal the reference's,
    rooted_2_density both unrooted and at roots."""
    assert max_2_density(g) == reference_max_2_density(g)
    assert rooted_2_density(g, []) == reference_rooted_2_density(g, [])
    if roots:
        assert rooted_2_density(g, roots) == reference_rooted_2_density(g, roots)


@given(graphs(12, min_n=3))
@settings(max_examples=300, deadline=None)
def test_pinned_search_matches_reference(g):
    roots = independent_roots(g)
    assert_matches_reference(g, roots if len(roots) == 2 else None)


@pytest.mark.parametrize("n, p", [(10, Fraction(1, 2)), (12, Fraction(1, 2)), (12, Fraction(3, 4))])
def test_pinned_search_matches_reference_on_dense_graphs(n, p):
    for seed in range(20):
        g = gnp(n, p, seed)
        roots = independent_roots(g)
        assert_matches_reference(g, roots if len(roots) == 2 else None)


@pytest.mark.parametrize("build, q", [
    *((anti_edge, q) for q in range(3, 7)),
    *((fake_edge, q) for q in range(3, 7)),
    *((star_transformer, q) for q in range(3, 6)),
])
def test_pinned_search_matches_reference_on_gadgets(build, q):
    made = build(q)
    graph = made.t if build is star_transformer else made.graph
    assert_matches_reference(graph, made.roots)


# ===================================================================
# Pinned closed forms
# ===================================================================


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_complete_graph_two_density(q):
    # m_2(K_q) = (binom(q,2) - 1) / (q - 2)
    want = Fraction(q * (q - 1) // 2 - 1, q - 2)
    assert max_2_density(complete_graph(q)).value == want


def test_cycle_and_path_two_density():
    assert max_2_density(cycle_graph(6)).value == Fraction(5, 4)
    assert max_2_density(path_graph(5)).value == Fraction(1, 1)


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_anti_edge_rooted_2_density(q):
    gad = anti_edge(q)
    got = rooted_2_density(gad.graph, gad.roots)
    assert got.value == Fraction(q + 1, 2)


@pytest.mark.parametrize(
    "q, want",
    [(3, Fraction(4, 3)), (4, Fraction(25, 12)), (5, Fraction(27, 10)), (6, Fraction(49, 15))],
)
def test_fake_edge_rooted_2_density_at_pair(q, want):
    gad = fake_edge(q)
    got = rooted_2_density(gad.graph, gad.roots)
    assert got.value == want
    assert got.kind == "rooted"
    assert evaluate_rooted_ratio(gad.graph, gad.roots, got.witness) == want


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_fake_edge_rooted_2_density_with_hubs(q):
    gad = fake_edge(q)
    roots = gad.roots + tuple(range(2, q))
    assert rooted_2_density(gad.graph, roots).value == Fraction(q + 1, 2)


# ===================================================================
# Structure and errors
# ===================================================================


def test_roots_must_be_independent():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        max_rooted_density(g, [0, 1])


@pytest.mark.parametrize("root", [8, 99, -1])
@pytest.mark.parametrize("functional", [max_rooted_density, rooted_2_density])
def test_roots_must_be_vertices(functional, root):
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    with pytest.raises(ValueError, match=f"root {root} out of range"):
        functional(g, [0, root])


def test_everything_rooted_is_an_error():
    g = Graph(2, [])
    with pytest.raises(ValueError):
        max_rooted_density(g, [0, 1])


def test_two_density_needs_three_vertices():
    with pytest.raises(ValueError):
        max_2_density(Graph(2, [(0, 1)]))


def test_witness_checkers_refuse_degenerate_witnesses():
    g = path_graph(4)
    with pytest.raises(ValueError, match="witness has no non-root vertices"):
        evaluate_rooted_ratio(g, [0, 3], [3, 0])
    with pytest.raises(ValueError, match="needs at least 3 vertices"):
        evaluate_two_density_ratio(g, [1, 2])


def test_long_path_has_no_size_cap():
    g = path_graph(40)
    got = max_rooted_density(g, [])
    assert got.value == Fraction(39, 40)
    assert evaluate_rooted_ratio(g, [], got.witness) == got.value
    got = max_2_density(g)
    assert got.value == Fraction(1, 1)
    assert evaluate_two_density_ratio(g, got.witness) == got.value


@given(graphs(7, min_n=3))
@settings(max_examples=80, deadline=None)
def test_degeneracy_bounds_rooted_2_density(g):
    roots = independent_roots(g)
    if len(roots) == g.n:
        return
    value, order = rooted_degeneracy(g, roots)
    assert sorted(order) == [v for v in range(g.n) if v not in roots]
    if value >= 2:
        assert rooted_2_density(g, roots).value <= value


@given(graphs(7, min_n=4))
@settings(max_examples=60, deadline=None)
def test_concatenation_upper_bound(g):
    roots = independent_roots(g)
    if len(roots) >= g.n - 1:
        return
    inner = sorted(set(roots) | {min(v for v in range(g.n) if v not in roots)})
    assert rooted_2_density(g, roots).value <= concatenation_bound(g, roots, inner)
