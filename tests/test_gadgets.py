"""The gadget zoo: residue contracts, certificates, serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforge import gadgets
from cliqueforge.gadgets import (
    AbsorberBundle,
    Gadget,
    TransformerBundle,
    anti_clique_absorber,
    anti_edge,
    fake_edge,
    load_bundle,
    nabla,
    nabla_absorber,
    nabla_expansion,
    naive_omni_absorber,
    serialize_bundle,
    star_transformer,
    tilde_nabla,
    trivial_absorber,
    verify_omni_absorber,
)
from cliqueforge.density import rooted_2_density
from cliqueforge.graphs import (
    Graph,
    Packing,
    is_kq_divisible,
    union,
    verify_packing,
)
from cliqueforge.solver import verify_absorber, verify_transformer

from conftest import graphs
from oracles import (
    absorber_certificates_disjoint,
    absorber_nonroot_degrees,
    complete_graph,
    cycle_graph,
    residues,
)


# ===================================================================
# Basic gadgets and residues
# ===================================================================


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_anti_edge_structure_and_residues(q):
    gad = anti_edge(q)
    assert gad.kind == "anti_edge" and gad.roots == (0, 1)
    assert gad.graph.n == q and gad.graph.m == math.comb(q, 2) - 1
    assert not gad.graph.has_edge(0, 1)
    edge_residue, degree_residues = residues(gad.graph, q)
    # exactly the negated residues of one real edge on the roots
    assert edge_residue == math.comb(q, 2) - 1
    assert degree_residues[0] == degree_residues[1] == q - 2
    assert all(r == 0 for r in degree_residues[2:])


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_fake_edge_structure_and_residues(q):
    gad = fake_edge(q)
    assert gad.kind == "fake_edge" and gad.roots == (0, 1)
    assert not gad.graph.has_edge(0, 1)
    pairs = math.comb(q, 2) - 1
    assert gad.graph.n == q + pairs * (q - 2)
    assert gad.graph.m == pairs * (math.comb(q, 2) - 1)
    edge_residue, degree_residues = residues(gad.graph, q)
    # exactly the residues of one real edge on the roots
    assert edge_residue == 1
    assert degree_residues[0] == degree_residues[1] == 1
    assert all(r == 0 for r in degree_residues[2:])


@pytest.mark.parametrize("q", [3, 4, 5])
def test_anti_edge_closes_to_a_clique(q):
    gad = anti_edge(q)
    closed = union(gad.graph, Graph(q, [(0, 1)]))
    assert closed.edges == complete_graph(q).edges


@pytest.mark.parametrize("q", [3, 4])
def test_fake_edge_cancels_against_an_anti_edge(q):
    gad = fake_edge(q)
    n = gad.graph.n
    fresh = range(n, n + q - 2)
    anti = anti_edge(q)
    mapping = {0: 0, 1: 1, **{i + 2: w for i, w in enumerate(fresh)}}
    placed = Graph(
        n + q - 2, [(mapping[u], mapping[v]) for u, v in anti.graph.edges]
    )
    assert is_kq_divisible(union(gad.graph, placed), q)


def test_gadgets_reject_small_q():
    with pytest.raises(ValueError):
        anti_edge(2)
    with pytest.raises(ValueError):
        fake_edge(2)


# ===================================================================
# Nabla
# ===================================================================


@pytest.mark.parametrize("q", [3, 4, 5])
def test_nabla_counts(q):
    base = complete_graph(q)
    g = nabla(q, base)
    assert g.n == base.n + base.m * (q - 2)
    assert g.m == base.m * (math.comb(q, 2) - 1)


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("build", [nabla_expansion, nabla, tilde_nabla])
def test_nabla_refuses_q_below_3(build, q):
    with pytest.raises(ValueError, match=f"q must be at least 3, got {q}"):
        build(q, Graph(3, [(0, 1), (1, 2)]))


@given(graphs(6), st.integers(3, 4))
@settings(max_examples=60, deadline=None)
def test_nabla_preserves_divisibility_exactly(g, q):
    assert is_kq_divisible(nabla(q, g), q) == is_kq_divisible(g, q)


@given(graphs(6, min_n=1), st.integers(3, 4))
@settings(max_examples=60, deadline=None)
def test_tilde_nabla_decomposes_edge_by_edge(g, q):
    ex = nabla_expansion(q, g)
    packing = ex.tilde_decomposition()
    assert len(packing) == g.m
    rep = verify_packing(ex.full, packing)
    assert rep.valid and rep.leave.m == 0
    assert tilde_nabla(q, g).edges == ex.full.edges


# ===================================================================
# Star transformers
# ===================================================================


@pytest.mark.parametrize("q, k", [(3, 2), (3, 4), (3, 6), (4, 2), (5, 2)])
def test_star_transformer_certificates(q, k):
    b = star_transformer(q, k)
    assert verify_transformer(b) == []
    # L and L' are stars on the shared leaves
    assert b.l.m == b.l_prime.m == q - 1
    assert len(b.leaf_roots) == q - 1
    assert union(b.l, b.l_prime).m == 2 * (q - 1)


@pytest.mark.parametrize(
    "q, k, want",
    [
        (3, 2, (7, 2)),
        (3, 4, (13, 4)),
        (3, 6, (19, 6)),
        (4, 2, (9, 2)),
        (5, 2, (11, 2)),
    ],
)
def test_star_transformer_rooted_density(q, k, want):
    b = star_transformer(q, k)
    got = rooted_2_density(b.t, b.roots).value
    assert (got.numerator, got.denominator) == want
    bound = 3 + Fraction(1, k) if q == 3 else q + Fraction(1, 2)
    assert got <= bound


def test_star_transformer_rejects_odd_k():
    with pytest.raises(ValueError):
        star_transformer(3, 3)
    with pytest.raises(ValueError):
        star_transformer(3, 0)
    with pytest.raises(ValueError):
        star_transformer(2)
    # the q >= 4 grid has no length, so any k but 2 is refused, not ignored
    for q, k in ((4, 7), (5, 4)):
        with pytest.raises(ValueError, match="k must be 2 at q >= 4"):
            star_transformer(q, k)
    with pytest.raises(ValueError, match="k must be 2 at q >= 4"):
        anti_clique_absorber(4, k=4)


def _tampered(bundle, **fields):
    return bundle._replace(**fields)


# star_transformer(3, 2): T is the path 0-1-2-3 with both centers 4 and 5
# joined to 1 and 2; L = {40, 43}, L' = {50, 53}; roots 0, 3, 4, 5
TAMPERED_TRANSFORMERS = {
    "t-edge-inside-roots": (
        lambda b: {"t": union(b.t, Graph(6, [(0, 3)]))},
        "T has an edge inside the root set: (0, 3)",
    ),
    "l-edge-leaves-roots": (
        lambda b: {"l": union(b.l, Graph(6, [(1, 4)]))},
        "L edge (1, 4) leaves the root set",
    ),
    "l-prime-edge-leaves-roots": (
        lambda b: {"l_prime": union(b.l_prime, Graph(6, [(1, 5)]))},
        "L' edge (1, 5) leaves the root set",
    ),
    "invalid-certificate": (
        lambda b: {"decomp_tl": Packing(3, b.decomp_tl.cliques + ((0, 1, 4),))},
        "decomp of T u L: edge (0, 1) covered twice (clique (0, 1, 4))",
    ),
    "incomplete-certificate": (
        lambda b: {"decomp_tl_prime": Packing(3, b.decomp_tl_prime.cliques[1:])},
        "decomp of T u L': 3 edges uncovered",
    ),
}


@pytest.mark.parametrize(
    "tamper, problem", TAMPERED_TRANSFORMERS.values(), ids=list(TAMPERED_TRANSFORMERS)
)
def test_verify_transformer_reports_each_tampering(tamper, problem):
    b = star_transformer(3, 2)
    assert problem in verify_transformer(_tampered(b, **tamper(b)))


# ===================================================================
# Absorbers
# ===================================================================


# trivial_absorber(K_3, 3): L is the triangle on the roots 0, 1, 2, A is
# empty, and decomp_la is the triangle
TAMPERED_ABSORBERS = {
    "l-not-divisible": (
        {"l": Graph(3, [(0, 1), (1, 2)])},
        "L is not divisible",
    ),
    "a-edge-inside-roots": (
        {"a": Graph(3, [(0, 1)])},
        "A has an edge inside the root set: (0, 1)",
    ),
    "l-edge-leaves-roots": (
        {"roots": (0, 1)},
        "L edge (0, 2) leaves the root set",
    ),
    "invalid-certificate": (
        {"decomp_a": Packing(3, [(0, 1, 2)])},
        "decomp of A: clique (0, 1, 2) uses missing edge (0, 1)",
    ),
    "incomplete-certificate": (
        {"decomp_la": Packing(3, [])},
        "decomp of L u A: 3 edges uncovered",
    ),
}


@pytest.mark.parametrize(
    "fields, problem", TAMPERED_ABSORBERS.values(), ids=list(TAMPERED_ABSORBERS)
)
def test_verify_absorber_reports_each_tampering(fields, problem):
    b = trivial_absorber(complete_graph(3), 3)
    assert problem in verify_absorber(_tampered(b, **fields))


@pytest.mark.parametrize("q", [3, 4])
def test_anti_clique_absorber_validates(q):
    b = anti_clique_absorber(q)
    assert verify_absorber(b) == []
    assert b.l.edges == nabla(q, complete_graph(q)).edges
    assert absorber_certificates_disjoint(b)
    degs = absorber_nonroot_degrees(b)
    assert min(degs.values()) >= 2 * q - 2


def test_anti_clique_absorber_other_k():
    b = anti_clique_absorber(3, k=4)
    assert verify_absorber(b) == []


def test_trivial_absorber():
    b = trivial_absorber(complete_graph(3), 3)
    assert b.a.m == 0 and len(b.decomp_la) == 1
    assert verify_absorber(b) == []
    with pytest.raises(ValueError):
        trivial_absorber(nabla(3, complete_graph(3)), 3)  # divisible, triangle-free


def test_nabla_absorber_for_decomposable_leftover():
    b = nabla_absorber(complete_graph(3), anti_clique_absorber(3))
    assert verify_absorber(b) == []
    degs = absorber_nonroot_degrees(b)
    assert min(degs.values()) >= 4


def test_nabla_absorber_with_base():
    booster = anti_clique_absorber(3)
    l = nabla(3, complete_graph(3))
    b = nabla_absorber(l, booster, base=booster)
    assert b.kind == "nabla_absorber"
    assert verify_absorber(b) == []


def test_nabla_absorber_rejects_bad_inputs():
    booster = anti_clique_absorber(3)
    with pytest.raises(ValueError):
        nabla_absorber(complete_graph(4), booster)  # not divisible
    with pytest.raises(ValueError):
        nabla_absorber(complete_graph(3), trivial_absorber(complete_graph(3), 3))
    # without a base, L must have a trivial absorber
    with pytest.raises(ValueError, match="the empty absorber requires one"):
        nabla_absorber(nabla(3, complete_graph(3)), booster)
    with pytest.raises(ValueError, match="base and booster disagree on q"):
        nabla_absorber(complete_graph(3), booster, base=trivial_absorber(complete_graph(4), 4))
    other = trivial_absorber(Graph(4, [(1, 2), (1, 3), (2, 3)]), 3)
    with pytest.raises(ValueError, match="base absorber is not an absorber for this L"):
        nabla_absorber(complete_graph(3), booster, base=other)


# ===================================================================
# Omni absorbers
# ===================================================================


def test_naive_omni_absorber_on_c6():
    x = cycle_graph(6)
    oa = naive_omni_absorber(x)
    # C_6 has exactly two divisible edge subsets: empty and everything
    assert set(oa.table) == {frozenset(), frozenset(x.edges)}
    for key, packing in oa.table.items():
        host = union(Graph(oa.a.n, key), oa.a)
        rep = verify_packing(host, packing)
        assert rep.valid and rep.leave.m == 0
    report = verify_omni_absorber(x, oa.a, 3)
    assert report.ok
    assert report.checked == 2
    assert report.failures == [] and report.unknown == []
    assert report.refinement >= 1


def test_verify_omni_rejects_oversized_and_overlapping():
    x = cycle_graph(6)
    with pytest.raises(ValueError):
        verify_omni_absorber(complete_graph(6), Graph(6, []), 3)
    with pytest.raises(ValueError):
        verify_omni_absorber(x, x, 3)


def test_verify_omni_flags_a_bad_absorber():
    # an absorber with no edges cannot decompose C_6 itself
    report = verify_omni_absorber(cycle_graph(6), Graph(6, []), 3)
    assert not report.ok
    assert len(report.failures) == 1


def test_verify_omni_out_of_budget_is_unknown_not_ok():
    # 5 search nodes cannot decompose A alone, nor C_6 with A
    x = cycle_graph(6)
    report = verify_omni_absorber(x, naive_omni_absorber(x).a, 3, budget_nodes=5)
    assert not report.ok and report.failures == []
    assert report.unknown == [((), "budget"), (tuple(x.sorted_edges()), "budget")]


def test_naive_omni_refuses_when_no_host_size_has_an_absorber(monkeypatch):
    monkeypatch.setattr(gadgets, "OMNI_MAX_FRESH", 1)
    with pytest.raises(
        ValueError,
        match="no private absorber for a divisible subgraph with 6 edges "
        "within 1 fresh vertices",
    ):
        naive_omni_absorber(cycle_graph(6))


def test_naive_omni_moves_on_when_the_search_budget_runs_out(monkeypatch):
    # every host size exhausts its one node, so all six are tried
    monkeypatch.setattr(gadgets, "OMNI_BUDGET_NODES", 1)
    with pytest.raises(ValueError, match="with 6 edges within 6 fresh vertices"):
        naive_omni_absorber(cycle_graph(6))


def test_naive_omni_caps():
    with pytest.raises(ValueError):
        naive_omni_absorber(complete_graph(5))  # 10 edges > cap


# ===================================================================
# Serialization
# ===================================================================


def test_gadget_bundle_round_trip():
    gad = fake_edge(3)
    graph, sidecar = serialize_bundle(gad)
    back = load_bundle(graph, sidecar)
    assert isinstance(back, Gadget)
    assert back.kind == "fake_edge" and back.roots == gad.roots
    assert back.graph == gad.graph


def test_transformer_bundle_round_trip():
    b = star_transformer(3, 2)
    graph, sidecar = serialize_bundle(b)
    back = load_bundle(graph, sidecar)
    assert isinstance(back, TransformerBundle)
    assert verify_transformer(back) == []
    assert back.roots == b.roots and back.k == b.k


def test_absorber_bundle_round_trip():
    b = anti_clique_absorber(3)
    graph, sidecar = serialize_bundle(b)
    back = load_bundle(graph, sidecar)
    assert isinstance(back, AbsorberBundle)
    assert verify_absorber(back) == []
    assert back.l == b.l and back.roots == b.roots


def test_serialization_rejects_unknown():
    with pytest.raises(TypeError):
        serialize_bundle(42)
    with pytest.raises(ValueError):
        load_bundle(Graph(1, []), {"kind": "mystery", "q": 3})
