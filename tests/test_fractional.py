"""Edge gadgets, boosting, fractional verification, clique sampling."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforge.fractional import (
    CliqueWeighting,
    boost,
    edge_gadget,
    fractional_kq_decomposition,
    fractional_problems,
    parse_weighting,
    sample_regular_cliques,
    serialize_weighting,
)
from cliqueforge.graphs import Graph
from cliqueforge.randgraphs import gnp, stream
from cliqueforge.solver import enumerate_cliques

from oracles import (
    complete_graph,
    path_graph,
    reference_boost,
    reference_gadget,
    solved_edge_gadget,
    two_layer_boost,
)


# ===================================================================
# Edge gadgets
# ===================================================================


def gadget_loads_are_exact(gad):
    """Property (i) rechecked by direct summation over psi."""
    universe = tuple(sorted(set(gad.e) | set(gad.j)))
    for sub in itertools.combinations(universe, gad.r):
        want = Fraction(1) if sub == tuple(sorted(gad.e)) else Fraction(0)
        load = sum(
            (v for h, v in gad.psi.items() if set(sub) <= set(h)),
            start=Fraction(0),
        )
        assert load == want


def test_edge_gadget_3_2():
    gad = edge_gadget(3, 2)
    gadget_loads_are_exact(gad)
    assert gad.max_abs <= 8
    assert gad.bound_ok
    assert len(gad.psi) == math.comb(5, 3)


@pytest.mark.parametrize(
    "q, r", [(q, r) for q in range(3, 7) for r in range(1, q + 1)] + [(7, 4)]
)
def test_edge_gadget_families(q, r):
    gad = edge_gadget(q, r)
    gadget_loads_are_exact(gad)
    assert gad.bound_ok
    assert max(map(abs, gad.psi.values())) <= 2**r * math.factorial(r)


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7])
def test_edge_gadget_matches_the_closed_form(q):
    assert edge_gadget(q, 2).psi == dict(reference_gadget(q))
    for r in range(1, min(q, 8 - q) + 1):
        assert edge_gadget(q, r).psi == solved_edge_gadget(q, r)


def test_edge_gadget_input_validation():
    with pytest.raises(ValueError):
        edge_gadget(2, 2)
    with pytest.raises(ValueError):
        edge_gadget(3, 0)
    with pytest.raises(ValueError, match="r must be in 1..q"):
        edge_gadget(3, 4)  # no q-subset of e u J contains e


# ===================================================================
# Weightings
# ===================================================================


def test_weighting_loads_and_merge():
    w = CliqueWeighting(
        3, {(0, 1, 2): Fraction(1, 2), (2, 1, 0): Fraction(1, 4), (1, 2, 3): 1}
    )
    assert len(w) == 2  # duplicate clique keys merge
    assert w.edge_load(0, 1) == Fraction(3, 4)
    assert w.edge_load(1, 2) == Fraction(7, 4)
    assert w.edge_load(0, 3) == 0
    with pytest.raises(ValueError):
        CliqueWeighting(3, {(0, 1): 1})
    with pytest.raises(ValueError, match="q must be at least 3, got 2"):
        CliqueWeighting(2, {})


def test_weighting_round_trip():
    w = CliqueWeighting(3, {(0, 1, 2): Fraction(-1, 3), (1, 2, 4): Fraction(5, 7)})
    back = parse_weighting(serialize_weighting(w))
    assert back.q == w.q and back.weights == w.weights


WEIGHTING_ERRORS = {
    "": "line 1: empty weighting file, expected 'q k' header",
    "3\n": "line 1: expected 2 fields for weighting header, got 1",
    "3 2\n0 1 2 1/2\n": "line 1: header promises 2 cliques, file has 1",
    "3 1\n0 1 2\n": "line 2: expected 3 vertices and a weight",
    "3 1\n0 1 x 1/2\n": "line 2: non-integer field in 'clique': '0 1 x'",
    "3 2\n0 1 2 1/2\n0 1 2 1/2\n": "line 3: clique (0, 1, 2) listed twice",
    # refused the way a packing file refuses them
    "3 2\n0 1 2 1/2\n2 1 0 1/2\n": "line 3: clique (2, 1, 0) listed twice",
    "2 0\n": "line 1: q must be at least 3, got 2",
    "0 0\n": "line 1: q must be at least 3, got 0",
    "-1 0\n": "line 1: q must be at least 3, got -1",
    "3 1\n0 0 1 1/2\n": "line 2: repeated vertex in clique [0, 0, 1]",
    "3 1\n0 1 2 x\n": "line 2: bad weight in '0 1 2 x'",
    "3 1\n0 1 2 1/0\n": "line 2: bad weight in '0 1 2 1/0'",
}


@pytest.mark.parametrize(
    "text, message", WEIGHTING_ERRORS.items(), ids=list(WEIGHTING_ERRORS)
)
def test_parse_weighting_rejects_malformed(text, message):
    with pytest.raises(ValueError) as exc:
        parse_weighting(text)
    assert str(exc.value) == message


# ===================================================================
# Boosting
# ===================================================================


def test_k7_uniform_fractional_decomposition():
    g = complete_graph(7)
    res = fractional_kq_decomposition(g, 3)
    assert res.max_deviation == 0
    assert res.in_range
    assert len(res.weighting) == 35
    assert set(res.weighting.weights.values()) == {Fraction(1, 5)}
    assert fractional_problems(g, res.weighting, "decomposition") == []


def test_boost_identity_on_dense_instances():
    hits = 0
    for seed in range(40):
        g = gnp(11, Fraction(9, 10), seed)
        try:
            res = fractional_kq_decomposition(g, 3)
        except ValueError:
            continue  # an edge missed every 5-clique; recipe out of scope
        hits += 1
        assert res.max_deviation >= 0
        loads = res.weighting.loads()
        assert all(loads[e] == 1 for e in g.sorted_edges())
    assert hits >= 30


def test_boost_rejects_unreachable_edges():
    # K_4 has 3-cliques but no 5-clique through any edge
    with pytest.raises(ValueError, match="no .q.2.-clique"):
        fractional_kq_decomposition(complete_graph(4), 3)


def test_boost_validates_inputs():
    g = complete_graph(7)
    h = enumerate_cliques(g, 3)
    qs = enumerate_cliques(g, 5)
    with pytest.raises(ValueError):
        boost(g, 3, h, qs, 1, 0)
    with pytest.raises(ValueError) as exc:
        boost(g, 3, h, [(3, 0, 2, 1)], 1, 5)
    assert str(exc.value) == "(0, 1, 2, 3) is not a (q+2)-set"
    # (4, 5, 6) is the last 3-clique, and (0, 1, 4, 5, 6) the first
    # 5-clique holding it
    with pytest.raises(ValueError) as exc:
        boost(g, 3, h[:-1], qs, 1, 5)
    assert str(exc.value) == (
        "q-subset (4, 5, 6) of (0, 1, 4, 5, 6) is not among the chosen cliques"
    )
    targets = dict.fromkeys(g.sorted_edges()[1:], 1)
    with pytest.raises(ValueError, match=r"target missing for edge \(0, 1\)"):
        boost(g, 3, h, qs, targets, 5)


def test_decomposition_of_hosts_without_q_cliques():
    # no edge: the empty weighting decomposes it; edges but no
    # triangle: refused before any boost
    res = fractional_kq_decomposition(Graph(5, []), 3)
    assert len(res.weighting) == 0 and res.in_range and res.max_deviation == 0
    with pytest.raises(ValueError, match="graph has no q-cliques at all"):
        fractional_kq_decomposition(path_graph(5), 3)


def test_boost_refuses_q_below_3():
    # the (2, 2) edge gadget does not exist, so no entry point boosts K_2
    g = complete_graph(6)
    h = enumerate_cliques(g, 2)
    qs = enumerate_cliques(g, 4)
    calls = [
        lambda: boost(g, 2, h, qs, 1, 5),
        lambda: fractional_kq_decomposition(g, 2),
        lambda: fractional_kq_decomposition(Graph(3, []), 2),
        lambda: two_layer_boost(g, 2, CliqueWeighting(2, {}), h, qs, 1, 5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="q must be at least 3, got 2"):
            call()


def test_boost_with_nonuniform_targets():
    g = complete_graph(7)
    h = enumerate_cliques(g, 3)
    qs = enumerate_cliques(g, 5)
    targets = {e: Fraction(1, 2) for e in g.sorted_edges()}
    res = boost(g, 3, h, qs, targets, 5)
    assert all(res.weighting.edge_load(*e) == Fraction(1, 2) for e in g.sorted_edges())
    assert fractional_problems(g, res.weighting, "packing") == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_boost_matches_the_fraction_loop(data):
    """Integer numerators against the plain Fraction sum, on random
    targets and d, with the q-cliques and the (q+2)-cliques shuffled and
    one of each repeated, and the vertices of each q-clique permuted."""
    q = data.draw(st.sampled_from((3, 4)), label="q")
    n = data.draw(st.integers(q + 2, 9), label="n")
    members = data.draw(
        st.lists(st.sampled_from(list(itertools.combinations(range(n), q + 2))),
                 min_size=1, max_size=5),
        label="members",
    )
    g = Graph(n, {e for m in members for e in itertools.combinations(m, 2)})
    h = enumerate_cliques(g, q)
    h.append(h[data.draw(st.integers(0, len(h) - 1), label="repeated q-clique")])
    h = [data.draw(st.permutations(c), label="vertex order") for c in h]
    h = data.draw(st.permutations(h), label="q-clique order")
    qs = enumerate_cliques(g, q + 2)
    qs.append(qs[data.draw(st.integers(0, len(qs) - 1), label="repeated")])
    qs = data.draw(st.permutations(qs), label="order")
    fractions = st.fractions(min_value=0, max_value=2, max_denominator=12)
    targets = dict(zip(g.sorted_edges(), data.draw(
        st.lists(fractions, min_size=g.m, max_size=g.m), label="targets")))
    d = data.draw(st.fractions(min_value=Fraction(1, 3), max_value=30,
                               max_denominator=20), label="d")
    res = boost(g, q, h, qs, targets, d)
    weights, in_range, max_dev, c_range = reference_boost(g, q, h, qs, targets, d)
    assert res.weighting.weights == weights
    assert (res.in_range, res.max_deviation, res.c_range) == (in_range, max_dev, c_range)


def test_two_layer_boost_round():
    g = complete_graph(7)
    h = enumerate_cliques(g, 3)
    qs = enumerate_cliques(g, 5)
    # first layer: half of the uniform decomposition on a clique subset
    first = CliqueWeighting(3, {c: Fraction(1, 10) for c in h[::2]})
    res = two_layer_boost(g, 3, first, h, qs, Fraction(1, 2), 5)
    assert all(res.weighting.edge_load(*e) == 1 for e in g.sorted_edges())
    with pytest.raises(ValueError):
        two_layer_boost(g, 3, first, h, qs, 2, 5)


# ===================================================================
# Verification and sampling
# ===================================================================


def test_fractional_problems_modes():
    g = complete_graph(3)
    w = CliqueWeighting(3, {(0, 1, 2): Fraction(1, 2)})
    assert fractional_problems(g, w, "packing") == []
    assert any("load" in p for p in fractional_problems(g, w, "decomposition"))
    bad = CliqueWeighting(3, {(0, 1, 2): Fraction(-1, 2)})
    assert any("negative" in p for p in fractional_problems(g, bad, "packing"))
    notc = CliqueWeighting(3, {(0, 1, 3): Fraction(1, 2)})
    problems = fractional_problems(complete_graph(3), notc, "packing")
    assert any("not a clique" in p for p in problems)
    with pytest.raises(ValueError):
        fractional_problems(g, w, "fractional")


def test_sampling_uniform_k7():
    res = fractional_kq_decomposition(complete_graph(7), 3)
    # psi D/2 = 1 for D = 10: every clique selected, degrees exact
    out = sample_regular_cliques(res.weighting, 10, stream(1, "sample"))
    assert len(out.selected) == 35
    assert out.max_deviation == 0
    assert all(d == 5 for d in out.edge_degrees.values())


def test_sampling_is_deterministic_and_bounded():
    res = fractional_kq_decomposition(complete_graph(7), 3)
    a = sample_regular_cliques(res.weighting, 5, stream(3, "sample"))
    b = sample_regular_cliques(res.weighting, 5, stream(3, "sample"))
    assert a.selected == b.selected
    assert a.max_deviation == max(
        abs(a.edge_degrees.get(e, 0) - Fraction(5, 2))
        for e in itertools.combinations(range(7), 2)
    )
    with pytest.raises(ValueError):
        sample_regular_cliques(res.weighting, 11, stream(3, "sample"))
