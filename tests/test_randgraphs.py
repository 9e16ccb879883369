"""Seeded generators: determinism, marginals, regularity, slicing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforge.graphs import Graph, union
from cliqueforge.randgraphs import _below, _repair, gnd, gnp, slice_graph, stream

from oracles import reference_gnd, reference_repair


# ===================================================================
# Streams
# ===================================================================


def test_stream_is_a_pure_function_of_its_key():
    a = stream(7, "x", 3)
    b = stream(7, "x", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_stream_separates_tags_and_indices():
    base = stream(7, "x", 0).getrandbits(64)
    assert base != stream(7, "y", 0).getrandbits(64)
    assert base != stream(7, "x", 1).getrandbits(64)
    assert base != stream(8, "x", 0).getrandbits(64)


BOUNDS = sorted(
    {1, 3, 10**6, 3**45, 2**64 + 1, 2**100 - 1}
    | {2**k + d for k in (1, 2, 3, 5, 8, 16, 31, 32, 53, 63, 64, 65, 100) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("m", BOUNDS)
def test_below_draws_as_randrange_and_choice(m):
    """_below(rng)(m) returns rng.randrange(m) and leaves the generator
    in the same state, so later draws do not move either."""
    ours, theirs = stream(5, "below", m % 97), stream(5, "below", m % 97)
    below = _below(ours)
    assert [below(m) for _ in range(64)] == [theirs.randrange(m) for _ in range(64)]
    assert ours.getstate() == theirs.getstate()
    if m <= 10**6:
        seq = range(m)
        assert [seq[below(len(seq))] for _ in range(64)] == [
            theirs.choice(seq) for _ in range(64)
        ]
        assert ours.getstate() == theirs.getstate()


def test_below_interleaves_with_randrange_on_one_generator():
    ours, theirs = stream(6, "below"), stream(6, "below")
    below = _below(ours)
    bounds = [7, 2**64 + 3, 1, 12, 5, 2**33, 3]
    got = [below(m) if i % 2 else ours.randrange(m) for i, m in enumerate(bounds * 9)]
    assert got == [theirs.randrange(m) for m in bounds * 9]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("m", [0, -1, -8])
def test_below_refuses_an_empty_range(m):
    with pytest.raises(ValueError):
        _below(stream(1, "below"))(m)


# ===================================================================
# G(n, p)
# ===================================================================


def test_gnp_deterministic_and_seed_sensitive():
    assert gnp(30, Fraction(1, 2), 5) == gnp(30, Fraction(1, 2), 5)
    assert gnp(30, Fraction(1, 2), 5) != gnp(30, Fraction(1, 2), 6)


def test_gnp_extremes():
    assert gnp(10, 0, 1).m == 0
    assert gnp(10, 1, 1).m == 45
    assert gnp(0, Fraction(1, 2), 1).n == 0


def test_gnp_validates_inputs():
    with pytest.raises(ValueError):
        gnp(10, Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        gnp(-1, Fraction(1, 2), 1)


def test_gnp_accepts_float_and_string_probabilities():
    assert gnp(20, 0.25, 9) == gnp(20, Fraction(1, 4), 9)
    assert gnp(20, "1/4", 9) == gnp(20, Fraction(1, 4), 9)


def test_gnp_edge_count_is_plausible():
    g = gnp(100, Fraction(1, 2), 42)
    mean = Fraction(100 * 99, 2 * 2)
    assert abs(g.m - mean) < 300  # ~8.5 sigma


# ===================================================================
# Slicing
# ===================================================================


def test_slice_partitions_the_graph():
    g = gnp(40, Fraction(1, 2), 3)
    g1, g2 = slice_graph(g, Fraction(1, 2), 11)
    assert not g1.edges & g2.edges
    assert union(g1, g2).edges == g.edges
    assert g1.n == g2.n == g.n


def test_slice_extremes_and_errors():
    g = gnp(20, Fraction(1, 2), 3)
    keep, rest = slice_graph(g, 1, 4)
    assert keep.edges == g.edges and rest.m == 0
    none, rest = slice_graph(g, 0, 4)
    assert none.m == 0 and rest.edges == g.edges
    with pytest.raises(ValueError):
        slice_graph(g, Fraction(4, 3), 4)


def test_slice_depends_only_on_edges_and_seed():
    g = gnp(25, Fraction(1, 2), 8)
    a1, _ = slice_graph(g, Fraction(1, 2), 13)
    a2, _ = slice_graph(g, Fraction(1, 2), 13)
    assert a1 == a2


# ===================================================================
# G(n, d)
# ===================================================================


@pytest.mark.parametrize("n, d", [(10, 3), (20, 4), (31, 6), (12, 11)])
def test_gnd_is_exactly_regular(n, d):
    g = gnd(n, d, 17)
    assert g.degrees() == [d] * n


def test_gnd_deterministic():
    assert gnd(24, 5, 2) == gnd(24, 5, 2)
    assert gnd(24, 5, 2) != gnd(24, 5, 3)


def test_gnd_validates_inputs():
    with pytest.raises(ValueError):
        gnd(9, 3, 1)  # odd stub count
    with pytest.raises(ValueError):
        gnd(5, 5, 1)  # d >= n
    with pytest.raises(ValueError):
        gnd(5, -1, 1)


def test_gnd_degenerate_cases():
    assert gnd(6, 0, 1).m == 0
    g = gnd(6, 1, 1)  # perfect matching
    assert g.degrees() == [1] * 6 and g.m == 3


@given(st.integers(0, 2**63), st.integers(4, 14))
@settings(max_examples=25, deadline=None)
def test_gnd_regular_across_seeds(seed, n):
    d = 3 if n % 2 == 0 else 4
    g = gnd(n, d, seed)
    assert g.degrees() == [d] * n


# (10, 9) and (12, 11) restart: K_10 and K_12 are their only simple
# 9- and 11-regular graphs, and the repair often gets stuck on them
REPAIR_GRID = [(7, 2), (10, 9), (12, 11), (20, 3), (45, 20), (60, 12), (100, 36), (200, 60)]


def _gnd_or_error(sample, n, d, seed):
    try:
        return sample(n, d, seed).edges
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("n, d", REPAIR_GRID)
def test_gnd_matches_the_reference_repair(n, d):
    for seed in range(4):
        assert _gnd_or_error(gnd, n, d, seed) == _gnd_or_error(reference_gnd, n, d, seed)


@pytest.mark.parametrize("n, d, seed", [(10, 9, 0), (12, 11, 0), (12, 11, 1)])
def test_repair_matches_the_reference_attempt_by_attempt(n, d, seed):
    """Stuck attempts included: each returns the same verdict, leaves the
    same pairs and draws the same bits as the reference."""
    rng = stream(seed, "gnd")
    stuck = 0
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        ref_pairs, ref_rng = list(pairs), random.Random()
        ref_rng.setstate(rng.getstate())
        ok = _repair(pairs, rng)
        assert ok == reference_repair(ref_pairs, ref_rng)
        assert pairs == ref_pairs
        assert rng.getstate() == ref_rng.getstate()
        if ok:
            break
        stuck += 1
    assert stuck > 0
    assert Graph(n, pairs).degrees() == [d] * n
