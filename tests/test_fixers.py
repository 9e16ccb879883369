"""Divisibility fixers: selection congruences, realization, application."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforge.fixers import (
    EmbeddedFixer,
    FixerBlueprint,
    apply_fixer,
    fat_triangle_select,
    inductive_select,
    realize_fixer,
)
from cliqueforge.gadgets import fake_edge
from cliqueforge.graphs import Graph, is_kq_divisible, union
from cliqueforge.randgraphs import stream


def check_selection(blueprint, counts, m, dvec):
    """Recompute the congruences a selection must hit, from scratch."""
    q = blueprint.q
    got = [0] * blueprint.n
    total = 0
    for (u, v), c in counts.items():
        assert 0 <= c <= blueprint.copies(u, v)
        got[u] += c
        got[v] += c
        total += c
    assert total % math.comb(q, 2) == m % math.comb(q, 2)
    for v in range(blueprint.n):
        assert (got[v] - dvec[v]) % (q - 1) == 0


# ===================================================================
# Blueprint shape
# ===================================================================


@pytest.mark.parametrize("q, n", [(3, 6), (4, 7), (5, 9), (6, 10)])
def test_blueprint_multiplicities(q, n):
    bp = FixerBlueprint(q, n)
    t = max(3, q - 2)
    assert bp.t == t
    for i, j in itertools.combinations(range(t), 2):
        assert bp.copies(i, j) == q * (q - 1)
    # beyond the fat zone: plain path-power pairs at distance < q-1
    assert bp.copies(n - 2, n - 1) == 1
    assert bp.copies(0, n - 1) == 0 or n <= q - 1
    # every later vertex keeps q-2 back edges at least
    for v in range(max(3, q - 2), n):
        back = sum(1 for u in range(v) if bp.copies(u, v))
        assert back >= min(q - 2, v)
    # copies, degrees and m all count parallel copies, in either pair order
    pairs = list(itertools.combinations(range(n), 2))
    assert all(bp.copies(i, j) == bp.copies(j, i) for i, j in pairs)
    assert bp.m == sum(bp.copies(i, j) for i, j in pairs)
    assert bp.degrees() == [
        sum(bp.copies(v, u) for u in range(n) if u != v) for v in range(n)
    ]


def test_blueprint_rejects_tiny():
    with pytest.raises(ValueError):
        FixerBlueprint(2, 6)
    with pytest.raises(ValueError):
        FixerBlueprint(3, 2)


def test_simplified_registry_counts():
    # on a simple host, copy 0 of a pair is its edge and every further
    # copy is one fake-edge gadget; only the fat pairs have such copies
    bp = FixerBlueprint(3, 6)
    keys = bp.gadget_keys()
    fat_extras = math.comb(3, 2) * (3 * 2 - 1)
    assert len(keys) == fat_extras
    assert keys == sorted(set(keys))
    assert all(1 <= c < bp.copies(u, v) for u, v, c in keys)
    host, emb = realize_fixer(3)
    big = emb.blueprint
    assert host.m == len(big.pairs()) + len(big.gadget_keys()) * fake_edge(3).graph.m


# ===================================================================
# Selection congruences
# ===================================================================


def test_fat_triangle_select_consistency():
    for q in (3, 4):
        mod = q * (q - 1)
        for m in range(mod):
            for d in itertools.product(range(q - 1), repeat=3):
                if (2 * m - sum(d)) % (q - 1):
                    with pytest.raises(ValueError):
                        fat_triangle_select(q, m, d)
                    continue
                e_xy, e_xz, e_yz = fat_triangle_select(q, m, d)
                assert all(0 <= c < mod for c in (e_xy, e_xz, e_yz))
                assert (e_xy + e_xz + e_yz - m) % mod == 0
                assert (e_xy + e_xz - d[0]) % (q - 1) == 0
                assert (e_xy + e_yz - d[1]) % (q - 1) == 0
                assert (e_xz + e_yz - d[2]) % (q - 1) == 0


def test_inductive_select_exhaustive_q3_n6():
    bp = FixerBlueprint(3, 6)
    hits = 0
    for m in range(6):
        for dvec in itertools.product(range(2), repeat=6):
            if sum(dvec) % 2:
                with pytest.raises(ValueError):
                    inductive_select(bp, m, list(dvec))
                continue
            counts = inductive_select(bp, m, list(dvec))
            check_selection(bp, counts, m, dvec)
            hits += 1
    assert hits == 6 * 32


@given(
    st.integers(0, 11),
    st.lists(st.integers(0, 2), min_size=7, max_size=7),
)
@settings(max_examples=150, deadline=None)
def test_inductive_select_q4_n7(m, dvec):
    bp = FixerBlueprint(4, 7)
    if (2 * m - sum(dvec)) % 3:
        with pytest.raises(ValueError):
            inductive_select(bp, m, dvec)
    else:
        check_selection(bp, inductive_select(bp, m, dvec), m, dvec)


def test_inductive_select_rejects_wrong_length():
    bp = FixerBlueprint(3, 6)
    with pytest.raises(ValueError):
        inductive_select(bp, 0, [0] * 5)


# ===================================================================
# Realization and application
# ===================================================================


@pytest.mark.parametrize("q", [3, 4])
def test_realized_fixer_validates_and_applies(q):
    host, emb = realize_fixer(q)
    assert emb.validate(host) == []
    assert sorted(emb.realized_edges()) == host.sorted_edges()
    res = apply_fixer(host, emb)
    assert is_kq_divisible(res.graph, q)
    assert len(res.deleted) <= host.m
    assert set(res.deleted) <= host.edges


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("n_core", [0, 1])
def test_realize_fixer_refuses_a_core_below_two(q, n_core):
    # the first gadget's block would start on its own roots 0 and 1
    with pytest.raises(ValueError, match="n_core must be at least 2"):
        realize_fixer(q, n_core)


@pytest.mark.parametrize("q", [3, 4])
def test_apply_fixer_on_noisy_hosts(q):
    fixer, emb = realize_fixer(q)
    rng = stream(99, f"hosts-{q}")
    for trial in range(10):
        extra = {
            tuple(sorted(rng.sample(range(fixer.n), 2))) for _ in range(3 * fixer.n)
        }
        host = union(fixer, Graph(fixer.n, extra))
        res = apply_fixer(host, emb)
        assert is_kq_divisible(res.graph, q)
        assert len(res.deleted) <= fixer.m
        # only fixer edges are ever deleted
        assert set(res.deleted) <= fixer.edges


def test_apply_fixer_rejects_broken_embeddings():
    host, emb = realize_fixer(3)
    with pytest.raises(ValueError, match="invalid"):
        apply_fixer(Graph(host.n + 1, host.edges), emb)
    missing = Graph(host.n, host.edges - {min(host.edges)})
    with pytest.raises(ValueError, match="invalid"):
        apply_fixer(missing, emb)


def _remap(emb, change):
    """emb with copies of its gadget maps, changed by change."""
    maps = {key: dict(mp) for key, mp in emb.gadget_maps.items()}
    change(maps)
    return EmbeddedFixer(emb.blueprint, emb.order, maps)


# two copies of the gadget on the root pair (0, 1)
K, K2 = (0, 1, 1), (0, 1, 2)
TAMPERED_EMBEDDINGS = {
    "host-size": lambda h, e: (
        Graph(h.n + 1, h.edges), e,
        f"blueprint spans {h.n} vertices, host has {h.n + 1}; "
        "every host vertex needs a degree target",
    ),
    "order-length": lambda h, e: (
        h, EmbeddedFixer(e.blueprint, e.order[:-1], e.gadget_maps),
        "order length does not match the blueprint",
    ),
    "order-repeat": lambda h, e: (
        h, EmbeddedFixer(e.blueprint, e.order[:-1] + (0,), e.gadget_maps),
        "order is not injective",
    ),
    "map-repeat": lambda h, e: (
        h, _remap(e, lambda m: m[K].update({2: m[K][3]})),
        f"gadget {K}: map is not injective",
    ),
    "map-short": lambda h, e: (
        h, _remap(e, lambda m: m[K].pop(2)),
        f"gadget {K}: map does not cover the gadget",
    ),
    "roots-swapped": lambda h, e: (
        h, _remap(e, lambda m: m[K].update({0: m[K][1], 1: m[K][0]})),
        f"gadget {K}: roots are not on the host pair",
    ),
    "copy-missing": lambda h, e: (
        h, _remap(e, lambda m: m.pop(K)),
        "gadget maps do not match the gadget copies",
    ),
    "copies-overlap": lambda h, e: (
        h, _remap(e, lambda m: m.update({K2: dict(m[K])})),
        f"edge {e.gadget_edges(K)[0]} realized twice",
    ),
    "edge-missing": lambda h, e: (
        Graph(h.n, h.edges - {min(h.edges)}), e,
        f"realized edge {min(h.edges)} is not a host edge",
    ),
}


@pytest.mark.parametrize(
    "tamper", TAMPERED_EMBEDDINGS.values(), ids=list(TAMPERED_EMBEDDINGS)
)
def test_validate_reports_each_tampering(tamper):
    host, emb, problem = tamper(*realize_fixer(3))
    assert problem in emb.validate(host)


def test_embedded_fixer_json_round_trip():
    host, emb = realize_fixer(3)
    back = EmbeddedFixer.from_json(emb.to_json())
    assert back.order == emb.order
    assert back.gadget_maps == emb.gadget_maps
    assert back.validate(host) == []
    assert back.to_json() == emb.to_json()
