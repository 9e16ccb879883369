"""Acceptance checklist: one test per shipping criterion.

Each test re-checks a headline guarantee end to end and enforces the
wall-clock budget it is expected to meet on commodity hardware.  These
are deliberately redundant with the unit suites; a failure here means
a release-blocking regression, not a style problem.

The first test is expected to fail: the claimed rooted 2-density of
the fake-edge gadget at its bare root pair does not hold for any q
(the maximum needs the hub vertices rooted as well; the pinned true
values live in test_density.py).  It is kept red on purpose rather
than weakened, so the discrepancy stays visible.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from cliqueforge.density import rooted_2_density
from cliqueforge.fixers import FixerBlueprint, apply_fixer, inductive_select, realize_fixer
from cliqueforge.fractional import edge_gadget, fractional_kq_decomposition, fractional_problems
from cliqueforge.gadgets import (
    anti_clique_absorber,
    anti_edge,
    fake_edge,
    nabla,
    nabla_absorber,
    naive_omni_absorber,
    star_transformer,
    trivial_absorber,
)
from cliqueforge.graphs import Graph, is_kq_divisible, union, verify_packing
from cliqueforge.pipeline import bench, design_hypergraph, pack_gnd, pack_gnp
from cliqueforge.randgraphs import gnp, stream
from cliqueforge.solver import (
    exact_decomposition,
    min_leave_packing,
    verify_absorber,
    verify_transformer,
)

from oracles import absorber_nonroot_degrees, complete_graph, cycle_graph, max_codegree


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds:.0f}s"


# -------------------------------------------------------------------
# 1. gadget rooted densities
# -------------------------------------------------------------------


def test_01_gadget_rooted_densities_hit_the_target():
    t0 = time.perf_counter()
    for q in range(3, 7):
        gad = anti_edge(q)
        assert rooted_2_density(gad.graph, gad.roots).value == Fraction(q + 1, 2)
    problems = []
    for q in range(3, 7):
        gad = fake_edge(q)
        try:
            got = rooted_2_density(gad.graph, gad.roots).value
        except ValueError:
            problems.append(f"q={q}: {gad.graph.n} vertices exceed the enumeration cap")
            continue
        if got != Fraction(q + 1, 2):
            problems.append(f"q={q}: got {got}, want {Fraction(q + 1, 2)}")
    assert time.perf_counter() - t0 < 5.0
    assert not problems, (
        "fake-edge rooted 2-density at the bare root pair: " + "; ".join(problems)
    )


# -------------------------------------------------------------------
# 2. transformers
# -------------------------------------------------------------------


def test_02_transformer_certificates_and_density_bound():
    with budget(10.0):
        for q, k in ((3, 2), (3, 4), (3, 6), (4, None), (5, None)):
            t = star_transformer(q, k) if k is not None else star_transformer(q)
            assert verify_transformer(t) == []
            got = rooted_2_density(t.t, t.roots).value
            bound = 3 + Fraction(1, k) if q == 3 else q + Fraction(1, 2)
            assert got <= bound, (q, k, got)


# -------------------------------------------------------------------
# 3. absorbers
# -------------------------------------------------------------------


def test_03_absorbers_validate_with_the_degree_floor():
    with budget(60.0):
        for q in (3, 4):
            b = anti_clique_absorber(q)
            assert verify_absorber(b) == []
            assert min(absorber_nonroot_degrees(b).values()) >= 2 * q - 2
        booster = anti_clique_absorber(3)
        leftover = nabla(3, complete_graph(3))
        b = nabla_absorber(leftover, booster, base=booster)
        assert verify_absorber(b) == []
        assert min(absorber_nonroot_degrees(b).values()) >= 4


# -------------------------------------------------------------------
# 4. fixers
# -------------------------------------------------------------------


def check_congruences(bp, counts, m, dvec):
    # recomputed from scratch, independent of the selection code
    got = [0] * bp.n
    total = 0
    for (u, v), c in counts.items():
        assert 0 <= c <= bp.copies(u, v)
        got[u] += c
        got[v] += c
        total += c
    assert total % math.comb(bp.q, 2) == m % math.comb(bp.q, 2)
    for v in range(bp.n):
        assert (got[v] - dvec[v]) % (bp.q - 1) == 0


def test_04_fixer_congruences_exhaustively_and_on_random_hosts():
    with budget(60.0):
        bp = FixerBlueprint(3, 6)
        hits = 0
        for m in range(6):
            for dvec in itertools.product(range(2), repeat=6):
                if sum(dvec) % 2 != 0:
                    continue
                check_congruences(bp, inductive_select(bp, m, list(dvec)), m, dvec)
                hits += 1
        assert hits == 6 * 32

        bp = FixerBlueprint(4, 7)
        hits = 0
        for m in range(12):
            for dvec in itertools.product(range(3), repeat=7):
                if (sum(dvec) - 2 * m) % 3 != 0:
                    continue
                check_congruences(bp, inductive_select(bp, m, list(dvec)), m, dvec)
                hits += 1
        assert hits == 12 * 3 ** 6

        for q in (3, 4):
            host, emb = realize_fixer(q, 10)
            rng = stream(99, f"acceptance-hosts-{q}")
            for _ in range(100):
                extra = []
                for _ in range(3 * host.n):
                    u = rng.randrange(host.n)
                    v = rng.randrange(host.n)
                    if u != v:
                        extra.append((u, v))
                g = union(host, Graph(host.n, extra))
                res = apply_fixer(g, emb)
                assert is_kq_divisible(res.graph, q)
                assert len(res.deleted) <= host.m


# -------------------------------------------------------------------
# 5. fractional decompositions
# -------------------------------------------------------------------


def test_05_fractional_gadget_boost_and_load_identity():
    with budget(30.0):
        gad = edge_gadget(3, 2)
        universe = tuple(sorted(set(gad.e) | set(gad.j)))
        for sub in itertools.combinations(universe, gad.r):
            want = Fraction(1) if sub == tuple(sorted(gad.e)) else Fraction(0)
            load = sum(
                (v for h, v in gad.psi.items() if set(sub) <= set(h)),
                start=Fraction(0),
            )
            assert load == want
        assert gad.max_abs <= 8

        g = complete_graph(7)
        res = fractional_kq_decomposition(g, 3)
        assert len(res.weighting) == 35
        assert all(v == Fraction(1, 5) for v in res.weighting.weights.values())
        assert fractional_problems(g, res.weighting, "decomposition") == []

        hits = 0
        for seed in range(80):
            if hits == 50:
                break
            h = gnp(10 + seed % 6, Fraction(9, 10), seed)
            try:
                r = fractional_kq_decomposition(h, 3)
            except ValueError:
                continue
            loads = r.weighting.loads()
            assert all(loads[e] == 1 for e in h.sorted_edges())
            hits += 1
        assert hits == 50


# -------------------------------------------------------------------
# 6. design hypergraph arithmetic
# -------------------------------------------------------------------


def test_06_design_hypergraphs_are_regular_with_small_codegree():
    with budget(5.0):
        for n in range(5, 13):
            h = design_hypergraph(complete_graph(n), 3)
            for through in h.through:
                assert len(through) == math.comb(n - 2, 1)
            assert max_codegree(h.hedges) <= math.comb(n - 3, 0)
        for n in range(6, 13):
            h = design_hypergraph(complete_graph(n), 4)
            for through in h.through:
                assert len(through) == math.comb(n - 2, 2)


# -------------------------------------------------------------------
# 7. the leave bound over a large packing population
# -------------------------------------------------------------------


def test_07_no_packing_ever_beats_the_leave_bound():
    with budget(120.0):
        produced = 0
        violations = []

        def tally(rep):
            nonlocal produced
            assert rep.valid
            # the pipeline packing misses exactly deleted + leave edges
            # of the input graph, so that sum is what the bound limits
            missed = rep.stages["fixer_deleted"] + rep.leave
            if missed < rep.optimal_leave:
                violations.append(rep.to_json()["params"])
            produced += 1

        for seed in range(150):
            tally(pack_gnp(18, Fraction(1, 2), 3, seed))
            tally(pack_gnp(22, Fraction(2, 5), 3, seed))
        for seed in range(100):
            tally(pack_gnd(16, 7, 3, seed))
            tally(pack_gnp(16, Fraction(3, 4), 4, seed))
        assert produced >= 500
        assert violations == []

        # and the bound is tight where the exact solver can reach it
        assert min_leave_packing(complete_graph(4), 3).leave == 3
        assert min_leave_packing(complete_graph(7), 3).leave == 0


# -------------------------------------------------------------------
# 8. the exact solver rediscovers every small certificate
# -------------------------------------------------------------------


def test_08_exact_solver_rediscovers_certificate_decompositions():
    with budget(300.0):
        hosts = []
        for q, k in ((3, 2), (3, 4), (3, 6), (4, None), (5, None)):
            t = star_transformer(q, k) if k is not None else star_transformer(q)
            hosts.append((union(t.t, t.l), q))
            hosts.append((union(t.t, t.l_prime), q))
        for q in (3, 4):
            b = anti_clique_absorber(q)
            hosts.append((union(b.l, b.a), q))
        tb = trivial_absorber(complete_graph(3), 3)
        hosts.append((union(tb.l, tb.a), 3))
        oa = naive_omni_absorber(cycle_graph(6))
        for key in oa.table:
            hosts.append((union(Graph(oa.a.n, key), oa.a), 3))

        checked = 0
        for g, q in hosts:
            if g.m > 60:
                continue
            res = exact_decomposition(g, q)
            assert res.status == "found", (g.n, g.m, q)
            rep = verify_packing(g, res.packing)
            assert rep.valid and rep.leave.m == 0
            checked += 1
        assert checked >= 10


# -------------------------------------------------------------------
# 9. labeled empirical regression on random graphs
# -------------------------------------------------------------------


def test_09_random_graph_packing_regression():
    leaves = []
    for seed in range(10):
        t0 = time.perf_counter()
        rep = pack_gnp(300, Fraction(3, 10), 3, seed)
        assert time.perf_counter() - t0 < 60.0
        assert rep.valid
        leaves.append(rep.leave)
    assert sum(leaves) / len(leaves) <= 2 * 300

    for seed in range(10):
        rep = pack_gnd(60, 12, 3, seed)
        assert rep.valid
        assert rep.stages["fixer_deleted"] + rep.leave >= rep.optimal_leave


# -------------------------------------------------------------------
# 10. determinism under threading
# -------------------------------------------------------------------


def test_10_bench_json_is_identical_at_1_2_and_8_threads():
    blobs = []
    for threads in (1, 2, 8):
        doc, _ = bench("gnp", 26, 3, 10, 42, threads=threads, p=Fraction(2, 5), d=None)
        blobs.append(json.dumps(doc, indent=2, sort_keys=True).encode())
    assert blobs[0] == blobs[1] == blobs[2]


# -------------------------------------------------------------------
# 11. the packing misses at most n edges of G(n, p)
# -------------------------------------------------------------------


def test_11_pack_misses_at_most_n_edges_on_average():
    """The paper's leave is (q-2)n + O(1); counted here is every edge of
    G the packing misses, fixer deletions included."""
    with budget(120.0):
        missed = []
        for seed in range(10):
            rep = pack_gnp(300, Fraction(3, 10), 3, seed)
            assert rep.valid
            missed.append(rep.stages["fixer_deleted"] + rep.leave)
        assert sum(missed) / len(missed) <= 300
