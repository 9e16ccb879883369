"""Byte-level pins of the pipeline and exact-engine outputs.

The digest covers the schedule-free report JSON, the sorted cliques and
the sorted deleted edges of a few fixed pipeline runs (the nibble with
reserves and the polish walk, a q=4 run, the exact-cutoff path, a
regular host), plus exact-cover and minimum-leave
results.  A second digest covers two pack_gnp(160, 3/10, 3) calls, where
the polish walk makes thousands of switches per call, and a min-leave
search that runs out of its node budget.  A third digest covers fractional weightings,
serialized with their range diagnostics: unit-target decompositions of
G(n, 9/10) (refusals included), a boost with non-uniform targets, a
two-layer boost and a q=4 boost.  A fourth pins the exact cover of the
anti_clique_absorber(4) host, 1,186 cliques deep.  A fifth pins the
gadget layouts (fake edges, the anti-clique, nabla and omni absorbers
with their certificates in order) and two fixer embeddings with the
random state each leaves behind.  A sixth pins the fixer embedding's
failures, and the random state each leaves behind, on twenty
gnd(60, 12) hosts with their pools sliced as the pipeline slices them;
a seventh pins the min-leave search, node counts included, on twenty
small hosts at q = 3 and 4; an eighth pins fix_by_deletion's deleted
edges, and the random state it leaves behind, on fifty hosts at
q = 3, 4 and 5.
Any change to a visit order or a random draw shows up here, so a
refactor that promises identical outputs is held to it.
"""

import hashlib
import json
from collections import Counter
from fractions import Fraction

from cliqueforge.fractional import (
    CliqueWeighting,
    boost,
    fractional_kq_decomposition,
    serialize_weighting,
)
from cliqueforge.gadgets import (
    anti_clique_absorber,
    fake_edge,
    nabla_absorber,
    naive_omni_absorber,
)
from cliqueforge.graphs import Graph, union
from cliqueforge.pipeline import (
    GADGET_FRAC,
    EmbedFailure,
    embed_fixer,
    fix_by_deletion,
    pack_gnd,
    pack_gnp,
)
from cliqueforge.randgraphs import gnd, gnp, slice_graph, stream
from cliqueforge.solver import (
    SolveBudget,
    enumerate_cliques,
    exact_decomposition,
    min_leave_packing,
)

from oracles import complete_graph, cycle_graph, two_layer_boost

PINNED = "35d718aa46e1cb9d3614255f768e9462915faf35d86d6a35765d0d940e368b9c"
PINNED_AT_SCALE = "56dd2faeb02f0ff3c81b0a167df22507a1b939c6aa280bf7f5858d57c1c38c1d"
PINNED_FRACTIONAL = "1a8a9d2c9b4fb487dd7b8e617afd0ee18d40ba8f2cc2bff0a910c5a331b4c7ef"
# the cliques of the anti_clique_absorber(4) host's decomposition, in
# the order the search took them
PINNED_COVER = "b8e9da1c5d7fe15e352c8cfbd61810b05404dbc5857d0b17312c0c47e6b39459"
PINNED_GADGETS = "0a7ce6a9fd8b62163b6d2408aec47b5467277f452cb0713152d08b436e62d684"
PINNED_EMBED_GND = "3c131f0f9bb7479ac174e408cfbb90567336b53ab8be95e3dd894be0a5a0578b"
PINNED_MIN_LEAVE = "007ec31c2a93d7016ba089121700eb0524c014ef868eb89013ed895b0affdcc6"
PINNED_DELETION = "fdc6a747d78ffd831c50470d6b00a8429a0ae747b8b75ce9b4aac1cfa41a45f4"


def _pack_doc(rep):
    return [
        rep.fixer_mode,
        rep.to_json(include_ms=False),
        sorted(rep.packing.cliques),
        sorted(rep.deleted),
    ]


def _outputs():
    docs = [
        _pack_doc(pack_gnp(60, Fraction(3, 10), 3, 2)),
        _pack_doc(pack_gnp(16, Fraction(3, 4), 4, 3)),
        _pack_doc(pack_gnp(11, Fraction(1, 2), 3, 1)),
    ]
    docs.append(_pack_doc(pack_gnd(60, 12, 3, 3)))
    for g, q in ((gnp(11, Fraction(1, 2), 4), 3), (gnp(10, Fraction(3, 4), 5), 4)):
        res = min_leave_packing(g, q)
        docs.append([res.status, res.leave, res.nodes, sorted(res.packing.cliques)])
    res = exact_decomposition(complete_graph(9), 3)
    docs.append([res.status, res.nodes, list(res.packing.cliques)])
    docs.append(_pack_doc(pack_gnp(60, Fraction(3, 10), 3, 3)))
    return docs


def _outputs_at_scale():
    docs = [_pack_doc(pack_gnp(160, Fraction(3, 10), 3, s)) for s in (2000, 2001)]
    g = gnp(60, Fraction(1, 5), 1)
    res = min_leave_packing(g, 3, SolveBudget(max_nodes=3000))
    docs.append([res.status, res.leave, res.nodes, sorted(res.packing.cliques)])
    return docs


def _boost_doc(res):
    return [
        serialize_weighting(res.weighting),
        res.in_range,
        str(res.max_deviation),
        [str(c) for c in res.c_range],
    ]


def _fractional_outputs():
    docs = []
    for n in (9, 11, 13, 15):
        for s in (0, 1, 2, 9, 12):
            try:
                res = fractional_kq_decomposition(gnp(n, Fraction(9, 10), s), 3)
            except ValueError as exc:
                docs.append(["refused", n, s, str(exc)])
            else:
                docs.append([n, s] + _boost_doc(res))
    g = gnp(10, Fraction(9, 10), 1)
    h, qs = enumerate_cliques(g, 3), enumerate_cliques(g, 5)
    targets = {(u, v): Fraction((3 * u + v) % 7 + 1, 8) for u, v in g.sorted_edges()}
    docs.append(_boost_doc(boost(g, 3, h, qs, targets, Fraction(37, 4))))
    g = gnp(11, Fraction(9, 10), 0)
    h, qs = enumerate_cliques(g, 3), enumerate_cliques(g, 5)
    first = CliqueWeighting(3, {c: Fraction(1, 20) for c in h[::3]})
    d = Fraction(3 * len(h), g.m)
    docs.append(_boost_doc(two_layer_boost(g, 3, first, h, qs, Fraction(1, 2), d)))
    docs.append(_boost_doc(fractional_kq_decomposition(gnp(10, Fraction(19, 20), 2), 4)))
    return docs


def _bundle_doc(b):
    return [
        b.l.n,
        b.l.sorted_edges(),
        b.a.n,
        b.a.sorted_edges(),
        list(b.roots),
        list(b.decomp_a.cliques),
        list(b.decomp_la.cliques),
    ]


def _embedding_doc(g, q, rng, pool):
    emb = embed_fixer(g, q, rng, pool)
    return [emb.to_json(), rng.getstate()]


def _gadget_outputs():
    docs = []
    for q in range(3, 7):
        g = fake_edge(q).graph
        docs.append([g.n, g.sorted_edges()])
    for q, k in ((3, 2), (3, 4), (4, 2)):
        docs.append(_bundle_doc(anti_clique_absorber(q, k)))
    booster = anti_clique_absorber(3)
    docs.append(_bundle_doc(nabla_absorber(booster.l, booster, base=booster)))
    docs.append(_bundle_doc(nabla_absorber(complete_graph(3), booster)))
    omni = naive_omni_absorber(cycle_graph(6))
    docs.append([
        omni.a.n,
        omni.a.sorted_edges(),
        [[sorted(key), list(p.cliques)] for key, p in omni.table.items()],
    ])
    # the pool sliced as the pipeline slices it for pack_gnp(160, 3/10, 3, 2000)
    seed = 2000
    g = gnp(160, Fraction(3, 10), seed)
    pool, _ = slice_graph(g, GADGET_FRAC, seed ^ 0x67616467)
    docs.append(_embedding_doc(g, 3, stream(seed, "embed"), pool))
    g = complete_graph(130)
    pool = Graph(g.n, {(u, v) for u, v in g.edges if v - u > 2})
    docs.append(_embedding_doc(g, 4, stream(0, "embed"), pool))
    return docs


def _digest(docs):
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def test_outputs_match_the_pinned_digest():
    docs = _outputs()
    assert docs[-1][1]["stages"]["reserve"] > 0  # reserve completion ran
    assert docs[2][0] == "exact"  # the exact-cutoff path
    assert _digest(docs) == PINNED


def test_polish_heavy_outputs_match_the_pinned_digest():
    """n=160 packs, where the polish walk makes thousands of switches,
    and a min-leave search that runs into its node budget."""
    docs = _outputs_at_scale()
    assert [d[0] for d in docs[:2]] == ["embedded", "embedded"]
    assert docs[2][:1] == ["budget"]
    assert _digest(docs) == PINNED_AT_SCALE


def test_fractional_outputs_match_the_pinned_digest():
    """Weightings and diagnostics of the boost, refusals included."""
    docs = _fractional_outputs()
    assert [d[:3] for d in docs if d[0] == "refused"] == [
        ["refused", 9, 12],
        ["refused", 11, 9],
    ]
    assert _digest(docs) == PINNED_FRACTIONAL


def test_absorber_host_cover_matches_the_pinned_digest():
    """1,186 K4s, one search node each: the column choice and the row
    order decide every clique."""
    b = anti_clique_absorber(4)
    res = exact_decomposition(union(b.l, b.a), 4)
    assert (res.status, res.nodes) == ("found", 1186)
    assert _digest(list(res.packing.cliques)) == PINNED_COVER


def test_gadget_layouts_match_the_pinned_digest():
    """Every anti-edge layout: the gadgets, the absorbers with their
    certificates in order, and where the fixer placed its gadgets."""
    assert _digest(_gadget_outputs()) == PINNED_GADGETS


def _embed_gnd_outputs():
    """embed_fixer at q = 3 on gnd(60, 12, s), s = 0-19, with the pool
    sliced as the pipeline slices it: each failure (or embedding) and
    the random state it leaves behind."""
    docs = []
    for seed in range(20):
        g = gnd(60, 12, seed)
        pool, _ = slice_graph(g, GADGET_FRAC, seed ^ 0x67616467)
        rng = stream(seed, "embed")
        try:
            out = embed_fixer(g, 3, rng, pool).to_json()
        except EmbedFailure as exc:
            out = str(exc)
        docs.append([out, rng.getstate()])
    return docs


def test_embedding_failures_on_regular_hosts_match_the_pinned_digest():
    docs = _embed_gnd_outputs()
    assert all(d[0].startswith("gadget (0, ") for d in docs)
    assert _digest(docs) == PINNED_EMBED_GND


def test_min_leave_searches_match_the_pinned_digest():
    docs = []
    for n, p, q in ((11, Fraction(1, 2), 3), (10, Fraction(3, 4), 4)):
        for s in range(10):
            res = min_leave_packing(gnp(n, p, s), q)
            docs.append([res.status, res.leave, res.nodes, sorted(res.packing.cliques)])
    assert all(d[0] == "optimal" for d in docs)
    assert _digest(docs) == PINNED_MIN_LEAVE


def test_deletion_repairs_match_the_pinned_digest():
    """fix_by_deletion on ten seeds of five hosts: the sorted deleted
    edges and a digest of the random state each call leaves behind.
    The repair is known to delete the whole host on 3 of the q = 4 and
    7 of the q = 5 hosts; the pin records that as it is."""
    hosts = (
        (3, lambda s: gnd(60, 12, s)),
        (3, lambda s: gnp(26, Fraction(2, 5), s)),
        (4, lambda s: gnp(16, Fraction(3, 4), s)),
        (4, lambda s: gnp(60, Fraction(1, 2), s)),
        (5, lambda s: gnp(30, Fraction(3, 4), s)),
    )
    docs, emptied = [], Counter()
    for q, host in hosts:
        for s in range(10):
            rng = stream(s, "embed")
            rest, deleted = fix_by_deletion(host(s), q, rng)
            docs.append([sorted(deleted), _digest(rng.getstate())])
            emptied[q] += rest.m == 0
    assert emptied == {3: 0, 4: 3, 5: 7}
    assert _digest(docs) == PINNED_DELETION
