"""Time the exact-cover solver on gadget hosts and hash its outputs.

Usage:
    python benchmarks/exact_cover_timing.py LABEL [--src DIR]

Times exact_decomposition on the anti_clique_absorber(3) and (4) hosts
(L + A), on the star_transformer(q, k) covers (T + L and T + L') and on
K13 at q = 4, times naive_omni_absorber(C6), whose private-absorber
search runs the generic exact_cover_solutions, and times building
anti_clique_absorber(3) and (4), the bundles whose hosts the first
cases cover.  Each call runs
REPEATS = 5 times on a fresh copy of its host, built outside the timed
span, with the package imported from DIR (default: this checkout's
src/).  The run is stored under LABEL in
benchmarks/BENCH_exact_cover.json, next to the runs already there: the
sha256 of each case's status, node count and cliques in search order (of
the omni-absorber's graph and table, and of each built bundle's L, A
and both certificates in order) must agree between runs whose outputs
are meant to be identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from polish_timing import machine, median, parse_label_and_src, save_run

OUT = Path(__file__).resolve().parent / "BENCH_exact_cover.json"
STAR_COVERS = ((3, 2), (3, 4), (3, 6), (4, 2), (5, 2))
REPEATS = 5


def _hosts():
    """(case name, graph, q) for every exact_decomposition case."""
    from cliqueforge import gadgets
    from cliqueforge.graphs import Graph, union

    for q in (3, 4):
        b = gadgets.anti_clique_absorber(q)
        yield f"anti_clique_absorber({q})", union(b.l, b.a), q
    for q, k in STAR_COVERS:
        t = gadgets.star_transformer(q, k)
        yield f"star_transformer({q},{k}) T+L", union(t.t, t.l), q
        yield f"star_transformer({q},{k}) T+L'", union(t.t, t.l_prime), q
    k13 = Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)])
    yield "K13 q=4", k13, 4


def _decomposition_call(g, q):
    from cliqueforge.graphs import Graph
    from cliqueforge.solver import exact_decomposition

    fresh = Graph(g.n, g.edges)
    t = time.perf_counter()
    res = exact_decomposition(fresh, q)
    ms = (time.perf_counter() - t) * 1000
    cliques = list(res.packing.cliques) if res.packing else None
    return ms, [res.status, res.nodes, cliques]


def _omni_call():
    from cliqueforge.gadgets import naive_omni_absorber
    from cliqueforge.graphs import Graph

    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    t = time.perf_counter()
    omni = naive_omni_absorber(c6)
    ms = (time.perf_counter() - t) * 1000
    table = sorted([sorted(key), list(p.cliques)] for key, p in omni.table.items())
    return ms, [omni.a.n, sorted(omni.a.edges), table]


def _absorber_call(q):
    from cliqueforge.gadgets import anti_clique_absorber

    t = time.perf_counter()
    b = anti_clique_absorber(q)
    ms = (time.perf_counter() - t) * 1000
    return ms, [
        b.l.n,
        b.l.sorted_edges(),
        b.a.n,
        b.a.sorted_edges(),
        list(b.decomp_a.cliques),
        list(b.decomp_la.cliques),
    ]


def _case(call) -> dict:
    samples = [call() for _ in range(REPEATS)]
    digests = {
        hashlib.sha256(json.dumps(doc).encode()).hexdigest() for _, doc in samples
    }
    if len(digests) != 1:
        raise SystemExit("outputs differ between repeats")
    doc = samples[0][1]
    case = {"ms": median([ms for ms, _ in samples]), "sha256": digests.pop()}
    if isinstance(doc[0], str):
        case["status"], case["nodes"] = doc[0], doc[1]
    return case


def run() -> dict:
    cases = {
        name: {"n": g.n, "m": g.m, "q": q, **_case(lambda: _decomposition_call(g, q))}
        for name, g, q in _hosts()
    }
    cases["naive_omni_absorber(C6)"] = _case(_omni_call)
    for q in (3, 4):
        cases[f"build anti_clique_absorber({q})"] = _case(lambda: _absorber_call(q))
    return {
        "machine": machine(),
        "repeats": REPEATS,
        "workload": (
            "exact_decomposition on gadget hosts; naive_omni_absorber(C6); "
            "anti_clique_absorber(3) and (4) builds"
        ),
        "total_ms": round(sum(c["ms"] for c in cases.values()), 1),
        "cases": cases,
    }


def main() -> None:
    label = parse_label_and_src(__doc__)
    result = run()
    save_run(OUT, label, result)
    for name, case in result["cases"].items():
        print(f"{label} {name}: {case['ms']} ms, sha256 {case['sha256'][:16]}")
    print(f"{label} total: {result['total_ms']} ms")


if __name__ == "__main__":
    main()
