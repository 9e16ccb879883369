"""Time the exact 2-density functionals, count their min cuts, and hash
their outputs.

Usage:
    python benchmarks/density_timing.py LABEL [--src DIR]

Times rooted_2_density on fake_edge(q) for q = 4, 5, 6 and on
star_transformer(5), each at its roots, and max_2_density on
gnp(15, 1/2, s) and gnp(18, 1/3, s) for s = 0-9.  Each call runs
REPEATS = 5 times on a fresh copy of its graph, built outside the timed
span, with the package imported from DIR (default: this checkout's
src/).  min_cuts counts the calls of density._source_side, one per
Dinkelbach step, by rebinding the module attribute it is called through,
and cut_nodes sums the free vertices those min cuts ran over.
The run is stored under LABEL in benchmarks/BENCH_density.json, next to
the runs already there: the sha256 of each case's (value, witness, kind),
and the sha256 over all cases, must agree between runs whose outputs are
meant to be identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

from polish_timing import machine, median, parse_label_and_src, save_run

OUT = Path(__file__).resolve().parent / "BENCH_density.json"
GNP = ((15, Fraction(1, 2)), (18, Fraction(1, 3)))
SEEDS = range(10)
REPEATS = 5


def _cases():
    """(case name, functional name, graph, roots or None) for every case."""
    from cliqueforge import gadgets
    from cliqueforge.randgraphs import gnp

    for q in (4, 5, 6):
        f = gadgets.fake_edge(q)
        yield f"rooted_2_density fake_edge({q})", "rooted_2_density", f.graph, f.roots
    t = gadgets.star_transformer(5)
    yield "rooted_2_density star_transformer(5)", "rooted_2_density", t.t, t.roots
    for n, p in GNP:
        for s in SEEDS:
            yield f"max_2_density gnp({n},{p},{s})", "max_2_density", gnp(n, p, s), None


def _call(functional, g, roots):
    """(ms, (min cuts, cut nodes), [value, witness, kind]) of one call on a
    fresh copy of g."""
    from cliqueforge import density
    from cliqueforge.graphs import Graph

    cuts = [0, 0]
    source_side = density._source_side

    def counted(nbrs, root_deg, lam):
        cuts[0] += 1
        cuts[1] += len(nbrs)
        return source_side(nbrs, root_deg, lam)

    fresh = Graph(g.n, g.edges)
    density._source_side = counted
    try:
        t = time.perf_counter()
        if roots is None:
            dv = getattr(density, functional)(fresh)
        else:
            dv = getattr(density, functional)(fresh, roots)
        ms = (time.perf_counter() - t) * 1000
    finally:
        density._source_side = source_side
    return ms, tuple(cuts), [str(dv.value), list(dv.witness), dv.kind]


def run() -> dict:
    cases = {}
    for name, functional, g, roots in _cases():
        samples = [_call(functional, g, roots) for _ in range(REPEATS)]
        outputs = {json.dumps(doc) for _, _, doc in samples}
        if len(outputs) != 1 or len({c for _, c, _ in samples}) != 1:
            raise SystemExit(f"{name}: outputs differ between repeats")
        doc = samples[0][2]
        cases[name] = {
            "n": g.n,
            "m": g.m,
            "ms": median([ms for ms, _, _ in samples]),
            "min_cuts": samples[0][1][0],
            "cut_nodes": samples[0][1][1],
            "value": doc[0],
            "kind": doc[2],
            "sha256": hashlib.sha256(outputs.pop().encode()).hexdigest(),
        }
    return {
        "machine": machine(),
        "repeats": REPEATS,
        "workload": (
            "rooted_2_density on fake_edge(4..6) and star_transformer(5); "
            "max_2_density on gnp(15, 1/2, s) and gnp(18, 1/3, s), s = 0..9"
        ),
        "total_ms": round(sum(c["ms"] for c in cases.values()), 1),
        "total_min_cuts": sum(c["min_cuts"] for c in cases.values()),
        "total_cut_nodes": sum(c["cut_nodes"] for c in cases.values()),
        "sha256": hashlib.sha256(
            "".join(c["sha256"] for c in cases.values()).encode()
        ).hexdigest(),
        "cases": cases,
    }


def main() -> None:
    label = parse_label_and_src(__doc__)
    result = run()
    save_run(OUT, label, result)
    for name, case in result["cases"].items():
        print(f"{label} {name}: {case['ms']} ms, {case['min_cuts']} min cuts "
              f"on {case['cut_nodes']} nodes, sha256 {case['sha256'][:16]}")
    print(f"{label} total: {result['total_ms']} ms, {result['total_min_cuts']} min cuts "
          f"on {result['total_cut_nodes']} nodes, sha256 {result['sha256'][:16]}")


if __name__ == "__main__":
    main()
