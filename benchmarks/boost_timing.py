"""Time the fractional boost on G(n, 9/10) and the edge gadget solve,
and hash their outputs.

Usage:
    python benchmarks/boost_timing.py LABEL [--src DIR]

Runs fractional_kq_decomposition(gnp(n, 9/10, seed), 3) for n = 9, 11,
13, 15 and seeds 0-4, and edge_gadget(q, r) for (q, r) = (6, 2),
(6, 3), (5, 4) with the gadget cache cleared first, each call
REPEATS = 5 times, with the package imported from DIR (default: this
checkout's src/).  boost is timed by rebinding the module attribute
fractional_kq_decomposition calls it through.  The run is stored under
LABEL in benchmarks/BENCH_boost.json, next to the runs already there:
the sha256 of each boost call's serialized weighting and (in_range,
max_deviation, c_range), or of its refusal, and of each gadget's
sorted weights must agree between runs whose outputs are meant to be
identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

from polish_timing import machine, median, parse_label_and_src, save_run, timed

OUT = Path(__file__).resolve().parent / "BENCH_boost.json"
CASES = {n: (0, 1, 2, 3, 4) for n in (9, 11, 13, 15)}
GADGETS = ((6, 2), (6, 3), (5, 4))
REPEATS = 5


def _one_call(fractional, g):
    boost_ms: list[float] = []
    orig = timed(fractional, "boost", boost_ms)
    try:
        t = time.perf_counter()
        try:
            res = fractional.fractional_kq_decomposition(g, 3)
        except ValueError as exc:
            res = exc
        total_ms = (time.perf_counter() - t) * 1000
    finally:
        fractional.boost = orig
    if isinstance(res, ValueError):
        doc = ["refused", str(res)]
    else:
        doc = [
            fractional.serialize_weighting(res.weighting),
            res.in_range,
            str(res.max_deviation),
            [str(c) for c in res.c_range],
        ]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    return total_ms, sum(boost_ms), digest


def _gadget_call(fractional, q, r):
    fractional._canonical_gadget.cache_clear()
    t = time.perf_counter()
    gad = fractional.edge_gadget(q, r)
    ms = (time.perf_counter() - t) * 1000
    doc = [[list(h), str(v)] for h, v in sorted(gad.psi.items())]
    return ms, hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def run() -> dict:
    from cliqueforge import fractional
    from cliqueforge.randgraphs import gnp

    cases = {}
    for n, seeds in CASES.items():
        calls = []
        for seed in seeds:
            g = gnp(n, Fraction(9, 10), seed)
            samples = [_one_call(fractional, g) for _ in range(REPEATS)]
            digests = {s[2] for s in samples}
            if len(digests) != 1:
                raise SystemExit(f"n={n} seed={seed}: outputs differ between repeats")
            calls.append({
                "seed": seed,
                "total_ms": median([s[0] for s in samples]),
                "boost_ms": median([s[1] for s in samples]),
                "sha256": digests.pop(),
            })
        cases[str(n)] = {
            "median_total_ms": median([c["total_ms"] for c in calls]),
            "median_boost_ms": median([c["boost_ms"] for c in calls]),
            "sha256": hashlib.sha256(
                "".join(c["sha256"] for c in calls).encode()
            ).hexdigest(),
            "calls": calls,
        }
    gadgets = {}
    for q, r in GADGETS:
        samples = [_gadget_call(fractional, q, r) for _ in range(REPEATS)]
        digests = {s[1] for s in samples}
        if len(digests) != 1:
            raise SystemExit(f"edge_gadget({q}, {r}): outputs differ between repeats")
        gadgets[f"{q},{r}"] = {
            "ms": median([s[0] for s in samples]),
            "sha256": digests.pop(),
        }
    return {
        "machine": machine(),
        "repeats": REPEATS,
        "workload": "fractional_kq_decomposition(gnp(n, 9/10, seed), 3); "
                    "edge_gadget(q, r), gadget cache cleared",
        "cases": cases,
        "gadgets": gadgets,
    }


def main() -> None:
    label = parse_label_and_src(__doc__)
    result = run()
    save_run(OUT, label, result)
    for n, case in result["cases"].items():
        print(f"{label} n={n}: total {case['median_total_ms']} ms, "
              f"boost {case['median_boost_ms']} ms, sha256 {case['sha256'][:16]}")
    for qr, case in result["gadgets"].items():
        print(f"{label} edge_gadget({qr}): {case['ms']} ms, sha256 {case['sha256'][:16]}")


if __name__ == "__main__":
    main()
