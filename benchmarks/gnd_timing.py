"""Time the d-regular sampler gnd and pack_gnd, and hash their outputs.

Usage:
    python benchmarks/gnd_timing.py LABEL [--src DIR]

Times gnd(n, d, s) at (n, d) = (60, 12), (100, 36), (200, 60),
(400, 102) and (800, 174), and pack_gnd(n, d, 3, s) at (60, 12) and
(400, 102), for seeds s = 1-3; each call runs REPEATS = 3 times with
the package imported from DIR (default: this checkout's src/).  Apart
from (60, 12), the cells take d as the smallest even integer at least
n^(2/3 + 1/10) with 3 | dn, the paper's G(n, d) regime.  The run is
stored under LABEL in benchmarks/BENCH_gnd.json, next to the runs
already there: the sha256 of each sampled edge set and of each pack's
report JSON (include_ms=False), sorted cliques and sorted deleted
edges, and the sha256 over each cell's calls, must agree between runs
whose outputs are meant to be identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from polish_timing import machine, median, parse_label_and_src, save_run

OUT = Path(__file__).resolve().parent / "BENCH_gnd.json"
GND_CELLS = ((60, 12), (100, 36), (200, 60), (400, 102), (800, 174))
PACK_CELLS = ((60, 12), (400, 102))
SEEDS = (1, 2, 3)
REPEATS = 3


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _pack_doc(rep):
    return [rep.to_json(include_ms=False), sorted(rep.packing.cliques), sorted(rep.deleted)]


def _cell(call, doc, n, d):
    """Median ms and output hash of call(n, d, s) for each seed."""
    calls = []
    for seed in SEEDS:
        ms, digests = [], set()
        for _ in range(REPEATS):
            t = time.perf_counter()
            out = call(n, d, seed)
            ms.append((time.perf_counter() - t) * 1000)
            digests.add(_sha256(doc(out)))
        if len(digests) != 1:
            raise SystemExit(f"({n}, {d}) seed={seed}: outputs differ between repeats")
        calls.append({"seed": seed, "ms": median(ms), "sha256": digests.pop()})
    return {
        "median_ms": median([c["ms"] for c in calls]),
        "sha256": hashlib.sha256("".join(c["sha256"] for c in calls).encode()).hexdigest(),
        "calls": calls,
    }


def run() -> dict:
    from cliqueforge.pipeline import pack_gnd
    from cliqueforge.randgraphs import gnd

    # untimed, so that the first timed call pays no first-call costs
    pack_gnd(60, 12, 3, 0)
    return {
        "machine": machine(),
        "repeats": REPEATS,
        "workload": "gnd(n, d, s) and pack_gnd(n, d, 3, s), s = 1-3",
        "gnd": {f"{n},{d}": _cell(gnd, lambda g: g.sorted_edges(), n, d)
                for n, d in GND_CELLS},
        "pack_gnd": {
            f"{n},{d}": _cell(lambda n, d, s: pack_gnd(n, d, 3, s), _pack_doc, n, d)
            for n, d in PACK_CELLS
        },
    }


def main() -> None:
    label = parse_label_and_src(__doc__)
    result = run()
    save_run(OUT, label, result)
    for kind in ("gnd", "pack_gnd"):
        for cell, case in result[kind].items():
            print(f"{label} {kind}({cell}): {case['median_ms']} ms, "
                  f"sha256 {case['sha256'][:16]}")


if __name__ == "__main__":
    main()
