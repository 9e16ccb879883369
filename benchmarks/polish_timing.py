"""Time the polish stage of pack_gnp(n, 3/10, q=3) and hash its outputs.

Usage:
    python benchmarks/polish_timing.py LABEL [--src DIR]

Runs pack_gnp at n = 160 (seeds 2000-2004) and n = 300 (seeds 7-9),
each call REPEATS = 3 times, with the package imported from DIR
(default: this checkout's src/).  _polish, _augment_pass,
design_hypergraph (the clique index build, index_ms) and
random_greedy_matching (the greedy nibble, greedy_ms) are timed by
rebinding the module attributes they are called through; in trees
with the switch walk, _augment_pass is the walk and runs once per pack,
in older trees it is one augmenting-exchange pass of several.  The run
is stored under LABEL in benchmarks/BENCH_polish.json, next to the runs
already there, so a parent tree and a changed tree can be compared in
one file: the sha256 of each call's report JSON (include_ms=False) and
sorted cliques must agree between runs whose outputs are meant to be
identical.

timed, machine, median, parse_label_and_src and save_run are shared with
the other timing scripts in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "BENCH_polish.json"
CASES = {160: (2000, 2001, 2002, 2003, 2004), 300: (7, 8, 9)}
REPEATS = 3


def timed(module, name, log):
    """Rebind module.name to a wrapper that appends each call's ms to log."""
    f = getattr(module, name)

    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            log.append((time.perf_counter() - t) * 1000)

    setattr(module, name, wrapper)
    return f


def _one_call(pipeline, n, seed):
    polish_ms: list[float] = []
    augment_ms: list[float] = []
    index_ms: list[float] = []
    greedy_ms: list[float] = []
    orig = [
        ("_polish", timed(pipeline, "_polish", polish_ms)),
        ("_augment_pass", timed(pipeline, "_augment_pass", augment_ms)),
        ("design_hypergraph", timed(pipeline, "design_hypergraph", index_ms)),
        ("random_greedy_matching", timed(pipeline, "random_greedy_matching", greedy_ms)),
    ]
    try:
        t = time.perf_counter()
        rep = pipeline.pack_gnp(n, Fraction(3, 10), 3, seed)
        total_ms = (time.perf_counter() - t) * 1000
    finally:
        for name, f in orig:
            setattr(pipeline, name, f)
    doc = [rep.to_json(include_ms=False), sorted(rep.packing.cliques)]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return total_ms, sum(polish_ms), augment_ms, digest, sum(index_ms), sum(greedy_ms)


def median(xs):
    return round(statistics.median(xs), 1)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def parse_label_and_src(doc: str) -> str:
    """Read LABEL [--src DIR] and put DIR first on sys.path; return LABEL."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("label", help="key to store this run under, e.g. parent or change")
    ap.add_argument("--src", default=str(HERE.parent / "src"),
                    help="directory holding the cliqueforge package")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    return args.label


def save_run(out: Path, label: str, result: dict) -> None:
    """Store result under label in out, keeping the runs already there."""
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[label] = result
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run() -> dict:
    from cliqueforge import pipeline

    cases = {}
    for n, seeds in CASES.items():
        calls = []
        for seed in seeds:
            samples = [_one_call(pipeline, n, seed) for _ in range(REPEATS)]
            digests = {s[3] for s in samples}
            if len(digests) != 1:
                raise SystemExit(f"n={n} seed={seed}: outputs differ between repeats")
            calls.append({
                "seed": seed,
                "total_ms": median([s[0] for s in samples]),
                "polish_ms": median([s[1] for s in samples]),
                "augment_pass_ms": [
                    median(ms) for ms in zip(*(s[2] for s in samples))
                ],
                "index_ms": median([s[4] for s in samples]),
                "greedy_ms": median([s[5] for s in samples]),
                "sha256": digests.pop(),
            })
        cases[str(n)] = {
            "median_total_ms": median([c["total_ms"] for c in calls]),
            "median_polish_ms": median([c["polish_ms"] for c in calls]),
            "sha256": hashlib.sha256(
                "".join(c["sha256"] for c in calls).encode()
            ).hexdigest(),
            "calls": calls,
        }
    return {
        "machine": machine(),
        "repeats": REPEATS,
        "workload": "pack_gnp(n, 3/10, q=3)",
        "cases": cases,
    }


def main() -> None:
    label = parse_label_and_src(__doc__)
    result = run()
    save_run(OUT, label, result)
    for n, case in result["cases"].items():
        print(f"{label} n={n}: total {case['median_total_ms']} ms, "
              f"polish {case['median_polish_ms']} ms, sha256 {case['sha256'][:16]}")


if __name__ == "__main__":
    main()
