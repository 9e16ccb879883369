"""Time the polish stage of pack_gnp(n, 3/10, q=3) and hash its outputs.

Usage: python benchmarks/polish_timing.py LABEL [--src DIR]

pack_gnp at n = 160 (seeds 2000-2004) and n = 300 (seeds 7-9), 3
repeats, on the protocol of timing.py, into BENCH_polish.json.  Stages:
_polish, _augment_pass (the switch walk), design_hypergraph (the clique
index build) and random_greedy_matching (the greedy nibble).  A call's
sha256 covers its report JSON (include_ms=False) and sorted cliques.
"""

from fractions import Fraction
from functools import partial

from timing import Case, main

SEEDS = {160: (2000, 2001, 2002, 2003, 2004), 300: (7, 8, 9)}
STAGES = ("pipeline._polish", "pipeline._augment_pass", "pipeline.design_hypergraph",
          "pipeline.random_greedy_matching")


def _doc(rep):
    return [rep.to_json(include_ms=False), sorted(rep.packing.cliques)]


def cases():
    from cliqueforge.pipeline import pack_gnp

    for n, seeds in SEEDS.items():
        for seed in seeds:
            call = partial(pack_gnp, n, Fraction(3, 10), 3, seed)
            yield Case(f"pack_gnp({n}, 3/10, 3, {seed})", call, doc=_doc)


if __name__ == "__main__":
    main(__doc__, "BENCH_polish.json", cases, repeats=3,
         workload="pack_gnp(n, 3/10, q=3)", stages=STAGES)
