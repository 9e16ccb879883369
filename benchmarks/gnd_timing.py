"""Time the d-regular sampler gnd and pack_gnd, and hash their outputs.

Usage: python benchmarks/gnd_timing.py LABEL [--src DIR]

gnd(n, d, s) at (60, 12), (100, 36), (200, 60), (400, 102), (800, 174)
and pack_gnd(n, d, 3, s) at (60, 12), (400, 102), s = 1-3, 3 repeats,
on the protocol of timing.py, into BENCH_gnd.json; an untimed
pack_gnd(60, 12, 3, 0) pays the first-call costs.  Past (60, 12), d is
the least even d >= n^(2/3 + 1/10) with 3 | dn, the paper's regime.  A
sha256 covers the edges, or the report JSON (include_ms=False), sorted
cliques and sorted deleted edges.
"""

from functools import partial
from itertools import product

from timing import Case, main

GND_CELLS = ((60, 12), (100, 36), (200, 60), (400, 102), (800, 174))
PACK_CELLS = ((60, 12), (400, 102))
SEEDS = (1, 2, 3)


def _pack_doc(rep):
    return [rep.to_json(include_ms=False), sorted(rep.packing.cliques), sorted(rep.deleted)]


def cases():
    from cliqueforge.pipeline import pack_gnd
    from cliqueforge.randgraphs import gnd

    pack_gnd(60, 12, 3, 0)
    for (n, d), s in product(GND_CELLS, SEEDS):
        yield Case(f"gnd({n}, {d}, {s})", partial(gnd, n, d, s), doc=lambda g: g.sorted_edges())
    for (n, d), s in product(PACK_CELLS, SEEDS):
        yield Case(f"pack_gnd({n}, {d}, 3, {s})", partial(pack_gnd, n, d, 3, s), doc=_pack_doc)


if __name__ == "__main__":
    main(__doc__, "BENCH_gnd.json", cases, repeats=3,
         workload="gnd(n, d, s) and pack_gnd(n, d, 3, s), s = 1-3")
