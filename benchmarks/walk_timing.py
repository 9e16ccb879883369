"""Time the q = 3 pack's fill and walk at four step budgets, total its
leave excess, and hash its triangles.

Usage: python benchmarks/walk_timing.py LABEL [--src DIR]

pipeline._pack_triangles(g, stream(s, "walk"), k * e(G)) for k = 5,
10, 20 and 40, one case per cell and k, each packing every graph of its
cell: gnp(160, 3/10, s) for s = 100-114, gnp(300, 3/10, s) for
s = 7-9, gnd(400, 102, s) for s = 1-3 and gnp(400, 247/1000, 1), the
last at p = n^(-1/3 + 1/10); 3 repeats, on the protocol of timing.py,
into BENCH_walk.json.  The graphs and walk streams are built outside
the timed span.  Stage: _pack_triangles.  leave_excess counts
leave - optimal_leave over the graphs, read as each packing is checked
by verify_packing.  A sha256 covers each graph's triangles.
"""

from fractions import Fraction
from functools import partial

from timing import Case, main

CELLS = (
    ("gnp", 160, Fraction(3, 10), range(100, 115)),
    ("gnp", 300, Fraction(3, 10), range(7, 10)),
    ("gnd", 400, 102, range(1, 4)),
    ("gnp", 400, Fraction(247, 1000), range(1, 2)),
)
STEPS = (5, 10, 20, 40)


def _excess(g, packing):
    from cliqueforge.graphs import optimal_leave_number

    return g.m - 3 * len(packing) - optimal_leave_number(g, 3)


COUNTERS = {"leave_excess": ("graphs.verify_packing", _excess)}


def cases():
    from cliqueforge import graphs, pipeline, randgraphs

    def inputs(kind, n, x, seeds):
        sample = getattr(randgraphs, kind)
        return ([sample(n, x, s) for s in seeds],
                [randgraphs.stream(s, "walk") for s in seeds])

    def walk(k, hosts, rngs):
        out = []
        for g, rng in zip(hosts, rngs):
            triangles = pipeline._pack_triangles(g, rng, k * g.m)
            if not graphs.verify_packing(g, graphs.Packing(3, triangles)).valid:
                raise SystemExit(f"{g}: the walk's triangles are no packing")
            out.append(triangles)
        return out

    for kind, n, x, seeds in CELLS:
        span = f"{seeds[0]}" if len(seeds) == 1 else f"{seeds[0]}-{seeds[-1]}"
        for k in STEPS:
            yield Case(f"{kind}({n}, {x}, s), s = {span}, {k} e(G) steps",
                       partial(walk, k), partial(inputs, kind, n, x, seeds))


if __name__ == "__main__":
    main(__doc__, "BENCH_walk.json", cases, repeats=3, counters=COUNTERS,
         workload="the q = 3 fill and walk at 5, 10, 20 and 40 e(G) steps",
         stages=("pipeline._pack_triangles",))
