"""Time the exact 2-density functionals, count their min cuts, and hash
their outputs.

Usage: python benchmarks/density_timing.py LABEL [--src DIR]

rooted_2_density on fake_edge(4..6) and star_transformer(5) at their
roots, and max_2_density on gnp(15, 1/2, s) and gnp(18, 1/3, s) for
s = 0-9, each on a fresh copy of its graph, 5 repeats, on the
protocol of timing.py, into BENCH_density.json.  min_cuts counts the
density._source_side calls, one per Dinkelbach step, and cut_nodes the
free vertices they ran over.  A sha256 covers (value, witness, kind).
"""

from fractions import Fraction
from itertools import product

from timing import Case, main

COUNTERS = {
    "min_cuts": ("density._source_side", lambda nbrs, root_deg, lam: 1),
    "cut_nodes": ("density._source_side", lambda nbrs, root_deg, lam: len(nbrs)),
}


def cases():
    from cliqueforge import density, gadgets
    from cliqueforge.graphs import Graph
    from cliqueforge.randgraphs import gnp

    def case(name, functional, g, *roots):
        return Case(name, functional, lambda: (Graph(g.n, g.edges), *roots),
                    lambda dv: [str(dv.value), list(dv.witness), dv.kind])

    rooted = density.rooted_2_density
    for q in (4, 5, 6):
        f = gadgets.fake_edge(q)
        yield case(f"rooted_2_density fake_edge({q})", rooted, f.graph, f.roots)
    t = gadgets.star_transformer(5)
    yield case("rooted_2_density star_transformer(5)", rooted, t.t, t.roots)
    for (n, p), s in product(((15, Fraction(1, 2)), (18, Fraction(1, 3))), range(10)):
        yield case(f"max_2_density gnp({n},{p},{s})", density.max_2_density, gnp(n, p, s))


if __name__ == "__main__":
    main(__doc__, "BENCH_density.json", cases, repeats=5, counters=COUNTERS,
         workload="rooted_2_density on fake_edge(4..6) and star_transformer(5); "
                  "max_2_density on gnp(15, 1/2, s) and gnp(18, 1/3, s), s = 0..9")
