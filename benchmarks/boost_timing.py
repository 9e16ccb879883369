"""Time the fractional boost on G(n, 9/10) and the edge gadget solve,
and hash their outputs.

Usage: python benchmarks/boost_timing.py LABEL [--src DIR]

fractional_kq_decomposition(gnp(n, 9/10, seed), 3) for n = 9..15 odd
and seeds 0-4, with boost as a stage, and edge_gadget(q, r) at (6, 2),
(6, 3), (5, 4) with the gadget cache cleared, 5 repeats, on the
protocol of timing.py, into BENCH_boost.json.  A sha256 covers the
serialized weighting and (in_range, max_deviation, c_range), or the
refusal, or the gadget's sorted weights.
"""

from fractions import Fraction
from functools import partial
from itertools import product

from timing import Case, main


def cases():
    from cliqueforge import fractional
    from cliqueforge.randgraphs import gnp

    def decompose(g):
        try:
            return fractional.fractional_kq_decomposition(g, 3)
        except ValueError as exc:  # a refusal is an output too
            return ["refused", str(exc)]

    def decomposition_doc(res):
        if isinstance(res, list):
            return res
        return [fractional.serialize_weighting(res.weighting), res.in_range,
                str(res.max_deviation), [str(c) for c in res.c_range]]

    def cleared(q, r):
        fractional._canonical_gadget.cache_clear()
        return q, r

    for n, seed in product((9, 11, 13, 15), range(5)):
        yield Case(f"fractional_kq_decomposition(gnp({n}, 9/10, {seed}), 3)", decompose,
                   lambda n=n, seed=seed: (gnp(n, Fraction(9, 10), seed),), decomposition_doc)
    for q, r in ((6, 2), (6, 3), (5, 4)):
        yield Case(f"edge_gadget({q}, {r})", fractional.edge_gadget, partial(cleared, q, r),
                   lambda gad: [[list(h), str(v)] for h, v in sorted(gad.psi.items())])


if __name__ == "__main__":
    main(__doc__, "BENCH_boost.json", cases, repeats=5, stages=("fractional.boost",),
         workload="fractional_kq_decomposition(gnp(n, 9/10, seed), 3); "
                  "edge_gadget(q, r), gadget cache cleared")
