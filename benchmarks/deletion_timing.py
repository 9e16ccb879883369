"""Time the deletion fallback of the pack pipeline, total its leave
excess, and hash the packs.

Usage: python benchmarks/deletion_timing.py LABEL [--src DIR]

One case per cell, each packing every seed of its cell:
pack_gnp(26, 2/5, 3, s) and pack_gnp(16, 3/4, 4, s) for s = 0-199,
pack_gnp(60, 303/500, 4, s) for s = 1-10 and pack_gnp(160, 3/10, 3, s)
for s = 100-129; 3 repeats, on the protocol of timing.py, into
BENCH_deletion.json.  Stage: fix_by_deletion, which runs whenever no
fixer embeds.  leave_excess counts fixer_deleted + leave -
optimal_leave over the packs, read off the PackReport each pack
builds.  A sha256 covers each pack's report JSON (include_ms=False),
sorted cliques and sorted deleted edges.
"""

from fractions import Fraction
from functools import partial

from timing import Case, main

CELLS = (
    (26, Fraction(2, 5), 3, range(200)),
    (16, Fraction(3, 4), 4, range(200)),
    (60, Fraction(303, 500), 4, range(1, 11)),
    (160, Fraction(3, 10), 3, range(100, 130)),
)
COUNTERS = {
    "leave_excess": (
        "pipeline.PackReport",
        lambda n, p, d, q, seed, stages, leave, optimal_leave, *rest:
            stages["fixer_deleted"] + leave - optimal_leave,
    ),
}


def _doc(reps):
    return [[r.to_json(include_ms=False), sorted(r.packing.cliques), sorted(r.deleted)]
            for r in reps]


def cases():
    from cliqueforge.pipeline import pack_gnp

    def cell(n, p, q, seeds):
        return [pack_gnp(n, p, q, s) for s in seeds]

    for n, p, q, seeds in CELLS:
        yield Case(f"pack_gnp({n}, {p}, {q}, s), s = {seeds[0]}-{seeds[-1]}",
                   partial(cell, n, p, q, seeds), doc=_doc)


if __name__ == "__main__":
    main(__doc__, "BENCH_deletion.json", cases, repeats=3, counters=COUNTERS,
         workload="pack_gnp(n, p, q, s) at q = 3 and 4, four cells of many seeds",
         stages=("pipeline.fix_by_deletion",))
