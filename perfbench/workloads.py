"""The three workloads: their inputs, their requests and their checks.

A workload turns ``--seed`` into an endless, deterministic sequence of
requests.  Request ``i`` is one top-level library call: a ``pack_gnp``
call, a ``bench`` call, or one exact-engine call.  Requests come in
rounds of ``round_len``; every round has the same mix, and a run does
whole rounds only.  Every run makes at least the first ``core_len``
requests (round 0 of the mixed workloads), and the output digest and
``leave_excess_mean`` are taken over those, so they do not depend on
how many rounds fit in the measured time.

Importing this module imports cliqueforge; ``run.py`` times that import
as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import cliqueforge  # noqa: F401  (the package itself is part of the import cost)
from cliqueforge import density, fractional, gadgets, pipeline, randgraphs, solver
from cliqueforge.graphs import Graph, union

# The checks re-sample graphs through these bindings, which the tracer
# does not rebind, so checking adds nothing to the per-layer numbers.
from cliqueforge.randgraphs import gnd as resample_gnd, gnp as resample_gnp

from checks import (
    check_cover,
    check_density,
    check_min_leave,
    check_pack,
    check_weighting,
    edge_outside_cliques,
)


def derive(seed: int, *parts) -> int:
    """A 63-bit input seed for (workload seed, purpose...)."""
    text = ":".join(str(x) for x in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def clear_caches() -> None:
    """Empty the library's process-wide caches, so a set-up pays to fill them."""
    fractional._canonical_gadget.cache_clear()


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _pack_canon(rep) -> dict:
    return {
        "report": rep.to_json(include_ms=False),
        "cliques": sorted(rep.packing.cliques),
        "deleted": sorted(rep.deleted),
    }


class Request:
    """One library call with its check.

    ``check(out)`` returns (problems, leave excess values); ``canon(out)``
    gives the bytes the digest covers.  ``known`` names the exception
    class of a documented failure of this call, if it has one.
    """

    __slots__ = ("key", "call", "check", "canon", "known", "serial")

    def __init__(self, key, call, check, canon, known=None, serial=None):
        self.key = key
        self.call = call
        self.check = check
        self.canon = canon
        self.known = known
        self.serial = serial


# ===================================================================
# pack-sparse-q3
# ===================================================================


class PackSparse:
    """pack_gnp(160, 3/10, q=3), one call at a time, a fresh graph each call."""

    name = "pack-sparse-q3"
    why = (
        "pack_gnp(160, 3/10, q=3), a fresh graph per call, 20+ calls a run, one at a time: "
        "the fixer embeds and polish is ~85% of the time; bench and exact engines bypassed"
    )
    n, p, q = 160, Fraction(3, 10), 3
    round_len = 5
    core_len = 20
    tail_pct = 50
    serial_replay = 0

    def setup(self, seed: int):
        self.seed = seed
        pipeline.pack_gnp(40, self.p, self.q, derive(seed, "warm-up"))

    def request(self, i: int) -> Request:
        s = derive(self.seed, "pack", i)

        def check(rep):
            problems, excess = check_pack(rep, resample_gnp(self.n, self.p, s), self.q)
            if (rep.n, rep.q, rep.seed) != (self.n, self.q, s):
                problems.append("report parameters differ from the request")
            return problems, [excess]

        return Request(
            f"pack:{s}",
            lambda: pipeline.pack_gnp(self.n, self.p, self.q, s),
            check,
            lambda rep: _dump(_pack_canon(rep)),
        )


# ===================================================================
# pack-small-batch
# ===================================================================


class PackSmallBatch:
    """Repeated bench calls of small trials on two worker threads."""

    name = "pack-small-batch"
    why = (
        "bench() calls of 4 small trials on 2 threads, cycling gnd(60,12,q3), "
        "gnp(26,2/5,q3), gnp(16,3/4,q4), gnp(11,1/2,q3): executor, fixer, reserves, min-leave"
    )
    # (kind, n, q, p, d)
    configs = (
        ("gnd", 60, 3, None, 12),
        ("gnp", 26, 3, Fraction(2, 5), None),
        ("gnp", 16, 4, Fraction(3, 4), None),
        ("gnp", 11, 3, Fraction(1, 2), None),
    )
    trials = 4
    threads = 2
    round_len = core_len = 40
    tail_pct = 95
    serial_replay = 4  # the first call of each config again, at threads=1

    def setup(self, seed: int):
        self.seed = seed
        kind, n, q, p, d = self.configs[0]
        pipeline.bench(kind, n, q, 2, derive(seed, "warm-up"), self.threads, p=p, d=d)

    def request(self, i: int) -> Request:
        kind, n, q, p, d = self.configs[i % len(self.configs)]
        master = derive(self.seed, "bench", i)

        def run(threads):
            return pipeline.bench(kind, n, q, self.trials, master, threads, p=p, d=d)

        def check(out):
            doc, reports = out
            problems: list[str] = []
            excess: list[int] = []
            if len(reports) != self.trials or len({r.seed for r in reports}) != self.trials:
                problems.append("trial count or distinct trial seeds wrong")
            if doc["trials"] != [r.to_json(include_ms=False) for r in reports]:
                problems.append("bench JSON differs from its reports")
            for r in reports:
                g = resample_gnp(n, p, r.seed) if kind == "gnp" else resample_gnd(n, d, r.seed)
                ps, ex = check_pack(r, g, q)
                problems += ps
                excess.append(ex)
            return problems, excess

        def canon(out):
            doc, reports = out
            return _dump({"doc": doc, "cliques": [sorted(r.packing.cliques) for r in reports]})

        return Request(
            f"bench:{kind}:{n}:{q}:{master}",
            lambda: run(self.threads),
            check,
            canon,
            serial=lambda: run(1),
        )


# ===================================================================
# exact-engines
# ===================================================================


def _complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _copy(g: Graph) -> Graph:
    """A fresh Graph, so no call reuses another call's adjacency cache."""
    return Graph(g.n, g.edges)


class ExactEngines:
    """Exact engines only: fractional boost, density, exact cover, min-leave."""

    name = "exact-engines"
    why = (
        "fractional boost, 2-density, exact cover and min-leave calls, no pipeline; "
        "keeps the known refusals and the RecursionError; polish and bench bypassed"
    )
    tail_pct = 95
    serial_replay = 0
    # Seeded graphs per round.  A boost's cost varies several-fold from
    # graph to graph, and a 2-density scan's doubles with each vertex of
    # its largest block, so the latency of the mix spreads over four
    # decades.  Its median is steady only if it falls inside a block of
    # requests whose cost hardly varies: the scans of G(15, 1/2), which
    # is 2-connected almost surely.  Of the other requests about as many
    # are cheaper (most fixed gadget calls, refused and small boosts) as
    # dearer (the boosts, the G(18, 1/3) scans, the large gadget calls).
    # The boosts take about half of the time.
    frac_sizes = (9,) * 12 + (10,) * 10 + (11,) * 4
    density_inputs = ((15, Fraction(1, 2)),) * 20 + ((18, Fraction(1, 3)),) * 2

    def setup(self, seed: int):
        self.seed = seed
        # seeded inputs of round 0 are generated here; later rounds
        # generate theirs between requests
        self._round = None
        self._graphs(0)
        fixed = []  # (key, engine, graph, q or roots, known failure, pinned)
        for q in range(3, 7):
            a = gadgets.anti_edge(q)
            fixed.append((f"anti_edge({q})", "rooted", a.graph, a.roots, None,
                          Fraction(q + 1, 2)))
        pinned = {3: Fraction(4, 3), 4: Fraction(25, 12)}
        for q in range(3, 7):
            f = gadgets.fake_edge(q)
            fixed.append((f"fake_edge({q})", "rooted", f.graph, f.roots,
                          None if q in pinned else "ValueError", pinned.get(q)))
        for q in (3, 4, 5):
            t = gadgets.star_transformer(q)
            fixed.append((f"star_transformer({q})", "rooted", t.t, t.roots, None, None))
        # the certificate hosts of the exact-cover acceptance check
        for q, k in ((3, 2), (3, 4), (3, 6), (4, 2), (5, 2)):
            t = gadgets.star_transformer(q, k)
            fixed.append((f"T{q},{k}+L", "cover", union(t.t, t.l), q, None, None))
            fixed.append((f"T{q},{k}+L'", "cover", union(t.t, t.l_prime), q, None, None))
        tb = gadgets.trivial_absorber(_complete(3), 3)
        fixed.append(("trivial_absorber(K3)", "cover", union(tb.l, tb.a), 3, None, None))
        omni = gadgets.naive_omni_absorber(Graph(6, [(i, (i + 1) % 6) for i in range(6)]))
        for k, key in enumerate(sorted(omni.table, key=sorted)):
            fixed.append((f"omni_absorber(C6)[{k}]", "cover",
                          union(Graph(omni.a.n, key), omni.a), 3, None, None))
        for q in (3, 4):
            b = gadgets.anti_clique_absorber(q)
            fixed.append((f"anti_clique_absorber({q})", "cover", union(b.l, b.a), q,
                          "RecursionError" if q == 4 else None, None))
        # fixed min-leave instances: the optimum's distance from the
        # divisibility bound is then a property of the engine alone
        for s in range(2):
            fixed.append((f"minleave gnp(11,1/2,{s})", "min_leave",
                          randgraphs.gnp(11, Fraction(1, 2), s), 3, None, None))
            fixed.append((f"minleave gnp(10,3/4,{s})", "min_leave",
                          randgraphs.gnp(10, Fraction(3, 4), s), 4, None, None))
        self.fixed = fixed
        self.round_len = self.core_len = (
            len(self.frac_sizes) + len(self.density_inputs) + len(fixed)
        )
        # one warm-up call per engine; the boost fills the gadget cache
        fractional.fractional_kq_decomposition(_complete(7), 3)
        density.max_2_density(randgraphs.gnp(12, Fraction(1, 3), derive(seed, "warm-up")))
        a = gadgets.anti_edge(3)
        density.rooted_2_density(a.graph, a.roots)
        solver.exact_decomposition(_complete(7), 3)
        solver.min_leave_packing(_complete(8), 3)

    def _graphs(self, r: int):
        """The seeded (boost, density) inputs of round r."""
        if self._round != r:
            self._round = r
            self._inputs = (
                [randgraphs.gnp(n, Fraction(9, 10), derive(self.seed, "frac", r, k))
                 for k, n in enumerate(self.frac_sizes)],
                [randgraphs.gnp(n, p, derive(self.seed, "density", r, k))
                 for k, (n, p) in enumerate(self.density_inputs)],
            )
        return self._inputs

    def request(self, i: int) -> Request:
        r, j = divmod(i, self.round_len)
        frac_graphs, density_graphs = self._graphs(r)
        if j < len(frac_graphs):
            return self._fractional(frac_graphs[j], f"{r}:{j}")
        j -= len(frac_graphs)
        if j < len(density_graphs):
            g = density_graphs[j]
            return Request(
                f"max_2_density:{r}:{j}",
                lambda: density.max_2_density(_copy(g)),
                lambda dv: (check_density(dv, g), []),
                lambda dv: _dump([str(dv.value), dv.witness, dv.kind]),
            )
        key, engine, g, arg, known, pinned = self.fixed[j - len(density_graphs)]
        if engine == "rooted":
            return Request(
                f"rooted_2_density:{key}",
                lambda: density.rooted_2_density(_copy(g), arg),
                lambda dv: (check_density(dv, g, roots=arg, pinned=pinned), []),
                lambda dv: _dump([str(dv.value), dv.witness, dv.kind]),
                known,
            )
        if engine == "cover":
            def check_found(res):
                if res.status != "found":
                    return [f"status {res.status}"], []
                return check_cover(res.packing, g, arg), []

            return Request(
                f"exact_decomposition:{key}",
                lambda: solver.exact_decomposition(_copy(g), arg),
                check_found,
                lambda res: _dump([res.status, sorted(res.packing.cliques)
                                   if res.packing else None]),
                known,
            )
        def check_leave(res):
            problems, excess = check_min_leave(res, g, arg)
            return problems, [excess]

        return Request(
            f"min_leave_packing:{key}",
            lambda: solver.min_leave_packing(_copy(g), arg),
            check_leave,
            lambda res: _dump([res.status, res.leave, sorted(res.packing.cliques)]),
        )

    def _fractional(self, g: Graph, tag: str) -> Request:
        def call():
            try:
                return fractional.fractional_kq_decomposition(_copy(g), 3)
            except ValueError as exc:
                return exc  # a refusal; correct only if the check confirms it

        def check(out):
            if isinstance(out, ValueError):
                if edge_outside_cliques(g, 5) is None:
                    return [f"refused, but every edge lies in a K5: {out}"], []
                return [], []
            return check_weighting(out.weighting, g, 3), []

        def canon(out):
            if isinstance(out, ValueError):
                return _dump(["refused"])
            w = out.weighting.weights
            return _dump([[c, str(w[c])] for c in sorted(w)])

        return Request(f"fractional:{tag}", call, check, canon)


WORKLOADS = {w.name: w for w in (PackSparse, PackSmallBatch, ExactEngines)}
