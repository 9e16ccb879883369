"""Outside-in tracer for the cliqueforge layers.

The library is not edited.  ``Tracer.install`` replaces each traced
function with a timing wrapper at every module attribute that holds it,
which is the name its callers look up: ``pipeline.enumerate_cliques``
and ``solver.enumerate_cliques`` are both rebound, so the pipeline's
by-name import and ``fractional``'s call-time import are both seen.
``Tracer.restore`` puts every original back.

Each thread keeps its own span stack, because ``bench`` runs trials on
worker threads; a span's self time is its duration minus the time its
child spans on the same thread cover.  Spans are kept in memory as
``(id, parent_id, name, thread, start, end)`` and written out at the end.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

# Functions timed as spans, by defining module.
TRACED = {
    "pipeline": (
        "pack_gnp", "pack_gnd", "bench", "embed_fixer", "fix_by_deletion",
        "design_hypergraph", "reserve_hypergraph", "random_greedy_matching",
        "matching_with_reserves", "_polish", "_augment_pass", "_fill_pass",
    ),
    "solver": ("enumerate_cliques", "min_leave_packing", "exact_decomposition"),
    "fixers": ("apply_fixer",),
    "fractional": ("fractional_kq_decomposition", "boost"),
    "density": ("max_2_density", "max_rooted_density", "rooted_2_density"),
    "randgraphs": ("gnp", "gnd", "slice_graph"),
    "graphs": ("verify_packing", "optimal_leave_number"),
    "gadgets": (
        "anti_edge", "fake_edge", "star_transformer", "anti_clique_absorber",
        "trivial_absorber", "naive_omni_absorber",
    ),
}

# Functions only counted: they run hundreds of thousands of times, and
# a span each would cost more than the work it measures.
COUNTED = {"fractional": ("edge_gadget",)}

# Counters read off a traced function's return value.
RESULT_COUNTERS = {
    "pipeline._polish": lambda r: {"gain_edges": r},
    "pipeline._augment_pass": lambda r: {"gain_edges": r},
    "pipeline._fill_pass": lambda r: {"gain_edges": r},
    "pipeline.design_hypergraph": lambda r: {"hyperedges": len(r)},
    "pipeline.reserve_hypergraph": lambda r: {"hyperedges": len(r)},
    "pipeline.random_greedy_matching": lambda r: {"picks": len(r[0])},
    "pipeline.matching_with_reserves": lambda r: {
        "reserve_picks": len(r.reserve_cliques),
        "stranded": len(r.stranded),
    },
    "pipeline.fix_by_deletion": lambda r: {"deleted_edges": len(r[1])},
    "fixers.apply_fixer": lambda r: {"deleted_edges": len(r.deleted)},
    "solver.enumerate_cliques": lambda r: {"cliques": len(r)},
    "solver.min_leave_packing": lambda r: {"nodes": r.nodes},
    "solver.exact_decomposition": lambda r: {
        "nodes": r.nodes,
        "failures": int(r.status != "found"),
    },
}

# A raised exception counts as "refused" for the engines that refuse
# inputs by design, and as a failure everywhere else.
REFUSING = {
    "density.max_2_density",
    "density.max_rooted_density",
    "density.rooted_2_density",
    "fractional.fractional_kq_decomposition",
}

# The top-level calls whose inclusive time is a bench trial.
TRIALS = {"pipeline.pack_gnp", "pipeline.pack_gnd"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._benches = 0
        self._patches: list[tuple] | None = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches is None:
            modules = [
                m for name, m in list(sys.modules.items())
                if name == "cliqueforge" or name.startswith("cliqueforge.")
            ]
            self._patches = []
            for wrap, table in ((self._span, TRACED), (self._count, COUNTED)):
                for short, names in table.items():
                    owner = sys.modules[f"cliqueforge.{short}"]
                    for fname in names:
                        original = getattr(owner, fname)
                        wrapper = wrap(original, f"{short}.{fname}")
                        self._patches += [
                            (m, attr, original, wrapper)
                            for m in modules
                            for attr, value in vars(m).items()
                            if value is original
                        ]
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def restore(self) -> None:
        for m, attr, original, _ in self._patches or ():
            setattr(m, attr, original)

    # -- wrappers -------------------------------------------------------

    def _count(self, f, name):
        stats = self.stats[name]
        lock = self._lock

        def counted(*args, **kwargs):
            with lock:
                stats["calls"] += 1
            return f(*args, **kwargs)

        return counted

    def _span(self, f, name):
        local = self._local
        counters = RESULT_COUNTERS.get(name)
        error_key = "refused" if name in REFUSING else "failures"
        is_bench = name == "pipeline.bench"
        is_trial = name in TRIALS

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            if is_bench:
                with self._lock:
                    self._benches += 1
            extra = None
            cpu = thread_time() if is_trial else 0.0
            start = perf_counter()
            try:
                result = f(*args, **kwargs)
                if counters:
                    extra = counters(result)
                return result
            except BaseException:
                extra = {error_key: 1}
                raise
            finally:
                end = perf_counter()
                if is_trial:
                    cpu = thread_time() - cpu
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                with self._lock:
                    st = self.stats[name]
                    st["calls"] += 1
                    st["incl_s"] += dur
                    st["self_s"] += dur - frame[1]
                    for k, v in (extra or {}).items():
                        st[k] += v
                    if is_bench:
                        self._benches -= 1
                    elif is_trial and self._benches:
                        # on the CPU vs waiting, mostly for the interpreter lock
                        self.stats["pipeline.bench"]["trial_busy_s"] += cpu
                        self.stats["pipeline.bench"]["trial_wait_s"] += dur - cpu
                    self.spans.append(
                        (span_id, parent, name, threading.get_ident(), start, end)
                    )

        return traced
