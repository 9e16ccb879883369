"""cliqueforge benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout; the library is imported from ./src:

    python3 perfbench/run.py --workload pack-sparse-q3 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one after another
    python3 perfbench/run.py --write-manifest            # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
installs the outside-in tracer (tracer.py) for one set-up, then runs
every request twice, traced and untraced in alternating order, and
reports the per-layer metrics plus the difference as tracing overhead.

Requests run in a closed loop from one client thread (``bench`` calls
use their own two worker threads).  Every output is checked by
checks.py; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts unexpected failures only; the documented known failures of the
exact-engines workload are counted in ``ok_frac`` and listed in the run
record, which goes to perfbench/results/ together with the machine,
the source hash, sample counts and the sha256 digest of the canonical
outputs of the core requests that every run makes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
RUN_SECONDS = 35
SETUP_REPS = 5
WORKLOAD_NAMES = ("pack-sparse-q3", "pack-small-batch", "exact-engines")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.02),
    ("leave_excess_mean", "edges", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# traced function -> the stats reported for it
LAYER_STATS = {
    "pipeline.pack_gnp": ("calls", "self_s"),
    "pipeline.pack_gnd": ("calls", "self_s"),
    "pipeline._polish": ("calls", "self_s", "incl_s", "incl_share", "gain_edges"),
    "pipeline._augment_pass": ("calls", "self_s", "gain_edges"),
    "pipeline._fill_pass": ("calls", "self_s", "gain_edges"),
    "pipeline.design_hypergraph": ("calls", "self_s", "hyperedges"),
    "pipeline.reserve_hypergraph": ("calls", "self_s", "hyperedges"),
    "solver.enumerate_cliques": ("calls", "self_s", "cliques"),
    "pipeline.random_greedy_matching": ("calls", "self_s", "picks"),
    "pipeline.matching_with_reserves": ("calls", "self_s", "reserve_picks", "stranded"),
    "pipeline.embed_fixer": ("calls", "self_s", "failures"),
    "pipeline.fix_by_deletion": ("calls", "self_s", "deleted_edges"),
    "fixers.apply_fixer": ("calls", "self_s", "deleted_edges"),
    "pipeline.bench": ("calls", "wall_s", "trial_busy_s", "trial_wait_s", "parallelism"),
    "solver.min_leave_packing": ("calls", "self_s", "nodes"),
    "solver.exact_decomposition": ("calls", "self_s", "nodes", "failures"),
    "fractional.fractional_kq_decomposition": ("calls", "self_s", "refused"),
    "fractional.boost": ("calls", "self_s"),
    "fractional.edge_gadget": ("calls",),
    "density.max_2_density": ("calls", "self_s", "refused"),
    "density.max_rooted_density": ("calls", "self_s"),
    "density.rooted_2_density": ("calls", "self_s", "refused"),
    "randgraphs.gnp": ("calls", "self_s"),
    "randgraphs.gnd": ("calls", "self_s"),
    "randgraphs.slice_graph": ("calls", "self_s"),
    "graphs.verify_packing": ("calls", "self_s"),
    "graphs.optimal_leave_number": ("calls", "self_s"),
    "gadgets.anti_edge": ("calls", "self_s"),
    "gadgets.fake_edge": ("calls", "self_s"),
    "gadgets.star_transformer": ("calls", "self_s"),
    "gadgets.anti_clique_absorber": ("calls", "self_s"),
    "gadgets.trivial_absorber": ("calls", "self_s"),
    "gadgets.naive_omni_absorber": ("calls", "self_s"),
    "trace": ("requests", "traced_s", "untraced_s", "overhead_s", "overhead_frac"),
}
HIGHER_IS_BETTER = {"gain_edges", "picks", "reserve_picks", "parallelism", "requests"}
RATIOS = {"incl_share", "parallelism", "overhead_frac"}


def layer_unit(stat: str) -> str:
    if stat in RATIOS:
        return "ratio"
    return "s" if stat.endswith("_s") else "count"


def manifest() -> dict:
    import workloads

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": n, "why": workloads.WORKLOADS[n].why} for n in WORKLOAD_NAMES
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {
                "name": f"{fn}.{stat}",
                "unit": layer_unit(stat),
                "better": "higher" if stat in HIGHER_IS_BETTER else "lower",
            }
            for fn, stats in LAYER_STATS.items()
            for stat in stats
        ],
    }


# ===================================================================
# Library import and the request loop
# ===================================================================


class SetupError(Exception):
    pass


def import_library():
    """Import the workloads (and with them cliqueforge) from ./src."""
    package = SRC / "cliqueforge"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no cliqueforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import cliqueforge

    if Path(cliqueforge.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported cliqueforge from {cliqueforge.__file__}, not {package}")
    return workloads


IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t)"
)


def fresh_import_reps() -> list[float]:
    """Seconds to import the workloads (and cliqueforge) in SETUP_REPS
    fresh interpreters, one after another: a module is imported once per
    process, so repeating the import takes a new one each time."""
    reps = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        reps.append(float(proc.stdout))
    return reps


class Outcome:
    """What is kept of one request once its output is checked: no output
    objects, so the live heap (and the collector's work) stays small."""

    __slots__ = ("key", "latency", "canon", "error", "known", "problems", "excess")

    def __init__(self, req, out, error, latency):
        self.key = req.key
        self.latency = latency
        self.error = error
        self.known = error is not None and error[0] == req.known
        self.problems, self.excess = [], []
        if error is None:
            try:
                self.problems, self.excess = req.check(out)
            except Exception as exc:  # an output too malformed to check
                self.problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.canon = (json.dumps(["error", error[0]]).encode() if error
                      else req.canon(out))


def timed_call(call):
    """(output, error, seconds) of one library call; an exception is kept
    as its class name and message, and the run goes on."""
    t = perf_counter()
    try:
        out, err = call(), None
    except Exception as exc:
        out, err = None, (type(exc).__name__, str(exc)[:200])
    return out, err, perf_counter() - t


def drive(wl, seconds=None, count=None, serial=False, tracer=None):
    """Run requests in order: ``count`` of them, or whole rounds for about
    ``seconds`` (at least the workload's ``core_len`` requests; another
    round only if it should end in time).
    Only the library call is timed; each output is checked between calls.

    With ``tracer``, every request runs twice, untraced and traced, the
    order alternating, so that drift in machine speed cancels out of the
    tracing overhead.  Returns the untraced and the traced outcomes."""
    gc.collect()
    done: list[Outcome] = []
    traced: list[Outcome] = []
    start = perf_counter()
    i = 0
    while True:
        if count is not None:
            if i == count:
                break
        elif i % wl.round_len == 0 and i >= wl.core_len:
            elapsed = perf_counter() - start
            if elapsed * (1 + wl.round_len / i) > seconds:
                break
        req = wl.request(i)
        if tracer is None:
            done.append(Outcome(req, *timed_call(req.serial if serial else req.call)))
        else:
            for with_trace in (i % 2 == 0, i % 2 == 1):
                if with_trace:
                    tracer.install()
                    try:
                        result = timed_call(req.call)
                    finally:
                        tracer.restore()
                    traced.append(Outcome(req, *result))
                else:
                    done.append(Outcome(req, *timed_call(req.call)))
        i += 1
    return (done, traced) if tracer else done


def evaluate(done, core_len):
    """The verdict part of the run record."""
    digest = hashlib.sha256()
    by_key: dict[str, bytes] = {}
    known, unexpected, excess = [], [], []
    for idx, o in enumerate(done):
        if o.error:
            (known if o.known else unexpected).append(
                {"request": o.key, "error": o.error[0], "detail": o.error[1]}
            )
        elif o.problems:
            unexpected.append({"request": o.key, "error": "check", "detail": o.problems[:3]})
        if idx < core_len:
            digest.update(o.canon)
            excess += o.excess
        if by_key.setdefault(o.key, o.canon) != o.canon:
            unexpected.append({"request": o.key, "error": "nondeterministic", "detail": ""})
    return {
        "digest": digest.hexdigest(),
        "known_failures": known,
        "unexpected_failures": unexpected,
        "excess": excess,
    }


def compare_replay(first, second, label, verdict) -> bool:
    """Require byte-identical outputs from a replay of the same requests."""
    same = True
    for a, b in zip(first, second):
        if a.canon != b.canon:
            same = False
            verdict["unexpected_failures"].append(
                {"request": a.key, "error": f"{label} output differs", "detail": ""}
            )
    return same


def percentile(values, pct):
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


# ===================================================================
# Runs
# ===================================================================


def timed_run(workloads, wl, seed, seconds):
    reps = []
    for _ in range(SETUP_REPS):
        workloads.clear_caches()
        t0 = perf_counter()
        wl.setup(seed)
        reps.append(perf_counter() - t0)
    done = drive(wl, seconds)
    verdict = evaluate(done, wl.core_len)
    if wl.serial_replay:
        replay = drive(wl, count=wl.serial_replay, serial=True)
        verdict["threads_1_vs_2_identical"] = compare_replay(done, replay, "threads=1", verdict)
    peak_mb = peak_rss_mb()  # before the import probes, which are no part of the workload
    import_reps = fresh_import_reps()

    lat = [o.latency * 1000 for o in done]
    tail = percentile(lat, wl.tail_pct)
    n = len(done)
    failed = len(verdict["known_failures"]) + len(verdict["unexpected_failures"])
    excess = verdict.pop("excess")
    metrics = {
        "setup_s": statistics.median(import_reps) + statistics.median(reps),
        # whole rounds only, so every request of the mix weighs the same
        "requests_per_s": len(lat) * 1000 / sum(lat),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "ok_frac": (n - failed) / n,
        "leave_excess_mean": float(Fraction(sum(excess), len(excess))),
        "peak_rss_mb": peak_mb,
    }
    record = {
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _, _ in END_TO_END},
        "samples": {
            "requests": n,
            "rounds": n // wl.round_len,
            "busy_s": sum(lat) / 1000,
            "latency_tail_pct": wl.tail_pct,
            "latency_beyond_tail": sum(1 for x in lat if x > tail),
            "setup_reps_s": reps,
            "import_reps_s": import_reps,
            "leave_excess_samples": len(excess),
            "failed_frac": failed / n,
            "latencies_ms": lat,
        },
    }
    record.update(verdict)
    return record, n


def traced_run(workloads, wl, seed, seconds):
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    try:
        workloads.clear_caches()
        wl.setup(seed)
    finally:
        tr.restore()
    untraced, traced = drive(wl, seconds, tracer=tr)
    verdict = evaluate(traced, wl.core_len)
    verdict.pop("excess")
    verdict["traced_vs_untraced_identical"] = compare_replay(
        traced, untraced, "untraced", verdict
    )

    traced_s = sum(o.latency for o in traced)
    untraced_s = sum(o.latency for o in untraced)
    stats = tr.stats
    derived = {
        "pipeline._polish.incl_share": stats["pipeline._polish"]["incl_s"] / traced_s,
        "pipeline.bench.wall_s": stats["pipeline.bench"]["incl_s"],
        "pipeline.bench.parallelism": (
            stats["pipeline.bench"]["trial_busy_s"] / stats["pipeline.bench"]["incl_s"]
            if stats["pipeline.bench"]["incl_s"] else 0.0
        ),
        "trace.requests": len(traced),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    metrics = {}
    for fn, names in LAYER_STATS.items():
        for stat in names:
            key = f"{fn}.{stat}"
            value = derived[key] if key in derived else stats[fn][stat]
            metrics[key] = {"value": value, "unit": layer_unit(stat)}
    record = {"metrics": metrics, "samples": {"requests": len(traced), "spans": len(tr.spans)}}
    record.update(verdict)
    return record, len(traced), tr.spans


def machine() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "cliqueforge").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_one(args) -> int:
    try:
        workloads = import_library()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    spans = None
    if args.trace:
        record, attempted, spans = traced_run(workloads, wl, args.seed, args.seconds)
    else:
        record, attempted = timed_run(workloads, wl, args.seed, args.seconds)
    failed = len(record["unexpected_failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine(),
        "correct": failed == 0,
        **record,
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span_id, parent, name, thread, start, end in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "thread": thread, "start": start, "end": end}) + "\n")

    for name, m in record["metrics"].items():
        print(f"{name:<44} {m['value']:>16.6f} {m['unit']}")
    for key, value in record["samples"].items():
        if not isinstance(value, list):
            print(f"  {key}: {value}")
    print(f"  digest (core requests): {record['digest']}")
    for kind in ("known_failures", "unexpected_failures"):
        seen = Counter((f["request"], f["error"]) for f in record[kind])
        for (request, error), times in seen.items():
            print(f"  {kind[:-1].replace('_', ' ')}: {request} -> {error} (x{times})")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from the definitions here")
    args = ap.parse_args(argv)
    if args.write_manifest:
        sys.path.insert(0, str(SRC))
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
