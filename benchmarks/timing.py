"""The timing protocol every benchmarks/*_timing.py suite runs on.

A suite is a docstring, a table of cases and one call of main, run as
``python benchmarks/<suite>_timing.py LABEL [--src DIR]`` with the
package imported from DIR (default: src/).  Each case runs `repeats`
times: case.args() builds the arguments outside the timed span, which
is case.call(*args) with every stage ("module.attr" in cliqueforge)
rebound to a timer and every counter's attribute to a wrapper adding a
weight of the call's arguments.  A case's sha256 is that of the
canonical JSON of case.doc(output); if it or a counter differs between
repeats, main exits naming the case and writes nothing.  A stage that
no case ever calls through its module (a case may hold the function
itself, which bypasses the timer) would read 0.0 ms everywhere, so main
exits naming it and writes nothing.  Else the run goes under LABEL in
the suite's BENCH file, next to the runs there: the machine, repeats
and workload; per case the median ms, the median ms of each stage, the
counters and the sha256; the total ms, counter totals and the sha256
over the cases' sha256s in order.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, NamedTuple

HERE = Path(__file__).resolve().parent


class Case(NamedTuple):
    name: str
    call: Callable[..., Any]
    args: Callable[[], tuple] = tuple
    doc: Callable[[Any], Any] = lambda out: out


def _timer(f, log):
    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            log.append((time.perf_counter() - t) * 1000)

    return timed


def _counter(f, counts, name, weight):
    def counted(*args, **kwargs):
        counts[name] += weight(*args, **kwargs)
        return f(*args, **kwargs)

    return counted


@contextmanager
def _instrumented(stages=(), counters=None):
    """Rebind the stages to timers and the counters' attributes to
    counting wrappers; yield (ms of each stage call, counts); put every
    attribute back on exit, also when the body raises."""
    ms = {path: [] for path in stages}
    counts = dict.fromkeys(counters or {}, 0)
    wraps = [(path, lambda f, path=path: _timer(f, ms[path])) for path in stages]
    wraps += [(path, lambda f, name=name, w=w: _counter(f, counts, name, w))
              for name, (path, w) in (counters or {}).items()]
    undo = []
    try:
        for path, wrap in wraps:
            module, attr = path.rsplit(".", 1)
            module = importlib.import_module(f"cliqueforge.{module}")
            undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrap(undo[-1][2]))
        yield ms, counts
    finally:
        for module, attr, f in reversed(undo):
            setattr(module, attr, f)


def _median(xs):
    return round(statistics.median(xs), 1)


def run(cases, repeats: int, workload: str, stages=(), counters=None) -> dict:
    results, called = {}, set()
    for case in cases:
        if case.name in results:
            raise SystemExit(f"{case.name}: listed twice")
        samples = []
        for _ in range(repeats):
            args = case.args()
            with _instrumented(stages, counters) as (stage_ms, counts):
                t = time.perf_counter()
                out = case.call(*args)
                ms = (time.perf_counter() - t) * 1000
            doc = json.dumps(case.doc(out), sort_keys=True)
            digest = hashlib.sha256(doc.encode()).hexdigest()
            samples.append((ms, {s: sum(v) for s, v in stage_ms.items()}, counts, digest))
            called.update(s for s, v in stage_ms.items() if v)
        if any(s[2:] != samples[0][2:] for s in samples):
            raise SystemExit(f"{case.name}: outputs or counters differ between repeats")
        results[case.name] = {
            "ms": _median([s[0] for s in samples]),
            "stages": {name: _median([s[1][name] for s in samples]) for name in stages},
            "counters": samples[0][2],
            "sha256": samples[0][3],
        }
    for stage in stages:
        if stage not in called:
            raise SystemExit(f"stage {stage}: no case calls it through its module")
    return {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": repeats,
        "workload": workload,
        "cases": results,
        "total_ms": round(sum(c["ms"] for c in results.values()), 1),
        "counters": {name: sum(c["counters"][name] for c in results.values())
                     for name in counters or {}},
        "sha256": hashlib.sha256(
            "".join(c["sha256"] for c in results.values()).encode()
        ).hexdigest(),
    }


def save(out: Path, label: str, result: dict) -> None:
    """Store result under label in out, keeping the runs already there."""
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[label] = result
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(doc: str, out, cases, repeats: int, workload: str, stages=(), counters=None):
    """Run the cases cases() yields; store the run in out (under benchmarks/)."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("label", help="key to store this run under, e.g. parent or change")
    ap.add_argument("--src", default=str(HERE.parent / "src"),
                    help="directory holding the cliqueforge package")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    result = run(cases(), repeats, workload, stages, counters)
    save(HERE / out, args.label, result)
    for name, case in [*result["cases"].items(), ("total", result)]:
        counts = "".join(f", {k} {v}" for k, v in case["counters"].items())
        ms = case.get("ms", result["total_ms"])
        print(f"{args.label} {name}: {ms} ms{counts}, sha256 {case['sha256'][:16]}")
