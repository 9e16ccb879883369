"""The timing protocol of benchmarks/timing.py and the suites on it.

benchmarks/ is not a package, so timing.py loads by file path and is
registered as the module ``timing`` that every suite imports."""

import hashlib
import importlib.util
import itertools
import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from cliqueforge import randgraphs

ROOT = Path(__file__).resolve().parents[1]
SUITES = {"polish": 8, "boost": 23, "density": 24, "exact_cover": 19, "gnd": 21, "deletion": 4}
STREAMS = {"streams": ("randgraphs.stream", lambda *args: 1)}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def timing(monkeypatch):
    module = _load("timing", ROOT / "benchmarks" / "timing.py")
    monkeypatch.setitem(sys.modules, "timing", module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    return module


def _toy_cases(timing):
    # the stage sees only calls made through the module attribute
    yield timing.Case("gnp(150, 1/2, 1)", lambda: randgraphs.gnp(150, Fraction(1, 2), 1),
                      doc=lambda g: g.sorted_edges())
    yield timing.Case("slice", randgraphs.slice_graph,
                      lambda: (randgraphs.gnp(9, Fraction(1, 2), 2), Fraction(1, 3), 5),
                      lambda parts: [p.sorted_edges() for p in parts])


def _main(timing, monkeypatch, label, out, cases):
    monkeypatch.setattr(sys, "argv", ["toy_timing.py", label, "--src", str(ROOT / "src")])
    timing.main("Toy suite.", out, cases, repeats=2, workload="toy",
                stages=("randgraphs.gnp",), counters=STREAMS)


def test_a_run_is_stored_under_its_label_and_earlier_runs_are_kept(timing, monkeypatch,
                                                                   tmp_path):
    out = tmp_path / "BENCH_toy.json"
    committed = (ROOT / "benchmarks" / "BENCH_exact_cover.json").read_text()
    out.write_text(committed)
    _main(timing, monkeypatch, "toy", out, partial(_toy_cases, timing))
    text = out.read_text()
    # "toy" sorts after every committed label, so their bytes lead the file
    assert text.startswith(committed[: -len("\n}\n")] + ",\n")
    run = json.loads(text)["toy"]
    assert run["repeats"] == 2 and run["workload"] == "toy"
    g = randgraphs.gnp(150, Fraction(1, 2), 1)
    case = run["cases"]["gnp(150, 1/2, 1)"]
    assert case["sha256"] == hashlib.sha256(json.dumps(g.sorted_edges()).encode()).hexdigest()
    assert case["counters"] == {"streams": 1}
    assert 0 < case["stages"]["randgraphs.gnp"] <= case["ms"] + 0.1
    # slice_graph calls stream once; its host is built outside the span
    assert run["cases"]["slice"]["counters"] == {"streams": 1}
    assert run["cases"]["slice"]["stages"] == {"randgraphs.gnp": 0.0}
    assert run["counters"] == {"streams": 2}
    digests = "".join(c["sha256"] for c in run["cases"].values())
    assert run["sha256"] == hashlib.sha256(digests.encode()).hexdigest()


@pytest.mark.parametrize("drift", ["output", "counter"])
def test_a_case_that_differs_between_repeats_is_refused_unwritten(timing, monkeypatch,
                                                                 tmp_path, drift):
    ticks = itertools.count(1)
    if drift == "output":
        call = ticks.__next__
    else:
        def call():
            for _ in range(next(ticks)):
                randgraphs.stream(0, "toy")

    def cases():
        yield timing.Case("drifting", call)

    out = tmp_path / "BENCH_toy.json"
    out.write_text("{}\n")
    with pytest.raises(SystemExit, match="drifting: outputs or counters differ"):
        _main(timing, monkeypatch, "toy", out, cases)
    assert out.read_text() == "{}\n"


def test_a_stage_no_case_calls_is_refused_unwritten(timing, monkeypatch, tmp_path):
    def cases():
        # the partial holds gnp itself, so the stage's timer never runs
        yield timing.Case("held gnp", partial(randgraphs.gnp, 9, Fraction(1, 2), 2),
                          doc=lambda g: g.sorted_edges())

    out = tmp_path / "BENCH_toy.json"
    out.write_text("{}\n")
    with pytest.raises(SystemExit, match="stage randgraphs.gnp: no case calls it"):
        _main(timing, monkeypatch, "toy", out, cases)
    assert out.read_text() == "{}\n"


def test_rebound_attributes_are_restored_when_the_call_raises(timing):
    before = randgraphs.gnp, randgraphs.stream

    def failing():
        randgraphs.gnp(4, Fraction(1, 2), 0)
        raise RuntimeError("mid-case")

    with pytest.raises(RuntimeError, match="mid-case"):
        timing.run([timing.Case("failing", failing)], 2, "toy",
                   stages=("randgraphs.gnp",), counters=STREAMS)
    assert (randgraphs.gnp, randgraphs.stream) == before


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_lists_its_unique_cases_without_running_one(timing, suite):
    module = _load(f"{suite}_timing", ROOT / "benchmarks" / f"{suite}_timing.py")
    names = [case.name for case in module.cases()]
    assert len(names) == len(set(names)) == SUITES[suite]
