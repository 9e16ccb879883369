"""Golden tests for the command line.

Each subcommand wraps exactly one library call, so every check here
compares the CLI surface (stdout, stderr, files, exit code) against
the result of making that call directly.  Exit code conventions:
0 success, 1 domain failure, 2 usage error (argparse SystemExit).
"""

import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cliqueforge import cli
from cliqueforge.density import max_2_density, max_rooted_density, rooted_2_density
from cliqueforge.fixers import FixerBlueprint, apply_fixer, inductive_select, realize_fixer
from cliqueforge.fractional import (
    edge_gadget,
    fractional_kq_decomposition,
    fractional_problems,
    parse_weighting,
    sample_regular_cliques,
    serialize_weighting,
)
from cliqueforge.gadgets import (
    anti_clique_absorber,
    anti_edge,
    fake_edge,
    nabla,
    nabla_absorber,
    naive_omni_absorber,
    serialize_bundle,
    star_transformer,
    tilde_nabla,
    verify_omni_absorber,
)
from cliqueforge.graphs import (
    Graph,
    Packing,
    serialize_graph,
    serialize_packing,
    verify_packing,
)
from cliqueforge.pipeline import bench, pack_gnd, pack_gnp
from cliqueforge.randgraphs import gnd, gnp, stream
from cliqueforge.solver import min_leave_packing

from oracles import complete_graph, cycle_graph


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def fraction_text(value) -> str:
    return f"{value.numerator}/{value.denominator}"


# ===================================================================
# gen
# ===================================================================


def test_gen_gnp_writes_the_library_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc, stdout, stderr = run(
        ["gen", "gnp", "--n", "20", "--p", "1/2", "--seed", "7", "-o", str(out)], capsys
    )
    assert rc == 0
    assert stderr == "seed 7\n"
    assert stdout == ""
    assert out.read_text() == serialize_graph(gnp(20, Fraction(1, 2), 7))


def test_gen_gnp_defaults_to_stdout(capsys):
    rc, stdout, _ = run(["gen", "gnp", "--n", "9", "--p", "1/3", "--seed", "1"], capsys)
    assert rc == 0
    assert stdout == serialize_graph(gnp(9, Fraction(1, 3), 1))


def test_gen_gnp_json_document(capsys):
    rc, stdout, _ = run(["gen", "gnp", "--n", "8", "--p", "2/5", "--seed", "3", "--json"], capsys)
    assert rc == 0
    g = gnp(8, Fraction(2, 5), 3)
    assert json.loads(stdout) == {
        "kind": "gnp",
        "p": "2/5",
        "seed": 3,
        "n": 8,
        "edges": [list(e) for e in g.sorted_edges()],
    }


def test_gen_gnd_writes_the_library_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc, _, stderr = run(["gen", "gnd", "--n", "12", "--d", "5", "--seed", "4", "-o", str(out)], capsys)
    assert rc == 0
    assert stderr == "seed 4\n"
    assert out.read_text() == serialize_graph(gnd(12, 5, 4))


def test_seed_comes_from_the_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CLIQUEFORGE_SEED", "11")
    out = tmp_path / "g.txt"
    rc, _, stderr = run(["gen", "gnp", "--n", "10", "--p", "1/2", "-o", str(out)], capsys)
    assert rc == 0
    assert stderr == "seed 11\n"
    assert out.read_text() == serialize_graph(gnp(10, Fraction(1, 2), 11))


def test_missing_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("CLIQUEFORGE_SEED", raising=False)
    err = usage_error(["gen", "gnp", "--n", "5", "--p", "1/2"], capsys)
    assert "--seed" in err


def test_garbage_environment_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CLIQUEFORGE_SEED", "eleven")
    usage_error(["gen", "gnp", "--n", "5", "--p", "1/2"], capsys)


def test_unknown_subcommand_is_a_usage_error(capsys):
    usage_error(["frobnicate"], capsys)


def test_malformed_probability_is_a_usage_error(capsys):
    usage_error(["gen", "gnp", "--n", "5", "--p", "half", "--seed", "1"], capsys)


# ===================================================================
# density
# ===================================================================


def test_density_rooted_prints_the_exact_value(tmp_path, capsys):
    gad = fake_edge(3)
    f = tmp_path / "fe.txt"
    f.write_text(serialize_graph(gad.graph))
    rc, stdout, _ = run(["density", "--in", str(f), "--roots", "0,1"], capsys)
    assert rc == 0
    assert stdout == "4/3\n"


def test_density_modes_match_the_library(tmp_path, capsys):
    g = cycle_graph(6)
    f = tmp_path / "c6.txt"
    f.write_text(serialize_graph(g))
    for extra, want in [
        ([], max_2_density(g)),
        (["--roots", "0,3"], rooted_2_density(g, [0, 3])),
        (["--plain", "--roots", "0"], max_rooted_density(g, [0])),
        (["--plain"], max_rooted_density(g, [])),
    ]:
        rc, stdout, _ = run(["density", "--in", str(f)] + extra, capsys)
        assert rc == 0
        assert stdout == fraction_text(want.value) + "\n"


def test_density_json_reports_the_witness(tmp_path, capsys):
    g = cycle_graph(6)
    f = tmp_path / "c6.txt"
    f.write_text(serialize_graph(g))
    rc, stdout, _ = run(["density", "--in", str(f), "--json"], capsys)
    assert rc == 0
    want = max_2_density(g)
    assert json.loads(stdout) == {
        "value": fraction_text(want.value),
        "witness": list(want.witness),
        "kind": want.kind,
    }


def test_density_roots_that_are_not_ints_are_a_usage_error(tmp_path, capsys):
    f = tmp_path / "c8.txt"
    f.write_text(serialize_graph(cycle_graph(8)))
    err = usage_error(["density", "--in", str(f), "--roots", "1,x"], capsys)
    assert "not a comma-separated int list: '1,x'" in err


def test_density_roots_outside_the_graph_are_a_domain_error(tmp_path, capsys):
    f = tmp_path / "c8.txt"
    f.write_text(serialize_graph(cycle_graph(8)))
    for roots in ("99", "-1"):
        for extra in (["--plain"], []):
            argv = ["density", "--in", str(f), "--roots", roots, "--json"] + extra
            rc, stdout, stderr = run(argv, capsys)
            assert rc == 1 and stdout == ""
            assert stderr == f"error: root {roots} out of range for n=8\n"


# ===================================================================
# gadget bundles
# ===================================================================


def test_gadget_k_other_than_2_at_q4_is_a_domain_error(tmp_path, capsys):
    for tool in ("transformer", "absorber"):
        out = tmp_path / f"{tool}.txt"
        argv = ["gadget", tool, "--q", "4", "--k", "7", "-o", str(out)]
        rc, stdout, stderr = run(argv, capsys)
        assert rc == 1 and stdout == "" and not out.exists()
        assert stderr == "error: k must be 2 at q >= 4, got 7\n"


def test_gadget_transformer_roundtrips_through_verify(tmp_path, capsys):
    out = tmp_path / "t.txt"
    rc, _, _ = run(["gadget", "transformer", "--q", "3", "--k", "2", "-o", str(out)], capsys)
    assert rc == 0
    graph, sidecar = serialize_bundle(star_transformer(3, 2))
    assert out.read_text() == serialize_graph(graph)
    assert json.loads((tmp_path / "t.txt.json").read_text()) == json.loads(json.dumps(sidecar))

    rc, stdout, _ = run(["verify", "transformer", "--in", str(out)], capsys)
    assert rc == 0
    assert stdout == "ok\n"

    rc, _, stderr = run(["verify", "absorber", "--in", str(out)], capsys)
    assert rc == 1
    assert "not a absorber" in stderr


def test_gadget_absorber_roundtrips_through_verify(tmp_path, capsys):
    out = tmp_path / "a.txt"
    rc, _, _ = run(["gadget", "absorber", "--q", "3", "-o", str(out)], capsys)
    assert rc == 0
    graph, _ = serialize_bundle(anti_clique_absorber(3, 2))
    assert out.read_text() == serialize_graph(graph)
    rc, stdout, _ = run(["verify", "absorber", "--in", str(out)], capsys)
    assert rc == 0
    assert stdout == "ok\n"


def test_gadget_absorber_takes_a_leftover_file(tmp_path, capsys):
    # the booster's own leftover forces the base fallback path
    booster = anti_clique_absorber(3, 2)
    lf = tmp_path / "l.txt"
    lf.write_text(serialize_graph(booster.l))
    out = tmp_path / "a.txt"
    rc, _, _ = run(["gadget", "absorber", "--q", "3", "--l", str(lf), "-o", str(out)], capsys)
    assert rc == 0
    graph, _ = serialize_bundle(nabla_absorber(booster.l, booster, base=booster))
    assert out.read_text() == serialize_graph(graph)


def test_gadget_absorber_leftover_with_its_own_decomposition(tmp_path, capsys):
    lf = tmp_path / "k3.txt"
    lf.write_text(serialize_graph(complete_graph(3)))
    out = tmp_path / "a.txt"
    rc, _, _ = run(["gadget", "absorber", "--q", "3", "--l", str(lf), "-o", str(out)], capsys)
    assert rc == 0
    graph, _ = serialize_bundle(nabla_absorber(complete_graph(3), anti_clique_absorber(3, 2)))
    assert out.read_text() == serialize_graph(graph)


def test_gadget_anti_edge_json_combines_graph_and_sidecar(capsys):
    rc, stdout, _ = run(["gadget", "anti-edge", "--q", "4", "--json"], capsys)
    assert rc == 0
    graph, sidecar = serialize_bundle(anti_edge(4))
    want = {"graph": {"n": graph.n, "edges": [list(e) for e in graph.sorted_edges()]}, **sidecar}
    assert json.loads(stdout) == json.loads(json.dumps(want))


def test_gadget_nabla_and_tilde_write_plain_graphs(tmp_path, capsys):
    base = tmp_path / "c5.txt"
    base.write_text(serialize_graph(cycle_graph(5)))
    rc, stdout, _ = run(["gadget", "nabla", "--q", "3", "--base", str(base)], capsys)
    assert rc == 0
    assert stdout == serialize_graph(nabla(3, cycle_graph(5)))
    rc, stdout, _ = run(["gadget", "nabla", "--q", "3", "--base", str(base), "--tilde"], capsys)
    assert rc == 0
    assert stdout == serialize_graph(tilde_nabla(3, cycle_graph(5)))


@pytest.mark.parametrize("q", [0, 1, 2])
def test_gadget_nabla_with_q_below_3_is_a_domain_error(tmp_path, capsys, q):
    base = tmp_path / "p3.txt"
    base.write_text(serialize_graph(Graph(3, [(0, 1), (1, 2)])))
    rc, stdout, stderr = run(["gadget", "nabla", "--q", str(q), "--base", str(base)], capsys)
    assert rc == 1 and stdout == ""
    assert stderr == f"error: q must be at least 3, got {q}\n"


# ===================================================================
# fixer
# ===================================================================


def test_fixer_build_writes_host_and_embedding(tmp_path, capsys):
    out = tmp_path / "host.txt"
    rc, _, _ = run(["fixer", "build", "--q", "3", "-o", str(out)], capsys)
    assert rc == 0
    host, emb = realize_fixer(3, 10)
    assert out.read_text() == serialize_graph(host)
    assert (tmp_path / "host.txt.json").read_text() == emb.to_json()


@pytest.mark.parametrize("n_core", ["0", "1"])
def test_fixer_build_refuses_a_core_below_two(tmp_path, capsys, n_core):
    out = tmp_path / "host.txt"
    rc, _, stderr = run(["fixer", "build", "--q", "3", "--n-core", n_core, "-o", str(out)], capsys)
    assert rc == 1
    assert "n_core must be at least 2" in stderr
    assert not out.exists()


def test_fixer_build_without_output_is_a_usage_error(capsys):
    usage_error(["fixer", "build", "--q", "3"], capsys)


def test_fixer_build_refuses_an_embedding_file_under_json(tmp_path, capsys):
    # the JSON document already holds the embedding
    emb = tmp_path / "emb.json"
    err = usage_error(["fixer", "build", "--q", "3", "--json", "--emb", str(emb)], capsys)
    assert "--emb" in err
    assert not emb.exists()


def test_fixer_select_prints_the_copy_counts(capsys):
    rc, stdout, _ = run(
        ["fixer", "select", "--q", "3", "--n", "6", "--m", "2", "--degrees", "0,1,1,0,0,0"],
        capsys,
    )
    assert rc == 0
    counts = inductive_select(FixerBlueprint(3, 6), 2, [0, 1, 1, 0, 0, 0])
    assert stdout == "".join(f"{u} {v} {c}\n" for (u, v), c in sorted(counts.items()))


def test_fixer_select_infeasible_target_fails_cleanly(capsys):
    rc, _, stderr = run(
        ["fixer", "select", "--q", "3", "--n", "6", "--m", "1", "--degrees", "1,0,0,0,0,0"],
        capsys,
    )
    assert rc == 1
    assert stderr.startswith("error:")


def test_fixer_select_wrong_degree_count_is_a_usage_error(capsys):
    usage_error(["fixer", "select", "--q", "3", "--n", "6", "--m", "2", "--degrees", "0,1"], capsys)


def test_fixer_apply_reports_and_writes_the_remainder(tmp_path, capsys):
    host_f = tmp_path / "host.txt"
    run(["fixer", "build", "--q", "3", "-o", str(host_f)], capsys)
    host, emb = realize_fixer(3, 10)
    res = apply_fixer(host, emb)

    rem_f = tmp_path / "rem.txt"
    rc, stdout, _ = run(
        ["fixer", "apply", "--graph", str(host_f), "--emb", str(host_f) + ".json", "-o", str(rem_f)],
        capsys,
    )
    assert rc == 0
    assert stdout == f"deleted {len(res.deleted)} edges, {res.graph.m} remain\n"
    assert rem_f.read_text() == serialize_graph(res.graph)

    rc, stdout, _ = run(
        ["fixer", "apply", "--graph", str(host_f), "--emb", str(host_f) + ".json", "--json"],
        capsys,
    )
    assert rc == 0
    assert json.loads(stdout) == {
        "deleted": [list(e) for e in res.deleted],
        "m": res.graph.m,
        "edge_target": res.edge_target,
        "degree_targets": list(res.degree_targets),
    }


# ===================================================================
# pack
# ===================================================================


def test_pack_gnp_text_report_matches_the_library(tmp_path, capsys):
    out = tmp_path / "pk.txt"
    rc, stdout, stderr = run(
        ["pack", "gnp", "--n", "24", "--p", "1/2", "--q", "3", "--seed", "5", "-o", str(out)],
        capsys,
    )
    rep = pack_gnp(24, Fraction(1, 2), 3, 5)
    assert rc == (0 if rep.valid else 1)
    assert stderr == "seed 5\n"
    st = rep.stages
    assert stdout == (
        f"pack gnp: n=24 p=1/2 q=3 seed=5\n"
        f"stages: fixer_deleted={st['fixer_deleted']} nibble={st['nibble']} "
        f"reserve={st['reserve']}\n"
        f"leave: {rep.leave} (optimal {rep.optimal_leave})\n"
        f"valid: {'yes' if rep.valid else 'no'}\n"
    )
    assert out.read_text() == serialize_packing(rep.packing)


def test_pack_on_a_host_smaller_than_the_fat_zone_degrades(capsys):
    # q = 12 needs 10 fat-zone vertices, so the fixer repairs by deletion
    rc, stdout, _ = run(["pack", "gnp", "--n", "9", "--p", "1", "--q", "12", "--seed", "0"], capsys)
    assert rc == 0
    assert "stages: fixer_deleted=36 nibble=0 reserve=0\n" in stdout
    assert stdout.endswith("leave: 0 (optimal 36)\nvalid: yes\n")


def test_pack_gnd_json_report_matches_the_library(capsys):
    rc, stdout, _ = run(["pack", "gnd", "--n", "18", "--d", "8", "--q", "3", "--seed", "2", "--json"], capsys)
    rep = pack_gnd(18, 8, 3, 2)
    assert rc == (0 if rep.valid else 1)
    doc = json.loads(stdout)
    want = rep.to_json()
    # wall time is the one nondeterministic field
    doc.pop("ms")
    want.pop("ms")
    assert doc == want


# ===================================================================
# fractional
# ===================================================================


def test_fractional_gadget_text_lists_the_weights(capsys):
    rc, stdout, _ = run(["fractional", "gadget", "--q", "3", "--r", "2"], capsys)
    assert rc == 0
    eg = edge_gadget(3, 2)
    lines = [f"q=3 r=2 max_abs={eg.max_abs} bound_ok={'yes' if eg.bound_ok else 'no'}"]
    for c, v in sorted(eg.psi.items()):
        lines.append(" ".join(str(x) for x in c) + f"  {v}")
    assert stdout == "\n".join(lines) + "\n"


def test_fractional_boost_verify_sample_flow(tmp_path, capsys):
    gfile = tmp_path / "k7.txt"
    gfile.write_text(serialize_graph(complete_graph(7)))
    wfile = tmp_path / "w.txt"
    rc, stdout, _ = run(
        ["fractional", "boost", "--in", str(gfile), "--q", "3", "-o", str(wfile), "--json"],
        capsys,
    )
    assert rc == 0
    res = fractional_kq_decomposition(complete_graph(7), 3)
    assert json.loads(stdout) == {"cliques": 35, "in_range": True, "max_deviation": "0"}
    assert wfile.read_text() == serialize_weighting(res.weighting)

    rc, stdout, _ = run(
        ["fractional", "verify", "--graph", str(gfile), "--weights", str(wfile), "--mode", "decomposition"],
        capsys,
    )
    assert rc == 0
    assert stdout == "ok\n"

    rc, stdout, stderr = run(
        ["fractional", "sample", "--weights", str(wfile), "--big-d", "5", "--seed", "3"], capsys
    )
    assert rc == 0
    assert stderr == "seed 3\n"
    # mirror the exact path: parse the file back, then draw from the stream
    w = parse_weighting(wfile.read_text())
    want = sample_regular_cliques(w, Fraction(5), stream(3, "sample"))
    assert stdout == f"selected={len(want.selected)} max_deviation={want.max_deviation}\n"


@pytest.mark.parametrize("n, p, seed, want", [(10, "9/10", 1, 0), (8, "3/4", 10, 1)])
def test_fractional_boost_exits_0_exactly_on_a_decomposition(tmp_path, capsys, n, p, seed, want):
    # gnp(10, 9/10, 1) boosts to max_deviation 27/70 with every weight
    # nonnegative; gnp(8, 3/4, 10) boosts to two negative weights
    g = gnp(n, Fraction(p), seed)
    gfile = tmp_path / "g.txt"
    gfile.write_text(serialize_graph(g))
    wfile = tmp_path / "w.txt"
    rc, _, _ = run(["fractional", "boost", "--in", str(gfile), "--q", "3", "-o", str(wfile)], capsys)
    assert rc == want
    problems = fractional_problems(g, parse_weighting(wfile.read_text()), "decomposition")
    assert rc == (1 if problems else 0)
    argv = ["fractional", "verify", "--graph", str(gfile), "--weights", str(wfile),
            "--mode", "decomposition"]
    assert run(argv, capsys)[0] == want


def test_fractional_boost_reports_domain_failure(tmp_path, capsys):
    gfile = tmp_path / "k4.txt"
    gfile.write_text(serialize_graph(complete_graph(4)))
    rc, _, stderr = run(["fractional", "boost", "--in", str(gfile), "--q", "3"], capsys)
    assert rc == 1
    assert stderr.startswith("error:")


def test_fractional_boost_with_q_below_3_is_a_domain_error(tmp_path, capsys):
    gfile = tmp_path / "k6.txt"
    gfile.write_text(serialize_graph(complete_graph(6)))
    rc, stdout, stderr = run(["fractional", "boost", "--in", str(gfile), "--q", "2"], capsys)
    assert rc == 1 and stdout == ""
    assert stderr == "error: q must be at least 3, got 2\n"


def test_fractional_gadget_with_r_above_q_is_a_domain_error(capsys):
    rc, stdout, stderr = run(["fractional", "gadget", "--q", "3", "--r", "4"], capsys)
    assert rc == 1 and stdout == ""
    assert stderr == "error: r must be in 1..q, got r=4 with q=3\n"


# ===================================================================
# verify
# ===================================================================


def test_verify_packing_and_decomposition_on_k7(tmp_path, capsys):
    g = complete_graph(7)
    gfile = tmp_path / "k7.txt"
    gfile.write_text(serialize_graph(g))
    full = min_leave_packing(g, 3).packing
    pfile = tmp_path / "p.txt"
    pfile.write_text(serialize_packing(full))

    rc, stdout, _ = run(["verify", "packing", "--graph", str(gfile), "--packing", str(pfile)], capsys)
    assert rc == 0
    assert stdout == "valid: covered=21 leave=0 bound_ok=yes\n"

    rc, stdout, _ = run(["verify", "decomposition", "--graph", str(gfile), "--packing", str(pfile)], capsys)
    assert rc == 0
    assert stdout == "decomposition: 21 edges in 7 cliques\n"

    partial = Packing(3, full.cliques[1:])
    pfile.write_text(serialize_packing(partial))
    rc, stdout, _ = run(["verify", "decomposition", "--graph", str(gfile), "--packing", str(pfile)], capsys)
    assert rc == 1
    assert stdout == "not a decomposition: leave has 3 edges\n"

    rc, stdout, _ = run(
        ["verify", "packing", "--graph", str(gfile), "--packing", str(pfile), "--json"], capsys
    )
    assert rc == 0
    assert json.loads(stdout) == {
        "valid": True,
        "covered": 18,
        "leave": 3,
        "bound_ok": True,
        "problems": [],
    }

    overlapping = Packing(3, [(0, 1, 2), (0, 1, 3)])
    pfile.write_text(serialize_packing(overlapping))
    rc, stdout, _ = run(["verify", "packing", "--graph", str(gfile), "--packing", str(pfile)], capsys)
    assert rc == 1
    assert stdout.endswith("problems\n")


def test_verify_decomposition_names_each_problem_of_an_invalid_packing(tmp_path, capsys):
    g = cycle_graph(6)
    gfile = tmp_path / "c6.txt"
    gfile.write_text(serialize_graph(g))
    bad = Packing(3, [(0, 1, 2)])  # (0, 2) is no edge of C_6
    pfile = tmp_path / "p.txt"
    pfile.write_text(serialize_packing(bad))
    rc, stdout, _ = run(["verify", "decomposition", "--graph", str(gfile), "--packing", str(pfile)],
                        capsys)
    problems = verify_packing(g, bad).problems
    assert rc == 1 and problems
    summary = f"invalid packing: {len(problems)} problems"
    assert stdout == "".join(f"{line}\n" for line in (*problems, summary))


def test_verify_packing_json_reports_the_leave_bound(tmp_path, capsys):
    # a valid K4 packing meets the bound; an invalid one never certifies it
    gfile = tmp_path / "k4.txt"
    gfile.write_text(serialize_graph(complete_graph(4)))
    pfile = tmp_path / "p.txt"
    argv = ["verify", "packing", "--graph", str(gfile), "--packing", str(pfile), "--json"]
    for cliques, valid in (([(0, 1, 2)], True), ([(0, 1, 2), (0, 1, 3)], False)):
        pfile.write_text(serialize_packing(Packing(3, cliques)))
        rc, stdout, _ = run(argv, capsys)
        assert rc == (0 if valid else 1)
        doc = json.loads(stdout)
        assert doc["valid"] is valid and doc["bound_ok"] is valid


def test_verify_omni_cli_matches_the_library(tmp_path, capsys):
    x = cycle_graph(6)
    oa = naive_omni_absorber(x)
    xfile = tmp_path / "x.txt"
    xfile.write_text(serialize_graph(x))
    afile = tmp_path / "a.txt"
    afile.write_text(serialize_graph(oa.a))
    rc, stdout, _ = run(
        ["verify", "omni", "--x", str(xfile), "--absorber", str(afile), "--q", "3"], capsys
    )
    assert rc == 0
    rep = verify_omni_absorber(x, oa.a, 3)
    assert stdout == f"checked=2 failures=0 unknown=0 refinement={rep.refinement}\n"

    afile.write_text(serialize_graph(Graph(x.n, [])))
    rc, _, _ = run(["verify", "omni", "--x", str(xfile), "--absorber", str(afile), "--q", "3"], capsys)
    assert rc == 1


# ===================================================================
# bench
# ===================================================================


def test_bench_json_is_thread_count_invariant(tmp_path, capsys):
    argv = ["bench", "--kind", "gnp", "--n", "20", "--q", "3", "--trials", "2", "--p", "2/5", "--seed", "11"]
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"b{threads}.json"
        rc, _, stderr = run(argv + ["--threads", threads, "-o", str(out)], capsys)
        assert rc == 0
        assert stderr == "seed 11\n"
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    doc, _ = bench("gnp", 20, 3, 2, 11, threads=1, p=Fraction(2, 5), d=None)
    assert json.loads(blobs[0]) == doc


def test_bench_refuses_a_negative_trial_count(capsys):
    argv = ["bench", "--kind", "gnp", "--n", "10", "--q", "3", "--trials", "-2", "--p", "1/2", "--seed", "1"]
    rc, stdout, stderr = run(argv, capsys)
    assert rc == 1
    assert stdout == ""
    assert "trials must be nonnegative" in stderr


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bench_refuses_fewer_than_one_thread(capsys, threads):
    argv = ["bench", "--kind", "gnp", "--n", "10", "--q", "3", "--trials", "2", "--p", "1/2",
            "--seed", "1", "--threads", threads]
    rc, stdout, stderr = run(argv, capsys)
    assert rc == 1
    assert stdout == ""
    assert "threads must be positive" in stderr


def test_bench_gnp_without_p_is_a_usage_error(capsys):
    usage_error(["bench", "--kind", "gnp", "--n", "10", "--q", "3", "--trials", "1", "--seed", "1"], capsys)


@pytest.mark.parametrize("kind, extra, other", [
    ("gnd", ["--d", "4", "--p", "1/2"], "p"),
    ("gnp", ["--p", "1/2", "--d", "4"], "d"),
])
def test_bench_refuses_the_other_models_parameter(capsys, kind, extra, other):
    argv = ["bench", "--kind", kind, "--n", "10", "--q", "3", "--trials", "1", "--seed", "1"]
    err = usage_error(argv + extra, capsys)
    assert f"bench --kind {kind} takes no --{other}" in err


# ===================================================================
# error plumbing
# ===================================================================


def test_unreadable_input_is_a_domain_error(capsys):
    rc, _, stderr = run(["density", "--in", "/nonexistent/graph.txt"], capsys)
    assert rc == 1
    assert stderr.startswith("error: cannot read")


def test_unwritable_output_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "missing" / "g.txt"
    rc, stdout, stderr = run(["gen", "gnp", "--n", "5", "--p", "1/2", "--seed", "1", "-o", str(out)], capsys)
    assert rc == 1 and stdout == ""
    assert stderr.startswith(f"seed 1\nerror: cannot write {out}:")


def test_malformed_graph_file_is_a_domain_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("3 1\n0 3\n")
    assert "line 2" in domain_error(["density", "--in", str(f)], capsys, f)


def test_repeated_edge_in_a_graph_file_names_its_line(tmp_path, capsys):
    f = tmp_path / "dup.txt"
    f.write_text("3 2\n0 1\n1 0\n")
    message = f"error: bad {f}: line 3: edge (1, 0) listed twice\n"
    assert run(["density", "--in", str(f)], capsys) == (1, "", message)


def domain_error(argv, capsys, path):
    """argv exits 1 with one error line that names path, no traceback."""
    rc, _, stderr = run(argv, capsys)
    assert rc == 1
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert str(path) in stderr and "Traceback" not in stderr
    return stderr


def test_malformed_packing_file_names_itself(tmp_path, capsys):
    gfile = tmp_path / "k4.txt"
    gfile.write_text(serialize_graph(complete_graph(4)))
    pfile = tmp_path / "p.txt"
    pfile.write_text("3 1\n0 1 x\n")
    argv = ["verify", "packing", "--graph", str(gfile), "--packing", str(pfile)]
    assert "line 2" in domain_error(argv, capsys, pfile)


def test_malformed_weighting_file_names_itself(tmp_path, capsys):
    gfile = tmp_path / "k4.txt"
    gfile.write_text(serialize_graph(complete_graph(4)))
    wfile = tmp_path / "w.txt"
    wfile.write_text("3 x\n")
    argv = ["fractional", "verify", "--graph", str(gfile), "--weights", str(wfile),
            "--mode", "packing"]
    assert "line 1" in domain_error(argv, capsys, wfile)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n0 1 2 1/2\n2 1 0 1/2\n", "line 3: clique (2, 1, 0) listed twice"),
        ("2 0\n", "line 1: q must be at least 3, got 2"),
        ("3 1\n0 0 1 1/2\n", "line 2: repeated vertex in clique [0, 0, 1]"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "sample"])
def test_weighting_file_refused_like_a_packing_file(tmp_path, capsys, command, text, message):
    gfile = tmp_path / "k4.txt"
    gfile.write_text(serialize_graph(complete_graph(4)))
    wfile = tmp_path / "w.txt"
    wfile.write_text(text)
    argv, seed_line = {
        "verify": (["fractional", "verify", "--graph", str(gfile), "--weights", str(wfile),
                    "--mode", "packing"], ""),
        "sample": (["fractional", "sample", "--weights", str(wfile), "--big-d", "5",
                    "--seed", "3"], "seed 3\n"),
    }[command]
    assert run(argv, capsys) == (1, "", f"{seed_line}error: bad {wfile}: {message}\n")


def test_sidecar_missing_a_certificate_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "t.txt"
    run(["gadget", "transformer", "--q", "3", "--k", "2", "-o", str(out)], capsys)
    sidecar = tmp_path / "t.txt.json"
    doc = json.loads(sidecar.read_text())
    del doc["certificates"]["decomp_tl"]
    sidecar.write_text(json.dumps(doc))
    err = domain_error(["verify", "transformer", "--in", str(out)], capsys, sidecar)
    assert "decomp_tl" in err


def test_sidecar_holding_a_list_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "a.txt"
    run(["gadget", "absorber", "--q", "3", "-o", str(out)], capsys)
    sidecar = tmp_path / "a.txt.json"
    sidecar.write_text("[]")
    domain_error(["verify", "absorber", "--in", str(out)], capsys, sidecar)


def test_embedding_missing_its_order_is_a_domain_error(tmp_path, capsys):
    host_f = tmp_path / "host.txt"
    run(["fixer", "build", "--q", "3", "-o", str(host_f)], capsys)
    emb_f = tmp_path / "host.txt.json"
    doc = json.loads(emb_f.read_text())
    del doc["order"]
    emb_f.write_text(json.dumps(doc))
    argv = ["fixer", "apply", "--graph", str(host_f), "--emb", str(emb_f)]
    assert "order" in domain_error(argv, capsys, emb_f)


# ===================================================================
# one output rule: -o FILE holds what the subcommand prints
# ===================================================================


def parser_leaves(parser, prefix=()):
    """{"gen gnp": its subparser, ...} for every leaf of the parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(prefix): parser}
    leaves = {}
    for name, sp in subs[0].choices.items():
        leaves.update(parser_leaves(sp, prefix + (name,)))
    return leaves


# one invocation of every leaf; {name} is an input file of `inputs`
LEAF_ARGV = {
    "gen gnp": ["gen", "gnp", "--n", "9", "--p", "1/3", "--seed", "1"],
    "gen gnd": ["gen", "gnd", "--n", "8", "--d", "3", "--seed", "2"],
    "gadget anti-edge": ["gadget", "anti-edge", "--q", "3"],
    "gadget fake-edge": ["gadget", "fake-edge", "--q", "3"],
    "gadget nabla": ["gadget", "nabla", "--q", "3", "--base", "{c6}"],
    "gadget transformer": ["gadget", "transformer", "--q", "3"],
    "gadget absorber": ["gadget", "absorber", "--q", "3"],
    "density": ["density", "--in", "{c6}", "--roots", "0,3"],
    "fixer build": ["fixer", "build", "--q", "3"],
    "fixer select": ["fixer", "select", "--q", "3", "--n", "6", "--m", "2", "--degrees", "0,1,1,0,0,0"],
    "fixer apply": ["fixer", "apply", "--graph", "{host}", "--emb", "{emb}"],
    "pack gnp": ["pack", "gnp", "--n", "12", "--p", "1/2", "--q", "3", "--seed", "1"],
    "pack gnd": ["pack", "gnd", "--n", "10", "--d", "4", "--q", "3", "--seed", "1"],
    "fractional gadget": ["fractional", "gadget", "--q", "3"],
    "fractional boost": ["fractional", "boost", "--in", "{k7}", "--q", "3"],
    "fractional verify": ["fractional", "verify", "--graph", "{k7}", "--weights", "{w}",
                          "--mode", "decomposition"],
    "fractional sample": ["fractional", "sample", "--weights", "{w}", "--big-d", "5", "--seed", "3"],
    "verify packing": ["verify", "packing", "--graph", "{k7}", "--packing", "{pk}"],
    "verify decomposition": ["verify", "decomposition", "--graph", "{k7}", "--packing", "{pk}"],
    "verify transformer": ["verify", "transformer", "--in", "{t}"],
    "verify absorber": ["verify", "absorber", "--in", "{a}"],
    "verify omni": ["verify", "omni", "--x", "{c6}", "--absorber", "{oa}", "--q", "3"],
    "bench": ["bench", "--kind", "gnp", "--n", "10", "--q", "3", "--trials", "1", "--p", "1/2",
              "--seed", "1"],
}

# the leaves whose -o is an artifact, with that artifact for LEAF_ARGV
ARTIFACTS = {
    "fixer apply": lambda: serialize_graph(apply_fixer(*realize_fixer(3, 10)).graph),
    "pack gnp": lambda: serialize_packing(pack_gnp(12, Fraction(1, 2), 3, 1).packing),
    "pack gnd": lambda: serialize_packing(pack_gnd(10, 4, 3, 1).packing),
    "fractional boost": lambda: serialize_weighting(
        fractional_kq_decomposition(complete_graph(7), 3).weighting
    ),
}

# fixer build needs -o in text mode; bench reports only JSON and has no --json
OUT_CASES = [
    (leaf, flags)
    for leaf in LEAF_ARGV
    for flags in ([], ["--json"])
    if (leaf, flags) not in (("fixer build", []), ("bench", ["--json"]))
]


@pytest.fixture
def inputs(tmp_path):
    k7 = complete_graph(7)
    host, emb = realize_fixer(3, 10)
    texts = {
        "c6": serialize_graph(cycle_graph(6)),
        "k7": serialize_graph(k7),
        "pk": serialize_packing(min_leave_packing(k7, 3).packing),
        "w": serialize_weighting(fractional_kq_decomposition(k7, 3).weighting),
        "host": serialize_graph(host),
        "emb": emb.to_json(),
        "oa": serialize_graph(naive_omni_absorber(cycle_graph(6)).a),
    }
    for name, obj in (("t", star_transformer(3, 2)), ("a", anti_clique_absorber(3, 2))):
        graph, sidecar = serialize_bundle(obj)
        texts[name] = serialize_graph(graph)
        (tmp_path / f"{name}.json").write_text(json.dumps(sidecar))
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in texts}


def without_wall_time(stdout: str) -> str:
    # a pack report's wall time is its one nondeterministic field
    return re.sub(r'"ms": \d+', '"ms": 0', stdout)


def test_every_leaf_takes_o_and_has_an_out_case():
    leaves = parser_leaves(cli.build_parser())
    assert set(LEAF_ARGV) == set(leaves)
    assert all("-o" in sp._option_string_actions for sp in leaves.values())


@pytest.mark.parametrize(
    "leaf, flags",
    OUT_CASES,
    ids=[leaf.replace(" ", "-") + ("-json" if flags else "-text") for leaf, flags in OUT_CASES],
)
def test_out_file_holds_exactly_what_the_leaf_prints(tmp_path, capsys, inputs, leaf, flags):
    argv = [a.format(**inputs) for a in LEAF_ARGV[leaf]] + flags
    rc, printed, err = run(argv, capsys)
    out = tmp_path / "out"
    rc_o, stdout, err_o = run(argv + ["-o", str(out)], capsys)
    assert (rc_o, err_o) == (rc, err)
    if leaf in ARTIFACTS:
        assert without_wall_time(stdout) == without_wall_time(printed)
        assert out.read_text() == ARTIFACTS[leaf]()
    else:
        assert stdout == ""
        assert out.read_bytes() == printed.encode()


# ===================================================================
# the parser and the docs list the same subcommands
# ===================================================================


def expand(spec: str) -> set[str]:
    """"gen gnp|gnd" -> {"gen gnp", "gen gnd"}; "bench" -> {"bench"}."""
    group, _, leaves = spec.partition(" ")
    return {f"{group} {leaf}" for leaf in leaves.split("|")} if leaves else {group}


def test_docstring_and_readme_list_the_parser_leaves():
    leaves = set(parser_leaves(cli.build_parser()))

    block = cli.__doc__.split("-----------\n", 1)[1].split("\n\n", 1)[0]
    specs = [re.split(r"\s{2,}", line)[0] for line in block.splitlines() if not line.startswith(" ")]
    assert set().union(*map(expand, specs)) == leaves

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\nSubcommands:\n", 1)[1].split("\n## ", 1)[0]
    specs = [s.replace("\\|", "|") for s in re.findall(r"^\| `([^`]+)` \|", table, re.M)]
    assert set().union(*map(expand, specs)) == leaves
