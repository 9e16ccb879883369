"""Command-line front-end: generation, gadgets, packing, verification.

Subcommands
-----------
gen gnp|gnd                 seeded random graphs, written as edge lists
gadget anti-edge|fake-edge|nabla|transformer|absorber
                            divisibility gadget constructions
density                     exact rooted density / 2-density of an edge-list graph
fixer build|select|apply    divisibility fixers
pack gnp|gnd                the full packing pipeline on one random graph
fractional gadget|boost|verify|sample
                            fractional decomposition tools
verify packing|decomposition|transformer|absorber|omni
                            re-check artifacts and certificate bundles
bench                       repeated pack trials, aggregate JSON

Every subcommand is a thin wrapper over one library call and reports
through one writer.  Under --json the report is a JSON document (bench
reports only JSON), otherwise text.  -o FILE receives exactly the bytes
the subcommand would print, and stdout stays empty, except for pack
gnp|gnd, fixer apply and fractional boost: there -o FILE is the
packing, remainder graph or weighting artifact, and the report stays on
stdout.  An option is either honoured in every mode or refused as a
usage error: fixer build writes its embedding to --emb FILE (default
OUT.json) and needs -o in text mode, and refuses --emb under --json,
whose document already holds the embedding; bench refuses the other
model's parameter (--p with --kind gnd, --d with --kind gnp).

Exit codes: 0 success, 1 domain failure (verification false,
infeasible instance, malformed input file), 2 usage error.  fractional
boost exits 0 exactly when its weighting is a fractional
K_q-decomposition, the check fractional verify --mode decomposition
makes.  Randomized subcommands (gen, pack, fractional sample, bench)
take --seed or CLIQUEFORGE_SEED and echo the seed to stderr, so stdout
stays a clean artifact.

Graph artifacts use the edge-list format ("n m" header, one "u v" line
per edge); bundles written with -o in text mode get a JSON sidecar at
<out>.json holding roots and certificates, which the verify
subcommands read back.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .density import max_2_density, max_rooted_density, rooted_2_density
from .fixers import EmbeddedFixer, FixerBlueprint, apply_fixer, inductive_select, realize_fixer
from .fractional import (
    edge_gadget,
    fractional_kq_decomposition,
    fractional_problems,
    parse_weighting,
    sample_regular_cliques,
    serialize_weighting,
)
from .gadgets import (
    AbsorberBundle,
    TransformerBundle,
    anti_clique_absorber,
    anti_edge,
    fake_edge,
    load_bundle,
    nabla,
    nabla_absorber,
    serialize_bundle,
    star_transformer,
    tilde_nabla,
    verify_omni_absorber,
)
from .graphs import (
    optimal_leave_number,
    parse_graph,
    parse_packing,
    serialize_graph,
    serialize_packing,
    verify_packing,
)
from .pipeline import bench, pack_gnd, pack_gnp
from .randgraphs import gnd, gnp, stream
from .solver import verify_absorber, verify_transformer


# ===================================================================
# Shared plumbing
# ===================================================================


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _read_graph(path: str):
    return _parse_file(path, parse_graph)


def _parse_file(path: str, parse):
    """parse(the text of path); a malformed document is a ValueError
    that names path."""
    text = _read_text(path)
    try:
        return parse(text)
    except KeyError as exc:
        raise ValueError(f"bad {path}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {path}: {exc}") from None


def _json_mode(args) -> bool:
    # bench has no --json: its one report is the JSON document
    return getattr(args, "json", True)


def _report(args, doc, text=None, rc=0, *, artifact=None, sidecar=None) -> int:
    """Write a subcommand's report; return its exit code rc.

    The report is doc as indented sorted-key JSON under --json, else
    text (whole lines).  It goes to -o FILE when given, else stdout, so
    FILE holds exactly what the subcommand prints without -o.  A
    subcommand whose -o is an artifact passes the artifact's text:
    FILE gets that, and the report stays on stdout.  sidecar =
    (path, text) is written beside a text report that went to FILE, at
    path, or at FILE.json when path is None.
    """
    as_json = _json_mode(args)
    body = json.dumps(doc, indent=2, sort_keys=True) + "\n" if as_json else text
    out = args.out
    if artifact is not None:
        if out is not None:
            _write_text(out, artifact)
        out = None
    if out is None:
        sys.stdout.write(body)
        return rc
    _write_text(out, body)
    if sidecar is not None and not as_json:
        path, side = sidecar
        _write_text(path if path is not None else out + ".json", side)
    return rc


def _lines(*lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _graph_doc(g) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def _resolve_seed(args) -> int:
    if args.seed is not None:
        s = args.seed
    else:
        env = os.environ.get("CLIQUEFORGE_SEED")
        if env is None:
            args.parser.error("--seed is required (or set CLIQUEFORGE_SEED)")
        try:
            s = int(env)
        except ValueError:
            args.parser.error(f"CLIQUEFORGE_SEED must be an integer, got {env!r}")
    print(f"seed {s}", file=sys.stderr)
    return s


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None


def _write_bundle(args, obj) -> int:
    graph, sidecar = serialize_bundle(obj)
    return _report(
        args,
        {"graph": _graph_doc(graph), **sidecar},
        serialize_graph(graph),
        sidecar=(None, json.dumps(sidecar, indent=2, sort_keys=True)),
    )


def _load_bundle_files(path: str):
    graph = _read_graph(path)
    return _parse_file(path + ".json", lambda text: load_bundle(graph, json.loads(text)))


def _report_problems(args, problems) -> int:
    doc = {"ok": not problems, "problems": problems}
    summary = "ok" if not problems else f"{len(problems)} problems"
    return _report(args, doc, _lines(*problems, summary), 0 if not problems else 1)


# ===================================================================
# gen
# ===================================================================


def cmd_gen_gnp(args) -> int:
    seed = _resolve_seed(args)
    g = gnp(args.n, args.p, seed)
    doc = {"kind": "gnp", "p": str(args.p), "seed": seed, **_graph_doc(g)}
    return _report(args, doc, serialize_graph(g))


def cmd_gen_gnd(args) -> int:
    seed = _resolve_seed(args)
    g = gnd(args.n, args.d, seed)
    doc = {"kind": "gnd", "d": args.d, "seed": seed, **_graph_doc(g)}
    return _report(args, doc, serialize_graph(g))


# ===================================================================
# gadget
# ===================================================================


def cmd_gadget_anti_edge(args) -> int:
    return _write_bundle(args, anti_edge(args.q))


def cmd_gadget_fake_edge(args) -> int:
    return _write_bundle(args, fake_edge(args.q))


def cmd_gadget_nabla(args) -> int:
    base = _read_graph(args.base)
    g = tilde_nabla(args.q, base) if args.tilde else nabla(args.q, base)
    kind = "tilde_nabla" if args.tilde else "nabla"
    return _report(args, {"kind": kind, "q": args.q, **_graph_doc(g)}, serialize_graph(g))


def cmd_gadget_transformer(args) -> int:
    return _write_bundle(args, star_transformer(args.q, args.k))


def cmd_gadget_absorber(args) -> int:
    booster = anti_clique_absorber(args.q, args.k)
    if args.l is None:
        bundle = booster
    else:
        l = _read_graph(args.l)
        # the booster doubles as the base when L is its own leftover
        base = booster if l.edges == booster.l.edges else None
        bundle = nabla_absorber(l, booster, base=base)
    return _write_bundle(args, bundle)


# ===================================================================
# density
# ===================================================================


def cmd_density(args) -> int:
    g = _read_graph(args.input)
    roots = args.roots if args.roots is not None else []
    if args.plain:
        val = max_rooted_density(g, roots)
    elif args.roots is not None:
        val = rooted_2_density(g, roots)
    else:
        val = max_2_density(g)
    text = f"{val.value.numerator}/{val.value.denominator}"
    doc = {"value": text, "witness": list(val.witness), "kind": val.kind}
    return _report(args, doc, _lines(text))


# ===================================================================
# fixer
# ===================================================================


def cmd_fixer_build(args) -> int:
    if _json_mode(args):
        if args.emb is not None:
            args.parser.error("--emb is not allowed with --json (its document holds the embedding)")
    elif args.out is None:
        args.parser.error("-o is required (or use --json)")
    host, emb = realize_fixer(args.q, args.n_core)
    return _report(
        args,
        {"host": _graph_doc(host), "embedding": json.loads(emb.to_json())},
        serialize_graph(host),
        sidecar=(args.emb, emb.to_json()),
    )


def cmd_fixer_select(args) -> int:
    if len(args.degrees) != args.n:
        args.parser.error(f"--degrees needs exactly {args.n} values, got {len(args.degrees)}")
    bp = FixerBlueprint(args.q, args.n)
    counts = sorted(inductive_select(bp, args.m, args.degrees).items())
    return _report(
        args,
        {"counts": [[u, v, c] for (u, v), c in counts]},
        _lines(*(f"{u} {v} {c}" for (u, v), c in counts)),
    )


def cmd_fixer_apply(args) -> int:
    g = _read_graph(args.graph)
    emb = _parse_file(args.emb, EmbeddedFixer.from_json)
    res = apply_fixer(g, emb)
    doc = {
        "deleted": [list(e) for e in res.deleted],
        "m": res.graph.m,
        "edge_target": res.edge_target,
        "degree_targets": list(res.degree_targets),
    }
    text = _lines(f"deleted {len(res.deleted)} edges, {res.graph.m} remain")
    return _report(args, doc, text, artifact=serialize_graph(res.graph))


# ===================================================================
# pack
# ===================================================================


def _finish_pack(args, rep) -> int:
    doc = rep.to_json()
    par, st = doc["params"], rep.stages
    knob = f"p={par['p']}" if par["p"] is not None else f"d={par['d']}"
    text = _lines(
        f"pack {args.model}: n={par['n']} {knob} q={par['q']} seed={par['seed']}",
        f"stages: fixer_deleted={st['fixer_deleted']} nibble={st['nibble']} "
        f"reserve={st['reserve']}",
        f"leave: {rep.leave} (optimal {rep.optimal_leave})",
        f"valid: {_yes(rep.valid)}",
    )
    return _report(args, doc, text, 0 if rep.valid else 1, artifact=serialize_packing(rep.packing))


def cmd_pack_gnp(args) -> int:
    seed = _resolve_seed(args)
    return _finish_pack(args, pack_gnp(args.n, args.p, args.q, seed))


def cmd_pack_gnd(args) -> int:
    seed = _resolve_seed(args)
    return _finish_pack(args, pack_gnd(args.n, args.d, args.q, seed))


# ===================================================================
# fractional
# ===================================================================


def cmd_fractional_gadget(args) -> int:
    eg = edge_gadget(args.q, args.r)
    psi = sorted(eg.psi.items())
    doc = {
        "q": eg.q,
        "r": eg.r,
        "max_abs": str(eg.max_abs),
        "bound_ok": eg.bound_ok,
        "psi": [[list(c), str(v)] for c, v in psi],
    }
    text = _lines(
        f"q={eg.q} r={eg.r} max_abs={eg.max_abs} bound_ok={_yes(eg.bound_ok)}",
        *(" ".join(str(x) for x in c) + f"  {v}" for c, v in psi),
    )
    return _report(args, doc, text)


def cmd_fractional_boost(args) -> int:
    g = _read_graph(args.input)
    res = fractional_kq_decomposition(g, args.q)
    doc = {
        "cliques": len(res.weighting),
        "in_range": res.in_range,
        "max_deviation": str(res.max_deviation),
    }
    text = _lines(
        f"cliques={len(res.weighting)} in_range={_yes(res.in_range)} "
        f"max_deviation={res.max_deviation}"
    )
    rc = 1 if fractional_problems(g, res.weighting, "decomposition") else 0
    return _report(args, doc, text, rc, artifact=serialize_weighting(res.weighting))


def cmd_fractional_verify(args) -> int:
    g = _read_graph(args.graph)
    w = _parse_file(args.weights, parse_weighting)
    return _report_problems(args, fractional_problems(g, w, args.mode))


def cmd_fractional_sample(args) -> int:
    seed = _resolve_seed(args)
    w = _parse_file(args.weights, parse_weighting)
    res = sample_regular_cliques(w, args.big_d, stream(seed, "sample"))
    doc = {
        "seed": seed,
        "selected": [list(c) for c in res.selected],
        "max_deviation": str(res.max_deviation),
    }
    text = _lines(f"selected={len(res.selected)} max_deviation={res.max_deviation}")
    return _report(args, doc, text)


# ===================================================================
# verify
# ===================================================================


def cmd_verify_packing(args) -> int:
    g = _read_graph(args.graph)
    p = _parse_file(args.packing, parse_packing)
    rep = verify_packing(g, p)
    bound_ok = rep.valid and rep.leave.m >= optimal_leave_number(g, p.q)
    doc = {
        "valid": rep.valid,
        "covered": rep.covered,
        "leave": rep.leave.m,
        "bound_ok": bound_ok,
        "problems": list(rep.problems),
    }
    if rep.valid:
        summary = f"valid: covered={rep.covered} leave={rep.leave.m} bound_ok={_yes(bound_ok)}"
    else:
        summary = f"invalid: {len(rep.problems)} problems"
    return _report(args, doc, _lines(*rep.problems, summary), 0 if rep.valid else 1)


def cmd_verify_decomposition(args) -> int:
    g = _read_graph(args.graph)
    p = _parse_file(args.packing, parse_packing)
    rep = verify_packing(g, p)
    ok = rep.valid and rep.leave.m == 0
    if ok:
        summary = f"decomposition: {rep.covered} edges in {len(p.cliques)} cliques"
    elif rep.valid:
        summary = f"not a decomposition: leave has {rep.leave.m} edges"
    else:
        summary = f"invalid packing: {len(rep.problems)} problems"
    doc = {"ok": ok, "leave": rep.leave.m, "problems": list(rep.problems)}
    return _report(args, doc, _lines(*rep.problems, summary), 0 if ok else 1)


def _verify_bundle(args, want, checker, label) -> int:
    bundle = _load_bundle_files(args.input)
    if not isinstance(bundle, want):
        raise ValueError(f"{args.input} holds a {type(bundle).__name__}, not a {label}")
    return _report_problems(args, checker(bundle))


def cmd_verify_transformer(args) -> int:
    return _verify_bundle(args, TransformerBundle, verify_transformer, "transformer")


def cmd_verify_absorber(args) -> int:
    return _verify_bundle(args, AbsorberBundle, verify_absorber, "absorber")


def cmd_verify_omni(args) -> int:
    x = _read_graph(args.x)
    a = _read_graph(args.absorber)
    rep = verify_omni_absorber(x, a, args.q, cap=args.cap, budget_nodes=args.budget)
    doc = {
        "ok": rep.ok,
        "checked": rep.checked,
        "failures": len(rep.failures),
        "unknown": len(rep.unknown),
        "refinement": rep.refinement,
    }
    text = _lines(
        f"checked={rep.checked} failures={len(rep.failures)} "
        f"unknown={len(rep.unknown)} refinement={rep.refinement}"
    )
    return _report(args, doc, text, 0 if rep.ok else 1)


# ===================================================================
# bench
# ===================================================================


def cmd_bench(args) -> int:
    need, other = ("p", "d") if args.kind == "gnp" else ("d", "p")
    if getattr(args, need) is None:
        args.parser.error(f"bench --kind {args.kind} needs --{need}")
    if getattr(args, other) is not None:
        args.parser.error(f"bench --kind {args.kind} takes no --{other}")
    seed = _resolve_seed(args)
    doc, _ = bench(
        args.kind,
        args.n,
        args.q,
        args.trials,
        seed,
        threads=args.threads,
        p=args.p,
        d=args.d,
    )
    return _report(args, doc, rc=0 if doc["aggregate"]["all_valid"] else 1)


# ===================================================================
# Parser
# ===================================================================


def _add_json(sp) -> None:
    sp.add_argument("--json", action="store_true", help="machine-readable JSON output")


def _add_report(sp, out_help="output file (default stdout)") -> None:
    sp.add_argument("-o", "--out", metavar="FILE", help=out_help)
    _add_json(sp)


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=int, help="RNG seed (or CLIQUEFORGE_SEED)")


def _leaf(subparsers, name, func, help_text):
    sp = subparsers.add_parser(name, help=help_text)
    sp.set_defaults(func=func)
    sp.set_defaults(parser=sp)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliqueforge",
        description="Clique packings, decompositions, and divisibility gadgets.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    # ----- gen ------------------------------------------------------
    gen = top.add_parser("gen", help="seeded random graphs").add_subparsers(
        dest="model", required=True
    )
    sp = _leaf(gen, "gnp", cmd_gen_gnp, "binomial random graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=_fraction, required=True, help="edge probability (rational)")
    _add_seed(sp)
    _add_report(sp)
    sp = _leaf(gen, "gnd", cmd_gen_gnd, "random d-regular graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    _add_seed(sp)
    _add_report(sp)

    # ----- gadget ---------------------------------------------------
    gad = top.add_parser("gadget", help="divisibility gadget constructions").add_subparsers(
        dest="which", required=True
    )
    sp = _leaf(gad, "anti-edge", cmd_gadget_anti_edge, "edge-parity flip gadget")
    sp.add_argument("--q", type=int, required=True)
    _add_report(sp, "graph file; sidecar goes to FILE.json")
    sp = _leaf(gad, "fake-edge", cmd_gadget_fake_edge, "removable edge copy gadget")
    sp.add_argument("--q", type=int, required=True)
    _add_report(sp, "graph file; sidecar goes to FILE.json")
    sp = _leaf(gad, "nabla", cmd_gadget_nabla, "anti-edge expansion of a base graph")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--base", required=True, metavar="FILE", help="base graph edge list")
    sp.add_argument("--tilde", action="store_true", help="keep the base edges too")
    _add_report(sp)
    sp = _leaf(gad, "transformer", cmd_gadget_transformer, "star-to-star transformer")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, default=2, help="interior path length at q=3; must be 2 at q >= 4")
    _add_report(sp, "graph file; sidecar goes to FILE.json")
    sp = _leaf(gad, "absorber", cmd_gadget_absorber, "absorber bundle with certificates")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, default=2, help="transformer path length at q=3; must be 2 at q >= 4")
    sp.add_argument("--l", metavar="FILE", help="absorb this graph instead of the anti-clique")
    _add_report(sp, "graph file; sidecar goes to FILE.json")

    # ----- density --------------------------------------------------
    sp = _leaf(top, "density", cmd_density, "exact density maxima with witnesses")
    sp.add_argument("--in", dest="input", required=True, metavar="FILE")
    sp.add_argument("--roots", type=_csv_ints, metavar="CSV", help="rooted 2-density at these roots (plain 2-density without)")
    sp.add_argument("--plain", action="store_true", help="edges-per-nonroot ratio instead of the 2-density")
    _add_report(sp)

    # ----- fixer ----------------------------------------------------
    fix = top.add_parser("fixer", help="divisibility fixers").add_subparsers(
        dest="step", required=True
    )
    sp = _leaf(fix, "build", cmd_fixer_build, "host graph that is exactly one fixer")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n-core", type=int, default=10, help="path core size")
    sp.add_argument("-o", "--out", metavar="FILE", help="host graph file (required without --json)")
    sp.add_argument("--emb", metavar="FILE", help="embedding JSON (default OUT.json)")
    _add_json(sp)
    sp = _leaf(fix, "select", cmd_fixer_select, "copy counts for given residue targets")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="blueprint vertex count")
    sp.add_argument("--m", type=int, required=True, help="edge count target")
    sp.add_argument("--degrees", type=_csv_ints, required=True, metavar="CSV")
    _add_report(sp)
    sp = _leaf(fix, "apply", cmd_fixer_apply, "delete copies to reach divisibility")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--emb", required=True, metavar="FILE", help="embedding JSON")
    _add_report(sp, "write the divisible remainder here")

    # ----- pack -----------------------------------------------------
    pack = top.add_parser("pack", help="full packing pipeline").add_subparsers(
        dest="model", required=True
    )
    for model, func in (("gnp", cmd_pack_gnp), ("gnd", cmd_pack_gnd)):
        sp = _leaf(pack, model, func, f"pack a {model} sample")
        sp.add_argument("--n", type=int, required=True)
        if model == "gnp":
            sp.add_argument("--p", type=_fraction, required=True)
        else:
            sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        _add_seed(sp)
        _add_report(sp, "write the packing here")

    # ----- fractional -----------------------------------------------
    fra = top.add_parser("fractional", help="fractional decomposition tools").add_subparsers(
        dest="tool", required=True
    )
    sp = _leaf(fra, "gadget", cmd_fractional_gadget, "signed edge gadget weights")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, default=2, help="root set size")
    _add_report(sp)
    sp = _leaf(fra, "boost", cmd_fractional_boost, "exact fractional decomposition")
    sp.add_argument("--in", dest="input", required=True, metavar="FILE")
    sp.add_argument("--q", type=int, required=True)
    _add_report(sp, "write the weighting here")
    sp = _leaf(fra, "verify", cmd_fractional_verify, "check a clique weighting")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--weights", required=True, metavar="FILE")
    sp.add_argument("--mode", choices=("packing", "decomposition"), required=True)
    _add_report(sp)
    sp = _leaf(fra, "sample", cmd_fractional_sample, "Bernoulli draw from a weighting")
    sp.add_argument("--weights", required=True, metavar="FILE")
    sp.add_argument("--big-d", type=_fraction, required=True, help="regularity scale D")
    _add_seed(sp)
    _add_report(sp)

    # ----- verify ---------------------------------------------------
    ver = top.add_parser("verify", help="check artifacts").add_subparsers(
        dest="what", required=True
    )
    sp = _leaf(ver, "packing", cmd_verify_packing, "edge-disjointness and leave bound")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--packing", required=True, metavar="FILE")
    _add_report(sp)
    sp = _leaf(ver, "decomposition", cmd_verify_decomposition, "packing with empty leave")
    sp.add_argument("--graph", required=True, metavar="FILE")
    sp.add_argument("--packing", required=True, metavar="FILE")
    _add_report(sp)
    sp = _leaf(ver, "transformer", cmd_verify_transformer, "transformer certificates")
    sp.add_argument("--in", dest="input", required=True, metavar="FILE", help="graph; sidecar at FILE.json")
    _add_report(sp)
    sp = _leaf(ver, "absorber", cmd_verify_absorber, "absorber certificates")
    sp.add_argument("--in", dest="input", required=True, metavar="FILE", help="graph; sidecar at FILE.json")
    _add_report(sp)
    sp = _leaf(ver, "omni", cmd_verify_omni, "exhaustive omni-absorber check")
    sp.add_argument("--x", required=True, metavar="FILE", help="the absorbed zone")
    sp.add_argument("--absorber", required=True, metavar="FILE")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--cap", type=int, default=10, help="max e(X) for exhaustion")
    sp.add_argument("--budget", type=int, default=200_000, help="search node budget per subset")
    _add_report(sp)

    # ----- bench ----------------------------------------------------
    sp = _leaf(top, "bench", cmd_bench, "repeated pack trials, JSON summary")
    sp.add_argument("--kind", choices=("gnp", "gnd"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--p", type=_fraction, help="edge probability (gnp)")
    sp.add_argument("--d", type=int, help="degree (gnd)")
    sp.add_argument("--threads", type=int, default=1)
    _add_seed(sp)
    sp.add_argument("-o", "--out", metavar="FILE", help="JSON file (default stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
