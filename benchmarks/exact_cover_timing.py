"""Time the exact-cover solver on gadget hosts and hash its outputs.

Usage: python benchmarks/exact_cover_timing.py LABEL [--src DIR]

exact_decomposition on fresh copies of the anti_clique_absorber(3), (4)
hosts (L + A), the star_transformer(q, k) covers (T + L, T + L') and
K13 at q = 4; naive_omni_absorber(C6), which runs the generic
exact_cover_solutions; building anti_clique_absorber(3), (4); the
backtracking covers of gnd(45, 20, s) at q = 3, s = 1-3, each with a
fresh 20,000-node budget (seed 1 finds a cover, seeds 2-3 run out).  5
repeats, on the protocol of timing.py, into BENCH_exact_cover.json.  A
sha256 covers the status, node count and cliques in search order (the
omni-absorber's graph and table; the bundle's L, A and certificates).
"""

from functools import partial

from timing import Case, main


def cases():
    from cliqueforge import gadgets
    from cliqueforge.graphs import Graph, union
    from cliqueforge.randgraphs import gnd
    from cliqueforge.solver import SolveBudget, exact_decomposition

    def cover_doc(res):
        return [res.status, res.nodes, list(res.packing.cliques) if res.packing else None]

    def omni_doc(omni):
        table = sorted([sorted(key), list(p.cliques)] for key, p in omni.table.items())
        return [omni.a.n, sorted(omni.a.edges), table]

    def bundle_doc(b):
        return [b.l.n, b.l.sorted_edges(), b.a.n, b.a.sorted_edges(),
                list(b.decomp_a.cliques), list(b.decomp_la.cliques)]

    def cover(name, g, q):
        return Case(name, exact_decomposition, lambda: (Graph(g.n, g.edges), q), cover_doc)

    for q in (3, 4):
        b = gadgets.anti_clique_absorber(q)
        yield cover(f"anti_clique_absorber({q})", union(b.l, b.a), q)
    for q, k in ((3, 2), (3, 4), (3, 6), (4, 2), (5, 2)):
        t = gadgets.star_transformer(q, k)
        yield cover(f"star_transformer({q},{k}) T+L", union(t.t, t.l), q)
        yield cover(f"star_transformer({q},{k}) T+L'", union(t.t, t.l_prime), q)
    yield cover("K13 q=4", Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), 4)
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    yield Case("naive_omni_absorber(C6)", gadgets.naive_omni_absorber,
               lambda: (Graph(c6.n, c6.edges),), omni_doc)
    for q in (3, 4):
        yield Case(f"build anti_clique_absorber({q})",
                   partial(gadgets.anti_clique_absorber, q), doc=bundle_doc)
    for s in (1, 2, 3):
        g = gnd(45, 20, s)
        yield Case(f"gnd(45, 20, {s}) q=3, 20000 nodes", exact_decomposition,
                   lambda g=g: (Graph(g.n, g.edges), 3, SolveBudget(20_000)), cover_doc)


if __name__ == "__main__":
    main(__doc__, "BENCH_exact_cover.json", cases, repeats=5,
         workload="exact_decomposition on gadget hosts; naive_omni_absorber(C6); "
                  "anti_clique_absorber(3) and (4) builds; gnd(45, 20, s) q=3 covers, "
                  "20000-node budget")
