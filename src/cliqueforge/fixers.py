"""Divisibility fixers: delete a controlled edge set to reach divisibility.

A fixer blueprint is a multigraph on the host's vertex range: the
(q-2)-nd power of the path 0..n-1, with every pair among the first
t = max(3, q-2) vertices fattened to multiplicity q(q-1).  Selecting a
sub-multigraph F' and deleting the unselected copies shifts the edge
count by -(e(F) - e(F')) and each degree by the matching amount, so
choosing F' with

    e(F') = e(F) - e(G)        (mod binom(q,2))
    d_F'(v) = d_F(v) - d_G(v)  (mod q-1)

makes G minus the deletions divisible.  The selection is solved by
peeling vertices n-1..3 (each has q-2 plain back edges, exactly enough
for any residue mod q-1) down to a closed form on the fat triangle.
The handshake identity keeps the triangle's precondition satisfied
whenever the targets came from an actual host.

On a simple host, copy 0 of every pair is a real edge and copies >= 1
are fake-edge gadgets; unselecting a gadget copy deletes its whole edge
set, which shifts all residues exactly like deleting one edge at its
root pair.
"""

import json
import math
from typing import NamedTuple

from .graphs import Graph, is_kq_divisible, subtract
from .gadgets import _relabel_edges, fake_edge

__all__ = [
    "FixerBlueprint",
    "fat_triangle_select",
    "inductive_select",
    "EmbeddedFixer",
    "realize_fixer",
    "ApplyResult",
    "apply_fixer",
]


class FixerBlueprint:
    """Path-power multigraph with a fat clique on the first t vertices.

    mult maps each pair (u, v), u < v, to its number of parallel copies.
    """

    __slots__ = ("q", "n", "t", "mult")

    def __init__(self, q: int, n: int):
        if q < 3:
            raise ValueError(f"q must be at least 3, got {q}")
        t = max(3, q - 2)
        if n < t:
            raise ValueError(f"blueprint needs at least {t} vertices, got {n}")
        mult: dict[tuple[int, int], int] = {}
        for i in range(n):
            for j in range(i + 1, min(i + q - 1, n)):
                mult[(i, j)] = 1
        for i in range(t):
            for j in range(i + 1, t):
                mult[(i, j)] = q * (q - 1)
        self.q = q
        self.n = n
        self.t = t
        self.mult = mult

    @property
    def m(self) -> int:
        return sum(self.mult.values())

    def copies(self, u: int, v: int) -> int:
        return self.mult.get((u, v) if u < v else (v, u), 0)

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for (u, v), k in self.mult.items():
            d[u] += k
            d[v] += k
        return d

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.mult)

    def gadget_keys(self) -> list[tuple[int, int, int]]:
        """(u, v, c) for every parallel copy c >= 1 of a pair, sorted; on a
        simple host each of these copies is a fake-edge gadget."""
        return [
            (u, v, c)
            for (u, v), mult in sorted(self.mult.items())
            for c in range(1, mult)
        ]

    def __repr__(self):
        return f"FixerBlueprint(q={self.q}, n={self.n}, m={self.m})"


def fat_triangle_select(
    q: int, m: int, d: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Copy counts (e_xy, e_xz, e_yz) on a fat triangle x, y, z.

    Solves e_xy + e_xz + e_yz = m (mod q(q-1)) with the degree sums at
    x and z exact and at y following from the handshake precondition
    2m = d_x + d_y + d_z (mod q-1), which is required.  All counts are
    below the fat multiplicity q(q-1).
    """
    dx, dy, dz = d
    if (2 * m - dx - dy - dz) % (q - 1):
        raise ValueError(
            f"no selection: 2m and the degree targets disagree mod {q - 1}"
        )
    mod = q * (q - 1)
    e_yz = (m - dx) % mod
    e_xz = (dz - e_yz) % mod
    e_xy = (dx - e_xz) % mod
    return e_xy, e_xz, e_yz


def inductive_select(
    blueprint: FixerBlueprint, m: int, dvec: list[int]
) -> dict[tuple[int, int], int]:
    """Copy counts per pair meeting the edge and degree targets.

    Peels vertices n-1 down to 3, spending each vertex's residue on its
    back edges in ascending order (plain back edges have exactly q-2
    copies, one per residue unit; inside the fat zone the first back
    pair soaks up everything), then closes on the fat triangle.
    """
    q = blueprint.q
    n = blueprint.n
    if len(dvec) != n:
        raise ValueError(f"expected {n} degree targets, got {len(dvec)}")
    mult = blueprint.mult
    dres = [d % (q - 1) for d in dvec]
    counts: dict[tuple[int, int], int] = {}
    for v in range(n - 1, 2, -1):
        need = dres[v]
        for u in range(max(0, v - (q - 2)) if v >= blueprint.t else 0, v):
            if not need:
                break
            c = min(need, mult[(u, v)])
            counts[(u, v)] = c
            dres[u] = (dres[u] - c) % (q - 1)
            need -= c
        if need:
            raise AssertionError(f"back capacity exhausted at vertex {v}")
    m_res = (m - sum(counts.values())) % math.comb(q, 2)
    e_xy, e_xz, e_yz = fat_triangle_select(q, m_res, (dres[0], dres[1], dres[2]))
    for pair, c in (((0, 1), e_xy), ((0, 2), e_xz), ((1, 2), e_yz)):
        if c:
            counts[pair] = c

    period = math.comb(q, 2)
    got = [0] * n
    for (u, v), c in counts.items():
        if not 0 <= c <= mult[(u, v)]:
            raise AssertionError(f"count {c} at {(u, v)} exceeds multiplicity")
        got[u] += c
        got[v] += c
    if sum(counts.values()) % period != m % period:
        raise AssertionError("selection misses the edge target")
    for v in range(n):
        if (got[v] - dvec[v]) % (q - 1):
            raise AssertionError(f"selection misses the degree target at {v}")
    return counts


class EmbeddedFixer:
    """A blueprint placed injectively inside a simple host graph.

    order[i] is the host vertex playing blueprint vertex i (the path
    order); copy 0 of each pair is the host edge between the images.
    gadget_maps gives, per gadget key of the blueprint, the injective
    map from the vertices of the canonical fake-edge gadget to host
    vertices; roots must land on the pair's host images.  All realized
    edges must be host edges and pairwise distinct across the support
    and every gadget.
    """

    __slots__ = ("q", "blueprint", "gadget", "order", "gadget_maps")

    def __init__(self, blueprint: FixerBlueprint, order, gadget_maps):
        self.q = blueprint.q
        self.blueprint = blueprint
        self.gadget = fake_edge(blueprint.q)
        self.order = tuple(order)
        self.gadget_maps: dict[tuple[int, int, int], dict[int, int]] = dict(gadget_maps)

    def support_edge(self, u: int, v: int) -> tuple[int, int]:
        a, b = self.order[u], self.order[v]
        return (a, b) if a < b else (b, a)

    def gadget_edges(self, key: tuple[int, int, int]) -> list[tuple[int, int]]:
        return sorted(_relabel_edges(self.gadget.graph.edges, self.gadget_maps[key]))

    def realized_edges(self) -> list[tuple[int, int]]:
        out = [self.support_edge(u, v) for u, v in self.blueprint.pairs()]
        for key in self.blueprint.gadget_keys():
            out.extend(self.gadget_edges(key))
        return out

    def validate(self, g: Graph) -> list[str]:
        problems = []
        if self.blueprint.n != g.n:
            problems.append(
                f"blueprint spans {self.blueprint.n} vertices, host has {g.n}; "
                "every host vertex needs a degree target"
            )
        if len(self.order) != self.blueprint.n:
            problems.append("order length does not match the blueprint")
        if len(set(self.order)) != len(self.order):
            problems.append("order is not injective")
        for key, mp in self.gadget_maps.items():
            if len(set(mp.values())) != len(mp):
                problems.append(f"gadget {key}: map is not injective")
            if set(mp) != set(range(self.gadget.graph.n)):
                problems.append(f"gadget {key}: map does not cover the gadget")
            u, v, _ = key
            if (mp.get(0), mp.get(1)) != (self.order[u], self.order[v]):
                problems.append(f"gadget {key}: roots are not on the host pair")
        if set(self.gadget_maps) != set(self.blueprint.gadget_keys()):
            problems.append("gadget maps do not match the gadget copies")
        if problems:
            return problems
        seen: set[tuple[int, int]] = set()
        for e in self.realized_edges():
            if e in seen:
                problems.append(f"edge {e} realized twice")
            seen.add(e)
            if e not in g.edges:
                problems.append(f"realized edge {e} is not a host edge")
        return problems

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.q,
                "n": self.blueprint.n,
                "order": list(self.order),
                "gadgets": {
                    f"{u} {v} {c}": {str(a): b for a, b in sorted(mp.items())}
                    for (u, v, c), mp in sorted(self.gadget_maps.items())
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "EmbeddedFixer":
        data = json.loads(text)
        blueprint = FixerBlueprint(data["q"], data["n"])
        maps = {}
        for key, mp in data["gadgets"].items():
            u, v, c = (int(x) for x in key.split())
            maps[(u, v, c)] = {int(a): b for a, b in mp.items()}
        return cls(blueprint, data["order"], maps)


def realize_fixer(q: int, n_core: int = 10) -> tuple[Graph, EmbeddedFixer]:
    """A host graph that is exactly one spanning fixer, plus its embedding.

    The path order is the identity; each gadget gets a private vertex
    block past n_core, laid out with stride q-1 so no gadget edge can
    coincide with a path-power edge.  Useful as a substrate for
    application tests (add edges freely, the embedding stays valid).
    n_core must be at least 2: the first gadget sits on the root pair
    (0, 1), and its block starts at n_core.
    """
    if n_core < 2:
        raise ValueError(
            f"n_core must be at least 2, got {n_core}: the first gadget's "
            "block would overlap its roots 0 and 1"
        )
    gadget = fake_edge(q)
    t = max(3, q - 2)
    n_gadgets = math.comb(t, 2) * (q * (q - 1) - 1)
    stride = q - 1
    block = (gadget.graph.n - 2) * stride
    blueprint = FixerBlueprint(q, n_core + n_gadgets * block)
    maps: dict[tuple[int, int, int], dict[int, int]] = {}
    for i, key in enumerate(blueprint.gadget_keys()):
        u, v, _ = key
        base = n_core + i * block
        mp = {0: u, 1: v}
        for w in range(2, gadget.graph.n):
            mp[w] = base + (w - 2) * stride
        maps[key] = mp
    emb = EmbeddedFixer(blueprint, range(blueprint.n), maps)
    host = Graph(blueprint.n, emb.realized_edges())
    return host, emb


# ===================================================================
# Application
# ===================================================================


class ApplyResult(NamedTuple):
    """Outcome of applying a fixer: the divisible remainder and the cut."""

    graph: Graph
    deleted: tuple[tuple[int, int], ...]
    edge_target: int
    degree_targets: tuple[int, ...]


def apply_fixer(g: Graph, emb: EmbeddedFixer) -> ApplyResult:
    """Delete unselected fixer copies so that the remainder is divisible.

    The selection keeps the first c copies of each pair (copy 0 is the
    real support edge); every unselected gadget copy is deleted as its
    whole embedded edge set.  The returned graph is guaranteed
    divisible; the deletion is listed explicitly.
    """
    problems = emb.validate(g)
    if problems:
        raise ValueError("embedding invalid: " + "; ".join(problems[:3]))
    bp = emb.blueprint
    q = bp.q
    m_target = (bp.m - g.m) % math.comb(q, 2)
    host_deg = g.degrees()
    bp_deg = bp.degrees()
    d_targets = [
        (bp_deg[i] - host_deg[emb.order[i]]) % (q - 1) for i in range(bp.n)
    ]
    counts = inductive_select(bp, m_target, d_targets)
    deleted: set[tuple[int, int]] = set()
    for u, v in bp.pairs():
        c = counts.get((u, v), 0)
        if c == 0:
            deleted.add(emb.support_edge(u, v))
        for k in range(max(c, 1), bp.copies(u, v)):
            deleted.update(emb.gadget_edges((u, v, k)))
    fixed = subtract(g, deleted)
    if not is_kq_divisible(fixed, q):
        raise AssertionError("fixer application left a non-divisible graph")
    return ApplyResult(fixed, tuple(sorted(deleted)), m_target, tuple(d_targets))
