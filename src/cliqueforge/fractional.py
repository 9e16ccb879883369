"""Fractional K_q machinery over exact rationals.

An edge gadget on an r-set e and a disjoint q-set J assigns rational
weights to the q-subsets of e u J so that the load on every r-subset
is 1 at e and 0 elsewhere.  For r <= q the inclusion matrix of the
r-subsets against the q-subsets of a (q+r)-set is nonsingular
(Gottlieb 1966), so the gadget is unique.  Being unique, it is fixed
by every permutation of e and of J: a q-set meeting e in k vertices
weighs x_k, and the gadget is the r + 1 numbers x_0..x_r.  Their load
equations are triangular and solve by back-substitution.  The weights
can be negative, which is why weightings here carry signed rationals
and verification enforces nonnegativity separately.

Boosting perturbs the uniform weighting 1/d by gadget multiples so
that every edge load lands exactly on its target: the per-edge
corrections do not interact because each gadget loads only its own
edge.  At each (q+2)-clique the gadgets of its pairs sum by pair and
star sums of their multiples.  The sum runs on integer numerators over
one common denominator, and each weight becomes one Fraction at the
end: still exact, with no floats and no tolerances.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph, _check_q, _parse_clique, _read_records, _sorted_clique
from .randgraphs import _threshold
from .solver import enumerate_cliques

__all__ = [
    "EdgeGadget",
    "edge_gadget",
    "CliqueWeighting",
    "parse_weighting",
    "serialize_weighting",
    "BoostResult",
    "boost",
    "fractional_kq_decomposition",
    "fractional_problems",
    "SampleResult",
    "sample_regular_cliques",
]


# ===================================================================
# Edge gadgets
# ===================================================================


class EdgeGadget(NamedTuple):
    """Signed weights on the q-subsets of e u J with unit load on e only."""

    q: int
    r: int
    e: tuple[int, ...]
    j: tuple[int, ...]
    psi: dict[tuple[int, ...], Fraction]

    @property
    def max_abs(self) -> Fraction:
        return max(abs(v) for v in self.psi.values())

    @property
    def bound_ok(self) -> bool:
        return self.max_abs <= 2**self.r * math.factorial(self.r)


@lru_cache(maxsize=None)
def _canonical_gadget(q: int, r: int) -> tuple[tuple[int, ...], int]:
    """The weights x_0..x_r as integer numerators over one positive
    denominator; x_k is the weight of a q-set meeting e in k vertices.

    An r-set S meeting e in j vertices lies in C(r-j, k-j) C(q-r+j,
    q-r+j-k) of those q-sets, so the load equation of S involves only
    x_j..x_r, and x_j with coefficient C(q-r+j, q-r) >= 1: solved by
    back-substitution from x_r = 1/C(q, r) down to x_0.
    """
    x = [Fraction(0)] * (r + 1)
    for j in range(r, -1, -1):
        rest = sum(
            math.comb(r - j, k - j) * math.comb(q - r + j, q - r + j - k) * x[k]
            for k in range(j + 1, min(r, q - r + j) + 1)
        )
        x[j] = (Fraction(j == r) - rest) / math.comb(q - r + j, q - r)
    den = math.lcm(*(v.denominator for v in x))
    return tuple(v.numerator * (den // v.denominator) for v in x), den


def edge_gadget(q: int, r: int = 2) -> EdgeGadget:
    """The unique gadget for e = (0..r-1) over J = (r..r+q-1).

    A q-subset h of e u J gets x_k with k = |h & e|; the r + 1 weights
    are solved once per (q, r).
    """
    _check_q(q)
    if not 1 <= r <= q:
        raise ValueError(f"r must be in 1..q, got r={r} with q={q}")
    nums, den = _canonical_gadget(q, r)
    psi = {
        h: Fraction(nums[sum(v < r for v in h)], den)
        for h in itertools.combinations(range(q + r), q)
    }
    return EdgeGadget(q, r, tuple(range(r)), tuple(range(r, r + q)), psi)


# ===================================================================
# Weightings
# ===================================================================


class CliqueWeighting:
    """Rational weights on q-cliques; weights may be negative.

    Nonnegativity is a property of valid fractional packings, not of
    the container: boost outputs are allowed to go negative and are
    then reported as such by verification.
    """

    __slots__ = ("q", "weights", "_loads")

    def __init__(self, q: int, weights: dict):
        _check_q(q)
        self.q = q
        ws: dict[tuple[int, ...], Fraction] = {}
        for c, v in weights.items():
            t = _sorted_clique(c, q)
            ws[t] = ws.get(t, Fraction(0)) + Fraction(v)
        self.weights = ws
        self._loads = None

    def loads(self) -> dict[tuple[int, int], Fraction]:
        """Edge load map, computed once.  Do not mutate."""
        if self._loads is None:
            out: dict[tuple[int, int], Fraction] = {}
            for c, v in self.weights.items():
                for i in range(self.q):
                    for k in range(i + 1, self.q):
                        e = (c[i], c[k])
                        out[e] = out.get(e, Fraction(0)) + v
            self._loads = out
        return self._loads

    def edge_load(self, u: int, v: int) -> Fraction:
        e = (u, v) if u < v else (v, u)
        return self.loads().get(e, Fraction(0))

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return f"CliqueWeighting(q={self.q}, cliques={len(self.weights)})"


def serialize_weighting(w: CliqueWeighting) -> str:
    out = [f"{w.q} {len(w.weights)}"]
    for c in sorted(w.weights):
        out.append(" ".join(str(v) for v in c) + f" {w.weights[c]}")
    return "\n".join(out) + "\n"


def parse_weighting(text: str) -> CliqueWeighting:
    q, records = _read_records(text, "weighting")
    weights = {}
    for lineno, ln in records:
        fields = ln.split()
        if len(fields) != q + 1:
            raise ValueError(f"line {lineno}: expected {q} vertices and a weight")
        c = tuple(_parse_clique(" ".join(fields[:q]), lineno, q))
        try:
            v = Fraction(fields[q])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad weight in {ln!r}") from None
        t = tuple(sorted(c))
        if t in weights:
            raise ValueError(f"line {lineno}: clique {c} listed twice")
        weights[t] = v
    return CliqueWeighting(q, weights)


# ===================================================================
# Boosting
# ===================================================================


class BoostResult(NamedTuple):
    """Weighting plus the exactness and range diagnostics of one boost."""

    weighting: CliqueWeighting
    in_range: bool
    max_deviation: Fraction
    c_range: tuple[Fraction, Fraction]


def _as_targets(g: Graph, phi) -> dict[tuple[int, int], Fraction]:
    if isinstance(phi, dict):
        out = {}
        for e in g.sorted_edges():
            if e not in phi:
                raise ValueError(f"target missing for edge {e}")
            out[e] = Fraction(phi[e])
        return out
    val = Fraction(phi)
    return {e: val for e in g.sorted_edges()}


def boost(g: Graph, q: int, h_cliques, qset_cliques, phi, d) -> BoostResult:
    """Weighting on h_cliques with edge loads exactly phi.

    Starts every clique at 1/d, then adds c_e/d gadget multiples over
    the (q+2)-cliques at each edge, c_e = (d phi(e) - |H(e)|)/|Q(e)|.
    Every q-subset of every member of qset_cliques must be in
    h_cliques, and every edge needs at least one member; the final
    loads are asserted equal to the targets (the corrections at
    different edges never interact).

    The sum runs on integer numerators over one denominator L * den:
    L is the lcm of the denominators of 1/d and of every c_e/d, and den
    that of the gadget, so each weight is one exact Fraction at the end.
    With k_p the multiple at pair p, the gadgets of all pairs of a
    (q+2)-clique Q put x2 K + (x1 - x2)(S_a + S_b) + (x0 - 2 x1 + x2) k_ab
    on the q-set Q - {a, b}: K sums k_p over the pairs of Q, and S_v
    over those containing v.
    """
    _check_q(q)
    d = Fraction(d)
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    targets = _as_targets(g, phi)
    hset = {tuple(sorted(c)) for c in h_cliques}
    h_at_edge: dict[tuple[int, int], int] = {}
    for h in hset:
        for e in itertools.combinations(h, 2):
            h_at_edge[e] = h_at_edge.get(e, 0) + 1
    q_at_edge: dict[tuple[int, int], int] = {}
    qsets = []
    for qc in qset_cliques:
        qc = tuple(sorted(qc))
        if len(qc) != q + 2:
            raise ValueError(f"{qc} is not a (q+2)-set")
        for sub in itertools.combinations(qc, q):
            if sub not in hset:
                raise ValueError(
                    f"q-subset {sub} of {qc} is not among the chosen cliques"
                )
        for e in itertools.combinations(qc, 2):
            q_at_edge[e] = q_at_edge.get(e, 0) + 1
        qsets.append(qc)

    c_values = []
    scales = {}
    for e in g.sorted_edges():
        at = q_at_edge.get(e)
        if not at:
            raise ValueError(f"cannot boost: edge {e} is in no (q+2)-clique")
        c_e = (d * targets[e] - h_at_edge.get(e, 0)) / at
        c_values.append(c_e)
        if c_e:
            scales[e] = c_e / d
    big_l = math.lcm(d.numerator, *(x.denominator for x in scales.values()))
    k = {e: x.numerator * (big_l // x.denominator) for e, x in scales.items()}

    (x0, x1, x2), den = _canonical_gadget(q, 2)
    x_star, x_pair = x1 - x2, x0 - 2 * x1 + x2
    pairs = list(itertools.combinations(range(q + 2), 2))
    acc = dict.fromkeys(hset, big_l // d.numerator * d.denominator * den)
    for qc in qsets:  # every occurrence, duplicates included
        ks = [k.get(e, 0) for e in itertools.combinations(qc, 2)]
        star = [0] * (q + 2)
        for (a, b), kp in zip(pairs, ks):
            star[a] += kp
            star[b] += kp
        base = x2 * sum(ks)
        for (a, b), kp in zip(pairs, ks):
            acc[qc[:a] + qc[a + 1 : b] + qc[b + 1 :]] += (
                base + x_star * (star[a] + star[b]) + x_pair * kp
            )

    denom = big_l * den
    weighting = CliqueWeighting(q, {h: Fraction(a, denom) for h, a in acc.items()})
    loads: dict[tuple[int, int], int] = {}
    for h, a in acc.items():
        for e in itertools.combinations(h, 2):
            loads[e] = loads.get(e, 0) + a
    for e in g.sorted_edges():
        t = targets[e]
        if loads.get(e, 0) * t.denominator != t.numerator * denom:
            raise AssertionError(f"boost identity failed at edge {e}")
    # lo <= a/denom <= hi with lo, hi = (1/2)/d, (3/2)/d, and
    # |d a/denom - 1| = |dn a - dd denom| / (dd denom) for d = dn/dd
    dn, dd = d.numerator, d.denominator
    in_range = all(dd * denom <= 2 * dn * a <= 3 * dd * denom for a in acc.values())
    max_dev = Fraction(
        max((abs(dn * a - dd * denom) for a in acc.values()), default=0), dd * denom
    )
    c_range = (min(c_values), max(c_values)) if c_values else (Fraction(0),) * 2
    return BoostResult(weighting, in_range, max_dev, c_range)


def fractional_kq_decomposition(g: Graph, q: int) -> BoostResult:
    """Boost over all q-cliques and (q+2)-cliques with unit targets.

    d is the mean number of q-cliques per edge.  Fails when some edge
    lies in no (q+2)-clique (then this recipe cannot reach load 1).
    """
    _check_q(q)
    if g.m == 0:
        return BoostResult(
            CliqueWeighting(q, {}), True, Fraction(0), (Fraction(0), Fraction(0))
        )
    h = enumerate_cliques(g, q)
    qs = enumerate_cliques(g, q + 2)
    d = Fraction(len(h) * math.comb(q, 2), g.m)
    if d == 0:
        raise ValueError("graph has no q-cliques at all")
    return boost(g, q, h, qs, 1, d)


# ===================================================================
# Verification and sampling
# ===================================================================


def fractional_problems(g: Graph, w: CliqueWeighting, mode: str) -> list[str]:
    if mode not in ("packing", "decomposition"):
        raise ValueError(f"mode must be packing or decomposition, got {mode!r}")
    problems = []
    for c, v in sorted(w.weights.items()):
        if v < 0:
            problems.append(f"negative weight {v} on {c}")
        for i in range(w.q):
            for k in range(i + 1, w.q):
                if not g.has_edge(c[i], c[k]):
                    problems.append(f"{c} is not a clique of the graph")
                    break
            else:
                continue
            break
    for e in g.sorted_edges():
        load = w.edge_load(*e)
        if mode == "decomposition" and load != 1:
            problems.append(f"edge {e} has load {load}, expected 1")
        elif mode == "packing" and not 0 <= load <= 1:
            problems.append(f"edge {e} has load {load}, outside [0, 1]")
    return problems


class SampleResult(NamedTuple):
    """Outcome of one Bernoulli clique draw."""

    selected: tuple[tuple[int, ...], ...]
    edge_degrees: dict[tuple[int, int], int]
    max_deviation: Fraction


def sample_regular_cliques(w: CliqueWeighting, big_d, rng) -> SampleResult:
    """Keep each clique independently with probability psi(Q) D/2.

    Probabilities are realized as 64-bit thresholds (floor(p 2^64)),
    exact for dyadic p and off by under 2^-64 otherwise.  Every
    probability must be a genuine probability; the expected per-edge
    degree is load(e) D/2 and the max absolute deviation from it is
    reported.
    """
    big_d = Fraction(big_d)
    probs = {}
    for c, v in sorted(w.weights.items()):
        p = v * big_d / 2
        if not 0 <= p <= 1:
            raise ValueError(f"psi(Q) D/2 = {p} at {c} is not a probability")
        probs[c] = p
    selected = []
    for c, p in probs.items():
        if rng.getrandbits(64) < _threshold(p):
            selected.append(c)
    degrees: dict[tuple[int, int], int] = {}
    for c in selected:
        for e in itertools.combinations(c, 2):
            degrees[e] = degrees.get(e, 0) + 1
    max_dev = Fraction(0)
    for e, load in w.loads().items():
        dev = abs(degrees.get(e, 0) - load * big_d / 2)
        max_dev = max(max_dev, dev)
    return SampleResult(tuple(selected), degrees, max_dev)
