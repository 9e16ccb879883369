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
edge.  The boost numbers the edges and the distinct q-cliques in
sorted order and reads each (q+2)-clique once into the ids of its
pairs and of its q-subsets; the counts, the multiples, the sums and the
loads are then lists indexed by id.  At each (q+2)-clique a q-subset
takes the multiples of the clique's pairs weighted by how many
vertices it shares with each pair, which is one sum over the whole
clique and one multiple, that of its complementary pair.  The sum runs
on integer numerators over one common denominator, and only the range
of the corrections and the weights become Fractions at the end: still
exact, with no floats and no tolerances.
"""

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
            if type(v) is not Fraction:  # Fraction(v) would copy a Fraction
                v = Fraction(v)
            ws[t] = ws[t] + v if t in ws else v
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


def _as_targets(g: Graph, phi) -> list[Fraction]:
    """The target of each edge of g, in sorted edge order."""
    if isinstance(phi, dict):
        out = []
        for e in g.sorted_edges():
            if e not in phi:
                raise ValueError(f"target missing for edge {e}")
            out.append(Fraction(phi[e]))
        return out
    return [Fraction(phi)] * g.m


def _pair_ids(eid: dict[tuple[int, int], int], c: tuple[int, ...]) -> list[int]:
    """The edge ids of the pairs of c in order, -1 for a pair that is no edge."""
    ids = list(map(eid.get, itertools.combinations(c, 2)))
    if None in ids:
        ids = [-1 if i is None else i for i in ids]
    return ids


def boost(g: Graph, q: int, h_cliques, qset_cliques, phi, d) -> BoostResult:
    """Weighting on h_cliques with edge loads exactly phi.

    Starts every clique at 1/d, then adds c_e/d gadget multiples over
    the (q+2)-cliques at each edge, c_e = (d phi(e) - |H(e)|)/|Q(e)|.
    Every q-subset of every member of qset_cliques must be in
    h_cliques, and every edge needs at least one member; the final
    loads are asserted equal to the targets (the corrections at
    different edges never interact).

    The edges of g and the distinct cliques of h_cliques are numbered in
    sorted order, and each (q+2)-clique is read once into the ids of its
    pairs (-1 for a pair that is no edge) and of its q-subsets, the
    subset without a pair standing at that pair's place.  Everything
    after the read runs on lists indexed by id.

    The sum runs on integer numerators over one denominator L * den:
    L is the lcm of d's numerator and of the denominators of every c_e/d,
    so that k_e = L c_e/d is an integer, and den is that of the gadget;
    each weight is one exact Fraction at the end.  The gadget at the pair
    ab of a (q+2)-clique Q puts x_j k_ab on a q-set meeting ab in j
    vertices, so the q-set h = Q - {a, b} gets x0 k_ab + x1 (K_Q - K_h
    - k_ab) + x2 K_h = x1 K_Q + (x0 - x1) k_ab + (x2 - x1) K_h from all
    pairs of Q, with K the sum of k over the pairs of a set.  The last
    term is the same at every Q around h, so it is added once, times
    their number.
    """
    _check_q(q)
    d = Fraction(d)
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    targets = _as_targets(g, phi)
    edges = g.sorted_edges()
    eid = {e: i for i, e in enumerate(edges)}
    hs = sorted(set(map(tuple, map(sorted, h_cliques))))
    hid = {h: i for i, h in enumerate(hs)}
    h_pairs = [_pair_ids(eid, h) for h in hs]
    # |H(e)| by edge id, slot -1 counting the pairs that are no edge
    h_at = [0] * (len(edges) + 1)
    for pairs in h_pairs:
        for i in pairs:
            h_at[i] += 1
    # the pair ids and q-subset ids of each (q+2)-clique, duplicates
    # included; the q-subsets in reverse order are the complements of
    # the pairs in order.  q_at counts the (q+2)-cliques at each edge,
    # |Q(e)|.
    reads = []
    q_at = [0] * (len(edges) + 1)
    for qc in map(tuple, map(sorted, qset_cliques)):
        if len(qc) != q + 2:
            raise ValueError(f"{qc} is not a (q+2)-set")
        subs = list(map(hid.get, itertools.combinations(qc, q)))
        if None in subs:
            sub = list(itertools.combinations(qc, q))[subs.index(None)]
            raise ValueError(f"q-subset {sub} of {qc} is not among the chosen cliques")
        subs.reverse()
        pairs = _pair_ids(eid, qc)
        for i in pairs:
            q_at[i] += 1
        reads.append((pairs, subs))

    # c_e/d = (dn tn - |H(e)| dd td) / (dn td |Q(e)|) for d = dn/dd and
    # phi(e) = tn/td, kept in lowest terms
    dn, dd = d.numerator, d.denominator
    scales = []
    for e, t, at, ht in zip(edges, targets, q_at, h_at):
        if not at:
            raise ValueError(f"cannot boost: edge {e} is in no (q+2)-clique")
        num = dn * t.numerator - ht * dd * t.denominator
        den_e = dn * t.denominator * at
        common = math.gcd(num, den_e)
        scales.append((num // common, den_e // common))
    big_l = math.lcm(dn, *(den_e for _, den_e in scales))
    k = [num * (big_l // den_e) for num, den_e in scales]
    # c_e = d k_e / L, so the extremes of c are those of k
    k_lo, k_hi = (min(k), max(k)) if k else (0, 0)
    c_range = (Fraction(k_lo * dn, big_l * dd), Fraction(k_hi * dn, big_l * dd))
    k.append(0)  # at id -1

    (x0, x1, x2), den = _canonical_gadget(q, 2)
    x_pair = x0 - x1
    acc = [0] * len(hs)
    at_h = [0] * len(hs)  # the (q+2)-cliques at each q-clique
    for pairs, subs in reads:
        ks = [k[i] for i in pairs]
        whole = x1 * sum(ks)
        for s, kp in zip(subs, ks):
            acc[s] += whole + x_pair * kp
            at_h[s] += 1
    start = big_l // dn * dd * den  # 1/d over the denominator L * den
    for s, pairs in enumerate(h_pairs):
        acc[s] += start + (x2 - x1) * at_h[s] * sum(k[i] for i in pairs)

    denom = big_l * den
    weighting = CliqueWeighting(q, {h: Fraction(a, denom) for h, a in zip(hs, acc)})
    loads = [0] * (len(edges) + 1)
    for a, pairs in zip(acc, h_pairs):
        for i in pairs:
            loads[i] += a
    for e, t, load in zip(edges, targets, loads):
        if load * t.denominator != t.numerator * denom:
            raise AssertionError(f"boost identity failed at edge {e}")
    # a/denom lies in [(1/2)/d, (3/2)/d] iff 2 |dn a - dd denom| <= dd denom,
    # and |d a/denom - 1| = |dn a - dd denom| / (dd denom)
    scale = dd * denom
    dev = max((abs(dn * a - scale) for a in acc), default=0)
    return BoostResult(weighting, 2 * dev <= scale, Fraction(dev, scale), c_range)


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
