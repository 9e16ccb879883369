"""Seeded random graph models.

All randomness flows through named streams derived from one master
seed: stream(seed, tag, index) hashes the triple, so every consumer
gets an independent generator and identical triples replay identical
streams regardless of call order elsewhere.

Edge coins are 64-bit threshold draws against floor(p 2^64): exact for
dyadic p, off by less than 2^-64 otherwise.  The d-regular model is
the pairing model with double-edge-switch repair; it is deterministic
under the seed but exact uniformity over d-regular graphs is not
claimed.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from fractions import Fraction

from .graphs import Graph, _spanning_subgraph

__all__ = ["stream", "gnp", "slice_graph", "gnd"]


def stream(master: int, tag: str, index: int = 0) -> random.Random:
    """Independent generator for (master seed, purpose tag, index)."""
    digest = hashlib.sha256(f"{master}:{tag}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _below(rng: random.Random):
    """The draw m -> rng.randrange(m), for m >= 1, without its checks.

    It reads the same getrandbits(m.bit_length()) words as CPython's
    randrange(m) and choice(seq) with m = len(seq), rejecting those
    >= m, so it returns the same values and leaves rng in the same
    state; hot loops call it in their place.  m < 1 raises ValueError.
    """
    getrandbits = rng.getrandbits

    def below(m: int) -> int:
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            if m < 1:
                raise ValueError(f"empty range for a draw below {m}")
            r = getrandbits(k)
        return r

    return below


def _threshold(p: Fraction) -> int:
    return (p.numerator << 64) // p.denominator


def _as_probability(p) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def gnp(n: int, p, seed: int) -> Graph:
    """Binomial random graph: every pair flips one coin, in pair order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    p = _as_probability(p)
    rng = stream(seed, "gnp")
    threshold = _threshold(p)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.getrandbits(64) < threshold
    ]
    return Graph(n, edges)


def slice_graph(g: Graph, frac, seed: int) -> tuple[Graph, Graph]:
    """Split G into (G1, G - G1) keeping each edge with probability frac.

    When G ~ G(n, p) the first part is marginally G(n, frac p); the
    coins run over sorted edges so the split depends only on the edge set.
    """
    threshold = _threshold(_as_probability(frac))
    rng = stream(seed, "slice")
    kept = [e for e in g.sorted_edges() if rng.getrandbits(64) < threshold]
    first = _spanning_subgraph(g, kept)
    return first, _spanning_subgraph(g, g.edges - first.edges)


def gnd(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph via stub pairing plus switch repair.

    Pairs the n*d stubs uniformly, then removes loops and duplicate
    edges with double edge switches against randomly chosen partners;
    restarts on a stuck configuration.  Degrees are exactly d.
    """
    if d < 0 or d >= n:
        raise ValueError(f"need 0 <= d < n, got d={d}, n={n}")
    if n * d % 2:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = stream(seed, "gnd")
    for _ in range(200):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if _repair(pairs, rng):
            return Graph(n, pairs)
    raise RuntimeError(f"pairing model failed to produce a simple graph (n={n}, d={d})")


def _repair(pairs: list[tuple[int, int]], rng: random.Random) -> bool:
    """Switch away loops and duplicates in place; False when stuck.

    A pair is bad while it is a loop or its key is held by another pair
    too.  Each round switches the least bad pair i with a uniform
    partner j into (u, a), (v, b), accepted only when both are simple
    and fresh.  Fresh pairs are never bad, so pairs only ever leave the
    bad set: the least one comes off a heap, skipping those that left,
    and a switch frees only the twin it leaves alone on an old key of
    i or j.  So a round costs a heap step, not a scan of the bad set.
    """
    counts: dict[tuple[int, int], int] = {}
    for u, v in pairs:
        if u != v:
            k = (u, v) if u < v else (v, u)
            counts[k] = counts.get(k, 0) + 1
    bad = bytearray(len(pairs))
    holders: dict[tuple[int, int], list[int]] = {}  # duplicated key -> its pairs
    for i, (u, v) in enumerate(pairs):
        if u == v:
            bad[i] = 1
        else:
            k = (u, v) if u < v else (v, u)
            if counts[k] > 1:
                bad[i] = 1
                holders.setdefault(k, []).append(i)
    heap = [i for i, b in enumerate(bad) if b]  # ascending, so a heap
    left = len(heap)

    def release(i, u, v):
        """Take the old pair (u, v) of index i out of the counts."""
        nonlocal left
        if u == v:
            return
        k = (u, v) if u < v else (v, u)
        c = counts[k] - 1
        if c:
            counts[k] = c
        else:
            del counts[k]
        held = holders.get(k)
        if held is not None:
            held.remove(i)
            if len(held) == 1:
                twin = held[0]
                del holders[k]
                if bad[twin]:
                    bad[twin] = 0
                    left -= 1

    below = _below(rng)
    m = len(pairs)
    budget = 200 * max(m, 1)
    while left and budget:
        budget -= 1
        while not bad[heap[0]]:
            heapq.heappop(heap)
        i = heap[0]
        j = below(m)
        if j == i:
            continue
        u, v = pairs[i]
        a, b = pairs[j]
        # switch to (u, a), (v, b); requires both new pairs simple and fresh
        if u == a or v == b:
            continue
        new1 = (u, a) if u < a else (a, u)
        new2 = (v, b) if v < b else (b, v)
        if new1 == new2 or new1 in counts or new2 in counts:
            continue
        for idx in (i, j):
            if bad[idx]:
                bad[idx] = 0
                left -= 1
        release(i, u, v)
        release(j, a, b)
        pairs[i] = (u, a)
        pairs[j] = (v, b)
        counts[new1] = 1
        counts[new2] = 1
    return not left
