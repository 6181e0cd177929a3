"""Shared oracles and instance builders for the test suite.

Everything here is deliberately naive: brute-force enumeration, unreduced
pair arithmetic, plain relaxation loops.  The oracles never share code
with the implementation paths they check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from ratpath.graph import SsspResult, WeightedDigraph, _primes_below
from ratpath.rational import BigRational, ZERO


class UnreducedPair:
    """Second opinion on rational arithmetic: plain (num, den) pairs that
    are never reduced; equality is by cross-multiplication."""

    def __init__(self, num: int, den: int):
        if den == 0:
            raise ZeroDivisionError
        self.num = num
        self.den = den

    def add(self, o):
        return UnreducedPair(self.num * o.den + o.num * self.den, self.den * o.den)

    def sub(self, o):
        return UnreducedPair(self.num * o.den - o.num * self.den, self.den * o.den)

    def mul(self, o):
        return UnreducedPair(self.num * o.num, self.den * o.den)

    def div(self, o):
        if o.num == 0:
            raise ZeroDivisionError
        return UnreducedPair(self.num * o.den, self.den * o.num)

    def equals(self, x: BigRational) -> bool:
        return self.num * x.den == x.num * self.den


@lru_cache(maxsize=16)
def all_fractions(bits: int, span: int) -> Tuple[Tuple[int, int], ...]:
    """Every reduced fraction with 0 < den < 2^bits and |value| <= span,
    sorted by value.  Used as the brute-force approximation universe."""
    import math

    out = []
    for q in range(1, 1 << bits):
        for p in range(-span * q, span * q + 1):
            if math.gcd(abs(p), q) == 1:
                out.append((p / q, p, q))
    out.sort()
    return tuple((p, q) for _, p, q in out)


def brute_best_approx(x: BigRational, bits: int, span: int = 70):
    """Brute-force (lo, hi) pair over the full fraction universe."""
    fracs = all_fractions(bits, span)
    lo = None
    hi = None
    for p, q in fracs:
        c = p * x.den - x.num * q  # sign of p/q - x
        if c <= 0:
            if lo is None or p * lo[1] > lo[0] * q:
                lo = (p, q)
        if c >= 0:
            if hi is None or p * hi[1] < hi[0] * q:
                hi = (p, q)
    assert lo is not None and hi is not None
    return BigRational(*lo), BigRational(*hi)


def assert_best_pair(x: BigRational, bits: int, ap) -> None:
    """Check that ap is the best `bits`-bit pair of x without computing one.

    When x.den < 2^bits the pair is (x, x).  Otherwise lo < x < hi, and lo
    and hi are neighbours in the Farey sequence of order 2^bits - 1: both
    denominators are in range, hi.num*lo.den - lo.num*hi.den == 1 (nothing
    lies between them at any denominator below lo.den + hi.den) and
    lo.den + hi.den >= 2^bits.
    """
    bound = 1 << bits
    lo, hi = ap.lo, ap.hi
    assert ap.bits == bits
    if x.den < bound:
        assert (lo.num, lo.den) == (hi.num, hi.den) == (x.num, x.den)
        return
    assert lo.num * x.den < x.num * lo.den
    assert x.num * hi.den < hi.num * x.den
    assert 0 < lo.den < bound and 0 < hi.den < bound
    assert hi.num * lo.den - lo.num * hi.den == 1
    assert lo.den + hi.den >= bound


def random_rational(rng: np.random.Generator, max_num: int = 64, max_den: int = 64) -> BigRational:
    num = int(rng.integers(-max_num, max_num + 1))
    den = int(rng.integers(1, max_den + 1))
    return BigRational(num, den)


def bf_oracle_int(n: int, edges, s: int) -> Tuple[List[Optional[int]], bool]:
    """Plain |V|-round relaxation on integer weights; returns (dist, has_cycle)."""
    dist: List[Optional[int]] = [None] * n
    dist[s] = 0
    for _ in range(n - 1):
        for (u, v, w) in edges:
            if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                dist[v] = dist[u] + w
    for (u, v, w) in edges:
        if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
            return dist, True
    return dist, False


def _frac(x: Optional[BigRational]) -> Optional[Fraction]:
    return None if x is None else Fraction(x.num, x.den)


def textbook_bf(g: WeightedDigraph, s: int):
    """Round-robin Bellman-Ford in `fractions.Fraction` arithmetic.

    n rounds, each relaxing every edge of `g.edges` in list order on a
    strict improvement; a round with no improvement ends the search.  If
    round n still improves, a negative cycle is reachable: walking n
    parent links back from the last improved vertex lands on it.

    Returns (dist, parent, cycle): dist as Fractions (None when
    unreachable), parent ids (-1 for none), and the cycle's vertex list
    in edge order, or None.
    """
    n = g.n
    edges = [(e.tail, e.head, _frac(e.weight)) for e in g.edges]
    dist: List[Optional[Fraction]] = [None] * n
    parent = [-1] * n
    dist[s] = Fraction(0)
    last = -1
    for _ in range(n):
        changed = False
        for u, v, w in edges:
            if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                dist[v] = dist[u] + w
                parent[v] = u
                changed = True
                last = v
        if not changed:
            return dist, parent, None
    v = last
    for _ in range(n):
        v = parent[v]
    cycle = [v]
    u = parent[v]
    while u != v:
        cycle.append(u)
        u = parent[u]
    cycle.reverse()
    return dist, parent, cycle


def bf_tree(g: WeightedDigraph, s: int) -> SsspResult:
    """Shortest-paths tree of the textbook Bellman-Ford."""
    dist, parent, cycle = textbook_bf(g, s)
    if cycle is not None:
        raise ValueError("graph has a negative cycle reachable from the source")
    tree: Dict[int, Tuple[int, BigRational, bool]] = {}
    for v in range(g.n):
        if v != s and dist[v] is not None:
            e = g.edge_between(parent[v], v)
            tree[v] = (parent[v], e.weight, e.aux)
    return SsspResult(g.n, s, tree)


def replay_enhanced_order(
    g: WeightedDigraph, s: int, order: Sequence[int], processed: Sequence[bool]
) -> List[Optional[BigRational]]:
    """Re-run the generic skip-list Dijkstra with a recorded extraction
    order and processed set, entirely in exact arithmetic."""
    dist: List[Optional[BigRational]] = [None] * g.n
    dist[s] = ZERO
    remaining = [True] * g.n
    for v in order:
        if processed[v]:
            for e in g.out_edges(v):
                u = e.head
                if not remaining[u] or u == v or dist[v] is None:
                    continue
                cand = dist[v] + e.weight
                if dist[u] is None or cand < dist[u]:
                    dist[u] = cand
        remaining[v] = False
    return dist


def full_scan_recombination(n: int, hitset: Sequence[int], runs):
    """(hpar, best_via) of the recombination stage by full scans in
    `Fraction` arithmetic: Bellman-Ford over the hit set relaxing every
    row in every round, then the best two-stage estimate per vertex,
    each on a strict improvement in index order."""
    size = len(hitset)
    hdist: List[Optional[Fraction]] = [None] * size
    hpar = [-1] * size
    hdist[0] = Fraction(0)
    for _ in range(size):
        changed = False
        for i in range(size):
            if hdist[i] is None:
                continue
            for j in range(size):
                w = _frac(runs[i].dist[hitset[j]])
                if i == j or w is None:
                    continue
                if hdist[j] is None or hdist[i] + w < hdist[j]:
                    hdist[j] = hdist[i] + w
                    hpar[j] = i
                    changed = True
        if not changed:
            break
    best: List[Optional[Fraction]] = [None] * n
    best_via: List[Optional[int]] = [None] * n
    for i in range(size):
        if hdist[i] is None:
            continue
        for v in range(n):
            w = _frac(runs[i].dist[v])
            if w is not None and (best[v] is None or hdist[i] + w < best[v]):
                best[v] = hdist[i] + w
                best_via[v] = i
    return hpar, best_via


def diamond_chain(k: int, rng: Optional[np.random.Generator] = None):
    """A chain of k diamonds top -> x, y -> bottom whose four edges all
    weigh (1 + i % 7) / p_i, the p_i distinct primes in (2^14, 2^15).

    Both routes through a diamond tie exactly, and the root distance of a
    node deep in the chain has a denominator of about 15 bits per diamond
    above it, so it outgrows any fixed exact gate.  With rng the primes
    are a random choice and the numerators random in 1..7.
    """
    primes = [p for p in _primes_below(1 << 15) if p > 1 << 14]
    if rng is not None:
        primes = [primes[int(j)] for j in rng.permutation(len(primes))]
    edges = []
    top = 0
    for i, p in enumerate(primes[:k]):
        num = 1 + i % 7 if rng is None else int(rng.integers(1, 8))
        w = BigRational(num, p)
        x, y, bottom = top + 1, top + 2, top + 3
        edges += [(top, x, w), (top, y, w), (x, bottom, w), (y, bottom, w)]
        top = bottom
    return WeightedDigraph(top + 1, edges, source=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
