"""Shared oracles and instance builders for the test suite.

Everything here is deliberately naive: brute-force enumeration, unreduced
pair arithmetic, plain relaxation loops.  The oracles never share code
with the implementation paths they check.  The exceptions are earlier
implementations kept to check their replacements:
`reference_cut_dijkstra`, the cut run with `BigRational` heap keys that
`ratpath.sssp.cut_dijkstra` replaced; `reference_eps_feasible_price`,
the k+2-round scaling loop that `ratpath.scaling.eps_feasible_price`
replaced with its closed form; `reference_verify`, the verifier over
full root distances that the exact routes of `ratpath.graph.verify_sssp`
replaced; `reference_tree_order`, the walk over a set of placed vertices
that `ratpath.graph.SsspResult.tree_order` replaced with a per-vertex
list; and `reference_parse_rational`, `reference_parse` and
`reference_parse_tree`, the regex token parser and the instance and tree
readers built on it that `BigRational.parse`, `ratpath.graph.parse` and
`ratpath.graph.parse_tree` replaced; `reference_witness_tree`, the
per-vertex walk splicing that `ratpath.sssp._witness_tree` replaced
with one pass per hit index; `NodePathDistCmp`, the distcmp
strategy whose every comparison was a node query, before heap keys
carried their exact pairs; and `PairKeyedExactStrategy`, the exact_oracle
strategy whose heap keys were (distance, weight) pairs, summed on every
comparison, before each key became its reduced sum;
`entry_ordered_dijkstra`, the loop of `ratpath.sssp.dijkstra_nonneg`
before its heap ordered top words, where every heap comparison and
relaxation test goes through the strategy's `compare`; and
`TreeKeepingDistCmpStrategy`, the distcmp strategy that appended each
settled node to the `DistCmp` tree at once and read a key's den_bits
from the tree, before the tree was built on its first read.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from ratpath import graph as graph_module
from ratpath.cfrac import Ordering
from ratpath.distcmp import DistCmp, DistCmpConfig, _shared_config
from ratpath.graph import (
    NegativeCycle,
    SsspResult,
    VerifyOutcome,
    WeightedDigraph,
    _primes_below,
    aux_weight,
    gen_random,
)
from ratpath.rational import DEFAULT_BUDGET, BigRational, ZERO, is_k_short, sum_lt
from ratpath.sssp import (_CONSTANTS, _STRATEGIES, CutResult, _DistCmpStrategy, _RecombinationError,
                          _scan_weights, _shortness_class, _splice_walk)


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


def textbook_bf(g: WeightedDigraph, s: int, hop_bound: Optional[int] = None):
    """Round-robin Bellman-Ford in `fractions.Fraction` arithmetic.

    n rounds, each relaxing every edge of `g.edges` in list order on a
    strict improvement; a round with no improvement ends the search.  If
    round n still improves, a negative cycle is reachable: walking n
    parent links back from the last improved vertex lands on it.

    With `hop_bound = k` there are k synchronous rounds instead, each
    relaxing from a snapshot of the distances the round began with, so
    the result is the exact k-hop-bounded distance function, and no
    cycle is looked for.

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
    for _ in range(n if hop_bound is None else hop_bound):
        start = dist if hop_bound is None else list(dist)
        changed = False
        for u, v, w in edges:
            if start[u] is not None and (dist[v] is None or start[u] + w < dist[v]):
                dist[v] = start[u] + w
                parent[v] = u
                changed = True
                last = v
        if not changed:
            return dist, parent, None
    if hop_bound is not None:
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


def textbook_dijkstra(g: WeightedDigraph, s: int) -> Dict[int, Tuple[int, bool]]:
    """Plain Dijkstra on `Fraction` distances with a heapq of (distance,
    vertex, token) tuples, so equal distances pop in vertex-id order and a
    relaxation wins only by a strict decrease.  Returns each vertex's
    (parent, aux) but s's; a vertex s cannot reach gets (s, True)."""
    dist: Dict[int, Fraction] = {s: Fraction(0)}
    parent: Dict[int, Tuple[int, bool]] = {}
    token = [0] * g.n
    done = set()
    heap = [(Fraction(0), s, 0)]
    while heap:
        d, u, tok = heapq.heappop(heap)
        if u in done or tok != token[u]:
            continue
        done.add(u)
        for e in g.out_edges(u):
            v = e.head
            if v in done:
                continue
            nd = d + Fraction(e.weight.num, e.weight.den)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = (u, e.aux)
                token[v] += 1
                heapq.heappush(heap, (nd, v, token[v]))
    for v in range(g.n):
        if v != s and v not in done:
            parent[v] = (s, True)
    return parent


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


def over_lcm(price: Sequence[BigRational]) -> Tuple[List[int], int]:
    """(pnum, pden) of a rational price over the lcm of its denominators:
    the numerators and common denominator that `CutContext` takes."""
    pden = math.lcm(*(p.den for p in price))
    return [p.num * (pden // p.den) for p in price], pden


def reduced_weight(g: WeightedDigraph, p: Sequence[BigRational], e) -> BigRational:
    """w(e) + p(tail) - p(head), exactly, for the price p listed per vertex:
    the definition `check_eps_feasible` decides on integers."""
    return e.weight + p[e.tail] - p[e.head]


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


def reference_witness_tree(
    g: WeightedDigraph,
    s: int,
    hitset: List[int],
    runs: List[CutResult],
    hpar: List[int],
    best_via: List[Optional[int]],
    stats: Optional[Dict[str, int]] = None,
) -> SsspResult:
    """The witness tree built walk by walk: every vertex's full stitched
    walk through its hit-set relays, spliced by `_splice_walk`, and the
    union of their edges searched from s.  `stats`, when given, counts
    the walks that the splice shortened under "spliced"."""
    size = len(hitset)
    hpaths: Dict[int, List[int]] = {0: [0]}

    def hpath(i: int) -> List[int]:
        got = hpaths.get(i)
        if got is None:
            chain = []
            x = i
            while x not in hpaths:
                chain.append(x)
                x = hpar[x]
                if x < 0 or len(chain) > size:
                    raise _RecombinationError("recombination parents form a cycle")
            for y in reversed(chain):
                hpaths[y] = hpaths[hpar[y]] + [y]
            got = hpaths[i]
        return got

    union: Set[Tuple[int, int]] = set()
    for v in range(g.n):
        i = best_via[v]
        if i is None:
            continue
        walk: List[int] = []
        stops = hpath(i)
        for a, b in zip(stops, stops[1:]):
            seg = runs[a].witness_path(hitset[b])
            walk.extend(seg[:-1])
        walk.extend(runs[i].witness_path(v))
        path = _splice_walk(walk)
        if stats is not None and len(path) < len(walk):
            stats["spliced"] = stats.get("spliced", 0) + 1
        union.update(zip(path, path[1:]))

    adj: Dict[int, List[int]] = {}
    for u, v in union:
        adj.setdefault(u, []).append(v)
    for vs in adj.values():
        vs.sort()
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    seen = {s}
    queue = [s]
    while queue:
        u = queue.pop()
        for v in adj.get(u, ()):
            if v in seen:
                continue
            seen.add(v)
            e = g.edge_between(u, v)
            if e is None:
                raise _RecombinationError(f"witness edge ({u},{v}) missing from the graph")
            parent[v] = (u, e.weight, e.aux)
            queue.append(v)
    return SsspResult(g.n, s, parent)


def reference_cut_dijkstra(ctx, g: WeightedDigraph, s: int, collect=None) -> CutResult:
    """The cut run with `BigRational` heap keys, kept as a second opinion.

    The same countdown loop as `ratpath.sssp.cut_dijkstra`, but each
    vertex caches its tentative distance, its key tent - p(v) as one
    price-wide `BigRational` and that key's floor at 2^-64; heap entries
    are (0, floor, key, vid, token) for a finite key and (1, vid, token)
    for +infinity, and `touched` is sorted by (floor, key, vid).
    """
    n = g.n
    k = ctx.k
    budget = ctx.budget
    price = [BigRational(a, ctx.pden) for a in ctx.pnum]
    dist: List[Optional[BigRational]] = [None] * n
    par: List[Optional[int]] = [None] * n
    tent: List[Optional[BigRational]] = [None] * n
    tent[s] = ZERO
    tent_key: List[Optional[BigRational]] = [None] * n  # tent[v] - p(v)
    tent_key[s] = -price[s]
    tent_floor: List[Optional[int]] = [None] * n  # floor(tent_key[v] * 2^64)
    tent_floor[s] = (tent_key[s].num << 64) // tent_key[s].den
    extracted = [False] * n
    processed = [False] * n
    expiry: List[Optional[int]] = [None] * n  # None = no countdown
    buckets: Dict[int, List[int]] = {}
    bucket_turns: List[int] = []  # heap of bucket keys, pruned lazily
    clock = 0
    on_heap = [False] * n
    token = [0] * n
    heap: List[tuple] = []
    live = 0
    inserts = 0
    relaxations = 0
    order: List[int] = []

    def push(v: int) -> None:
        nonlocal live, inserts
        token[v] += 1
        if tent_key[v] is None:
            heapq.heappush(heap, (1, v, token[v]))
        else:
            heapq.heappush(heap, (0, tent_floor[v], tent_key[v], v, token[v]))
        on_heap[v] = True
        live += 1
        inserts += 1

    for v in range(n):
        push(v)

    def expire(turn: int) -> None:
        for u in sorted(buckets.pop(turn, ())):
            if expiry[u] == turn:
                expiry[u] = None
                push(u)

    for _ in range(n):
        if live > 0:
            clock += 1
            expire(clock)
        while live == 0:
            while bucket_turns and bucket_turns[0] <= clock:
                heapq.heappop(bucket_turns)
            if not bucket_turns:
                raise AssertionError("no heap entries and no countdowns left")
            clock = heapq.heappop(bucket_turns)
            expire(clock)

        while True:
            entry = heapq.heappop(heap)
            v, tok = entry[-2:]
            if not extracted[v] and on_heap[v] and token[v] == tok:
                break
        extracted[v] = True
        on_heap[v] = False
        live -= 1
        expiry[v] = None
        order.append(v)
        dist[v] = tent[v]
        if dist[v] is None or not is_k_short(dist[v], k, budget):
            continue
        processed[v] = True
        dv = dist[v]
        touched: List[int] = []
        for e in g.out_edges(v):
            u = e.head
            if extracted[u]:
                continue
            relaxations += 1
            if par[u] is None or sum_lt(dv, e.weight, tent[u]):
                par[u] = v
                tent[u] = cand = dv + e.weight
                tent_key[u] = key = cand - price[u]
                tent_floor[u] = (key.num << 64) // key.den
                touched.append(u)
        touched.sort(key=lambda u: (tent_floor[u], tent_key[u], u))
        for rank, u in enumerate(touched, start=1):
            if on_heap[u]:
                on_heap[u] = False
                token[u] += 1
                live -= 1
            turn = clock + rank
            if expiry[u] is None or turn < expiry[u]:
                expiry[u] = turn
                if turn not in buckets:
                    buckets[turn] = []
                    heapq.heappush(bucket_turns, turn)
                buckets[turn].append(u)

    if collect is not None:
        collect["cut_heap_inserts"] = collect.get("cut_heap_inserts", 0) + inserts
        collect["cut_heap_inserts_max"] = max(collect.get("cut_heap_inserts_max", 0), inserts)
        collect["cut_relaxations"] = collect.get("cut_relaxations", 0) + relaxations
    return CutResult(s, dist, par, order, processed, inserts)


def reference_verify(g: WeightedDigraph, result: SsspResult, mode: str = "exact") -> VerifyOutcome:
    """The verifier that `ratpath.graph.verify_sssp` replaced: the same
    checks in the same order, with the triangle check on the full tree
    distances of `result.distances()`."""
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if result.n != g.n:
        return VerifyOutcome(False, reason="vertex count mismatch")
    if not 0 <= result.source < g.n:
        raise ValueError(f"source {result.source} out of range")
    parent = result.parent
    for v, (u, w, aux) in parent.items():
        if not 0 <= v < g.n:
            raise ValueError(f"tree vertex {v} out of range")
        if not 0 <= u < g.n:
            raise ValueError(f"dangling parent reference {u}")
        e = g.edge_between(u, v)
        if e is None:
            if not aux:
                raise ValueError(f"tree edge ({u},{v}) not present in the graph")
        elif e.weight != w and not aux:
            return VerifyOutcome(False, witness=e, reason="tree weight differs from graph weight")
    try:
        dist = result.distances()
    except ValueError:
        return VerifyOutcome(False, reason="parent links do not form a tree rooted at the source")

    real_edges = [e for e in g.edges if not e.aux]
    for e in real_edges:
        if dist[e.tail] is not None and dist[e.head] is None:
            return VerifyOutcome(False, witness=e, reason="tree misses a reachable vertex")
    for e in real_edges:
        du = dist[e.tail]
        if du is None:
            continue
        p = parent.get(e.head)
        if p is not None and p[0] == e.tail and not p[2]:
            continue
        if sum_lt(du, e.weight, dist[e.head]):
            return VerifyOutcome(False, witness=e, reason="edge violates the triangle inequality")
    return VerifyOutcome(True)


def reference_tree_order(result: SsspResult) -> Optional[List[int]]:
    """`SsspResult.tree_order` as it was, with the placed vertices in a set."""
    parent = result.parent
    if result.source in parent:
        return None
    placed = {result.source}
    order: List[int] = []
    for v, (u, _, _) in parent.items():
        if v in placed:
            continue
        if u in placed:
            order.append(v)
            placed.add(v)
            continue
        chain = [v]
        while u not in placed:
            entry = parent.get(u)
            if entry is None or len(chain) > len(parent):
                return None
            chain.append(u)
            u = entry[0]
        chain.reverse()
        order += chain
        placed.update(chain)
    return order


_PARSE_RE = re.compile(r"\A([+-]?\d+)(?:/(\d+))?\Z")


def reference_parse_rational(text: str) -> BigRational:
    """`BigRational.parse` as it was, on the regex it no longer uses."""
    m = _PARSE_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return BigRational(num, den)


def _records(text: str) -> Iterator[Tuple[int, List[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts


def reference_parse(text: str) -> WeightedDigraph:
    """`ratpath.graph.parse` as it was: no line number on the errors the
    constructor raises, a separate weight per edge."""
    n = None
    declared_m = None
    source = None
    edges: List[Tuple[int, int, BigRational]] = []
    for lineno, parts in _records(text):
        try:
            if parts[0] == "p":
                if n is not None or len(parts) != 3:
                    raise ValueError("bad header")
                n = int(parts[1])
                declared_m = int(parts[2])
            elif parts[0] == "s":
                if len(parts) != 2:
                    raise ValueError("bad source line")
                source = int(parts[1])
            elif parts[0] == "e":
                if len(parts) != 4:
                    raise ValueError("bad edge line")
                u, v = int(parts[1]), int(parts[2])
                w = reference_parse_rational(parts[3])
                edges.append((u, v, w))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing 'p' header")
    if declared_m is not None and declared_m != len(edges):
        raise ValueError(f"header declares {declared_m} edges, found {len(edges)}")
    return WeightedDigraph(n, edges, source=source)


def reference_parse_tree(text: str) -> SsspResult:
    """`ratpath.graph.parse_tree` as it was: a separate weight per line."""
    n = None
    source = None
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    for lineno, parts in _records(text):
        try:
            if parts[0] == "t":
                if n is not None or len(parts) != 3:
                    raise ValueError("bad tree header")
                n, source = int(parts[1]), int(parts[2])
                if not 0 <= source < n:
                    raise ValueError(f"source {source} out of vertex range [0,{n})")
            elif parts[0] == "a":
                if len(parts) not in (4, 5) or (len(parts) == 5 and parts[4] != "aux"):
                    raise ValueError("bad tree edge line")
                v, u = int(parts[1]), int(parts[2])
                if n is None:
                    raise ValueError("tree edge before the 't' header")
                if not (0 <= v < n and 0 <= u < n):
                    raise ValueError(f"tree edge ({u},{v}) out of vertex range [0,{n})")
                w = reference_parse_rational(parts[3])
                if v in parent:
                    raise ValueError(f"duplicate parent for {v}")
                parent[v] = (u, w, len(parts) == 5)
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None or source is None:
        raise ValueError("missing 't' header")
    return SsspResult(n, source, parent)


def reference_eps_feasible_price(g: WeightedDigraph, k: int, collect=None):
    """Goldberg's bit scaling with +1 rounding, round by round: the loop
    whose k+2 rounds `ratpath.scaling.eps_feasible_price` telescopes
    into one Bellman-Ford at scale 2^(k+1).

    Round j solves the weights sgn(w) * floor(2^j * |w|) + 1 reduced by
    twice the potential of the rounds before it, and prunes the edges
    whose reduced weight leaves [-2, 4n].  A state of the loop (the live
    edges with their reduced weights and expansion remainders) fixes
    every later round, so at the first repeated state the loop stops
    and the remaining levels repeat the period between them.  Each round
    builds the adjacency from the live edge arrays and runs
    FIFO label-correcting Bellman-Ford on it; the state update is a
    closure that returns the kept edges of every round, and the arrays
    are compacted to them whenever one is dropped.  The price is summed
    column by column over 2^(k+1), the repeated block written out.
    Returns the list of prices or a `NegativeCycle`, and counts
    `scaling_rounds` and `scaling_rounds_solved` into `collect` round by
    round.  Input checks and the final feasibility check are left to the
    callers.
    """
    n = g.n
    src = n
    total = g.m + n
    tails = [e.tail for e in g.edges] + [src] * n
    heads = [e.head for e in g.edges] + list(range(n))
    signs = [1] * total
    rems = [0] * total
    dens = [1] * total
    reduced = [1] * total
    for idx, e in enumerate(g.edges):
        num, den = e.weight.num, e.weight.den
        signs[idx] = 1 if num >= 0 else -1
        q0, r = divmod(abs(num), den)
        rems[idx] = r
        dens[idx] = den
        reduced[idx] = (q0 if num >= 0 else -q0) + 1

    def solve(weights):
        # (dist, None) or (None, parent-graph cycle), as
        # `integer_sssp_arrays` answers.
        size = n + 1
        adj = [[] for _ in range(size)]
        for t, h, w in zip(tails, heads, weights):
            adj[t].append((h, w))
        dist = [None] * size
        parent = [-1] * size
        hops = [0] * size
        queued = [False] * size
        dist[src] = 0
        queued[src] = True
        queue = [src]
        head = 0
        cyclic = False
        while head < len(queue):
            u = queue[head]
            head += 1
            queued[u] = False
            du, hu = dist[u], hops[u] + 1
            for v, w in adj[u]:
                d = du + w
                if dist[v] is not None and d >= dist[v]:
                    continue
                dist[v] = d
                parent[v] = u
                hops[v] = hu
                if cyclic or hu >= size:
                    cyclic = True
                    path, x = [], v
                    while x != -1 and x not in path:
                        path.append(x)
                        x = parent[x]
                    if x != -1:
                        return None, path[path.index(x):][::-1]
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
        return dist, None

    def advance(dist, reduced, rems, j):
        kept = []
        for i in range(len(reduced)):
            r = rems[i] * 2
            bit = 1 if r >= dens[i] else 0
            rems[i] = r - bit * dens[i]
            nxt = 2 * (reduced[i] + dist[tails[i]] - dist[heads[i]]) + signs[i] * bit - 1
            assert nxt >= -2, f"reduced weight {nxt} below -2 at round {j + 1}"
            if nxt <= 4 * n:
                kept.append(i)
            reduced[i] = nxt
        return kept

    levels = k + 2
    seen: Dict[int, int] = {}
    anchor = (0, reduced[:], rems[:])
    period = None
    cols: List[List[int]] = []
    for j in range(levels):
        key = hash((tuple(reduced), tuple(rems)))
        earlier = seen.setdefault(key, j)
        if earlier < j:
            start, red, rem = anchor[0], anchor[1][:], anchor[2][:]
            for r in range(start, earlier):
                advance(cols[r], red, rem, r)
            if red == reduced and rem == rems:
                period = j - earlier
                if collect is not None:
                    collect["scaling_rounds"] += levels - j
                break
            seen[key] = j
        dist, cyc = solve(reduced)
        if collect is not None:
            collect["scaling_rounds"] = collect.get("scaling_rounds", 0) + 1
            collect["scaling_rounds_solved"] = collect.get("scaling_rounds_solved", 0) + 1
        if cyc is not None:
            weight = ZERO
            for i, u in enumerate(cyc):
                weight = weight + g.edge_between(u, cyc[(i + 1) % len(cyc)]).weight
            assert weight < ZERO
            return NegativeCycle(cyc, weight)
        cols.append(dist)
        if j == k + 1:
            break
        kept = advance(dist, reduced, rems, j)
        if len(kept) < len(reduced):
            tails, heads, signs, dens, reduced, rems = (
                [arr[i] for i in kept] for arr in (tails, heads, signs, dens, reduced, rems))
            seen.clear()
            anchor = (j + 1, reduced[:], rems[:])

    first = len(cols) - (period or len(cols))
    numer = [0] * n
    for j in range(levels):
        col = cols[j] if j < len(cols) else cols[first + (j - first) % period]
        for v in range(n):
            numer[v] += col[v] << (levels - 1 - j)
    return [BigRational(a, 1 << (levels - 1)) for a in numer]


class NodePathDistCmp:
    """The distcmp strategy of `ratpath.sssp.dijkstra_nonneg` before heap
    keys carried their exact pairs: a key is (node, weight), and every
    comparison, relaxation tests included, is the node query
    `DistCmp.compare(u, v, beta)` with beta = w2 - w1, the canonical ZERO
    for equal weights.  The structure is the one the solver builds.  It
    gives no key pairs, so the solver takes no top words with it."""

    name = "distcmp"
    pair = None

    def __init__(self, g, source, budget, seed, constants, widest, maxb):
        self.comparator = _DistCmpStrategy(g, source, budget, seed, constants, widest,
                                           maxb).comparator
        self.root = self.comparator.tree.root

    @staticmethod
    def key(node, w):
        return node, w

    def compare(self, a, b):
        w1, w2 = a[1], b[1]
        return self.comparator.compare(a[0], b[0], ZERO if w1 == w2 else w2 - w1)

    def settle(self, k):
        return self.comparator.insert_leaf(k[0], k[1])

    def counters(self):
        return self.comparator.counters()


class PairKeyedExactStrategy:
    """The exact_oracle strategy of `ratpath.sssp.dijkstra_nonneg` before
    each key became its reduced sum: a key is the pair (distance, weight),
    and every comparison and every settle builds the sums it needs.  It
    gives no key pairs, so the solver takes no top words with it."""

    name = "exact_oracle"
    root = ZERO
    pair = None

    def __init__(self, g, source, budget, seed, constants, widest, maxb):
        pass

    @staticmethod
    def key(d, w):
        return d, w

    @staticmethod
    def compare(a, b) -> int:
        lhs = a[0] + a[1]
        rhs = b[0] + b[1]
        return lhs._cmp(rhs)

    @staticmethod
    def settle(k) -> BigRational:
        return k[0] + k[1]

    def counters(self) -> Dict[str, int]:
        return {}


class TreeKeepingDistCmpStrategy:
    """The distcmp strategy of `ratpath.sssp.dijkstra_nonneg` whose every
    settle appended its node to the `DistCmp` tree at once, at its slot
    level once drawn and at 0 before, and whose keys read the settled
    node's den_bits from the tree: the settled state is (node, num, den).
    Its keys carry their pairs under the same gate, so the solver takes
    top words with it where it takes them with `_DistCmpStrategy`, through
    the strategy's `key` and `pair` calls."""

    name = "distcmp"

    def __init__(self, g, source, budget, seed, constants, widest, maxb):
        c = 2 * _shortness_class(widest, budget)
        cfg = DistCmpConfig(capacity=max(2, g.n), c=c, B=budget.B, C=constants["C"],
                            lam=constants["lam"])
        self.comparator = dc = DistCmp(cfg, seed=seed)
        self.root = (0, 0, 1)
        self.compare, self.counters = dc.compare, dc.counters
        self.pair = itemgetter(3, 4) if g.n * maxb <= cfg.ell[0] else None

    def key(self, at, w):
        node, num, den = at
        dc = self.comparator
        wd = w.den
        bits = dc.tree.den_bits[node] + wd.bit_length()
        if bits > dc.config.ell[0]:
            return node, w, bits, None, None
        return node, w, bits, num * wd + w.num * den, den * wd

    def settle(self, k):
        dc = self.comparator
        tree, levels = dc.tree, dc._slot_level
        v = len(tree.parent)
        tree._append(k[0], k[1], 0 if levels is None else levels[v], k[2])
        return v, k[3], k[4]


class _HeapEntry:
    # compare: the strategy's key comparison, bound once per solve.
    __slots__ = ("key", "vid", "token", "compare")

    def __init__(self, key, vid, token, compare):
        self.key = key
        self.vid = vid
        self.token = token
        self.compare = compare

    def __lt__(self, other):
        c = self.compare(self.key, other.key)
        if c != 0:
            return c < 0
        return self.vid < other.vid


def entry_ordered_dijkstra(g: WeightedDigraph, s: int, strategy: str = "distcmp", seed: int = 0,
                           budget=DEFAULT_BUDGET, collect: Optional[Dict[str, object]] = None,
                           constants: Optional[Dict[str, float]] = None) -> SsspResult:
    """`ratpath.sssp.dijkstra_nonneg` before top words, on the solver's
    own strategy (`ratpath.sssp._STRATEGIES`, so a test's substitute is
    honoured): a heap of `_HeapEntry`s ordered by (key, vid) through the
    strategy's `compare`, which also decides every relaxation test.  The
    loop is the old one verbatim; the argument checks are left out."""
    _, widest, maxb = _scan_weights(g)
    constants = {**_CONSTANTS, **(constants or {})}
    n = g.n
    strat = _STRATEGIES[strategy](g, s, budget, seed, constants, widest, maxb)
    key_of, compare, settle = strat.key, strat.compare, strat.settle

    visited = [False] * n
    token = [0] * n
    cur: Dict[int, Tuple[int, BigRational, bool]] = {}
    cur_key: List[object] = [None] * n
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    heap: List[_HeapEntry] = []
    pushes = 0
    relaxations = 0

    # Relax out of u, settled as `here`, then settle the next live heap
    # entry as u; u is None once the heap drains.
    out_edges = g.out_edges
    heappush, heappop = heapq.heappush, heapq.heappop
    visited[s] = True
    u = s
    here = strat.root
    while u is not None:
        for e in out_edges(u):
            v = e.head
            if visited[v]:
                continue
            relaxations += 1
            k = key_of(here, e.weight)
            old = cur_key[v]
            if old is None or compare(k, old) < 0:
                cur[v] = (u, e.weight, e.aux)
                cur_key[v] = k
                token[v] += 1
                heappush(heap, _HeapEntry(k, v, token[v], compare))
                pushes += 1
        u = None
        while heap:
            entry = heappop(heap)
            v = entry.vid
            if not visited[v] and token[v] == entry.token:
                visited[v] = True
                parent[v] = cur[v]
                cur_key[v] = None  # v is never relaxed again
                here = settle(entry.key)
                u = v
                break
    # Every vertex left is unreachable from s.  Over the augmented graph
    # each would be keyed by the sentinel, and a relaxation out of one
    # would offer sentinel + w >= sentinel, which never wins: each would
    # keep s as its parent, popping in vertex-id order.
    left = [v for v in range(n) if not visited[v]]
    if left:
        sentinel = aux_weight(g)
        for v in left:
            parent[v] = (s, sentinel, True)

    if collect is not None:
        collect["heap_pushes"] = pushes
        collect["relaxations"] = relaxations
        for key, val in strat.counters().items():
            collect[f"{strat.name}.{key}"] = val
    return SsspResult(n, s, parent)


def reference_distcmp_streams(seed: int, config):
    """Slot levels and per-level cover generators of `DistCmp` built the
    way it first did: SeedSequence(seed).spawn(2), the first child drawing
    the slot levels and the second spawning one cover stream per level."""
    level_child, state_child = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(level_child)
    t = config.t
    slot_level = [t]
    if config.capacity > 1:
        draws = rng.geometric(1.0 - 1.0 / config.K, size=config.capacity - 1) - 1
        slot_level.extend(min(t, int(d)) for d in draws)
    covers = [np.random.default_rng(child) for child in state_child.spawn(max(t, 1))]
    return slot_level, covers


# id(tree) -> (tree, reduced root distances of its first nodes).  Holding
# the tree keeps its id from being reused while the entry lives.
_ROOT_DISTANCES: Dict[int, Tuple[object, List[BigRational]]] = {}


def root_distance(tree, v: int) -> BigRational:
    """Exact root distance of node v of an `IncTree`, reduced.  It sums
    `tree.parent` and `tree.weight` in node order, memoized per tree for
    the last few trees: an oracle for the tree comparators, which keep
    their exact distances as unreduced pairs from `IncTree.pair`."""
    entry = _ROOT_DISTANCES.get(id(tree))
    if entry is None:
        if len(_ROOT_DISTANCES) >= 8:
            _ROOT_DISTANCES.clear()
        entry = _ROOT_DISTANCES[id(tree)] = (tree, [ZERO])
    dist = entry[1]
    for x in range(len(dist), v + 1):
        dist.append(dist[tree.parent[x]] + tree.weight[x])
    return dist[v]


def exact_ordering(tree, u: int, v: int, beta: BigRational) -> Ordering:
    """dist(u) - dist(v) against beta from `root_distance`."""
    return Ordering.of((root_distance(tree, u) - root_distance(tree, v))._cmp(beta))


def backbone_graph(n: int, seed: int) -> WeightedDigraph:
    """The benchmark's neg-deep shape: a random small-weight skeleton plus a
    zero-weight path 0 -> n-1 -> ... -> 1 listed last-hop first, under a
    random potential."""
    backbone = [(0, n - 1)] + [(v, v - 1) for v in range(n - 1, 1, -1)]
    on_path = set(backbone)
    edges = [(e.tail, e.head, e.weight) for e in gen_random(n, 3 * n, seed).edges
             if (e.tail, e.head) not in on_path]
    edges = [(u, v, ZERO) for u, v in reversed(backbone)] + edges
    rng = np.random.default_rng([seed, 1])
    pot = [BigRational(int(rng.integers(-16, 17)), int(rng.integers(1, 17))) for _ in range(n)]
    return WeightedDigraph(n, [(u, v, w - pot[u] + pot[v]) for u, v, w in edges])


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


def reverse_path(n: int) -> WeightedDigraph:
    """n vertices, source n - 1, and an edge for every ordered pair i != j,
    listed by ascending i, then ascending j.  The edge i -> i - 1 weighs
    -1 + 1/(i mod 7 + 2); i -> j with i < j weighs (j - i) + 1/2; every
    other i -> j weighs 1/3.

    Shortest paths run down the path n - 1 -> ... -> 0, and no cycle is
    negative: an up edge outweighs the path back by at least 1/2.  The
    weights' lcm is 840 once n >= 8.  The price's super-source queues
    the vertices 0, 1, ..., n - 1, against the path's direction.
    """
    half, third = BigRational(1, 2), BigRational(1, 3)
    down = [BigRational(-1) + BigRational(1, i % 7 + 2) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if j == i - 1:
                edges.append((i, j, down[i]))
            elif i < j:
                edges.append((i, j, BigRational(j - i) + half))
            elif i != j:
                edges.append((i, j, third))
    return WeightedDigraph(n, edges, source=n - 1)


# `graph._GRID_BITS` for each route of `bf_exact`: 4096 bits hold the lcm
# of every graph the tests route onto the grid, and at 0 no lcm fits.
BF_ROUTES = {"grid": 1 << 12, "rational": 0}


@contextlib.contextmanager
def bf_route(route: Optional[str] = None) -> Iterator[List[str]]:
    """Run `bf_exact` on `route` ("grid" or "rational"), or at the default
    cap when route is None, and yield the list of routes on which
    `graph._bellman_ford` ran: "grid" for int weights with inline sums
    (lt None), "rational" otherwise."""
    real = graph_module._bellman_ford

    def spy(n, s, edges, lt=sum_lt):
        if lt is None:
            assert all(w.__class__ is int for _, _, w in edges)
        taken.append("grid" if lt is None else "rational")
        return real(n, s, edges, lt)

    taken: List[str] = []
    with pytest.MonkeyPatch.context() as mp:
        if route is not None:
            mp.setattr(graph_module, "_GRID_BITS", BF_ROUTES[route])
        mp.setattr(graph_module, "_bellman_ford", spy)
        yield taken


def crossed_diamond_chain(k: int):
    """`diamond_chain(k)` with the routes of each diamond crossed: top -> x
    and y -> bottom weigh w, top -> y and x -> bottom weigh 2w.  Both
    routes still tie at 3w, but the keys that meet at the bottom carry
    unequal weights."""
    g = diamond_chain(k)
    edges = [(e.tail, e.head, e.weight * 2 if i % 4 in (1, 2) else e.weight)
             for i, e in enumerate(g.edges)]
    return WeightedDigraph(g.n, edges, source=0)


def prime_bound_for(count: int) -> int:
    """Smallest power-of-two bound, from 8 up, with at least `count`
    primes below it."""
    bound = 8
    while len(_primes_below(bound)) < count:
        bound *= 2
    return bound


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def fresh_distcmp_configs():
    """Every test starts with no shared distcmp config: a test that patches
    `DistCmpConfig.__init__` builds the configs its solves use, whatever
    ran before it, and the patched ones it leaves are gone before the
    next test."""
    _shared_config.cache_clear()
