"""Graph model, instance I/O, generators, price functions, verification.

Instance file format (line oriented, '#' starts a comment):

    p <n> <m>
    s <source>           # optional
    e <u> <v> <num>/<den>

Tree output format:

    t <n> <source>
    a <v> <parent> <num>/<den> [aux]

All ids are 0-based, all weights exact rationals; no floating point
appears anywhere in the formats.  Parallel edges collapse to the minimum
weight on ingest, since the non-minimum ones can never appear on a
shortest path.  Within one `parse` or `parse_tree` call, equal weight
tokens parse to one shared (immutable) `BigRational`.  Every parse error
names its line, apart from a missing header and an edge count that
differs from the header's.

`_bellman_ford` is the one exact Bellman-Ford, run by `bf_exact` and by
the recombination of `sssp.negative_sssp`.  `_word_grid` is the weights'
one-word grid: when L, the lcm of the weight denominators, fits
`_GRID_BITS` bits, `bf_exact` relaxes and `verify_sssp` compares ints
on the grid 1/L.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .rational import BigRational, ZERO, ONE, _fraction_text, _make, sum_balanced, sum_lt

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Edge",
    "WeightedDigraph",
    "SsspResult",
    "NegativeCycle",
    "VerifyOutcome",
    "parse",
    "serialize",
    "parse_tree",
    "serialize_tree",
    "augment_source",
    "check_eps_feasible",
    "bf_exact",
    "BfResult",
    "gen_small_diff",
    "gen_random",
    "plant_negative_cycle",
    "verify_sssp",
]


class Edge:
    __slots__ = ("tail", "head", "weight", "aux")

    def __init__(self, tail: int, head: int, weight: BigRational, aux: bool = False):
        self.tail = tail
        self.head = head
        self.weight = weight
        self.aux = aux

    def __repr__(self):
        mark = ", aux" if self.aux else ""
        return f"Edge({self.tail}->{self.head}, {self.weight}{mark})"


class WeightedDigraph:
    """Adjacency-list directed graph with exact rational edge weights."""

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int, BigRational]] = (),
        source: Optional[int] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if source is not None and not 0 <= source < n:
            raise ValueError(f"source {source} out of range")
        self.n = n
        self.source = source
        self.edges: List[Edge] = []
        # The edge u->v under the key u*n + v: an int key, unlike a (u, v)
        # tuple, is no object for the cyclic garbage collector to track.
        self._index: Dict[int, Edge] = {}
        self._adj: List[List[Edge]] = [[] for _ in range(n)]
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge(self, u: int, v: int, w: BigRational, aux: bool = False) -> None:
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of vertex range [0,{n})")
        key = u * n + v
        e = self._index.get(key)
        if e is not None:
            if w < e.weight:
                e.weight = w
                e.aux = aux
            return
        e = self._index[key] = Edge(u, v, w, aux)
        self.edges.append(e)
        self._adj[u].append(e)

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_edges(self, u: int) -> List[Edge]:
        """The stored list of u's out-edges, in insertion order.

        Read-only: callers must not mutate the list.  A parallel edge
        lowered by `add_edge` changes in place, so the list stays current.
        """
        return self._adj[u]

    def edge_between(self, u: int, v: int) -> Optional[Edge]:
        # A key built from an out-of-range u matches no edge; one from an
        # out-of-range v could.
        if not 0 <= v < self.n:
            return None
        return self._index.get(u * self.n + v)

    def has_negative_weight(self) -> bool:
        return any(e.weight.num < 0 for e in self.edges)

    def copy(self) -> "WeightedDigraph":
        g = WeightedDigraph(self.n, source=self.source)
        for e in self.edges:
            g.add_edge(e.tail, e.head, e.weight, e.aux)
        return g


def check_eps_feasible(g: WeightedDigraph, p: Sequence[BigRational], eps: BigRational) -> bool:
    """True iff every reduced weight is at least -eps.

    Decided on integers, with no gcd and no rational built per edge: with
    L the lcm of the price denominators and a[v] = p[v] * L, all
    denominators positive, w + p[t] - p[h] >= -eps iff
    (w.num * L + (a[t] - a[h]) * w.den) * eps.den >= -eps.num * L * w.den.
    """
    L = math.lcm(*(x.den for x in p))
    a = [x.num * (L // x.den) for x in p]
    eps_den = eps.den
    neg_eps_num = -eps.num * L
    for e in g.edges:
        w = e.weight
        if (w.num * L + (a[e.tail] - a[e.head]) * w.den) * eps_den < neg_eps_num * w.den:
            return False
    return True


class NegativeCycle:
    """Witness cycle with exactly verified negative total weight.

    `vertices` lists the cycle without repeating the first vertex.
    """

    __slots__ = ("vertices", "weight")

    def __init__(self, vertices: Sequence[int], weight: BigRational):
        if weight >= ZERO:
            raise ValueError("witness cycle is not negative")
        self.vertices = tuple(vertices)
        self.weight = weight

    def __repr__(self):
        return f"NegativeCycle({list(self.vertices)}, weight={self.weight})"


class SsspResult:
    """Shortest-paths out-tree: parent links over the reachable vertices.

    `parent[v] = (u, w, aux)` means the tree edge u->v of weight w; aux
    marks edges added by source augmentation, and any vertex whose root
    path uses an aux edge is reported unreachable.
    """

    __slots__ = ("n", "source", "parent")

    def __init__(self, n: int, source: int, parent: Dict[int, Tuple[int, BigRational, bool]]):
        self.n = n
        self.source = source
        self.parent = dict(parent)

    def tree_order(self) -> Optional[List[int]]:
        """Tree vertices other than the source, each after its parent; None
        when the parent links do not form a tree rooted at the source.
        Every vertex and parent id lies in range(n).

        One pass over the parent links: the chain above each unplaced
        vertex is walked up to a placed vertex and placed top-down, so
        every vertex is walked once.
        """
        parent = self.parent
        if self.source in parent:
            return None
        placed = [False] * self.n
        placed[self.source] = True
        order: List[int] = []
        for v, (u, _, _) in parent.items():
            if placed[v]:
                continue
            if placed[u]:  # the usual case: trees built in extraction order
                order.append(v)
                placed[v] = True
                continue
            chain = [v]
            while not placed[u]:
                entry = parent.get(u)
                if entry is None or len(chain) > len(parent):
                    return None
                chain.append(u)
                u = entry[0]
            chain.reverse()
            order += chain
            for c in chain:
                placed[c] = True
        return order

    def _order(self) -> List[int]:
        n = self.n
        if 0 <= self.source < n and all(0 <= v < n and 0 <= u < n for v, (u, _, _) in self.parent.items()):
            order = self.tree_order()
            if order is not None:
                return order
        raise ValueError("parent links do not form a tree rooted at the source")

    def distances(self) -> List[Optional[BigRational]]:
        """Exact tree distance per vertex; None for vertices outside the tree
        or reached only through augmentation edges."""
        order = self._order()
        dist: List[Optional[BigRational]] = [None] * self.n
        dist[self.source] = ZERO
        for v in order:
            u, w, aux = self.parent[v]
            if dist[u] is not None and not aux:
                dist[v] = dist[u] + w
        return dist


# -- instance text format ------------------------------------------


class _Weights(dict):
    """Weight of each token, parsed on first lookup; one per `parse` or
    `parse_tree` call, so equal tokens of one text share one BigRational."""

    def __missing__(self, token: str) -> BigRational:
        w = self[token] = BigRational.parse(token)
        return w


def _read(text: str, records: Dict[str, Callable[[List[str], int], None]]) -> None:
    """Hand the fields of each line that is not blank once its '#' comment
    is cut to the handler its first field names, with the line number.
    Errors, an unknown record among them, are raised naming the line."""
    lineno = 0
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                line = line[: line.index("#")]
            fields = line.split()
            if fields:
                handler = records.get(fields[0])
                if handler is None:
                    raise ValueError(f"unknown record {fields[0]!r}")
                handler(fields, lineno)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def parse(text: str) -> WeightedDigraph:
    """Parse the instance format; malformed input raises ValueError,
    naming its line unless the header is missing or its edge count wrong.
    Each distinct weight token is parsed once per call, so equal tokens
    share one BigRational."""
    n = declared_m = source = None
    n_line = s_line = 0
    tails: List[int] = []
    heads: List[int] = []
    weights: List[BigRational] = []
    lines: List[int] = []
    value = _Weights()

    def header(fields: List[str], lineno: int) -> None:
        nonlocal n, declared_m, n_line
        if n is not None or len(fields) != 3:
            raise ValueError("bad header")
        n, declared_m, n_line = int(fields[1]), int(fields[2]), lineno

    def source_line(fields: List[str], lineno: int) -> None:
        nonlocal source, s_line
        if len(fields) != 2:
            raise ValueError("bad source line")
        source, s_line = int(fields[1]), lineno

    def edge(fields: List[str], lineno: int) -> None:
        if len(fields) != 4:
            raise ValueError("bad edge line")
        u, v, w = int(fields[1]), int(fields[2]), value[fields[3]]
        tails.append(u)
        heads.append(v)
        weights.append(w)
        lines.append(lineno)

    _read(text, {"p": header, "s": source_line, "e": edge})
    if n is None:
        raise ValueError("missing 'p' header")
    if declared_m != len(weights):
        raise ValueError(f"header declares {declared_m} edges, found {len(weights)}")
    # The range checks are the constructor's and `add_edge`'s, run after
    # the checks above and in the constructor's order: count, source, edges.
    try:
        g = WeightedDigraph(n, source=source)
    except ValueError as exc:
        raise ValueError(f"line {n_line if n < 0 else s_line}: {exc}") from None
    lineno = 0
    try:
        for u, v, w, lineno in zip(tails, heads, weights, lines):
            g.add_edge(u, v, w)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return g


def serialize(g: WeightedDigraph) -> str:
    """Canonical text: sorted edges, reduced weights with explicit denominator."""
    lines = [f"p {g.n} {g.m}"]
    if g.source is not None:
        lines.append(f"s {g.source}")
    for e in sorted(g.edges, key=lambda e: (e.tail, e.head)):
        lines.append(f"e {e.tail} {e.head} {_fraction_text(e.weight)}")
    return "\n".join(lines) + "\n"


def serialize_tree(result: SsspResult) -> str:
    lines = [f"t {result.n} {result.source}"]
    for v in sorted(result.parent):
        u, w, aux = result.parent[v]
        suffix = " aux" if aux else ""
        lines.append(f"a {v} {u} {_fraction_text(w)}{suffix}")
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> SsspResult:
    """Parse the tree format; malformed input raises ValueError naming its
    line.  Equal weight tokens share one BigRational, as in `parse`."""
    n = source = None
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    value = _Weights()

    def header(fields: List[str], lineno: int) -> None:
        nonlocal n, source
        if n is not None or len(fields) != 3:
            raise ValueError("bad tree header")
        n, source = int(fields[1]), int(fields[2])
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of vertex range [0,{n})")

    def tree_edge(fields: List[str], lineno: int) -> None:
        if len(fields) not in (4, 5) or (len(fields) == 5 and fields[4] != "aux"):
            raise ValueError("bad tree edge line")
        v, u = int(fields[1]), int(fields[2])
        if n is None:
            raise ValueError("tree edge before the 't' header")
        if not (0 <= v < n and 0 <= u < n):
            raise ValueError(f"tree edge ({u},{v}) out of vertex range [0,{n})")
        w = value[fields[3]]
        if v in parent:
            raise ValueError(f"duplicate parent for {v}")
        parent[v] = (u, w, len(fields) == 5)

    _read(text, {"t": header, "a": tree_edge})
    if n is None or source is None:
        raise ValueError("missing 't' header")
    return SsspResult(n, source, parent)


# -- source augmentation -------------------------------------------


def aux_weight(g: WeightedDigraph) -> BigRational:
    """Sentinel weight of an auxiliary edge s->v; it strictly exceeds any
    original distance.  For non-negative graphs it is n*max(1, max w);
    with negative edges present it is 2n*max(1, max |w|), which keeps the
    same guarantee."""
    # One pass finds max(1, max |w|) by cross-multiplying the canonical
    # (num, den) pairs, and whether any weight is negative; no BigRational
    # is built or compared until the result.
    num, den, factor = 1, 1, 1
    for e in g.edges:
        a, b = e.weight.num, e.weight.den
        if a < 0:
            a, factor = -a, 2
        if a * den > num * b:
            num, den = a, b
    return BigRational(factor * g.n * num, den)


def augment_source(g: WeightedDigraph, s: int) -> WeightedDigraph:
    """Add flagged auxiliary edges s->v of weight `aux_weight(g)` so every
    vertex is reachable.

    Distances to originally reachable vertices are unchanged and
    reachability is recoverable from the aux flags.  `dijkstra_nonneg`
    does not call this: unreachable vertices never enter its heap, and
    once the heap drains it gives each the aux edge from s added here as
    its parent, building no augmented graph.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    sentinel = aux_weight(g)
    out = g.copy()
    out.source = s
    present = {e.head for e in g.out_edges(s)}
    for v in range(g.n):
        if v != s and v not in present:
            out.add_edge(s, v, sentinel, aux=True)
    return out


# -- the weights' word grid ----------------------------------------

# Bits of the weights' common denominator up to which `bf_exact` and
# `verify_sssp` work on that grid, one machine word.
_GRID_BITS = 64


def _word_grid(edges: Sequence[Edge]) -> Optional[int]:
    """L, the lcm of the edges' weight denominators, when it fits
    `_GRID_BITS` bits, or None: the loop stops at the first partial lcm
    past the cap, reading no later edge.  Every weight w is then the int
    w * L = num * (L // den) on the grid 1/L, and so is every path
    weight."""
    grid = 1
    for e in edges:
        d = e.weight.den
        if grid % d:
            grid = math.lcm(grid, d)
            if grid >> _GRID_BITS:
                return None
    return None if grid >> _GRID_BITS else grid


# -- exact Bellman-Ford oracle -------------------------------------


class BfResult:
    __slots__ = ("dist", "parent")

    def __init__(self, dist: List[Optional[BigRational]], parent: List[int]):
        self.dist = dist
        self.parent = parent


def _parent_cycle(parent: List[int], v: int) -> Optional[List[int]]:
    # Follow parent links from v; a repeated vertex closes a cycle of the
    # parent graph, listed in edge order.
    pos: Dict[int, int] = {}
    path: List[int] = []
    while v != -1 and v not in pos:
        pos[v] = len(path)
        path.append(v)
        v = parent[v]
    if v == -1:
        return None
    cycle = path[pos[v]:]
    cycle.reverse()
    return cycle


def cycle_weight(g: WeightedDigraph, cycle: Sequence[int]) -> BigRational:
    ws = []
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        e = g.edge_between(u, v)
        if e is None:
            raise ValueError(f"cycle edge ({u},{v}) not in graph")
        ws.append(e.weight)
    return sum_balanced(ws)


def _bellman_ford(n: int, s: int, edges: Sequence[Tuple[int, int, object]], zero=ZERO,
                  lt: Optional[Callable[[object, object, object], bool]] = sum_lt):
    """The one exact Bellman-Ford: distances from s over (tail, head,
    weight) triples, as (dist, parent, None), or (None, None, cycle) when
    a negative cycle is reachable from s, its vertices in edge order.

    Each relaxation is decided by whether d(tail) + w < d(head): by
    lt(d(tail), w, d(head)), `sum_lt` on `BigRational`s, so only an
    improvement builds a sum; or, with lt None, inline as d(tail) + w <
    d(head), for ints on a common grid (zero 0).  `zero` is d(s).
    The rounds scan the edges in list order and skip an edge whose
    tail's distance has not changed since that edge was last scanned (a
    version per vertex, the version last seen per edge): the last scan
    left d(head) <= d(tail) + w, and d(head) only falls, so the edge
    could not improve anything.  Every improvement, the parents, the
    round count and so the cycle are those of the full scan.
    """
    dist: List[Optional[BigRational]] = [None] * n
    parent = [-1] * n
    dist[s] = zero
    version = [0] * n  # bumped on every change of dist[v]
    version[s] = 1
    seen = [0] * len(edges)  # version[tail] when the edge was last scanned
    last_improved = -1
    for _ in range(n):
        changed = False
        for i, (u, v, w) in enumerate(edges):
            if seen[i] == version[u]:
                continue
            seen[i] = version[u]
            du = dist[u]
            dv = dist[v]
            if dv is None or (du + w < dv if lt is None else lt(du, w, dv)):
                dist[v] = du + w
                parent[v] = u
                version[v] += 1
                changed = True
                last_improved = v
        if not changed:
            return dist, parent, None
    # After n improving rounds, walking n parent links from an improved
    # vertex is guaranteed to land on the cycle.
    v = last_improved
    for _ in range(n):
        v = parent[v]
    return None, None, _parent_cycle(parent, v)


def bf_exact(g: WeightedDigraph, s: int):
    """Distances from s by `_bellman_ford` over the edge list, or a
    NegativeCycle witness when a negative cycle is reachable from s.

    When L, the lcm of the weight denominators, fits `_GRID_BITS` bits
    (`_word_grid`), the rounds run on ints: each weight is num * (L // den)
    and d(s) is 0.  Scaling by L > 0 keeps every strict test, so every
    improvement, parent, round count and cycle is that of the rounds on
    `BigRational`s, the route past the cap.  `dist` holds reduced
    `BigRational`s either way, built on the grid route from each int x
    as x / L with one gcd per reachable vertex."""
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    edges = g.edges
    grid = _word_grid(edges)
    if grid is None:
        dist, parent, cycle = _bellman_ford(g.n, s, [(e.tail, e.head, e.weight) for e in edges])
    else:
        triples = [(e.tail, e.head, e.weight.num * (grid // e.weight.den)) for e in edges]
        dist, parent, cycle = _bellman_ford(g.n, s, triples, 0, None)
        if cycle is None:
            for v, x in enumerate(dist):
                if x is not None:
                    c = math.gcd(x, grid)
                    dist[v] = _make(x // c, grid // c)
    if cycle is None:
        return BfResult(dist, parent)
    w = cycle_weight(g, cycle)
    if w >= ZERO:
        raise AssertionError("extracted cycle is not negative")
    return NegativeCycle(cycle, w)


# -- generators -----------------------------------------------------


def _primes_below(bound: int) -> List[int]:
    sieve = [True] * max(bound, 2)
    sieve[0] = sieve[1] = False
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i in range(2, bound) if sieve[i]]


@lru_cache(maxsize=64)
def _closest_subset_sums(primes: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...], BigRational]:
    """Two distinct prime subsets whose reciprocal sums are closest."""
    sums: List[Tuple[BigRational, Tuple[int, ...]]] = []
    for mask in range(1 << len(primes)):
        subset = tuple(p for i, p in enumerate(primes) if mask >> i & 1)
        sums.append((sum_balanced([BigRational(1, p) for p in subset]), subset))
    sums.sort(key=lambda t: (t[0], t[1]))
    best: Optional[Tuple[BigRational, int]] = None
    for i in range(len(sums) - 1):
        gap = sums[i + 1][0] - sums[i][0]
        if best is None or gap < best[0]:
            best = (gap, i)
    assert best is not None and best[0] > ZERO
    gap, i = best
    lo_sum, lo_set = sums[i]
    hi_sum, hi_set = sums[i + 1]
    return lo_set, hi_set, gap


def gen_small_diff(
    prime_bound: int, padding: bool = True, chain: int = 1, window: Optional[int] = None
) -> Tuple[WeightedDigraph, BigRational]:
    """Two-path gadget whose path weights differ by the smallest positive
    gap among subset-reciprocal sums of primes below `prime_bound`.

    Returns (graph, gap).  With `chain > 1` the gadget is repeated in
    series; `window` selects that many consecutive primes per gadget,
    rotating through fresh primes so exact path weights accumulate bits
    along the chain (the default reuses the full prime set every gadget).
    Vertex 0 is the source; the final sink is the last vertex.
    """
    if prime_bound < 3:
        raise ValueError("prime bound must be at least 3")
    if chain < 1:
        raise ValueError("chain must be positive")
    primes = _primes_below(prime_bound)
    if window is None:
        if len(primes) > 20:
            raise ValueError("subset enumeration infeasible beyond ~20 primes")
        gadget_primes = [tuple(primes)] * chain
    else:
        if window < 2 or window > 20:
            raise ValueError("window must be in 2..20")
        if len(primes) < window * chain:
            raise ValueError("not enough primes below the bound for disjoint windows")
        gadget_primes = [tuple(primes[i * window : (i + 1) * window]) for i in range(chain)]

    edges: List[Tuple[int, int, BigRational]] = []
    gaps: List[BigRational] = []
    nxt = 1
    start = 0
    for ps in gadget_primes:
        lo_set, hi_set, gap = _closest_subset_sums(ps)
        gaps.append(gap)
        lo_ws = [BigRational(1, p) for p in lo_set]
        hi_ws = [BigRational(1, p) for p in hi_set]
        if padding:
            hops = max(len(lo_ws), len(hi_ws), 2)
            lo_ws += [ZERO] * (hops - len(lo_ws))
            hi_ws += [ZERO] * (hops - len(hi_ws))
        else:
            lo_ws = lo_ws or [ZERO]
            hi_ws = hi_ws or [ZERO]
            if len(lo_ws) == 1 and len(hi_ws) == 1:
                # Single-hop twins would collapse as parallel edges.
                lo_ws.append(ZERO)
        end = None
        for ws in (lo_ws, hi_ws):
            cur = start
            for i, w in enumerate(ws):
                if i == len(ws) - 1 and end is not None:
                    edges.append((cur, end, w))
                    break
                edges.append((cur, nxt, w))
                cur, nxt = nxt, nxt + 1
            if end is None:
                end = cur
        start = end
    n = nxt
    # Relabel so the overall sink is the last vertex id.
    sink = start
    if sink != n - 1:
        def relabel(x: int) -> int:
            if x == sink:
                return n - 1
            if x == n - 1:
                return sink
            return x

        edges = [(relabel(u), relabel(v), w) for (u, v, w) in edges]
    g = WeightedDigraph(n, edges, source=0)
    return g, sum_balanced(gaps)


_WEIGHT_CLASSES = {
    "unit": (1, 1),
    "small": (16, 16),
    "medium": (256, 256),
    "big": (1 << 30, 1 << 30),
}


def _random_rational(rng: np.random.Generator, weight_class: str, non_negative: bool) -> BigRational:
    max_num, max_den = _WEIGHT_CLASSES[weight_class]
    num = int(rng.integers(0, max_num + 1))
    den = int(rng.integers(1, max_den + 1))
    if not non_negative and rng.integers(0, 2):
        num = -num
    return BigRational(num, den)


def gen_random(
    n: int,
    m: int,
    seed: int,
    weight_class: str = "small",
    negative_mode: str = "none",
) -> WeightedDigraph:
    """Random simple digraph, deterministic under `seed`.

    negative_mode "none" draws non-negative weights; "priced" perturbs a
    non-negative graph by a random vertex potential, which introduces
    negative edges but provably no negative cycle (cycle weights are
    unchanged by the potential).
    """
    if m > n * (n - 1):
        raise ValueError("too many edges for a simple digraph")
    if negative_mode not in ("none", "priced"):
        raise ValueError(f"unknown negative mode {negative_mode!r}")
    if weight_class not in _WEIGHT_CLASSES:
        raise ValueError(f"unknown weight class {weight_class!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    seen = set()
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    base = [_random_rational(rng, weight_class, non_negative=True) for _ in pairs]
    if negative_mode == "priced":
        potential = [_random_rational(rng, weight_class, non_negative=False) for _ in range(n)]
        weights = [w - potential[u] + potential[v] for (u, v), w in zip(pairs, base)]
    else:
        weights = base
    g = WeightedDigraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)], source=0)
    return g


def plant_negative_cycle(
    g: WeightedDigraph, seed: int, length: int = 3
) -> WeightedDigraph:
    """Overlay a short negative cycle reachable from the graph source.

    Used to produce instances where the negative pipeline must report a
    witness.  Existing edges on the chosen cycle are overwritten downward,
    so the cycle weight is exactly the planted one.
    """
    if g.n < length + 1:
        raise ValueError("graph too small for the requested cycle")
    import numpy as np

    rng = np.random.default_rng(seed)
    s = g.source if g.source is not None else 0
    others = [v for v in range(g.n) if v != s]
    idx = rng.permutation(len(others))[:length]
    cycle = [others[i] for i in idx]
    out = g.copy()
    drop = BigRational(-1, int(rng.integers(2, 7)))
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % length]
        e = out.edge_between(u, v)
        w = drop if e is None else min(e.weight, ZERO) + drop
        if e is None:
            out.add_edge(u, v, w)
        else:
            e.weight = w
    if out.edge_between(s, cycle[0]) is None:
        out.add_edge(s, cycle[0], ONE)
    return out


# -- verification ----------------------------------------------------


class VerifyOutcome:
    __slots__ = ("valid", "witness", "reason")

    def __init__(self, valid: bool, witness: Optional[Edge] = None, reason: str = ""):
        self.valid = valid
        self.witness = witness
        self.reason = reason

    def __bool__(self):
        return self.valid

    def __repr__(self):
        if self.valid:
            return "VerifyOutcome(valid)"
        return f"VerifyOutcome(invalid, {self.reason}, witness={self.witness})"


# Bits of the reduced denominator of a path weight from an anchor past
# which `_anchored_paths` starts a new anchor; also the bits of either
# unreduced denominator past which a walk to a common ancestor stops.
_ANCHOR_BITS = 256
# Tree edges, both endpoints' together, that `verify_sssp` climbs past its
# grid cap to compare an edge from the endpoints' common ancestor.
_WALK_EDGES = 8


def _anchored_paths(n: int, source: int, order: Sequence[int], tree_edge: Sequence[Optional[Edge]]):
    """The tree pass of `verify_sssp`'s anchored comparison, built once,
    at the first edge whose endpoints' common ancestor is past the walk's
    cap: each reachable vertex's path weight from its anchor, an ancestor
    at most a few hundred bits of denominator above it.

    Returns (anchor, num, den, up).  `anchor[v]` is -1 for an unreachable
    v, and num[v] / den[v] is P(anchor[v] -> v), reduced.  `up` maps each
    anchor to (parent anchor a, num, den), its own path weight from a,
    reduced; the source maps to (-1, 0, 1).  `order` lists the tree
    vertices each after its parent, and `tree_edge[v]` is v's real tree
    edge, or None for an aux parent entry.

    Each step adds one edge weight as `rational._add` does: the gcd of
    the running denominator with the weight's only, which keeps the pair
    reduced without a gcd of the full numerator.  A vertex whose reduced
    denominator passes `_ANCHOR_BITS` starts a new anchor, so no pair
    outgrows the budget by more than one weight.
    """
    anchor = [-1] * n
    num = [0] * n
    den = [1] * n
    up: Dict[int, Tuple[int, int, int]] = {source: (-1, 0, 1)}
    anchor[source] = source
    for v in order:
        e = tree_edge[v]
        if e is None:
            continue
        u = e.tail
        a = anchor[u]
        if a < 0:
            continue
        wn = e.weight.num
        wd = e.weight.den
        pn = num[u]
        pd = den[u]
        if wd == 1:
            pn += wn * pd
        else:
            g = math.gcd(pd, wd)
            if g == 1:
                pn = pn * wd + wn * pd
                pd *= wd
            else:
                pd //= g
                pn = pn * (wd // g) + wn * pd
                g2 = math.gcd(pn, g)
                if g2 > 1:
                    pn //= g2
                pd *= wd // g2
        if pd.bit_length() > _ANCHOR_BITS:
            up[v] = (a, pn, pd)
            anchor[v] = v
        else:
            anchor[v] = a
            num[v] = pn
            den[v] = pd
    return anchor, num, den, up


def verify_sssp(g: WeightedDigraph, result: SsspResult, mode: str = "exact") -> VerifyOutcome:
    """Check exactly that `result` is a shortest-paths tree of g from its source.

    The checks, in order: the vertex counts agree; every tree edge that is
    not aux has the graph's weight; the parent links form a tree rooted at
    the source; no real edge leaves a reachable vertex for an unreachable
    one; and every real edge u->v out of a reachable vertex satisfies
    d(u) + w >= d(v), for d the exact tree distances of
    `result.distances()` (vertices outside the tree or reached only via
    aux edges are unreachable).  The first failed check is the outcome.
    An out-of-range source, tree vertex or parent, or a real tree edge
    missing from g, raises ValueError.  `mode` accepts only "exact"; the
    benchmark harness passes it by keyword.

    The triangle check cannot fail on a tree edge, an edge u->v with
    `parent[v] == (u, w, False)`.  The weight check has already made w
    the weight of the one graph edge u->v (no parallel edges survive
    ingest), and d(v) is d(u) + w.  An aux parent entry is no tree edge
    here, so a real edge under it is still checked.

    No edge is decided by building d as rationals, whose denominators
    grow to Theta(n) bits down a deep tree.  `_word_grid` builds L, the
    lcm of the real edges' weight denominators, and stops at the first
    partial lcm of more than `_GRID_BITS` bits.  When L fits
    `_GRID_BITS` (a machine word), every d(v) sits on the grid 1/L: each
    reachable vertex holds the int x(v) = d(v) * L, built down the tree as
    x(u) + num * (L // den), and an edge is violated iff
    x(u) + num * (L // den) < x(v): one multiplication, one add and one
    compare per edge, no gcd.  A tree edge is compared too; it holds
    with equality.

    Past that cap, the tree edges are skipped.  One pass down the tree
    gives each vertex its depth, the tree edges above it, or -1 when no
    real tree path reaches it; it does no big-int work, and the
    reachability check reads it.  Then each real edge u->v, in list
    order, climbs from the deeper endpoint, one tree edge at a time, to
    the common ancestor c of u and v, summing P(c -> u) + w and
    P(c -> v) as unreduced int pairs, with no gcd.  Since
    d(x) = d(c) + P(c -> x), d(c) cancels, and d(u) + w < d(v) iff
    P(c -> u) + w < P(c -> v): one cross-multiplication.  A walk is
    bounded: an edge whose endpoints' depths differ by more than
    `_WALK_EDGES` is not walked, and a walk stops after `_WALK_EDGES`
    tree edges, or once either pair's denominator passes `_ANCHOR_BITS`
    bits (one weight more on the step that reaches c).  So no edge costs
    more than `_WALK_EDGES` steps, and its two pairs sum at most
    `_WALK_EDGES` + 1 weights.

    At the first edge that does not reach c this way, the triangle check
    goes on from that edge on anchors: the edges walked before it all
    held, so the first violated edge stays the witness.
    `_anchored_paths` runs then, once, and never when every edge reaches
    its c.  It splits each root path at anchors and keeps P(a -> v), the
    path weight from v's anchor a, with a denominator of at most a few
    hundred bits; each anchor b keeps P(c -> b) from its parent anchor c.
    Once it is built, an anchored comparison costs less than a walk, so
    no edge walks again.  Since d(v) = d(a) + P(a -> v):
    - when u and v share anchor a, d(a) cancels, and d(u) + w < d(v)
      iff P(a -> u) + w < P(a -> v);
    - when one anchor is the other's parent anchor c, or both anchors
      share the parent anchor c, then d(x) = d(c) + P(c -> b) + P(b -> x)
      for an endpoint x under an anchor b other than c.  Adding the
      stored P(c -> b) on that side first, d(c) cancels as above;
    - every other edge compares full distances d(u) and d(v) by
      `sum_lt`, each built once per vertex from anchor distances
      memoized up the anchor chain: at most the big-int work of the
      comparison over `result.distances()`.
    Each comparison on every route is exact and the edges are checked in
    list order, so the outcome and its witness are those of comparing d.
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    n = g.n
    if result.n != n:
        return VerifyOutcome(False, reason="vertex count mismatch")
    source = result.source
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    index = g._index
    edges = g.edges
    tree_edge: List[Optional[Edge]] = [None] * n
    for v, (u, w, aux) in result.parent.items():
        if not 0 <= v < n:
            raise ValueError(f"tree vertex {v} out of range")
        if not 0 <= u < n:
            raise ValueError(f"dangling parent reference {u}")
        if aux:
            continue
        e = index.get(u * n + v)
        if e is None:
            raise ValueError(f"tree edge ({u},{v}) not present in the graph")
        if w is not e.weight:
            # A parsed tree holds its own BigRationals: compare their
            # fields, and anything else by value.
            ew = e.weight
            if (w.num != ew.num or w.den != ew.den) if w.__class__ is BigRational else ew != w:
                return VerifyOutcome(False, witness=e, reason="tree weight differs from graph weight")
        tree_edge[v] = e
    order = result.tree_order()
    if order is None:
        return VerifyOutcome(False, reason="parent links do not form a tree rooted at the source")
    real_edges = [e for e in edges if not e.aux]
    grid = _word_grid(real_edges)
    if grid is None:
        return _verify_past_grid(n, source, order, tree_edge, real_edges)
    x: List[Optional[int]] = [None] * n  # d(v) * grid
    x[source] = 0
    for v in order:
        e = tree_edge[v]
        if e is not None:
            xu = x[e.tail]
            if xu is not None:
                w = e.weight
                x[v] = xu + w.num * (grid // w.den)
    if None in x:  # some vertex is unreachable
        for e in real_edges:
            if x[e.tail] is not None and x[e.head] is None:
                return VerifyOutcome(False, witness=e, reason="tree misses a reachable vertex")
    for e in real_edges:
        xu = x[e.tail]
        if xu is None:
            continue
        w = e.weight
        if xu + w.num * (grid // w.den) < x[e.head]:
            return VerifyOutcome(False, witness=e, reason="edge violates the triangle inequality")
    return VerifyOutcome(True)


def _verify_past_grid(n: int, source: int, order: Sequence[int], tree_edge: Sequence[Optional[Edge]],
                      real_edges: Sequence[Edge]) -> VerifyOutcome:
    """The reachability and triangle checks of `verify_sssp` for weights
    whose lcm denominator is past the grid's: each non-tree edge compared
    from its endpoints' common ancestor, until the first edge past the
    walk's cap hands the check to `_verify_anchored`."""
    depth = [-1] * n  # tree edges from the source; -1 when unreachable
    depth[source] = 0
    for v in order:
        e = tree_edge[v]
        if e is not None:
            d = depth[e.tail]
            if d >= 0:
                depth[v] = d + 1
    if -1 in depth:  # some vertex is unreachable
        for e in real_edges:
            if depth[e.tail] >= 0 and depth[e.head] < 0:
                return VerifyOutcome(False, witness=e, reason="tree misses a reachable vertex")
    cap = _WALK_EDGES
    bits = _ANCHOR_BITS
    edges = iter(real_edges)
    for e in edges:
        v = e.head
        if tree_edge[v] is e:
            continue
        u = e.tail
        du = depth[u]
        if du < 0:
            continue
        dv = depth[v]
        if -cap <= du - dv <= cap:
            # Climb from the deeper endpoint to the common ancestor c,
            # summing un/ud = P(c -> u) + w and vn/vd = P(c -> v).
            w = e.weight
            un = w.num
            ud = w.den
            vn = 0
            vd = 1
            x = u
            y = v
            left = cap
            while x != y and left:
                left -= 1
                if du >= dv:
                    t = tree_edge[x]
                    x = t.tail
                    du -= 1
                    tw = t.weight
                    td = tw.den
                    if td == 1:
                        un += tw.num * ud
                    else:
                        un = un * td + tw.num * ud
                        ud *= td
                        if ud.bit_length() > bits:
                            left = 0
                else:
                    t = tree_edge[y]
                    y = t.tail
                    dv -= 1
                    tw = t.weight
                    td = tw.den
                    if td == 1:
                        vn += tw.num * vd
                    else:
                        vn = vn * td + tw.num * vd
                        vd *= td
                        if vd.bit_length() > bits:
                            left = 0
            if x == y:
                if un * vd < vn * ud:
                    return VerifyOutcome(False, witness=e, reason="edge violates the triangle inequality")
                continue
        return _verify_anchored(n, source, order, tree_edge, itertools.chain((e,), edges))
    return VerifyOutcome(True)


def _verify_anchored(n: int, source: int, order: Sequence[int], tree_edge: Sequence[Optional[Edge]],
                     real_edges: Iterable[Edge]) -> VerifyOutcome:
    """The triangle check of `verify_sssp` on anchored path weights, over
    the real edges from the first one that `_verify_past_grid` could not
    compare from its endpoints' common ancestor."""
    anchor, num, den, up = _anchored_paths(n, source, order, tree_edge)
    full: Dict[int, BigRational] = {}  # d(v), built on demand
    anchor_dist = {source: ZERO}  # d(a) per anchor, built on demand
    for e in real_edges:
        u = e.tail
        a = anchor[u]
        if a < 0:
            continue
        v = e.head
        if tree_edge[v] is e:
            continue
        w = e.weight
        wd = w.den
        un, ud, vn, vd = num[u], den[u], num[v], den[v]
        b = anchor[v]
        # The cross-anchor cases are written out here: on dense graphs a
        # call per edge costs more than the comparison.
        if a != b:
            ua = up[a]
            ub = up[b]
            if ub[0] == a or ub[0] == ua[0]:
                vn = ub[1] * vd + vn * ub[2]
                vd *= ub[2]
            elif ua[0] != b:
                for x in (u, v):
                    if x in full:
                        continue
                    chain = []
                    c = anchor[x]
                    while c not in anchor_dist:
                        chain.append(c)
                        c = up[c][0]
                    for c in reversed(chain):
                        p, cn, cd = up[c]
                        anchor_dist[c] = anchor_dist[p] + BigRational(cn, cd)
                    full[x] = anchor_dist[anchor[x]] + BigRational(num[x], den[x])
                if sum_lt(full[u], w, full[v]):
                    return VerifyOutcome(False, witness=e, reason="edge violates the triangle inequality")
                continue
            if ua[0] == b or ua[0] == ub[0]:
                un = ua[1] * ud + un * ua[2]
                ud *= ua[2]
        if (un * wd + w.num * ud) * vd < vn * ud * wd:
            return VerifyOutcome(False, witness=e, reason="edge violates the triangle inequality")
    return VerifyOutcome(True)
