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
shortest path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .rational import BigRational, ZERO, ONE, sum_balanced

__all__ = [
    "Edge",
    "WeightedDigraph",
    "PriceFunction",
    "SsspResult",
    "NegativeCycle",
    "VerifyOutcome",
    "parse",
    "serialize",
    "parse_tree",
    "serialize_tree",
    "augment_source",
    "reduced_weight",
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
        aux_flags: Optional[Iterable[bool]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.source = source
        self.edges: List[Edge] = []
        self._index: Dict[Tuple[int, int], int] = {}
        self._adj: List[List[int]] = [[] for _ in range(n)]
        flags = list(aux_flags) if aux_flags is not None else None
        for i, (u, v, w) in enumerate(edges):
            self.add_edge(u, v, w, aux=bool(flags[i]) if flags else False)

    def add_edge(self, u: int, v: int, w: BigRational, aux: bool = False) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of vertex range [0,{self.n})")
        key = (u, v)
        at = self._index.get(key)
        if at is not None:
            if w < self.edges[at].weight:
                self.edges[at].weight = w
                self.edges[at].aux = aux
            return
        self._index[key] = len(self.edges)
        self.edges.append(Edge(u, v, w, aux))
        self._adj[u].append(len(self.edges) - 1)

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_edges(self, u: int) -> List[Edge]:
        return [self.edges[i] for i in self._adj[u]]

    def edge_between(self, u: int, v: int) -> Optional[Edge]:
        i = self._index.get((u, v))
        return self.edges[i] if i is not None else None

    def weights(self) -> List[BigRational]:
        return [e.weight for e in self.edges]

    def has_negative_weight(self) -> bool:
        return any(e.weight.num < 0 for e in self.edges)

    def copy(self) -> "WeightedDigraph":
        g = WeightedDigraph(self.n, source=self.source)
        for e in self.edges:
            g.add_edge(e.tail, e.head, e.weight, e.aux)
        return g


class PriceFunction:
    """Vertex potentials; total on all vertices."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[BigRational]):
        self.values = list(values)

    def __getitem__(self, v: int) -> BigRational:
        return self.values[v]

    def __len__(self):
        return len(self.values)


def reduced_weight(g: WeightedDigraph, p: PriceFunction, e: Edge) -> BigRational:
    """w(e) + p(tail) - p(head), exactly."""
    return e.weight + p[e.tail] - p[e.head]


def check_eps_feasible(g: WeightedDigraph, p: PriceFunction, eps: BigRational) -> bool:
    """True iff every reduced weight is at least -eps."""
    neg_eps = -eps
    return all(reduced_weight(g, p, e) >= neg_eps for e in g.edges)


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

    def tree_vertices(self) -> List[int]:
        return [self.source] + sorted(self.parent)

    def reachable(self, v: int) -> bool:
        """True when v's root path has no augmentation edge; one pass in
        tree order, ValueError when the parent links are no tree."""
        clean = {self.source}
        for x in self._order():
            u, _, aux = self.parent[x]
            if u in clean and not aux:
                clean.add(x)
        return v in clean

    def tree_order(self) -> Optional[List[int]]:
        """Tree vertices other than the source, each after its parent; None
        when the parent links do not form a tree rooted at the source.

        One pass over the parent links: the chain above each unplaced
        vertex is walked up to a placed vertex and placed top-down, so
        every vertex is walked once.
        """
        parent = self.parent
        if self.source in parent:
            return None
        placed = {self.source}
        order: List[int] = []
        for v, (u, _, _) in parent.items():
            if v in placed:
                continue
            if u in placed:  # the usual case: trees built in extraction order
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

    def _order(self) -> List[int]:
        order = self.tree_order()
        if order is None:
            raise ValueError("parent links do not form a tree rooted at the source")
        return order

    def distances(self) -> List[Optional[BigRational]]:
        """Exact tree distance per vertex; None for vertices outside the tree
        or reached only through augmentation edges."""
        dist: List[Optional[BigRational]] = [None] * self.n
        dist[self.source] = ZERO
        for v in self._order():
            u, w, aux = self.parent[v]
            if dist[u] is not None and not aux:
                dist[v] = dist[u] + w
        return dist


# -- instance text format ------------------------------------------


def parse(text: str) -> WeightedDigraph:
    """Parse the instance format; malformed input raises ValueError."""
    n = None
    declared_m = None
    source = None
    edges: List[Tuple[int, int, BigRational]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
                w = BigRational.parse(parts[3])
                edges.append((u, v, w))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing 'p' header")
    if declared_m is not None and declared_m != len(edges):
        raise ValueError(f"header declares {declared_m} edges, found {len(edges)}")
    if source is not None and not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    g = WeightedDigraph(n, source=source)
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of vertex range [0,{n})")
        g.add_edge(u, v, w)
    return g


def serialize(g: WeightedDigraph) -> str:
    """Canonical text: sorted edges, reduced weights with explicit denominator."""
    lines = [f"p {g.n} {g.m}"]
    if g.source is not None:
        lines.append(f"s {g.source}")
    for e in sorted(g.edges, key=lambda e: (e.tail, e.head)):
        lines.append(f"e {e.tail} {e.head} {e.weight.num}/{e.weight.den}")
    return "\n".join(lines) + "\n"


def serialize_tree(result: SsspResult) -> str:
    lines = [f"t {result.n} {result.source}"]
    for v in sorted(result.parent):
        u, w, aux = result.parent[v]
        suffix = " aux" if aux else ""
        lines.append(f"a {v} {u} {w.num}/{w.den}{suffix}")
    return "\n".join(lines) + "\n"


def parse_tree(text: str) -> SsspResult:
    n = None
    source = None
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
                w = BigRational.parse(parts[3])
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


# -- source augmentation -------------------------------------------


def aux_weight(g: WeightedDigraph) -> BigRational:
    """Sentinel weight of an auxiliary edge s->v; it strictly exceeds any
    original distance.  For non-negative graphs it is n*max(1, max w);
    with negative edges present it is 2n*max(1, max |w|), which keeps the
    same guarantee."""
    if g.has_negative_weight():
        big = max((abs(e.weight) for e in g.edges), default=ONE)
        return BigRational(2 * g.n) * max(big, ONE)
    big = max((e.weight for e in g.edges), default=ONE)
    return BigRational(g.n) * max(big, ONE)


def augment_source(g: WeightedDigraph, s: int) -> WeightedDigraph:
    """Add flagged auxiliary edges s->v of weight `aux_weight(g)` so every
    vertex is reachable.

    Distances to originally reachable vertices are unchanged and
    reachability is recoverable from the aux flags.  `dijkstra_nonneg`
    no longer calls this: it offers the same aux edges itself, only once
    its heap of real entries has drained, and builds no augmented graph.
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


# -- exact Bellman-Ford oracle -------------------------------------


class BfResult:
    __slots__ = ("dist", "parent")

    def __init__(self, dist: List[Optional[BigRational]], parent: List[int]):
        self.dist = dist
        self.parent = parent


def _extract_cycle(parent: List[int], start: int, n: int) -> List[int]:
    # After n improving rounds, walking n parent links from an improved
    # vertex is guaranteed to land on the cycle.
    v = start
    for _ in range(n):
        v = parent[v]
    cycle = [v]
    u = parent[v]
    while u != v:
        cycle.append(u)
        u = parent[u]
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


def bf_exact(
    g: WeightedDigraph, s: int, hop_bound: Optional[int] = None
):
    """Exact Bellman-Ford distances from s, or a NegativeCycle witness.

    With `hop_bound = k` the rounds are synchronous and the result is the
    exact k-hop-bounded distance function (no cycle detection).  Without
    it, a cycle reachable from s is detected and returned as a witness.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    dist: List[Optional[BigRational]] = [None] * g.n
    parent = [-1] * g.n
    dist[s] = ZERO

    if hop_bound is not None:
        if hop_bound < 0:
            raise ValueError("hop bound must be non-negative")
        for _ in range(hop_bound):
            snapshot = list(dist)
            changed = False
            for e in g.edges:
                du = snapshot[e.tail]
                if du is None:
                    continue
                cand = du + e.weight
                if dist[e.head] is None or cand < dist[e.head]:
                    dist[e.head] = cand
                    parent[e.head] = e.tail
                    changed = True
            if not changed:
                break
        return BfResult(dist, parent)

    last_improved = -1
    for rnd in range(g.n):
        changed = False
        for e in g.edges:
            du = dist[e.tail]
            if du is None:
                continue
            cand = du + e.weight
            if dist[e.head] is None or cand < dist[e.head]:
                dist[e.head] = cand
                parent[e.head] = e.tail
                changed = True
                last_improved = e.head
        if not changed:
            return BfResult(dist, parent)
    cycle = _extract_cycle(parent, last_improved, g.n)
    w = cycle_weight(g, cycle)
    if w >= ZERO:
        raise AssertionError("extracted cycle is not negative")
    return NegativeCycle(cycle, w)


def bf_tree(g: WeightedDigraph, s: int) -> SsspResult:
    """Shortest-paths tree from the exact Bellman-Ford oracle."""
    res = bf_exact(g, s)
    if isinstance(res, NegativeCycle):
        raise ValueError("graph has a negative cycle reachable from the source")
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    for v in range(g.n):
        if v != s and res.dist[v] is not None:
            u = res.parent[v]
            e = g.edge_between(u, v)
            parent[v] = (u, e.weight, e.aux)
    return SsspResult(g.n, s, parent)


# -- generators -----------------------------------------------------


def _primes_below(bound: int) -> List[int]:
    sieve = [True] * max(bound, 2)
    sieve[0] = sieve[1] = False
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i in range(2, bound) if sieve[i]]


def _prime_bound_for(count: int) -> int:
    # Smallest bound with at least `count` primes below it.
    bound = 8
    while len(_primes_below(bound)) < count:
        bound *= 2
    return bound


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
    try:
        max_num, max_den = _WEIGHT_CLASSES[weight_class]
    except KeyError:
        raise ValueError(f"unknown weight class {weight_class!r}") from None
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


def verify_sssp(g: WeightedDigraph, result: SsspResult, mode: str = "exact") -> VerifyOutcome:
    """Check exactly that `result` is a shortest-paths tree of g from its source.

    The checks, in order: the vertex counts agree; every tree edge that is
    not aux has the graph's weight; the parent links form a tree rooted at
    the source; no real edge leaves a reachable vertex for an unreachable
    one; and every real edge u->v out of a reachable vertex satisfies
    d(u) + w >= d(v), where d is `result.distances()` (vertices outside the
    tree or reached only via aux edges are unreachable).  The first failed
    check is the outcome.  An out-of-range source, tree vertex or parent,
    or a real tree edge missing from g, raises ValueError.
    `mode` accepts only "exact"; the benchmark harness passes it by keyword.
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if result.n != g.n:
        return VerifyOutcome(False, reason="vertex count mismatch")
    if not 0 <= result.source < g.n:
        raise ValueError(f"source {result.source} out of range")
    for v, (u, w, aux) in result.parent.items():
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
        if dist[e.tail] is not None and dist[e.tail] + e.weight < dist[e.head]:
            return VerifyOutcome(False, witness=e, reason="edge violates the triangle inequality")
    return VerifyOutcome(True)
