"""Single-source shortest path solvers.

Non-negative case: textbook Dijkstra where every comparison between two
tentative keys dist(z1) + w1 and dist(z2) + w2 is delegated to a pluggable
comparison strategy; the default routes through the hierarchical
structure of `distcmp`, so no exact distance is ever materialized.
Vertices s cannot reach are offered sentinel-weight aux entries from s
only after the heap of real entries drains; no augmented graph is built.

Negative case: an eps-feasible price function from `scaling` makes a
"cut" Dijkstra sound for every vertex whose shortest path uses at most k
hops; a sampled hit set of start vertices plus an exact Bellman-Ford over
the small recombination graph stitches the hop-bounded runs into full
distances.  Each cut run holds its exact tentative distances anyway (they
decide k-shortness and the heap keys), so relaxations, heap keys and
reinsertion ranks compare exact values directly and no `distcmp`
structure is built.  The produced tree is verified exactly before being
returned, and a failed verification yields an exactly-checked
negative-cycle witness.

The cut Dijkstra delays heap reinsertions with per-vertex countdowns; the
countdown game shows the total number of reinsertions stays O(n^1.5),
and `game_simulate` plays that game directly.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

# Unused here: the benchmark's tracer wraps `sssp.compare_via_approx` by name.
from .cfrac import compare_via_approx  # noqa: F401
from .distcmp import DistCmp, DistCmpConfig, PairwiseDeltaComparator
from .graph import (
    NegativeCycle,
    PriceFunction,
    SsspResult,
    WeightedDigraph,
    aux_weight,
    bf_exact,
    verify_sssp,
)
# Unused here: the benchmark's tracer wraps `sssp.augment_source` by name.
from .graph import augment_source  # noqa: F401
from .rational import BigRational, DEFAULT_BUDGET, WordBudget, ZERO, is_k_short
from .scaling import eps_feasible_price

__all__ = [
    "NegativeWeightError",
    "IllegalBobMove",
    "dijkstra_nonneg",
    "CutContext",
    "cut_preprocess",
    "CutResult",
    "cut_dijkstra",
    "replay_enhanced_order",
    "negative_sssp",
    "game_simulate",
    "BOB_STRATEGIES",
]


class NegativeWeightError(ValueError):
    """Raised by the non-negative solver; use negative_sssp instead."""


class IllegalBobMove(ValueError):
    pass


def _shortness_class(weights, budget: WordBudget) -> int:
    c = 1
    for w in weights:
        while not is_k_short(w, c, budget):
            c += 1
    return c


# -- comparison strategies -------------------------------------------


class _ExactStrategy:
    """Naive baseline: explicit exact distances, exact comparisons."""

    name = "exact_oracle"

    def __init__(self, capacity, source, budget, c, seed, constants=None):
        self.dist: Dict[int, BigRational] = {source: ZERO}

    def add_leaf(self, v: int, parent: int, weight: BigRational) -> None:
        self.dist[v] = self.dist[parent] + weight

    def compare_keys(self, z1, w1, z2, w2) -> int:
        lhs = self.dist[z1] + w1
        rhs = self.dist[z2] + w2
        return lhs._cmp(rhs)

    def counters(self) -> Dict[str, int]:
        return {}


class _TreeStrategy:
    """Heap keys compared through a tree comparator (`DistCmp` or
    `PairwiseDeltaComparator`) that mirrors the settled tree."""

    def __init__(self, name, comparator, source):
        self.name = name
        self.comparator = comparator
        self.node = {source: comparator.tree.root}

    def add_leaf(self, v: int, parent: int, weight: BigRational) -> None:
        self.node[v] = self.comparator.insert_leaf(self.node[parent], weight)

    def compare_keys(self, z1, w1, z2, w2) -> int:
        return self.comparator.compare(self.node[z1], self.node[z2], w2 - w1).value

    def counters(self) -> Dict[str, object]:
        return self.comparator.counters()


def _distcmp_strategy(capacity, source, budget, c, seed, constants=None):
    cfg = DistCmpConfig(capacity=max(2, capacity), c=2 * c, B=budget.B, **(constants or {}))
    return _TreeStrategy("distcmp", DistCmp(cfg, seed=seed), source)


def _pairwise_strategy(capacity, source, budget, c, seed, constants=None):
    h = max(1, math.ceil(math.sqrt(capacity)))
    gamma = (constants or {}).get("gamma", 2.0)
    pdc = PairwiseDeltaComparator(capacity, h, budget, c=2 * c, gamma=gamma, seed=seed)
    return _TreeStrategy("pairwise_delta", pdc, source)


_STRATEGIES = {
    "exact_oracle": _ExactStrategy,
    "distcmp": _distcmp_strategy,
    "pairwise_delta": _pairwise_strategy,
}


class _HeapEntry:
    __slots__ = ("z", "w", "vid", "token", "strat")

    def __init__(self, z, w, vid, token, strat):
        self.z = z
        self.w = w
        self.vid = vid
        self.token = token
        self.strat = strat

    def __lt__(self, other):
        c = self.strat.compare_keys(self.z, self.w, other.z, other.w)
        if c != 0:
            return c < 0
        return self.vid < other.vid


def dijkstra_nonneg(
    g: WeightedDigraph,
    s: int,
    strategy: str = "distcmp",
    seed: int = 0,
    budget: WordBudget = DEFAULT_BUDGET,
    collect: Optional[Dict[str, object]] = None,
    constants: Optional[Dict[str, float]] = None,
) -> SsspResult:
    """Shortest-paths tree of a non-negative graph from s.

    Every vertex gets a tree edge: once the heap of real entries drains,
    each vertex still unvisited is offered an aux edge s->v of weight
    `aux_weight(g)`, the same edges `augment_source` would add, and the
    search goes on.  No augmented copy of the graph is built.  Vertices
    whose tree path crosses an aux edge are reported unreachable by the
    result.  Heap comparisons are routed through the chosen strategy;
    `exact_oracle` is unconditionally correct, `distcmp` is correct with
    high probability, `pairwise_delta` is the table-driven alternative.
    """
    if g.has_negative_weight():
        raise NegativeWeightError("graph has negative weights; use negative_sssp")
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    n = g.n
    sentinel = aux_weight(g)
    # The class of the augmented graph's weights: it has a sentinel edge
    # unless s already has an edge to every other vertex.
    direct = {e.head for e in g.out_edges(s)} - {s}
    c = _shortness_class(g.weights() + ([sentinel] if len(direct) < n - 1 else []), budget)
    strat = _STRATEGIES[strategy](n, s, budget, c, seed, constants)

    visited = [False] * n
    token = [0] * n
    cur: Dict[int, Tuple[int, BigRational, bool]] = {}
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    heap: List[_HeapEntry] = []
    pushes = 0
    relaxations = 0

    def push(v: int, u: int, w: BigRational, aux: bool) -> None:
        nonlocal pushes
        cur[v] = (u, w, aux)
        token[v] += 1
        heapq.heappush(heap, _HeapEntry(u, w, v, token[v], strat))
        pushes += 1

    def relax_from(u: int) -> None:
        nonlocal relaxations
        for e in g.out_edges(u):
            v = e.head
            if visited[v]:
                continue
            relaxations += 1
            old = cur.get(v)
            if old is None or strat.compare_keys(u, e.weight, old[0], old[1]) < 0:
                push(v, u, e.weight, e.aux)

    def drain() -> None:
        while heap:
            entry = heapq.heappop(heap)
            v = entry.vid
            if visited[v] or token[v] != entry.token:
                continue
            visited[v] = True
            parent[v] = cur[v]
            strat.add_leaf(v, entry.z, entry.w)
            relax_from(v)

    visited[s] = True
    relax_from(s)
    drain()
    # Every vertex left is unreachable and so has no candidate.  The
    # sentinel exceeds every real tentative key, so holding these entries
    # back until now changes no extraction; ties at the sentinel are
    # still broken by vertex id.
    for v in range(n):
        if not visited[v]:
            push(v, s, sentinel, True)
    drain()

    if collect is not None:
        collect["heap_pushes"] = pushes
        collect["relaxations"] = relaxations
        for key, val in strat.counters().items():
            collect[f"{strat.name}.{key}"] = val
    return SsspResult(n, s, parent)


# -- cut Dijkstra -----------------------------------------------------


class CutContext:
    """Preprocessing shared by all hop-bounded runs on one graph.

    Holds the hop bound k, the word budget, the price function and its
    feasibility slack eps = 2^-((2k+1)B + ceil(log2 n)); it computes
    nothing on demand.  Read-only after construction, so runs may share it.
    """

    __slots__ = ("k", "budget", "price", "eps")

    def __init__(self, k: int, budget: WordBudget, price: PriceFunction, eps: BigRational):
        self.k = k
        self.budget = budget
        self.price = price
        self.eps = eps


def cut_preprocess(
    g: WeightedDigraph,
    k: int,
    budget: WordBudget = DEFAULT_BUDGET,
    collect: Optional[Dict[str, object]] = None,
) -> Union[CutContext, NegativeCycle]:
    """Price function for cut runs."""
    if k < 1:
        raise ValueError("hop parameter must be positive")
    exponent = (2 * k + 1) * budget.B + max(1, math.ceil(math.log2(max(g.n, 2))))
    res = eps_feasible_price(g, exponent, budget, collect)
    if isinstance(res, NegativeCycle):
        return res
    return CutContext(k, budget, res, BigRational(1, 1 << exponent))


class CutResult:
    """Output of one hop-bounded run: upper bounds d(v) >= dist(s, v) with
    equality whenever some shortest path from s has at most k hops, plus
    witness parent links, the extraction order and the processed set."""

    __slots__ = ("source", "dist", "parent", "order", "processed", "heap_inserts")

    def __init__(self, source, dist, parent, order, processed, heap_inserts):
        self.source = source
        self.dist = dist
        self.parent = parent
        self.order = order
        self.processed = processed
        self.heap_inserts = heap_inserts

    def witness_path(self, v: int) -> List[int]:
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        path.reverse()
        if path[0] != self.source:
            raise ValueError(f"vertex {v} has no witness path")
        return path


def cut_dijkstra(
    ctx: CutContext,
    g: WeightedDigraph,
    s: int,
    collect: Optional[Dict[str, object]] = None,
) -> CutResult:
    """Hop-bounded run from s under the context's price function.

    Vertices are extracted by exact key d(v) - p(v); a vertex is processed
    only while its tentative distance stays k-short.  Reinsertions into
    the heap are deferred by countdowns assigned from the processing-time
    rank of each relaxed vertex; a countdown is kept as the absolute turn
    at which it expires, in a bucket per turn.

    The rank orders the vertices u relaxed from v by the exact key
    dist(v) + w(v->u) - p(u), which is u's heap key, ties by vertex id.
    The paper compares 2B-bit approximations of p(u) - p(u') against
    w(v->u) - w(v->u') there; those answer every such comparison exactly,
    since the weight difference is 2-short, so the order is the same.

    Each vertex caches its tentative distance dist(par(u)) + w(par(u)->u)
    and its heap key, that distance minus p(u), both written when its
    parent changes; dist(par(u)) is final once par(u) is extracted, so
    each relaxation builds one sum.

    Heap entries are tuples: (0, floor(key * 2^64), key, vid, token) for
    a finite key and (1, vid, token) for +infinity, so finite keys come
    first and ties break by vertex id.  The floor is monotone in the key,
    so it keeps the exact order while tuple comparison settles most pairs
    on plain ints before reaching the exact key.
    """
    n = g.n
    k = ctx.k
    budget = ctx.budget
    price = ctx.price
    dist: List[Optional[BigRational]] = [None] * n
    par: List[Optional[int]] = [None] * n
    tent: List[Optional[BigRational]] = [None] * n
    tent[s] = ZERO
    tent_key: List[Optional[BigRational]] = [None] * n  # tent[v] - p(v)
    tent_key[s] = -price[s]
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

    def push(v: int, key: Optional[BigRational]) -> None:
        nonlocal live, inserts
        token[v] += 1
        if key is None:
            heapq.heappush(heap, (1, v, token[v]))
        else:
            heapq.heappush(heap, (0, (key.num << 64) // key.den, key, v, token[v]))
        on_heap[v] = True
        live += 1
        inserts += 1

    for v in range(n):
        push(v, tent_key[v])

    def expire(turn: int) -> None:
        # Entries left behind by a lowered countdown or an extraction are
        # stale and skipped.
        for u in sorted(buckets.pop(turn, ())):
            if expiry[u] == turn:
                expiry[u] = None
                push(u, tent_key[u])

    for _ in range(n):
        # Countdown phase: one tick normally; when every pending vertex is
        # in countdown, jump to the next non-empty bucket so a reinsertion
        # happens.  The turn count stays at n either way, which is what
        # the payout bound of the countdown game depends on.
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
        touched: List[int] = []
        for e in g.out_edges(v):
            u = e.head
            if extracted[u]:
                continue
            relaxations += 1
            cand = dist[v] + e.weight
            if par[u] is None or cand._cmp(tent[u]) < 0:
                par[u] = v
                tent[u] = cand
                tent_key[u] = cand - price[u]
                touched.append(u)
        touched.sort(key=lambda u: (tent_key[u], u))
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
        # Runs accumulate into one dict: sums, and the largest single run.
        collect["cut_heap_inserts"] = collect.get("cut_heap_inserts", 0) + inserts
        collect["cut_heap_inserts_max"] = max(collect.get("cut_heap_inserts_max", 0), inserts)
        collect["cut_relaxations"] = collect.get("cut_relaxations", 0) + relaxations
    return CutResult(s, dist, par, order, processed, inserts)


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


# -- negative pipeline -------------------------------------------------


class _RecombinationError(RuntimeError):
    """Inconsistent recombination state; implies a negative cycle or a
    sampling miss, both resolved by the caller through the exact oracle."""


def _splice_walk(walk: List[int]) -> List[int]:
    """Drop the loops between vertex repetitions (one pass over the walk
    via a last-occurrence map); on a consistent input the removed loops
    all have zero weight."""
    last = {v: i for i, v in enumerate(walk)}
    out = []
    i = 0
    while i < len(walk):
        v = walk[i]
        out.append(v)
        i = last[v] + 1
    return out


def negative_sssp(
    g: WeightedDigraph,
    s: int,
    k: Optional[int] = None,
    gamma: float = 2.0,
    seed: int = 0,
    budget: WordBudget = DEFAULT_BUDGET,
    collect: Optional[Dict[str, object]] = None,
) -> Union[SsspResult, NegativeCycle]:
    """Shortest-paths tree with negative weights, or a negative cycle.

    Runs cut Dijkstra from a sampled hit set, recombines the hop-bounded
    estimates through an exact Bellman-Ford on the sampled vertices, and
    verifies the assembled tree before returning it.  A failed
    verification is resolved through the exact oracle: either it yields a
    negative-cycle witness, or the failure was a low-probability sampling
    miss and the pipeline retries with fresh randomness.
    """
    for e in g.edges:
        if not is_k_short(e.weight, 1, budget):
            raise ValueError(f"edge weight {e.weight} is not 1-short under B={budget.B}")
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    if k is None:
        k = max(1, math.ceil(math.sqrt(g.n)))

    pre = cut_preprocess(g, k, budget, collect)
    if isinstance(pre, NegativeCycle):
        return pre

    root_seq = np.random.SeedSequence(seed)
    for attempt, attempt_seq in enumerate(root_seq.spawn(3)):
        # The hit set draws from the attempt's first child stream, so a
        # fixed seed keeps its hit set.
        rng = np.random.default_rng(attempt_seq.spawn(1)[0])
        want = min(g.n, math.ceil(gamma * g.n * math.log(max(g.n, 2)) / k))
        others = [v for v in range(g.n) if v != s]
        picks = rng.permutation(len(others))[: min(want, len(others))]
        hitset = [s] + sorted(others[i] for i in picks)

        runs = [cut_dijkstra(pre, g, v, collect=collect) for v in hitset]

        try:
            result = _recombine(g, s, hitset, runs)
            check = verify_sssp(g, result)
        except _RecombinationError:
            check = None
        if check is not None and check.valid:
            if collect is not None:
                collect["pipeline_attempts"] = attempt + 1
                collect["hitset_size"] = len(hitset)
            return result
        oracle = bf_exact(g, s)
        if isinstance(oracle, NegativeCycle):
            return oracle
        # Verification failed yet the oracle sees no cycle: a sampling
        # miss; the next attempt re-draws everything from a fresh stream.
    raise RuntimeError("pipeline failed verification on repeated fresh samples")


def _recombine(
    g: WeightedDigraph, s: int, hitset: List[int], runs: List[CutResult]
) -> SsspResult:
    size = len(hitset)
    # Exact Bellman-Ford over the recombination graph on the hit set.
    hdist: List[Optional[BigRational]] = [None] * size
    hpar = [-1] * size
    hdist[0] = ZERO  # hitset[0] == s
    for _ in range(size):
        changed = False
        for i in range(size):
            if hdist[i] is None:
                continue
            di = runs[i].dist
            for j in range(size):
                if i == j:
                    continue
                w = di[hitset[j]]
                if w is None:
                    continue
                cand = hdist[i] + w
                if hdist[j] is None or cand < hdist[j]:
                    hdist[j] = cand
                    hpar[j] = i
                    changed = True
        if not changed:
            break

    # Best two-stage estimate per vertex and its through-vertex.
    best_via: List[Optional[int]] = [None] * g.n
    best: List[Optional[BigRational]] = [None] * g.n
    for i in range(size):
        if hdist[i] is None:
            continue
        di = runs[i].dist
        for v in range(g.n):
            w = di[v]
            if w is None:
                continue
            cand = hdist[i] + w
            if best[v] is None or cand < best[v]:
                best[v] = cand
                best_via[v] = i

    # Expand witness walks, splice out zero-weight loops, and collect the
    # union of their edges.
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


# -- the countdown game -------------------------------------------------


def bob_random(turn: int, n: int, rng: np.random.Generator) -> np.ndarray:
    c = int(rng.integers(1, n + 1))
    out = np.zeros(n, dtype=np.int64)
    out[rng.permutation(n)[:c]] = np.arange(1, c + 1)
    return out


def bob_single(turn: int, n: int, rng: np.random.Generator) -> List[int]:
    out = [0] * n
    out[0] = 1
    return out


def bob_front_loaded(turn: int, n: int, rng: np.random.Generator) -> List[int]:
    return list(range(1, n + 1))


BOB_STRATEGIES: Dict[str, Callable[[int, int, np.random.Generator], List[int]]] = {
    "random": bob_random,
    "greedy-single-index": bob_single,
    "front-loaded": bob_front_loaded,
}


def game_simulate(
    n: int,
    bob_strategy: Union[str, Callable[[int, int, np.random.Generator], Sequence[int]]],
    seed: int = 0,
) -> int:
    """Play the countdown game for n turns and return the dollars paid.

    State is one counter per index, starting at infinity.  Each turn the
    counters drop by one and every zero pays a dollar and resets to
    infinity; then the opposing strategy assigns the ranks 1..c of its
    choosing (entries <= 0 stand for infinity) and counters keep the
    minimum.  However the ranks are chosen, the total payout is at most
    2n*sqrt(n).
    """
    if n < 1:
        raise ValueError("the game needs at least one index")
    if isinstance(bob_strategy, str):
        try:
            bob_strategy = BOB_STRATEGIES[bob_strategy]
        except KeyError:
            raise ValueError(f"unknown strategy {bob_strategy!r}") from None
    rng = np.random.default_rng(seed)
    # The sentinel must dominate every rank even after n decrements.
    inf = np.int64(4 * n + 2)
    state = np.full(n, inf, dtype=np.int64)
    dollars = 0
    for turn in range(n):
        state -= 1
        zeros = state == 0
        dollars += int(zeros.sum())
        state[zeros] = inf
        move = np.asarray(bob_strategy(turn, n, rng), dtype=np.int64)
        if move.shape != (n,):
            raise IllegalBobMove("move must assign one value per index")
        finite = move > 0
        c = int(finite.sum())
        if c < 1 or c > n:
            raise IllegalBobMove("move must set between 1 and n ranks")
        ranks = np.sort(move[finite])
        if not np.array_equal(ranks, np.arange(1, c + 1)):
            raise IllegalBobMove("finite ranks must be exactly 1..c")
        capped = np.where(finite, move, inf)
        state = np.minimum(state, capped)
    return dollars
