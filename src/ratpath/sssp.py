"""Single-source shortest path solvers.

Non-negative case: textbook Dijkstra where every comparison between two
tentative keys dist(z1) + w1 and dist(z2) + w2 is delegated to a pluggable
comparison strategy; the default, `distcmp`, never materializes a reduced
exact distance.  Its key carries the unreduced exact pair of dist(z) + w
while the key's bit bound fits the level-0 gate, so a gate-open
comparison is one cross-multiplication.  The solver keys and settles
unchecked (`_DistCmpStrategy` says why).  A settle only keeps the node:
the structure builds its tree when something first reads it, so a solve
whose comparisons all stay on key pairs never builds it.  When its keys
carry pairs the loop runs the bodies of `DistCmp._key` and
`DistCmp._settle` itself.
Vertices s cannot reach never enter the heap: once it drains, each gets
an aux parent edge from s of sentinel weight.

Top words.  A heap entry is a plain tuple led by its key's top word, an
int that heapq compares in C.  When every key carries its exact pair
(num, den), the top word is floor(key * 2^S) = (num << S) // den,
computed once per relaxation (from the leading bits of a wide pair,
`_wide_top_word`).  A key's denominator is below 2^(n * maxb), maxb the
widest weight denominator's bit length, so distinct keys differ by more
than 2^-(2 * n * maxb).  While that exponent is at most `_TOP_CAP`, S is
it, and a top-word tie is an exact tie: the heap orders (top word,
vertex id) and never calls `compare`.  Past it S is `_TOP_BITS`, and the
key, then the vertex id, breaks the heap's top-word ties: a reduced
`BigRational` by its own order, any other key by `compare`.  A strategy
that gives no pairs has top word 0 for every key, so that tie-break is
its whole order.  A relaxation test decides on top words and puts a tie
to `compare` in every regime, so distcmp's counters see each tie a
relaxation meets.  In every regime the order is (key, vertex id).

Negative case: an eps-feasible price function from `scaling` makes a "cut"
Dijkstra sound for every vertex whose shortest path uses at most k hops; a
hit set of start vertices plus `graph._bellman_ford`, the one exact
Bellman-Ford, over the small recombination graph stitches the
hop-bounded runs into full distances.  The hit set is s plus the
sparsest class of depth mod k in one Dijkstra tree of the floored
reduced weights, so it cuts every path of that tree into segments of at
most k hops; nothing is drawn at random.  Each cut
run holds its exact tentative distances anyway (they decide k-shortness
and the heap keys), so relaxations, heap keys and reinsertion ranks
compare exact values directly and no `distcmp` structure is built.  A
run relaxes over the int edge arrays of its `CutContext`, keeps each
tentative distance as an unreduced pair of ints and keys its heap by one
exact int, the floor of d(v) - p(v) scaled far enough that distinct keys
keep distinct floors; a winning relaxation builds no rational and takes
no gcd.  The produced tree is
verified exactly before being returned; a failed verification is
answered by the exact oracle `bf_exact`, with its negative-cycle witness
or, when the hit set missed a path, its own tree.

The cut Dijkstra delays heap reinsertions with per-vertex countdowns; the
countdown game shows the total number of reinsertions stays O(n^1.5),
and `game_simulate` plays that game directly.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter, itemgetter
from types import MethodType
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

# Unused here: the benchmark's tracer wraps `sssp.compare_via_approx` by name.
from .cfrac import compare_via_approx  # noqa: F401
from .distcmp import (_CONSTANTS, DistCmp, DistCmpConfig, PairwiseDeltaComparator, _check_constant,
                      _check_hop, _check_seed, _gap)
from .graph import (
    NegativeCycle,
    SsspResult,
    WeightedDigraph,
    _bellman_ford,
    aux_weight,
    bf_exact,
    verify_sssp,
)
# Unused here: the benchmark's tracer wraps `sssp.augment_source` by name.
from .graph import augment_source  # noqa: F401
from .rational import BigRational, DEFAULT_BUDGET, WordBudget, ZERO, _make
from .scaling import _check_1_short, eps_feasible_price

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NegativeWeightError",
    "IllegalBobMove",
    "dijkstra_nonneg",
    "CutContext",
    "cut_preprocess",
    "CutResult",
    "cut_dijkstra",
    "negative_sssp",
    "game_simulate",
    "BOB_STRATEGIES",
]


class NegativeWeightError(ValueError):
    """Raised by the non-negative solver; use negative_sssp instead."""


class IllegalBobMove(ValueError):
    pass


def _scan_weights(g: WeightedDigraph) -> Tuple[bool, int, int]:
    """One pass over g's edges: whether some weight is negative, the
    widest bit length among every |num| and den, and the widest among
    the dens alone (maxb)."""
    negative = False
    nums = dens = 0
    for e in g.edges:
        w = e.weight
        num = w.num
        if num < 0:
            negative = True
            num = -num
        nums |= num
        dens |= w.den
    return negative, (nums | dens).bit_length(), dens.bit_length()


def _shortness_class(widest: int, budget: WordBudget) -> int:
    """The least c with every weight c-short: |num| and den below
    2^(c*B - 1), so c*B must exceed `widest`, the widest bit length
    among them (`_scan_weights`)."""
    return -(-(widest + 1) // budget.B)


# A heap key's top word is floor(key * 2^S).  S = 2 * n * maxb, which
# makes a top-word tie an exact tie, while it is at most _TOP_CAP bits;
# _TOP_BITS past that, where exact keys break the heap's top-word ties.
_TOP_CAP = 512
_TOP_BITS = 64
# Past _TOP_WIDE denominator bits, `_wide_top_word` reads the leading
# _TOP_LEAD bits of a key's pair instead of dividing in full.
_TOP_WIDE = 2048
_TOP_LEAD = 128


def _wide_top_word(num: int, den: int, shift: int) -> int:
    """floor(num / den * 2^shift) for den > 0 of more than _TOP_LEAD bits.
    With n, d the pair cut to d's leading _TOP_LEAD bits, num / den lies
    strictly between n / (d + 1) and (n + 1) / d, so their top words
    bound it; where they agree that is the answer, and only where they
    differ does the full-width division run."""
    cut = den.bit_length() - _TOP_LEAD
    n, d = num >> cut, den >> cut
    low = (n << shift) // (d + 1)
    if low == ((n + 1) << shift) // d:
        return low
    return (num << shift) // den


# -- comparison strategies -------------------------------------------
# A strategy is built from (g, source, budget, seed, constants, widest,
# maxb), the last two from `_scan_weights`.  It has a `name`, `root` (the
# settled state of the source), and: key(here, w), the key dist(u) + w
# from the settled state of u; compare(a, b), the sign of key a against
# key b; settle(k), the settled state of the vertex that key k reaches;
# pair, None or a function giving every key's exact (num, den), from
# which the solver takes top words (None: every top word is 0); and
# counters().  The solver tells a live heap entry by its key object, so
# a key that compares below another must be another object, as a key
# built per call is.


class _ExactStrategy:
    """Naive baseline: textbook Dijkstra on explicit exact distances.  A
    key is the reduced sum dist(u) + w, built once per relaxation; its
    top word orders the heap, a top-word tie (a relaxation test's, or,
    by the keys' own order, the heap's past `_TOP_CAP`) cross-multiplies
    two keys, and a settled vertex is its key."""

    name = "exact_oracle"
    root = ZERO
    pair = attrgetter("num", "den")

    def __init__(self, g, source, budget, seed, constants, widest, maxb):
        pass

    key = staticmethod(BigRational.__add__)
    compare = staticmethod(BigRational._cmp)

    @staticmethod
    def settle(k) -> BigRational:
        return k

    def counters(self) -> Dict[str, int]:
        return {}


class _DistCmpStrategy:
    """Keys of `DistCmp._key`, compared by `DistCmp.compare` and settled
    by `DistCmp._settle`, which keeps the node for the tree that
    `DistCmp.tree` builds on its first read and returns the state (node,
    num, den, bits): the node, the key's exact pair and its den_bits.
    Both are unchecked: c covers every weight of g, and capacity n every
    node a solve settles.  Every key carries its pair, and so has a top
    word, when n * maxb is at most ell_0: a key's bit bound is at most
    (n - 1) * maxb.  `dijkstra_nonneg` then runs the bodies of `_key` and
    `_settle` in its loop, with no call per relaxation or settle."""

    name = "distcmp"

    def __init__(self, g, source, budget, seed, constants, widest, maxb):
        # A heap comparison puts the difference of two weights to the
        # structure, so its class is twice theirs.
        c = 2 * _shortness_class(widest, budget)
        cfg = DistCmpConfig(capacity=max(2, g.n), c=c, B=budget.B, C=constants["C"],
                            lam=constants["lam"])
        self.comparator = dc = DistCmp(cfg, seed=seed)
        self.root = (0, 0, 1, 0)
        self.key, self.settle, self.counters = dc._key, dc._settle, dc.counters
        # Bound once, at solve time, so a wrapper installed on the class
        # attribute beforehand is the one called.
        self.compare = dc.compare
        self.pair = itemgetter(3, 4) if g.n * maxb <= cfg.ell[0] else None


class _PairwiseStrategy:
    """Heap keys (node, weight) compared through the node query of
    `PairwiseDeltaComparator`, which mirrors the settled tree."""

    name = "pairwise_delta"
    pair = None

    def __init__(self, g, source, budget, seed, constants, widest, maxb):
        self.comparator = PairwiseDeltaComparator(g.n, _hop_default(g.n), budget, seed=seed)
        self.root = self.comparator.tree.root

    @staticmethod
    def key(node, w):
        return node, w

    def compare(self, a, b):
        return self.comparator.compare(a[0], b[0], _gap(a[1], b[1]))

    def settle(self, k):
        return self.comparator.insert_leaf(k[0], k[1])

    def counters(self) -> Dict[str, object]:
        return self.comparator.counters()


def _hop_default(n: int) -> int:
    """The hop bound k = ceil(sqrt(n)) of the cut runs and the pairwise
    comparator's tails."""
    return max(1, math.ceil(math.sqrt(n)))


_STRATEGIES = {
    "exact_oracle": _ExactStrategy,
    "distcmp": _DistCmpStrategy,
    "pairwise_delta": _PairwiseStrategy,
}


class _HeapEntry:
    """The tie-break behind a heap entry's top word, ordered by (key, vid)
    through the strategy's key comparison, bound once per solve: the
    whole order of a solve without top words (every top word 0), the
    order of tied top words past `_TOP_CAP`.  It is built per push:
    resolving top-word ties at pop time instead, by scanning the tied
    group, asks `compare` once per tied pop, and on the all-1/3 n=400
    instance of `test_distcmp_instance_pinned` that took distcmp's
    level-0 queries from 2757 to 22719."""

    __slots__ = ("key", "vid", "compare")

    def __init__(self, key, vid, compare):
        self.key = key
        self.vid = vid
        self.compare = compare

    def __lt__(self, other):
        c = self.compare(self.key, other.key)
        if c != 0:
            return c < 0
        return self.vid < other.vid


def _no_pair(k) -> Tuple[int, int]:
    """The pair of every key of a strategy that gives none: top word 0."""
    return 0, 1


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

    Every vertex gets a tree edge.  Unreachable vertices never enter the
    heap: once it drains, each vertex still unvisited gets the parent edge
    s->v of weight `aux_weight(g)`, flagged aux, the tree edge it gets in
    the graph that `augment_source` builds; no augmented copy is built.
    Vertices whose tree path crosses an aux edge are reported unreachable
    by the result.  Heap comparisons and relaxation tests compare keys
    of the chosen strategy, each built once per relaxation from the
    settled state of u (`here`); the winning key is the one pushed.

    The order is (key, vertex id), on top words floor(key * 2^S) when
    the strategy gives each key's exact pair (see "Top words" in the
    module docstring): `exact_oracle` always, `distcmp` when n * maxb
    fits its level-0 gate, `pairwise_delta` never; without them every
    top word is 0, so every heap comparison falls to a `_HeapEntry`
    comparison and every relaxation test to `compare`.  collect gets
    `top_shift` (S, or 0 without top words) and `top_ties` (relaxation
    tests that a top-word tie sent to `compare`, 0 without top words).

    `exact_oracle` is unconditionally correct.  `distcmp` answers a
    comparison exactly when it is trivial or takes the exact shortcut; a
    comparison past the exact gate runs on the drawn levels and covers
    and is correct with high probability.  A solve whose comparisons all
    take the shortcut or are trivial draws nothing and returns an exact
    answer.  `pairwise_delta` is the table-driven alternative.
    Every strategy takes and checks `constants` C and lam (read by
    `distcmp`); a constant not given takes its default from
    `distcmp._CONSTANTS`.
    """
    negative, widest, maxb = _scan_weights(g)
    if negative:
        raise NegativeWeightError("graph has negative weights; use negative_sssp")
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    _check_seed(seed)
    constants = constants or {}
    for name, value in constants.items():
        if name not in _CONSTANTS:
            raise ValueError(f"unknown constant {name!r}; expected C or lam")
        _check_constant(name, value)
    constants = {**_CONSTANTS, **constants}
    n = g.n
    strat = _STRATEGIES[strategy](g, s, budget, seed, constants, widest, maxb)
    key_of, compare, settle, pair = strat.key, strat.compare, strat.settle, strat.pair
    # With pairs from distcmp, the bodies of `DistCmp._key` and
    # `DistCmp._settle` run inline below: every key carries its pair, built
    # from the settled state (node, num, den, bits) alone, and a settle
    # appends the key's (parent, weight, den_bits) to the structure's node list.
    inline = pair is not None and type(key_of) is MethodType and key_of.__func__ is DistCmp._key
    if pair is None:  # every top word is 0: `_HeapEntry` and `compare` decide
        pair, shift, exact_ties = _no_pair, 0, False
    else:
        shift = 2 * n * maxb
        exact_ties = shift <= _TOP_CAP
        if not exact_ties:
            shift = _TOP_BITS
    ordered = compare is BigRational._cmp  # canonical: == and < order by value
    if inline:
        nodes = key_of.__self__._nodes
        keep = nodes.append
        node, hnum, hden, hbits = strat.root

    visited = [False] * n
    cur: Dict[int, Tuple[int, BigRational, bool]] = {}
    cur_key: List[object] = [None] * n
    cur_top: List[Optional[int]] = [None] * n
    parent: Dict[int, Tuple[int, BigRational, bool]] = {}
    # Entries (top word, tie-break, vid, key), the tie-break of "Top words"
    # in the module docstring.  An entry is live while its key is the
    # vertex's current one: a push is a key strictly below the last, so
    # never the same object, and a settle clears it.
    heap: List[Tuple[int, object, int, object]] = []
    pushes = 0
    relaxations = 0
    top_ties = 0

    # Relax out of u, settled as `here` (as node, hnum, hden, hbits when
    # inline), then settle the next live heap entry as u; u is None once
    # the heap drains.
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
            w = e.weight
            if inline:
                wd = w.den
                num = hnum * wd + w.num * hden
                den = hden * wd
                k = node, w, hbits + wd.bit_length(), num, den
            else:
                k = key_of(here, w)
                num, den = pair(k)
            if den.bit_length() > _TOP_WIDE:
                top = _wide_top_word(num, den, shift)
            else:
                top = (num << shift) // den
            old = cur_top[v]
            if old is not None and top >= old:
                if top > old:
                    continue
                top_ties += 1
                if compare(k, cur_key[v]) >= 0:
                    continue
            cur_top[v] = top
            tie = v if exact_ties else k if ordered else _HeapEntry(k, v, compare)
            cur[v] = (u, w, e.aux)
            cur_key[v] = k
            heappush(heap, (top, tie, v, k))
            pushes += 1
        u = None
        while heap:
            _, _, v, k = heappop(heap)
            if cur_key[v] is k:
                visited[v] = True
                parent[v] = cur[v]
                cur_key[v] = None  # v is never relaxed again
                if inline:
                    keep(k[:3])
                    node, hnum, hden, hbits = len(nodes), k[3], k[4], k[2]
                else:
                    here = settle(k)
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
        collect["top_shift"] = shift
        collect["top_ties"] = top_ties if shift else 0  # all top words 0: no tie counts
        for key, val in strat.counters().items():
            collect[f"{strat.name}.{key}"] = val
    return SsspResult(n, s, parent)


# -- cut Dijkstra -----------------------------------------------------


class CutContext:
    """Preprocessing shared by all hop-bounded runs on one graph.

    Holds the hop bound k, the word budget and the price function, which
    `cut_preprocess` makes eps-feasible for eps = 2^-((2k+1)B + ceil(log2
    n)).  It also holds the prices at their own resolution: the common
    denominator `pden` (the lcm of the price denominators, 2^(E+1) for
    every context that `cut_preprocess` builds), from which the integer
    numerators p(v) * pden follow.

    The context is the runs' only view of its graph: `adj[u]` lists u's
    out-edges as int triples (head, num, den), read once here, one list
    per vertex, and `shift` is the key shift S of `cut_dijkstra`, the
    least with 2^S >= D^2, where D = 2^(kB-1) * W and W is the graph's
    largest weight denominator.  The key terms that depend on the
    context alone are computed here once, not per run: `scale` = pden
    << S and base[v] = (p(v) * pden) << S.  An edge added to the graph
    afterwards is not seen by runs on this context.  Read-only after
    construction, so runs may share it.
    """

    __slots__ = ("k", "budget", "price", "pden", "adj", "shift", "scale", "base")

    def __init__(
        self,
        g: WeightedDigraph,
        k: int,
        budget: WordBudget,
        price: List[BigRational],
    ):
        if len(price) != g.n:
            raise ValueError(f"price has {len(price)} values, graph has {g.n} vertices")
        self.k = k
        self.budget = budget
        self.price = price
        self.pden = pden = math.lcm(*(p.den for p in price))
        self.adj = [[(e.head, e.weight.num, e.weight.den) for e in g.out_edges(u)] for u in range(g.n)]
        widest = max((e.weight.den for e in g.edges), default=1)
        bound = widest << (k * budget.B - 1)
        self.shift = shift = (bound * bound - 1).bit_length()
        self.scale = pden << shift
        self.base = [(p.num * (pden // p.den)) << shift for p in price]


def cut_preprocess(
    g: WeightedDigraph,
    k: int,
    budget: WordBudget = DEFAULT_BUDGET,
    collect: Optional[Dict[str, object]] = None,
) -> Union[CutContext, NegativeCycle]:
    """Price function and edge arrays for cut runs with hop bound k, a
    positive integer (ValueError otherwise)."""
    k = _check_hop(k)
    exponent = (2 * k + 1) * budget.B + max(1, math.ceil(math.log2(max(g.n, 2))))
    res = eps_feasible_price(g, exponent, budget, collect)
    if isinstance(res, NegativeCycle):
        return res
    return CutContext(g, k, budget, res)


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
    s: int,
    collect: Optional[Dict[str, object]] = None,
) -> CutResult:
    """Hop-bounded run from s over the context's graph snapshot, under its
    price function.

    Vertices are extracted by exact key d(v) - p(v); a vertex is processed
    only while its tentative distance stays k-short.  Reinsertions into
    the heap are deferred by countdowns assigned from the processing-time
    rank of each relaxed vertex; a countdown is kept as the absolute turn
    at which it expires, in one heap of (turn, vertex).

    The rank orders the vertices u relaxed from v by the exact key
    dist(v) + w(v->u) - p(u), which is u's heap key, ties by vertex id.
    The paper compares 2B-bit approximations of p(u) - p(u') against
    w(v->u) - w(v->u') there; those answer every such comparison exactly,
    since the weight difference is 2-short, so the order is the same.

    Each vertex keeps its tentative distance dist(par(u)) + w(par(u)->u)
    as an unreduced pair of ints (num, den), den = dd * wd, written only
    when its parent changes; dist(par(u)) = dn/dd is final and reduced
    once par(u) is extracted.  A relaxation is decided by
    cross-multiplying ints and takes no gcd.  The one gcd of a vertex is
    taken when it is extracted: its distance is reduced there, tested for
    k-shortness as ints and becomes the output `BigRational`.

    A key is one exact int.  With P = ctx.pden, a(u) = p(u) * P and S =
    ctx.shift, K(u) = ((num * P - a(u) * den) << S) // den, the floor of
    key * P * 2^S.  A processed distance is k-short, so dd < 2^(kB-1), and
    wd <= W, the graph's largest weight denominator: every den is below
    D = 2^(kB-1) * W.  Key * P has a denominator dividing den, so two
    distinct keys times P differ by at least 1/D^2 >= 2^-S and their
    floors differ; equal keys have equal floors.  Ordering by (K, vid) is
    therefore exactly the (key, vid) order.  A run computes K(u) as
    (num * ctx.scale) // den - ctx.base[u], the two context terms P << S
    and a(u) << S built once per context.  Heap entries are pairs (K,
    vid), so ties break by vertex id, and the vertices relaxed from one
    parent are ranked by (K, vid).  Only a relaxed vertex has a finite
    key and so a heap entry.  The vertices still at +infinity come after
    every entry, least vertex id first.  An entry is current iff K ==
    key[vid] and vid is neither in countdown nor extracted: a relaxation
    strictly lowers the key, so each push of a vertex has a smaller K.

    Raises ValueError if s is not a vertex of the context's graph.
    """
    n = len(ctx.adj)
    if not 0 <= s < n:
        raise ValueError(f"source {s} out of range")
    adj = ctx.adj
    # K(u) = (num * scale) // den - base[u]: a(u) << S is an int, so it
    # comes out of the floor.
    scale = ctx.scale
    base = ctx.base
    bound = 1 << (ctx.k * ctx.budget.B - 1)  # k-short: |num|, den < bound
    dist: List[Optional[BigRational]] = [None] * n
    par: List[Optional[int]] = [None] * n
    # Tentative distance tnum[v] / tden[v], unreduced; None = +infinity.
    tnum: List[Optional[int]] = [None] * n
    tden = [1] * n
    tnum[s] = 0
    key: List[Optional[int]] = [None] * n
    key[s] = -base[s]
    extracted = [False] * n
    processed = [False] * n
    expiry: List[Optional[int]] = [None] * n  # None = no countdown
    # (turn, vertex); an entry is stale unless expiry[vertex] == turn.
    countdowns: List[Tuple[int, int]] = []
    clock = 0
    # Every vertex starts on the heap: s with its key, the rest at
    # +infinity.  Only finite keys are heap entries.  A vertex at
    # +infinity was never relaxed and leaves that state for good when it
    # is relaxed or extracted, so the least one is found by a pointer
    # that only moves up.
    heap: List[Tuple[int, int]] = [(key[s], s)]
    least_inf = 0
    live = inserts = n
    relaxations = 0
    order: List[int] = []

    heappush = heapq.heappush
    heappop = heapq.heappop

    for _ in range(n):
        # Countdown phase: one tick normally; when every pending vertex is
        # in countdown, jump to the earliest countdown so a reinsertion
        # happens.  The turn count stays at n either way, which is what
        # the payout bound of the countdown game depends on.
        if live > 0:
            clock += 1
        while True:
            # Reinsert every entry of the current turn, in vertex order;
            # entries left behind by a lowered countdown or an extraction
            # are stale and skipped.  No entry is older than the clock:
            # turns are set ahead of it, and it moves one turn or to the
            # earliest entry.  Without a tick the clock's own entries are
            # already gone.  A vertex in countdown was relaxed, so its key
            # is finite.
            while countdowns and countdowns[0][0] == clock:
                u = heappop(countdowns)[1]
                if expiry[u] == clock:
                    expiry[u] = None
                    heappush(heap, (key[u], u))
                    live += 1
                    inserts += 1
            if live > 0:
                break
            if not countdowns:
                raise AssertionError("no heap entries and no countdowns left")
            clock = countdowns[0][0]

        while heap:
            kv, v = heappop(heap)
            if kv == key[v] and expiry[v] is None and not extracted[v]:
                break
        else:
            while key[least_inf] is not None or extracted[least_inf]:
                least_inf += 1
            v = least_inf
        extracted[v] = True
        live -= 1
        order.append(v)
        dn = tnum[v]
        if dn is None:
            continue
        dd = tden[v]
        c = math.gcd(dn, dd)
        if c > 1:
            dn //= c
            dd //= c
        dist[v] = _make(dn, dd)
        if not (-bound < dn < bound and dd < bound):
            continue
        processed[v] = True
        touched: List[Tuple[int, int]] = []
        for u, wn, wd in adj[v]:
            if extracted[u]:
                continue
            relaxations += 1
            num = dn * wd + wn * dd
            den = dd * wd
            if par[u] is None or num * tden[u] < tnum[u] * den:
                par[u] = v
                tnum[u] = num
                tden[u] = den
                key[u] = ku = (num * scale) // den - base[u]
                touched.append((ku, u))
        touched.sort()
        for rank, (_, u) in enumerate(touched, start=1):
            turn = clock + rank
            if expiry[u] is None:
                live -= 1  # u leaves the heap for a countdown
            elif turn >= expiry[u]:
                continue
            expiry[u] = turn
            heappush(countdowns, (turn, u))

    if collect is not None:
        # Runs accumulate into one dict: sums, and the largest single run.
        collect["cut_heap_inserts"] = collect.get("cut_heap_inserts", 0) + inserts
        collect["cut_heap_inserts_max"] = max(collect.get("cut_heap_inserts_max", 0), inserts)
        collect["cut_relaxations"] = collect.get("cut_relaxations", 0) + relaxations
    return CutResult(s, dist, par, order, processed, inserts)


# -- negative pipeline -------------------------------------------------


class _RecombinationError(RuntimeError):
    """Inconsistent recombination state; implies a negative cycle or a
    hit-set miss, both resolved by the caller through the exact oracle."""


def _splice_walk(walk: List[int]) -> List[int]:
    """Drop the loops between vertex repetitions (one pass over the walk
    via a last-occurrence map): the walk's chronological loop erasure.
    On a consistent input the removed loops all have zero weight."""
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
    seed: int = 0,
    budget: WordBudget = DEFAULT_BUDGET,
    collect: Optional[Dict[str, object]] = None,
) -> Union[SsspResult, NegativeCycle]:
    """Shortest-paths tree with negative weights, or a negative cycle
    that s reaches.

    Runs cut Dijkstra from a hit set, recombines the hop-bounded
    estimates through an exact Bellman-Ford on the hit set, and verifies
    the assembled tree before returning it.  The pipeline runs on the
    edges out of the vertices s reaches, so, as with `bf_exact`, a cycle
    that s cannot reach is no answer whatever k is; every weight of g is
    still checked.

    The hit set is `_tree_hitset`'s: s plus the sparsest residue class
    of depth mod k in one Dijkstra tree of the reduced weights floored
    at the price's resolution.  In a tree rooted at s the path to a
    vertex of depth d passes one vertex of every depth below d, so any
    residue class cuts every tree path into segments of at most k hops,
    and by pigeonhole the sparsest holds at most (n - 1) / k vertices:
    the deterministic form of the sampling argument of Ullman and
    Yannakakis (SIAM J. Comput. 1991) and King (FOCS 1999).  The tree is
    the exact one up to near-ties, and it only chooses the hit set;
    every distance and tree edge still comes from the cut runs and the
    exact verification.

    A failed verification is resolved by one call of the exact oracle:
    it yields either a negative-cycle witness, which sets
    `oracle_cycles` to 1 in `collect`, or, when the hit set missed a
    path, its own shortest-paths tree, the answer, which sets
    `pipeline_attempts` to 2 (1 otherwise).  Nothing is drawn: `seed`
    is checked and otherwise unused.  A weight that is not 1-short under
    `budget` raises ValueError, and a k that is not a positive integer
    one from `cut_preprocess`.
    """
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range")
    _check_seed(seed)
    if k is None:
        k = _hop_default(g.n)
    g = _reachable_part(g, s, budget)

    pre = cut_preprocess(g, k, budget, collect)
    if isinstance(pre, NegativeCycle):
        return pre

    hitset = _tree_hitset(pre, s)
    runs = [cut_dijkstra(pre, v, collect=collect) for v in hitset]
    try:
        result = _witness_tree(g, s, hitset, runs, *_recombine(g.n, hitset, runs))
        valid = verify_sssp(g, result).valid
    except _RecombinationError:
        valid = False
    attempts = 1
    if not valid:
        oracle = bf_exact(g, s)
        if isinstance(oracle, NegativeCycle):
            if collect is not None:
                collect["pipeline_attempts"] = collect["oracle_cycles"] = 1
            return oracle
        # No cycle: the hit set missed a path, and the oracle's tree is
        # the answer.
        parent = {}
        for v, u in enumerate(oracle.parent):
            if u >= 0:
                e = g.edge_between(u, v)
                parent[v] = (u, e.weight, e.aux)
        result = SsspResult(g.n, s, parent)
        attempts = 2
    if collect is not None:
        collect["pipeline_attempts"] = attempts
        collect["hitset_size"] = len(hitset)
    return result


def _reachable_part(g: WeightedDigraph, s: int, budget: WordBudget) -> WeightedDigraph:
    """g when s reaches every vertex; otherwise the graph of g's edges out
    of the vertices s reaches, on the same vertex ids and with the same
    weights, after every weight of g is checked to be 1-short."""
    seen = [False] * g.n
    seen[s] = True
    stack = [s]
    while stack:
        for e in g.out_edges(stack.pop()):
            if not seen[e.head]:
                seen[e.head] = True
                stack.append(e.head)
    if all(seen):
        return g
    _check_1_short(g, budget)
    part = WeightedDigraph(g.n, source=g.source)
    for e in g.edges:
        if seen[e.tail]:
            part.add_edge(e.tail, e.head, e.weight, e.aux)
    return part


def _tree_hitset(ctx: CutContext, s: int) -> List[int]:
    """s plus the sparsest class of depth mod k, least residue on ties, in
    one Dijkstra tree from s of the context's graph; vertices s cannot
    reach are left out.

    An edge u -> v weighs max(0, floor(w * P) + a(u) - a(v)), with P =
    ctx.pden and a(u) = p(u) * P = ctx.base[u] >> ctx.shift: the reduced
    weight under the context's price, floored at the price's own
    resolution, all ints.  Heap ties break by vertex id, and a vertex
    keeps the first parent that reaches its least distance.  Every tree
    path meets the set at least once every k hops, and the set holds at
    most 1 + (r - 1) // k vertices for the r vertices s reaches; a tree
    of depth below k gives [s].  See `negative_sssp`.
    """
    adj = ctx.adj
    k = ctx.k
    pden = ctx.pden
    shift = ctx.shift
    a = [b >> shift for b in ctx.base]
    n = len(adj)
    dist: List[Optional[int]] = [None] * n
    dist[s] = 0
    depth = [0] * n
    done = [False] * n
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        au = a[u]
        du = depth[u] + 1
        for v, wn, wd in adj[u]:
            if done[v]:
                continue
            w = (wn * pden) // wd + au - a[v]
            dv = d + w if w > 0 else d
            if dist[v] is None or dv < dist[v]:
                dist[v] = dv
                depth[v] = du
                heapq.heappush(heap, (dv, v))
    reached = [v for v in range(n) if done[v] and v != s]
    counts = [0] * k
    for v in reached:
        counts[depth[v] % k] += 1
    r = counts.index(min(counts))
    return [s] + [v for v in reached if depth[v] % k == r]


def _recombine(
    n: int, hitset: List[int], runs: List[CutResult]
) -> Tuple[List[int], List[Optional[int]]]:
    """Stitch the runs: (hpar, best_via), the recombination parent of each
    hit-set index and the hit-set index each vertex is best reached
    through."""
    size = len(hitset)
    # Exact Bellman-Ford over the recombination graph on the hit set, its
    # edges i -> j weighted by run i's estimate of hitset[j], in row order.
    edges = []
    for i, run in enumerate(runs):
        for j, v in enumerate(hitset):
            w = run.dist[v]
            if w is not None and i != j:
                edges.append((i, j, w))
    hdist, hpar, cycle = _bellman_ford(size, 0, edges)  # hitset[0] == s
    if cycle is not None:
        raise _RecombinationError("the hit-set estimates form a negative cycle")

    # Best two-stage estimate hdist[i] + run i's d(v) per vertex, kept as
    # an unreduced pair of ints and compared by cross-multiplication; the
    # strict test keeps the lowest index on ties.
    best_via: List[Optional[int]] = [None] * n
    bnum = [0] * n
    bden = [1] * n
    for i in range(size):
        hi = hdist[i]
        if hi is None:
            continue
        hn, hd = hi.num, hi.den
        for v, w in enumerate(runs[i].dist):
            if w is None:
                continue
            wd = w.den
            num = hn * wd + w.num * hd
            den = hd * wd
            if best_via[v] is None or num * bden[v] < bnum[v] * den:
                bnum[v] = num
                bden[v] = den
                best_via[v] = i
    return hpar, best_via


def _witness_tree(
    g: WeightedDigraph,
    s: int,
    hitset: List[int],
    runs: List[CutResult],
    hpar: List[int],
    best_via: List[Optional[int]],
) -> SsspResult:
    """The tree of the stitched witness walks: each vertex's walk through
    its hit-set relays, erased, and the union of their edges searched
    from s.

    With i = best_via[v], v's walk is the prefix P_i, stitched along the
    recombination path of i (each run's witness path to the next relay,
    less its last vertex), followed by run i's tree path from hitset[i]
    to v.  `_splice_walk` is chronological loop erasure: LE(W + [x]) is
    LE(W) cut back to x when x lies on it, and LE(W) + [x] otherwise.
    So the walks of one hit index share L = LE(P_i), built once.  Going
    down run i's tree from hitset[i], whose parent keeps all of L, a
    vertex x falls back into L when its position there is no later than
    keep(parent), the last position of L that its parent's path keeps;
    then keep(x) is that position.  Otherwise x is appended and keep(x)
    = keep(parent): a tree path repeats no vertex, so x cannot fall back
    onto an appended vertex.  v's erased path is therefore the edges of
    L[:keep(v)+1], the run-tree edges (parent, x) from v up to the
    nearest vertex that fell back, and (L[-1], hitset[i]) when no vertex
    of the path fell back, hitset[i] included.  keep is memoized over
    the tree and the edge walk stops at a vertex already walked, so a
    hit index costs O(n + |P_i|), and the union is that of the erased
    walks.
    """
    n = g.n
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

    members: Dict[int, List[int]] = {}
    for v, i in enumerate(best_via):
        if i is not None:
            members.setdefault(i, []).append(v)

    union: Set[Tuple[int, int]] = set()
    # keep and fell (whether the vertex fell back into L) hold for the
    # hit index in known; walked holds the hit index whose edge walk
    # passed the vertex.
    keep = [0] * n
    fell = [False] * n
    known = [-1] * n
    walked = [-1] * n
    for i, vs in members.items():
        stops = hpath(i)
        prefix: List[int] = []
        for a, b in zip(stops, stops[1:]):
            prefix.extend(runs[a].witness_path(hitset[b])[:-1])
        erased = _splice_walk(prefix)  # L
        pos = {x: j for j, x in enumerate(erased)}
        par = runs[i].parent
        reach = -1  # the furthest position of L that a path keeps
        junction = False
        for v in vs:
            chain = []
            x = v
            while x is not None and known[x] != i:
                chain.append(x)
                x = par[x]
            kept = len(erased) - 1 if x is None else keep[x]
            for y in reversed(chain):
                j = pos.get(y)
                fell[y] = j is not None and j <= kept
                if fell[y]:
                    kept = j
                keep[y] = kept
                known[y] = i
            if kept > reach:
                reach = kept
            x = v
            while walked[x] != i and not fell[x]:
                walked[x] = i
                u = par[x]
                if u is None:
                    junction = True
                    break
                union.add((u, x))
                x = u
        union.update(zip(erased, erased[1:reach + 1]))
        if junction and erased:
            union.add((erased[-1], hitset[i]))

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
    import numpy as np

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
    import numpy as np

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
