"""Hierarchical comparison of root-distance differences in a growing tree.

The structure maintains an incremental weighted out-tree of at most n
nodes, n fixed when it is built, and answers queries "compare
dist(root, u) - dist(root, v) against a short rational" without ever
materializing the exact distances, which can need a number of bits
linear in the tree depth.

Vertices are thinned geometrically into level sets L_0 (everything)
through L_t (the root alone); the levels of all n slots are drawn at
once, on the first gate-closed query (`DistCmp.slot_level`), so a
structure whose queries all pass the exact gate below draws nothing and
imports no numpy.  Level i keeps, per member, a fixed-point
approximation of the root distance with denominator 2^(ell_i + 2) * n,
built on the level's first fixed-point use, accurate enough that almost
every comparison resolves by comparing approximations.  The residual
"difficult" comparisons are exactly those whose two sides differ by
almost precisely a short rational; such pairs are recorded as edges of
a similarity graph, covered by sparse clusters (see `cover`), and
ordered inside each cluster by a total preorder whose evaluation
delegates one comparison to level i+1 with a rewritten, shorter
right-hand side.  The recursion bottoms out at L_t where every query is
a sign test.

An exact-arithmetic twin of the query predicate, `exact_compare`, is
the fallback when a covering failure is detected.
At small capacities such failures are not rare: with the default lam=4,
a 6-slot cover (11 instances) leaves its first edge uncovered for about
9 % of seeds.  The fallback answers exactly, so every answer stays
correct; a failure costs time only, and is counted in `cover_fallbacks`.

Exact shortcut.  The level-i numerator is a_i(v) = scale_i * D(v) - f_v
with D(v) the exact root distance, scale_i = 2^(ell_i + 2) * capacity and
0 <= f_v < depth(v) < capacity (each chain segment adds one floor).  For a
query (u, v, beta) let X = D(u) - D(v) - beta and let Q be a common
denominator of the three terms.  The easy test asks whether
|scale_i * X - (f_u - f_v)| > 2 * capacity.  If X != 0 then |X| >= 1/Q,
and when Q < 2^ell_i, scale_i * |X| > 4 * capacity and the left side
exceeds 3 * capacity: the test is easy with the sign of X.  If X = 0 the
test never holds, but the answer is known: a proven tie is answered EQUAL
at once and counted in `tie_answers`, neither easy nor difficult.  Likewise
the cluster window check
|scale_i * Y - (f_x - f_y)| <= 2^(ell_i - ell_chain_i + 3) * capacity, for
Y = D(x) - D(y) - frac, holds exactly when Y = 0 once Q < 2^(ell_chain_i - 2).
A per-node bound on the bit length of the product of the weight
denominators on the root path bounds Q without computing it; whenever it
fits, both tests are decided by cross-multiplying unreduced exact values,
with the answers of the fixed-point path.  The fixed-point test, and with
it the difficult path (similarity edges, the cover, the cluster orders and
level i+1), runs only when the gate is closed, for values too wide for
that: the regime the hierarchy exists for.

Heap queries decide on key pairs.  A heap key dist(u) + w1 (`key`)
carries the unreduced exact pair of its value while its bound den_bits(u)
+ bitlen(w1.den) is at most ell_0.  As bitlen(beta.den) <= bitlen(w1.den)
+ bitlen(w2.den) for beta = w2 - w1, two keys whose bounds sum to at most
ell_0 pass the shortcut's gate: `compare` answers them by one
cross-multiplication of their pairs, counted as the shortcut counts.
Such a query reads nothing of the tree, and the tree is built on its
first read (`DistCmp.tree`).

Root pairs come from the tree's one memo, `IncTree.pair`, which
`PairwiseDeltaComparator` reads too.  Node queries (key queries past the
pair gate, and `compare` given beta) read them: the shortcut, the window
check, the fallbacks and `exact_compare` compare them through
`IncTree.exact_sign`, gated on `IncTree.den_bits` (inline in
`_level_compare`, through `_exact_sign` for the window).  The fixed-point
values and anchors read the per-level pairs; their numerators are plain
Python ints.

`_CONSTANTS` holds the one default of each solver constant: C sizes the
thinning factor K, lam the cover.  `_PAIRWISE_GAMMA` is the default
sample multiplier of the pairwise comparator, which no solver changes.
`_check_constant` is the one rule every entry point applies to a given
value, `_check_hop` the one rule for a hop parameter, and `_check_seed`
the one rule for a seed.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Dict, List, Optional, Tuple

from .cfrac import Ordering, best_approx
from .cover import SparseCover
from .inctree import IncTree, cancel
from .rational import BigRational, WordBudget, ZERO, _add

__all__ = [
    "DistCmpConfig",
    "DistCmp",
    "ClusterOrder",
    "PairwiseDeltaComparator",
]

_CONSTANTS = {"C": 2.0, "lam": 4.0}
_PAIRWISE_GAMMA = 2.0


def _check_constant(name: str, value) -> None:
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


def _check_hop(k) -> int:
    """k as an int if it is a positive integer, bool excluded; else ValueError."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"hop parameter must be a positive integer, got {k!r}")
    return int(k)


def _check_seed(seed, where: Optional[str] = None) -> None:
    """The one seed rule of the structures, the solvers and the CLI,
    applied whether or not anything draws from the seed: a non-negative
    integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        at = f" ({where})" if where else ""
        raise ValueError(f"seed must be a non-negative integer, got {seed}{at}")


class DistCmpConfig:
    """Derived level parameters for a comparison structure.

    capacity: maximum vertex count including the root; c: shortness class
    of supported weights and queries; B: word budget in bits; C and lam,
    positive finite numbers, size the thinning factor and the cover.  The
    level count t is the smallest with capacity / K^t <= 1 for the
    thinning factor K = max(2, ceil(C log2 capacity)).
    """

    __slots__ = (
        "capacity",
        "c",
        "B",
        "lam",
        "K",
        "t",
        "ell",
        "bits_chain",
        "ell_chain",
    )

    def __init__(
        self,
        capacity: int,
        c: int = 2,
        B: int = 64,
        C: float = _CONSTANTS["C"],
        lam: float = _CONSTANTS["lam"],
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if c < 1:
            raise ValueError("shortness class must be positive")
        WordBudget(B)  # validates B >= 2
        _check_constant("C", C)
        _check_constant("lam", lam)
        self.capacity = capacity
        self.c = c
        self.B = B
        self.lam = lam
        logn = math.log2(max(capacity, 2))
        self.K = max(2, math.ceil(C * logn))
        t = 1
        while capacity > self.K**t:
            t += 1
        self.t = t
        chain_log = max(1, math.ceil(lam * logn))
        bits = [c * B * self.K ** (i + 1) for i in range(t)]
        self.ell = [10 * b * self.K for b in bits]
        # Chained similarity parameters: what a cluster-internal comparison
        # may accumulate along a weak-diameter path.
        self.bits_chain = [(1 + b) * chain_log for b in bits]
        self.ell_chain = [l - chain_log for l in self.ell]
        for i in range(t):
            if self.ell_chain[i] < 4 * self.bits_chain[i] + 5:
                raise ValueError("precision margins violated; increase B or C")


class ClusterOrder:
    """Total preorder over the members of one cluster.

    Groups of mutually equal members collapse to one slot; insertion
    binary-searches with the supplied three-way comparator, so each insert
    costs a logarithmic number of comparisons.  A comparator that had to
    fall back to exact arithmetic marks the order degraded.
    """

    __slots__ = ("groups", "where", "degraded", "_cmp")

    def __init__(self, cmp3: Callable[[int, int], Tuple[int, bool]]):
        self.groups: List[List[int]] = []
        self.where: Dict[int, List[int]] = {}
        self.degraded = False
        self._cmp = cmp3

    def _compare(self, x: int, y: int) -> int:
        r, clean = self._cmp(x, y)
        if not clean:
            self.degraded = True
        return r

    def insert(self, v: int) -> None:
        if v in self.where:
            return
        lo, hi = 0, len(self.groups)
        while lo < hi:
            mid = (lo + hi) // 2
            r = self._compare(v, self.groups[mid][0])
            if r < 0:
                hi = mid
            elif r > 0:
                lo = mid + 1
            else:
                self.groups[mid].append(v)
                self.where[v] = self.groups[mid]
                return
        group = [v]
        self.groups.insert(lo, group)
        self.where[v] = group

    def remove(self, v: int) -> None:
        group = self.where.pop(v, None)
        if group is None:
            return
        group.remove(v)
        if not group:
            for i, g in enumerate(self.groups):
                if g is group:
                    del self.groups[i]
                    break

    def relation(self, u: int, v: int) -> Optional[int]:
        gu = self.where.get(u)
        gv = self.where.get(v)
        if gu is None or gv is None:
            return None
        if gu is gv:
            return 0
        iu = iv = -1
        for i, g in enumerate(self.groups):
            if g is gu:
                iu = i
            elif g is gv:
                iv = i
        return -1 if iu < iv else 1


class _PotentialDsu:
    """Union-find whose elements carry rational potentials.

    union(u, v, d) records the constraint value(u) - value(v) = d;
    fraction(u, v) returns the implied difference when u and v are
    already connected.
    """

    __slots__ = ("parent", "offset", "size", "inconsistencies")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.offset: List[BigRational] = [ZERO] * n
        self.size = [1] * n
        self.inconsistencies = 0

    def find(self, x: int) -> int:
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        acc = ZERO
        for y in reversed(path):
            acc = acc + self.offset[y]
            self.parent[y] = x
            self.offset[y] = acc
        return x

    def _rel(self, x: int) -> BigRational:
        # Valid immediately after find(x).
        return self.offset[x] if self.parent[x] != x else ZERO

    def union(self, u: int, v: int, d: BigRational) -> None:
        ru = self.find(u)
        rel_u = self._rel(u)
        rv = self.find(v)
        rel_v = self._rel(v)
        if ru == rv:
            if rel_u - rel_v != d:
                self.inconsistencies += 1
            return
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
            rel_u, rel_v = rel_v, rel_u
            d = -d
        self.parent[rv] = ru
        self.offset[rv] = rel_u - rel_v - d
        self.size[ru] += self.size[rv]

    def fraction(self, u: int, v: int) -> Optional[BigRational]:
        if self.find(u) != self.find(v):
            return None
        return self._rel(u) - self._rel(v)


class _LevelState:
    """The difficult path's state at one level, built on its first use:
    the level's nodes in slot order and their slots, the cover and the
    potentials over those slots, and the cluster orders.  The cover holds
    the similarity edges."""

    __slots__ = ("members", "slot_of", "cover", "orders", "dsu")

    def __init__(self, members: List[int], cover: SparseCover):
        self.members = members
        self.slot_of = {v: slot for slot, v in enumerate(members)}
        self.cover = cover
        self.orders: Dict[Tuple[int, int], ClusterOrder] = {}
        self.dsu = _PotentialDsu(len(members))


def _gap(w1: BigRational, w2: BigRational) -> BigRational:
    """w2 - w1 as `__sub__` builds it, or the canonical ZERO for equal
    weights.  Equal tokens of one `parse` call share one object, which the
    identity test catches first."""
    if w1 is w2 or (w1.num == w2.num and w1.den == w2.den):
        return ZERO
    return _add(w2.num, w2.den, -w1.num, w1.den)


# Ordering by sign: index 1 is GREATER and index -1 the last entry, LESS.
_ORDERING_OF_SIGN = (Ordering.EQUAL, Ordering.GREATER, Ordering.LESS)

_LEVEL_COUNTERS = (
    "level_queries",
    "trivial_answers",
    "easy_answers",
    "shortcut_answers",
    "tie_answers",
    "difficult_answers",
    "cover_fallbacks",
)


class DistCmp:
    """Comparison structure over an incremental weighted out-tree.

    insert_leaf() grows the tree up to config.capacity nodes, the root
    included; compare(u, v, beta) orders dist(root, u) - dist(root, v)
    against a c-short rational beta, correct with high probability, and
    returns an `Ordering`; compare(a, b) orders two heap keys from key()
    the same way; exact_compare() evaluates the node predicate in exact
    arithmetic, over the root pairs the shortcut reads.  The levels pass
    int signs (-1, 0, 1) between them, and compare turns the level-0 sign
    into an `Ordering` once.

    The tree is built when something first reads it (`tree`): the
    solver's settles (`_settle`) only keep their nodes until then, and a
    key carries its den_bits, so a solve whose comparisons are all
    decided on key pairs never builds it.  Node ids, levels and the tree
    are those of inserting every node at once.

    Queries mutate internal state (similarity edges, cluster orders), so
    all access must be serialized by the owning thread.
    """

    def __init__(self, config: DistCmpConfig, seed: int = 0):
        _check_seed(seed)
        self.config = config
        # |num| and den of a c-short value are below this (`is_k_short`).
        self._short = 1 << (config.c * config.B - 1)
        self._ell0 = config.ell[0]
        # SeedSequence(seed).entropy for an int seed.  The children that
        # SeedSequence(seed).spawn(2) would give are built from it directly:
        # (0,) draws the slot levels (`slot_level`), (1, i) seeds the
        # level-i cover, built only with that cover.
        self._entropy = seed
        self._slot_level: Optional[List[int]] = None
        t = config.t
        self._tree = IncTree(max_level=t)
        # (parent, weight, den_bits) of every node but the root, in node
        # order, so node v is _nodes[v - 1]: the tree holds a prefix of
        # them, and `tree` appends the rest.
        self._nodes: List[Tuple[int, BigRational, int]] = []
        self._states: List[Optional[_LevelState]] = [None] * t
        # scale_i = 2^(ell_i + 2) * capacity, built on the first fixed-point
        # use of level i: at capacity 2000 and c=2 the level-2 value has
        # ~300M bits.
        self._scale: List[Optional[int]] = [None] * t
        self._a: List[Dict[int, int]] = [{0: 0} for _ in range(t)]
        self.level_queries = [0] * (t + 1)
        self.trivial_answers = [0] * (t + 1)
        self.easy_answers = [0] * (t + 1)
        self.shortcut_answers = [0] * (t + 1)
        self.tie_answers = [0] * (t + 1)
        self.difficult_answers = [0] * (t + 1)
        self.cover_fallbacks = [0] * (t + 1)

    # -- insertion ----------------------------------------------------

    @property
    def tree(self) -> IncTree:
        """The tree, first brought up to date: the nodes that `_settle` kept
        are appended, in node order, each at its slot level once the levels
        are drawn and at 0 before.  Every reader of the tree, inside the
        structure or out, goes through here, so a solve whose comparisons
        all stay on key pairs never builds it."""
        tree = self._tree
        nodes = self._nodes
        v = len(tree.parent)
        if v <= len(nodes):
            levels = self._slot_level
            for parent, weight, bits in nodes[v - 1:]:
                tree._append(parent, weight, 0 if levels is None else levels[v], bits)
                v += 1
        return tree

    def insert_leaf(self, parent: int, weight: BigRational) -> int:
        """Append a leaf of `weight` under `parent`, checked: weight c-short,
        room left, parent a node.  `_settle` is the solver's, unchecked."""
        short = self._short
        if not (-short < weight.num < short and weight.den < short):
            raise ValueError(f"weight {weight} is not {self.config.c}-short")
        tree = self.tree
        slot = len(tree.parent)
        if slot >= self.config.capacity:
            raise ValueError(f"tree is full at capacity {self.config.capacity}")
        levels = self._slot_level
        # Before the draw a node takes level 0, which `slot_level` replaces.
        tree.insert_leaf(parent, weight, 0 if levels is None else levels[slot])
        self._nodes.append((parent, weight, tree.den_bits[slot]))
        return slot

    def _settle(self, k) -> Tuple[int, Optional[int], Optional[int], int]:
        """Add the node that a key k of `_key` reaches, unchecked, and return
        its state (node, num, den, bits) for `_key`: its id, its root pair
        and its `den_bits`, k[2].  The node is kept as (parent, weight,
        den_bits), k[:3], one append, and enters the tree when `tree` is
        next read; the slice keeps the key's pair, Theta(depth) words, out
        of the list.  `dijkstra_nonneg` runs this body inline."""
        nodes = self._nodes
        nodes.append(k[:3])
        return len(nodes), k[3], k[4], k[2]

    @property
    def slot_level(self) -> List[int]:
        """The level of each of the capacity slots, t for the root's and
        min(t, g - 1) for each other, g a geometric draw of success
        probability 1 - 1/K.  The first read draws them all, from the
        level stream, and sets them on the nodes already in the tree.
        Level 0 holds every node, so the exact gate and the level-0
        ancestors need no draw.  The gate-closed branch of
        `_level_compare` and `_level_state` read this first.  What they
        call, `_a_scaled`, `_fixed_sign`, `_fixed_window`, `_anchor` and
        the tree's ancestors and pairs, does not: at a level above 0 it
        would build its arrays from the placeholder levels and keep them,
        so a caller of one of those at i >= 1 reads this first."""
        levels = self._slot_level
        if levels is None:
            import numpy as np

            config = self.config
            rng = np.random.default_rng(np.random.SeedSequence(self._entropy, spawn_key=(0,)))
            levels = [config.t]
            if config.capacity > 1:
                draws = rng.geometric(1.0 - 1.0 / config.K, size=config.capacity - 1) - 1
                levels.extend(np.minimum(draws, config.t).tolist())
            self._slot_level = levels
            node_level = self.tree.level
            node_level[1:] = levels[1:len(node_level)]
        return levels

    # -- lazy per-level values -----------------------------------------

    def _scale_of(self, i: int):
        scale = self._scale[i]
        if scale is None:
            scale = self._scale[i] = (1 << (self.config.ell[i] + 2)) * self.config.capacity
        return scale

    def _a_scaled(self, i: int, v: int):
        memo = self._a[i]
        got = memo.get(v)
        if got is not None:
            return got
        tree = self.tree
        chain = []
        x = v
        while x not in memo:
            chain.append(x)
            x = tree.nearest_strict_marked_ancestor(x, i)
        scale = self._scale_of(i)
        # Each chain node's strict level-i ancestor is the node before it
        # in this loop: first x, the memoized node that ended the walk.
        z = x
        for y in reversed(chain):
            num, den = tree.pair(i, tree.parent[y])
            w = tree.weight[y]
            memo[y] = memo[z] + (scale * (num * w.den + w.num * den)) // (den * w.den)
            z = y
        return memo[v]

    def _anchor(self, lvl: int, v: int) -> Tuple[int, BigRational]:
        """(alpha, d): v's level-lvl anchor and the exact distance from it
        to v."""
        tree = self.tree
        anc = 0 if lvl == self.config.t else tree.nearest_marked_ancestor(v, lvl)
        return anc, BigRational(*tree.pair(lvl, v))

    # -- queries --------------------------------------------------------

    def key(self, at, w: BigRational) -> tuple:
        """The heap key dist(node) + w for at = (node, num, den), a node
        and its root pair (None, None once `den_bits` passes ell_0), or a
        state of `_settle`: (node, w, bits, num, den) with bits =
        den_bits(node) + bitlen(w.den) and (num, den) its unreduced pair
        while bits <= ell_0, else (None, None).  w is checked c-short here
        and den_bits(node) read from the tree; `_key` is the solver's,
        unchecked, on a state that carries its den_bits."""
        short = self._short
        if not (-short < w.num < short and w.den < short):
            raise ValueError(f"weight {w} is not {self.config.c}-short")
        node = at[0]
        return self._key((node, at[1], at[2], self.tree.den_bits[node]), w)

    def _key(self, at: Tuple[int, Optional[int], Optional[int], int], w: BigRational) -> tuple:
        node, num, den, bits = at
        wd = w.den
        bits += wd.bit_length()
        if bits > self._ell0:
            return node, w, bits, None, None
        return node, w, bits, num * wd + w.num * den, den * wd

    def compare(self, a, b, beta: Optional[BigRational] = None) -> Ordering:
        """Order the keys a = dist(u) + w1 and b = dist(v) + w2, whose
        weights differ by a c-short value: on their pairs when their
        bounds sum to at most ell_0 (see "Heap queries" above), by w1
        against w2 alone when also u == v, else as the node query (u, v,
        w2 - w1).  Given beta, order dist(a) -
        dist(b) against it for nodes a and b and a c-short beta (checked).
        Nodes come from `insert_leaf` unchecked: this runs on every heap
        comparison."""
        if beta is None:
            u, w1, bits1, n1, d1 = a
            v, w2, bits2, n2, d2 = b
            bits = bits1 + bits2
            if bits <= self._ell0:
                self.level_queries[0] += 1
                if u == v:  # keys from one node: dist(u) cancels
                    self.trivial_answers[0] += 1
                    return _ORDERING_OF_SIGN[w1._cmp(w2)]
                c1, c2 = cancel(d1, d2, bits)
                x = n1 * c2 - n2 * c1
                if x:
                    self.shortcut_answers[0] += 1
                    self.easy_answers[0] += 1
                else:
                    self.tie_answers[0] += 1
                return _ORDERING_OF_SIGN[(x > 0) - (x < 0)]
            return _ORDERING_OF_SIGN[self._level_compare(0, u, v, _gap(w1, w2))]
        short = self._short
        if not (-short < beta.num < short and beta.den < short):
            raise ValueError(f"query value {beta} is not {self.config.c}-short")
        return _ORDERING_OF_SIGN[self._level_compare(0, a, b, beta)]

    def exact_compare(self, u: int, v: int, beta: BigRational) -> Ordering:
        tree = self.tree
        tree._check_node(u)
        tree._check_node(v)
        return _ORDERING_OF_SIGN[tree.exact_sign(u, v, beta)]

    def _exact_sign(self, u: int, v: int, beta: BigRational, max_bits: int) -> Optional[int]:
        """`IncTree.exact_sign`, or None when the common denominator of the
        root pairs and beta may need more than max_bits bits: the cluster
        comparator's window check.  `_level_compare` tests the same gate
        inline."""
        tree = self.tree
        if tree.den_bits[u] + tree.den_bits[v] + beta.den.bit_length() > max_bits:
            return None
        return tree.exact_sign(u, v, beta)

    def _fixed_offset(self, i: int, u: int, v: int, beta: BigRational):
        """(a_i(u) - a_i(v)) * beta.den - scale_i * beta.num: the level-i
        approximation of dist(u) - dist(v) - beta, times scale_i * beta.den."""
        a_diff = self._a_scaled(i, u) - self._a_scaled(i, v)
        return a_diff * beta.den - self._scale_of(i) * beta.num

    def _fixed_sign(self, i: int, u: int, v: int, beta: BigRational) -> int:
        """The level-i easy test on fixed-point approximations: the sign of
        dist(u) - dist(v) - beta when the margin decides it, else 0."""
        offset = self._fixed_offset(i, u, v, beta)
        margin = (2 * self.config.capacity) * beta.den
        return (offset > margin) - (offset < -margin)

    def _fixed_window(self, i: int, x: int, y: int, frac: BigRational) -> bool:
        """Whether the level-i approximations of x and y differ by frac
        within the chained window |a_x - a_y - frac| <= 2^-(ell_chain - 1)."""
        # Scaled by scale*q: scale / 2^(ell_chain - 1) is the integer window.
        window = (1 << (self.config.ell[i] - self.config.ell_chain[i] + 3)) * self.config.capacity
        return abs(self._fixed_offset(i, x, y, frac)) <= window * frac.den

    def _level_compare(self, i: int, u: int, v: int, beta: BigRational) -> int:
        """sign(dist(u) - dist(v) - beta) as -1, 0 or 1, answered at level i."""
        self.level_queries[i] += 1
        if i == self.config.t or u == v:
            self.trivial_answers[i] += 1
            return -beta.sign

        # The exact shortcut's gate, tested here rather than through
        # `_exact_sign`: this runs on every level-0 query.
        tree = self.tree
        den_bits = tree.den_bits
        if den_bits[u] + den_bits[v] + beta.den.bit_length() <= self.config.ell[i]:
            easy = tree.exact_sign(u, v, beta)
            if not easy:
                self.tie_answers[i] += 1
                return 0
            self.shortcut_answers[i] += 1
            self.easy_answers[i] += 1
            return easy
        if self._slot_level is None:
            self.slot_level  # the draw, before the fixed point and level i + 1
        easy = self._fixed_sign(i, u, v, beta)
        if easy:
            self.easy_answers[i] += 1
            return easy

        self.difficult_answers[i] += 1
        st = self._level_state(i)
        su, sv = st.slot_of[u], st.slot_of[v]
        # A repeated pair is a consistent no-op for both: the cover ignores
        # a known edge, and its beta is the one c-short value within
        # 2^-ell_i of dist(u) - dist(v).
        st.dsu.union(su, sv, beta)
        self._apply_updates(st, st.cover.insert_edge(su, sv))
        sid = st.cover.common_set(su, sv)
        order = None if sid is None else self._order_of(i, st, sid)
        rel = None if order is None or order.degraded else order.relation(u, v)
        if rel is None:
            self.cover_fallbacks[i] += 1
            return tree.exact_sign(u, v, beta)
        return rel

    # -- level plumbing ---------------------------------------------------

    def _level_state(self, i: int) -> _LevelState:
        st = self._states[i]
        if st is None:
            import numpy as np

            # Node id = slot index.  A slot not yet inserted has no similarity
            # edge, so it moves in no cover instance, centers no stored
            # cluster and enters no cluster order.
            members = [v for v, lv in enumerate(self.slot_level) if lv >= i]
            seq = np.random.SeedSequence(self._entropy, spawn_key=(1, i))
            cover = SparseCover(len(members), self.config.lam, np.random.default_rng(seq))
            st = self._states[i] = _LevelState(members, cover)
        return st

    def _apply_updates(self, st: _LevelState, updates) -> None:
        for sid, op, slot in updates:
            order = st.orders.get(sid)
            if order is None:
                continue
            node = st.members[slot]
            if op == "remove":
                order.remove(node)
            else:
                order.insert(node)

    def _order_of(self, i: int, st: _LevelState, sid: Tuple[int, int]) -> ClusterOrder:
        order = st.orders.get(sid)
        if order is None:
            order = ClusterOrder(self._make_comparator(i, st))
            st.orders[sid] = order
            for slot in sorted(st.cover.members(sid)):
                order.insert(st.members[slot])
        return order

    def _make_comparator(self, i: int, st: _LevelState) -> Callable[[int, int], Tuple[int, bool]]:
        bits = self.config.bits_chain[i]
        exact_bits = self.config.ell_chain[i] - 2

        def cmp3(x: int, y: int) -> Tuple[int, bool]:
            frac = st.dsu.fraction(st.slot_of[x], st.slot_of[y])
            ok = frac is not None and frac.num.bit_length() <= bits and frac.den.bit_length() <= bits
            if ok:
                sign = self._exact_sign(x, y, frac, exact_bits)
                ok = self._fixed_window(i, x, y, frac) if sign is None else sign == 0
            if not ok:
                return self.tree.exact_sign(x, y, ZERO), False
            ax, dx = self._anchor(i + 1, x)
            ay, dy = self._anchor(i + 1, y)
            return self._level_compare(i + 1, ax, ay, frac + dy - dx), True

        return cmp3

    # -- observability ----------------------------------------------------

    def counters(self) -> Dict[str, object]:
        out: Dict[str, object] = {name: list(getattr(self, name)) for name in _LEVEL_COUNTERS}
        states = [st for st in self._states if st is not None]
        out["dsu_inconsistencies"] = sum(st.dsu.inconsistencies for st in states)
        out["cover_updates"] = sum(st.cover.updates_issued for st in states)
        return out


class PairwiseDeltaComparator:
    """Comparison strategy precomputing approximations of all ancestor-pair
    distance differences over one sampled vertex set.

    Sampled marks hit every long descending path with high probability, so
    both comparison sides reduce to a marked-ancestor difference plus a
    short tail.  The marked-pair differences get best rational
    approximations (lazily, cached); tails stay exact.  Pairs whose tail
    exceeds the hop parameter fall back to exact arithmetic.
    """

    def __init__(
        self,
        capacity: int,
        hop_param: int,
        budget: WordBudget,
        gamma: float = _PAIRWISE_GAMMA,
        seed: int = 0,
    ):
        hop_param = _check_hop(hop_param)
        _check_constant("gamma", gamma)
        self.capacity = capacity
        self.h = hop_param
        self.bits = (2 * hop_param + 2) * budget.B + 1
        self.tree = IncTree(max_level=1)
        import numpy as np

        rng = np.random.default_rng(seed)
        want = min(capacity, math.ceil(gamma * (capacity / hop_param) * math.log2(max(capacity, 2))))
        picks = rng.permutation(max(capacity - 1, 0))[: max(want - 1, 0)]
        self._marked_slots = {int(p) + 1 for p in picks}  # root is always marked
        self._ra_cache: Dict[Tuple[int, int], object] = {}
        self.exact_fallbacks = 0
        self.pairs_computed = 0

    def insert_leaf(self, parent: int, weight: BigRational) -> int:
        slot = len(self.tree)
        if slot >= self.capacity:
            raise ValueError(f"tree is full at capacity {self.capacity}")
        level = 1 if slot in self._marked_slots else 0
        return self.tree.insert_leaf(parent, weight, level)

    def _ra(self, a: int, b: int):
        got = self._ra_cache.get((a, b))
        if got is None:
            rev = self._ra_cache.get((b, a))
            if rev is not None:
                got = rev.negated()
            else:
                tree = self.tree
                na, da = tree.pair(1, a)
                nb, db = tree.pair(1, b)
                ca, cb = cancel(da, db, tree.den_bits[a] + tree.den_bits[b])
                got = best_approx(BigRational(na * cb - nb * ca, ca * db), self.bits)
                self.pairs_computed += 1
            self._ra_cache[(a, b)] = got
        return got

    def compare(self, u: int, v: int, beta: BigRational) -> Ordering:
        """Order dist(root, u) - dist(root, v) against beta: from the table
        when both tails are within h hops and the shifted value's
        denominator is below 2^bits, else exactly."""
        from .cfrac import compare_via_approx

        tree = self.tree
        au = tree.nearest_marked_ancestor(u, 1)
        av = tree.nearest_marked_ancestor(v, 1)
        if tree.depth[u] - tree.depth[au] <= self.h and tree.depth[v] - tree.depth[av] <= self.h:
            shifted = beta + tree.path_weight(av, v) - tree.path_weight(au, u)
            if shifted.den < (1 << self.bits):
                return compare_via_approx(self._ra(au, av), shifted)
        self.exact_fallbacks += 1
        return _ORDERING_OF_SIGN[tree.exact_sign(u, v, beta)]

    def counters(self) -> Dict[str, int]:
        return {
            "pairs_computed": self.pairs_computed,
            "exact_fallbacks": self.exact_fallbacks,
        }
