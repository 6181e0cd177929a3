"""Incremental rooted out-tree with exact descending-path-weight queries.

Nodes are appended as leaves and never move.  Each node carries an
integer level assigned at insertion; for every level i the tree answers
the nearest ancestor of level >= i (the node itself when its own level
qualifies) in amortized constant time, from a per-level array that the
first query at that level after an insertion extends over the new nodes.
Path weights are summed with balanced pairing so a k-hop query costs
near-linear time in the bits involved.

The tree holds the one exact memo of the comparators built on it:
unreduced path pairs per level (`pair`, the root distances at
max_level), the bound `den_bits` on their denominators, and `exact_sign`.
`cancel` is the one rule for when two such denominators are divided by
their gcd before they are cross-multiplied.

Reads fill memos (the root pairs of `pair`, the ancestor arrays), so all
access, reads included, must be serialized by the owner.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Tuple

from .rational import BigRational, ZERO, sum_balanced

__all__ = ["IncTree", "NotAnAncestorError"]

# Two root-pair denominators of at most this many bits together are
# cross-multiplied as they are: a gcd costs more than it saves on them.
GCD_BITS = 256


def cancel(d1: int, d2: int, bits: int) -> Tuple[int, int]:
    """d1 and d2 divided by their gcd when `bits`, a bound on their bit
    lengths summed, is above `GCD_BITS`, else as they are.  On a deep
    tree the shared root-path product is most of both denominators."""
    if bits > GCD_BITS:
        g = gcd(d1, d2)
        return d1 // g, d2 // g
    return d1, d2


class NotAnAncestorError(ValueError):
    pass


class IncTree:
    """Rooted out-tree under leaf insertions; node ids are dense ints.

    The root is node 0 and carries the maximum level.
    """

    __slots__ = ("max_level", "parent", "weight", "depth", "level", "den_bits", "_anc", "_pairs")

    def __init__(self, max_level: int):
        if max_level < 0:
            raise ValueError("max_level must be non-negative")
        self.max_level = max_level
        self.parent: List[int] = [-1]
        self.weight: List[BigRational] = [ZERO]
        self.depth: List[int] = [0]
        self.level: List[int] = [max_level]
        # den_bits[v]: the bit lengths of the weight denominators on the root
        # path of v, summed; their product, v's root pair den, is <= 2^den_bits[v].
        self.den_bits: List[int] = [0]
        # _anc[i][v]: nearest ancestor of v (inclusive) with level >= i, for
        # v below len(_anc[i]); `_anc_at` extends it over later nodes.
        self._anc: List[List[int]] = [[0] for _ in range(max_level + 1)]
        self._pairs: List[Dict[int, Tuple[int, int]]] = [{0: (0, 1)} for _ in range(max_level + 1)]

    def __len__(self):
        return len(self.parent)

    @property
    def root(self) -> int:
        return 0

    def insert_leaf(self, parent: int, weight: BigRational, level: int = 0) -> int:
        v = len(self.parent)
        if not 0 <= parent < v:
            raise KeyError(f"unknown parent node {parent}")
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} out of range 0..{self.max_level}")
        self.parent.append(parent)
        self.weight.append(weight)
        self.depth.append(self.depth[parent] + 1)
        self.level.append(level)
        self.den_bits.append(self.den_bits[parent] + weight.den.bit_length())
        return v

    def _check_node(self, v: int) -> None:
        """ValueError unless v is a node id; -1 is not the last node."""
        if not 0 <= v < len(self.parent):
            raise ValueError(f"node {v} out of range 0..{len(self.parent) - 1}")

    def _anc_at(self, level: int) -> List[int]:
        """The level's ancestor array, first extended over every node
        inserted since it was last read: a parent precedes its child."""
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} out of range 0..{self.max_level}")
        anc = self._anc[level]
        parent = self.parent
        if len(anc) < len(parent):
            node_level = self.level
            for v in range(len(anc), len(parent)):
                anc.append(v if node_level[v] >= level else anc[parent[v]])
        return anc

    def nearest_marked_ancestor(self, v: int, level: int) -> int:
        """Nearest ancestor of v (v itself included) with level >= `level`."""
        anc = self._anc_at(level)
        self._check_node(v)
        return anc[v]

    def nearest_strict_marked_ancestor(self, v: int, level: int) -> int:
        """Nearest proper ancestor of v with level >= `level`."""
        anc = self._anc_at(level)
        self._check_node(v)
        if v == 0:
            raise NotAnAncestorError("the root has no proper ancestor")
        return anc[self.parent[v]]

    def path_weight(self, ancestor: int, descendant: int) -> BigRational:
        """Exact weight of the descending path ancestor -> descendant."""
        self._check_node(ancestor)
        self._check_node(descendant)
        steps = self.depth[descendant] - self.depth[ancestor]
        if steps < 0:
            raise NotAnAncestorError(f"{ancestor} is not an ancestor of {descendant}")
        weights = []
        v = descendant
        for _ in range(steps):
            weights.append(self.weight[v])
            v = self.parent[v]
        if v != ancestor:
            raise NotAnAncestorError(f"{ancestor} is not an ancestor of {descendant}")
        weights.reverse()
        return sum_balanced(weights)

    def pair(self, lvl: int, v: int) -> Tuple[int, int]:
        """Unreduced (num, den) of the path weight to v from its nearest
        ancestor of level >= lvl, v included, or from the root alone at
        max_level, which non-root nodes can carry.  Memoized along the walk;
        den is the product of the weight denominators.  Unchecked: v comes
        from `insert_leaf`, and this runs on every heap comparison."""
        memo = self._pairs[lvl]
        level, parent, weight = self.level, self.parent, self.weight
        top = lvl + (lvl == self.max_level)  # at max_level only the memoized root stops
        chain = []
        x = v
        while x not in memo and level[x] < top:
            chain.append(x)
            x = parent[x]
        num, den = memo.get(x, (0, 1))
        for y in reversed(chain):
            w = weight[y]
            num, den = num * w.den + w.num * den, den * w.den
            memo[y] = (num, den)
        return num, den

    def exact_sign(self, u: int, v: int, beta: BigRational) -> int:
        """sign(dist(u) - dist(v) - beta) from the root pairs of u and v,
        their denominators first put through `cancel` on the `den_bits`
        bound.  Unchecked, like `pair`."""
        top = self.max_level
        memo = self._pairs[top]
        nu, du = memo.get(u) or self.pair(top, u)
        nv, dv = memo.get(v) or self.pair(top, v)
        cu, cv = cancel(du, dv, self.den_bits[u] + self.den_bits[v])
        x = (nu * cv - nv * cu) * beta.den - beta.num * cu * dv
        return (x > 0) - (x < 0)
