"""Price functions by scaling, in closed form.

Goldberg's bit scaling with +1 rounding runs k+2 rounds, one integer
shortest-path problem each, on the weights

    T_j(e) = sgn(w) * floor(2^j * |w|) + 1,

round j reducing T_j by twice the potential of the rounds before it.
The rounds telescope.  Write D_j for the exact integer distances under
T_j from a zero-weight super-source (its edges weigh T_j = 1).  Round j
solves T_j shifted by 2*Phi_j, for Phi_0 = 0 and Phi_{j+1} = 2*Phi_j +
d_j, with d_j its own distances.  A potential shift does not change
shortest paths, so d_j = D_j - 2*Phi_j and Phi_{j+1} = D_j: the price
sum_j d_j / 2^j of the k+2 rounds is exactly D_{k+1} / 2^(k+1).  Every
reduced weight under it is at least -2^-k, verified exactly on the
integer distances before returning.

So the price is one call of `integer_sssp_arrays` on T_{k+1} over all
edges and the n super-source edges: FIFO label-correcting Bellman-Ford
on exact ints, with a parent-graph cycle as negative-cycle witness.
Negative cycles are the same as the rounds'.  T_{j+1}(e) <= 2*T_j(e),
so a cycle negative at some round is negative at round k+1; and
T_{k+1}(e) > 2^(k+1) * w(e), so a cycle negative under T_{k+1} is
negative in the input graph, where its weight is re-verified with
exact rational arithmetic.

For weights 1-short under a budget of B bits, |T_{k+1}(e)| < 2^(k+B)
+ 1 and every distance has at most (k+1) + B + ceil(log2 n) bits.  The
call makes O(n*m) relaxations on integers of that width, so its word
operations stay within those of the k+2 rounds of O(n*m) small-integer
relaxations it replaces.  The distances are the price numerators
themselves, over 2^(k+1): no integer is wider than the price it
returns, and `sssp.cut_preprocess` takes them as they are, with no
rational built.
"""

from __future__ import annotations

import numbers
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .graph import NegativeCycle, WeightedDigraph, _parent_cycle, cycle_weight
from .rational import BigRational, DEFAULT_BUDGET, WordBudget, ZERO, is_k_short

__all__ = [
    "integer_sssp_arrays",
    "eps_feasible_price",
    "assemble_price",
]


def integer_sssp_arrays(
    n: int,
    adj: Sequence[Sequence[Tuple[int, int]]],
    weights: Sequence[int],
    s: int,
) -> Tuple[Optional[List[Optional[int]]], Optional[List[int]], Optional[List[int]]]:
    """FIFO label-correcting Bellman-Ford on exact Python ints.

    `adj[u]` lists u's out-edges as (head, edge index) pairs, and edge i
    has weight `weights[i]`.  Returns (dist, parent, None) or (None,
    None, cycle); O(n*m) in the worst case.  Each label carries the hop
    count of the walk that made it.  Labels only decrease strictly, so a
    walk of n hops repeats a vertex around a negative cycle.  From then
    on each update walks the parent graph, whose cycles are all negative
    and one of which forms after finitely many updates; that cycle is
    the witness.  A source outside [0, n), an adjacency without n lists,
    a weight array whose length is not the adjacency's edge count, a
    head outside [0, n) or an edge index outside [0, len(weights)) raise
    ValueError.
    """
    if not 0 <= s < n:
        raise ValueError(f"source {s} out of range")
    if len(adj) != n:
        raise ValueError(f"adjacency has {len(adj)} lists for {n} vertices")
    m = sum(map(len, adj))
    if len(weights) != m:
        raise ValueError(f"weight array length {len(weights)} differs from the {m} edges")
    for u, out in enumerate(adj):
        for v, i in out:
            if not 0 <= v < n:
                raise ValueError(f"edge {i} of vertex {u} has head {v} out of range")
            if not 0 <= i < m:
                raise ValueError(f"edge index {i} of vertex {u} out of range")
    dist: List[Optional[int]] = [None] * n
    parent = [-1] * n
    hops = [0] * n
    queued = [False] * n
    dist[s] = 0
    queued[s] = True
    queue = deque([s])
    cyclic = False
    while queue:
        u = queue.popleft()
        queued[u] = False
        du = dist[u]
        hu = hops[u] + 1
        for v, i in adj[u]:
            d = du + weights[i]
            dv = dist[v]
            if dv is not None and d >= dv:
                continue
            dist[v] = d
            parent[v] = u
            hops[v] = hu
            if cyclic or hu >= n:
                cyclic = True
                cycle = _parent_cycle(parent, v)
                if cycle is not None:
                    return None, None, cycle
            if not queued[v]:
                queued[v] = True
                queue.append(v)
    return dist, parent, None


def _shift_add(acc: List[int], levels: Sequence[Sequence[int]]) -> List[int]:
    for col in levels:
        acc = [(a << 1) + x for a, x in zip(acc, col)]
    return acc


def assemble_price(
    levels: Sequence[Sequence[int]],
    total: Optional[int] = None,
    period: Optional[int] = None,
) -> List[BigRational]:
    """Combine integer potentials: the price of v is sum_j col_j[v] / 2^j.

    There are `total` columns (default len(levels)).  The first
    len(levels) are the given levels; past them the last `period` levels
    (default all of them) repeat in order, so column j is
    levels[first + (j - first) % period] for first = len(levels) - period.
    Each vertex gets one shift-and-add numerator over 2^(total-1): the
    prefix and one block are shifted in column by column, and the r full
    repeats of the block collapse into the geometric-series factor
    (2^(r*period) - 1) // (2^period - 1).  The levels hold Python ints,
    one per vertex each, and are summed without conversion: levels of
    unequal length, or whose first entry is not an int (a NumPy integer
    would wrap at 64 bits), raise ValueError.
    """
    if not levels:
        raise ValueError("at least one potential level required")
    width = len(levels[0])
    for col in levels:
        if len(col) != width:
            raise ValueError("potential levels differ in length")
        if width and type(col[0]) is not int:
            raise ValueError(f"potential levels must hold Python ints, got {type(col[0]).__name__}")
    if total is None:
        total = len(levels)
    if period is None:
        period = len(levels)
    if not 1 <= period <= len(levels) or total < len(levels):
        raise ValueError("period must lie in 1..len(levels) and total cover every level")
    first = len(levels) - period
    reps, tail = divmod(total - first, period)
    zeros = [0] * width
    prefix = _shift_add(zeros, levels[:first])
    partial = _shift_add(zeros, levels[first:first + tail])
    block = _shift_add(partial, levels[first + tail:])
    span = reps * period
    factor = ((1 << span) - 1) // ((1 << period) - 1)
    acc = [(((a << span) + b * factor) << tail) + r for a, b, r in zip(prefix, block, partial)]
    den = 1 << (total - 1)
    return [BigRational(a, den) for a in acc]


def _check_1_short(g: WeightedDigraph, budget: WordBudget) -> None:
    """Raise ValueError at the first edge of g, in list order, whose
    weight is not 1-short under `budget`.

    One pass ORs every |num| and den: the OR is below 2^(B-1) iff each
    of them is, so only a wider OR scans for the failing edge.
    """
    acc = 0
    for e in g.edges:
        w = e.weight
        acc |= w.den | abs(w.num)
    if acc >> (budget.B - 1):
        for e in g.edges:
            if not is_k_short(e.weight, 1, budget):
                raise ValueError(f"edge weight {e.weight} is not 1-short under B={budget.B}")


def eps_feasible_price(
    g: WeightedDigraph,
    k: int,
    budget: WordBudget = DEFAULT_BUDGET,
    collect: Optional[Dict[str, int]] = None,
) -> Union[List[BigRational], NegativeCycle]:
    """A 2^-k-feasible price of g, one value per vertex, or a negative-cycle
    witness.

    The price of v is D(v) / 2^(k+1), for D the exact integer distances
    from a super-source under the weights T_{k+1}(e) = sgn(w) *
    floor(2^(k+1) * |w|) + 1 and weight 1 on the super-source edges: the
    k+2 levels of bit scaling in closed form (see the module docstring).
    It is verified exactly against every edge before returning.  A cycle
    of the Bellman-Ford parent graph is returned as a `NegativeCycle`
    with its exact weight in g.  `collect["scaling_rounds"]` counts the
    k+2 levels on both outcomes.  A k that is not a non-negative integer
    or a weight that is not 1-short under `budget` raises ValueError.
    Internal contract violations raise AssertionError: they indicate a
    bug, not bad input.
    """
    res = _price_numerators(g, k, budget, collect)
    if isinstance(res, NegativeCycle):
        return res
    den = 1 << (int(k) + 1)
    return [BigRational(d, den) for d in res]


def _price_numerators(
    g: WeightedDigraph, k: int, budget: WordBudget, collect
) -> Union[List[int], NegativeCycle]:
    """The integers D behind `eps_feasible_price`, one per vertex, the
    price of v being D(v) / 2^(k+1), or its negative-cycle witness;
    checks its arguments, counts and raises as `eps_feasible_price`.

    Its one pass over the edges ORs every |num| and den as it goes and
    calls `_check_1_short`, which names the first failing edge, only
    when the OR is 2^(B-1) or more.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"accuracy exponent must be a non-negative integer, got {k!r}")
    k = int(k)
    n, m = g.n, g.m
    shift = k + 1
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    wide = 0
    weights = []
    # floors[i] = floor(2^shift * w) of edge i: T_shift - 1, less one for
    # a negative w whose scaled value is not an integer.
    floors = []
    for i, e in enumerate(g.edges):
        u, v, w = e.tail, e.head, e.weight
        num, den = w.num, w.den
        wide |= den | (num if num >= 0 else -num)
        floor, rem = divmod(num << shift, den)
        floors.append(floor)
        weights.append(floor + 2 if num < 0 and rem else floor + 1)
        adj[u].append((v, i))
    if wide >> (budget.B - 1):
        _check_1_short(g, budget)
    # The super-source n, its edge to v weighing 1.
    adj.append([(v, m + v) for v in range(n)])
    weights += [1] * n
    if collect is not None:
        collect["scaling_rounds"] = collect.get("scaling_rounds", 0) + k + 2
    dist, _, cyc = integer_sssp_arrays(n + 1, adj, weights, n)
    if cyc is not None:
        w = cycle_weight(g, cyc)
        if w >= ZERO:
            raise AssertionError("scaled cycle does not map to a negative cycle")
        return NegativeCycle(cyc, w)
    if not _price_certified(g, dist, floors):
        raise AssertionError("scaled price function fails exact feasibility")
    return dist[:n]


def _price_certified(g: WeightedDigraph, dist: Sequence[int], floors: Sequence[int]) -> bool:
    """Whether the price D / 2^shift is 2^-(shift-1)-feasible, decided on
    the ints D = `dist` and `floors[i]` = floor(2^shift * w) for the
    weight w of edge i of g: the `check_eps_feasible` test with no
    rational built.

    An edge u->v of weight w has reduced weight w + (D(u) - D(v)) / 2^shift
    >= -2^-(shift-1) iff D(v) - D(u) - 2 <= 2^shift * w, iff D(v) - D(u) - 2
    <= floor(2^shift * w) since the left side is an integer.
    `eps_feasible_price` hands over that floor from its weight loop, where
    T_shift(e) = sgn(w) * floor(2^shift * |w|) + 1 is the floor plus one,
    plus one more when w < 0 and 2^shift * w is not an integer.
    """
    for e, floor in zip(g.edges, floors):
        if dist[e.head] - dist[e.tail] - 2 > floor:
            return False
    return True
