"""Price functions by scaling: halve the feasibility error per round.

Each rational edge weight is streamed as a binary expansion.  Round j
works on the integer weights 2^j * (w truncated to j fractional bits) + 1,
reduced by twice the accumulated potential; the reduction keeps every
surviving weight in a small integer range.  Edges whose reduced weight
exceeds 4n can never lie on a shortest path or negative cycle at this or
any later round and are pruned.  The expansion remainders and the
reduced weights are Python ints, so the same round loop serves weights
of any magnitude and denominators of any width.

Each round is one call of `integer_sssp_arrays` from a zero-weight
super-source: FIFO label-correcting Bellman-Ford on exact ints, O(n*m)
in the worst case, with a parent-graph cycle as negative-cycle witness.
Shortest distances are unique, so the round potentials p_j do not depend
on the relaxation order.  The price sum_j p_j / 2^j is one shift-and-add
integer per vertex over a power of two; every reduced weight under it is
at least -2^-k, verified exactly before returning.  Any negative cycle
met along the way maps to the same vertex cycle in the input graph and
is re-verified with exact rational arithmetic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .graph import NegativeCycle, PriceFunction, WeightedDigraph, check_eps_feasible, cycle_weight
from .rational import BigRational, DEFAULT_BUDGET, WordBudget, ZERO, is_k_short, truncate_binary

__all__ = [
    "integer_sssp",
    "integer_sssp_arrays",
    "eps_feasible_price",
    "assemble_price",
    "scaled_weight",
]


def scaled_weight(w: BigRational, j: int) -> int:
    """Integer round-j weight: 2^j * (w truncated to j fractional bits) + 1."""
    t = truncate_binary(w, j)
    return ((t.num << j) // t.den) + 1


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


def integer_sssp_arrays(
    n: int,
    tails: Sequence[int],
    heads: Sequence[int],
    weights: Sequence[int],
    s: int,
) -> Tuple[Optional[List[Optional[int]]], Optional[List[int]], Optional[List[int]]]:
    """FIFO label-correcting Bellman-Ford on exact Python ints.

    Returns (dist, parent, None) or (None, None, cycle); O(n*m) in the
    worst case.  Each label carries the hop count of the walk that made
    it.  Labels only decrease strictly, so a walk of n hops repeats a
    vertex around a negative cycle.  From then on each update walks the
    parent graph, whose cycles are all negative and one of which forms
    after finitely many updates; that cycle is the witness.  This is the
    pluggable engine behind `integer_sssp` and the scaling rounds.
    """
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for t, h, w in zip(tails, heads, weights):
        adj[t].append((h, w))
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
        for v, w in adj[u]:
            d = du + w
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


def integer_sssp(
    g: WeightedDigraph, s: int
) -> Union[Tuple[List[Optional[int]], List[int]], NegativeCycle]:
    """Exact integer single-source distances, or a negative-cycle witness."""
    for e in g.edges:
        if e.weight.den != 1:
            raise ValueError("integer_sssp requires integral weights")
    dist, parent, cyc = integer_sssp_arrays(
        g.n,
        [e.tail for e in g.edges],
        [e.head for e in g.edges],
        [e.weight.num for e in g.edges],
        s,
    )
    if cyc is None:
        return dist, parent
    return NegativeCycle(cyc, cycle_weight(g, cyc))


def assemble_price(levels: Sequence[Sequence[int]]) -> PriceFunction:
    """Combine integer potentials: value(v) = sum_j levels[j][v] / 2^j.

    Each vertex gets one shift-and-add numerator over 2^(L-1), for L
    levels, and one reduction.
    """
    if not levels:
        raise ValueError("at least one potential level required")
    acc = [int(x) for x in levels[0]]
    for col in levels[1:]:
        acc = [(a << 1) + int(x) for a, x in zip(acc, col)]
    den = 1 << (len(levels) - 1)
    return PriceFunction([BigRational(a, den) for a in acc])


def eps_feasible_price(
    g: WeightedDigraph,
    k: int,
    budget: WordBudget = DEFAULT_BUDGET,
    collect: Optional[Dict[str, int]] = None,
) -> Union[PriceFunction, NegativeCycle]:
    """A 2^-k-feasible price function of g, or a negative-cycle witness.

    Runs k+2 integer shortest-path rounds on the graph augmented with a
    zero-weight super-source.  The returned prices have denominators
    dividing 2^(k+1) and are verified exactly against every edge before
    returning.  Internal contract violations raise: they indicate a bug,
    not bad input.
    """
    if k < 0:
        raise ValueError("accuracy exponent must be non-negative")
    for e in g.edges:
        if not is_k_short(e.weight, 1, budget):
            raise ValueError(f"edge weight {e.weight} is not 1-short under B={budget.B}")
    n = g.n
    src = n  # super-source
    m = g.m
    total = m + n
    tails = [e.tail for e in g.edges] + [src] * n
    heads = [e.head for e in g.edges] + list(range(n))

    signs = [1] * total
    rems = [0] * total
    dens = [1] * total
    reduced: List[int] = [1] * total  # super-source edges stay at round weight 1
    for idx, e in enumerate(g.edges):
        num, den = e.weight.num, e.weight.den
        signs[idx] = 1 if num >= 0 else -1
        a = -num if num < 0 else num
        q0, r = divmod(a, den)
        rems[idx] = r
        dens[idx] = den
        reduced[idx] = (q0 if num >= 0 else -q0) + 1

    live = list(range(total))
    cols: List[List[int]] = []
    for j in range(k + 2):
        dist, _, cyc = integer_sssp_arrays(
            n + 1, [tails[i] for i in live], [heads[i] for i in live],
            [reduced[i] for i in live], src,
        )
        if collect is not None:
            collect["scaling_rounds"] = collect.get("scaling_rounds", 0) + 1
        if cyc is not None:
            w = cycle_weight(g, cyc)
            if w >= ZERO:
                raise AssertionError("round-level cycle does not map to a negative cycle")
            return NegativeCycle(cyc, w)
        if None in dist:
            raise AssertionError("super-source lost reachability; pruning bug")
        cols.append(dist)
        if j == k + 1:
            break
        survivors = []
        for i in live:
            r = rems[i] * 2
            bit = 1 if r >= dens[i] else 0
            rems[i] = r - bit * dens[i]
            nxt = 2 * (reduced[i] + dist[tails[i]] - dist[heads[i]]) + signs[i] * bit - 1
            if nxt < -2:
                raise AssertionError(f"reduced weight {nxt} below -2 at round {j + 1}")
            if nxt <= 4 * n:
                survivors.append(i)
            reduced[i] = nxt
        live = survivors

    price = assemble_price([col[:n] for col in cols])
    eps = BigRational(1, 1 << k)
    if not check_eps_feasible(g, price, eps):
        raise AssertionError("assembled price function fails exact feasibility")
    return price
