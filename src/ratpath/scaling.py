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
The round graph changes only when an edge is pruned, so its adjacency
of (head, edge index) pairs, in edge order, is built once per live edge
set, and each round passes only its weight array.  Shortest distances
are unique, so the round potentials p_j do not depend on the relaxation
order.  The price sum_j p_j / 2^j is one shift-and-add integer per
vertex over a power of two; every reduced weight under it is at least
-2^-k, verified exactly before returning.  Any negative cycle met along
the way maps to the same vertex cycle in the input graph and is
re-verified with exact rational arithmetic.

The round loop is a deterministic machine over a finite state: the live
edge set, and the reduced weight and expansion remainder of each live
edge.  A round's potentials and the state it leaves for the next are a
function of its state alone, so once a state equals an earlier one the
rounds between them repeat forever: every later potential column is
known, and a repeated round can meet no negative cycle that its twin
missed.  The loop stops there, and `assemble_price` sums the repeated
block in closed form.  Short rational weights have periodic expansions
and repeat early.  The state update runs in place and reports whether
an edge left the live range; only then are the edge arrays compacted
to the live edges, the adjacency rebuilt and the state table cleared,
so the table only holds states of the current live set.  It keys each
state by its hash alone, and a matching hash is confirmed exactly: the
earlier state is replayed from the first state of the live set with
the stored potential columns.
"""

from __future__ import annotations

import numbers
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .graph import NegativeCycle, WeightedDigraph, _parent_cycle, check_eps_feasible, cycle_weight
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
    has weight `weights[i]`; the round loop builds the adjacency once per
    live edge set and passes each round's weights.  Returns (dist,
    parent, None) or (None, None, cycle); O(n*m) in the worst case.
    Each label carries the hop count of the walk that made it.  Labels
    only decrease strictly, so a walk of n hops repeats a vertex around a
    negative cycle.  From then on each update walks the parent graph,
    whose cycles are all negative and one of which forms after finitely
    many updates; that cycle is the witness.  A source outside [0, n),
    an adjacency without n lists or a weight array whose length is not
    the adjacency's edge count raise ValueError.
    """
    if not 0 <= s < n:
        raise ValueError(f"source {s} out of range")
    if len(adj) != n:
        raise ValueError(f"adjacency has {len(adj)} lists for {n} vertices")
    m = sum(map(len, adj))
    if len(weights) != m:
        raise ValueError(f"weight array length {len(weights)} differs from the {m} edges")
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


def _round_adjacency(n: int, tails: Sequence[int], heads: Sequence[int]) -> List[List[Tuple[int, int]]]:
    # (head, edge index) pairs per tail, in edge order.
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, t in enumerate(tails):
        adj[t].append((heads[i], i))
    return adj


def _advance(
    dist: Sequence[int],
    tails: Sequence[int],
    heads: Sequence[int],
    signs: Sequence[int],
    dens: Sequence[int],
    reduced: List[int],
    rems: List[int],
    limit: int,
    j: int,
) -> bool:
    """The state update after round j, in place: each remainder streams
    one more bit and each reduced weight takes the round's potentials.
    Returns whether some reduced weight now exceeds `limit`."""
    pruned = False
    for i in range(len(reduced)):
        r = rems[i] * 2
        bit = 1 if r >= dens[i] else 0
        rems[i] = r - bit * dens[i]
        nxt = 2 * (reduced[i] + dist[tails[i]] - dist[heads[i]]) + signs[i] * bit - 1
        if nxt < -2:
            raise AssertionError(f"reduced weight {nxt} below -2 at round {j + 1}")
        if nxt > limit:
            pruned = True
        reduced[i] = nxt
    return pruned


def _count_rounds(collect: Dict[str, int], rounds: int, solved: int) -> None:
    collect["scaling_rounds"] = collect.get("scaling_rounds", 0) + rounds
    collect["scaling_rounds_solved"] = collect.get("scaling_rounds_solved", 0) + solved


def _check_1_short(g: WeightedDigraph, budget: WordBudget) -> None:
    """Raise ValueError at the first edge of g, in list order, whose
    weight is not 1-short under `budget`."""
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

    The price has k+2 levels, one integer shortest-path round each on
    the graph augmented with a zero-weight super-source.  Each round
    leaves a state for the next: the live edges with their reduced
    weights and remainders.  The state determines every later round, so
    at the first state equal to an earlier one the rounds stop and the
    remaining levels repeat the period between them.  The round
    adjacency is built once per live edge set, and again after each
    prune.  The state table is cleared on each prune; its hash keys cost
    two tuple copies of the live arrays per round, and each hash match
    is confirmed by an exact replay before the loop stops.  The returned
    prices have denominators dividing 2^(k+1) and are verified exactly
    against every edge before returning.  `collect["scaling_rounds"]`
    counts the k+2 levels and `collect["scaling_rounds_solved"]` the
    rounds actually run.  A k that is not a non-negative integer or a
    weight that is not 1-short under `budget` raises ValueError.
    Internal contract violations raise AssertionError: they indicate a
    bug, not bad input.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"accuracy exponent must be a non-negative integer, got {k!r}")
    k = int(k)
    _check_1_short(g, budget)
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

    levels = k + 2
    limit = 4 * n  # prune bound on a reduced weight
    adj = _round_adjacency(n + 1, tails, heads)
    # The edge arrays hold the live edges only.  Hash of each state of the
    # current live set -> the round run from it, and the first of these
    # states, from which the others are replayed.
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
                _advance(cols[r], tails, heads, signs, dens, red, rem, limit, r)
            if red == reduced and rem == rems:
                period = j - earlier
                break
            seen[key] = j  # equal hashes of different states
        dist, _, cyc = integer_sssp_arrays(n + 1, adj, reduced, src)
        if cyc is not None:
            if collect is not None:
                _count_rounds(collect, j + 1, j + 1)
            w = cycle_weight(g, cyc)
            if w >= ZERO:
                raise AssertionError("round-level cycle does not map to a negative cycle")
            return NegativeCycle(cyc, w)
        if None in dist:
            raise AssertionError("super-source lost reachability; pruning bug")
        cols.append(dist)
        if j == k + 1:
            break
        if _advance(dist, tails, heads, signs, dens, reduced, rems, limit, j):
            kept = [i for i, w in enumerate(reduced) if w <= limit]
            tails, heads, signs, dens, reduced, rems = (
                [arr[i] for i in kept] for arr in (tails, heads, signs, dens, reduced, rems))
            adj = _round_adjacency(n + 1, tails, heads)
            seen.clear()
            anchor = (j + 1, reduced[:], rems[:])

    if collect is not None:
        _count_rounds(collect, levels, len(cols))
    price = assemble_price([col[:n] for col in cols], levels, period)
    eps = BigRational(1, 1 << k)
    if not check_eps_feasible(g, price, eps):
        raise AssertionError("assembled price function fails exact feasibility")
    return price

