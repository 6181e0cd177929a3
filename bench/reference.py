"""A fixed reference routine that measures how fast the machine runs now.

Shared hosts slow a process down by up to about 1.8x for seconds to
minutes at a time, as neighbours load the caches and cores.  The benchmark
runs this routine next to every instance it times and reports each time
scaled to the speed at which the routine takes `NOMINAL_S`: a reported
time is the wall time multiplied by NOMINAL_S over the median time of the
nearby reference runs.  The raw wall times are printed as well.

The routine does the kind of work ratpath does, with the standard library
only: an exact Dijkstra with `fractions.Fraction` weights and `heapq` over
a pool of fixed random graphs (walked in turn, so the data is not always
in cache), plus arithmetic on integers of ~150k bits.  It never calls
ratpath, so no change to ratpath can move it.
"""

from __future__ import annotations

import heapq
import random
import statistics
from fractions import Fraction
from time import perf_counter

# Median reference time on a quiet 2-CPU x86_64 host with Python 3.11.
NOMINAL_S = 0.002

_POOL_SIZE = 64
HALF_WINDOW = 3


def _pool():
    rng = random.Random(12345)
    pool = []
    for _ in range(_POOL_SIZE):
        n = 40
        adj = [[] for _ in range(n)]
        for _ in range(4 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].append((v, Fraction(rng.randint(1, 16), rng.randint(1, 16))))
        pool.append(adj)
    return pool


_POOL = _pool()
_BIG = (1 << 150_000) // 7


def _dijkstra(adj):
    dist = {0: Fraction(0)}
    heap = [(Fraction(0), 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _bigints():
    a = _BIG
    for i in range(8):
        b = (a * (3 + i)) // (5 + i)
        a = a + b - (b >> 3)
    return a


class Probe:
    """Times the reference routine; each call uses the next two graphs."""

    def __init__(self):
        self._next = 0

    def __call__(self):
        t0 = perf_counter()
        for _ in range(2):
            _dijkstra(_POOL[self._next])
            self._next = (self._next + 1) % _POOL_SIZE
        _bigints()
        return perf_counter() - t0


def scales(probes):
    """Per position, NOMINAL_S over the median of the probes within
    HALF_WINDOW positions: the factor for times taken next to it."""
    out = []
    for i in range(len(probes)):
        window = probes[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        out.append(NOMINAL_S / statistics.median(window))
    return out
