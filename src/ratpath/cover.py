"""Exponential start-time clustering and the incremental sparse edge cover.

Each clustering instance draws a geometric shift b_v per vertex and
assigns every vertex to the center minimizing hop-distance minus shift.
Equivalently, picture a *shifted graph*: a fresh source s attached to each
vertex v by a path of length L_v = b_max + 1 - b_v, and let v's center be
the vertex whose attachment path begins the shortest s -> v route.  Under
edge insertions an incremental BFS from s maintains that route: whenever
the first hop of v's route changes (only on a strict drop of v's
distance, so ties keep the older route), v moves between clusters.

The instance never builds the attachment paths.  It runs the same BFS as
a multi-source BFS with staggered start times over the n real vertices:
dist[v] starts at L_v, center[v] at v, and the adjacency holds the
inserted edges only.  Distances, centers and the ordered list of moves
equal those of the BFS over the materialized shifted graph, because:

* An interior path vertex has degree 2, and one end of its path is s at
  distance 0.  A shortest route to a real vertex never enters another
  vertex's path from the real end, since it could only leave again at s.
  So dist[y] = min over centers c of L_c + hop(c, y), and the first hop
  of the route is the entry of the path of center[y].
* The last interior vertex of y's own path sits at distance at least
  min(L_y - 1, dist[y] + 1) >= dist[y] - 1, because dist[y] <= L_y; it
  never lowers dist[y].
* So real vertices are dropped by real vertices only, and interior
  vertices only ever drop each other along one path.  Leaving the
  interior vertices out of the FIFO keeps the relative order in which
  real vertices are dequeued, and with it every first hop and move.
* A strict drop of y through x gives y the first hop of x, that is
  center[y] = center[x]; the first hop changes exactly when the center
  does.

A sparse edge cover stacks several independent clustering instances, so
with decent probability the endpoints of every inserted edge land
together in at least one cluster, while every vertex belongs to exactly
one cluster per instance.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "sample_shift",
    "sample_shifts",
    "estc_static",
    "ClusteringInstance",
    "SparseCover",
]


def _shift(r: float, alpha: float) -> int:
    """The geometric shift of one uniform draw r in [0, 1)."""
    return math.floor(-math.log(1.0 - r) / alpha)


def sample_shift(alpha: float, rng: np.random.Generator) -> int:
    """Geometric shift with tail P[X >= k] = e^(-alpha * k)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _shift(rng.random(), alpha)


def sample_shifts(n: int, alpha: float, rng: np.random.Generator) -> List[int]:
    """n shifts from one draw of n uniforms; the same values, and the same
    generator state afterwards, as n successive sample_shift calls."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return [_shift(r, alpha) for r in rng.random(n).tolist()]


def estc_static(
    adjacency: Sequence[Sequence[int]],
    alpha: float,
    rng: Optional[np.random.Generator] = None,
    shifts: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[int]]:
    """One-shot clustering of an undirected graph given as adjacency lists.

    Returns (centers, shifts): centers[v] is the vertex minimizing
    hop-distance(v, w) - shift(w); ties break toward the lowest center id,
    unreachable candidates never win.
    """
    n = len(adjacency)
    if shifts is None:
        if rng is None:
            raise ValueError("either shifts or an rng must be supplied")
        shifts = sample_shifts(n, alpha, rng)
    else:
        shifts = list(shifts)
        if len(shifts) != n:
            raise ValueError("one shift per vertex required")
    centers = list(range(n))
    best = [-shifts[v] for v in range(n)]  # delta(v, v) - b_v
    # BFS from each candidate center; lowest center id wins ties.
    for w in range(n):
        dist = [-1] * n
        dist[w] = 0
        q = deque([w])
        while q:
            x = q.popleft()
            for y in adjacency[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    q.append(y)
        for v in range(n):
            if dist[v] < 0:
                continue
            score = dist[v] - shifts[w]
            if score < best[v] or (score == best[v] and w < centers[v]):
                best[v] = score
                centers[v] = w
    return centers, shifts


class ClusteringInstance:
    """One incremental clustering over n real vertices.

    dist[v] is the shifted-graph distance of v: its start time
    b_max + 1 - b_v until edges arrive, afterwards the least start time
    plus hop count over all centers.  adj holds the inserted edges only.
    bfs_work counts dequeued vertices, all of them real.
    """

    __slots__ = ("n", "shifts", "b_max", "dist", "center", "clusters", "adj", "moves", "bfs_work")

    def __init__(self, n: int, rng: np.random.Generator, alpha: float = 1.0):
        self.n = n
        self.shifts = sample_shifts(n, alpha, rng)
        self.b_max = max(self.shifts, default=0)
        start = self.b_max + 1
        self.dist = [start - b for b in self.shifts]
        self.center = list(range(n))
        self.clusters: Dict[int, Set[int]] = {v: {v} for v in range(n)}
        self.adj: List[List[int]] = [[] for _ in range(n)]
        self.moves = 0
        self.bfs_work = 0

    def insert_edge(self, u: int, v: int) -> List[Tuple[int, int, int]]:
        """Relay an edge of the clustered graph; returns (vertex, old
        center, new center) moves in the order they happen."""
        adj, dist = self.adj, self.dist
        adj[u].append(v)
        adj[v].append(u)
        if dist[u] + 1 < dist[v]:
            a, b = u, v
        elif dist[v] + 1 < dist[u]:
            a, b = v, u
        else:
            return []
        center, clusters = self.center, self.clusters
        out: List[Tuple[int, int, int]] = []
        # b drops through a; afterwards every strict drop of y through a
        # dequeued x gives y the center of x, FIFO as in a BFS from s.
        dist[b] = dist[a] + 1
        drops = deque((b,))
        c, old = center[a], center[b]
        if c != old:
            center[b] = c
            clusters[old].discard(b)
            clusters[c].add(b)
            out.append((b, old, c))
        work = 0
        while drops:
            x = drops.popleft()
            work += 1
            d = dist[x] + 1
            c = center[x]
            for y in adj[x]:
                if d < dist[y]:
                    dist[y] = d
                    old = center[y]
                    if old != c:
                        center[y] = c
                        clusters[old].discard(y)
                        clusters[c].add(y)
                        out.append((y, old, c))
                    drops.append(y)
        self.bfs_work += work
        self.moves += len(out)
        return out


class SparseCover:
    """Union of several independent incremental clusterings.

    Set ids are (instance index, center vertex).  Every vertex sits in
    exactly one set per instance, so membership per vertex is bounded by
    the instance count at all times.
    """

    __slots__ = ("n", "instances", "updates_issued", "edges_seen", "_edge_set")

    def __init__(self, n: int, lambda_: float, rng: np.random.Generator, alpha: float = 1.0):
        if n < 1:
            raise ValueError("cover needs at least one vertex")
        count = max(1, math.ceil(lambda_ * math.log2(max(n, 2))))
        self.n = n
        self.instances = [
            ClusteringInstance(n, np.random.default_rng(rng.integers(0, 2**63)), alpha)
            for _ in range(count)
        ]
        self.updates_issued = 0
        self.edges_seen = 0
        self._edge_set: Set[Tuple[int, int]] = set()

    @property
    def instance_count(self) -> int:
        return len(self.instances)

    def insert_edge(self, u: int, v: int) -> List[Tuple[Tuple[int, int], str, int]]:
        """Insert an edge; repeats are ignored.  Returns the elementary
        updates ((instance, center), "remove"/"add", vertex) in order."""
        if u == v:
            raise ValueError("self-loops are not part of the cover graph")
        key = (min(u, v), max(u, v))
        if key in self._edge_set:
            return []
        self._edge_set.add(key)
        self.edges_seen += 1
        updates: List[Tuple[Tuple[int, int], str, int]] = []
        for idx, inst in enumerate(self.instances):
            for x, old, new in inst.insert_edge(u, v):
                updates.append(((idx, old), "remove", x))
                updates.append(((idx, new), "add", x))
        self.updates_issued += len(updates)
        return updates

    def sets_of(self, v: int) -> List[Tuple[int, int]]:
        return [(idx, inst.center[v]) for idx, inst in enumerate(self.instances)]

    def common_set(self, u: int, v: int) -> Optional[Tuple[int, int]]:
        """Scan u's sets for one also containing v; None on covering failure."""
        for idx, inst in enumerate(self.instances):
            if inst.center[u] == inst.center[v]:
                return (idx, inst.center[u])
        return None

    def members(self, set_id: Tuple[int, int]) -> Set[int]:
        idx, center = set_id
        return set(self.instances[idx].clusters.get(center, ()))

    def membership_counts(self) -> List[int]:
        return [self.instance_count] * self.n

    def counters(self) -> Dict[str, int]:
        """Totals over all instances.  bfs_work counts dequeued vertices,
        which are all real: the attachment paths of the shifted graph are
        never built, so their interior vertices are never dequeued."""
        return {
            "instances": self.instance_count,
            "edges": self.edges_seen,
            "updates": self.updates_issued,
            "beta_changes": sum(inst.moves for inst in self.instances),
            "bfs_work": sum(inst.bfs_work for inst in self.instances),
        }
