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

All instances cluster the same graph, so the cover keeps the one
adjacency and the instances read it.  An edge (u, v) can move a vertex
of an instance only if it strictly drops dist[u] or dist[v], that is if
the two distances differ by at least 2; `ClusteringInstance.insert_edge`
tests this and starts the instance's propagation only then.  An instance
stores the member set of a cluster only once the cluster has gained a
vertex.  A cluster that never has holds its center alone, or nothing
once the center has moved away.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "sample_shift",
    "sample_shifts",
    "estc_static",
    "ClusteringInstance",
    "SparseCover",
]


def sample_shift(alpha: float, rng: np.random.Generator) -> int:
    """Geometric shift with tail P[X >= k] = e^(-alpha * k)."""
    return sample_shifts(1, alpha, rng)[0]


def sample_shifts(n: int, alpha: float, rng: np.random.Generator) -> List[int]:
    """n shifts from one draw of n uniforms; the same values, and the same
    generator state afterwards, as n successive sample_shift calls."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    floor, log = math.floor, math.log
    return [floor(-log(1.0 - r) / alpha) for r in rng.random(n).tolist()]


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
    plus hop count over all centers.  The instance keeps no adjacency:
    the caller keeps the inserted edges and passes that adjacency in.
    clusters holds the member set of every cluster that has gained a
    vertex; members() answers for the others.  bfs_work counts dequeued
    vertices, all of them real.
    """

    __slots__ = ("n", "shifts", "b_max", "dist", "center", "clusters", "moves", "bfs_work")

    def __init__(self, n: int, rng: np.random.Generator, alpha: float = 1.0):
        self.n = n
        self.shifts = sample_shifts(n, alpha, rng)
        self.b_max = max(self.shifts, default=0)
        start = self.b_max + 1
        self.dist = [start - b for b in self.shifts]
        self.center = list(range(n))
        self.clusters: Dict[int, Set[int]] = {}
        self.moves = 0
        self.bfs_work = 0

    def members(self, c: int) -> Set[int]:
        """The vertices whose center is c."""
        stored = self.clusters.get(c)
        if stored is not None:
            return set(stored)
        return {c} if self.center[c] == c else set()

    def insert_edge(self, adj: Sequence[Sequence[int]], u: int, v: int) -> List[Tuple[int, int, int]]:
        """Relay the edge (u, v), which adj already holds; returns (vertex,
        old center, new center) moves in the order they happen."""
        dist = self.dist
        if dist[u] + 1 < dist[v]:
            return self.propagate(adj, u, v)
        if dist[v] + 1 < dist[u]:
            return self.propagate(adj, v, u)
        return []

    def propagate(self, adj: Sequence[Sequence[int]], a: int, b: int) -> List[Tuple[int, int, int]]:
        """Drop b through its neighbor a, which requires dist[a] + 1 <
        dist[b], and carry the drop on over adj; returns the moves."""
        dist, center, clusters = self.dist, self.center, self.clusters
        out: List[Tuple[int, int, int]] = []
        # Every strict drop of y through x gives y the center of x, FIFO
        # as in a BFS from s; the first step scans the one edge a -> b.
        x, ys = a, (b,)
        drops: deque = deque()
        work = 0
        while True:
            d = dist[x] + 1
            c = center[x]
            for y in ys:
                if d < dist[y]:
                    dist[y] = d
                    old = center[y]
                    if old != c:
                        center[y] = c
                        left = clusters.get(old)
                        if left is not None:
                            left.discard(y)
                        # a cluster without a stored set has only ever
                        # held its center, so here x == c is still in it
                        joined = clusters.get(c)
                        if joined is None:
                            clusters[c] = {c, y}
                        else:
                            joined.add(y)
                        out.append((y, old, c))
                    drops.append(y)
            if not drops:
                break
            x = drops.popleft()
            ys = adj[x]
            work += 1
        self.bfs_work += work
        self.moves += len(out)
        return out


class SparseCover:
    """Union of several independent incremental clusterings.

    Set ids are (instance index, center vertex).  Every vertex sits in
    exactly one set per instance, so membership per vertex is bounded by
    the instance count at all times.  The cover keeps the one adjacency
    of the inserted edges, which all instances read.
    """

    __slots__ = ("n", "instances", "adj", "updates_issued", "edges_seen", "_edge_set")

    def __init__(self, n: int, lambda_: float, rng: np.random.Generator):
        if n < 1:
            raise ValueError("cover needs at least one vertex")
        import numpy as np

        count = max(1, math.ceil(lambda_ * math.log2(max(n, 2))))
        self.n = n
        # one draw of count seeds: the same values as count scalar draws
        self.instances = [
            ClusteringInstance(n, np.random.default_rng(seed))
            for seed in rng.integers(0, 2**63, size=count).tolist()
        ]
        self.adj: List[List[int]] = [[] for _ in range(n)]
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
        adj = self.adj
        adj[u].append(v)
        adj[v].append(u)
        updates: List[Tuple[Tuple[int, int], str, int]] = []
        for idx, inst in enumerate(self.instances):
            for x, old, new in inst.insert_edge(adj, u, v):
                updates.append(((idx, old), "remove", x))
                updates.append(((idx, new), "add", x))
        self.updates_issued += len(updates)
        return updates

    def common_set(self, u: int, v: int) -> Optional[Tuple[int, int]]:
        """Scan u's sets for one also containing v; None on covering failure."""
        for idx, inst in enumerate(self.instances):
            if inst.center[u] == inst.center[v]:
                return (idx, inst.center[u])
        return None

    def members(self, set_id: Tuple[int, int]) -> Set[int]:
        idx, center = set_id
        return self.instances[idx].members(center)

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
