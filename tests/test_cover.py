import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from ratpath.cover import (
    ClusteringInstance,
    SparseCover,
    estc_static,
    sample_shift,
    sample_shifts,
)


def relay(inst, adjacency, u, v):
    """Drive a standalone instance: the caller keeps the adjacency."""
    adjacency[u].append(v)
    adjacency[v].append(u)
    return inst.insert_edge(adjacency, u, v)


def bfs_dist(adjacency, s):
    dist = [-1] * len(adjacency)
    dist[s] = 0
    q = deque([s])
    while q:
        x = q.popleft()
        for y in adjacency[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


class IncrementalBfs:
    """Reference: BFS tree from a fixed source s under edge insertions.

    Tracks, for every vertex v != s, a neighbor beta_v of s on some current
    shortest s -> v path; beta_v changes only when dist(v) strictly drops.
    """

    def __init__(self, adjacency, s):
        self.s = s
        self.adj = [list(nb) for nb in adjacency]
        self.dist = [-1] * len(adjacency)
        self.beta = [None] * len(adjacency)
        self.work_counter = 0
        self.real_work = 0  # dequeues of vertices below s
        self.dist[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for y in self.adj[x]:
                if self.dist[y] < 0:
                    self.dist[y] = self.dist[x] + 1
                    self.beta[y] = y if x == s else self.beta[x]
                    q.append(y)
        if any(d < 0 for d in self.dist):
            raise ValueError("initial graph must be connected")

    def insert(self, u, v):
        """Insert the undirected edge (u, v); returns (vertex, new beta)
        for every vertex whose beta changed."""
        self.adj[u].append(v)
        self.adj[v].append(u)
        changes = []
        drops = deque()
        for a, b in ((u, v), (v, u)):
            if self.dist[a] + 1 < self.dist[b]:
                self.dist[b] = self.dist[a] + 1
                nb = b if a == self.s else self.beta[a]
                if nb != self.beta[b]:
                    self.beta[b] = nb
                    changes.append((b, nb))
                drops.append(b)
        while drops:
            x = drops.popleft()
            self.work_counter += 1
            self.real_work += x < self.s
            for y in self.adj[x]:
                if self.dist[x] + 1 < self.dist[y]:
                    self.dist[y] = self.dist[x] + 1
                    nb = y if x == self.s else self.beta[x]
                    if nb != self.beta[y]:
                        self.beta[y] = nb
                        changes.append((y, nb))
                    drops.append(y)
        return changes


class ReferenceInstance:
    """Reference clustering instance over the materialized shifted graph:
    source s = n, then the interior vertices of every attachment path;
    entry_of[v] is the neighbor of s on v's own path.  Shifts come from
    n successive sample_shift calls."""

    def __init__(self, n, rng, alpha=1.0):
        self.n = n
        self.shifts = [sample_shift(alpha, rng) for _ in range(n)]
        self.b_max = max(self.shifts, default=0)
        adjacency = [[] for _ in range(n)]
        self.entry_of = [0] * n
        self.center_of_entry = {}

        def new_vertex():
            adjacency.append([])
            return len(adjacency) - 1

        s = new_vertex()
        for v in range(n):
            length = self.b_max + 1 - self.shifts[v]
            prev = s
            entry = v
            for _ in range(length - 1):
                c = new_vertex()
                adjacency[prev].append(c)
                adjacency[c].append(prev)
                if prev == s:
                    entry = c
                prev = c
            adjacency[prev].append(v)
            adjacency[v].append(prev)
            self.entry_of[v] = entry
            self.center_of_entry[entry] = v
        self.bfs = IncrementalBfs(adjacency, s)
        assert [self.bfs.beta[v] for v in range(n)] == self.entry_of
        self.center = list(range(n))
        self.clusters = {v: {v} for v in range(n)}
        self.moves = 0

    def insert_edge(self, u, v):
        out = []
        for x, nb in self.bfs.insert(u, v):
            if x >= self.n:
                continue  # interior path vertex
            new_center = self.center_of_entry.get(nb)
            if new_center is None or new_center == self.center[x]:
                continue
            old = self.center[x]
            self.clusters[old].discard(x)
            self.clusters.setdefault(new_center, set()).add(x)
            self.center[x] = new_center
            self.moves += 1
            out.append((x, old, new_center))
        return out


class TestSampleShift:
    def test_tail_at_zero(self):
        rng = np.random.default_rng(1)
        assert all(sample_shift(1.0, rng) >= 0 for _ in range(100))

    def test_mean_and_tail(self):
        rng = np.random.default_rng(2)
        draws = [sample_shift(1.0, rng) for _ in range(1_000_000)]
        mean = sum(draws) / len(draws)
        want_mean = 1.0 / (math.e - 1.0)
        # var of Geo(1 - e^-1) is (1-p)/p^2 with p = 1 - e^-1
        p = 1.0 - math.exp(-1.0)
        sigma_mean = math.sqrt((1 - p) / p**2 / len(draws))
        assert abs(mean - want_mean) <= 3 * sigma_mean
        tail = sum(1 for d in draws if d >= 3) / len(draws)
        want_tail = math.exp(-3.0)
        sigma_tail = math.sqrt(want_tail * (1 - want_tail) / len(draws))
        assert abs(tail - want_tail) <= 3 * sigma_tail

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            sample_shift(0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ClusteringInstance(3, np.random.default_rng(0), alpha=-1.0)

    def test_batched_equals_successive(self):
        for seed in range(6):
            for alpha in (1.0, 0.5, 2.5):
                for n in (1, 7, 300):
                    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
                    want = [sample_shift(alpha, one) for _ in range(n)]
                    assert sample_shifts(n, alpha, many) == want
                    assert many.random() == one.random()
                    inst = ClusteringInstance(n, np.random.default_rng(seed), alpha)
                    assert inst.shifts == want


class TestEstcStatic:
    def test_edgeless_self_centers(self):
        centers, _ = estc_static([[] for _ in range(5)], 1.0, np.random.default_rng(3))
        assert centers == list(range(5))

    def test_path_with_fixed_shifts(self):
        # path a-b-c with shifts (2, 0, 0): a and b center at a; the tie at
        # c between a and c breaks toward the lowest id.
        adjacency = [[1], [0, 2], [1]]
        centers, _ = estc_static(adjacency, 1.0, shifts=[2, 0, 0])
        assert centers == [0, 0, 0]

    def test_all_zero_shifts(self):
        adjacency = [[1], [0, 2], [1]]
        centers, _ = estc_static(adjacency, 1.0, shifts=[0, 0, 0])
        assert centers == [0, 1, 2]


class TestIncrementalBfs:
    """The reference BFS that TestClusteringInstance compares against."""

    def test_star(self):
        adjacency = [[1, 2, 3], [0], [0], [0]]
        bfs = IncrementalBfs(adjacency, 0)
        assert bfs.beta[1:] == [1, 2, 3]

    def test_shortcut_changes_beta(self):
        # path s-a-b, then insert s-b
        adjacency = [[1], [0, 2], [1]]
        bfs = IncrementalBfs(adjacency, 0)
        assert bfs.beta[2] == 1
        changes = bfs.insert(0, 2)
        assert changes == [(2, 2)]
        assert bfs.dist[2] == 1

    def test_useless_insert_empty_update(self):
        adjacency = [[1], [0, 2], [1]]
        bfs = IncrementalBfs(adjacency, 0)
        assert bfs.insert(1, 2) == []

    def test_beta_certificate_random(self):
        rng = np.random.default_rng(5)
        n = 24
        # start from a star so the graph is connected
        adjacency = [[] for _ in range(n)]
        for v in range(1, n):
            adjacency[0].append(v)
            adjacency[v].append(0)
        bfs = IncrementalBfs(adjacency, 0)
        current = [list(nb) for nb in adjacency]
        for _ in range(120):
            u, v = rng.integers(0, n, size=2)
            u, v = int(u), int(v)
            if u == v:
                continue
            bfs.insert(u, v)
            current[u].append(v)
            current[v].append(u)
            fresh = bfs_dist(current, 0)
            fresh_from = {}
            for w in range(n):
                assert bfs.dist[w] == fresh[w]
            for w in range(1, n):
                b = bfs.beta[w]
                assert b in current[0]
                if b not in fresh_from:
                    fresh_from[b] = bfs_dist(current, b)
                assert fresh[w] == 1 + fresh_from[b][w]


class TestClusteringInstance:
    def test_initial_singletons(self):
        inst = ClusteringInstance(6, np.random.default_rng(6))
        assert inst.center == list(range(6))
        assert all(inst.members(v) == {v} for v in range(6))
        assert inst.clusters == {}  # no set is stored before a cluster gains a vertex

    def test_members_of_a_center_that_left(self):
        # shifts (0, 3, 0): vertex 0 starts at distance 4 and vertex 1 at
        # 1, so the edge 0-1 moves 0 into cluster 1; cluster 0 never gained
        # a vertex and is empty
        inst = ClusteringInstance(3, np.random.default_rng(1))
        assert inst.shifts == [0, 3, 0] and inst.dist == [4, 1, 4]
        assert relay(inst, [[] for _ in range(3)], 0, 1) == [(0, 0, 1)]
        assert inst.members(0) == set()
        assert inst.members(1) == {0, 1}
        assert inst.members(2) == {2}
        assert inst.clusters == {1: {0, 1}}

    def test_certificate_after_insertions(self):
        # center assignment must satisfy: shifted-source distance to v equals
        # (attachment length of the center) + hop distance center -> v.
        rng = np.random.default_rng(7)
        n = 16
        for trial in range(20):
            inst = ClusteringInstance(n, np.random.default_rng(trial))
            adjacency = [[] for _ in range(n)]
            for _ in range(40):
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u == v:
                    continue
                relay(inst, adjacency, u, v)
                for w in range(n):
                    c = inst.center[w]
                    entry_len = inst.b_max + 1 - inst.shifts[c]
                    hop = bfs_dist(adjacency, c)[w]
                    assert hop >= 0  # co-assignment implies connectivity
                    assert inst.dist[w] == entry_len + hop

    def test_matches_materialized_reference(self):
        # same shifts, the same moves in the same order, centers, members
        # and move counts as the BFS over the materialized shifted graph;
        # bfs_work counts the reference's dequeues of real vertices
        interior_dequeues = 0
        for n in (2, 5, 12, 40, 100):
            stream = np.random.default_rng(100 + n)
            for seed in range(8):
                alpha = 1.0 if seed % 2 else 0.5
                inst = ClusteringInstance(n, np.random.default_rng(seed), alpha)
                ref = ReferenceInstance(n, np.random.default_rng(seed), alpha)
                assert inst.shifts == ref.shifts
                adjacency = [[] for _ in range(n)]
                for _ in range(3 * n):
                    u, v = (int(x) for x in stream.integers(0, n, size=2))
                    if u == v:
                        continue
                    assert relay(inst, adjacency, u, v) == ref.insert_edge(u, v)
                    assert inst.center == ref.center
                    assert inst.dist == ref.bfs.dist[:n]
                nonempty = {c: ms for c, ms in ref.clusters.items() if ms}
                assert {c: inst.members(c) for c in range(n) if inst.members(c)} == nonempty
                assert inst.moves == ref.moves
                assert inst.bfs_work == ref.bfs.real_work
                interior_dequeues += ref.bfs.work_counter - ref.bfs.real_work
        assert interior_dequeues > 0  # the streams do drop interior path vertices


class TestSparseCover:
    def test_fresh_cover_singletons_and_sparsity(self):
        cover = SparseCover(10, 4.0, np.random.default_rng(8))
        assert len(cover.instances) == cover.instance_count
        for v in range(10):
            assert all(inst.center[v] == v for inst in cover.instances)
            assert all(cover.members((i, v)) == {v} for i in range(cover.instance_count))

    def test_covering_and_common_set(self):
        hits = 0
        trials = 200
        count = None
        for seed in range(trials):
            cover = SparseCover(8, 4.0, np.random.default_rng(seed))
            count = cover.instance_count
            cover.insert_edge(2, 5)
            if cover.common_set(2, 5) is not None:
                hits += 1
        # per instance the co-cluster probability is >= e^-2, instances
        # are independent
        p_hit = 1.0 - (1.0 - math.exp(-2.0)) ** count
        sigma = math.sqrt(p_hit * (1 - p_hit) / trials)
        assert hits / trials >= p_hit - 3 * sigma

    def test_same_cluster_frequency_single_instance(self):
        p_want = math.exp(-2.0)
        trials = 3000
        hits = 0
        for seed in range(trials):
            inst = ClusteringInstance(6, np.random.default_rng(seed))
            relay(inst, [[] for _ in range(6)], 1, 4)
            hits += inst.center[1] == inst.center[4]
        sigma = math.sqrt(p_want * (1 - p_want) / trials)
        assert hits / trials >= p_want - 3 * sigma

    def test_repeat_edges_ignored(self):
        cover = SparseCover(6, 4.0, np.random.default_rng(9))
        first = cover.insert_edge(0, 1)
        assert cover.insert_edge(0, 1) == []
        assert cover.insert_edge(1, 0) == []
        assert cover.edges_seen == 1

    def test_update_lists_track_membership(self):
        rng = np.random.default_rng(10)
        n = 12
        cover = SparseCover(n, 4.0, np.random.default_rng(11))
        membership = {
            (i, v): {v} for i in range(cover.instance_count) for v in range(n)
        }
        for _ in range(60):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            for sid, op, x in cover.insert_edge(u, v):
                if op == "remove":
                    membership[sid].discard(x)
                else:
                    membership.setdefault(sid, set()).add(x)
        for sid, members in membership.items():
            assert cover.members(sid) == members

    def test_diameter_property_snapshots(self):
        # whenever max shift <= k ln n, co-clustered pairs sit within
        # k ln n hops of each other in the current graph
        rng = np.random.default_rng(12)
        n = 48
        cover = SparseCover(n, 4.0, np.random.default_rng(13))
        adjacency = [[] for _ in range(n)]
        inserted = 0
        while inserted < 160:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            cover.insert_edge(u, v)
            adjacency[u].append(v)
            adjacency[v].append(u)
            inserted += 1
            if inserted % 32:
                continue
            for inst in cover.instances:
                k = max(1, math.ceil(max(inst.shifts) / math.log(n)))
                bound = k * math.log(n)
                if max(inst.shifts) > bound:
                    continue
                dists = {}
                for w in range(n):
                    c = inst.center[w]
                    if c == w:
                        continue
                    if c not in dists:
                        dists[c] = bfs_dist(adjacency, c)
                    assert 0 <= dists[c][w] <= bound

    def test_update_counter_reports(self):
        cover = SparseCover(8, 4.0, np.random.default_rng(14))
        cover.insert_edge(0, 1)
        counters = cover.counters()
        assert counters["edges"] == 1
        assert counters["updates"] == cover.updates_issued
        cover = SparseCover(12, 4.0, np.random.default_rng(14))
        for u in range(12):
            for v in range(u + 1, 12):
                cover.insert_edge(u, v)
        counters = cover.counters()
        # bfs_work counts dequeues of real vertices only; a BFS over the
        # materialized shifted graph also dequeues interior path vertices
        # and reads 241 here
        assert (counters["updates"], counters["beta_changes"]) == (218, 109)
        assert counters["bfs_work"] == 166

    def test_update_lists_match_materialized_reference(self):
        # the reference cover: one ReferenceInstance per instance, seeded by
        # successive scalar draws, every new edge relayed to every instance
        n = 30
        cover = SparseCover(n, 4.0, np.random.default_rng(15))
        seeds = np.random.default_rng(15)
        refs = [
            ReferenceInstance(n, np.random.default_rng(seeds.integers(0, 2**63)))
            for _ in range(cover.instance_count)
        ]
        seen = set()
        issued = 0
        stream = np.random.default_rng(16)
        for _ in range(200):
            u, v = (int(x) for x in stream.integers(0, n, size=2))
            if u == v:
                continue
            want = []
            if (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                for idx, ref in enumerate(refs):
                    for x, old, new in ref.insert_edge(u, v):
                        want.append(((idx, old), "remove", x))
                        want.append(((idx, new), "add", x))
            assert cover.insert_edge(u, v) == want
            issued += len(want)
        assert cover.updates_issued == issued > 0
        for idx, (inst, ref) in enumerate(zip(cover.instances, refs)):
            assert inst.shifts == ref.shifts
            assert inst.center == ref.center
            assert inst.dist == ref.bfs.dist[:n]
            assert inst.moves == ref.moves
            assert inst.bfs_work == ref.bfs.real_work
            for c in range(n):
                assert cover.members((idx, c)) == ref.clusters.get(c, set())

    def test_construction_keeps_no_per_vertex_sets(self):
        # one adjacency for the whole cover and no singleton member sets:
        # a 4096-vertex cover (48 instances) retains 11.1 MiB after
        # construction, against 75.8 MiB with a per-instance adjacency and
        # one {v} set per vertex per instance
        tracemalloc.start()
        try:
            cover = SparseCover(4096, 4.0, np.random.default_rng(1))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cover.instance_count == 48
        assert retained < 16 * 2**20
