"""Acceptance suite: one test per criterion, exact tolerances, one
printed PASS line each (run with `pytest -s tests/test_acceptance.py` to
see them live).

The random instance populations below are drawn once per criterion from a
fixed seed, sized log-uniformly up to the stated caps so the caps are
actually exercised.
"""

import bisect
import math
import time
from collections import deque

import numpy as np

from ratpath.cfrac import best_approx, best_approx_shift
from ratpath.cover import ClusteringInstance, SparseCover
from ratpath.distcmp import DistCmpConfig
from ratpath.graph import (
    NegativeCycle,
    bf_exact,
    cycle_weight,
    gen_random,
    gen_small_diff,
    plant_negative_cycle,
)
from ratpath.rational import BigRational, WordBudget
from ratpath.sssp import dijkstra_nonneg, game_simulate, negative_sssp
from conftest import diamond_chain, prime_bound_for


def R(n, d=1):
    return BigRational(n, d)


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


def _log_uniform_sizes(rng, lo, hi, count, cap_hits=5):
    out = [hi] * cap_hits
    while len(out) < count:
        out.append(int(round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))
    return out


def test_criterion_1_best_approx_exhaustive():
    t0 = time.time()
    # sorted universes of b-bit fractions covering |value| <= 65
    universes = {}
    for b in range(1, 7):
        vals = []
        for q in range(1, 1 << b):
            for p in range(-65 * q, 65 * q + 1):
                if math.gcd(abs(p), q) == 1:
                    vals.append(R(p, q))
        vals.sort()
        universes[b] = vals
    checked = 0
    for den in range(1, 65):
        for num in range(-64, 65):
            if math.gcd(abs(num), den) != 1:
                continue
            x = R(num, den)
            for b in range(1, 7):
                vals = universes[b]
                i = bisect.bisect_left(vals, x)
                lo = vals[i] if i < len(vals) and vals[i] == x else vals[i - 1]
                hi = vals[i] if i < len(vals) else vals[-1]
                ap = best_approx(x, b)
                assert ap.lo == lo and ap.hi == hi, (str(x), b)
                checked += 1
    rng = np.random.default_rng(101)
    shifts = 0
    while shifts < 10_000:
        num = int(rng.integers(-4000, 4001))
        den = int(rng.integers(1, 4000))
        b = int(rng.integers(3, 16))
        reduce_bits = int(rng.integers(1, b))
        q = int(rng.integers(1, (1 << reduce_bits) + 1))
        p = int(rng.integers(-5 * q, 5 * q + 1))
        x, offset = R(num, den), R(p, q)
        if offset.den > (1 << reduce_bits):
            continue
        got = best_approx_shift(best_approx(x, b), offset, reduce_bits)
        assert got == best_approx(x + offset, b - reduce_bits)
        shifts += 1
    _report(1, f"{checked} exhaustive pairs + {shifts} shifts in {time.time()-t0:.0f}s")


def test_criterion_2_and_7b_nonneg_solver_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    budget = WordBudget(64)
    failures = 0
    solved = 0
    fanout_checked = 0
    for n in _log_uniform_sizes(rng, 2, 200, 1000):
        cap_m = min(2000, n * (n - 1))
        m = int(rng.integers(0, min(cap_m, 3 * n) + 1)) if rng.random() < 0.7 else int(
            rng.integers(0, cap_m + 1)
        )
        g = gen_random(n, m, int(rng.integers(0, 2**31)), "small", "none")
        stats = {}
        res = dijkstra_nonneg(g, 0, strategy="distcmp", seed=solved, budget=budget, collect=stats)
        if res.distances() != bf_exact(g, 0).dist:
            failures += 1
        solved += 1
        # criterion 7(b): per-level query fan-out
        queries = stats["distcmp.level_queries"]
        cfg = DistCmpConfig(capacity=max(2, n), c=2, B=64)
        logn = math.log2(max(n, 2))
        for i in range(cfg.t):
            allowance = 64.0 * math.ceil(cfg.capacity / cfg.K**i) * logn**2
            assert queries[i + 1] <= allowance, (n, i, queries)
            fanout_checked += 1
    gadgets = 0
    for bound in (6, 8, 12, 14, 20, 24, 30, 38, 44, 60):
        for seed in range(5):
            g, _ = gen_small_diff(bound)
            res = dijkstra_nonneg(g, 0, strategy="distcmp", seed=seed, budget=budget)
            if res.distances() != bf_exact(g, 0).dist:
                failures += 1
            gadgets += 1
    assert failures == 0
    assert solved == 1000 and gadgets == 50
    _report(
        2,
        f"{solved} random + {gadgets} gadget instances, 0 failures, "
        f"{fanout_checked} fan-out checks, {time.time()-t0:.0f}s",
    )


def test_criterion_7b_gate_closed_fanout():
    # Criterion 2's population never closes the exact gate, so since ties
    # are answered at level 0 it queries no level >= 1.  Here the 7(b)
    # allowance is checked where the hierarchy runs: tied diamond chains
    # with 15-bit prime denominators at gate-closing constants.
    t0 = time.time()
    rng = np.random.default_rng(707)
    budget = WordBudget(16)
    constants = {"C": 0.5, "lam": 1.0}
    deep = difficult = 0
    for k in rng.integers(150, 201, size=24):
        g = diamond_chain(int(k), rng)
        stats = {}
        res = dijkstra_nonneg(
            g, 0, strategy="distcmp", seed=int(k), budget=budget, collect=stats, constants=constants,
        )
        assert res.distances() == bf_exact(g, 0).dist
        queries = stats["distcmp.level_queries"]
        cfg = DistCmpConfig(capacity=g.n, c=2, B=16, **constants)
        assert len(queries) == cfg.t + 1
        logn = math.log2(g.n)
        for i in range(cfg.t):
            level_size = math.ceil(cfg.capacity / cfg.K**i)
            assert queries[i + 1] <= 64.0 * level_size * logn**2, (g.n, i, queries)
        deep += sum(queries[1:])
        difficult += sum(stats["distcmp.difficult_answers"])
    assert deep > 0 and difficult > 0
    _report(
        "7b",
        f"24 gate-closed diamond chains, {difficult} difficult answers, "
        f"{deep} queries at levels >= 1 within the allowance, {time.time()-t0:.0f}s",
    )


def test_criterion_3_adversarial_gap():
    g, gap = gen_small_diff(6)
    assert gap == R(1, 30)
    # independent derivation: twin path weights from the prime reciprocals
    lighter = R(1, 2)
    heavier = R(1, 3) + R(1, 5)
    assert heavier - lighter == R(1, 30)
    res = dijkstra_nonneg(g, 0, strategy="distcmp", seed=0)
    dist = res.distances()
    assert dist[g.n - 1] == lighter
    _report(3, "solver takes the lighter twin; gap exactly 1/30")


def test_criterion_4_eps_feasibility():
    from ratpath.graph import check_eps_feasible
    from ratpath.scaling import eps_feasible_price

    t0 = time.time()
    rng = np.random.default_rng(404)
    graphs = []
    for n in _log_uniform_sizes(rng, 3, 40, 200):
        m = int(rng.integers(n, min(3 * n, n * (n - 1)) + 1))
        graphs.append(gen_random(n, m, int(rng.integers(0, 2**31)), "small", "priced"))
    for k in (1, 8, 32):
        eps = R(1, 1 << k)
        for g in graphs:
            p = eps_feasible_price(g, k)
            assert not isinstance(p, NegativeCycle)
            assert check_eps_feasible(g, p, eps)
            for v in range(g.n):
                assert (1 << (k + 1)) % p[v].den == 0
    _report(4, f"200 graphs x k in (1, 8, 32), exact, {time.time()-t0:.0f}s")


def test_criterion_5_and_7a_negative_pipeline():
    t0 = time.time()
    rng = np.random.default_rng(505)
    budget = WordBudget(16)
    solved = 0
    insert_checks = 0
    for idx, n in enumerate(_log_uniform_sizes(rng, 3, 100, 200)):
        m = int(rng.integers(n, min(3 * n, n * (n - 1)) + 1))
        g = gen_random(n, m, int(rng.integers(0, 2**31)), "small", "priced")
        k = 2 if idx % 2 == 0 else max(1, math.ceil(math.sqrt(n)))
        stats = {}
        res = negative_sssp(g, 0, k=k, seed=idx, budget=budget, collect=stats)
        assert not isinstance(res, NegativeCycle)
        assert res.distances() == bf_exact(g, 0).dist, (idx, n, k)
        # criterion 7(a): heap insertions per cut run
        assert stats["cut_heap_inserts_max"] <= n + 2 * n * math.sqrt(n)
        insert_checks += 1
        solved += 1
    planted = 0
    for seed in range(50):
        n = int(rng.integers(8, 60))
        g = plant_negative_cycle(
            gen_random(n, 3 * n, int(rng.integers(0, 2**31)), "small", "priced"), seed
        )
        res = negative_sssp(g, 0, seed=seed, budget=budget)
        assert isinstance(res, NegativeCycle)
        # witness verified exactly against the input graph
        assert cycle_weight(g, res.vertices) == res.weight
        assert res.weight < R(0)
        planted += 1
    assert solved == 200 and planted == 50
    _report(
        5,
        f"{solved} priced instances + {planted} planted cycles, 0 failures, "
        f"{insert_checks} insert-bound checks, {time.time()-t0:.0f}s",
    )


def test_criterion_6_game_bound():
    # The greedy-single-index and front-loaded strategies ignore the
    # generator, so each is played once per n; seeds 0 and 1 paying the
    # same at n=100 checks that they do.
    t0 = time.time()
    for name in ("greedy-single-index", "front-loaded"):
        assert game_simulate(100, name, 0) == game_simulate(100, name, 1), name
    for n in (100, 400, 1600):
        bound = 2 * n * math.sqrt(n)
        for seed in range(100):
            dollars = game_simulate(n, "random", seed)
            assert dollars <= bound, (n, "random", seed, dollars)
        for name in ("greedy-single-index", "front-loaded"):
            dollars = game_simulate(n, name, 0)
            assert dollars <= bound, (n, name, dollars)
    _report(6, f"3 sizes x (random x 100 seeds + 2 deterministic strategies) within "
               f"2n*sqrt(n), {time.time()-t0:.0f}s")


def test_criterion_7c_cover_update_growth():
    t0 = time.time()
    totals = {}
    for n in (128, 256, 512):
        rng = np.random.default_rng(700 + n)
        cover = SparseCover(n, 4.0, np.random.default_rng(7000 + n))
        target = n * n // 4
        inserted = 0
        while inserted < target:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            cover.insert_edge(u, v)
            inserted += 1
        totals[n] = cover.updates_issued
    r1 = totals[256] / max(totals[128], 1)
    r2 = totals[512] / max(totals[256], 1)
    assert r1 <= 3.0 and r2 <= 3.0, totals
    _report(
        7,
        f"cover updates {totals} (ratios {r1:.2f}, {r2:.2f} <= 3.0); "
        f"7a/7b piggybacked on criteria 5/2, {time.time()-t0:.0f}s",
    )


def test_criterion_8_clustering_statistics():
    t0 = time.time()
    n = 64
    rng = np.random.default_rng(2024)
    edges = set()
    while len(edges) < 256:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def bfs(s):
        d = [-1] * n
        d[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if d[y] < 0:
                    d[y] = d[x] + 1
                    q.append(y)
        return d

    hop = [bfs(s) for s in range(n)]
    trials = 10_000
    hits = [0] * len(edges)
    for seed in range(trials):
        inst = ClusteringInstance(n, np.random.default_rng(seed))
        inserted = [[] for _ in range(n)]
        for u, v in edges:
            inserted[u].append(v)
            inserted[v].append(u)
            inst.insert_edge(inserted, u, v)
        centers = inst.center
        for i, (u, v) in enumerate(edges):
            hits[i] += centers[u] == centers[v]
        b_max = max(inst.shifts)
        k = max(1, math.ceil(b_max / math.log(n)))
        bound = k * math.log(n)
        clusters = {}
        for w in range(n):
            clusters.setdefault(centers[w], []).append(w)
        for members in clusters.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert hop[members[i]][members[j]] <= bound
    p = math.exp(-2.0)
    sigma = math.sqrt(p * (1 - p) / trials)
    threshold = p - 3 * sigma
    worst = min(hits) / trials
    assert worst >= threshold, (worst, threshold)
    _report(
        8,
        f"{trials} clusterings, worst edge frequency {worst:.3f} >= {threshold:.3f}, "
        f"diameter premise checked exactly, {time.time()-t0:.0f}s",
    )


def test_criterion_9_soft_performance_report():
    # Non-gating: run the bench pair on a chained gadget instance around
    # n = 4096 and report both times.
    t0 = time.time()
    window = 3
    chain = 1365  # window-3 gadgets add 3 vertices each: n = 1 + 3*chain
    bound = prime_bound_for(window * chain)
    g, _ = gen_small_diff(bound, padding=True, chain=chain, window=window)
    budget = WordBudget(18)
    t1 = time.time()
    dijkstra_nonneg(g, 0, strategy="distcmp", seed=0, budget=budget)
    t2 = time.time()
    dijkstra_nonneg(g, 0, strategy="exact_oracle", seed=0, budget=budget)
    t3 = time.time()
    faster = t2 - t1 < t3 - t2
    _report(
        9,
        f"n={g.n}: distcmp {t2-t1:.2f}s vs naive exact {t3-t2:.2f}s "
        f"({'faster' if faster else 'NOT faster'}; non-gating), gen {t1-t0:.0f}s",
    )
