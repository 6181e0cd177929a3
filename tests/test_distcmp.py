import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ratpath import distcmp as distcmp_module
from ratpath.cfrac import Ordering
from ratpath.distcmp import (
    ClusterOrder,
    DistCmp,
    DistCmpConfig,
    PairwiseDeltaComparator,
)
from ratpath.graph import _primes_below
from ratpath.inctree import IncTree
from ratpath.rational import BigRational, WordBudget, ZERO, is_k_short
from ratpath.sssp import dijkstra_nonneg

from conftest import (diamond_chain, entry_ordered_dijkstra, exact_ordering, reference_distcmp_streams,
                      root_distance)


def R(n, d=1):
    return BigRational(n, d)


WEIGHT_POOL = [R(1, 2), R(1, 3), R(1, 5), R(2, 3), R(1, 7), R(3, 5), R(0), R(2, 7)]


def _gate_closed_population(rng, seed: int, queries: int = 3000, lam: float = 1.0) -> DistCmp:
    """A DistCmp at gate-closing constants (ell_0 = 4000 bits) over a chain
    of 255 twin leaves, each twin pair weighing k / p for a distinct
    15-bit prime p, after `queries` checked comparisons.

    Ties between twins, and between a node and its parent's twin, are
    proven exactly near the root and go down the difficult path (the
    cover, the cluster orders and level 1) once the denominators pass
    the gate."""
    dc = DistCmp(DistCmpConfig(capacity=512, c=1, B=16, C=0.5, lam=lam), seed=seed)
    budget = WordBudget(16)
    twin = {}
    cur = 0
    for p in [p for p in _primes_below(1 << 15) if p > 1 << 14][:255]:
        w = R(int(rng.integers(1, 50)), p)
        a, b = dc.insert_leaf(cur, w), dc.insert_leaf(cur, w)
        twin[a], twin[b] = b, a
        cur = a
    n = len(dc.tree)
    for _ in range(queries):
        u = int(rng.integers(1, n))
        r = rng.random()
        if r < 0.4:
            v = twin[u]
        elif r < 0.7:
            v = twin.get(dc.tree.parent[u], 0)
        else:
            v = int(rng.integers(0, n))
        diff = root_distance(dc.tree, u) - root_distance(dc.tree, v)
        if is_k_short(diff, 1, budget):
            beta = diff
        else:
            beta = R(int(rng.integers(-64, 65)), int(rng.integers(1, 1 << 15)))
        want = exact_ordering(dc.tree, u, v, beta)
        assert dc.compare(u, v, beta) is want
        assert dc.exact_compare(u, v, beta) is want
    return dc


def nearby_fraction(diff: BigRational, b: int, ell: int):
    """Brute-force unique fraction with |p|, q < 2^b within 2^-ell of diff."""
    found = []
    for q in range(1, 1 << b):
        p0 = (diff.num * q) // diff.den
        for p in (p0 - 1, p0, p0 + 1):
            if abs(p) >= 1 << b:
                continue
            gap = abs(diff - R(p, q))
            if gap.num << ell <= gap.den:
                if all((p * fq != fp * q) for fp, fq in found):
                    found.append((p, q))
    return found


def _similar(diff, b, ell):
    found = nearby_fraction(diff, b, ell)
    return R(*found[0]) if found else None


class TestSimilarityCalculus:
    def test_smaller_transitivity(self, rng):
        # ell >= 4b + 5: x<=y, y<=z and x~z imply x<=z, with unchanged
        # parameters
        b = 2
        ell = 4 * b + 5
        step = R(1, 1 << (ell + 3))
        checked = 0
        for _ in range(4000):
            f1 = R(int(rng.integers(-3, 4)), int(rng.integers(1, 1 << b)))
            f2 = R(int(rng.integers(-3, 4)), int(rng.integers(1, 1 << b)))
            if abs(f1.num) >= 1 << b or abs(f2.num) >= 1 << b:
                continue
            e1 = step * int(rng.integers(-4, 5))
            e2 = step * int(rng.integers(-4, 5))
            z = R(int(rng.integers(-2, 3)), int(rng.integers(1, 8)))
            y = z + f2 + e2
            x = y + f1 + e1
            fx_y = _similar(x - y, b, ell)
            fy_z = _similar(y - z, b, ell)
            fx_z = _similar(x - z, b, ell)
            if fx_y is None or fy_z is None or fx_z is None:
                continue
            small_xy = x - y <= fx_y
            small_yz = y - z <= fy_z
            if small_xy and small_yz:
                checked += 1
                assert x - z <= fx_z
        assert checked > 200

    def test_similarity_chaining(self, rng):
        # x ~_{b1} y and y ~_{b2} z at window ell give x ~ z at
        # (b1 + b2 + 1, ell - 1)
        for _ in range(2000):
            b1 = int(rng.integers(1, 4))
            b2 = int(rng.integers(1, 4))
            ell = 2 * (b1 + b2 + 1) + 3 + int(rng.integers(0, 3))
            step = R(1, 1 << (ell + 2))
            f1 = R(int(rng.integers(-3, 4)), int(rng.integers(1, 1 << b1)))
            f2 = R(int(rng.integers(-3, 4)), int(rng.integers(1, 1 << b2)))
            if abs(f1.num) >= 1 << b1 or abs(f2.num) >= 1 << b2:
                continue
            z = R(int(rng.integers(-2, 3)), int(rng.integers(1, 8)))
            y = z + f2 + step * int(rng.integers(-2, 3))
            x = y + f1 + step * int(rng.integers(-2, 3))
            glue = f1 + f2
            gap = abs((x - z) - glue)
            assert abs(glue.num) < 1 << (b1 + b2 + 1)
            assert glue.den < 1 << (b1 + b2 + 1)
            assert gap.num << (ell - 1) <= gap.den


class TestConfig:
    def test_margins_hold(self):
        for n in (2, 5, 16, 200, 512, 4096):
            cfg = DistCmpConfig(capacity=n, c=2, B=16)
            for i in range(cfg.t):
                assert cfg.ell_chain[i] >= 4 * cfg.bits_chain[i] + 5
            assert cfg.K >= 2
            assert math.ceil(cfg.capacity / cfg.K**cfg.t) == 1

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            DistCmpConfig(capacity=0)
        with pytest.raises(ValueError):
            DistCmpConfig(capacity=4, c=0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="C must be a positive finite number"):
                DistCmpConfig(capacity=4, C=bad)
            with pytest.raises(ValueError, match="lam must be a positive finite number"):
                DistCmpConfig(capacity=4, lam=bad)


class TestInsertAndRecords:
    def test_chain_distances_recoverable(self):
        dc = DistCmp(DistCmpConfig(capacity=8, c=2, B=16), seed=0)
        a = dc.insert_leaf(0, R(1, 2))
        b = dc.insert_leaf(a, R(1, 3))
        assert root_distance(dc.tree, a) == R(1, 2)
        assert root_distance(dc.tree, b) == R(5, 6)
        tree = dc.tree
        assert tree.nearest_strict_marked_ancestor(b, 0) == a
        assert tree.path_weight(a, b) == R(1, 3)
        # scaled approximation within the stated error bound
        approx = dc._a_scaled(0, b)
        scale = dc._scale_of(0)
        exact = root_distance(tree, b)
        err_num = abs(approx * exact.den - exact.num * scale)
        assert err_num <= 2 * exact.den  # two chain hops

    @pytest.mark.parametrize("v", [-1, -3, 3])
    def test_node_out_of_range(self, v):
        # On a 3-node tree, -1 used to be answered for node 2 and 3 raised
        # IndexError.
        dc = DistCmp(DistCmpConfig(capacity=8, c=2, B=16), seed=0)
        dc.insert_leaf(dc.insert_leaf(0, R(1, 2)), R(1, 3))
        for call in (lambda: dc.exact_compare(v, 0, ZERO), lambda: dc.exact_compare(0, v, ZERO)):
            with pytest.raises(ValueError, match=rf"node {v} out of range 0\.\.2"):
                call()

    def test_level_assignment_deterministic(self):
        a = DistCmp(DistCmpConfig(capacity=64, c=2, B=16), seed=9)
        b = DistCmp(DistCmpConfig(capacity=64, c=2, B=16), seed=9)
        assert a.slot_level == b.slot_level

    @pytest.mark.parametrize("capacity", [1, 2, 8, 64, 512, 4096])
    def test_streams_match_spawned_children(self, monkeypatch, capacity):
        # The slot levels and each level's cover stream come from the
        # SeedSequence children that spawn(2), then spawn(t) on the second
        # child, would give; covers are built in reverse level order to
        # show that a stream depends on its level, not on build order.
        seeded = []

        class RecordingCover:
            def __init__(self, cap, lam, rng):
                seeded.append(rng.integers(0, 2**63, size=8).tolist())

        monkeypatch.setattr(distcmp_module, "SparseCover", RecordingCover)
        for seed in (0, 1, 9, 12345, 2**40):
            cfg = DistCmpConfig(capacity=capacity, c=2, B=16)
            dc = DistCmp(cfg, seed=seed)
            slot_level, covers = reference_distcmp_streams(seed, cfg)
            assert dc.slot_level == slot_level
            seeded.clear()
            for i in reversed(range(cfg.t)):
                dc._level_state(i)
            seeded.reverse()
            assert seeded == [rng.integers(0, 2**63, size=8).tolist() for rng in covers]

    @pytest.mark.parametrize("C, lam", [(2.0, 4.0), (0.5, 1.0)])
    @pytest.mark.parametrize("c", [2, 4])
    def test_slot_levels_match_per_draw_formula(self, c, C, lam):
        # The slot levels are the per-draw min(t, int(d)) of the level
        # stream's geometric draws, as plain ints, for small and large
        # capacities alike.
        for capacity in (2, 3, 5, 17, 40, 199, 1000, 5000):
            cfg = DistCmpConfig(capacity=capacity, c=c, C=C, lam=lam)
            for seed in range(20):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
                draws = rng.geometric(1.0 - 1.0 / cfg.K, size=capacity - 1) - 1
                want = [cfg.t] + [min(cfg.t, int(d)) for d in draws]
                got = DistCmp(cfg, seed=seed).slot_level
                assert got == want
                assert all(type(lv) is int for lv in got)

    @pytest.mark.parametrize("capacity", [4, 17, 64, 512])
    def test_deferred_draw_matches_eager_twin(self, capacity):
        # The slot levels are drawn on the first gate-closed query, whether
        # it comes before any insertion, after some or on a full tree; until
        # then nodes hold level 0.  After it the node levels, the answers
        # and the counters are those of a twin that drew before inserting.
        # The tree is a chain of twin leaves of weight k / p, p a 15-bit
        # prime; a beta whose denominator is wider than ell_0 closes the
        # gate at any depth, and `near` lands inside the fixed-point margin.
        cfg = DistCmpConfig(capacity=capacity, c=1, B=16, C=0.5, lam=1.0)
        t = cfg.t
        primes = [p for p in _primes_below(1 << 15) if p > 1 << 14]
        near = R(1, 1 << (cfg.ell[0] + 4))
        budget = WordBudget(16)

        def grow(dcs, stop):
            while len(dcs[0].tree) < stop:
                j = (len(dcs[0].tree) - 1) // 2
                w = R(1 + j % 7, primes[j])
                for dc in dcs:
                    dc.insert_leaf(2 * j - 1 if j else 0, w)

        for seed in (0, 7, 12345):
            want, _ = reference_distcmp_streams(seed, cfg)
            for before in sorted({0, 1, capacity // 3, capacity - 1}):
                lazy, eager = DistCmp(cfg, seed=seed), DistCmp(cfg, seed=seed)
                assert eager.slot_level == want
                grow([lazy, eager], before + 1)
                assert lazy._slot_level is None
                assert lazy.tree.level == [t] + [0] * before
                if before:  # the root alone can take no gate-closed query
                    got = [dc._level_compare(0, 0, before, near) for dc in (lazy, eager)]
                    assert got[0] == got[1]
                    assert lazy.tree.level == want[:before + 1]
                assert lazy.slot_level == want
                grow([lazy, eager], capacity)
                assert lazy.tree.level == eager.tree.level == want

                rng = np.random.default_rng(seed)
                for _ in range(60):
                    u, v = (int(x) for x in rng.integers(0, capacity, size=2))
                    if rng.random() < 0.5 and u:
                        v = min(u + 1 if u % 2 else u - 1, capacity - 1)  # u's twin, if any
                    diff = root_distance(lazy.tree, u) - root_distance(lazy.tree, v)
                    for beta in (diff + near, diff - near):
                        got = [dc._level_compare(0, u, v, beta) for dc in (lazy, eager)]
                        assert got[0] == got[1]
                    if is_k_short(diff, 1, budget):
                        assert lazy.compare(u, v, diff) is eager.compare(u, v, diff)
                assert lazy.counters() == eager.counters()
                assert sum(lazy.counters()["difficult_answers"]) > 0

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected_at_construction(self, seed):
        cfg = DistCmpConfig(capacity=8, c=2, B=16)
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            DistCmp(cfg, seed=seed)

    def test_full_tree_rejects_insert(self):
        dc = DistCmp(DistCmpConfig(capacity=4, c=2, B=16), seed=0)
        for _ in range(3):
            dc.insert_leaf(0, R(1, 2))
        with pytest.raises(ValueError):
            dc.insert_leaf(0, R(1, 2))
        assert len(dc.tree) == 4

    def test_construction_builds_no_level_scale(self):
        # scale_i = 2^(ell_i + 2) * capacity has ~425M bits (53 MB) at level
        # 2 for capacity 4096; it is built on the level's first fixed-point use.
        tracemalloc.start()
        try:
            dc = DistCmp(DistCmpConfig(capacity=4096, c=2, B=64), seed=0)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dc.config.t >= 2
        assert retained < 4 << 20

    def test_rejects_long_weight(self):
        dc = DistCmp(DistCmpConfig(capacity=4, c=1, B=4), seed=0)
        with pytest.raises(ValueError):
            dc.insert_leaf(0, R(1000, 7))

    def test_approx_error_bound_invariant(self, rng):
        cfg = DistCmpConfig(capacity=40, c=2, B=16)
        dc = DistCmp(cfg, seed=3)
        levels = dc.slot_level  # drawn before _a_scaled reads a level above 0
        nodes = [0]
        for _ in range(39):
            parent = nodes[int(rng.integers(0, len(nodes)))]
            w = WEIGHT_POOL[int(rng.integers(0, len(WEIGHT_POOL)))]
            v = dc.insert_leaf(parent, w)
            nodes.append(v)
            for i in range(cfg.t):
                if levels[v] < i:
                    continue
                approx = dc._a_scaled(i, v)
                exact = root_distance(dc.tree, v)
                # count chain members of level >= i on the root path
                k = 0
                x = v
                while x != 0:
                    if dc.tree.level[x] >= i:
                        k += 1
                    x = dc.tree.parent[x]
                scale = dc._scale_of(i)
                err = abs(approx * exact.den - exact.num * scale)
                assert err <= k * exact.den


class TestCompare:
    def test_examples(self):
        dc = DistCmp(DistCmpConfig(capacity=8, c=2, B=16), seed=1)
        u = dc.insert_leaf(0, R(1, 2))
        v = dc.insert_leaf(0, R(1, 3))
        assert dc.compare(u, v, R(1, 6)) is Ordering.EQUAL
        assert dc.compare(u, v, ZERO) is Ordering.GREATER
        assert dc.compare(u, u, ZERO) is Ordering.EQUAL
        assert dc.compare(0, 0, R(-3, 7)) is Ordering.GREATER
        assert dc.compare(0, 0, R(3, 7)) is Ordering.LESS

    def test_gadget_twin_chains(self):
        # insert the two gadget paths as sibling chains: the difference of
        # the endpoint distances is the 1/30 gap, oriented heavy vs light
        dc = DistCmp(DistCmpConfig(capacity=8, c=2, B=16), seed=4)
        light = dc.insert_leaf(dc.insert_leaf(0, R(1, 2)), R(0))
        heavy = dc.insert_leaf(dc.insert_leaf(0, R(1, 3)), R(1, 5))
        assert dc.compare(heavy, light, ZERO) is Ordering.GREATER
        assert dc.compare(heavy, light, R(1, 30)) is Ordering.EQUAL
        assert dc.exact_compare(heavy, light, ZERO) is Ordering.GREATER

    def test_answers_are_ordering_members_on_every_path(self, monkeypatch):
        # Levels pass int signs; compare turns each into an Ordering member,
        # on key pairs and on the node path alike.  The gate-closed diamond
        # chain reaches every level-0 answer path when every heap
        # comparison and relaxation test is put to `compare`, as
        # `entry_ordered_dijkstra` does; the solver's top words would
        # leave it the top-word ties alone.
        compare = DistCmp.compare
        paths = set()

        def classified(dc, a, b):
            names = ("trivial_answers", "shortcut_answers", "easy_answers", "tie_answers",
                     "difficult_answers", "cover_fallbacks")
            before = [getattr(dc, name)[0] for name in names]
            got = compare(dc, a, b)
            (u, w1, *_), (v, w2, *_) = a, b
            beta = w2 - w1
            moved = {name for name, old in zip(names, before) if getattr(dc, name)[0] != old}
            for name, path in (("cover_fallbacks", "cover fallback"),
                               ("difficult_answers", "cluster order"),
                               ("shortcut_answers", "shortcut"), ("easy_answers", "fixed point"),
                               ("tie_answers", "tie"), ("trivial_answers", "trivial")):
                if name in moved:
                    paths.add(path)
                    break
            assert any(got is member for member in Ordering)
            assert got is exact_ordering(dc.tree, u, v, beta)
            return got

        monkeypatch.setattr(DistCmp, "compare", classified)
        entry_ordered_dijkstra(
            diamond_chain(170), 0, strategy="distcmp", seed=1, budget=WordBudget(16),
            constants={"C": 0.5, "lam": 1.0},
        )
        assert paths == {"trivial", "shortcut", "tie", "fixed point", "cluster order",
                         "cover fallback"}

    def test_query_shortness_guard(self):
        dc = DistCmp(DistCmpConfig(capacity=4, c=1, B=4), seed=0)
        with pytest.raises(ValueError):
            dc.compare(0, 0, R(10**9, 7))

    def test_oracle_equivalence_workloads(self):
        total_ops = 0
        mismatches = 0
        budget = WordBudget(64)
        for seed in range(64):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.choice([24, 32, 48, 64, 96, 128, 256, 512]))
            ops = 1600
            cfg = DistCmpConfig(capacity=n, c=2, B=64)
            dc = DistCmp(cfg, seed=seed)
            nodes = [0]
            for _ in range(ops):
                total_ops += 1
                if len(nodes) < n and (rng.random() < 0.4 or len(nodes) < 3):
                    parent = nodes[int(rng.integers(0, len(nodes)))]
                    w = WEIGHT_POOL[int(rng.integers(0, len(WEIGHT_POOL)))]
                    nodes.append(dc.insert_leaf(parent, w))
                else:
                    u = nodes[int(rng.integers(0, len(nodes)))]
                    v = nodes[int(rng.integers(0, len(nodes)))]
                    diff = root_distance(dc.tree, u) - root_distance(dc.tree, v)
                    r = rng.random()
                    if r < 0.45 and is_k_short(diff, 2, budget):
                        beta = diff
                    elif r < 0.7:
                        beta = WEIGHT_POOL[int(rng.integers(0, len(WEIGHT_POOL)))] - WEIGHT_POOL[
                            int(rng.integers(0, len(WEIGHT_POOL)))
                        ]
                    else:
                        beta = R(int(rng.integers(-30, 31)), int(rng.integers(1, 20)))
                    if dc.compare(u, v, beta) is not exact_ordering(dc.tree, u, v, beta):
                        mismatches += 1
        assert total_ops >= 100_000
        assert mismatches == 0

    def test_fallback_path_still_correct(self):
        # two clustering instances per cover make covering misses likely,
        # forcing the exact fallback route; the population checks every
        # answer against exact_ordering
        dc = _gate_closed_population(np.random.default_rng(77), seed=5, queries=800, lam=0.17)
        assert sum(dc.counters()["cover_fallbacks"]) > 0

    def test_degraded_orders_fall_back(self, monkeypatch):
        # With no similarity bits at level 0, no chained fraction passes
        # cmp3's width check: every cluster-order comparison falls back to
        # exact arithmetic and degrades its order.  Unforced, 146 of the
        # 167 difficult answers come from level 1 and 21 from covering
        # failures; forced, all 167 are fallbacks and level 1 never runs.
        init = DistCmpConfig.__init__

        def no_chain_bits(cfg, *args, **kwargs):
            init(cfg, *args, **kwargs)
            cfg.bits_chain[0] = 0

        built = []
        dc_init = DistCmp.__init__

        def record(dc, *args, **kwargs):
            dc_init(dc, *args, **kwargs)
            built.append(dc)

        monkeypatch.setattr(DistCmpConfig, "__init__", no_chain_bits)
        monkeypatch.setattr(DistCmp, "__init__", record)
        g = diamond_chain(300)
        stats = {}
        r = dijkstra_nonneg(
            g, 0, strategy="distcmp", seed=1, budget=WordBudget(16), collect=stats,
            constants={"C": 0.5, "lam": 1.0},
        )
        assert stats["distcmp.difficult_answers"][0] == stats["distcmp.cover_fallbacks"][0] == 167
        assert sum(stats["distcmp.level_queries"][1:]) == 0
        orders = list(built[0]._states[0].orders.values())
        assert len(orders) == 146 and all(order.degraded for order in orders)
        oracle = dijkstra_nonneg(g, 0, strategy="exact_oracle", budget=WordBudget(16))
        assert r.distances() == oracle.distances()

    def test_fanout_counter_bound(self):
        # at default constants every tie is answered at level 0, so the
        # bound is checked where the gate closes and levels >= 1 run
        dc = _gate_closed_population(np.random.default_rng(88), seed=6)
        cfg = dc.config
        queries = dc.counters()["level_queries"]
        assert queries[1] > 0
        logn = math.log2(cfg.capacity)
        for i in range(cfg.t):
            assert queries[i + 1] <= 64.0 * math.ceil(cfg.capacity / cfg.K**i) * logn**2

    def test_answer_kinds_partition_queries(self):
        # every level query is answered trivially, easily, as a proven tie
        # or difficultly; at default constants every tie is proven, and
        # the gate-closed population sends the wide ones down the
        # difficult path
        rng = np.random.default_rng(21)
        dc = DistCmp(DistCmpConfig(capacity=64, c=2, B=16), seed=8)
        nodes = [0]
        for _ in range(1500):
            if len(nodes) < 60 and (rng.random() < 0.3 or len(nodes) < 3):
                parent = nodes[int(rng.integers(0, len(nodes)))]
                nodes.append(dc.insert_leaf(parent, WEIGHT_POOL[int(rng.integers(0, 6))]))
            else:
                u = nodes[int(rng.integers(0, len(nodes)))]
                v = nodes[int(rng.integers(0, len(nodes)))]
                diff = root_distance(dc.tree, u) - root_distance(dc.tree, v)
                beta = diff if rng.random() < 0.5 and is_k_short(diff, 2, WordBudget(16)) else R(1, 3)
                assert dc.compare(u, v, beta) is exact_ordering(dc.tree, u, v, beta)
        totals = {}
        for c in (dc.counters(), _gate_closed_population(rng, seed=8).counters()):
            for i, queries in enumerate(c["level_queries"]):
                easy = c["easy_answers"][i]
                assert queries == (
                    c["trivial_answers"][i] + easy + c["tie_answers"][i] + c["difficult_answers"][i]
                )
                assert c["shortcut_answers"][i] <= easy
            for name in ("trivial_answers", "shortcut_answers", "tie_answers", "difficult_answers"):
                totals[name] = totals.get(name, 0) + sum(c[name])
        assert all(total > 0 for total in totals.values()), totals


class TestExactShortcut:
    def test_ties_answered_without_cover(self, rng):
        # At default constants every tie is proven on exact values and
        # answered EQUAL at level 0: no cover, no cluster order, no level 1.
        dc = DistCmp(DistCmpConfig(capacity=64, c=2, B=16), seed=2)
        nodes = [0]
        for _ in range(63):
            parent = nodes[int(rng.integers(0, len(nodes)))]
            nodes.append(dc.insert_leaf(parent, WEIGHT_POOL[int(rng.integers(0, len(WEIGHT_POOL)))]))
        ties = 0
        for _ in range(600):
            u = nodes[int(rng.integers(0, len(nodes)))]
            v = nodes[int(rng.integers(0, len(nodes)))]
            diff = root_distance(dc.tree, u) - root_distance(dc.tree, v)
            if u == v or not is_k_short(diff, 2, WordBudget(16)):
                continue
            assert dc.compare(u, v, diff) is dc.exact_compare(u, v, diff) is Ordering.EQUAL
            ties += 1
        c = dc.counters()
        assert ties > 0 and c["tie_answers"] == [ties] + [0] * dc.config.t
        assert c["difficult_answers"] == [0] * (dc.config.t + 1)
        assert sum(c["level_queries"][1:]) == 0
        assert dc._states[0] is None

    def test_fixed_point_tests_agree_with_exact_twins(self, rng):
        # At ties (beta = the exact difference) and at near-ties as close
        # as the exact gate admits, the fixed-point easy test and window
        # check give the answers of their exact twins.
        for seed in range(3):
            cfg = DistCmpConfig(capacity=48, c=2, B=16)
            dc = DistCmp(cfg, seed=seed)
            nodes = [0]
            for _ in range(47):
                parent = nodes[int(rng.integers(0, len(nodes)))]
                nodes.append(dc.insert_leaf(parent, WEIGHT_POOL[int(rng.integers(0, len(WEIGHT_POOL)))]))
            for i in range(cfg.t):
                members = [v for v in nodes if dc.slot_level[v] >= i]  # draws the levels
                assert len(members) > 1  # level i has pairs of distinct nodes
                easy_bits, window_bits = cfg.ell[i], cfg.ell_chain[i] - 2
                for _ in range(40):
                    u = members[int(rng.integers(0, len(members)))]
                    v = members[int(rng.integers(0, len(members)))]
                    diff = root_distance(dc.tree, u) - root_distance(dc.tree, v)
                    used = dc.tree.den_bits[u] + dc.tree.den_bits[v] + diff.den.bit_length()
                    window_room = window_bits - used
                    for k in (1, int(rng.integers(1, window_room)), window_room, easy_bits - used):
                        nudge = R(int(rng.choice([-1, 1])), diff.den << k)
                        for beta, want in ((diff, 0), (diff + nudge, -nudge.sign)):
                            assert dc._exact_sign(u, v, beta, easy_bits) == want
                            assert dc._fixed_sign(i, u, v, beta) == want
                            if k <= window_room:
                                assert dc._exact_sign(u, v, beta, window_bits) == want
                                assert dc._fixed_window(i, u, v, beta) is (want == 0)

    def test_gate_closes_on_wide_values(self):
        # ell_0 = 4000 bits against a chain whose weight denominators are
        # distinct 15-bit primes: deep nodes fail the gate, so level 0
        # answers on fixed-point values there.
        rng = np.random.default_rng(31)
        cfg = DistCmpConfig(capacity=512, c=1, B=16, C=0.5, lam=1.0)
        assert cfg.ell[0] == 4000
        dc = DistCmp(cfg, seed=3)
        nodes = [0]
        primes = [p for p in _primes_below(1 << 15) if p > 1 << 14]
        for p in primes[:420]:
            nodes.append(dc.insert_leaf(nodes[-1], R(int(rng.integers(1, 50)), p)))
        for _ in range(3000):
            u = nodes[int(rng.integers(0, len(nodes)))]
            v = nodes[int(rng.integers(0, len(nodes)))]
            beta = R(int(rng.integers(-64, 65)), int(rng.integers(1, 1 << 15)))
            assert dc.compare(u, v, beta) is exact_ordering(dc.tree, u, v, beta)
        c = dc.counters()
        assert 0 < c["shortcut_answers"][0] < c["easy_answers"][0]


class TestKeys:
    # Heap keys dist(node) + w from `DistCmp.key`, compared by
    # `DistCmp.compare(a, b)`, against the node query compare(u, v, w2 - w1)
    # on a twin structure.  ell_0 = 8000 bits; the chain's weight
    # denominators are distinct 15-bit primes, and the key weights' dens
    # have every bit length from 1 to 15, so the bounds of two keys sum
    # to every value around ell_0.
    POOL = [R(1, 1), R(1, 3), R(2, 5), R(3, 11), R(1, 17), R(5, 37), R(1, 67), R(7, 131),
            R(1, 257), R(3, 521), R(1, 1031), R(1, 2053), R(9, 4099), R(1, 8209), R(1, 16411)]

    def _twins(self, depth):
        cfg = DistCmpConfig(capacity=512, c=2, B=16, C=0.5, lam=1.0)
        assert cfg.ell[0] == 8000
        dcs = [DistCmp(cfg, seed=5) for _ in range(2)]
        primes = [p for p in _primes_below(1 << 15) if p > 1 << 14]
        at = [(0, 0, 1)]
        for i, p in enumerate(primes[:depth]):
            w = R(1 + i % 5, p)
            node = [dc.insert_leaf(at[-1][0], w) for dc in dcs][0]
            num, den = at[-1][1:]
            at.append((node, num * w.den + w.num * den, den * w.den))
        # A node past ell_0 is handed to `key` without its pair.
        at = [(v, n, d) if dcs[0].tree.den_bits[v] <= 8000 else (v, None, None) for v, n, d in at]
        return dcs, at

    def test_key_queries_match_node_queries_at_the_gate(self, monkeypatch):
        (keyed, plain), at = self._twins(300)
        reads = []
        exact_sign = IncTree.exact_sign

        def spy(tree, u, v, beta):
            reads.append(tree is keyed.tree)
            return exact_sign(tree, u, v, beta)

        monkeypatch.setattr(IncTree, "exact_sign", spy)
        rng = np.random.default_rng(38)
        sums = set()
        for _ in range(4000):
            du = int(rng.integers(255, 280))
            dv = min(300, max(0, 533 - du + int(rng.integers(-2, 3))))
            if rng.random() < 0.1:
                dv = du
            w1, w2 = (self.POOL[int(j)] for j in rng.integers(0, len(self.POOL), size=2))
            if rng.random() < 0.2:
                w2 = R(w1.num, w1.den)  # equal, a distinct object
            elif rng.random() < 0.2:
                dv = du - 1  # a tie: v's key takes the edge to u on top of w1
                w2 = keyed.tree.weight[at[du][0]] + w1
            a, b = keyed.key(at[du], w1), keyed.key(at[dv], w2)
            assert a[2] == keyed.tree.den_bits[at[du][0]] + w1.den.bit_length()
            assert (a[3] is None) is (a[2] > 8000)
            del reads[:]
            got = keyed.compare(a, b)
            want = plain.compare(at[du][0], at[dv][0], ZERO if w1 == w2 else w2 - w1)
            assert got is want
            assert keyed.counters() == plain.counters()
            if a[2] + b[2] <= 8000:  # decided on the pairs: no root pair read
                assert not any(reads)
                sums.add(a[2] + b[2])
        assert 8000 in sums
        c = keyed.counters()
        assert min(c["trivial_answers"][0], c["tie_answers"][0], c["shortcut_answers"][0]) > 0
        assert c["easy_answers"][0] > c["shortcut_answers"][0]  # the fixed point answered too


class TestAnchorPairs:
    def test_pair_sums_weights_from_the_anchor(self, rng):
        # IncTree.pair(lvl, v) is the unreduced weight of the path to v from
        # its nearest ancestor of level >= lvl, v included, and from the
        # root alone at level t, where non-root nodes are placed on purpose;
        # _anchor reduces the same value.
        cfg = DistCmpConfig(capacity=120, c=2, B=16, C=0.5, lam=1.0)
        t = cfg.t
        assert t >= 3
        for seed in range(4):
            dc = DistCmp(cfg, seed=seed)
            dc.slot_level[1:] = [int(lv) for lv in rng.integers(0, t + 1, size=cfg.capacity - 1)]
            dc.slot_level[int(rng.integers(1, cfg.capacity))] = t
            for _ in range(cfg.capacity - 1):
                parent = int(rng.integers(0, len(dc.tree)))
                dc.insert_leaf(parent, WEIGHT_POOL[int(rng.integers(0, len(WEIGHT_POOL)))])
            tree = dc.tree
            assert t in tree.level[1:]
            queries = [(lvl, v) for lvl in range(t + 1) for v in range(len(tree))]
            for k in rng.permutation(len(queries)).tolist():  # memos fill in any order
                lvl, v = queries[k]
                total, den, x = Fraction(0), 1, v
                while x != 0 and (lvl == t or tree.level[x] < lvl):
                    w = tree.weight[x]
                    total += Fraction(w.num, w.den)
                    den *= w.den
                    x = tree.parent[x]
                num, got_den = tree.pair(lvl, v)
                assert got_den == den and Fraction(num, den) == total
                assert dc._anchor(lvl, v) == (x, R(total.numerator, total.denominator))

    def test_gate_closed_values_match_path_weight_formulas(self, monkeypatch):
        # The gate-closed population reaches the level-0 fixed-point tests,
        # the cluster windows and the level-1 anchors.  Every value they
        # return equals its formula on reduced IncTree.path_weight sums.
        calls = {name: [] for name in ("_a_scaled", "_anchor", "_fixed_sign", "_fixed_window")}
        for name, log in calls.items():
            def spy(self, *args, _original=getattr(DistCmp, name), _log=log):
                got = _original(self, *args)
                _log.append((args, got))
                return got

            monkeypatch.setattr(DistCmp, name, spy)
        dc = _gate_closed_population(np.random.default_rng(99), seed=7)
        cfg, tree = dc.config, dc.tree
        assert all(calls.values()), {name: len(log) for name, log in calls.items()}
        scale = [(1 << (cfg.ell[i] + 2)) * cfg.capacity for i in range(cfg.t)]
        approx = [{0: 0} for _ in range(cfg.t)]

        def a(i, v):
            if v not in approx[i]:
                z = tree.nearest_strict_marked_ancestor(v, i)
                d = tree.path_weight(z, v)
                approx[i][v] = a(i, z) + (scale[i] * d.num) // d.den
            return approx[i][v]

        for (i, v), got in calls["_a_scaled"]:
            assert got == a(i, v)
        for (lvl, v), got in calls["_anchor"]:
            anc = 0 if lvl >= cfg.t else tree.nearest_marked_ancestor(v, lvl)
            assert got == (anc, ZERO if anc == v else tree.path_weight(anc, v))
        for (i, u, v, beta), got in calls["_fixed_sign"]:
            lhs = (a(i, u) - a(i, v)) * beta.den
            rhs = scale[i] * beta.num
            margin = 2 * cfg.capacity * beta.den
            assert type(got) is int
            assert got == (1 if lhs > rhs + margin else -1 if lhs < rhs - margin else 0)
        for (i, x, y, frac), got in calls["_fixed_window"]:
            window = (1 << (cfg.ell[i] - cfg.ell_chain[i] + 3)) * cfg.capacity
            lhs = (a(i, x) - a(i, y)) * frac.den - scale[i] * frac.num
            assert got is (-window * frac.den <= lhs <= window * frac.den)


class TestClusterOrderUnit:
    def test_groups_and_relation(self):
        order = ClusterOrder(lambda x, y: ((x > y) - (x < y), True))
        for v in (5, 1, 3, 9, 7):
            order.insert(v)
        assert order.relation(1, 9) == -1
        assert order.relation(9, 1) == 1
        order2 = ClusterOrder(lambda x, y: (0, True))
        order2.insert(1)
        order2.insert(2)
        assert order2.relation(1, 2) == 0
        order.remove(3)
        assert order.relation(1, 3) is None


class TestPairwiseComparator:
    def _grow(self, pdc, rng, n):
        nodes = [0]
        for _ in range(n - 1):
            parent = nodes[int(rng.integers(0, len(nodes)))]
            nodes.append(pdc.insert_leaf(parent, WEIGHT_POOL[int(rng.integers(0, 6))]))
        return nodes

    def test_agrees_with_exact(self):
        rng = np.random.default_rng(13)
        budget = WordBudget(16)
        pdc = PairwiseDeltaComparator(60, 8, budget, seed=4)
        nodes = self._grow(pdc, rng, 60)
        for _ in range(10_000):
            u = nodes[int(rng.integers(0, len(nodes)))]
            v = nodes[int(rng.integers(0, len(nodes)))]
            beta = R(int(rng.integers(-10, 11)), int(rng.integers(1, 12)))
            diff = root_distance(pdc.tree, u) - root_distance(pdc.tree, v)
            assert pdc.compare(u, v, beta) is Ordering.of(diff._cmp(beta))

    def test_tail_beyond_hops_falls_back(self):
        # gamma this small samples no mark but the root, so on a path every
        # node deeper than h has a tail beyond h hops
        rng = np.random.default_rng(15)
        h = 2
        pdc = PairwiseDeltaComparator(30, h, WordBudget(16), gamma=0.01, seed=3)
        assert not pdc._marked_slots
        nodes = [0]
        for _ in range(29):
            nodes.append(pdc.insert_leaf(nodes[-1], WEIGHT_POOL[int(rng.integers(0, 8))]))
        deep = 0
        for _ in range(400):
            u, v = (int(x) for x in rng.choice(nodes, 2))
            beta = R(int(rng.integers(-10, 11)), int(rng.integers(1, 12)))
            diff = root_distance(pdc.tree, u) - root_distance(pdc.tree, v)
            assert pdc.compare(u, v, beta) is Ordering.of(diff._cmp(beta))
            deep += max(pdc.tree.depth[u], pdc.tree.depth[v]) > h
        assert pdc.exact_fallbacks == deep > 0

    def test_wide_shifted_denominator_falls_back(self):
        # h=1 and B=2 give a 9-bit table; with every node marked the tails
        # are empty, so the shifted value is beta itself and falls back
        # exactly when its denominator reaches 2^9
        rng = np.random.default_rng(16)
        pdc = PairwiseDeltaComparator(12, 1, WordBudget(2), gamma=100.0, seed=5)
        assert pdc.bits == 9
        nodes = self._grow(pdc, rng, 12)
        assert all(pdc.tree.nearest_marked_ancestor(u, 1) == u for u in nodes)
        wide = 0
        for _ in range(400):
            u, v = (int(x) for x in rng.choice(nodes, 2))
            beta = R(int(rng.integers(-10, 11)), int(rng.integers(1, 1100)))
            diff = root_distance(pdc.tree, u) - root_distance(pdc.tree, v)
            assert pdc.compare(u, v, beta) is Ordering.of(diff._cmp(beta))
            wide += beta.den >= 1 << 9
        assert pdc.exact_fallbacks == wide > 0

    def test_self_pair_is_zero(self):
        pdc = PairwiseDeltaComparator(10, 3, WordBudget(8), seed=1)
        ap = pdc._ra(0, 0)
        assert ap.lo == ZERO and ap.hi == ZERO

    def test_full_tree_rejects_insert(self):
        # the root holds slot 0, so capacity 4 leaves room for three leaves
        pdc = PairwiseDeltaComparator(4, 1, WordBudget(8), gamma=100.0, seed=0)
        for _ in range(3):
            pdc.insert_leaf(0, R(1, 2))
        with pytest.raises(ValueError):
            pdc.insert_leaf(0, R(1, 2))
        assert len(pdc.tree) == 4

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a positive finite number"):
            PairwiseDeltaComparator(10, 3, WordBudget(8), gamma=gamma)

    @pytest.mark.parametrize("hop", [2.5, "3", 3.0, True, 0])
    def test_rejects_bad_hop_parameter(self, hop):
        # The rule of cut_preprocess: at construction, not at the first
        # compare, and True is no integer here.
        with pytest.raises(ValueError, match="hop parameter must be a positive integer"):
            PairwiseDeltaComparator(10, hop, WordBudget(16))

    def test_accepts_numpy_integer_hop_parameter(self):
        pdc = PairwiseDeltaComparator(10, np.int64(3), WordBudget(16))
        assert type(pdc.h) is int and pdc.bits == PairwiseDeltaComparator(10, 3, WordBudget(16)).bits

    def test_all_marked_short_tails(self):
        # a hop parameter of 1 with everything marked keeps every tail empty
        budget = WordBudget(8)
        pdc = PairwiseDeltaComparator(6, 1, budget, gamma=100.0, seed=2)
        rng = np.random.default_rng(14)
        nodes = self._grow(pdc, rng, 6)
        assert all(slot in pdc._marked_slots or slot == 0 for slot in range(6))
        for u in nodes:
            assert pdc.tree.nearest_marked_ancestor(u, 1) == u


class TestShortnessBound:
    # `compare`, `insert_leaf` and `key` test c-shortness inline against
    # the bound 2^(cB-1) that `is_k_short` uses, with its messages.
    C_CLASS, B_BITS = 2, 8
    BOUND = 1 << (C_CLASS * B_BITS - 1)

    def _dc(self):
        return DistCmp(DistCmpConfig(capacity=80, c=self.C_CLASS, B=self.B_BITS), seed=0)

    def _edge_values(self):
        b = self.BOUND
        nums = (0, 1, b - 1, b, b + 1, -1, -(b - 1), -b, -(b + 1))
        return [R(n, d) for n in nums for d in (1, 2, b - 2, b - 1, b, b + 1)]

    def test_accepts_values_just_below_the_bound(self):
        b = self.BOUND
        dc = self._dc()
        v = dc.insert_leaf(0, R(1, 2))
        for x in (R(b - 1), R(-(b - 1)), R(b - 1, b - 2), R(-(b - 1), b - 2), R(1, b - 1)):
            assert dc.compare(v, 0, x) in Ordering
            assert dc.tree.weight[dc.insert_leaf(v, x)] is x

    @pytest.mark.parametrize("x", [R(1 << 15), R(-(1 << 15)), R(1, 1 << 15)])
    def test_rejects_values_at_the_bound(self, x):
        dc = self._dc()
        v = dc.insert_leaf(0, R(1, 2))
        with pytest.raises(ValueError, match=f"^query value {x} is not 2-short$"):
            dc.compare(v, 0, x)
        with pytest.raises(ValueError, match=f"^weight {x} is not 2-short$"):
            dc.insert_leaf(v, x)
        with pytest.raises(ValueError, match=f"^weight {x} is not 2-short$"):
            dc.key((v, 2, 1), x)
        assert len(dc.tree) == 2 and dc.level_queries[0] == 0

    def test_decisions_agree_with_is_k_short(self):
        budget = WordBudget(self.B_BITS)
        dc = self._dc()
        values = self._edge_values()
        assert len({is_k_short(x, self.C_CLASS, budget) for x in values}) == 2
        for x in values:
            want = is_k_short(x, self.C_CLASS, budget)
            for call in (lambda: dc.compare(0, 0, x), lambda: dc.insert_leaf(0, x),
                         lambda: dc.key((0, 0, 1), x)):
                try:
                    call()
                    got = True
                except ValueError as exc:
                    assert str(exc).endswith(f"{x} is not 2-short")
                    got = False
                assert got == want, x
