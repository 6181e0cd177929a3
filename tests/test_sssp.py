import hashlib
import math

import numpy as np
import pytest

from ratpath.graph import (
    NegativeCycle,
    WeightedDigraph,
    augment_source,
    bf_exact,
    gen_random,
    gen_small_diff,
    plant_negative_cycle,
    serialize_tree,
    verify_sssp,
)
from ratpath.rational import BigRational, WordBudget, ZERO
from ratpath.sssp import (
    BOB_STRATEGIES,
    IllegalBobMove,
    NegativeWeightError,
    cut_dijkstra,
    cut_preprocess,
    dijkstra_nonneg,
    game_simulate,
    negative_sssp,
    replay_enhanced_order,
)


def R(n, d=1):
    return BigRational(n, d)


B16 = WordBudget(16)


class TestDijkstraNonneg:
    def test_single_vertex(self):
        g = WeightedDigraph(1, source=0)
        res = dijkstra_nonneg(g, 0)
        assert res.tree_vertices() == [0]
        assert res.distances() == [ZERO]

    def test_negative_weight_rejected(self):
        g = WeightedDigraph(2, [(0, 1, R(-1))])
        with pytest.raises(NegativeWeightError):
            dijkstra_nonneg(g, 0)

    def test_gadget_resolves_gap(self):
        g, gap = gen_small_diff(6)
        res = dijkstra_nonneg(g, 0, strategy="distcmp", seed=1)
        sink = g.n - 1
        assert res.distances()[sink] == R(1, 2)
        assert gap == R(1, 30)

    @pytest.mark.parametrize("strategy", ["exact_oracle", "distcmp", "pairwise_delta"])
    def test_matches_oracle_random(self, strategy):
        rng = np.random.default_rng(55)
        for trial in range(60):
            n = int(rng.integers(2, 50))
            m = int(rng.integers(0, min(3 * n, n * (n - 1)) + 1))
            g = gen_random(n, m, int(rng.integers(0, 2**31)))
            res = dijkstra_nonneg(g, 0, strategy=strategy, seed=trial)
            want = bf_exact(g, 0).dist
            got = res.distances()
            assert got == want, (strategy, trial)

    @pytest.mark.parametrize("strategy", ["exact_oracle", "distcmp", "pairwise_delta"])
    def test_matches_eager_augmentation(self, strategy):
        # The solver offers aux edges only after its real heap drains; the
        # tree must equal the one grown over the eagerly augmented graph,
        # aux parents and ties included.  Zero weights and sparse edge sets
        # make ties and unreachable parts common; some graphs already carry
        # aux edges from another vertex, and some give the source an edge to
        # every vertex.
        rng = np.random.default_rng(12)
        choices = [R(0), R(0), R(1, 3), R(1, 2), R(1), R(2, 3), R(5, 7)]
        for trial in range(300):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(0, n))
            g = WeightedDigraph(n)
            for _ in range(int(rng.integers(0, 2 * n + 1))):
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                g.add_edge(u, v, choices[int(rng.integers(0, len(choices)))])
            if trial % 10 == 0:
                g = augment_source(g, int(rng.integers(0, n)))
            elif trial % 10 == 1:
                for v in range(n):
                    g.add_edge(s, v, choices[int(rng.integers(0, len(choices)))])
            want = dijkstra_nonneg(augment_source(g, s), s, strategy="exact_oracle").parent
            got = dijkstra_nonneg(g, s, strategy=strategy, seed=trial).parent
            assert got == want, (strategy, trial)

    @pytest.mark.parametrize("strategy", ["exact_oracle", "distcmp", "pairwise_delta"])
    def test_source_out_of_range(self, strategy):
        g = WeightedDigraph(3, [(0, 1, R(1))])
        for s in (-1, g.n):
            with pytest.raises(ValueError, match="out of range"):
                dijkstra_nonneg(g, s, strategy=strategy)

    def test_unreachable_reported(self):
        g = WeightedDigraph(3, [(1, 2, R(1))])
        res = dijkstra_nonneg(g, 0)
        assert not res.reachable(1) and not res.reachable(2)
        assert res.distances()[1] is None

    def test_deterministic(self):
        g = gen_random(30, 90, 4)
        a = dijkstra_nonneg(g, 0, seed=9).parent
        b = dijkstra_nonneg(g, 0, seed=9).parent
        assert a == b

    def test_self_verifies(self):
        for seed in range(10):
            g = gen_random(25, 70, seed)
            res = dijkstra_nonneg(g, 0, seed=seed)
            assert verify_sssp(g, res, mode="exact").valid


    @pytest.mark.parametrize(
        "family, pinned",
        [
            (
                "ties",
                (59, 110, [353, 111, 3], [34, 95, 3], [105, 0, 0], [214, 16, 0], [0, 3, 0], 842,
                 "0cfafd07ebe7bfa3c03ebe592cb9f84cb60e5899a1e80d6aa0e668c1086f0f3b"),
            ),
            (
                "gadget",
                (61, 61, [80, 0, 0], [20, 0, 0], [60, 0, 0], [0, 0, 0], [0, 0, 0], 0,
                 "2086e26e2f21f530255e61ffebfef5b3b867ec7cca63cf2cadf266be00d3e6ae"),
            ),
            (
                "ties-400",
                (399, 805, [3586, 1793, 45, 1], [141, 1399, 39, 1], [820, 0, 0, 0], [2625, 394, 6, 0],
                 [0, 0, 0, 0], 18606, "36c539820d2ececd51dafdfb848c14f64dd82bd6e2b0297998a0ea7160f0682c"),
            ),
        ],
    )
    def test_distcmp_instance_pinned(self, family, pinned):
        # Counters and tree bytes of fixed runs, pinned so that a change
        # to how distcmp decides its comparisons keeps them identical:
        # all-1/3 weights (exact ties, the cover and level 1 run), at n=60
        # and at n=400 where most cover instances reject most edges, and a
        # padded window-3 gadget chain (every comparison easy).  On the
        # n=60 ties run the 6-slot level-1 cover leaves one edge without a
        # shared cluster (a covering failure, which the cover allows with
        # small probability), and its three queries take the exact fallback.
        if family.startswith("ties"):
            n = 400 if family == "ties-400" else 60
            skeleton = gen_random(n, 4 * n, 3)
            g = WeightedDigraph(n, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges], source=0)
        else:
            g, _ = gen_small_diff(512, padding=True, chain=20, window=3)
        stats = {}
        r = dijkstra_nonneg(g, 0, strategy="distcmp", seed=1, collect=stats)
        pushes, relaxations, queries, trivial, easy, difficult, fallbacks, updates, digest = pinned
        assert stats["heap_pushes"] == pushes
        assert stats["relaxations"] == relaxations
        assert stats["distcmp.level_queries"] == queries
        assert stats["distcmp.trivial_answers"] == trivial
        assert stats["distcmp.easy_answers"] == easy
        assert stats["distcmp.shortcut_answers"] == easy  # every easy answer is a shortcut
        assert stats["distcmp.difficult_answers"] == difficult
        assert stats["distcmp.cover_fallbacks"] == fallbacks
        assert stats["distcmp.dsu_inconsistencies"] == 0
        assert stats["distcmp.cover_updates"] == updates
        assert hashlib.sha256(serialize_tree(r).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "family, pinned",
        [
            ("ties", (162, 0, "0cfafd07ebe7bfa3c03ebe592cb9f84cb60e5899a1e80d6aa0e668c1086f0f3b")),
            ("gadget", (60, 0, "2086e26e2f21f530255e61ffebfef5b3b867ec7cca63cf2cadf266be00d3e6ae")),
        ],
    )
    def test_pairwise_instance_pinned(self, family, pinned):
        # The pairwise_delta path on the instances above: table entries
        # computed, exact fallbacks and tree bytes.
        if family == "ties":
            skeleton = gen_random(60, 240, 3)
            g = WeightedDigraph(60, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges], source=0)
        else:
            g, _ = gen_small_diff(512, padding=True, chain=20, window=3)
        stats = {}
        r = dijkstra_nonneg(g, 0, strategy="pairwise_delta", seed=1, collect=stats)
        pairs, fallbacks, digest = pinned
        assert stats["pairwise_delta.pairs_computed"] == pairs
        assert stats["pairwise_delta.exact_fallbacks"] == fallbacks
        assert hashlib.sha256(serialize_tree(r).encode()).hexdigest() == digest


class TestCutDijkstra:
    def _context(self, g, k):
        ctx = cut_preprocess(g, k, budget=B16)
        assert not isinstance(ctx, NegativeCycle)
        return ctx

    def test_source_zero(self):
        g = gen_random(12, 30, 2, "small", "priced")
        ctx = self._context(g, 3)
        run = cut_dijkstra(ctx, g, 0)
        assert run.dist[0] == ZERO

    def test_context_table_matches_direct_approximation(self):
        from ratpath.graph import check_eps_feasible

        g = gen_random(14, 40, 6, "small", "priced")
        ctx = self._context(g, 3)
        assert check_eps_feasible(g, ctx.price, ctx.eps)

    def test_rank_by_exact_key_matches_pair_approximations(self):
        # The paper ranks the vertices relaxed from one vertex by
        # comparing 2B-bit approximations of price differences against
        # weight differences; cut runs sort by the exact key instead
        # (shifted by dist(v), which is the same for every vertex ranked).
        # Pins that the two give the same permutation, because the
        # approximation answers every pair exactly.
        import functools

        from ratpath.cfrac import Ordering, best_approx, compare_via_approx
        from ratpath.rational import is_k_short

        rng = np.random.default_rng(11)
        checked = 0
        for bits in (16, 64):
            budget = WordBudget(bits)
            half = 1 << (bits - 1)
            for trial in range(4):
                g = gen_random(12, 36, 20 + trial, "small", "priced")
                ctx = cut_preprocess(g, 1 + trial % 3, budget=budget)
                assert not isinstance(ctx, NegativeCycle)
                price = list(ctx.price.values)
                # Copied prices and weights make exact key ties, which
                # break by vertex id on both sides.
                for _ in range(3):
                    i, j = (int(x) for x in rng.choice(g.n, 2, replace=False))
                    price[j] = price[i]
                for _ in range(6):
                    size = int(rng.integers(2, g.n + 1))
                    verts = [int(u) for u in rng.choice(g.n, size, replace=False)]
                    weight = {
                        u: R(int(rng.integers(-half + 1, half)), int(rng.integers(1, half)))
                        for u in verts
                    }
                    for u in verts:
                        twin = int(rng.choice(verts))
                        if price[twin] == price[u] and rng.random() < 0.5:
                            weight[u] = weight[twin]
                    touched = [(u, weight[u]) for u in verts]
                    assert all(is_k_short(w, 1, budget) for _, w in touched)

                    def pair_cmp(a, b):
                        diff = a[1] - b[1]
                        assert is_k_short(diff, 2, budget)
                        gap = price[a[0]] - price[b[0]]
                        r = compare_via_approx(best_approx(gap, 2 * bits), diff)
                        assert r is Ordering.of(gap._cmp(diff))
                        if r is Ordering.EQUAL:
                            return (a[0] > b[0]) - (a[0] < b[0])
                        # p(a) - p(b) > w(a) - w(b)  <=>  key(a) < key(b)
                        return -1 if r is Ordering.GREATER else 1

                    by_pairs = sorted(touched, key=functools.cmp_to_key(pair_cmp))
                    by_key = sorted(touched, key=lambda t: (t[1] - price[t[0]], t[0]))
                    assert by_pairs == by_key
                    for a in touched:
                        for b in touched:
                            pair_cmp(a, b)
                            checked += 1
        assert checked > 1000

    def test_exact_on_hop_bounded(self):
        from ratpath.rational import is_k_short

        rng = np.random.default_rng(66)
        checked = 0
        for trial in range(200):
            n = int(round(math.exp(rng.uniform(math.log(4), math.log(80)))))
            m = int(rng.integers(n, min(3 * n, n * (n - 1)) + 1))
            g = gen_random(n, m, int(rng.integers(0, 2**31)), "small", "priced")
            k = int(rng.choice([2, max(2, math.isqrt(n)), n]))
            ctx = self._context(g, k)
            run = cut_dijkstra(ctx, g, 0)
            full = bf_exact(g, 0).dist
            hop = bf_exact(g, 0, hop_bound=k).dist
            for v in range(n):
                if run.dist[v] is not None:
                    assert is_k_short(run.dist[v], k + 1, B16)
                    # always an upper bound witnessed by a real path
                    path = run.witness_path(v)
                    acc = ZERO
                    for a, b in zip(path, path[1:]):
                        acc = acc + g.edge_between(a, b).weight
                    assert acc == run.dist[v]
                    assert full[v] is not None and run.dist[v] >= full[v]
                if full[v] is not None and hop[v] is not None and hop[v] == full[v]:
                    checked += 1
                    assert run.dist[v] == full[v], (trial, v)
        assert checked > 500

    def test_exact_path_of_k_edges(self):
        g = WeightedDigraph(4, [(0, 1, R(-1, 2)), (1, 2, R(-1, 2)), (2, 3, R(-1, 2))])
        ctx = self._context(g, 3)
        run = cut_dijkstra(ctx, g, 0)
        assert run.dist[3] == R(-3, 2)

    def test_heap_insert_bound(self):
        rng = np.random.default_rng(67)
        for trial in range(30):
            n = int(rng.integers(4, 50))
            g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            k = max(2, math.isqrt(n))
            ctx = self._context(g, k)
            run = cut_dijkstra(ctx, g, 0)
            assert run.heap_inserts <= n + 2 * n * math.sqrt(n)

    def test_replay_reproduces_dist(self):
        rng = np.random.default_rng(68)
        for trial in range(30):
            n = int(rng.integers(4, 40))
            g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            k = int(rng.choice([2, max(2, math.isqrt(n))]))
            ctx = self._context(g, k)
            run = cut_dijkstra(ctx, g, 0)
            replay = replay_enhanced_order(g, 0, run.order, run.processed)
            assert replay == run.dist

    def test_k_equals_n_matches_plain_dijkstra(self):
        for seed in range(12):
            g = gen_random(18, 50, seed)
            ctx = self._context(g, 18)
            run = cut_dijkstra(ctx, g, 0)
            want = dijkstra_nonneg(g, 0, strategy="exact_oracle").distances()
            assert run.dist == want

    def test_cut_runs_pinned(self):
        # Distances, parents, extraction order, processed set and insert
        # count of 160 fixed runs, pinned so that a change to how a run
        # decides its relaxations or orders its heap keeps them identical.
        h = hashlib.sha256()
        for bits in (16, 64):
            for n in (10, 20, 40, 80):
                for seed in range(4):
                    g = gen_random(n, 3 * n, seed, "small", "priced")
                    ctx = cut_preprocess(g, 3, budget=WordBudget(bits))
                    assert not isinstance(ctx, NegativeCycle)
                    for s in range(5):
                        run = cut_dijkstra(ctx, g, s)
                        dist = [None if d is None else str(d) for d in run.dist]
                        fields = (dist, run.parent, run.order, run.processed, run.heap_inserts)
                        h.update(repr(fields).encode())
        assert h.hexdigest() == "444322604c6f5d10a370274795cfb1c193e4dd661fb0e1c834fcc3353e674d58"

    def test_recombination_graph_dominance(self):
        # estimates between hit-set vertices dominate true distances
        rng = np.random.default_rng(69)
        for trial in range(10):
            n = int(rng.integers(6, 26))
            g = gen_random(n, 3 * n, int(rng.integers(0, 2**31)), "small", "priced")
            k = max(2, math.isqrt(n))
            ctx = self._context(g, k)
            sample = sorted(int(x) for x in rng.permutation(n)[: max(2, n // 3)])
            runs = {z: cut_dijkstra(ctx, g, z) for z in sample}
            for z in sample:
                full = bf_exact(g, z).dist
                for v in sample:
                    est = runs[z].dist[v]
                    if est is not None:
                        assert full[v] is not None and est >= full[v]


class TestNegativePipeline:
    def test_matches_oracle(self):
        rng = np.random.default_rng(70)
        for trial in range(25):
            n = int(rng.integers(3, 40))
            g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            for k in (2, None):
                res = negative_sssp(g, 0, k=k, seed=trial, budget=B16)
                assert not isinstance(res, NegativeCycle)
                assert res.distances() == bf_exact(g, 0).dist

    def test_planted_cycle_detected(self):
        for seed in range(15):
            g = plant_negative_cycle(gen_random(15, 45, seed, "small", "priced"), seed)
            res = negative_sssp(g, 0, seed=seed, budget=B16)
            assert isinstance(res, NegativeCycle)
            assert res.weight < ZERO

    def test_agrees_with_nonneg_solver(self):
        for seed in range(10):
            g = gen_random(20, 60, seed)
            a = negative_sssp(g, 0, seed=seed, budget=B16)
            b = dijkstra_nonneg(g, 0, seed=seed)
            assert a.distances() == b.distances()

    def test_fixed_instance_pinned(self):
        # Counters and tree bytes of one fixed run, pinned so that a
        # rewrite of the pipeline's internals keeps them identical.
        g = gen_random(40, 120, 3, "small", "priced")
        stats = {}
        r = negative_sssp(g, 0, seed=1, budget=WordBudget(16), collect=stats)
        assert stats["scaling_rounds"] == 248
        assert stats["cut_heap_inserts"] == 3499
        assert stats["cut_heap_inserts_max"] == 98
        assert stats["cut_relaxations"] == 2623
        assert stats["hitset_size"] == 40
        digest = hashlib.sha256(serialize_tree(r).encode()).hexdigest()
        assert digest == "7f2337fefec4fd566c936335d0c50e7ec1ea969876dc29c8101a8ac9b3e7e551"

    def test_builds_no_distcmp(self, monkeypatch):
        # The pipeline compares the exact values it holds: no cut run and
        # no verification of its own builds the randomized structure.
        import ratpath.distcmp

        def refuse(self, *args, **kwargs):
            raise AssertionError("negative_sssp built a DistCmp")

        monkeypatch.setattr(ratpath.distcmp.DistCmp, "__init__", refuse)
        g = gen_random(20, 60, 4, "small", "priced")
        res = negative_sssp(g, 0, seed=2, budget=B16)
        assert res.distances() == bf_exact(g, 0).dist
        bad = plant_negative_cycle(gen_random(15, 45, 3, "small", "priced"), 3)
        cyc = negative_sssp(bad, 0, seed=3, budget=B16)
        assert isinstance(cyc, NegativeCycle) and cyc.weight < ZERO

    def test_uses_no_pair_approximations(self, monkeypatch):
        # Cut runs rank by the exact key: no best approximation and no
        # approximate comparison anywhere in the pipeline.
        import ratpath.cfrac
        import ratpath.sssp

        def refuse(*args, **kwargs):
            raise AssertionError("negative_sssp used a pair approximation")

        monkeypatch.setattr(ratpath.cfrac, "best_approx", refuse)
        monkeypatch.setattr(ratpath.cfrac, "compare_via_approx", refuse)
        monkeypatch.setattr(ratpath.sssp, "compare_via_approx", refuse)
        g = gen_random(20, 60, 4, "small", "priced")
        res = negative_sssp(g, 0, seed=2, budget=B16)
        assert res.distances() == bf_exact(g, 0).dist
        bad = plant_negative_cycle(gen_random(15, 45, 3, "small", "priced"), 3)
        cyc = negative_sssp(bad, 0, seed=3, budget=B16)
        assert isinstance(cyc, NegativeCycle) and cyc.weight < ZERO

    def test_single_vertex(self):
        g = WeightedDigraph(1, source=0)
        res = negative_sssp(g, 0, budget=B16)
        assert res.distances() == [ZERO]

    def test_unreachable_stay_out(self):
        g = WeightedDigraph(4, [(0, 1, R(-1, 2)), (2, 3, R(1))], source=0)
        res = negative_sssp(g, 0, budget=B16)
        assert res.distances()[1] == R(-1, 2)
        assert res.distances()[2] is None and res.distances()[3] is None

    def test_counters_collected(self):
        stats = {}
        g = gen_random(16, 48, 8, "small", "priced")
        negative_sssp(g, 0, seed=1, budget=B16, collect=stats)
        assert stats["cut_heap_inserts"] > 0
        assert stats["scaling_rounds"] > 0
        assert stats["hitset_size"] >= 1


class TestGame:
    def test_single_index_frozen_value(self):
        # with the alternating turn order the last assignment never pays
        assert game_simulate(10, "greedy-single-index", 0) == 9

    def test_n_one(self):
        assert game_simulate(1, "front-loaded", 0) <= 2

    def test_bound_all_strategies(self):
        for name in BOB_STRATEGIES:
            for n in (50, 100):
                for seed in range(5):
                    assert game_simulate(n, name, seed) <= 2 * n * math.sqrt(n)

    def test_illegal_moves(self):
        with pytest.raises(IllegalBobMove):
            game_simulate(4, lambda t, n, rng: [0, 0, 0, 0], 0)
        with pytest.raises(IllegalBobMove):
            game_simulate(4, lambda t, n, rng: [1, 1, 0, 0], 0)
        with pytest.raises(IllegalBobMove):
            game_simulate(4, lambda t, n, rng: [2, 3, 0, 0], 0)

    def test_custom_strategy_callable(self):
        def alternating(turn, n, rng):
            out = [0] * n
            out[turn % n] = 1
            return out

        assert game_simulate(12, alternating, 0) <= 2 * 12 * math.sqrt(12)
