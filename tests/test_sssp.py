import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ratpath.graph import (
    NegativeCycle,
    WeightedDigraph,
    _bellman_ford,
    _primes_below,
    _word_grid,
    augment_source,
    bf_exact,
    gen_random,
    gen_small_diff,
    parse,
    plant_negative_cycle,
    serialize,
    serialize_tree,
    verify_sssp,
)
from ratpath.cfrac import Ordering
from ratpath.distcmp import DistCmp, DistCmpConfig, PairwiseDeltaComparator
from ratpath.rational import BigRational, WordBudget, ZERO, is_k_short
from ratpath import rational as rational_module
from ratpath import sssp as sssp_module
from ratpath.sssp import (
    BOB_STRATEGIES,
    CutContext,
    CutResult,
    IllegalBobMove,
    NegativeWeightError,
    _RecombinationError,
    _recombine,
    _tree_hitset,
    _witness_tree,
    cut_dijkstra,
    cut_preprocess,
    dijkstra_nonneg,
    game_simulate,
    negative_sssp,
)

from conftest import (
    BF_ROUTES,
    NodePathDistCmp,
    PairKeyedExactStrategy,
    TreeKeepingDistCmpStrategy,
    backbone_graph,
    bf_route,
    crossed_diamond_chain,
    diamond_chain,
    entry_ordered_dijkstra,
    full_scan_recombination,
    reference_cut_dijkstra,
    reference_witness_tree,
    prime_bound_for,
    replay_enhanced_order,
    reverse_path,
    textbook_bf,
    textbook_dijkstra,
)


def R(n, d=1):
    return BigRational(n, d)


B16 = WordBudget(16)


class TestDijkstraNonneg:
    def test_single_vertex(self):
        g = WeightedDigraph(1, source=0)
        res = dijkstra_nonneg(g, 0)
        assert res.parent == {}
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
        # Every third trial runs at B=4, where 200/3 is 3-short and the
        # sentinel is often wider than every weight.
        rng = np.random.default_rng(12)
        choices = [R(0), R(0), R(1, 3), R(1, 2), R(1), R(2, 3), R(5, 7), R(200, 3)]
        for trial in range(300):
            budget = WordBudget(4) if trial % 3 == 2 else WordBudget()
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
            want = dijkstra_nonneg(augment_source(g, s), s, strategy="exact_oracle",
                                   budget=budget).parent
            got = dijkstra_nonneg(g, s, strategy=strategy, seed=trial, budget=budget).parent
            assert got == want, (strategy, trial)

    @pytest.mark.parametrize("strategy", ["exact_oracle", "distcmp", "pairwise_delta"])
    def test_isolated_source_skips_the_heap(self, strategy):
        # No vertex is reachable, so nothing is pushed or compared, and
        # every other vertex gets an aux parent edge from the source.
        g = WeightedDigraph(6, [(1, 2, R(1, 3)), (2, 3, R(0)), (4, 1, R(5, 7)), (5, 2, R(2))])
        stats = {}
        res = dijkstra_nonneg(g, 3, strategy=strategy, seed=1, collect=stats)
        assert (stats["heap_pushes"], stats["relaxations"]) == (0, 0)
        if strategy == "distcmp":
            assert not any(stats["distcmp.level_queries"])
        sentinel = R(6 * 2)  # n * max(1, max w)
        assert res.parent == {v: (3, sentinel, True) for v in (0, 1, 2, 4, 5)}
        assert res.distances() == [None, None, None, ZERO, None, None]

    def test_shortness_class_is_least_k_short_class(self):
        rng = np.random.default_rng(21)
        for trial in range(300):
            budget = WordBudget(int(rng.integers(2, 71)))
            g = WeightedDigraph(2)
            for _ in range(int(rng.integers(0, 6))):
                num = int(rng.integers(-(1 << 62), 1 << 62)) >> int(rng.integers(0, 63))
                den = int(rng.integers(1, 1 << 62)) >> int(rng.integers(0, 62)) or 1
                g.add_edge(0, 1, R(num * int(rng.integers(1, 1 << 40)), den))
            c = 1
            while not all(is_k_short(e.weight, c, budget) for e in g.edges):
                c += 1
            negative, widest, maxb = sssp_module._scan_weights(g)
            assert sssp_module._shortness_class(widest, budget) == c, trial
            assert negative == g.has_negative_weight(), trial
            assert maxb == max((e.weight.den.bit_length() for e in g.edges), default=0), trial

    @pytest.mark.parametrize("strategy", ["exact_oracle", "distcmp", "pairwise_delta"])
    def test_source_out_of_range(self, strategy):
        g = WeightedDigraph(3, [(0, 1, R(1))])
        for s in (-1, g.n):
            with pytest.raises(ValueError, match="out of range"):
                dijkstra_nonneg(g, s, strategy=strategy)

    @pytest.mark.parametrize("n", [16, 200])
    @pytest.mark.parametrize("strategy", ["exact_oracle", "distcmp", "pairwise_delta"])
    def test_rejects_negative_seed(self, strategy, n):
        # One seed rule for every strategy, also where nothing draws from
        # the seed, with the CLI's message.
        g = gen_random(n, 3 * n, 1)
        with pytest.raises(ValueError) as err:
            dijkstra_nonneg(g, 0, strategy=strategy, seed=-1)
        assert str(err.value) == "seed must be a non-negative integer, got -1"

    @pytest.mark.parametrize("strategy", ["exact_oracle", "distcmp", "pairwise_delta"])
    def test_constants_checked_alike(self, strategy):
        # Every strategy takes C and lam, ignores the ones it does not
        # read, and rejects another name (gamma too: it sizes only the
        # pairwise comparator's own sample) or a value that is not a
        # positive finite number with the CLI's message.
        g = gen_random(20, 60, 3, "small")
        want = dijkstra_nonneg(g, 0, strategy=strategy, seed=4).parent
        for constants in ({"C": 2.0, "lam": 4.0}, {"C": 2}):
            got = dijkstra_nonneg(g, 0, strategy=strategy, seed=4, constants=constants)
            assert got.parent == want
        for name in ("foo", "gamma"):
            with pytest.raises(ValueError, match=f"unknown constant '{name}'"):
                dijkstra_nonneg(g, 0, strategy=strategy, constants={name: 1})
        for name, value in (("lam", -1), ("C", 0), ("lam", math.inf), ("C", math.nan),
                            ("lam", "4")):
            with pytest.raises(ValueError) as err:
                dijkstra_nonneg(g, 0, strategy=strategy, constants={name: value})
            assert str(err.value) == f"{name} must be a positive finite number, got {value}"

    def test_unreachable_reported(self):
        g = WeightedDigraph(3, [(1, 2, R(1))])
        res = dijkstra_nonneg(g, 0)
        assert res.distances()[2] is None
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
                (58, 110, 240, 24, [24, 0, 0], [0, 0, 0], [0, 0, 0], [24, 0, 0], [0, 0, 0], [0, 0, 0],
                 0, "0cfafd07ebe7bfa3c03ebe592cb9f84cb60e5899a1e80d6aa0e668c1086f0f3b"),
            ),
            (
                "gadget",
                (61, 61, 64, 0, [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0],
                 0, "2086e26e2f21f530255e61ffebfef5b3b867ec7cca63cf2cadf266be00d3e6ae"),
            ),
            (
                "ties-400",
                (394, 805, 64, 191, [2757, 0, 0, 0], [132, 0, 0, 0], [0, 0, 0, 0], [2625, 0, 0, 0],
                 [0, 0, 0, 0], [0, 0, 0, 0], 0,
                 "36c539820d2ececd51dafdfb848c14f64dd82bd6e2b0297998a0ea7160f0682c"),
            ),
        ],
    )
    def test_distcmp_instance_pinned(self, family, pinned):
        # Counters and tree bytes of fixed runs, pinned so that a change
        # to how distcmp decides its comparisons keeps them identical:
        # all-1/3 weights at n=60 (2*n*maxb = 240 bits, so top-word ties
        # are exact ties and only relaxation tests reach `DistCmp.compare`)
        # and at n=400 (top words of 64 bits, so heap ties reach it too),
        # where each tie is proven on exact values and answered at level
        # 0, so no cover is built and level 1 is never queried, and a
        # padded window-3 gadget chain (64-bit top words decide every
        # comparison).
        # `test_distcmp_gate_closed_pinned` covers the cover and level 1.
        if family.startswith("ties"):
            n = 400 if family == "ties-400" else 60
            skeleton = gen_random(n, 4 * n, 3)
            g = WeightedDigraph(n, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges], source=0)
        else:
            g, _ = gen_small_diff(512, padding=True, chain=20, window=3)
        stats = {}
        r = dijkstra_nonneg(g, 0, strategy="distcmp", seed=1, collect=stats)
        (pushes, relaxations, shift, top_ties, queries, trivial, easy, ties, difficult, fallbacks,
         updates, digest) = pinned
        assert stats["heap_pushes"] == pushes
        assert stats["relaxations"] == relaxations
        assert stats["top_shift"] == shift
        assert stats["top_ties"] == top_ties
        assert stats["distcmp.level_queries"] == queries
        assert stats["distcmp.trivial_answers"] == trivial
        assert stats["distcmp.easy_answers"] == easy
        assert stats["distcmp.shortcut_answers"] == easy  # every easy answer is a shortcut
        assert stats["distcmp.tie_answers"] == ties
        assert stats["distcmp.difficult_answers"] == difficult
        assert stats["distcmp.cover_fallbacks"] == fallbacks
        assert stats["distcmp.dsu_inconsistencies"] == 0
        assert stats["distcmp.cover_updates"] == updates
        assert hashlib.sha256(serialize_tree(r).encode()).hexdigest() == digest

    def test_distcmp_keys_match_exact_strategy(self, monkeypatch):
        # Each heap-key comparison of a distcmp run, put to the exact
        # strategy on the same keys over the same settled tree, gets the
        # same sign.  The twin settles, keys and compares both strategies
        # side by side through the solver's one loop.  It gives no key
        # pairs, so the solver takes no top words and every heap
        # comparison and relaxation test reaches `compare`.
        signs = []
        distcmp_strategy = sssp_module._STRATEGIES["distcmp"]

        class Twin:
            name = "distcmp"
            pair = None

            def __init__(self, *args):
                self.fast = distcmp_strategy(*args)
                self.exact = sssp_module._ExactStrategy(*args)
                self.root = (self.fast.root, self.exact.root)

            def key(self, here, w):
                return self.fast.key(here[0], w), self.exact.key(here[1], w)

            def compare(self, a, b):
                got = self.fast.compare(a[0], b[0])
                signs.append((got, self.exact.compare(a[1], b[1])))
                return got

            def settle(self, k):
                return self.fast.settle(k[0]), self.exact.settle(k[1])

            def counters(self):
                return self.fast.counters()

        monkeypatch.setitem(sssp_module._STRATEGIES, "distcmp", Twin)
        for seed in range(50):
            n = 8 + seed % 17
            dijkstra_nonneg(gen_random(n, 3 * n, seed, "small"), seed % n, strategy="distcmp",
                            seed=seed)
        assert all(got in (-1, 0, 1) and got == want for got, want in signs)
        assert {want for _, want in signs} == {-1, 0, 1}

    @staticmethod
    def _exact_cases():
        # (graph, source, budget) triples for the exact_oracle checks:
        # all-1/3 ties, zero weights, parts s cannot reach, equal weights
        # as shared and as distinct parsed objects, and window-3 gadget
        # chains at WordBudget(18).
        cases = []
        for seed in range(40):
            n = 6 + seed % 35
            skeleton = gen_random(n, 3 * n, seed)
            ties = WeightedDigraph(n, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges])
            cases.append((ties, seed % n, WordBudget()))
        pool = [R(0), R(0), R(1, 3), R(1, 2), R(2, 3), R(1)]
        for seed in range(40):
            rng = np.random.default_rng([seed, 40])
            n = 4 + seed % 25
            edges = []
            for _ in range(int(rng.integers(0, 2 * n + 1))):  # sparse: parts s cannot reach
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if u != v:
                    edges.append((u, v, pool[int(rng.integers(len(pool)))]))
            cases.append((WeightedDigraph(n, edges), int(rng.integers(0, n)), WordBudget()))
        for seed in range(10):
            g = gen_random(30, 90, seed)
            text = serialize(WeightedDigraph(g.n, [(e.tail, e.head, R(1, 3 + (e.head % 2)))
                                                   for e in g.edges]))
            shared = parse(text)
            distinct = WeightedDigraph(g.n, [
                (int(u), int(v), BigRational.parse(w))
                for _, u, v, w in (line.split() for line in text.splitlines() if line[0] == "e")
            ])
            assert len({id(e.weight) for e in shared.edges}) == 2
            assert len({id(e.weight) for e in distinct.edges}) == len(distinct.edges)
            cases += [(shared, 0, WordBudget()), (distinct, 0, WordBudget())]
        for chain in (10, 40, 100):
            g, _ = gen_small_diff(prime_bound_for(3 * chain), padding=True, chain=chain, window=3)
            cases.append((g, 0, WordBudget(18)))
        return cases

    def test_exact_keys_match_pair_keyed_reference(self, monkeypatch):
        # Keys summed once per relaxation, ordered by their top words,
        # give the tree bytes and the collect dict of the strategy that
        # kept (distance, weight) pairs and summed them on every
        # comparison, which gives no key pairs and so takes no top words;
        # only `top_shift` and `top_ties`, which it leaves at 0, differ.
        # The cases take top words in both regimes.
        cases = self._exact_cases()

        def solve_all():
            out = []
            for g, s, budget in cases:
                stats = {}
                r = dijkstra_nonneg(g, s, strategy="exact_oracle", budget=budget, collect=stats)
                out.append((serialize_tree(r), stats))
            return out

        got = solve_all()
        shifts = {stats.pop("top_shift") for _, stats in got}
        assert 64 in shifts and any(64 < shift <= 512 for shift in shifts)
        for _, stats in got:
            del stats["top_ties"]
        monkeypatch.setitem(sssp_module._STRATEGIES, "exact_oracle", PairKeyedExactStrategy)
        want = solve_all()
        assert all(stats.pop("top_shift") == stats.pop("top_ties") == 0 for _, stats in want)
        assert got == want
        # The shared and the distinct copies of each graph give one tree.
        shared_and_distinct = [text for text, _ in got[80:100]]
        assert shared_and_distinct[0::2] == shared_and_distinct[1::2]
        assert sum(" aux\n" in text for text, _ in got[40:80]) > 10

    def test_exact_oracle_matches_textbook_dijkstra(self):
        # Parents and aux flags from a Fraction heapq Dijkstra whose ties
        # pop in vertex-id order.
        for g, s, budget in self._exact_cases():
            res = dijkstra_nonneg(g, s, strategy="exact_oracle", budget=budget)
            assert {v: (u, aux) for v, (u, _, aux) in res.parent.items()} == textbook_dijkstra(g, s)

    def test_stale_entry_never_settles(self, monkeypatch):
        # A pair-less strategy whose compare reverses every verdict it gave
        # before on the same two keys: relaxing a->v finds 2 below v's 5,
        # and the heap then puts v's stale entry for 5 first.  The solver
        # must skip it, so the settled states are the distances along the
        # returned parent edges, here and on random graphs.
        settled = []
        serials = itertools.count()

        class Contrary:
            name = "exact_oracle"
            root = ZERO
            pair = None

            def __init__(self, g, source, budget, seed, constants, widest, maxb):
                self.asked = set()

            @staticmethod
            def key(d, w):
                return d + w, next(serials)

            def compare(self, a, b):
                c = a[0]._cmp(b[0])
                both = frozenset((a[1], b[1]))
                if both in self.asked:
                    return -c
                self.asked.add(both)
                return c

            @staticmethod
            def settle(k):
                settled.append(k[0])
                return k[0]

            def counters(self):
                return {}

        monkeypatch.setitem(sssp_module._STRATEGIES, "exact_oracle", Contrary)
        hand = WeightedDigraph(3, [(0, 1, R(1)), (0, 2, R(5)), (1, 2, R(1))])
        graphs = [hand] + [gen_random(30, 120, seed, "small") for seed in range(4)]
        for g in graphs:
            settled.clear()
            stats = {}
            res = dijkstra_nonneg(g, 0, strategy="exact_oracle", collect=stats)
            dist = res.distances()
            assert sorted(settled) == sorted(d for v, d in enumerate(dist) if d is not None and v)
            assert stats["top_shift"] == stats["top_ties"] == 0
            if g is hand:
                assert res.parent[2] == (1, R(1), False) and dist == [ZERO, R(1), R(2)]

    def test_exact_oracle_sums_once_per_relaxation(self, monkeypatch):
        # Each relaxation builds its key, the one BigRational sum of the
        # solve; heap comparisons and settles build none.
        calls = []
        add = rational_module._add

        def counting_add(*args):
            calls.append(args)
            return add(*args)

        skeleton = gen_random(60, 240, 3)
        g = WeightedDigraph(60, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges])
        monkeypatch.setattr(rational_module, "_add", counting_add)
        stats = {}
        dijkstra_nonneg(g, 0, strategy="exact_oracle", collect=stats)
        assert stats["relaxations"] > stats["heap_pushes"] > 0
        assert len(calls) == stats["relaxations"]

    @pytest.mark.parametrize("strategy", ["distcmp", "pairwise_delta"])
    def test_equal_weights_compare_against_zero(self, monkeypatch, strategy):
        # Heap keys with equal weights put the canonical 0/1 to the node
        # path, `DistCmp._level_compare` at level 0 or
        # `PairwiseDeltaComparator.compare`, instead of a built w2 - w1.
        # Runs with weights from a small pool (equal values as distinct
        # parsed objects, and shared objects) and the gate-closed diamond
        # chains give the tree and counters of runs that always subtract.
        # distcmp decides gate-open keys on their pairs, so only the
        # diamond chains reach its node path; the crossed chain's bottom
        # vertex compares unequal weights there.
        pool = ["1/3", "2/5", "1", "0", "3/7"]
        shared = [BigRational.parse(text) for text in pool]
        cases = []
        for seed in range(12):
            n = 10 + seed
            rng = np.random.default_rng(seed)
            edges = []
            for e in gen_random(n, 3 * n, seed).edges:
                j = int(rng.integers(len(pool)))
                w = shared[j] if rng.random() < 0.3 else BigRational.parse(pool[j])
                edges.append((e.tail, e.head, w))
            cases.append((WeightedDigraph(n, edges, source=0), {}))
        closed = {"budget": B16, "constants": {"C": 0.5, "lam": 1.0}}
        cases.append((diamond_chain(170), closed))
        cases.append((crossed_diamond_chain(170), closed))

        if strategy == "distcmp":
            owner, name = DistCmp, "compare"
        else:
            owner, name = sssp_module._PairwiseStrategy, "compare"
        real = getattr(owner, name)

        def solve():
            out = []
            for g, kwargs in cases:
                stats = {}
                r = dijkstra_nonneg(g, 0, strategy=strategy, seed=3, collect=stats, **kwargs)
                out.append((serialize_tree(r), stats))
            return out

        def always_subtract(self, a, b, *rest):
            if strategy == "distcmp":
                return real(self, a[0], b[0], b[1] - a[1])
            return self.comparator.compare(a[0], b[0], b[1] - a[1])

        monkeypatch.setattr(owner, name, always_subtract)
        want = solve()

        equal, betas = [], []
        node_path = DistCmp._level_compare if strategy == "distcmp" else PairwiseDeltaComparator.compare

        def spy_node_path(self, *args):
            if strategy == "pairwise_delta" or args[0] == 0:
                betas.append(args[-1])
            return node_path(self, *args)

        def spy_compare(self, a, b, *rest):
            before = len(betas)
            got = real(self, a, b, *rest)
            if len(betas) > before:  # this key query reached the node path
                equal.append(a[1] == b[1])
            return got

        monkeypatch.setattr(owner, name, spy_compare)
        if strategy == "distcmp":
            monkeypatch.setattr(DistCmp, "_level_compare", spy_node_path)
        else:
            monkeypatch.setattr(PairwiseDeltaComparator, "compare", spy_node_path)
        got = solve()
        assert got == want
        assert len(equal) == len(betas) and sum(equal) > 0 and not all(equal)
        assert all(b.num == 0 and b.den == 1 and b is ZERO for eq, b in zip(equal, betas) if eq)

    def test_key_pairs_match_the_node_path(self, monkeypatch):
        # Heap keys decided on their exact pairs give the tree bytes and
        # the collect dict of `NodePathDistCmp`, whose every comparison is
        # a node query.  Random graphs with zero weights, parallel edges,
        # unreachable vertices and equal weights as distinct objects keep
        # the gate open; the diamond chains at gate-closing constants
        # close it mid-tree, so one solve takes both routes.  The key
        # pairs are put to every comparison by `entry_ordered_dijkstra`;
        # the solver, which orders top words and takes none from
        # `NodePathDistCmp`, gives the same trees, pushes and relaxations.
        pool = [(1, 3), (2, 5), (1, 1), (0, 1), (3, 7), (1, 2)]
        cases = []
        for seed in range(300):
            rng = np.random.default_rng([seed, 38])
            n = 3 + seed % 23
            edges = []
            for _ in range(int(rng.integers(n, 3 * n + 1))):
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if u != v:
                    num, den = pool[int(rng.integers(len(pool)))]
                    edges.append((u, v, BigRational(num, den)))
                    if rng.random() < 0.15:  # a parallel edge: the graph keeps the lighter
                        num, den = pool[int(rng.integers(len(pool)))]
                        edges.append((u, v, BigRational(num, den)))
            cases.append((WeightedDigraph(n, edges, source=0), int(rng.integers(0, n)), {}))
        closed = {"budget": B16, "constants": {"C": 0.5, "lam": 1.0}}
        cases.append((diamond_chain(170), 0, closed))
        cases.append((crossed_diamond_chain(170), 0, closed))

        def solve_all(solver):
            out = []
            for g, s, kwargs in cases:
                stats = {}
                r = solver(g, s, strategy="distcmp", seed=s, collect=stats, **kwargs)
                out.append((serialize_tree(r), stats))
            return out

        def relaxed(runs):
            return [(text, st["heap_pushes"], st["relaxations"]) for text, st in runs]

        got = solve_all(entry_ordered_dijkstra)
        top = solve_all(dijkstra_nonneg)
        assert all(st["top_shift"] > 0 or st["relaxations"] == 0 for _, st in top)
        monkeypatch.setitem(sssp_module._STRATEGIES, "distcmp", NodePathDistCmp)
        want = solve_all(dijkstra_nonneg)
        assert all(st.pop("top_shift") == st.pop("top_ties") == 0 for _, st in want)
        assert got == want
        assert relaxed(top) == relaxed(want)
        # The random graphs exercise what they are meant to: sibling keys
        # (trivial answers), exact ties and vertices s cannot reach.
        stats = [st for _, st in got[:300]]
        assert sum(st["distcmp.trivial_answers"][0] > 0 for st in stats) > 100
        assert sum(st["distcmp.tie_answers"][0] > 0 for st in stats) > 60
        assert sum(" aux\n" in text for text, _ in got[:300]) > 50
        for _, st in got[300:]:
            assert st["distcmp.shortcut_answers"][0] > 0 and st["distcmp.difficult_answers"][0] > 0

    def test_distcmp_gate_closed_pinned(self):
        # The regime the hierarchy exists for: a chain of 170 tied diamonds
        # whose weight denominators are distinct 15-bit primes, at
        # constants whose level-0 gate (ell_0 = 8000 bits) the deep
        # nodes' denominators outgrow.  n * maxb = 7665 fits the gate, so
        # every key carries its pair and 64-bit top words order the heap;
        # only the exact ties reach `DistCmp.compare`.  Shallow ties are
        # proven exactly; deep ones take the fixed-point test, the cover,
        # the cluster orders and level 1.  The tree equals exact_oracle's.
        g = diamond_chain(170)
        stats = {}
        r = dijkstra_nonneg(
            g, 0, strategy="distcmp", seed=1, budget=B16, collect=stats,
            constants={"C": 0.5, "lam": 1.0},
        )
        assert (g.n, stats["heap_pushes"], stats["relaxations"]) == (511, 510, 680)
        assert (stats["top_shift"], stats["top_ties"]) == (64, 170)
        assert stats["distcmp.level_queries"] == [340, 30, 0, 0, 0]
        assert stats["distcmp.trivial_answers"] == [170, 19, 0, 0, 0]
        assert stats["distcmp.easy_answers"] == [0, 0, 0, 0, 0]
        assert stats["distcmp.shortcut_answers"] == [0, 0, 0, 0, 0]
        assert stats["distcmp.tie_answers"] == [133, 11, 0, 0, 0]
        assert stats["distcmp.difficult_answers"] == [37, 0, 0, 0, 0]
        assert stats["distcmp.cover_fallbacks"] == [7, 0, 0, 0, 0]
        assert stats["distcmp.dsu_inconsistencies"] == 0
        assert stats["distcmp.cover_updates"] == 144
        digest = hashlib.sha256(serialize_tree(r).encode()).hexdigest()
        assert digest == "fe08130655d0556b0dfe3fb7db5de15ae8ee3a17b83628c3af682cfdd08a9954"
        oracle = dijkstra_nonneg(g, 0, strategy="exact_oracle", budget=B16)
        assert serialize_tree(oracle) == serialize_tree(r)

    @pytest.mark.parametrize("family", ["ties", "gadget", "gate-closed", "mixed-gate"])
    def test_settled_nodes_match_their_parents(self, monkeypatch, family):
        # The solver settles through `DistCmp._settle`, which appends the
        # key's den_bits and the slot level unchecked.  Every node must
        # hold what `IncTree.insert_leaf` would compute from its parent,
        # its weight and `slot_level`, and the tree must be exact_oracle's.
        # The gate-open instances draw no levels; the gate-closed one
        # (the instance pinned above) and the mixed-gate chain (the CI
        # instance: the gate closes mid-tree, no top words) draw them in
        # the middle of the solve.
        built = []

        class Recording(sssp_module._DistCmpStrategy):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.comparator)

        kwargs = {}
        if family == "ties":
            skeleton = gen_random(60, 240, 3)
            g = WeightedDigraph(60, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges], source=0)
        elif family == "gadget":
            g, _ = gen_small_diff(512, padding=True, chain=20, window=3)
        elif family == "gate-closed":
            g = diamond_chain(170)
            kwargs = {"budget": B16, "constants": {"C": 0.5, "lam": 1.0}}
        else:
            g, _ = gen_small_diff(40000, padding=True, chain=1300, window=3)
            kwargs = {"budget": WordBudget(18), "constants": {"C": 0.5, "lam": 1.0}}
        monkeypatch.setitem(sssp_module._STRATEGIES, "distcmp", Recording)
        stats = {}
        r = dijkstra_nonneg(g, 0, strategy="distcmp", seed=1, collect=stats, **kwargs)
        oracle = dijkstra_nonneg(g, 0, strategy="exact_oracle", **kwargs)
        assert serialize_tree(r) == serialize_tree(oracle)
        (dc,) = built
        tree, levels = dc.tree, dc._slot_level
        assert (levels is None) == (family in ("ties", "gadget"))
        assert len(tree) == sum(d is not None for d in r.distances())  # s and what it reaches
        assert (tree.parent[0], tree.depth[0], tree.den_bits[0], tree.level[0]) == (-1, 0, 0, dc.config.t)
        for v in range(1, len(tree)):
            p, w = tree.parent[v], tree.weight[v]
            assert 0 <= p < v
            assert tree.depth[v] == tree.depth[p] + 1
            assert tree.den_bits[v] == tree.den_bits[p] + w.den.bit_length()
            assert tree.level[v] == (0 if levels is None else levels[v])
        if levels is not None:
            assert any(tree.level[1:])
        if family == "mixed-gate":
            assert stats["top_shift"] == 0
            assert stats["distcmp.shortcut_answers"][0] < stats["distcmp.easy_answers"][0]

    @staticmethod
    def _lazy_tree_cases():
        # (label, graph, solve kwargs): random graphs with all-1/3 ties,
        # zero weights and parts s cannot reach, on both sides of
        # `_TOP_CAP`; gadget chains on both sides; the gate-closed diamond
        # chain, whose hierarchy is reached mid-solve after settles were
        # deferred; and the CI mixed-gate chain (n=3901, no top words).
        cases = []
        for seed in range(12):
            n = 20 + 15 * seed  # n * maxb from 40 to 370: S = 2 * n * maxb, then 64
            skeleton = gen_random(n, 3 * n, seed)
            cases.append(("ties", WeightedDigraph(n, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges],
                                                  source=0), {}))
        pool = [R(0), R(0), R(1, 3), R(1, 2), R(2, 3), R(1)]
        for seed in range(12):
            rng = np.random.default_rng([seed, 43])
            n = 4 + 3 * seed
            edges = []
            for _ in range(int(rng.integers(0, 2 * n + 1))):  # sparse: parts s cannot reach
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if u != v:
                    edges.append((u, v, pool[int(rng.integers(len(pool)))]))
            cases.append(("zeros", WeightedDigraph(n, edges, source=0), {}))
        for bound, chain in ((64, 3), (256, 8), (512, 20), (2048, 60)):
            cases.append(("gadget", gen_small_diff(bound, padding=True, chain=chain, window=3)[0], {}))
        closed = {"budget": B16, "constants": {"C": 0.5, "lam": 1.0}}
        cases.append(("gate-closed", diamond_chain(170), closed))
        mixed = {"budget": WordBudget(18), "constants": {"C": 0.5, "lam": 1.0}}
        cases.append(("mixed-gate", gen_small_diff(40000, padding=True, chain=1300, window=3)[0], mixed))
        return cases

    def test_lazy_tree_matches_tree_keeping_reference(self, monkeypatch):
        # The tree that `DistCmp` builds on its first read equals, node by
        # node, the one the strategy that appended every settle at once
        # kept (`TreeKeepingDistCmpStrategy`), and the solves give the same
        # tree bytes and collect dicts.  A solve whose comparisons all
        # stay on key pairs leaves the tree at the root alone until
        # something reads it; the gate-closed solves read it mid-solve.
        cases = self._lazy_tree_cases()

        def solve_all(strategy):
            made = []

            def capture(*args):
                strat = strategy(*args)
                made.append(strat.comparator)
                return strat

            monkeypatch.setitem(sssp_module._STRATEGIES, "distcmp", capture)
            out = []
            for label, g, kwargs in cases:
                stats = {}
                r = dijkstra_nonneg(g, 0, strategy="distcmp", seed=3, collect=stats, **kwargs)
                out.append((serialize_tree(r), stats))
            return out, made

        got, lazy = solve_all(sssp_module._DistCmpStrategy)
        want, eager = solve_all(TreeKeepingDistCmpStrategy)
        assert got == want
        shifts = [stats["top_shift"] for _, stats in got]
        fields = ("parent", "weight", "depth", "den_bits", "level")
        for (label, g, _), (text, stats), dc, ref in zip(cases, got, lazy, eager):
            settled = len(ref.tree) - 1
            if label in ("gate-closed", "mixed-gate"):
                assert len(dc._tree) > 1  # read mid-solve
            else:
                assert len(dc._tree) == 1 and len(dc._nodes) == settled
                assert dc._tree.parent == [-1] and dc._slot_level is None
            tree = dc.tree
            assert tree is dc._tree and len(tree) == len(dc._nodes) + 1
            for name in fields:
                assert getattr(tree, name) == getattr(ref.tree, name), (label, name)
            assert all(a is b for a, b in zip(tree.weight, ref.tree.weight))
        assert 64 in shifts and any(64 < s <= 512 for s in shifts) and 0 in shifts
        assert sum(stats["top_ties"] > 0 for _, stats in got) > 5
        assert sum(" aux\n" in text for text, _ in got[12:24]) > 3

    @pytest.mark.parametrize("draw", ["before", "between", "after"])
    def test_deferred_settles_interleave_with_public_calls(self, draw):
        # Solver-style `_key`/`_settle` pairs mixed with the public
        # `insert_leaf`, `key` and `compare` give the node ids, levels,
        # answers and tree of a twin that inserts every node through
        # `insert_leaf` at once; the slot levels are drawn before the
        # first insertion, between them or after the last.  Most nodes
        # extend the deepest path, so the exact gate (ell_0 = 1280 bits)
        # closes on queries among the deep ones, and a node against its
        # parent and its own weight is an exact tie: the difficult path.
        # A gate-closed query draws the levels, so where they are drawn
        # after the last insertion the queries stay on shallow nodes.
        cfg = DistCmpConfig(capacity=240, c=2, B=4, C=0.5, lam=1.0)
        assert cfg.ell[0] == 1280
        lazy, eager = DistCmp(cfg, seed=7), DistCmp(cfg, seed=7)
        rng = np.random.default_rng([43, len(draw)])
        pool = [R(1, 2), R(0), R(3, 7), R(5, 127), R(1, 113), R(7, 109), R(3, 107), R(1, 103)]
        states = [(0, 0, 1, 0)]
        edges = [(-1, ZERO)]
        deferred = 0
        if draw == "before":
            assert lazy.slot_level == eager.slot_level
        for step in range(239):
            if draw == "between" and step == 120:
                assert lazy._slot_level is None
                assert lazy.slot_level == eager.slot_level
            if rng.random() < 0.85:
                parent = max(range(len(states)), key=lambda x: states[x][3])
            else:
                parent = int(rng.integers(len(states)))
            w = pool[int(rng.integers(len(pool)))]
            node, num, den, bits = states[parent]
            want = (len(states), num * w.den + w.num * den, den * w.den, bits + w.den.bit_length())
            if bits + w.den.bit_length() > cfg.ell[0]:
                want = want[:1] + (None, None) + want[3:]
            assert eager.insert_leaf(node, w) == want[0]
            if rng.random() < 0.7:
                got = lazy._settle(lazy._key(states[parent], w))
                deferred = max(deferred, len(lazy._nodes) + 1 - len(lazy._tree))
            else:
                got = (lazy.insert_leaf(node, w),) + want[1:]
            assert got == want
            states.append(got)
            edges.append((node, w))
            if draw == "after":
                nodes = [x for x, state in enumerate(states) if state[3] <= 600]
            else:
                nodes = range(len(states) // 2, len(states))
            op = rng.random()
            if op < 0.1:
                u, v = (nodes[int(x)] for x in rng.integers(len(nodes), size=2))
                beta = R(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
                if rng.random() < 0.5:
                    v, beta = edges[u]
                assert lazy.compare(u, v, beta) is eager.compare(u, v, beta)
            elif op < 0.2:
                u, v = (nodes[int(x)] for x in rng.integers(len(nodes), size=2))
                w1, w2 = (pool[int(j)] for j in rng.integers(len(pool), size=2))
                a, b = lazy.key(states[u][:3], w1), lazy._key(states[v], w2)
                assert a == lazy._key(states[u], w1)
                assert lazy.compare(a, b) is eager.compare(eager.key(states[u], w1),
                                                           eager.key(states[v][:3], w2))
        if draw == "after":
            assert lazy._slot_level is None and eager._slot_level is None
            assert lazy.slot_level == eager.slot_level
        assert deferred > 3
        counters = lazy.counters()
        assert counters == eager.counters()
        if draw == "after":
            assert counters["shortcut_answers"][0] == counters["easy_answers"][0] > 0
        else:
            assert counters["easy_answers"][0] > counters["shortcut_answers"][0] > 0
            assert counters["difficult_answers"][0] > 0
        for name in ("parent", "weight", "depth", "den_bits", "level"):
            assert getattr(lazy.tree, name) == getattr(eager.tree, name), name
        levels = eager.slot_level
        assert lazy.tree.level[1:] == levels[1:len(lazy.tree)] and any(levels[1:len(lazy.tree)])

    def test_solver_weights_fit_the_strategy_class(self):
        # `_DistCmpStrategy` keys and settles unchecked: what makes that
        # sound is that its class c makes every weight c-short, and its
        # capacity holds every node a solve settles.  Weights sit at the
        # class boundary: a numerator or a denominator of exactly `widest`
        # bits, with widest = cB - 1 (the widest c-short) or cB (just past).
        rng = np.random.default_rng(44)
        boundary = 0  # graphs whose class c/2 is tight: some weight is not (c/2 - 1)-short
        for trial in range(300):
            budget = WordBudget(int(rng.integers(2, 40)))
            n = int(rng.integers(1, 12))
            widest = budget.B * int(rng.integers(1, 4)) - int(rng.integers(0, 2))
            edges = []
            for _ in range(int(rng.integers(0, 3 * n + 1))):
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                full = (1 << (widest - 1)) | int(rng.integers(0, 1 << min(widest - 1, 62)))
                small = int(rng.integers(1, (1 << min(widest - 1, 62)) + 1))
                if math.gcd(full, small) == 1:  # reduced, so `full` keeps its bits
                    edges.append((u, v, R(*((full, small) if rng.random() < 0.5 else (small, full)))))
            g = WeightedDigraph(n, edges, source=0)
            _, seen, maxb = sssp_module._scan_weights(g)
            assert seen == (widest if g.edges else 0), trial
            strat = sssp_module._DistCmpStrategy(g, 0, budget, 0, sssp_module._CONSTANTS, seen, maxb)
            cfg = strat.comparator.config
            assert g.n <= cfg.capacity, trial
            assert all(is_k_short(e.weight, cfg.c // 2, budget) for e in g.edges), trial
            assert all(is_k_short(e.weight, cfg.c, budget) for e in g.edges), trial
            boundary += any(not is_k_short(e.weight, cfg.c // 2 - 1, budget) for e in g.edges
                            if cfg.c > 2)
        assert boundary > 100

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


def _offset_graph(n, base, spread, seed, m_per_n=3):
    """`gen_random(n, m_per_n * n, seed)`'s skeleton with weights 1/(base + j),
    j drawn below `spread`: keys at one hop count are near-ties (apart by
    about spread / base^2 per hop) and exact ties wherever two paths draw
    the same j's."""
    rng = np.random.default_rng([seed, 41])
    edges = [(e.tail, e.head, R(1, base + int(rng.integers(spread))))
             for e in gen_random(n, min(m_per_n * n, n * (n - 1)), seed).edges]
    return WeightedDigraph(n, edges, source=0)


def _integer_graph(n, seed):
    """`gen_random`'s skeleton with weights 1 and 2: maxb = 1, and exact
    ties everywhere."""
    rng = np.random.default_rng([seed, 42])
    return WeightedDigraph(n, [(e.tail, e.head, R(1 + int(rng.integers(2))))
                               for e in gen_random(n, 3 * n, seed).edges], source=0)


class TestTopWords:
    # The non-negative heap orders top words floor(key * 2^S); these
    # trees must be those of a Fraction Dijkstra (`textbook_dijkstra`)
    # and, with the same pushes and relaxations, those of the loop that
    # put every comparison to the strategy (`entry_ordered_dijkstra`).

    @staticmethod
    def _check(g, s=0, budget=WordBudget()):
        shifts, ties = set(), 0
        want = textbook_dijkstra(g, s)
        for strategy in ("exact_oracle", "distcmp"):
            stats, ref = {}, {}
            r = dijkstra_nonneg(g, s, strategy=strategy, seed=1, budget=budget, collect=stats)
            assert {v: (u, aux) for v, (u, _, aux) in r.parent.items()} == want
            old = entry_ordered_dijkstra(g, s, strategy=strategy, seed=1, budget=budget,
                                         collect=ref)
            assert serialize_tree(r) == serialize_tree(old)
            assert (stats["heap_pushes"], stats["relaxations"]) == (ref["heap_pushes"],
                                                                   ref["relaxations"])
            shifts.add(stats["top_shift"])
            ties += stats["top_ties"]
        assert len(shifts) == 1
        return shifts.pop(), ties

    def test_near_ties_share_a_64_bit_top_word(self):
        # Weights 1/(2^40 + j): keys one hop count apart differ by less
        # than 2^-64, so they share a 64-bit top word, and the exact keys
        # decide both the heap order and the relaxation tests.
        ties = 0
        for seed in range(30):
            n = 7 + seed % 20
            shift, t = self._check(_offset_graph(n, 1 << 40, 1 + seed % 5, seed))
            assert shift == 64
            ties += t
        assert ties > 100

    def test_near_ties_below_the_cap(self):
        # The same weights at n <= 6: 2 * n * 41 <= 492 bits, where top
        # words separate the near-ties and a top-word tie is an exact tie.
        ties = 0
        for seed in range(60):
            n = 3 + seed % 4
            g = _offset_graph(n, 1 << 40, 1 + seed % 3, seed, m_per_n=4)
            shift, t = self._check(g)
            assert shift == 2 * n * 41
            ties += t
        assert ties > 10

    @pytest.mark.parametrize("n, base, shift", [
        (8, 1 << 31, 512),  # 2 * n * maxb = 2 * 8 * 32: at the cap
        (8, 1 << 32, 64),   # maxb 33: over it
    ])
    def test_at_and_over_the_cap(self, n, base, shift):
        ties = 0
        for seed in range(40):
            got, t = self._check(_offset_graph(n, base, 1 + seed % 4, seed, m_per_n=4))
            assert got == shift
            ties += t
        assert ties > 10

    @pytest.mark.parametrize("n, shift", [(256, 512), (257, 64)])
    def test_integer_weights_at_and_over_the_cap(self, n, shift):
        # maxb = 1: n * maxb = 256 is at the cap, 257 one bit over it.
        ties = 0
        for seed in range(3):
            got, t = self._check(_integer_graph(n, seed))
            assert got == shift
            ties += t
        assert ties > 50

    def test_exact_ties_reach_compare_only_in_relaxations(self, monkeypatch):
        # Below the cap the heap never calls `compare`; each call is a
        # relaxation test on a top-word tie, and it answers a tie.
        calls = []
        real = DistCmp.compare

        def spy(self, a, b, *rest):
            got = real(self, a, b, *rest)
            calls.append(got)
            return got

        monkeypatch.setattr(DistCmp, "compare", spy)
        skeleton = gen_random(60, 240, 3)
        g = WeightedDigraph(60, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges], source=0)
        stats = {}
        dijkstra_nonneg(g, 0, collect=stats)
        assert stats["top_shift"] == 240
        assert len(calls) == stats["top_ties"] > 0
        assert all(got is Ordering.EQUAL for got in calls)

    def test_wide_top_word_is_the_floor(self):
        # Wide pairs read through their leading bits give the floor of the
        # full division: random pairs, pairs a hair above and below an
        # integer top word (where the leading bits cannot tell and the
        # full division decides), exact integers and unreduced pairs.
        rng = np.random.default_rng(43)
        cases = []
        for bits in (129, 300, 2049, 9000):
            for _ in range(40):
                den = int.from_bytes(rng.bytes(bits // 8 + 1), "big") >> 8 | 1 << (bits - 1)
                top = int.from_bytes(rng.bytes(10), "big")
                for shift in (64, 200):
                    base = top * den
                    nearest = -(-base >> shift)  # num / den * 2^shift just above top
                    cases += [(base >> shift, den, shift), (nearest, den, shift),
                              (nearest - 1, den, shift), (top << 70, den, shift),
                              (top * den * 5, den * 5, shift)]
        ambiguous = 0
        for num, den, shift in cases:
            assert sssp_module._wide_top_word(num, den, shift) == (num << shift) // den
            cut = den.bit_length() - sssp_module._TOP_LEAD
            n, d = num >> cut, den >> cut
            ambiguous += (n << shift) // (d + 1) != ((n + 1) << shift) // d
        assert 0 < ambiguous < len(cases)

    def test_top_shift_separates_keys_at_the_bound(self):
        # The exactness argument: a key's denominator is below 2^M, M =
        # n * maxb, so two distinct keys are more than 2^-2M apart and
        # have distinct top words at S >= 2M.  Checked on the shift the
        # solver reports below the cap, at the extreme the bound allows:
        # denominators d1, d2 just below 2^M and keys 1/(d1 * d2) apart.
        # Some of these pairs share a top word at 2M - 1.
        for n, base in ((2, 4), (3, 1 << 20), (6, 1 << 40), (8, 1 << 31), (256, 1)):
            g = _offset_graph(n, base, 1, 0) if base > 1 else _integer_graph(n, 0)
            stats = {}
            dijkstra_nonneg(g, 0, strategy="exact_oracle", collect=stats)
            M = n * base.bit_length()
            assert stats["top_shift"] <= 512
            merged = 0
            for d1 in range((1 << M) - 8, 1 << M):
                for d2 in range((1 << M) - 8, 1 << M):
                    if math.gcd(d1, d2) != 1:
                        continue
                    x = pow(d2, -1, d1)  # x * d2 - y * d1 = 1
                    y = (x * d2 - 1) // d1
                    for shift, same in ((stats["top_shift"], False), (2 * M - 1, None)):
                        hit = (x << shift) // d1 == (y << shift) // d2
                        if same is None:
                            merged += hit
                        else:
                            assert hit == same, (n, d1, d2)
            assert merged > 0


def _path_edges(stops, dens, x):
    """Edges along the vertex list `stops` of weights c_i/d_i, c_i in [1,
    d_i), that sum to x/prod(dens) plus an integer: partial fractions, for
    pairwise coprime dens and x coprime to their product."""
    total = math.prod(dens)
    nums = [x * pow(total // d, -1, d) % d for d in dens]
    return [(a, b, R(c, d)) for a, b, c, d in zip(stops, stops[1:], nums, dens)]


def _near_bound_primes(B, count, rng):
    half = 1 << (B - 1)
    pool = [p for p in _primes_below(half) if 2 * p > half]
    return [int(p) for p in rng.choice(pool, count, replace=False)]


def _heap_gadget(B, k, rng):
    """Two vertices whose keys differ by exactly 1/(d1*d2) meet on the heap.

    Paths of k+1 edges lead from s = 0 through 1..k to t_big = 2k+1 and
    through k+1..2k to t_small = 2k+2.  Every weight is c/q with q a
    distinct prime in (2^(B-2), 2^(B-1)), so the tentative distance of
    t_big has denominator d1, the product of its path's primes, within a
    factor 4^k of D = 2^(kB-1) * W; likewise d2 for t_small.  Integer
    prices set the keys to x1/d1 and x2/d2 with x1*d2 - x2*d1 = 1.  The
    inner path vertices have keys below -1, so one of them is extracted
    on every turn until t_small is pushed next to t_big: the heap must
    then take t_small first although its id is larger.
    """
    primes = _near_bound_primes(B, 2 * k + 2, rng)
    dens_a, dens_b = primes[: k + 1], primes[k + 1:]
    d1, d2 = math.prod(dens_a), math.prod(dens_b)
    x1 = pow(d2, -1, d1)
    x2 = (x1 * d2 - 1) // d1
    t_big, t_small = 2 * k + 1, 2 * k + 2
    edges = _path_edges([0, *range(1, k + 1), t_big], dens_a, x1)
    edges += _path_edges([0, *range(k + 1, 2 * k + 1), t_small], dens_b, x2)
    g = WeightedDigraph(2 * k + 3, edges)
    dist = bf_exact(g, 0).dist
    price = [R(0)] + [R(3 * k + 3)] * k + [R(2 * k + 2)] * k
    price += [dist[t_big] - R(x1, d1), dist[t_small] - R(x2, d2)]
    return g, price, t_small, t_big, R(1, d1 * d2)


def _batch_gadget(B, k, rng):
    """Two vertices relaxed from one parent whose keys differ by exactly
    1/(r1*r2), the finest gap two keys of one batch can have: their
    distances share the parent's, so the gap is that of w - p.

    A path of k edges leads from s = 0 to c = k, whose distance has a
    denominator near 2^(kB-1); c has edges to v = k+1 and u = k+2 whose
    weights have prime denominators r1 and r2, and prices set key(u) =
    key(v) - 1/(r1*r2).  The rank of u must come first although its id
    is larger, so u is reinserted and extracted first.
    """
    primes = _near_bound_primes(B, k + 2, rng)
    dens, (r1, r2) = primes[:k], primes[k:]
    x = int(rng.integers(1, math.prod(dens)))
    while math.gcd(x, math.prod(dens)) != 1:
        x += 1
    c, v, u = k, k + 1, k + 2
    wv, wu = R(pow(r2, -1, r1), r1), R(-pow(r1, -1, r2) % r2, r2)
    edges = _path_edges(list(range(k + 1)), dens, x) + [(c, v, wv), (c, u, wu)]
    price = [R(0)] * (k + 3)
    price[v] = wv - wu - R(1, r1 * r2)
    return WeightedDigraph(k + 3, edges), price, u, v, R(1, r1 * r2)


def _pad_past_the_scale(g, below):
    """g plus a vertex z = g.n with no in-edges and an edge z -> v of
    weight 1/q_v to every other vertex v, the q_v the largest distinct
    primes below `below`.  Their product pushes the lcm of the weight
    denominators past the floor keys' scale, so a context on the padded
    graph keys by floors.  z stays at +infinity in every run from
    another vertex, and, its weights being non-negative, leaves the
    scaling price of every other vertex as it was."""
    primes = _primes_below(below)[::-1][:g.n]
    assert len(primes) == g.n
    edges = [(e.tail, e.head, e.weight) for e in g.edges]
    return WeightedDigraph(g.n + 1, edges + [(g.n, v, R(1, q)) for v, q in enumerate(primes)])


def _key_mode(ctx, g):
    """"exact" if `ctx` keys on the lcm L of g's weight denominators, with
    a(v) * L = hi(v) * P + lo(v), or "floor" if on the floor keys' scale
    P * 2^S; the rule is L <= P * 2^S."""
    scale = ctx.pden << ctx.shift
    grid = math.lcm(*{e.weight.den for e in g.edges})
    if grid <= scale:
        assert ctx.mult == grid
        assert all(0 <= -nl < ctx.pden for nl in ctx.nlo)
        assert [h * ctx.pden - nl for h, nl in zip(ctx.hi, ctx.nlo)] == [a * grid for a in ctx.pnum]
        return "exact"
    assert ctx.mult == scale
    assert ctx.hi == [a << ctx.shift for a in ctx.pnum]
    assert ctx.nlo == [0] * len(ctx.pnum)
    return "floor"


class TestCutDijkstra:
    def _context(self, g, k):
        ctx = cut_preprocess(g, k, budget=B16)
        assert not isinstance(ctx, NegativeCycle)
        return ctx

    def test_source_zero(self):
        g = gen_random(12, 30, 2, "small", "priced")
        ctx = self._context(g, 3)
        run = cut_dijkstra(ctx, 0)
        assert run.dist[0] == ZERO

    def test_context_table_matches_direct_approximation(self):
        from ratpath.graph import check_eps_feasible

        g = gen_random(14, 40, 6, "small", "priced")
        ctx = self._context(g, 3)
        eps = R(1, 1 << ((2 * 3 + 1) * B16.B + math.ceil(math.log2(g.n))))
        assert check_eps_feasible(g, ctx.price, eps)

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
                price = list(ctx.price)
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
            run = cut_dijkstra(ctx, 0)
            full = bf_exact(g, 0).dist
            hop = textbook_bf(g, 0, hop_bound=k)[0]
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
                if full[v] is not None and hop[v] == Fraction(full[v].num, full[v].den):
                    checked += 1
                    assert run.dist[v] == full[v], (trial, v)
        assert checked > 500

    def test_exact_path_of_k_edges(self):
        g = WeightedDigraph(4, [(0, 1, R(-1, 2)), (1, 2, R(-1, 2)), (2, 3, R(-1, 2))])
        ctx = self._context(g, 3)
        run = cut_dijkstra(ctx, 0)
        assert run.dist[3] == R(-3, 2)

    def test_heap_insert_bound(self):
        rng = np.random.default_rng(67)
        for trial in range(30):
            n = int(rng.integers(4, 50))
            g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            k = max(2, math.isqrt(n))
            ctx = self._context(g, k)
            run = cut_dijkstra(ctx, 0)
            assert run.heap_inserts <= n + 2 * n * math.sqrt(n)

    def test_replay_reproduces_dist(self):
        rng = np.random.default_rng(68)
        for trial in range(30):
            n = int(rng.integers(4, 40))
            g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            k = int(rng.choice([2, max(2, math.isqrt(n))]))
            ctx = self._context(g, k)
            run = cut_dijkstra(ctx, 0)
            replay = replay_enhanced_order(g, 0, run.order, run.processed)
            assert replay == run.dist

    def test_k_equals_n_matches_plain_dijkstra(self):
        for seed in range(12):
            g = gen_random(18, 50, seed)
            ctx = self._context(g, 18)
            run = cut_dijkstra(ctx, 0)
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
                        run = cut_dijkstra(ctx, s)
                        dist = [None if d is None else str(d) for d in run.dist]
                        fields = (dist, run.parent, run.order, run.processed, run.heap_inserts)
                        h.update(repr(fields).encode())
        assert h.hexdigest() == "444322604c6f5d10a370274795cfb1c193e4dd661fb0e1c834fcc3353e674d58"

    @staticmethod
    def _assert_matches_reference(ctx, g, s):
        got_stats, want_stats = {}, {}
        got = cut_dijkstra(ctx, s, collect=got_stats)
        want = reference_cut_dijkstra(ctx, g, s, collect=want_stats)
        assert got.source == want.source == s
        # str() also pins the canonical (num, den) of every distance.
        assert [None if d is None else str(d) for d in got.dist] == [
            None if d is None else str(d) for d in want.dist
        ]
        assert got.parent == want.parent
        assert got.order == want.order
        assert got.processed == want.processed
        assert got.heap_inserts == want.heap_inserts
        assert got_stats == want_stats
        return got

    def test_matches_reference_on_priced_graphs(self):
        # Random priced graphs under the contexts `cut_preprocess` builds,
        # whose price denominators are 2^(E+1), from sources other than 0.
        rng = np.random.default_rng(1701)
        runs = 0
        for bits, weights in ((16, "small"), (64, "small"), (128, "big")):
            for trial in range(6):
                n = int(rng.integers(6, 40))
                g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), weights, "priced")
                k = int(rng.choice([1, 2, max(2, math.isqrt(n))]))
                ctx = cut_preprocess(g, k, budget=WordBudget(bits))
                assert not isinstance(ctx, NegativeCycle)
                assert ctx.pden.bit_count() == 1
                for s in rng.choice(np.arange(1, n), 3, replace=False):
                    self._assert_matches_reference(ctx, g, int(s))
                    runs += 1
        assert runs == 54

    def test_matches_reference_when_keys_share_their_floor(self):
        # Hand-built contexts with prices of denominator 1, 2 or 3 put the
        # keys of many vertices relaxed from one parent on the same floor
        # at the price resolution, so only the bits below it order them;
        # copied prices and weights add exact key
        # ties, which break by vertex id.  Such pairs share their final
        # parent, so they were ranked in the same batch.
        # Every context keys exactly on its weights' grid, by (c, -lo)
        # with c = ceil(key * L).  A second pass with weight denominators
        # 1 or 2 and price denominators 7, 11 or 13, off that grid, puts
        # distinct keys of one batch on the same c, ordered by lo alone.
        budget = WordBudget(16)
        counts = []
        for seed, price_dens, weight_dens in ((1702, [1, 2, 3], 7), (1704, [7, 11, 13], 3)):
            rng = np.random.default_rng(seed)
            same_part = ties = by_lo = 0
            for trial in range(60):
                n = int(rng.integers(5, 18))
                den = int(rng.choice(price_dens))
                price = [R(int(rng.integers(-2 * den, 2 * den + 1)), den) for _ in range(n)]
                edges = {}
                for _ in range(3 * n):
                    u, v = (int(x) for x in rng.choice(n, 2, replace=False))
                    edges[(u, v)] = R(int(rng.integers(-4, 9)), int(rng.integers(1, weight_dens)))
                for (u, v) in list(edges):
                    twin = int(rng.integers(0, n))
                    if rng.random() < 0.3 and (u, twin) in edges and twin != v:
                        price[v] = price[twin]
                        edges[(u, v)] = edges[(u, twin)]
                g = WeightedDigraph(n, [(u, v, w) for (u, v), w in edges.items()])
                ctx = CutContext(g, int(rng.integers(1, 4)), budget, price)
                assert _key_mode(ctx, g) == "exact"
                for s in range(1, n):
                    run = self._assert_matches_reference(ctx, g, s)
                    keys = {}
                    for u in range(n):
                        if run.parent[u] is not None and run.dist[u] is not None:
                            key = run.dist[u] - price[u]
                            keys.setdefault(run.parent[u], []).append(key)
                    for batch in keys.values():
                        for a in batch:
                            for b in batch:
                                if a is not b and (a.num * ctx.pden) // a.den == (b.num * ctx.pden) // b.den:
                                    same_part += a != b
                                    ties += a == b
                                if a != b and -(-a.num * ctx.mult // a.den) == -(-b.num * ctx.mult // b.den):
                                    by_lo += 1
            counts.append((same_part, ties, by_lo))
        (same_part, ties, _), (_, _, by_lo) = counts
        assert same_part > 300 and ties > 300 and by_lo > 200, counts

    def test_keys_exact_at_the_separation_bound(self):
        # Keys one gap apart at the finest resolution each comparison can
        # meet: on the heap, tentative denominators near D and a gap of
        # 1/(d1*d2); in one batch, a gap of 1/(r1*r2).  In both the vertex
        # with the smaller key has the larger id, so a key floor too
        # coarse to separate them puts the other first.
        # Each gadget runs in both key modes: as built, its keys are exact
        # on the weights' grid; padded by `_pad_past_the_scale` with
        # primes of B+1 bits, its floors are at most 6 bits finer than
        # the gadget's own 2^-S.
        rng = np.random.default_rng(1703)
        checked = 0
        for bits in (8, 12, 16):
            budget = WordBudget(bits)
            for k in (1, 2, 3):
                for build in (_heap_gadget, _batch_gadget):
                    for _ in range(3):
                        g, price, first, second, gap = build(bits, k, rng)
                        padded = _pad_past_the_scale(g, 1 << (bits + 1))
                        for graph, prices, mode in ((g, price, "exact"), (padded, price + [ZERO], "floor")):
                            ctx = CutContext(graph, k, budget, prices)
                            assert _key_mode(ctx, graph) == mode
                            run = self._assert_matches_reference(ctx, graph, 0)
                            key = [d - p for d, p in zip(run.dist, price)]
                            assert key[second] - key[first] == gap
                            assert first > second
                            assert run.order.index(first) < run.order.index(second)
                            if build is _heap_gadget:
                                bound = max(e.weight.den for e in g.edges) << (k * bits - 1)
                                dens = [run.dist[first].den, run.dist[second].den]
                                assert gap.den == dens[0] * dens[1]
                                assert all(bound < d << (2 * k) for d in dens)
                        checked += 1
        assert checked == 54

    def test_both_key_modes_match_reference(self):
        # Priced graphs key exactly on their weights' grid; one vertex
        # with no in-edges and 15-bit prime denominators on its out-edges
        # pushes that grid past the scale, and the runs key by floors.
        # The padding leaves the price, so every run on the original
        # vertices, as it was: z is extracted once, at +infinity.
        rng = np.random.default_rng(4601)
        runs = 0
        for trial in range(8):
            n = int(rng.choice([v for v in range(17, 41) if v & (v - 1)]))
            g = gen_random(n, 3 * n, int(rng.integers(0, 2**31)), "small", "priced")
            padded = _pad_past_the_scale(g, 1 << 15)
            k = 1 + trial % 3
            ctx, wide = cut_preprocess(g, k, budget=B16), cut_preprocess(padded, k, budget=B16)
            assert _key_mode(ctx, g) == "exact" and _key_mode(wide, padded) == "floor"
            assert wide.pden == ctx.pden and wide.pnum[:n] == ctx.pnum
            for s in rng.choice(n, 3, replace=False):
                got = self._assert_matches_reference(ctx, g, int(s))
                pad = self._assert_matches_reference(wide, padded, int(s))
                assert pad.dist == got.dist + [None]
                assert pad.parent == got.parent + [None]
                assert [v for v in pad.order if v != n] == got.order and n in pad.order
                assert pad.processed == got.processed + [False]
                assert pad.heap_inserts == got.heap_inserts + 1
                runs += 1
        assert runs == 24

    def test_k_shortness_on_grid_ints_at_the_bound(self):
        # An exact-mode run decides k-shortness on x = d * L: with L and
        # |x| below the bound the reduced pair is k-short with no gcd, and
        # otherwise one gcd(x, L) decides.  At B = 16, k = 1 (bound 2^15)
        # hand-built chains put x past the bound while k-short (20000 * 3)
        # and on it while not (+-2^15 / 3); random graphs with integer
        # parts up to 12000 cross it both ways, on L = 12, below the
        # bound, and on L = 2 * 251 * 257, above it.
        budget = WordBudget(16)
        bound = 1 << 15
        chains = [[R(10000), R(10000), R(1, 3), R(1)], [R(10922), R(2, 3), R(1)], [R(-10922), R(-2, 3), R(1)]]
        graphs = [WeightedDigraph(len(ws) + 1, [(i, i + 1, w) for i, w in enumerate(ws)]) for ws in chains]
        rng = np.random.default_rng(4701)
        for trial in range(30):
            n = int(rng.integers(6, 16))
            dens = [1, 2, 3, 4, 6] if trial % 2 else [1, 2, 251, 257]
            edges = {}
            for _ in range(3 * n):
                u, v = (int(x) for x in rng.choice(n, 2, replace=False))
                edges[(u, v)] = R(int(rng.integers(-12000, 12001)), int(rng.choice(dens)))
            graphs.append(WeightedDigraph(n, [(u, v, w) for (u, v), w in edges.items()]))
        past = on = wide = not_short = 0
        for g in graphs:
            ctx = CutContext(g, 1, budget, [ZERO] * g.n)
            assert _key_mode(ctx, g) == "exact"
            grid = ctx.mult
            wide += grid >= bound
            for s in range(g.n):
                got, want = cut_dijkstra(ctx, s), reference_cut_dijkstra(ctx, g, s)
                assert got.processed == want.processed
                assert got.dist == want.dist
                assert got.order == want.order
                for d in got.dist:
                    if d is not None:
                        x = d.num * (grid // d.den)
                        short = is_k_short(d, 1, budget)
                        past += short and abs(x) >= bound
                        on += grid < bound and abs(x) == bound and not short
                        not_short += not short
        assert past > 100 and on >= 2 and wide == 15 and not_short > 100, (past, on, wide, not_short)

    def test_weight_grid_stops_past_the_cap(self):
        # The lcm is built one denominator at a time and given up at the
        # first partial lcm past the cap: the rest is never read.
        from ratpath.sssp import _weight_grid

        dens = iter([2, 3, 5, 7, 11, 13])
        assert _weight_grid(dens, 29) is None
        assert list(dens) == [7, 11, 13]
        assert _weight_grid([4, 6, 10], 60) == 60
        assert _weight_grid([4, 6, 10], 59) is None
        assert _weight_grid([], 1) == 1

    def test_rejects_bad_source_and_short_price(self):
        g = gen_random(8, 20, 3, "small", "priced")
        ctx = self._context(g, 2)
        for s in (-1, 8, 100):
            with pytest.raises(ValueError, match="out of range"):
                cut_dijkstra(ctx, s)
        with pytest.raises(ValueError, match="price has 7 values"):
            CutContext(g, 2, B16, ctx.price[:-1])

    def test_runs_read_the_graph_from_the_context(self):
        # The context is a snapshot: an edge added to the graph afterwards
        # changes no run on it.
        g = gen_random(8, 20, 3, "small", "priced")
        ctx = self._context(g, 2)
        before = [cut_dijkstra(ctx, s).dist for s in range(g.n)]
        for u in range(1, g.n):
            g.add_edge(0, u, R(-1000))
        assert [cut_dijkstra(ctx, s).dist for s in range(g.n)] == before

    def test_recombination_graph_dominance(self):
        # estimates between hit-set vertices dominate true distances
        rng = np.random.default_rng(69)
        for trial in range(10):
            n = int(rng.integers(6, 26))
            g = gen_random(n, 3 * n, int(rng.integers(0, 2**31)), "small", "priced")
            k = max(2, math.isqrt(n))
            ctx = self._context(g, k)
            sample = sorted(int(x) for x in rng.permutation(n)[: max(2, n // 3)])
            runs = {z: cut_dijkstra(ctx, z) for z in sample}
            for z in sample:
                full = bf_exact(g, z).dist
                for v in sample:
                    est = runs[z].dist[v]
                    if est is not None:
                        assert full[v] is not None and est >= full[v]


class TestRecombination:
    @staticmethod
    def _deep_priced(n, rng):
        # A backbone 0 -> n-1 -> ... -> 1 over a non-negative random graph,
        # then a random potential: negative edges, no negative cycle, and
        # deep paths whose distances soon stop being 1-short, so cut runs
        # at k = 1 leave the far vertices to relays through the hit set.
        base = gen_random(n, 2 * n, int(rng.integers(0, 2**31)), "small")
        edges = {(e.tail, e.head): e.weight for e in base.edges}
        for u, v in [(0, n - 1)] + [(v, v - 1) for v in range(n - 1, 1, -1)]:
            edges[(u, v)] = R(int(rng.integers(1, 17)), int(rng.integers(1, 17)))
        pot = [R(int(rng.integers(-16, 17)), int(rng.integers(1, 17))) for _ in range(n)]
        return WeightedDigraph(n, [(u, v, w - pot[u] + pot[v]) for (u, v), w in edges.items()], source=0)

    def test_matches_full_scan(self):
        # The edge skip of graph._bellman_ford, which _recombine shares
        # with bf_exact, and the unreduced comparisons of _recombine must
        # give the recombination parents and through-vertices of full
        # scans on the same hit set and runs; the tree is a function of
        # those.  The tree alone would not show a wrong parent, since
        # another stitching can reach the same shortest paths.
        rng = np.random.default_rng(1603)
        trees = relayed = 0
        for trial in range(120):
            n = int(rng.integers(4, 40))
            if trial % 2:
                g, k = self._deep_priced(n, rng), 1
            else:
                g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
                k = int(rng.choice([1, 2, 3]))
            ctx = cut_preprocess(g, k, budget=B16)
            assert not isinstance(ctx, NegativeCycle)
            others = [int(v) for v in rng.permutation(np.arange(1, n))[: int(rng.integers(1, n))]]
            hitset = [0] + sorted(others)
            runs = [cut_dijkstra(ctx, v) for v in hitset]
            hpar, best_via = full_scan_recombination(g.n, hitset, runs)
            assert _recombine(g.n, hitset, runs) == (hpar, best_via), trial
            tree = _witness_tree(g, 0, hitset, runs, hpar, best_via)
            trees += verify_sssp(g, tree).valid
            relayed += any(p > 0 for p in hpar)
        assert trees >= 100 and relayed >= 10, (trees, relayed)

    @staticmethod
    def _runs(hitset, rows):
        # Hand-built runs from BigRational rows: _recombine reads their
        # dist, as it reads a floor-mode run's.
        return [CutResult(v, [None if w is None else R(*w) for w in row], None, [], [], 0)
                for v, row in zip(hitset, rows)]

    @pytest.mark.parametrize("rows", [
        # 0 -> 1 -> 0 weighs 1 - 2: the cycle runs through s.
        [[(0,), (1,), None], [(-2,), (0,), None], [None, None, (0,)]],
        # 1 -> 2 -> 1 weighs 1/2 - 2/3, reached from s over 0 -> 1.
        [[(0,), (1,), None], [None, (0,), (1, 2)], [None, (-2, 3), (0,)]],
    ])
    def test_negative_cycle_raises(self, rows):
        with pytest.raises(_RecombinationError):
            _recombine(3, [0, 1, 2], self._runs([0, 1, 2], rows))

    def test_zero_cycle_recombines(self):
        # The same shape at cycle weight 0 is no cycle: 1 is reached
        # directly, and 2 through 1.
        rows = [[(0,), (1,), None], [None, (0,), (1, 2)], [None, (-1, 2), (0,)]]
        assert _recombine(3, [0, 1, 2], self._runs([0, 1, 2], rows)) == ([-1, 0, 1], [0, 0, 1])

    def test_matches_bigrational_sums(self):
        # The `sum_lt` tests of _recombine against the two-stage estimates
        # summed as `BigRational`s, first strict improvement in index
        # order.  Row values come from a handful of fractions, some
        # written over several denominators, so equal estimates through
        # different indices are common.
        rng = np.random.default_rng(3701)
        values = [(0, 1), (1, 2), (2, 4), (1, 3), (2, 6), (1, 1), (3, 3), (5, 6), (-1, 2), (-2, 4)]
        ties = 0
        for trial in range(300):
            size = int(rng.integers(1, 7))
            n = size + int(rng.integers(0, 8))
            rows = []
            for i in range(size):
                row = [None if rng.random() < 0.25 else values[int(rng.integers(0, len(values)))]
                       for _ in range(n)]
                row[i] = (0, 1)
                rows.append(row)
            hitset = list(range(size))
            runs = self._runs(hitset, rows)
            edges = [(i, j, run.dist[j]) for i, run in enumerate(runs) for j in range(size)
                     if run.dist[j] is not None and i != j]
            hdist, hpar, cycle = _bellman_ford(size, 0, edges)
            if cycle is not None:
                with pytest.raises(_RecombinationError):
                    _recombine(n, hitset, runs)
                continue
            best = [None] * n
            best_via = [None] * n
            for i in range(size):
                if hdist[i] is None:
                    continue
                for v in range(n):
                    w = runs[i].dist[v]
                    if w is None:
                        continue
                    if best[v] is not None and hdist[i] + w == best[v]:
                        ties += 1
                    if best[v] is None or hdist[i] + w < best[v]:
                        best[v] = hdist[i] + w
                        best_via[v] = i
            assert _recombine(n, hitset, runs) == (hpar, best_via), trial
        assert ties >= 100, ties


class TestRunPairs:
    """A run of `cut_dijkstra` keeps its distances in one form: an
    exact-mode run its grid ints, from which `CutResult.dist` is built
    when first read, a floor-mode run the `BigRational`s that `_make`
    builds, with no gcd of its own, from the pairs the run reduces at
    extraction.  Every finite entry of `dist` must be canonical in both
    modes.  Runs that the public constructor builds from the same
    `BigRational` rows must recombine alike."""

    @staticmethod
    def _graphs(rng, count):
        for trial in range(count):
            n = int(rng.integers(4, 30))
            if trial % 2:
                yield TestRecombination._deep_priced(n, rng), 1
            else:
                g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
                yield g, int(rng.choice([1, 2, 3]))

    @classmethod
    def _cases(cls, rng, count, floors):
        # (graph, k, budget): `_graphs`' exact-mode graphs at B = 16, then
        # big-weight priced graphs at B = 96, whose weight lcm passes the
        # floor keys' scale.
        for g, k in cls._graphs(rng, count):
            yield g, k, B16
        for seed in range(floors):
            yield gen_random(40, 160, seed, "big", "priced"), 2, WordBudget(96)

    def test_dist_is_made_from_reduced_pairs(self):
        rng = np.random.default_rng(4502)
        finite = {"exact": 0, "floor": 0}
        for g, k, budget in self._cases(rng, 20, 3):
            ctx = cut_preprocess(g, k, budget=budget)
            mode = _key_mode(ctx, g)
            for s in range(g.n):
                run = cut_dijkstra(ctx, s)
                assert (run.ints is None) == (mode == "floor")
                assert len(run.dist) == g.n
                for d in run.dist:
                    if d is None:
                        continue
                    num, den = d.num, d.den
                    assert den > 0 and math.gcd(num, den) == 1
                    want = R(num, den)
                    assert (want.num, want.den) == (num, den) and d == want
                    finite[mode] += 1
        assert finite["exact"] > 1000 and finite["floor"] > 1000, finite

    def test_recombine_same_on_rebuilt_runs(self):
        rng = np.random.default_rng(4503)
        relayed = 0
        for g, k, budget in self._cases(rng, 120, 3):
            ctx = cut_preprocess(g, k, budget=budget)
            others = rng.permutation(np.arange(1, g.n))[: int(rng.integers(1, g.n))]
            hitset = [0] + sorted(int(v) for v in others)
            runs = [cut_dijkstra(ctx, v) for v in hitset]
            got = _recombine(g.n, hitset, runs)
            # Exact-mode recombination reads the grid ints, so no run has
            # built its dist; a floor-mode run holds it from the start.
            assert all((run._dist is None) == (ctx.grid_adj is not None) for run in runs)
            rebuilt = [CutResult(r.source, r.dist, r.parent, r.order, r.processed, r.heap_inserts) for r in runs]
            assert _recombine(g.n, hitset, rebuilt) == got
            assert full_scan_recombination(g.n, hitset, runs) == got
            relayed += any(p > 0 for p in got[0])
        assert relayed >= 5, relayed


class TestGridRecombination:
    """Exact-mode runs hand `_recombine` their grid ints d(v) * L, and it
    recombines on those ints; runs rebuilt from their `BigRational` rows
    recombine on those rationals, by `sum_lt`.  Both must give the same
    (hpar, best_via), ties included."""

    def test_grid_and_pair_recombination_agree(self):
        rng = np.random.default_rng(4704)
        graphs = via_ties = hop_ties = 0
        for trial in range(160):
            n = int(rng.integers(4, 30))
            seed = int(rng.integers(0, 2**31))
            kind = trial % 4
            if kind < 2:
                g, k = gen_random(n, min(3 * n, n * (n - 1)), seed, "small", "priced"), int(rng.choice([1, 2, 3]))
                budget = WordBudget(16 if kind == 0 else 64)
            elif kind == 2:
                g, k, budget = backbone_graph(n, seed), int(rng.choice([1, 2])), WordBudget(64)
            else:
                g, k, budget = TestRecombination._deep_priced(n, rng), 1, B16
            ctx = cut_preprocess(g, k, budget=budget)
            assert ctx.grid_adj is not None
            others = rng.permutation(np.arange(1, n))[: int(rng.integers(1, n))]
            hitset = [0] + sorted(int(v) for v in others)
            runs = [cut_dijkstra(ctx, v) for v in hitset]
            assert all(run.grid == ctx.mult for run in runs)
            rebuilt = [CutResult(r.source, r.dist, r.parent, r.order, r.processed, r.heap_inserts) for r in runs]
            hpar, best_via = want = _recombine(g.n, hitset, rebuilt)
            assert _recombine(g.n, hitset, runs) == want, trial
            graphs += 1
            # Ties the strict tests must keep: a hit-set edge that meets
            # its head's distance from another tail, and a vertex reached
            # at its best estimate through more than one index.
            edges = [(i, j, run.dist[v]) for i, run in enumerate(runs) for j, v in enumerate(hitset)
                     if run.dist[v] is not None and i != j]
            hdist = _bellman_ford(len(hitset), 0, edges)[0]
            hop_ties += sum(j > 0 and i != hpar[j] and hdist[i] is not None and hdist[i] + w == hdist[j]
                            for i, j, w in edges)
            for v in range(n):
                ests = [hdist[i] + run.dist[v] for i, run in enumerate(runs)
                        if hdist[i] is not None and run.dist[v] is not None]
                via_ties += ests.count(min(ests, default=None)) > 1
        assert graphs == 160 and hop_ties > 100 and via_ties > 100, (hop_ties, via_ties)


class TestWitnessTree:
    """`_witness_tree` builds one loop-erased prefix per hit index; the
    trees must be the bytes of the walk-by-walk construction."""

    _PRIMES = _primes_below(62)

    @classmethod
    def _chain(cls, n, rng):
        # A chain 0 -> 1 -> ... -> n-1 of weights 1/p or 0, zero-weight
        # back edges and zero-weight 2-cycles (so shortest walks can
        # revisit a vertex), a few shortcuts, and an integer potential of
        # -1..1: every weight stays 1-short at B = 8.
        edges = {}

        def add(u, v, w):
            if u != v and (u, v) not in edges:
                edges[(u, v)] = w

        for v in range(1, n):
            add(v - 1, v, ZERO if rng.random() < 1 / 3 else R(1, int(rng.choice(cls._PRIMES))))
            if rng.random() < 0.5:
                add(v, v - 1, ZERO)
        for _ in range(n // 3):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            add(u, v, ZERO)
            add(v, u, ZERO)
        for _ in range(n // 6):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            add(u, v, R(int(rng.integers(0, 3)), int(rng.choice(cls._PRIMES))))
        c = [int(x) for x in rng.integers(-1, 2, n)]
        return WeightedDigraph(n, [(u, v, w + c[v] - c[u]) for (u, v), w in edges.items()], source=0)

    @staticmethod
    def _compare(g, ctx, hitset, stats):
        runs = [cut_dijkstra(ctx, v) for v in hitset]
        try:
            hpar, best_via = _recombine(g.n, hitset, runs)
        except _RecombinationError:
            return None
        want = serialize_tree(reference_witness_tree(g, 0, hitset, runs, hpar, best_via, stats))
        assert serialize_tree(_witness_tree(g, 0, hitset, runs, hpar, best_via)) == want
        return hpar

    def test_matches_reference_on_chains(self):
        rng = np.random.default_rng(3702)
        stats = {}
        trees = relayed = spliced = 0
        for trial in range(600):
            g = self._chain(int(rng.integers(6, 40)), rng)
            ctx = cut_preprocess(g, int(rng.integers(1, 4)), budget=WordBudget(int(rng.integers(8, 13))))
            assert not isinstance(ctx, NegativeCycle)
            others = rng.permutation(np.arange(1, g.n))[: int(rng.integers(0, g.n))]
            before = stats.get("spliced", 0)
            hpar = self._compare(g, ctx, [0] + sorted(int(v) for v in others), stats)
            if hpar is not None:
                trees += 1
                relayed += any(p > 0 for p in hpar)
                spliced += stats.get("spliced", 0) > before
        # Relays stitch several runs, and some walks revisit a vertex.
        assert trees == 600 and relayed >= 60 and spliced >= 20, (trees, relayed, spliced)

    def test_matches_reference_on_priced_graphs(self):
        rng = np.random.default_rng(3703)
        for trial in range(150):
            n = int(rng.integers(4, 40))
            if trial % 2:
                g, k = TestRecombination._deep_priced(n, rng), 1
            else:
                g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
                k = int(rng.integers(1, 4))
            ctx = cut_preprocess(g, k, budget=B16)
            assert not isinstance(ctx, NegativeCycle)
            others = rng.permutation(np.arange(1, n))[: int(rng.integers(0, n))]
            self._compare(g, ctx, [0] + sorted(int(v) for v in others), {})

    def test_matches_reference_on_random_trees(self):
        # The construction is combinatorial: it reads the runs' parent
        # links and the recombination parents, not their distances.  So
        # random run trees over a few vertices of a complete zero-weight
        # digraph, random relay trees and random through-indices make
        # walks that revisit vertices far more often than real runs do.
        rng = np.random.default_rng(3704)
        stats = {}
        for trial in range(2000):
            n = int(rng.integers(2, 10))
            g = WeightedDigraph(n, [(u, v, ZERO) for u in range(n) for v in range(n) if u != v], source=0)
            size = int(rng.integers(1, min(n, 5) + 1))
            hitset = [0] + sorted(int(v) for v in rng.permutation(np.arange(1, n))[: size - 1])
            runs = []
            for h in hitset:
                order = [h] + [int(v) for v in rng.permutation([v for v in range(n) if v != h])]
                parent = [None] * n
                for j in range(1, n):
                    parent[order[j]] = order[int(rng.integers(0, j))]
                runs.append(CutResult(h, [None] * n, parent, order, [], 0))
            rank = [0] + [int(j) for j in rng.permutation(np.arange(1, size))]
            hpar = [-1] * size
            for j in range(1, size):
                hpar[rank[j]] = rank[int(rng.integers(0, j))]
            best_via = [None if rng.random() < 0.1 else int(rng.integers(0, size)) for _ in range(n)]
            want = serialize_tree(reference_witness_tree(g, 0, hitset, runs, hpar, best_via, stats))
            assert serialize_tree(_witness_tree(g, 0, hitset, runs, hpar, best_via)) == want, trial
        assert stats["spliced"] >= 1000, stats

    def test_recombination_cycle_raises(self):
        # Recombination parents that form a cycle are refused, as the
        # walk-by-walk construction refuses them.
        g = WeightedDigraph(3, [(0, 1, ZERO), (1, 2, ZERO), (2, 1, ZERO)], source=0)
        ctx = cut_preprocess(g, 1, budget=B16)
        hitset = [0, 1, 2]
        runs = [cut_dijkstra(ctx, v) for v in hitset]
        for build in (_witness_tree, reference_witness_tree):
            with pytest.raises(_RecombinationError, match="form a cycle"):
                build(g, 0, hitset, runs, [-1, 2, 1], [0, 1, 2])


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

    def test_floor_mode_matches_oracle(self):
        # Big-weight priced graphs at B = 96: the weight lcm passes the
        # floor keys' scale, and the tree hit set holds many vertices, so
        # recombination runs end to end on floor-mode runs' rationals.
        budget = WordBudget(96)
        for seed in range(8):
            g = gen_random(60, 240, seed, "big", "priced")
            assert cut_preprocess(g, 2, budget).grid_adj is None
            stats = {}
            res = negative_sssp(g, 0, k=2, budget=budget, collect=stats)
            assert stats["hitset_size"] > 1 and stats["pipeline_attempts"] == 1, (seed, stats)
            assert res.distances() == bf_exact(g, 0).dist, seed

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
        assert stats["cut_heap_inserts"] == 188
        assert stats["cut_heap_inserts_max"] == 94
        assert stats["cut_relaxations"] == 150
        assert stats["hitset_size"] == 2
        assert stats["cut_key_bits"] == 20
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

    def test_full_hit_set_verifies_on_first_attempt(self):
        # The first attempt's hit set cuts every path of the approximate
        # tree into segments of at most k hops, and holds at most
        # 1 + (n - 1) // k vertices: a cycle-free instance verifies on its
        # first attempt, without the oracle.
        rng = np.random.default_rng(2718)
        cases = [(backbone_graph(16, seed), WordBudget(64)) for seed in range(12)]
        for _ in range(24):
            n = int(rng.integers(2, 41))
            g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            cases.append((g, B16))
        for trial, (g, budget) in enumerate(cases):
            stats = {}
            res = negative_sssp(g, 0, seed=trial, budget=budget, collect=stats)
            k = math.ceil(math.sqrt(g.n))
            assert stats["pipeline_attempts"] == 1, trial
            assert stats["hitset_size"] <= 1 + (g.n - 1) // k, trial
            assert "oracle_cycles" not in stats, trial
            assert res.distances() == bf_exact(g, 0).dist, trial

    def test_reverse_path(self):
        # Every pair of vertices joined, shortest paths down the path
        # against its listing order: bf_exact runs on the grid of the
        # weights' lcm 840 and finds the textbook's answer, and the
        # pipeline verifies on its first attempt with the same distances.
        g = reverse_path(30)
        s = g.source
        assert _word_grid(g.edges) == 840
        with bf_route() as taken:
            oracle = bf_exact(g, s)
        assert taken == ["grid"]
        dist, parent, cycle = textbook_bf(g, s)
        assert cycle is None and oracle.parent == parent
        assert [Fraction(d.num, d.den) for d in oracle.dist] == dist
        stats = {}
        res = negative_sssp(g, s, budget=WordBudget(20), collect=stats)
        assert stats["pipeline_attempts"] == 1
        assert res.distances() == oracle.dist

    def test_hit_sets_keep_their_draws(self, monkeypatch):
        # A first attempt that verifies draws nothing; a miss draws
        # nothing either (test_miss_returns_the_oracle_tree).
        def refuse(*args, **kwargs):
            raise AssertionError("drew a hit set")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        g = gen_random(200, 600, 8, "small", "priced")
        stats = {}
        res = negative_sssp(g, 0, seed=1, budget=B16, collect=stats)
        assert stats["pipeline_attempts"] == 1
        assert res.distances() == bf_exact(g, 0).dist

    @staticmethod
    def _force_miss(monkeypatch):
        """Force the hit set down to [s], make every random draw fail, and
        record each oracle call and each cut run's source."""
        def refuse(*args, **kwargs):
            raise AssertionError("the negative pipeline drew a random number")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(sssp_module, "_tree_hitset", lambda ctx, s: [s])
        oracle_calls, run_sources = [], []
        monkeypatch.setattr(sssp_module, "bf_exact", lambda g, s: oracle_calls.append(s) or bf_exact(g, s))
        monkeypatch.setattr(sssp_module, "cut_dijkstra",
                            lambda ctx, v, collect=None: run_sources.append(v)
                            or cut_dijkstra(ctx, v, collect=collect))
        return oracle_calls, run_sources

    def test_miss_returns_the_oracle_tree(self, monkeypatch):
        # With the hit set forced down to [s], the run from s stops where
        # distances stop being k-short: verification fails, the one
        # oracle call finds no cycle, and its own tree is the answer,
        # whatever the seed, and the same bytes on either route of the
        # oracle.
        graphs = [_prime_chain(40, seed) for seed in range(6)]
        oracle_calls, run_sources = self._force_miss(monkeypatch)
        trees = {route: {} for route in BF_ROUTES}
        for route in BF_ROUTES:
            for seed, g in enumerate(graphs):
                want = bf_exact(g, 0).dist
                for k in (1, 8):
                    for solve_seed in range(4):
                        oracle_calls.clear()
                        run_sources.clear()
                        stats = {}
                        with bf_route(route) as taken:
                            res = negative_sssp(g, 0, k=k, seed=solve_seed, budget=B16, collect=stats)
                        assert taken == [route], (seed, k)
                        assert stats["pipeline_attempts"] == 2 and "oracle_cycles" not in stats, (seed, k)
                        assert oracle_calls == [0] and run_sources == [0] and stats["hitset_size"] == 1
                        assert verify_sssp(g, res).valid, (seed, k)
                        assert res.distances() == want, (seed, k)
                        trees[route].setdefault((seed, k), set()).add(serialize_tree(res))
            assert all(len(got) == 1 for got in trees[route].values()), route
        assert trees["grid"] == trees["rational"]

    def test_miss_tree_covers_the_reached_part(self, monkeypatch):
        # The chain plus vertices s cannot reach: a negative 2-cycle and
        # edges into the chain.  The oracle's tree holds the chain only,
        # and verifies against the whole graph.
        g = _prime_chain(40, 1)
        full = WeightedDigraph(44, [(e.tail, e.head, e.weight) for e in g.edges], source=0)
        for u, v, w in ((40, 41, R(-1)), (41, 40, ZERO), (42, 5, R(-3)), (43, 42, R(1, 3))):
            full.add_edge(u, v, w)
        oracle_calls, _ = self._force_miss(monkeypatch)
        trees = set()
        for route in BF_ROUTES:
            oracle_calls.clear()
            stats = {}
            with bf_route(route) as taken:
                res = negative_sssp(full, 0, k=8, budget=B16, collect=stats)
            assert taken == [route]
            assert stats["pipeline_attempts"] == 2 and oracle_calls == [0]
            assert sorted(res.parent) == list(range(1, 40))
            assert res.distances() == bf_exact(full, 0).dist
            assert res.distances()[40:] == [None] * 4
            assert verify_sssp(full, res).valid
            trees.add(serialize_tree(res))
        assert len(trees) == 1

    @pytest.mark.parametrize("k", [2.5, "3", 3.0, True, 0, -2])
    def test_rejects_bad_hop_parameter(self, k):
        g = gen_random(8, 20, 3, "small", "priced")
        with pytest.raises(ValueError, match="hop parameter must be a positive integer"):
            negative_sssp(g, 0, k=k, budget=B16)
        with pytest.raises(ValueError, match="hop parameter must be a positive integer"):
            cut_preprocess(g, k, budget=B16)

    def test_parameters_exact_on_ints(self):
        # The default hop bound ceil(sqrt(n)) and the ceil(log2 n) of the
        # price accuracy are computed on ints: at these n the float forms
        # give one less.
        from ratpath.sssp import _cut_accuracy, _hop_default

        n = (2**27 + 1) ** 2 + 1
        assert _hop_default(n) == 2**27 + 2 != math.ceil(math.sqrt(n))
        assert [_hop_default(v) for v in range(6)] == [1, 1, 2, 2, 2, 3]
        n = 2**60 + 1
        assert _cut_accuracy(n, 1, B16) == 3 * 16 + 61 != 3 * 16 + math.ceil(math.log2(n))
        assert [_cut_accuracy(v, 2, B16) - 80 for v in range(6)] == [1, 1, 1, 2, 2, 3]
        for v in range(1, 5000):
            assert _hop_default(v) == max(1, math.ceil(math.sqrt(v)))
            assert _cut_accuracy(v, 1, B16) == 48 + max(1, math.ceil(math.log2(max(v, 2))))

    def test_accepts_numpy_integer_hop_parameter(self):
        g = gen_random(12, 36, 3, "small", "priced")
        want = serialize_tree(negative_sssp(g, 0, k=2, seed=1, budget=B16))
        assert serialize_tree(negative_sssp(g, 0, k=np.int64(2), seed=1, budget=B16)) == want

    def test_rejects_weight_not_1_short(self):
        g = WeightedDigraph(2, [(0, 1, R(-(1 << 15), 3))])
        with pytest.raises(ValueError, match=r"edge weight -32768/3 is not 1-short under B=16"):
            negative_sssp(g, 0, budget=B16)

    def test_single_vertex(self):
        g = WeightedDigraph(1, source=0)
        res = negative_sssp(g, 0, budget=B16)
        assert res.distances() == [ZERO]

    @pytest.mark.parametrize("k", [1, 2])
    def test_cycle_that_s_cannot_reach_is_no_answer(self, k):
        # As with bf_exact, a negative cycle off s's reach leaves the tree
        # of the part s reaches, whatever k is: the unreachable 4-cycle of
        # test_oracle_answers_a_cycle_the_price_misses behind the single
        # edge 0 -> 5, and a plain one at B=16.
        primes = [(1 << 60) - d for d in (93, 107, 173, 179)]
        big = math.prod(primes)
        nums = [-pow(big // p, -1, p) % p for p in primes]
        nums[0] -= (sum(a * (big // p) for a, p in zip(nums, primes)) + 1) // big * primes[0]
        cycle = [(u, v, R(a, p)) for (u, v), a, p in zip([(1, 2), (2, 3), (3, 4), (4, 1)], nums, primes)]
        cases = [
            (WeightedDigraph(6, [(0, 5, ZERO)] + cycle), WordBudget(64)),
            (WeightedDigraph(4, [(0, 1, R(1)), (2, 3, R(-1)), (3, 2, ZERO)]), B16),
        ]
        for g, budget in cases:
            oracle = bf_exact(g, 0)
            assert not isinstance(oracle, NegativeCycle)
            res = negative_sssp(g, 0, k=k, budget=budget)
            assert not isinstance(res, NegativeCycle)
            assert res.distances() == oracle.dist
            assert verify_sssp(g, res).valid

    def test_unreachable_weight_still_checked(self):
        g = WeightedDigraph(3, [(0, 1, R(1)), (2, 1, R(1 << 15))])
        with pytest.raises(ValueError, match=r"edge weight 32768 is not 1-short under B=16"):
            negative_sssp(g, 0, budget=B16)

    def test_unreachable_stay_out(self):
        g = WeightedDigraph(4, [(0, 1, R(-1, 2)), (2, 3, R(1))], source=0)
        res = negative_sssp(g, 0, budget=B16)
        assert res.distances()[1] == R(-1, 2)
        assert res.distances()[2] is None and res.distances()[3] is None

    @pytest.mark.parametrize("n", [16, 200])
    def test_rejects_negative_seed(self, n):
        # No negative solve draws from the seed, at n=16 or at n=200,
        # yet the seed is refused up front alike.
        g = gen_random(n, 3 * n, 1, "small", "priced")
        with pytest.raises(ValueError) as err:
            negative_sssp(g, 0, seed=-1, budget=B16)
        assert str(err.value) == "seed must be a non-negative integer, got -1"

    @pytest.mark.parametrize("k", [1, 2])
    def test_oracle_answers_a_cycle_the_price_misses(self, k):
        # A zero edge 0 -> 1, then the cycle 1 -> 2 -> 3 -> 4 -> 1 with
        # weights a_i / p_i for the four largest primes p_i below 2^60:
        # a_i = -(P / p_i)^-1 mod p_i for the product P, with a_1 then
        # corrected so that the cycle weighs exactly -1/P, about -2^-240.
        # Every weight is 1-short at B=64.  At k=1 the price slack 2^-195
        # is coarser than the cycle: scaling returns a price, the cut runs
        # relax, verification fails and the answer is bf_exact's cycle.
        # At k=2 the slack is 2^-323 and scaling finds the cycle itself.
        primes = [(1 << 60) - d for d in (93, 107, 173, 179)]
        big = math.prod(primes)
        nums = [-pow(big // p, -1, p) % p for p in primes]
        nums[0] -= (sum(a * (big // p) for a, p in zip(nums, primes)) + 1) // big * primes[0]
        weights = [R(a, p) for a, p in zip(nums, primes)]
        assert sum(weights, ZERO) == R(-1, big)
        assert all(is_k_short(w, 1, WordBudget(64)) for w in weights)
        cycle = [(1, 2), (2, 3), (3, 4), (4, 1)]
        g = WeightedDigraph(5, [(0, 1, ZERO)] + [(u, v, w) for (u, v), w in zip(cycle, weights)])
        witnesses = set()
        for route in BF_ROUTES:
            stats = {}
            with bf_route(route) as taken:
                res = negative_sssp(g, 0, k=k, collect=stats)
            assert isinstance(res, NegativeCycle) and res.weight == R(-1, big)
            witnesses.add((tuple(res.vertices), res.weight))
            if k == 1:
                # bf_exact's cycle on either route (at the default cap the
                # weights' 240-bit lcm takes the rational one).
                assert taken == [route]
                oracle = bf_exact(g, 0)
                assert (res.vertices, res.weight) == (oracle.vertices, oracle.weight)
                assert stats["scaling_rounds"] == 197 and stats["cut_relaxations"] > 0
                assert stats["pipeline_attempts"] == stats["oracle_cycles"] == 1
            else:
                assert taken == []
                assert "cut_relaxations" not in stats and "oracle_cycles" not in stats
        assert len(witnesses) == 1

    def test_counters_collected(self):
        stats = {}
        g = gen_random(16, 48, 8, "small", "priced")
        negative_sssp(g, 0, seed=1, budget=B16, collect=stats)
        assert stats["cut_heap_inserts"] > 0
        assert stats["scaling_rounds"] > 0
        assert stats["hitset_size"] >= 1


def _prime_chain(n, seed):
    """A path 0 -> 1 -> ... -> n-1, edge i weighing 1/p_i for distinct
    primes p_i in (2^7, 2^9), under a random potential.  At B=16 a
    distance is 2-short only within about three hops of its run's source,
    so a cut run from s alone leaves the far end of the path unreached."""
    primes = [p for p in _primes_below(1 << 9) if p > 1 << 7][: n - 1]
    rng = np.random.default_rng(seed)
    pot = [R(int(rng.integers(-16, 17)), int(rng.integers(1, 5))) for _ in range(n)]
    edges = [(i, i + 1, R(1, p) - pot[i] + pot[i + 1]) for i, p in enumerate(primes)]
    return WeightedDigraph(n, edges, source=0)


def _approx_tree(ctx, s):
    """(parent, depth) of the textbook O(n^2) Dijkstra from s on the
    rational reduced weights floored at the price's resolution, clipped
    at 0: least (distance, id) first, a vertex keeping the first parent
    that strictly improves it.  None for a vertex s cannot reach."""
    n = len(ctx.adj)
    P = ctx.pden
    dist = [None] * n
    parent = [None] * n
    depth = [None] * n
    dist[s], depth[s] = 0, 0
    done = [False] * n
    while True:
        live = [v for v in range(n) if not done[v] and dist[v] is not None]
        if not live:
            return parent, depth
        u = min(live, key=lambda v: (dist[v], v))
        done[u] = True
        for v, wn, wd in ctx.adj[u]:
            w = max(0, math.floor((Fraction(wn, wd) + Fraction(ctx.price[u].num, ctx.price[u].den)
                                   - Fraction(ctx.price[v].num, ctx.price[v].den)) * P))
            if not done[v] and (dist[v] is None or dist[u] + w < dist[v]):
                dist[v], parent[v], depth[v] = dist[u] + w, u, depth[u] + 1


class TestTreeHitset:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(3141)
        for trial in range(30):
            n = int(rng.integers(2, 50))
            g = gen_random(n, min(3 * n, n * (n - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            yield g, int(rng.choice([1, 2, 3, 5])), B16
        for seed in range(8):
            yield backbone_graph(16 + 4 * seed, seed), int(rng.choice([2, 3, 4])), WordBudget(64)
        for trial in range(12):
            # A priced part that s reaches and one it does not, with edges
            # from the second into the first.
            a, b = int(rng.integers(2, 20)), int(rng.integers(1, 12))
            ga = gen_random(a, min(3 * a, a * (a - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            gb = gen_random(b, min(2 * b, b * (b - 1)), int(rng.integers(0, 2**31)), "small", "priced")
            edges = [(e.tail, e.head, e.weight) for e in ga.edges]
            edges += [(a + e.tail, a + e.head, e.weight) for e in gb.edges]
            edges += [(a + int(rng.integers(0, b)), int(rng.integers(0, a)), R(1)) for _ in range(3)]
            yield WeightedDigraph(a + b, edges), int(rng.choice([1, 2, 3])), B16

    def test_hits_every_k_hops_of_its_tree(self):
        deep = shallow = unreachable = 0
        for trial, (g, k, budget) in enumerate(self._cases()):
            ctx = cut_preprocess(g, k, budget=budget)
            assert not isinstance(ctx, NegativeCycle)
            hitset = _tree_hitset(ctx, 0)
            parent, depth = _approx_tree(ctx, 0)
            reached = [v for v in range(g.n) if depth[v] is not None]
            unreachable += len(reached) < g.n
            assert hitset[0] == 0 and len(set(hitset)) == len(hitset), trial
            assert len(hitset) <= 1 + (len(reached) - 1) // k, trial
            assert all(depth[v] is not None for v in hitset), trial
            hit = set(hitset)
            for v in reached:
                gap, x = 0, v
                while x not in hit:
                    x, gap = parent[x], gap + 1
                    assert gap <= k, (trial, v)
            if max(depth[v] for v in reached) < k:
                assert hitset == [0], trial
                shallow += 1
            else:
                deep += 1
            assert _tree_hitset(cut_preprocess(g, k, budget=budget), 0) == hitset, trial
        assert deep >= 10 and shallow >= 10 and unreachable >= 10, (deep, shallow, unreachable)

    def test_sparsest_class_least_residue(self):
        # A zero path 0 -> 1 -> ... -> 6 at k = 3: depths 1..6 fill each
        # residue class twice, so the least residue, 0, is taken.
        g = WeightedDigraph(7, [(v, v + 1, ZERO) for v in range(6)])
        ctx = cut_preprocess(g, 3, budget=B16)
        assert _tree_hitset(ctx, 0) == [0, 3, 6]
        # One more vertex at depth 3 ties residues 1 and 2 as the
        # sparsest, and the least is taken.
        g = WeightedDigraph(8, [(v, v + 1, ZERO) for v in range(6)] + [(2, 7, ZERO)])
        ctx = cut_preprocess(g, 3, budget=B16)
        assert _tree_hitset(ctx, 0) == [0, 1, 4]


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
