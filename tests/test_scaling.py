import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from ratpath.graph import (
    NegativeCycle,
    WeightedDigraph,
    bf_exact,
    check_eps_feasible,
    gen_random,
    plant_negative_cycle,
)
from ratpath.rational import BigRational, WordBudget, ZERO
from ratpath import scaling
from ratpath.scaling import (
    _check_1_short,
    _price_certified,
    assemble_price,
    eps_feasible_price,
    integer_sssp_arrays,
)
from ratpath.sssp import CutContext, _hop_default, cut_dijkstra, cut_preprocess
from conftest import backbone_graph, bf_oracle_int, over_lcm, reference_eps_feasible_price


def R(n, d=1):
    return BigRational(n, d)


def cycle_total(g, cyc):
    """Exact weight of the cycle, summed edge by edge along graph edges
    between consecutive vertices; the vertices are distinct."""
    assert len(set(cyc)) == len(cyc)
    total = ZERO
    for i, u in enumerate(cyc):
        e = g.edge_between(u, cyc[(i + 1) % len(cyc)])
        assert e is not None
        total = total + e.weight
    return total


def assert_witness(g, res):
    assert isinstance(res, NegativeCycle)
    total = cycle_total(g, list(res.vertices))
    assert total < ZERO and total == res.weight


def adjacency(n, edges):
    """(head, weight) rows per tail of (tail, head, weight) triples, in
    edge order."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
    return adj


def int_sssp(n, edges, s=0):
    """integer_sssp_arrays on (tail, head, int weight) triples."""
    return integer_sssp_arrays(n, adjacency(n, edges), s)


class TestIntegerSssp:
    def test_single_edge(self):
        dist, parent, cyc = int_sssp(2, [(0, 1, -3)])
        assert cyc is None and dist == [0, -3] and parent[1] == 0

    def test_two_cycle(self):
        edges = [(0, 1, -1), (1, 0, 0)]
        dist, parent, cyc = int_sssp(2, edges)
        assert dist is None and parent is None
        g = WeightedDigraph(2, [(u, v, R(w)) for u, v, w in edges])
        assert cycle_total(g, cyc) == R(-1)

    def test_against_naive_oracle(self):
        # Random graphs with negative arcs, some with a negative cycle
        # reachable from the source, against plain |V|-round relaxation.
        rng = np.random.default_rng(31)
        cycles = 0
        for trial in range(1000):
            n = int(rng.integers(2, 14))
            m = int(rng.integers(0, n * (n - 1) + 1))
            edges = []
            seen = set()
            while len(edges) < m:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v and (u, v) not in seen:
                    seen.add((u, v))
                    edges.append((u, v, int(rng.integers(-6, 20))))
            want, has_cycle = bf_oracle_int(n, edges, 0)
            dist, _, cyc = int_sssp(n, edges)
            if has_cycle:
                cycles += 1
                g = WeightedDigraph(n, [(u, v, R(w)) for u, v, w in edges])
                assert dist is None and cycle_total(g, cyc) < ZERO
            else:
                assert cyc is None and dist == want
        assert 100 < cycles < 900, cycles

    def test_long_path_listed_backwards(self):
        # Edges listed against path order: a pass-based Bellman-Ford needs
        # one pass per hop here.
        rng = np.random.default_rng(34)
        n = 300
        edges = [(v, v + 1, int(rng.integers(-3, 1))) for v in range(n - 1)]
        edges += [(v, v - 7, 22) for v in range(7, n, 13)]
        edges.reverse()
        want, has_cycle = bf_oracle_int(n, edges, 0)
        assert not has_cycle
        dist, parent, cyc = int_sssp(n, edges)
        assert cyc is None and dist == want
        weight = {(u, v): w for u, v, w in edges}
        for v in range(1, n):
            assert dist[v] == dist[parent[v]] + weight[(parent[v], v)]

    def test_planted_cycle_witnesses(self):
        rng = np.random.default_rng(35)
        for trial in range(200):
            n = int(rng.integers(4, 30))
            edges = {}
            for _ in range(3 * n):
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v:
                    edges[(u, v)] = int(rng.integers(0, 9))
            length = int(rng.integers(2, min(n, 7)))
            cycle = [int(x) for x in rng.permutation(n)[:length]]
            for i, u in enumerate(cycle):
                edges[(u, cycle[(i + 1) % length])] = int(rng.integers(-4, 3))
            edges[(cycle[-1], cycle[0])] = -sum(
                edges[(u, cycle[i + 1])] for i, u in enumerate(cycle[:-1])
            ) - int(rng.integers(1, 4))
            if cycle[0] != 0:
                edges.setdefault((0, cycle[0]), 0)
            triples = [(u, v, w) for (u, v), w in edges.items()]
            dist, _, cyc = int_sssp(n, triples)
            g = WeightedDigraph(n, [(u, v, R(w)) for u, v, w in triples])
            assert dist is None and cycle_total(g, cyc) < ZERO

    def test_weights_beyond_int64_scale_exactly(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            edges = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.4:
                        edges.append((u, v, int(rng.integers(-4, 12))))
            # the same weights times 2^63, beyond any machine word
            shift = 1 << 63
            big = [(u, v, w * shift) for u, v, w in edges]
            d1, _, c1 = int_sssp(n, edges)
            d2, _, c2 = int_sssp(n, big)
            assert (c1 is None) == (c2 is None)
            if c1 is None:
                for a, b in zip(d1, d2):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert b == a * shift

    def test_rejects_bad_source_and_ragged_arrays(self):
        adj = [[(1, 1)], [(2, 1)], []]
        for s in (-1, 3, 10):
            with pytest.raises(ValueError, match="out of range"):
                integer_sssp_arrays(3, adj, s)
        # An adjacency with a list per vertex missing or extra.
        for bad in (adj[:2], adj + [[]]):
            with pytest.raises(ValueError, match="lists"):
                integer_sssp_arrays(3, bad, 0)

    def test_rejects_out_of_range_heads(self):
        # A head past the last vertex would raise IndexError, and a head
        # of -1 would wrap onto the last vertex.
        for head in (3, -1):
            with pytest.raises(ValueError, match=f"head {head} out of range"):
                integer_sssp_arrays(3, [[(1, 1)], [(head, 1)], []], 0)


def _wide_denominator_graphs():
    rng = np.random.default_rng(36)
    out = []
    for seed in range(4):
        edges = []
        for e in gen_random(14, 40, seed).edges:
            d = int(rng.integers(2**60, 2**61 - 1))
            if e.tail < e.head:
                num = int(rng.integers(-d // 8, d))
            else:
                num = 3 * d + int(rng.integers(0, d // 2))
            edges.append((e.tail, e.head, R(num, d)))
        out.append(WeightedDigraph(14, edges))
    return out


def _cut_exponent(n, B=64):
    # The accuracy exponent cut_preprocess asks for at the default hop bound.
    return (2 * _hop_default(n) + 1) * B + max(1, math.ceil(math.log2(max(n, 2))))


class TestMatchesReferenceLoop:
    """The closed-form price against `reference_eps_feasible_price`, the
    k+2-round scaling loop it telescopes: bit-for-bit equal prices, the
    same outcome on cycles with an exactly negative witness, and k+2
    levels counted on both outcomes."""

    @staticmethod
    def check(g, k):
        got_stats, want_stats = {}, {}
        got = eps_feasible_price(g, k, collect=got_stats)
        want = reference_eps_feasible_price(g, k, collect=want_stats)
        scans = got_stats["price_scans"]
        assert got_stats == {"scaling_rounds": k + 2, "price_scans": scans}
        if isinstance(want, NegativeCycle):
            # The witness may be another negative cycle than the loop's.
            assert_witness(g, got)
        else:
            assert isinstance(got, list)
            # Every vertex, the super-source's n arcs included, is dequeued
            # at least once, and at most once in each of the at most n + 1
            # FIFO passes.
            assert g.m + g.n <= scans <= (g.n + 1) * (g.m + g.n)
            assert [(p.num, p.den) for p in got] == [(p.num, p.den) for p in want]
        return want_stats

    def test_backbone_graphs_whose_state_repeats(self):
        # neg-deep's shape at the exponent of its cut runs; the loop stops
        # at a repeated state and sums the repeated block in closed form.
        k = _cut_exponent(16)
        for seed in range(8):
            stats = self.check(backbone_graph(16, seed), k)
            assert stats["scaling_rounds"] == k + 2 > stats["scaling_rounds_solved"]

    @pytest.mark.parametrize("n", [16, 40])
    def test_never_repeating_medium_graphs(self, n):
        # No state of these medium-weight graphs repeats within the k+2
        # rounds, so the loop solves every round.
        k = _cut_exponent(n)
        for seed in range(2):
            g = gen_random(n, 3 * n, seed, "medium", "priced")
            stats = self.check(g, k)
            assert stats["scaling_rounds"] == stats["scaling_rounds_solved"] == k + 2

    def test_pruning_heavy_graphs(self):
        # Complete digraphs: most edges leave the loop's live range, while
        # the closed form keeps every edge.
        for n in range(6, 14):
            for weight_class in ("small", "medium"):
                self.check(gen_random(n, n * (n - 1), n, weight_class, "priced"), 60)

    def test_wide_denominators(self):
        # Denominators near 2^60, and T_31 numerators of about 91 bits.
        # On the second graph the loop's remainders never repeat within
        # the 32 rounds.
        solved = [self.check(g, 30)["scaling_rounds_solved"] for g in _wide_denominator_graphs()]
        assert solved[1] == 32

    def test_deep_exponent(self):
        # 582 levels on a backbone graph: the loop solves a prefix and one
        # period, the closed form one Bellman-Ford at scale 2^581.
        stats = self.check(backbone_graph(16, 6), 580)
        assert stats["scaling_rounds_solved"] < 100

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_low_exponents(self, k):
        # One to three levels, where T_0's integer part alone can decide.
        cases = [backbone_graph(16, 6), _wide_denominator_graphs()[0]]
        cases += [gen_random(n, 3 * n, seed, "small", "priced") for n in (5, 12, 30) for seed in range(4)]
        cases += [gen_random(12, 36, seed, "medium", "priced") for seed in range(4)]
        cases += [plant_negative_cycle(gen_random(12, 34, seed, "small", "priced"), seed)
                  for seed in range(10)]
        for g in cases:
            self.check(g, k)

    def test_planted_cycles(self):
        for seed in range(20):
            g = plant_negative_cycle(gen_random(12, 34, seed, "small", "priced"), seed)
            k = 20 if seed % 2 else _cut_exponent(12)
            stats = self.check(g, k)
            assert stats["scaling_rounds"] == stats["scaling_rounds_solved"] < k + 2


class TestAssemble:
    def test_examples(self):
        p = assemble_price([[3], [1]])
        assert p[0] == R(7, 2)
        p = assemble_price([[0], [0], [0]])
        assert p[0] == ZERO

    def test_long_columns_mixed_signs(self, rng):
        depth = 650
        cols = [[int(x) for x in rng.integers(-(1 << 40), 1 << 40, size=5)] for _ in range(depth)]
        cols[0] = [0, -1, 1, 0, 7]
        got = assemble_price(cols)
        for v in range(5):
            naive = ZERO
            for j in range(depth):
                naive = naive + R(cols[j][v], 1 << j)
            assert got[v] == naive

    def test_matches_naive(self, rng):
        for _ in range(300):
            depth = int(rng.integers(1, 12))
            col = [[int(rng.integers(-50, 51))] for _ in range(depth)]
            naive = ZERO
            for i, c in enumerate(col):
                naive = naive + R(c[0], 1 << i)
            assert assemble_price(col)[0] == naive

    def test_periodic_matches_expanded(self, rng):
        # Prefix plus one block, the block repeated out to `total` columns,
        # equals the explicitly expanded column sum.
        shapes = [(0, 3, 10), (4, 1, 9), (2, 3, 11), (3, 5, 8), (0, 1, 1)]
        for _ in range(200):
            first = int(rng.integers(0, 6))
            period = int(rng.integers(1, 7))
            shapes.append((first, period, first + period + int(rng.integers(0, 40))))
        for first, period, total in shapes:
            cols = [[int(x) for x in rng.integers(-9, 10, size=3)] for _ in range(first + period)]
            expanded = cols[:first] + [cols[first + (j - first) % period]
                                       for j in range(first, total)]
            got = assemble_price(cols, total, period)
            want = assemble_price(expanded)
            for v in range(3):
                naive = ZERO
                for j, col in enumerate(expanded):
                    naive = naive + R(col[v], 1 << j)
                assert got[v] == want[v] == naive

    def test_periodic_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            assemble_price([[1], [2]], 5, 3)
        with pytest.raises(ValueError):
            assemble_price([[1], [2]], 1, 1)

    def test_rejects_ragged_levels(self):
        # zip would silently truncate every price to the shortest level.
        for levels in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []]):
            with pytest.raises(ValueError, match="differ in length"):
                assemble_price(levels)
            with pytest.raises(ValueError, match="differ in length"):
                assemble_price(levels, len(levels) + 4, 1)

    def test_rejects_numpy_levels(self):
        # Summed without conversion, int64 entries would wrap past 2^63.
        cols = [np.array([3, 1], dtype=np.int64)] * 70
        with pytest.raises(ValueError, match="Python ints, got int64"):
            assemble_price(cols)
        with pytest.raises(ValueError, match="Python ints, got int64"):
            assemble_price([list(c) for c in cols])
        want = assemble_price([c.tolist() for c in cols])
        assert want[0] == sum((R(3, 1 << j) for j in range(70)), ZERO)


class TestEpsFeasiblePrice:
    def test_single_negative_edge(self):
        g = WeightedDigraph(2, [(0, 1, R(-1))])
        p = eps_feasible_price(g, 1)
        assert check_eps_feasible(g, p, R(1, 2))

    def test_nonneg_graph_any_k(self):
        for k in (0, 1, 5):
            g = gen_random(10, 25, 42)
            p = eps_feasible_price(g, k)
            assert check_eps_feasible(g, p, R(1, 1 << k))

    def test_negative_triangle(self):
        g = WeightedDigraph(3, [(0, 1, R(1, 2)), (1, 2, R(-1, 3)), (2, 0, R(-1, 3))])
        # at low accuracy a feasible price legitimately exists despite the
        # cycle; by k=4 the scaled cycle turns integer-negative
        res = eps_feasible_price(g, 4)
        assert isinstance(res, NegativeCycle)
        assert res.weight == R(-1, 6)
        low = eps_feasible_price(g, 1)
        if not isinstance(low, NegativeCycle):
            assert check_eps_feasible(g, low, R(1, 2))

    def test_denominator_divides_power(self):
        for k in (1, 4, 9):
            g = gen_random(12, 30, 7, negative_mode="priced")
            p = eps_feasible_price(g, k)
            for v in range(g.n):
                assert (1 << (k + 1)) % p[v].den == 0

    def test_value_magnitude_constant_measured(self):
        # |p*(v)| = O(n * W * 2^k); the hidden constant is measured, not
        # asserted (it stays tiny on these instances)
        worst = 0.0
        for seed in range(30):
            g = gen_random(16, 48, seed, "small", "priced")
            k = 6
            p = eps_feasible_price(g, k)
            w_max = max(max(abs(e.weight.num), e.weight.den) for e in g.edges)
            scale = g.n * w_max * (1 << k)
            for v in range(g.n):
                worst = max(worst, abs(p[v].num) / (p[v].den * scale))
        print(f"measured price magnitude constant: {worst:.4f}")
        assert worst < 64

    def test_pruning_safety_random_priced(self):
        # the pruned pipeline still produces a feasible price, and no
        # negative cycle is introduced or missed
        rng = np.random.default_rng(33)
        for trial in range(1000):
            n = int(rng.integers(3, 41))
            m = int(rng.integers(n, min(3 * n, n * (n - 1)) + 1))
            g = gen_random(n, m, int(rng.integers(0, 2**31)), "small", "priced")
            stats = {}
            p = eps_feasible_price(g, 4, collect=stats)
            assert not isinstance(p, NegativeCycle)
            assert check_eps_feasible(g, p, R(1, 16))
            assert not isinstance(bf_exact(g, 0), NegativeCycle)

    def test_planted_cycles_detected(self):
        for seed in range(100):
            g = plant_negative_cycle(
                gen_random(12, 34, seed, "small", "priced"), seed
            )
            assert_witness(g, eps_feasible_price(g, 20))

    def test_wide_denominators(self):
        # Denominators near 2^60: the round-weight updates carry binary
        # expansion remainders of that width.  Forward edges lose at most
        # 1/8 and backward edges cost over 3: no negative cycle.
        for g in _wide_denominator_graphs():
            p = eps_feasible_price(g, 30)
            assert check_eps_feasible(g, p, R(1, 1 << 30))

    def test_prices_pinned(self):
        # sha256 of prices and witnesses on a fixed set, pinned so that a
        # rewrite of the round loop keeps them identical: small priced
        # graphs with and without a planted cycle, graphs with a
        # zero-weight backbone listed against the path order (one
        # backbone hop per Bellman-Ford pass) at the accuracy the
        # negative pipeline asks for, and the wide-denominator graphs.
        cases = [(gen_random(n, 3 * n, seed, "small", "priced"), k)
                 for n, seed in ((5, 1), (12, 2), (30, 3)) for k in (0, 3, 20)]
        cases += [(plant_negative_cycle(gen_random(12, 34, seed, "small", "priced"), seed), 20)
                  for seed in (4, 5)]
        cases += [(backbone_graph(16, seed), k) for seed in (6, 7) for k in (4, 580)]
        cases += [(g, 30) for g in _wide_denominator_graphs()]
        lines = []
        for g, k in cases:
            res = eps_feasible_price(g, k)
            if isinstance(res, NegativeCycle):
                lines.append(f"cycle {list(res.vertices)} {res.weight}")
            else:
                lines.append(" ".join(f"{res[v].num}/{res[v].den}" for v in range(g.n)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "638b603e5d2934c45c1c7e1121aa06f9a4ba8182bd4445d3b967171ce27fac83"

    def test_collect_counters(self):
        g = gen_random(8, 20, 3, "small", "priced")
        stats = {}
        eps_feasible_price(g, 3, collect=stats)
        assert stats["scaling_rounds"] == 5

    def test_collect_counters_on_cycle(self):
        # A witness counts all k+2 levels too: one Bellman-Ford answers
        # for every level.
        g = plant_negative_cycle(gen_random(12, 34, 4, "small", "priced"), 4)
        stats = {}
        assert_witness(g, eps_feasible_price(g, 20, collect=stats))
        assert stats == {"scaling_rounds": 22, "price_scans": 164}

    @pytest.mark.parametrize("k", [2.5, "3", 3.0, True, -1])
    def test_rejects_bad_accuracy_exponent(self, k):
        g = gen_random(8, 20, 3, "small", "priced")
        with pytest.raises(ValueError, match="accuracy exponent must be a non-negative integer"):
            eps_feasible_price(g, k)

    def test_accepts_numpy_integer_accuracy_exponent(self):
        g = gen_random(8, 20, 3, "small", "priced")
        assert eps_feasible_price(g, np.int64(5)) == eps_feasible_price(g, 5)

    def test_rejects_long_weights(self):
        g = WeightedDigraph(2, [(0, 1, R(10**30, 7))])
        with pytest.raises(ValueError):
            eps_feasible_price(g, 1, budget=WordBudget(8))


class TestPriceReduction:
    """The price D / 2^(k+1) is reduced by the power of two dividing D;
    each value must be the canonical `BigRational(D, 2^(k+1))`."""

    @staticmethod
    def _prices(monkeypatch, ds, k):
        # An edgeless graph certifies any distances, so the Bellman-Ford
        # can be replaced by the D values under test.
        def fixed(n, adj, s):
            return list(ds) + [0], [-1] * n, None, n - 1

        monkeypatch.setattr(scaling, "_fifo_bellman_ford", fixed)
        return eps_feasible_price(WeightedDigraph(len(ds)), k)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 40])
    def test_values_are_canonical(self, monkeypatch, k):
        top = 1 << (k + 1)
        ds = [0, 1, -1, 3, -7, 2, -6, 12, top, -top, 3 * top, -5 * top, top // 2, 4 * top,
              (1 << 200) + 1, (1 << 200) * 9, -(3 << 150), 10**40]
        for d, p in zip(ds, self._prices(monkeypatch, ds, k)):
            want = R(d, top)
            assert (p.num, p.den) == (want.num, want.den), (d, k)

    def test_matches_gcd_reduction_on_priced_graphs(self, monkeypatch):
        # The real distances, captured from the Bellman-Ford the price is
        # built from, reduce to the same values a gcd gives.
        seen = []
        real = scaling._fifo_bellman_ford

        def capture(*args):
            out = real(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(scaling, "_fifo_bellman_ford", capture)
        for n, seed, k in ((5, 1, 0), (12, 2, 3), (30, 3, 20), (16, 4, 580)):
            g = gen_random(n, 3 * n, seed, "small", "priced")
            p = eps_feasible_price(g, k)
            want = [R(d, 1 << (k + 1)) for d in seen[-1][:n]]
            assert [(x.num, x.den) for x in p] == [(x.num, x.den) for x in want]


class TestCheck1Short:
    @pytest.mark.parametrize("B", [2, 8, 16, 64])
    def test_accepts_the_widest_1_short_values(self, B):
        top = (1 << (B - 1)) - 1
        g = WeightedDigraph(3, [(0, 1, R(top)), (1, 2, R(-top)), (2, 0, R(1, top)), (0, 2, R(-1, top))])
        _check_1_short(g, WordBudget(B))

    @pytest.mark.parametrize("B", [2, 8, 16, 64])
    def test_names_the_first_failing_edge(self, B):
        wide = 1 << (B - 1)
        bad = [R(wide), R(-wide), R(1, wide), R(-1, wide + 1)]
        for first in range(len(bad)):
            # A good edge first, then every bad weight from `first` on, in
            # a rotated order: the message names the first of them.
            order = bad[first:] + bad[:first]
            g = WeightedDigraph(6, [(0, 5, R(0))] + [(0, i + 1, w) for i, w in enumerate(order)])
            assert [e.weight for e in g.edges][1:] == order
            with pytest.raises(ValueError) as info:
                _check_1_short(g, WordBudget(B))
            assert str(info.value) == f"edge weight {order[0]} is not 1-short under B={B}"
        for w in bad:
            # Alone among short weights, each is found.
            g = WeightedDigraph(3, [(0, 1, R(1)), (1, 2, w), (2, 0, R(-1))])
            with pytest.raises(ValueError, match=f"edge weight {w} is not 1-short"):
                _check_1_short(g, WordBudget(B))

    def test_empty_graph_passes(self):
        _check_1_short(WeightedDigraph(4), WordBudget(2))

    def test_price_scans_again_only_past_the_bound(self, monkeypatch):
        # The price's edge pass ORs every |num| and den; the scan that
        # names the failing edge runs only when that OR is too wide, and
        # raises the same error as before.
        calls = []
        real = scaling._check_1_short

        def counted(g, budget):
            calls.append(g.m)
            return real(g, budget)

        monkeypatch.setattr(scaling, "_check_1_short", counted)
        top = (1 << 15) - 1
        g = WeightedDigraph(3, [(0, 1, R(top)), (1, 2, R(-top, top)), (2, 0, R(1, top))])
        assert not isinstance(eps_feasible_price(g, 2, WordBudget(16)), NegativeCycle)
        assert not isinstance(cut_preprocess(g, 1, WordBudget(16)), NegativeCycle)
        assert calls == []
        g.add_edge(0, 2, R(-1, top + 1))
        for build in (lambda: eps_feasible_price(g, 2, WordBudget(16)),
                      lambda: cut_preprocess(g, 1, WordBudget(16))):
            with pytest.raises(ValueError, match=r"^edge weight -1/32768 is not 1-short under B=16$"):
                build()
        assert calls == [4, 4]


class TestPriceEdgePass:
    def test_context_reads_arcs_and_grid_from_the_graph(self):
        # The price's one pass over the edges gives the numerators D
        # alone; the context reads its int adjacency, in out-edge order,
        # and its weight grid from the graph itself
        # (TestCutContextFromNumerators compares the contexts built from D
        # and from the rationals of `eps_feasible_price`).
        for seed in range(4):
            g = backbone_graph(16, seed) if seed % 2 else gen_random(20, 60, seed, "small", "priced")
            budget = WordBudget(64)
            res = scaling._price_numerators(g, 9, budget, None)
            assert res == [p.num * ((1 << 10) // p.den) for p in eps_feasible_price(g, 9, budget)]
            ctx = cut_preprocess(g, 1, budget)
            assert ctx.adj == [[(e.head, e.weight.num, e.weight.den) for e in g.out_edges(u)] for u in range(g.n)]
            assert ctx.grid_adj is not None
            assert ctx.mult == math.lcm(*{e.weight.den for e in g.edges})


class TestPriceScans:
    """`collect["price_scans"]`: the out-arcs of each vertex the price's
    Bellman-Ford dequeues, counted once per dequeue."""

    def test_nonnegative_graphs_scan_each_arc_once(self):
        # With every weight >= 0, every T is at least 1: the super-source's
        # unit edges are final, and each vertex is dequeued exactly once.
        for seed in range(4):
            g = gen_random(20, 60, seed)
            stats = {}
            eps_feasible_price(g, 5, collect=stats)
            assert stats["price_scans"] == g.m + g.n

    def test_backbone_graph_pinned(self):
        g = backbone_graph(16, 0)
        stats = {}
        assert not isinstance(cut_preprocess(g, 4, collect=stats), NegativeCycle)
        assert (g.m, stats["price_scans"]) == (59, 179)

    def test_price_runs_the_unchecked_loop(self, monkeypatch):
        # The price's heads come from a validated graph: it never calls the
        # checked entry, whose head pass walks every arc again.
        def refuse(*args):
            raise AssertionError("the price called integer_sssp_arrays")

        monkeypatch.setattr(scaling, "integer_sssp_arrays", refuse)
        for seed in range(3):
            g = backbone_graph(16, seed)
            assert isinstance(eps_feasible_price(g, 9), list)
            assert not isinstance(cut_preprocess(g, 4), NegativeCycle)


def _scaled(w, shift):
    """T_shift(w) = sgn(w) * floor(2^shift * |w|) + 1, from Fractions."""
    mag = math.floor(Fraction(abs(w.num) << shift, w.den))
    return (mag if w.num >= 0 else -mag) + 1


class TestPriceCertificate:
    """`_price_certified`, the int test that ends `eps_feasible_price`,
    against `check_eps_feasible` on the same price D / 2^(k+1)."""

    @staticmethod
    def agree(g, dist, k):
        shift = k + 1
        floors = [math.floor(Fraction(e.weight.num << shift, e.weight.den)) for e in g.edges]
        got = _price_certified(g, dist, floors)
        price = [R(d, 1 << shift) for d in dist]
        assert got is check_eps_feasible(g, price, R(1, 1 << k))
        return got

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_single_edge_boundary(self, k):
        # One edge 0->1: D = (0, d) is feasible iff d - 2 <= floor(2^(k+1) w).
        # The weights cover -2^-k itself (feasible exactly at D = 0), negative
        # multiples of 2^-(k+1) and negatives that are not.
        eps = R(1, 1 << k)
        for w in (-eps, R(-3, 1 << (k + 1)), R(-1, 3), R(-5, 7), R(-7, 1), ZERO, R(1, 3), R(2)):
            g = WeightedDigraph(2, [(0, 1, w)])
            floor = math.floor(Fraction(w.num << (k + 1), w.den))
            if w == -eps:
                assert self.agree(g, [0, 0], k)
                assert not self.agree(g, [0, 1], k)
            for d in range(floor - 1, floor + 6):
                assert self.agree(g, [0, d], k) is (d - 2 <= floor)

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_priced_graphs_perturbed_around_each_edge(self, k):
        # Move one endpoint of each edge to within +-2 of that edge's
        # bound, on prices from eps_feasible_price itself.
        shift = k + 1
        tight = {"nonneg": 0, "neg_multiple": 0, "neg_other": 0}
        graphs = [gen_random(12, 36, seed, "small", "priced") for seed in range(6)]
        graphs += [backbone_graph(10, seed) for seed in range(3)]
        for g in graphs:
            price = eps_feasible_price(g, k)
            dist = [p.num * ((1 << shift) // p.den) for p in price]
            assert self.agree(g, dist, k)
            for e in g.edges:
                w = e.weight
                floor = math.floor(Fraction(w.num << shift, w.den))
                for delta in (-2, -1, 0, 1, 2):
                    # e's head raised, or its tail lowered, to slack -delta
                    by_head = list(dist)
                    by_head[e.head] = dist[e.tail] + 2 + floor + delta
                    by_tail = list(dist)
                    by_tail[e.tail] = dist[e.head] - 2 - floor - delta
                    for moved in (by_head, by_tail):
                        ok = self.agree(g, moved, k)
                        assert not ok or delta <= 0
                    if delta == 0 and ok:
                        kind = "nonneg" if w.num >= 0 else (
                            "neg_multiple" if (w.num << shift) % w.den == 0 else "neg_other")
                        tight[kind] += 1
        assert all(tight.values()), tight

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_weight_loop_hands_over_floors(self, monkeypatch, k):
        # One divmod per edge gives both the Bellman-Ford weight T_{k+1}
        # and the floor the certificate reads, against Fractions, on
        # non-negative weights, negative multiples of 2^-(k+1) and other
        # negatives.
        import ratpath.scaling as scaling

        seen = {}
        real_sssp, real_cert = scaling._fifo_bellman_ford, scaling._price_certified

        def sssp(n, adj, s):
            seen["weights"] = [w for out in adj for _, w in out]
            return real_sssp(n, adj, s)

        def cert(g, dist, floors):
            seen["floors"] = list(floors)
            return real_cert(g, dist, floors)

        monkeypatch.setattr(scaling, "_fifo_bellman_ford", sssp)
        monkeypatch.setattr(scaling, "_price_certified", cert)
        shift = k + 1
        ws = [R(0), R(1, 3), R(2), R(-1, 1 << shift), R(-3, 1 << (shift + 1)), R(-1, 3), R(-5, 7),
              R(-7), R(5, 1 << shift)]
        g = WeightedDigraph(len(ws) + 1, [(i, i + 1, w) for i, w in enumerate(ws)])
        assert not isinstance(eps_feasible_price(g, k), NegativeCycle)
        assert seen["weights"][:len(ws)] == [_scaled(w, shift) for w in ws]
        assert seen["floors"] == [math.floor(Fraction(w.num << shift, w.den)) for w in ws]

    def test_eps_feasible_price_raises_on_a_failed_certificate(self, monkeypatch):
        import ratpath.scaling as scaling

        monkeypatch.setattr(scaling, "_price_certified", lambda *args: False)
        with pytest.raises(AssertionError, match="fails exact feasibility"):
            eps_feasible_price(WeightedDigraph(2, [(0, 1, R(-1))]), 1)


class TestCutContextFromNumerators:
    """`cut_preprocess` builds its context from the scaling numerators D
    at pden = 2^(E+1), with no price rational built: they are the values
    of `eps_feasible_price` over 2^(E+1).  A context built from those
    rationals put over the lcm of their denominators must give the same
    numerators and the same runs from every vertex."""

    @staticmethod
    def check(g, k, budget):
        got = cut_preprocess(g, k, budget)
        assert not isinstance(got, NegativeCycle)
        exponent = (2 * k + 1) * budget.B + max(1, math.ceil(math.log2(max(g.n, 2))))
        price = eps_feasible_price(g, exponent, budget)
        pden = 1 << (exponent + 1)
        assert got.pden == pden
        assert got.pnum == [p.num * (pden // p.den) for p in price]
        want = CutContext(g, k, budget, *over_lcm(price))
        assert want.pden == pden
        assert got.pnum == want.pnum
        assert got.adj == want.adj
        assert (got.shift, got.mult, got.hi, got.nlo) == (want.shift, want.mult, want.hi, want.nlo)
        for s in range(g.n):
            a, b = cut_dijkstra(got, s), cut_dijkstra(want, s)
            assert a.dist == b.dist and (a.ints, a.grid) == (b.ints, b.grid)
            assert a.parent == b.parent
            assert a.order == b.order
            assert a.processed == b.processed
            assert a.heap_inserts == b.heap_inserts

    @pytest.mark.parametrize("bits", [16, 64])
    def test_priced_graphs(self, bits):
        rng = np.random.default_rng(4501)
        for k in range(1, 6):
            for _ in range(2):
                n = int(rng.integers(5, 20))
                g = gen_random(n, 3 * n, int(rng.integers(0, 2**31)), "small", "priced")
                self.check(g, k, WordBudget(bits))

    def test_backbone_graphs(self):
        for seed in (6, 7):
            g = backbone_graph(16, seed)
            for k in (1, _hop_default(g.n)):
                self.check(g, k, WordBudget(64))

    def test_wide_denominator_graphs(self):
        for g in _wide_denominator_graphs():
            self.check(g, _hop_default(g.n), WordBudget(64))
