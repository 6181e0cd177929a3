import itertools

import numpy as np
import pytest

from ratpath import sssp as sssp_module
from ratpath.cfrac import Ordering
from ratpath.distcmp import PairwiseDeltaComparator
from ratpath.graph import WeightedDigraph, gen_random, gen_small_diff
from ratpath.inctree import GCD_BITS, IncTree, NotAnAncestorError
from ratpath.rational import BigRational, WordBudget, ZERO
from ratpath.sssp import dijkstra_nonneg
from conftest import (diamond_chain, entry_ordered_dijkstra, random_rational, reference_distcmp_streams,
                      root_distance)


def R(n, d=1):
    return BigRational(n, d)


def grow_random_tree(rng, n, max_level=3):
    tree = IncTree(max_level=max_level)
    for _ in range(n - 1):
        parent = int(rng.integers(0, len(tree)))
        level = int(rng.integers(0, max_level + 1))
        tree.insert_leaf(parent, random_rational(rng, 30, 12), level)
    return tree


class TestInsert:
    def test_depths(self):
        t = IncTree(max_level=2)
        a = t.insert_leaf(0, R(1, 2))
        assert t.depth[a] == 1
        b = t.insert_leaf(a, R(1, 3))
        c = t.insert_leaf(b, R(1, 5))
        assert (t.depth[a], t.depth[b], t.depth[c]) == (1, 2, 3)

    def test_unknown_parent(self):
        t = IncTree(max_level=0)
        with pytest.raises(KeyError):
            t.insert_leaf(5, R(1))

    def test_own_marked_ancestor(self):
        t = IncTree(max_level=3)
        v = t.insert_leaf(0, R(1), level=2)
        for i in (0, 1, 2):
            assert t.nearest_marked_ancestor(v, i) == v
        assert t.nearest_marked_ancestor(v, 3) == 0

    def test_strict_marked_ancestor_checks_level(self):
        t = IncTree(max_level=3)
        v = t.insert_leaf(0, R(1), level=2)
        assert t.nearest_strict_marked_ancestor(v, 3) == 0
        for level in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                t.nearest_strict_marked_ancestor(v, level)


class TestPathWeight:
    def test_examples(self):
        t = IncTree(max_level=0)
        a = t.insert_leaf(0, R(1, 2))
        b = t.insert_leaf(a, R(1, 3))
        assert t.path_weight(0, b) == R(5, 6)
        assert t.path_weight(b, b) == ZERO

    def test_siblings_error(self):
        t = IncTree(max_level=0)
        a = t.insert_leaf(0, R(1))
        b = t.insert_leaf(0, R(2))
        with pytest.raises(NotAnAncestorError):
            t.path_weight(a, b)

    def test_additivity_random_triples(self):
        rng = np.random.default_rng(21)
        t = grow_random_tree(rng, 300)
        hits = 0
        while hits < 10_000:
            c = int(rng.integers(0, len(t)))
            # walk up random amounts to get a <= b <= c chain
            b = c
            for _ in range(int(rng.integers(0, 6))):
                if b == 0:
                    break
                b = t.parent[b]
            a = b
            for _ in range(int(rng.integers(0, 6))):
                if a == 0:
                    break
                a = t.parent[a]
            assert t.path_weight(a, c) == t.path_weight(a, b) + t.path_weight(b, c)
            hits += 1

    @pytest.mark.parametrize("v", [-1, -3, 3])
    def test_node_out_of_range(self, v):
        # -1 must not name the last node, and an id past the end is a
        # ValueError, not an IndexError; on either side of the path.
        t = IncTree(max_level=0)
        t.insert_leaf(t.insert_leaf(0, R(1, 2)), R(1, 3))
        for args in ((0, v), (v, 2)):
            with pytest.raises(ValueError, match=rf"node {v} out of range 0\.\.2"):
                t.path_weight(*args)

    def test_against_naive_sum(self):
        rng = np.random.default_rng(22)
        t = grow_random_tree(rng, 150)
        for v in range(len(t)):
            acc = ZERO
            x = v
            while x != 0:
                acc = t.weight[x] + acc
                x = t.parent[x]
            assert t.path_weight(0, v) == acc


class TestPathPairs:
    def test_pair_is_path_weight_from_the_anchor(self):
        # Every level, queried in random order, so memoized chains meet
        # half-way.  Below max_level the anchor is the nearest ancestor of
        # level >= lvl, v included; at max_level, which non-root nodes
        # carry here too, it is the root.
        rng = np.random.default_rng(23)
        t = grow_random_tree(rng, 200)
        top = t.max_level
        assert top in t.level[1:]
        queries = [(lvl, v) for lvl in range(top + 1) for v in range(len(t))]
        for k in rng.permutation(len(queries)).tolist():
            lvl, v = queries[k]
            anchor = 0 if lvl == top else t.nearest_marked_ancestor(v, lvl)
            num, den = t.pair(lvl, v)
            assert R(num, den) == t.path_weight(anchor, v)

    def test_den_bits_sum_the_root_path(self):
        rng = np.random.default_rng(24)
        t = grow_random_tree(rng, 200)
        for v in rng.permutation(len(t)).tolist():
            bits, x = 0, v
            while x != 0:
                bits += t.weight[x].den.bit_length()
                x = t.parent[x]
            assert t.den_bits[v] == bits
            assert t.path_weight(0, v).den <= t.pair(t.max_level, v)[1] <= 1 << bits

    def test_exact_sign_matches_path_weights(self):
        rng = np.random.default_rng(25)
        t = grow_random_tree(rng, 150)
        for _ in range(2000):
            u, v = (int(x) for x in rng.integers(0, len(t), size=2))
            diff = t.path_weight(0, u) - t.path_weight(0, v)
            for beta in (diff, diff + R(1, 1 << 40), diff - R(1, 7), random_rational(rng, 30, 12)):
                assert t.exact_sign(u, v, beta) == diff._cmp(beta)


class TestNearestMarked:
    def test_root_is_everybody_fallback(self):
        t = IncTree(max_level=2)
        chain = [0]
        for _ in range(5):
            chain.append(t.insert_leaf(chain[-1], R(1), level=0))
        for v in chain:
            assert t.nearest_marked_ancestor(v, 1) == 0
            assert t.nearest_marked_ancestor(v, 2) == 0

    def test_marked_node_is_its_own(self):
        t = IncTree(max_level=2)
        v = t.insert_leaf(0, R(1), level=1)
        assert t.nearest_marked_ancestor(v, 1) == v

    def test_table_matches_walk_recompute(self):
        rng = np.random.default_rng(23)
        t = IncTree(max_level=3)
        for _ in range(199):
            parent = int(rng.integers(0, len(t)))
            level = int(rng.integers(0, 4))
            t.insert_leaf(parent, R(1), level)
            # full recomputation by walking every root path
            for v in range(len(t)):
                for i in range(4):
                    x = v
                    while t.level[x] < i:
                        x = t.parent[x]
                    assert t.nearest_marked_ancestor(v, i) == x

    def test_level_out_of_range(self):
        t = IncTree(max_level=1)
        with pytest.raises(ValueError):
            t.nearest_marked_ancestor(0, 2)

    @pytest.mark.parametrize("v", [-1, -3, 3])
    def test_node_out_of_range(self, v):
        # A negative id must not name a node counted from the end, and an
        # id past the end is a ValueError, not an IndexError.
        t = IncTree(max_level=1)
        t.insert_leaf(t.insert_leaf(0, R(1), level=1), R(1), level=0)
        for query in (t.nearest_marked_ancestor, t.nearest_strict_marked_ancestor):
            with pytest.raises(ValueError, match=rf"node {v} out of range 0\.\.2"):
                query(v, 0)


def walked_ancestor(t, v, level):
    """Nearest ancestor of v (inclusive) with level >= `level`, by walking
    the parent links."""
    while t.level[v] < level:
        v = t.parent[v]
    return v


class TestLazyAncestorArrays:
    # Each level's ancestor array is extended over new nodes on its first
    # read after an insertion; insertion itself builds none.

    def test_insert_builds_no_array(self):
        t = IncTree(max_level=3)
        for level in (0, 3, 1, 2):
            t.insert_leaf(len(t) - 1, R(1), level)
        assert [len(a) for a in t._anc] == [1, 1, 1, 1]
        assert t.nearest_marked_ancestor(4, 3) == 2
        assert [len(a) for a in t._anc] == [1, 1, 1, 5]

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_reads_match_walks(self, seed):
        rng = np.random.default_rng([seed, 41])
        t = IncTree(max_level=3)
        for _ in range(150):
            for _ in range(int(rng.integers(0, 4))):
                parent = int(rng.integers(0, len(t)))
                t.insert_leaf(parent, R(1), int(rng.integers(0, 4)))
            level = int(rng.integers(0, 4))
            v = int(rng.integers(0, len(t)))
            assert t.nearest_marked_ancestor(v, level) == walked_ancestor(t, v, level)
            if v:
                want = walked_ancestor(t, t.parent[v], level)
                assert t.nearest_strict_marked_ancestor(v, level) == want
        for level in range(4):
            for v in range(len(t)):
                assert t.nearest_marked_ancestor(v, level) == walked_ancestor(t, v, level)

    def test_pairwise_level_1_reads_after_later_inserts(self):
        rng = np.random.default_rng(7)
        pool = [R(1, 2), R(1, 3), R(2, 5), R(0), R(3, 7)]
        pdc = PairwiseDeltaComparator(120, 4, WordBudget(16), seed=2)
        tree = pdc.tree
        nodes = [0]
        for _ in range(40):
            for _ in range(int(rng.integers(1, 4))):
                if len(tree) == 120:
                    break
                parent = nodes[int(rng.integers(0, len(nodes)))]
                nodes.append(pdc.insert_leaf(parent, pool[int(rng.integers(0, len(pool)))]))
            for _ in range(3):
                u, v = (nodes[int(j)] for j in rng.integers(0, len(nodes), size=2))
                beta = R(int(rng.integers(-4, 5)), int(rng.integers(1, 6)))
                diff = root_distance(tree, u) - root_distance(tree, v)
                assert pdc.compare(u, v, beta) is Ordering.of(diff._cmp(beta))
            v = nodes[-1]
            assert tree.nearest_marked_ancestor(v, 1) == walked_ancestor(tree, v, 1)
        assert len(tree._anc[1]) == len(tree)
        assert pdc.counters()["pairs_computed"] > 0

    def _solve_capturing(self, monkeypatch, g, solver=dijkstra_nonneg, **kwargs):
        made = []
        real = sssp_module._STRATEGIES["distcmp"]

        def capture(*args):
            strat = real(*args)
            made.append(strat.comparator)
            return strat

        monkeypatch.setitem(sssp_module._STRATEGIES, "distcmp", capture)
        solver(g, 0, strategy="distcmp", seed=1, **kwargs)
        return made[0]

    # The gate-open solves run twice: through the solver, whose top words
    # leave `DistCmp.compare` few or no queries, and through
    # `entry_ordered_dijkstra`, which puts every heap comparison and
    # relaxation test to it.
    _SOLVERS = (dijkstra_nonneg, entry_ordered_dijkstra)

    def test_gate_open_solve_builds_no_array(self, monkeypatch):
        third = R(1, 3)
        ties = WeightedDigraph(40, [(e.tail, e.head, third) for e in gen_random(40, 160, 3).edges],
                               source=0)
        gadget, _ = gen_small_diff(400, chain=20, window=3)
        for g, solver in itertools.product((ties, gadget, gen_random(60, 240, 5)), self._SOLVERS):
            dc = self._solve_capturing(monkeypatch, g, solver)
            counters = dc.counters()
            queries = counters["level_queries"][0]
            assert queries > 0 or solver is dijkstra_nonneg
            assert counters["difficult_answers"] == [0] * (dc.config.t + 1)
            answered = sum(counters[k][0] for k in ("trivial_answers", "shortcut_answers",
                                                    "tie_answers"))
            assert answered == queries  # every query took the shortcut or was trivial
            assert len(dc.tree) > g.n // 2
            assert [len(a) for a in dc.tree._anc] == [1] * (dc.config.t + 1)
            # Nor are the slot levels drawn: every node keeps level 0.
            assert dc._slot_level is None
            assert dc.tree.level == [dc.config.t] + [0] * (len(dc.tree) - 1)

    def test_gate_open_solve_memoizes_only_the_root(self, monkeypatch):
        # Gate-open heap keys and relaxation tests decide on the keys' own
        # pairs, built from the settled parent's: no query reads a root
        # pair from the tree, and no key is written into its memo.
        third = R(1, 3)
        ties = WeightedDigraph(40, [(e.tail, e.head, third) for e in gen_random(40, 160, 3).edges],
                               source=0)
        gadget, _ = gen_small_diff(400, chain=20, window=3)
        deep, _ = gen_small_diff(4096, chain=150, window=3)  # pairs past GCD_BITS
        for g, solver in itertools.product((ties, gadget, deep, gen_random(60, 240, 5)),
                                           self._SOLVERS):
            dc = self._solve_capturing(monkeypatch, g, solver)
            assert dc.counters()["shortcut_answers"][0] > 0 or solver is dijkstra_nonneg
            assert dc.tree._pairs == [{0: (0, 1)}] * (dc.config.t + 1)
            if g is deep:
                assert max(dc.tree.den_bits) > GCD_BITS

    def test_gate_closed_solve_builds_arrays(self, monkeypatch):
        # The contrast: where the gate closes, the fixed point reads them.
        dc = self._solve_capturing(monkeypatch, diamond_chain(170), budget=WordBudget(16),
                                   constants={"C": 0.5, "lam": 1.0})
        assert dc.counters()["difficult_answers"][0] > 0
        assert len(dc.tree._anc[0]) > len(dc.tree) // 2
        # The levels were drawn mid-solve, from the seed's level stream.
        assert dc.tree.level == reference_distcmp_streams(1, dc.config)[0][:len(dc.tree)]
