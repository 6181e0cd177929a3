import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratpath.graph import (
    Edge,
    NegativeCycle,
    SsspResult,
    WeightedDigraph,
    augment_source,
    aux_weight,
    bf_exact,
    check_eps_feasible,
    cycle_weight,
    gen_random,
    gen_small_diff,
    _anchored_paths,
    _closest_subset_sums,
    _primes_below,
    parse,
    parse_tree,
    plant_negative_cycle,
    serialize,
    serialize_tree,
    verify_sssp,
)
from ratpath import graph as graph_module
from ratpath.rational import BigRational, WordBudget, ZERO
from ratpath.sssp import dijkstra_nonneg, negative_sssp

from conftest import (
    backbone_graph,
    bf_route,
    bf_tree,
    prime_bound_for,
    reduced_weight,
    reference_parse,
    reference_parse_tree,
    reference_tree_order,
    reference_verify,
    textbook_bf,
)


def R(n, d=1):
    return BigRational(n, d)


class TestParseSerialize:
    def test_single_edge(self):
        g = parse("p 2 1\ne 0 1 1/2")
        assert g.n == 2 and g.m == 1
        assert g.edges[0].weight == R(1, 2)

    def test_round_trip_canonical(self):
        text = "# comment\np 3 2\ns 1\ne 2 0 4/6\ne 0 2 -3/1\n"
        canonical = serialize(parse(text))
        assert canonical == "p 3 2\ns 1\ne 0 2 -3/1\ne 2 0 2/3\n"
        assert serialize(parse(canonical)) == canonical

    @pytest.mark.parametrize("make", [
        lambda: gen_random(12, 40, 7, "small"),
        lambda: gen_random(12, 40, 7, "big", "priced"),
        lambda: gen_random(1, 0, 3),
        lambda: gen_small_diff(20, chain=3, window=2)[0],
        lambda: plant_negative_cycle(gen_random(10, 30, 2, "small", "priced"), 2),
    ], ids=["random", "priced-big", "one-vertex", "smalldiff-chain", "planted-cycle"])
    def test_generator_outputs_round_trip(self, make):
        g = make()
        text = serialize(g)
        back = parse(text)
        assert (back.n, back.m, back.source) == (g.n, g.m, g.source)
        assert serialize(back) == text

    def test_source_out_of_range_rejected(self):
        # gen_random(0, 0, s) used to build a graph with source 0 and no
        # vertices, whose text `parse` then refused
        with pytest.raises(ValueError, match="source 0 out of range"):
            gen_random(0, 0, 5)
        for source in (-1, 3):
            with pytest.raises(ValueError, match=f"source {source} out of range"):
                WeightedDigraph(3, source=source)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse("p 2 1\ne 0 1 1/0")
        with pytest.raises(ValueError):
            parse("p 2 1\ne 0 5 1/2")
        with pytest.raises(ValueError):
            parse("e 0 1 1/2")
        with pytest.raises(ValueError):
            parse("p 2 2\ne 0 1 1/2")

    @pytest.mark.parametrize("text, message", [
        ("p 3 1\ne 0 5 1/2", r"line 2: edge \(0,5\) out of vertex range \[0,3\)"),
        ("e 4 0 1/2\np 3 1", r"line 1: edge \(4,0\) out of vertex range \[0,3\)"),
        ("p 3 2\ne 0 1 1/2\n# note\ne -1 2 1\n", r"line 4: edge \(-1,2\) out of"),
        ("p 3 0\ns 3", r"line 2: source 3 out of range"),
        ("s -1\np 3 0", r"line 1: source -1 out of range"),
        ("p -1 0", r"line 1: vertex count must be non-negative"),
        ("\np -2 1\ne 0 0 1", r"line 2: vertex count must be non-negative"),
    ], ids=["edge-after-header", "edge-before-header", "edge-after-comment", "source-n",
            "source-before-header", "negative-count", "negative-count-with-edge"])
    def test_range_errors_name_their_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse(text)

    def test_parallel_edges_keep_minimum(self):
        g = WeightedDigraph(2)
        g.add_edge(0, 1, R(3))
        g.add_edge(0, 1, R(1, 2))
        g.add_edge(0, 1, R(5))
        assert g.m == 1 and g.edges[0].weight == R(1, 2)

    def test_out_edges_track_lowered_parallel_edge(self):
        g = WeightedDigraph(3)
        g.add_edge(0, 1, R(3))
        g.add_edge(0, 2, R(4))
        g.add_edge(0, 1, R(1, 2), aux=True)
        assert [(e.head, e.weight, e.aux) for e in g.out_edges(0)] == [
            (1, R(1, 2), True),
            (2, R(4), False),
        ]

    def test_copy_out_edges_independent(self):
        g = WeightedDigraph(2)
        g.add_edge(0, 1, R(3))
        h = g.copy()
        h.add_edge(0, 1, R(-1), aux=True)
        assert [(e.weight, e.aux) for e in h.out_edges(0)] == [(R(-1), True)]
        assert [(e.weight, e.aux) for e in g.out_edges(0)] == [(R(3), False)]

    def test_tree_round_trip(self):
        res = SsspResult(3, 0, {1: (0, R(1, 2), False), 2: (1, R(-1, 3), True)})
        text = serialize_tree(res)
        back = parse_tree(text)
        assert back.parent == res.parent and back.source == 0

    @pytest.mark.parametrize("text", [
        "t 2 2\n",
        "t 2 -1\n",
        "t 2 0\na 2 0 1/1\n",
        "t 2 0\na 1 -1 1/1\n",
        "a 1 0 1/1\nt 2 0\n",  # no range to check before the header
    ], ids=["source-n", "source-minus-1", "vertex-n", "parent-minus-1", "edge-before-header"])
    def test_parse_tree_rejects_out_of_range_ids(self, text):
        with pytest.raises(ValueError, match="line"):
            parse_tree(text)

    def test_reachable_follows_aux_edges(self):
        res = SsspResult(4, 0, {1: (0, R(1, 2), False), 2: (1, R(-1, 3), True), 3: (2, R(1), False)})
        assert [d is not None for d in res.distances()] == [True, True, False, False]

    def test_parent_cycle_rejected_not_walked(self):
        # 1 and 2 are each other's parent: no tree, and distances() must
        # raise instead of walking the cycle forever
        res = SsspResult(3, 0, {1: (2, R(1), False), 2: (1, R(1), False)})
        assert res.tree_order() is None
        with pytest.raises(ValueError):
            res.distances()

    @pytest.mark.parametrize("source, parent", [
        (0, {1: (-1, R(1), False)}),
        (0, {1: (3, R(1), False)}),
        (0, {-1: (0, R(1), False)}),
        (0, {3: (0, R(1), False)}),
        (3, {1: (0, R(1), False)}),
    ], ids=["parent-negative", "parent-past-n", "vertex-negative", "vertex-past-n", "source-past-n"])
    def test_distances_rejects_out_of_range_ids(self, source, parent):
        # tree_order indexes a per-vertex list; distances() checks the ids
        # first, so a negative id cannot wrap around to vertex n - 1.
        with pytest.raises(ValueError, match="parent links"):
            SsspResult(3, source, parent).distances()

    def test_tree_order_matches_reference_on_random_trees(self):
        # Random trees over part of the vertices, their parent links in
        # settle order and shuffled: the same order as the set-based walk,
        # each vertex after its parent.
        rng = np.random.default_rng(48)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            s = int(rng.integers(n))
            perm = [s] + [int(v) for v in rng.permutation(n) if v != s]
            size = int(rng.integers(1, n + 1))
            links = [(perm[i], (perm[int(rng.integers(i))], R(1), bool(rng.integers(2))))
                     for i in range(1, size)]
            shuffled = [links[int(i)] for i in rng.permutation(len(links))]
            for parent in (dict(links), dict(shuffled)):
                res = SsspResult(n, s, parent)
                order = res.tree_order()
                assert order == reference_tree_order(res)
                assert sorted(order) == sorted(parent)
                seen = {s}
                for v in order:
                    assert parent[v][0] in seen
                    seen.add(v)

    @pytest.mark.parametrize("parent", [
        {0: (1, R(1), False), 1: (0, R(1), False)},
        {1: (0, R(1), False), 2: (3, R(1), False), 3: (4, R(1), False), 4: (2, R(1), False)},
        {3: (2, R(1), False), 2: (3, R(1), False), 1: (0, R(1), False)},
        {1: (0, R(1), False), 3: (2, R(1), False)},
        {3: (2, R(1), False), 2: (4, R(1), True), 1: (0, R(1), False)},
    ], ids=["source-has-parent", "cycle-off-source", "cycle-listed-first", "parent-outside",
            "grandparent-outside"])
    def test_tree_order_none_cases_match_reference(self, parent):
        res = SsspResult(5, 0, parent)
        assert res.tree_order() is None
        assert reference_tree_order(res) is None

    def test_tree_order_none_on_random_defects(self):
        # A random tree with one vertex moved under its own descendant (a
        # cycle off the source) or under a vertex with no parent entry.
        rng = np.random.default_rng(49)
        for _ in range(300):
            n = int(rng.integers(3, 30))
            perm = [0] + [int(v) for v in rng.permutation(range(1, n))]
            size = int(rng.integers(2, n))
            parent = {perm[i]: (perm[int(rng.integers(i))], R(1), False) for i in range(1, size)}
            v = perm[int(rng.integers(1, size))]
            below = [x for x in parent if x != v and v in _ancestors(parent, x)]
            if below and rng.integers(2):
                parent[v] = (below[int(rng.integers(len(below)))], R(1), False)
            else:
                outside = [x for x in range(1, n) if x not in parent]
                if not outside:
                    continue
                parent[v] = (outside[int(rng.integers(len(outside)))], R(1), False)
            res = SsspResult(n, 0, parent)
            assert res.tree_order() is None
            assert reference_tree_order(res) is None


def _ancestors(parent, v):
    """The ancestors of v under `parent`, a tree's links."""
    out = []
    while v in parent:
        v = parent[v][0]
        out.append(v)
    return out


def _parse_outcome(parse_text, text):
    """The message of the ValueError `parse_text` raises, or the graph as
    (n, source, edges in insertion order)."""
    try:
        g = parse_text(text)
    except ValueError as exc:
        return str(exc)
    return g.n, g.source, [(e.tail, e.head, e.weight.num, e.weight.den, e.aux) for e in g.edges]


def _tree_outcome(parse_text, text):
    try:
        t = parse_text(text)
    except ValueError as exc:
        return str(exc)
    return t.n, t.source, sorted((v, u, w.num, w.den, aux) for v, (u, w, aux) in t.parent.items())


_WEIGHT = st.sampled_from(["1/2", "2/4", "1/3", "-1/3", "0", "-0", "7"])
# Mostly in range of a count drawn from _COUNT; -1 and 4 are out of it.
_ID = st.sampled_from([0, 0, 1, 1, 2, 2, 3, -1, 4])
_COUNT = st.sampled_from([4, 4, 3, 2, 0, -1])
_NOISE = st.sampled_from([
    "", "# note", "e 0 1", "e 0 1 1/0", "e 0 x 1", "e 0 1 1/-2", "p 2", "s", "q 1", "p 2 1 1",
    "e 0 1 1/2 # note", "a 1 0 1/2", "t 2 0 0", "a 1 0 1/2 aux x",
])


def _insert(draw, lines, line):
    lines.insert(draw(st.integers(0, len(lines))), line)


def _add_noise(draw, lines):
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        _insert(draw, lines, draw(_NOISE))


@st.composite
def _instance_text(draw):
    """Instance text that is often well formed: a header declaring the edge
    count or one more, ids that may fall out of range, an optional source
    line, and a few noise lines, all in any order."""
    edges = draw(st.lists(st.tuples(_ID, _ID, _WEIGHT), max_size=6))
    lines = [f"e {u} {v} {w}" for u, v, w in edges]
    m = len(edges) + draw(st.sampled_from([0, 0, 0, 1]))
    _insert(draw, lines, f"p {draw(_COUNT)} {m}")
    if draw(st.booleans()):
        _insert(draw, lines, f"s {draw(_ID)}")
    _add_noise(draw, lines)
    return "\n".join(lines)


@st.composite
def _tree_text(draw):
    """Tree text that is often well formed, the header mostly first."""
    entries = draw(st.lists(st.tuples(_ID, _ID, _WEIGHT, st.booleans()), max_size=5))
    lines = [f"a {v} {u} {w}{' aux' if aux else ''}" for v, u, w, aux in entries]
    header = f"t {draw(_COUNT)} {draw(_ID)}"
    if draw(st.sampled_from([True, True, True, False])):
        lines.insert(0, header)
    else:
        _insert(draw, lines, header)
    _add_noise(draw, lines)
    return "\n".join(lines)


class TestParseAgainstReference:
    """`parse` and `parse_tree` accept the texts the earlier readers
    accepted, with the same graphs and trees, and reject the others with
    the same message; `parse` adds the line to the range errors that the
    graph constructor raises."""

    @staticmethod
    def _check_instance(text):
        got, want = _parse_outcome(parse, text), _parse_outcome(reference_parse, text)
        if isinstance(want, str) and not want.startswith("line "):
            assert got == want or re.fullmatch(r"line \d+: " + re.escape(want), got), (got, want)
        else:
            assert got == want

    @pytest.mark.parametrize("text", [
        "p 3 3\ns 1\ne 0 1 1/3\ne 1 2 1/3\ne 0 1 2/6\n",
        "e 0 1 1/2\ns 0\np 2 1",
        "p 2 1\ne 0 1 1/2\np 2 1",
        "p 2 2\ne 0 5 1/2\nq",
        "p 2 2\ne 0 5 1/2",
        "p -1 1\ne 0 5 1/2\ns 9",
        "p 2 1\ns 9\ne 0 5 1/2",
        "p 2 1\ne 0 1 1/0",
        "p 2 1\ne 0 1 ١/٣",
        "",
    ])
    def test_instance_corpus(self, text):
        self._check_instance(text)

    @given(_instance_text())
    @settings(max_examples=400, deadline=None)
    def test_random_instance_text(self, text):
        self._check_instance(text)

    @given(_tree_text())
    @settings(max_examples=300, deadline=None)
    def test_random_tree_text(self, text):
        assert _tree_outcome(parse_tree, text) == _tree_outcome(reference_parse_tree, text)


def _distinct_weights(g: WeightedDigraph) -> WeightedDigraph:
    """g with a fresh BigRational per edge."""
    return WeightedDigraph(g.n, [(e.tail, e.head, R(e.weight.num, e.weight.den)) for e in g.edges],
                           source=g.source)


def _ties_graph(seed: int) -> WeightedDigraph:
    third = R(1, 3)
    return WeightedDigraph(24, [(e.tail, e.head, third) for e in gen_random(24, 96, seed).edges])


class TestWeightSharing:
    """Equal weight tokens in one text parse to one shared BigRational."""

    def test_equal_tokens_share_one_value(self):
        g = parse("p 4 4\ne 0 1 1/3\ne 1 2 1/3\ne 2 3 2/6\ne 0 3 -0\n")
        w = [e.weight for e in g.edges]
        assert w[0] is w[1] and w[2] == w[0]
        t = parse_tree("t 3 0\na 1 0 1/3\na 2 1 1/3 aux\n")
        assert t.parent[1][1] is t.parent[2][1]

    def test_separate_calls_share_nothing(self):
        text = serialize(_ties_graph(1))
        a, b = parse(text), parse(text)
        assert len({id(e.weight) for e in a.edges}) == 1
        assert not {id(e.weight) for e in a.edges} & {id(e.weight) for e in b.edges}
        tree = serialize_tree(dijkstra_nonneg(a, 0, strategy="exact_oracle"))
        ta, tb = parse_tree(tree), parse_tree(tree)
        assert not {id(w) for _, w, _ in ta.parent.values()} & {id(w) for _, w, _ in tb.parent.values()}

    def test_parallel_edge_minimum(self):
        # lowering one edge leaves the edges that share its old weight alone
        g = parse("p 3 4\ne 0 1 1/2\ne 1 2 1/2\ne 0 1 1/3\ne 0 1 1/2\n")
        assert [(e.tail, e.head, e.weight) for e in g.edges] == [(0, 1, R(1, 3)), (1, 2, R(1, 2))]

    def test_copy(self):
        g = parse("p 3 2\ne 0 1 1/2\ne 1 2 1/2\n")
        h = g.copy()
        h.add_edge(0, 1, R(-1), aux=True)
        assert [(e.weight, e.aux) for e in g.edges] == [(R(1, 2), False), (R(1, 2), False)]
        assert [(e.weight, e.aux) for e in h.edges] == [(R(-1), True), (R(1, 2), False)]
        assert h.edges[1].weight is g.edges[1].weight

    @pytest.mark.parametrize("make, strategies", [
        (lambda: _ties_graph(3), ("distcmp", "exact_oracle", "pairwise_delta", "negative_sssp")),
        (lambda: gen_small_diff(prime_bound_for(30), chain=10, window=3)[0],
         ("distcmp", "exact_oracle", "pairwise_delta", "negative_sssp")),
        (lambda: backbone_graph(16, 2), ("negative_sssp",)),
    ], ids=["ties", "gadget", "priced"])
    def test_trees_do_not_depend_on_sharing(self, make, strategies):
        g = parse(serialize(make()))
        assert len({id(e.weight) for e in g.edges}) < g.m  # some weight is shared
        h = _distinct_weights(g)
        assert len({id(e.weight) for e in h.edges}) == h.m
        for strategy in strategies:
            if strategy == "negative_sssp":
                a, b = negative_sssp(g, 0, seed=4), negative_sssp(h, 0, seed=4)
            else:
                a = dijkstra_nonneg(g, 0, strategy=strategy, seed=4)
                b = dijkstra_nonneg(h, 0, strategy=strategy, seed=4)
            assert serialize_tree(a) == serialize_tree(b), strategy


class TestAugment:
    def test_isolated_pair(self):
        g = WeightedDigraph(2, source=0)
        ga = augment_source(g, 0)
        assert ga.m == 1 and ga.edges[0].aux

    def test_complete_star_unchanged(self):
        g = WeightedDigraph(3, [(0, 1, R(1)), (0, 2, R(2))])
        ga = augment_source(g, 0)
        assert ga.m == g.m

    def test_aux_weight_formula(self):
        # n * max(1, max w) on non-negative graphs, 2n * max(1, max |w|)
        # once a weight is negative, checked in Fraction arithmetic.
        graphs = [WeightedDigraph(3), WeightedDigraph(2, [(0, 1, R(1, 3))])]
        for seed in range(30):
            for weights in ("small", "medium"):
                for mode in ("none", "priced"):
                    graphs.append(gen_random(12, 30, seed, weights, mode))
        for g in graphs:
            ws = [Fraction(e.weight.num, e.weight.den) for e in g.edges]
            factor = 2 if any(w < 0 for w in ws) else 1
            want = factor * g.n * max([Fraction(1)] + [abs(w) for w in ws])
            got = aux_weight(g)
            assert (got.num, got.den) == (want.numerator, want.denominator)

    def test_preserves_distances_nonneg(self):
        for seed in range(25):
            g = gen_random(14, 30, seed)
            ga = augment_source(g, 0)
            before = bf_exact(g, 0).dist
            after = bf_exact(ga, 0).dist
            for v in range(g.n):
                if before[v] is not None:
                    assert after[v] == before[v]

    def test_preserves_distances_priced(self):
        for seed in range(25):
            g = gen_random(14, 30, seed, negative_mode="priced")
            ga = augment_source(g, 0)
            before = bf_exact(g, 0).dist
            after = bf_exact(ga, 0).dist
            for v in range(g.n):
                if before[v] is not None:
                    assert after[v] == before[v]


class TestPrices:
    def test_reduced_weight(self):
        g = WeightedDigraph(2, [(0, 1, R(-1))])
        p = [ZERO, R(-1)]
        assert reduced_weight(g, p, g.edges[0]) == ZERO

    def test_identity_price(self):
        g = gen_random(8, 20, 3)
        p = [ZERO] * 8
        for e in g.edges:
            assert reduced_weight(g, p, e) == e.weight
        assert check_eps_feasible(g, p, ZERO)

    def test_eps_feasible_matches_reduced_weights(self):
        # The integer check against the rational definition, on random
        # prices (small, power-of-two and ~580-bit denominators) and eps,
        # with eps set to exactly -min(reduced weight), or to just below
        # it, in a third of the cases so the boundary is hit.
        def by_definition(g, p, eps):
            return all(reduced_weight(g, p, e) >= -eps for e in g.edges)

        rng = np.random.default_rng(5)
        seen = set()
        for trial in range(150):
            n = 2 + trial % 9
            g = gen_random(n, min(3 * n, n * (n - 1)), trial, "small", "priced" if trial % 2 else "none")
            den_bits = (4, 64, 580)[trial % 3]
            p = []
            for _ in range(n):
                den = int(rng.integers(1, 1 << 30)) << int(rng.integers(0, den_bits))
                if trial % 4 == 0:
                    den = 1 << int(rng.integers(0, den_bits))
                p.append(R(int(rng.integers(-(1 << 30), 1 << 30)) * (den >> 20 or 1), den))
            if trial % 3 == 0 and g.edges:
                eps = -min(reduced_weight(g, p, e) for e in g.edges)
                if trial % 2:
                    eps -= R(1, 1 << 700)  # the least reduced weight just below -eps
            else:
                eps = R(int(rng.integers(0, 1 << 20)), 1 << int(rng.integers(0, 40)))
            want = by_definition(g, p, eps)
            assert check_eps_feasible(g, p, eps) == want
            seen.add(want)
        assert seen == {True, False}

    def test_eps_feasible_boundary(self):
        eps = R(1, 1 << 9)
        w = R(-7, 3)
        tail = R(5, 11)
        tiny = R(1, 1 << 600)
        for head, want in ((w + tail + eps, True), (w + tail + eps + tiny, False)):
            g = WeightedDigraph(2, [(0, 1, w)])
            p = [tail, head]
            assert (reduced_weight(g, p, g.edges[0]) >= -eps) is want
            assert check_eps_feasible(g, p, eps) is want
        assert check_eps_feasible(WeightedDigraph(3), [R(1, 3), R(-5, 7), ZERO], eps)
        assert check_eps_feasible(WeightedDigraph(0), [], ZERO)


class TestBfExact:
    def test_single_negative_edge(self):
        g = WeightedDigraph(2, [(0, 1, R(-3, 2))])
        assert bf_exact(g, 0).dist[1] == R(-3, 2)

    def test_negative_triangle(self):
        g = WeightedDigraph(3, [(0, 1, R(1, 2)), (1, 2, R(-1, 3)), (2, 0, R(-1, 3))])
        res = bf_exact(g, 0)
        assert isinstance(res, NegativeCycle)
        assert res.weight == R(-1, 6)
        assert cycle_weight(g, res.vertices) == res.weight

    def test_hop_bound(self):
        # the hop-bounded reference that test_exact_on_hop_bounded reads
        g = WeightedDigraph(3, [(0, 1, R(1)), (1, 2, R(1))])
        dist = textbook_bf(g, 0, hop_bound=1)[0]
        assert dist[1] == Fraction(1) and dist[2] is None
        assert textbook_bf(g, 0, hop_bound=2)[0][2] == Fraction(2)

    def test_hop_bound_is_exact_min(self):
        # cheap long path vs expensive short path
        g = WeightedDigraph(4, [(0, 1, R(1)), (1, 3, R(1)), (0, 2, R(0)), (2, 3, R(0))])
        g.add_edge(0, 3, R(10))
        assert textbook_bf(g, 0, hop_bound=1)[0][3] == Fraction(10)
        assert textbook_bf(g, 0, hop_bound=2)[0][3] == Fraction(0)

    @staticmethod
    def _instance(rng):
        # Zero weights and small denominators make exact ties common; a
        # cut keeps vertices >= split out of the source's reach; the
        # third kind flips signs freely and so often closes a negative
        # cycle (self-loops included).
        n = int(rng.integers(1, 30))
        kind = int(rng.integers(0, 3))  # 0 non-negative, 1 priced, 2 free signs
        split = int(rng.integers(1, n + 1)) if rng.random() < 0.4 else n
        pot = [R(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(n)]
        choices = [R(0), R(0), R(1), R(1, 2), R(1, 3), R(2, 3), R(3, 2)]
        edges = []
        for _ in range(int(rng.integers(0, 4 * n + 1))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u < split <= v:
                continue
            w = choices[int(rng.integers(0, len(choices)))]
            if kind == 1:
                w = w + pot[u] - pot[v]
            elif kind == 2 and rng.random() < 0.3:
                w = -w
            edges.append((u, v, w))
        return WeightedDigraph(n, edges), int(rng.integers(0, split))

    @staticmethod
    def _check_against_textbook(g, s, route, at_default_cap=False):
        """Run `bf_exact` on `route`, or at the default cap, and assert that
        it takes `route` and returns the textbook Bellman-Ford's distances,
        as canonical `BigRational`s, parents and cycle; return the
        textbook's (dist, parent, cycle)."""
        want = textbook_bf(g, s)
        dist, parent, cycle = want
        with bf_route(None if at_default_cap else route) as taken:
            res = bf_exact(g, s)
        assert taken == [route]
        if cycle is not None:
            assert isinstance(res, NegativeCycle)
            assert list(res.vertices) == cycle
            return want
        assert not isinstance(res, NegativeCycle)
        assert [None if d is None else Fraction(d.num, d.den) for d in res.dist] == dist
        # Canonical: positive denominator, no common factor, zero as 0/1.
        assert all(d.__class__ is BigRational and d.den > 0 and math.gcd(d.num, d.den) == 1
                   for d in res.dist if d is not None)
        assert res.parent == parent
        return want

    def test_matches_textbook_bellman_ford(self):
        # The edge skip of bf_exact must leave every improvement in place:
        # distances, parents and the cycle witness equal the full scan's,
        # on the weights' grid and in BigRational arithmetic alike.
        rng = np.random.default_rng(1601)
        seen = {"cycle": 0, "unreachable": 0, "zero": 0, "tie": 0}
        for _ in range(300):
            g, s = self._instance(rng)
            for route in ("grid", "rational"):
                dist, parent, cycle = self._check_against_textbook(g, s, route)
            if cycle is not None:
                seen["cycle"] += 1
                continue
            seen["unreachable"] += None in dist
            seen["zero"] += any(e.weight == ZERO for e in g.edges)
            seen["tie"] += any(
                dist[e.tail] is not None and e.tail != parent[e.head] and e.head != s
                and dist[e.tail] + Fraction(e.weight.num, e.weight.den) == dist[e.head]
                for e in g.edges
            )
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("dens, route", [
        ([(1 << 64) - 1], "grid"),
        ([(1 << 64) - 1, 2], "rational"),  # L = 2^65 - 2
    ], ids=["word", "past-word"])
    def test_grid_cap_boundary(self, dens, route):
        # A cycle through +1/d and -1/d for each denominator d, closed by
        # an edge of weight 0 or -1: at the default cap, an lcm of 64 bits
        # takes the grid and one of 65 the rational route, and each finds
        # the textbook's distances or cycle.
        edges = [(i, i + 1, R(1 - 2 * (i % 2), dens[i // 2])) for i in range(2 * len(dens))]
        m = len(edges)
        for back in (R(0), R(-1)):
            g = WeightedDigraph(m + 1, edges + [(m, 0, back)])
            self._check_against_textbook(g, 0, route, at_default_cap=True)

    def test_priced_graph_runs_on_ints(self):
        # The benchmark's neg-deep shape: 16-20-bit lcms, on the grid at
        # the default cap, and the grid's dist is the rational route's.
        for seed in range(5):
            g = backbone_graph(16, seed)
            with bf_route() as taken:
                res = bf_exact(g, 0)
            assert taken == ["grid"]
            with bf_route("rational") as taken:
                ref = bf_exact(g, 0)
            assert taken == ["rational"]
            assert (res.dist, res.parent) == (ref.dist, ref.parent)


class TestGenerators:
    def test_small_diff_example(self):
        g, gap = gen_small_diff(6)
        assert gap == R(1, 30)
        res = bf_exact(g, 0)
        sink = g.n - 1
        # two s->t paths of weights 1/2 and 8/15
        assert res.dist[sink] == R(1, 2)

    def test_small_diff_tiny(self):
        g, gap = gen_small_diff(3)
        assert gap == R(1, 2)

    def test_small_diff_unpadded(self):
        # Primes 2 and 3: one hop of 1/3 and one of 1/2, and the zero
        # edge 1 -> 2 that keeps the two single-hop paths from collapsing
        # into parallel edges.
        g, gap = gen_small_diff(4, padding=False)
        assert serialize(g) == "p 3 3\ns 0\ne 0 1 1/3\ne 0 2 1/2\ne 1 2 0/1\n"
        assert gap == R(1, 6)
        for strategy in ("exact_oracle", "distcmp", "pairwise_delta"):
            assert dijkstra_nonneg(g, 0, strategy=strategy).distances()[2] == R(1, 3), strategy

    def test_small_diff_gap_bound(self):
        # pigeonhole: gap <= bound / (2^k - 1) for k primes below the bound
        for bound in (6, 12, 20, 30):
            k = len(_primes_below(bound))
            _, gap = gen_small_diff(bound)
            assert ZERO < gap
            assert gap <= R(bound, (1 << k) - 1)

    def test_small_diff_distinct_endpoints(self):
        for bound in (3, 6, 12):
            g, gap = gen_small_diff(bound)
            res = bf_exact(g, 0)
            assert all(d is not None for d in res.dist)

    def test_chained_windows(self):
        g, gap = gen_small_diff(100, chain=3, window=3)
        res = bf_exact(g, 0)
        assert res.dist[g.n - 1] is not None
        assert gap > ZERO
        primes = _primes_below(100)
        assert gap == sum((_closest_subset_sums(tuple(primes[i : i + 3]))[2] for i in (0, 3, 6)), ZERO)

    def test_long_chain_builds_fast(self):
        # the padded window-3 chain of 2730 gadgets; its gap sums 2730
        # gadget gaps with ever larger denominators
        chain = 2730
        bound = _primes_below(prime_bound_for(3 * chain))[3 * chain - 1] + 1
        start = time.perf_counter()
        g, gap = gen_small_diff(bound, padding=True, chain=chain, window=3)
        assert time.perf_counter() - start < 3.0
        assert g.n == 8191 and gap > ZERO

    def test_gen_random_empty(self):
        g = gen_random(5, 0, 1)
        assert g.n == 5 and g.m == 0

    def test_gen_random_checks_weight_class_first(self):
        # Checked before any draw, so also when no edge would draw a weight.
        for m in (0, 3):
            with pytest.raises(ValueError, match="unknown weight class 'bogus'"):
                gen_random(5, m, 1, "bogus")

    def test_gen_random_deterministic(self):
        a = serialize(gen_random(12, 40, 7, "small", "priced"))
        b = serialize(gen_random(12, 40, 7, "small", "priced"))
        assert a == b

    def test_priced_has_no_negative_cycle(self):
        negatives = 0
        for seed in range(1000):
            g = gen_random(10, 28, seed, "small", "priced")
            negatives += g.has_negative_weight()
            assert not isinstance(bf_exact(g, 0), NegativeCycle)
        assert negatives > 500  # the mode actually produces negative edges

    def test_too_many_edges(self):
        with pytest.raises(ValueError):
            gen_random(3, 7, 0)

    def test_plant_negative_cycle(self):
        for seed in range(20):
            g = plant_negative_cycle(gen_random(12, 30, seed, negative_mode="priced"), seed)
            res = bf_exact(g, 0)
            assert isinstance(res, NegativeCycle)


class TestVerify:
    def test_oracle_tree_valid(self):
        for seed in range(30):
            g = gen_random(12, 36, seed)
            tree = bf_tree(g, 0)
            assert verify_sssp(g, tree, mode="exact").valid

    def test_perturbed_weight_invalid(self):
        g = gen_random(12, 36, 5)
        tree = bf_tree(g, 0)
        v = next(iter(tree.parent))
        u, w, aux = tree.parent[v]
        tree.parent[v] = (u, w + R(1, 10**6), aux)
        assert not verify_sssp(g, tree, mode="exact").valid

    def test_missing_shorter_edge_invalid(self):
        g = WeightedDigraph(3, [(0, 1, R(5)), (0, 2, R(1)), (2, 1, R(1))])
        bad = SsspResult(3, 0, {1: (0, R(5), False), 2: (0, R(1), False)})
        out = verify_sssp(g, bad, mode="exact")
        assert not out.valid
        assert (out.witness.tail, out.witness.head) == (2, 1)

    def test_dangling_parent(self):
        g = WeightedDigraph(2, [(0, 1, R(1))])
        bad = SsspResult(2, 0, {1: (7, R(1), False)})
        with pytest.raises(ValueError):
            verify_sssp(g, bad, mode="exact")

    def test_source_with_parent_rejected(self):
        g = WeightedDigraph(3, [(0, 1, R(0)), (1, 0, R(0)), (1, 2, R(1, 3))])
        tree = parse_tree("t 3 0\na 0 1 0/1\na 1 0 0/1\na 2 1 1/3\n")
        out = verify_sssp(g, tree, mode="exact")
        assert not out.valid
        assert out.reason == "parent links do not form a tree rooted at the source"
        with pytest.raises(ValueError):
            tree.distances()

    def test_deep_chain_verifies_in_linear_time(self):
        # The chain 0 -> n-1 -> ... -> 1 read back in vertex order lists
        # every vertex before its parent.
        n = 16000
        third = R(1, 3)
        edges = [(0, n - 1, third)] + [(v, v - 1, third) for v in range(n - 1, 1, -1)]
        g = WeightedDigraph(n, edges, source=0)
        tree = parse_tree(serialize_tree(SsspResult(n, 0, {v: (u, w, False) for u, v, w in edges})))
        start = time.perf_counter()
        assert verify_sssp(g, tree, mode="exact").valid
        assert time.perf_counter() - start < 2.0
        assert tree.distances()[1] == R(n - 1, 3)

    def test_valid_iff_distances_match_oracle(self):
        rng = np.random.default_rng(404)
        checked_valid = 0
        checked_invalid = 0
        for trial in range(1000):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(0, min(3 * n, n * (n - 1)) + 1))
            g = gen_random(n, m, int(rng.integers(0, 2**31)))
            tree = bf_tree(g, 0)
            out = verify_sssp(g, tree, mode="exact")
            assert out.valid
            checked_valid += 1
            dist = tree.distances()
            oracle = bf_exact(g, 0).dist
            assert dist == oracle
            if tree.parent and rng.random() < 0.25:
                # perturbing any tree weight must flip the verdict, since
                # the tree distances no longer match the oracle
                v = sorted(tree.parent)[int(rng.integers(0, len(tree.parent)))]
                u, w, aux = tree.parent[v]
                if not aux:
                    tree.parent[v] = (u, w + R(1, 10**6), aux)
                    assert not verify_sssp(g, tree, mode="exact").valid
                    checked_invalid += 1
        assert checked_valid == 1000 and checked_invalid > 100

    def test_int_tree_weight_equal_to_graph_weight(self):
        # A parent entry's weight is compared by value, so a Python int
        # equal to the graph's BigRational weight is the same tree edge.
        g = WeightedDigraph(3, [(0, 1, R(1)), (1, 2, R(2)), (0, 2, R(3))])
        tree = SsspResult(3, 0, {1: (0, 1, False), 2: (1, 2, False)})
        assert verify_sssp(g, tree, mode="exact").valid
        tree.parent[2] = (1, 3, False)
        out = verify_sssp(g, tree, mode="exact")
        assert out.reason == "tree weight differs from graph weight"

    def test_aux_parent_over_real_edge_is_checked(self):
        # Only a non-aux parent entry is a tree edge whose triangle check
        # is skipped; under an aux entry the real edge 1->2 is checked.
        g = WeightedDigraph(3, [(0, 1, R(1)), (1, 2, R(1)), (0, 2, R(3))])
        tree = SsspResult(3, 0, {1: (0, R(1), False), 2: (1, R(1), True)})
        out = verify_sssp(g, tree, mode="exact")
        assert not out.valid
        assert (out.witness.tail, out.witness.head) == (1, 2)

    def test_rejects_gadget_gap_deep_in_chain(self):
        # Swap one twin path deep in a window-3 chain for the heavier
        # one: the only violated edge is the lighter path's last edge,
        # now a non-tree edge, and it is violated by one gadget gap.
        chain = 120
        bound = _primes_below(prime_bound_for(3 * chain))[3 * chain - 1] + 1
        g, _ = gen_small_diff(bound, padding=True, chain=chain, window=3)
        tree = bf_tree(g, 0)
        assert verify_sssp(g, tree, mode="exact").valid
        dist = tree.distances()
        into = {}
        for e in g.edges:
            into.setdefault(e.head, []).append(e)
        joins = sorted((v for v, es in into.items() if len(es) == 2), key=lambda v: dist[v])
        v = joins[len(joins) * 9 // 10]
        light = next(e for e in into[v] if e.tail == tree.parent[v][0])
        heavy = next(e for e in into[v] if e is not light)
        tree.parent[v] = (heavy.tail, heavy.weight, False)
        out = verify_sssp(g, tree, mode="exact")
        assert not out.valid
        assert out.reason == "edge violates the triangle inequality"
        assert out.witness is light
        swapped = tree.distances()
        excess = swapped[v] - (swapped[light.tail] + light.weight)
        assert excess == dist[heavy.tail] + heavy.weight - dist[v]
        assert ZERO < excess < R(1, 1 << 16)
        assert swapped[v].den.bit_length() > 1000

    def test_only_exact_mode(self):
        g = gen_random(8, 20, 1)
        with pytest.raises(ValueError):
            verify_sssp(g, bf_tree(g, 0), mode="fast")

    @pytest.mark.parametrize("tree", [
        SsspResult(2, 5, {}),
        SsspResult(2, -1, {}),
        SsspResult(2, 0, {1: (0, R(1), False), 9: (0, R(5), True)}),
        SsspResult(2, 0, {1: (0, R(1), False), -2: (0, R(5), True)}),
    ], ids=["source-5", "source-minus-1", "vertex-9", "vertex-minus-2"])
    def test_out_of_range_ids_raise(self, tree):
        g = WeightedDigraph(2, [(0, 1, R(1))])
        with pytest.raises(ValueError):
            verify_sssp(g, tree)


def _anchor_branch(g, tree, e):
    """The comparison `verify_sssp` makes on anchors for the non-tree edge
    e of a tree that passed its earlier checks: "same" anchor, "parent"
    (one anchor is the other's parent anchor), "sibling" (the two share a
    parent anchor) or "distant" (full distances)."""
    tree_edge = [None] * g.n
    for v, (u, _, aux) in tree.parent.items():
        if not aux:
            tree_edge[v] = g.edge_between(u, v)
    anchor, _, _, up = _anchored_paths(g.n, tree.source, tree.tree_order(), tree_edge)
    a, b = anchor[e.tail], anchor[e.head]
    pa, pb = up[a][0], up[b][0]
    if a == b:
        return "same"
    if pa == b or pb == a:
        return "parent"
    return "sibling" if pa == pb else "distant"


def _same_outcome(g, tree):
    """Assert that `verify_sssp` agrees with `reference_verify` on (valid,
    reason, witness identity) on three routes: at its default caps (the
    grid wherever the weights' lcm fits it), with `_GRID_BITS` 0 (from
    common ancestors on every graph, anchors past the walk's cap), and
    with `_WALK_EDGES` 0 too (anchors for every compared edge); return
    the anchor branch of a triangle witness."""
    want = reference_verify(g, tree)
    got = verify_sssp(g, tree, mode="exact")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_GRID_BITS", 0)
        walked, walk_route = _verify_on_path(g, tree)
        mp.setattr(graph_module, "_WALK_EDGES", 0)
        anchored, anchor_route = _verify_on_path(g, tree)
    for out in (got, walked, anchored):
        assert (out.valid, out.reason) == (want.valid, want.reason)
        assert out.witness is want.witness
    if want.valid or want.reason in _PATH_REASONS:
        assert walk_route != "grid"
        assert anchor_route == ("anchors" if _compares_a_span(g, tree, want) else "ancestors")
    if got.reason == "edge violates the triangle inequality":
        return _anchor_branch(g, tree, got.witness)
    return None


# The outcomes decided past the structural checks, on any route.
_PATH_REASONS = ("tree misses a reachable vertex", "edge violates the triangle inequality")


def _compares_a_span(g, tree, want):
    """Whether the triangle check, up to the witness of `want`, compares
    an edge that is not a self-loop: with `_WALK_EDGES` 0 the first such
    edge builds anchors, and a self-loop's common ancestor is its vertex."""
    if want.reason == "tree misses a reachable vertex":
        return False
    dist = tree.distances()
    for e in g.edges:
        if e.aux or dist[e.tail] is None:
            continue
        p = tree.parent.get(e.head)
        if p is not None and p[0] == e.tail and not p[2]:
            continue
        if e.tail != e.head:
            return True
        if e is want.witness:
            return False
    return False


def _verify_on_path(g, tree):
    """`verify_sssp`'s outcome on (g, tree), and the route it took: "grid"
    (also when a structural check decided), "ancestors" past the grid
    cap with every edge walked to its common ancestor, or "anchors" if
    some edge built `_anchored_paths`."""
    calls = []
    past_grid = graph_module._verify_past_grid
    anchored_paths = graph_module._anchored_paths

    def spy(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_verify_past_grid", spy("ancestors", past_grid))
        mp.setattr(graph_module, "_anchored_paths", spy("anchors", anchored_paths))
        out = verify_sssp(g, tree)
    return out, calls[-1] if calls else "grid"


def _path_taken(g, tree):
    """"grid", "ancestors" or "anchors": the route `verify_sssp` takes to
    check a tree that passes its structural checks."""
    return _verify_on_path(g, tree)[1]


def _mutants(g, tree, rng, count):
    """`count` random one-change mutants of (g, tree): a vertex's parent
    moved to another of its in-edges, or a tree edge's weight moved by
    +-1/10^6 in both the graph and the tree."""
    in_edges = {}
    for e in g.edges:
        if e.head != tree.source:
            in_edges.setdefault(e.head, []).append(e)
    movable = sorted(v for v, es in in_edges.items() if len(es) > 1)
    real = sorted(v for v, (_, _, aux) in tree.parent.items() if not aux)
    if not (movable or real):
        return
    for i in range(count):
        h = g.copy()
        t = SsspResult(g.n, tree.source, tree.parent)
        if movable and (i % 2 or not real):
            v = movable[int(rng.integers(len(movable)))]
            e = in_edges[v][int(rng.integers(len(in_edges[v])))]
            t.parent[v] = (e.tail, e.weight, False)
        else:
            v = real[int(rng.integers(len(real)))]
            u, w, _ = t.parent[v]
            w = w + R(int(rng.choice([-1, 1])), 10**6)
            h.edge_between(u, v).weight = w
            t.parent[v] = (u, w, False)
        yield h, t


def _two_branches_with_cross_edges(h):
    """Two chains of h vertices from the root, edge i of each weighing
    1/p for its own 15-bit prime p, and exactly tight cross edges placed
    so that each comparison branch of `verify_sssp` decides one: each
    chain starts a new anchor every 19 edges.  Returns (graph, tree of
    the two chains, cross edges)."""
    primes = [p for p in _primes_below(1 << 15) if p > 1 << 14][: 2 * h]
    a = list(range(0, h + 1))  # a[0] is the root
    b = [0] + list(range(h + 1, 2 * h + 1))
    edges, parent = [], {}
    da, db = [ZERO], [ZERO]
    for i in range(1, h + 1):
        for chain, dist, p in ((a, da, primes[2 * i - 2]), (b, db, primes[2 * i - 1])):
            edges.append((chain[i - 1], chain[i], R(1, p)))
            parent[chain[i]] = (chain[i - 1], R(1, p), False)
            dist.append(dist[-1] + R(1, p))
    cross = [(a[3], a[10], da[10] - da[3])]
    cross += [(a[i], b[j], db[j] - da[i]) for i, j in ((3, 20), (20, 25), (40, 60))]
    cross += [(b[j], a[i], da[i] - db[j]) for i, j in ((20, 4), (60, 40))]
    g = WeightedDigraph(2 * h + 1, edges + cross, source=0)
    return g, SsspResult(g.n, 0, parent), [g.edge_between(u, v) for u, v, _ in cross]


class TestAnchoredVerify:
    """`verify_sssp` against `reference_verify`, the same checks over full
    root distances, on trees whose anchors fall in every branch.  Each
    comparison runs three routes: the grid wherever the weights' lcm fits
    `_GRID_BITS` (the third-weight chain, the priced and the aux graphs),
    common ancestors on every graph with the grid cap at 0, and anchors
    on every graph with the walk's cap at 0 too."""

    def test_default_paths(self):
        third = R(1, 3)
        chain = WeightedDigraph(4, [(v, v + 1, third) for v in range(3)], source=0)
        priced = backbone_graph(24, 0)
        rand = gen_random(14, 16, 0)
        assert _path_taken(chain, SsspResult(4, 0, {v + 1: (v, third, False) for v in range(3)})) == "grid"
        assert _path_taken(priced, negative_sssp(priced, 0)) == "grid"
        assert _path_taken(rand, dijkstra_nonneg(rand, 0)) == "grid"
        # Past the grid: the gadget chain's twin paths span three tree
        # edges; the two chains' cross edge a[3] -> b[20] spans 23, and
        # without the cross edges no edge is compared.
        bound = _primes_below(prime_bound_for(360))[359] + 1
        g, _ = gen_small_diff(bound, padding=True, chain=120, window=3)
        assert _path_taken(g, dijkstra_nonneg(g, 0)) == "ancestors"
        g, tree, cross = _two_branches_with_cross_edges(80)
        assert _path_taken(g, tree) == "anchors"
        bare = WeightedDigraph(g.n, [(e.tail, e.head, e.weight) for e in g.edges if e not in cross], source=0)
        assert _path_taken(bare, tree) == "ancestors"
        big = gen_random(60, 240, 0, "big", "priced")
        assert _path_taken(big, negative_sssp(big, 0, budget=WordBudget(96), k=2)) == "anchors"

    @pytest.mark.parametrize("shortcut", [R(6), R(5)], ids=["tight", "short"])
    def test_integer_weights(self, shortcut):
        # Integer weights sit on the grid L = 1, which even a cap of 0 bits
        # does not fit: `_same_outcome` takes its routes past the grid there.
        g = WeightedDigraph(4, [(0, 1, R(2)), (1, 2, R(2)), (2, 3, R(2)), (0, 3, shortcut)], source=0)
        tree = SsspResult(4, 0, {v + 1: (v, R(2), False) for v in range(3)})
        assert _path_taken(g, tree) == "grid"
        assert _same_outcome(g, tree) == (None if shortcut == R(6) else "same")

    def test_gadget_chains(self):
        rng = np.random.default_rng(34)
        branches = set()
        for chain in (120, 160):
            bound = _primes_below(prime_bound_for(3 * chain))[3 * chain - 1] + 1
            g, _ = gen_small_diff(bound, padding=True, chain=chain, window=3)
            tree = dijkstra_nonneg(g, 0)
            assert _same_outcome(g, tree) is None
            assert verify_sssp(g, tree).valid
            for h, t in _mutants(g, tree, rng, 60):
                branches.add(_same_outcome(h, t))
        # Cross-anchor gadget edges join sibling anchors: the two twin
        # paths of a gadget each start one.
        assert {"same", "sibling"} <= branches

    def test_third_weight_chain(self):
        # Every weight 1/3 plus shortcuts i -> j of weight (j - i)/3: the
        # denominators repeat, so the chain keeps one anchor.
        n = 400
        third = R(1, 3)
        edges = [(v, v + 1, third) for v in range(n - 1)]
        edges += [(i, i + d, R(d, 3)) for i in range(0, n - 40, 13) for d in (2, 7, 39)]
        g = WeightedDigraph(n, edges, source=0)
        tree = SsspResult(n, 0, {v + 1: (v, third, False) for v in range(n - 1)})
        assert _same_outcome(g, tree) is None
        assert verify_sssp(g, tree).valid
        rng = np.random.default_rng(3)
        branches = {_same_outcome(h, t) for h, t in _mutants(g, tree, rng, 60)}
        assert "same" in branches and not branches & {"parent", "sibling", "distant"}

    def test_priced_backbone_graphs(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            g = backbone_graph(24, seed)
            tree = negative_sssp(g, 0, seed=seed)
            assert _same_outcome(g, tree) is None
            for h, t in _mutants(g, tree, rng, 30):
                _same_outcome(h, t)

    def test_aux_entries_and_unreachable_parts(self):
        rng = np.random.default_rng(8)
        seen = set()
        for seed in range(40):
            g = gen_random(14, 16, seed)
            tree = dijkstra_nonneg(g, 0)
            assert any(aux for _, _, aux in tree.parent.values())
            assert _same_outcome(g, tree) is None
            for h, t in _mutants(g, tree, rng, 6):
                _same_outcome(h, t)
            # A real edge from the root into each unreachable vertex.
            for v, (_, _, aux) in tree.parent.items():
                if aux and g.edge_between(0, v) is None:
                    h = g.copy()
                    h.add_edge(0, v, R(1))
                    seen.add(verify_sssp(h, tree).reason)
                    _same_outcome(h, tree)
        assert seen == {"tree misses a reachable vertex"}

    def test_every_branch_on_two_branches(self):
        g, tree, cross = _two_branches_with_cross_edges(80)
        assert _same_outcome(g, tree) is None
        assert verify_sssp(g, tree).valid
        kinds = [_anchor_branch(g, tree, e) for e in cross]
        assert kinds == ["same", "parent", "sibling", "distant", "parent", "distant"]
        p = R(1, 1 << 300)
        for e, kind in zip(cross, kinds):
            # The cross edge lowered by 2^-300, below any tree bit.
            h = g.copy()
            h.edge_between(e.tail, e.head).weight = e.weight - p
            assert _same_outcome(h, tree) == kind
            # Its head's parent moved onto the tight cross edge: still a
            # shortest-paths tree, now with anchors across the chains.
            t = SsspResult(g.n, 0, tree.parent)
            t.parent[e.head] = (e.tail, e.weight, False)
            assert _same_outcome(g, t) is None
            # The tree edge into the head made heavier by 2^-300, which
            # may start an anchor there: the cross edge is the witness.
            v = e.head
            u, w, _ = tree.parent[v]
            h = g.copy()
            h.edge_between(u, v).weight = w + p
            t = SsspResult(g.n, 0, tree.parent)
            t.parent[v] = (u, w + p, False)
            assert _same_outcome(h, t) is not None
            assert verify_sssp(h, t).witness is h.edge_between(e.tail, e.head)

    def test_two_branch_mutants_reach_every_branch(self):
        rng = np.random.default_rng(1)
        g, tree, _ = _two_branches_with_cross_edges(80)
        branches = {_same_outcome(h, t) for h, t in _mutants(g, tree, rng, 120)}
        assert {"same", "parent", "sibling", "distant"} <= branches


# 2^64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417.
_WORD_FACTORS = (3, 5, 17, 257, 641, 65537, 6700417)


def _grid_chain(dens, slack):
    """A chain 0 -> 1 -> ... of weights 1/d for d in `dens`, a last edge
    of weight 1, and a shortcut from 0 to the end weighing the chain's
    length less `slack`; with the tree of the chain."""
    k = len(dens)
    weights = [R(1, d) for d in dens] + [R(1)]
    edges = [(v, v + 1, w) for v, w in enumerate(weights)]
    total = sum(weights, ZERO)
    g = WeightedDigraph(k + 2, edges + [(0, k + 1, total - slack)], source=0)
    return g, SsspResult(g.n, 0, {v + 1: (v, w, False) for v, w in enumerate(weights)})


class TestGridVerify:
    """The word-grid path of `verify_sssp` at its cap: the lcm L of the real
    edges' weight denominators takes the grid path while L < 2^_GRID_BITS,
    and from 2^_GRID_BITS on compares the shortcut from the root, the
    common ancestor of its endpoints, while it spans at most `_WALK_EDGES`
    tree edges, and on anchors past that (the nine edges of the last
    case)."""

    @pytest.mark.parametrize("dens, lcm, path", [
        (_WORD_FACTORS, (1 << 64) - 1, "grid"),
        (((1 << 64) - 59,), (1 << 64) - 59, "grid"),
        ((1 << 64,), 1 << 64, "ancestors"),
        (((1 << 64) + 1,), (1 << 64) + 1, "ancestors"),
        (_WORD_FACTORS + (2,), (1 << 65) - 2, "anchors"),
    ], ids=["word-factors", "below-word", "word", "past-word", "word-factors-times-2"])
    def test_cap_boundary(self, dens, lcm, path):
        # The shortcut tight, and short by one step of the grid 1/L: the
        # grid ints differ by exactly 1 there.
        for slack, valid in ((ZERO, True), (R(1, lcm), False)):
            g, tree = _grid_chain(dens, slack)
            assert math.lcm(*(e.weight.den for e in g.edges)) == lcm
            assert _path_taken(g, tree) == path
            assert _same_outcome(g, tree) == (None if valid else "same")
            assert verify_sssp(g, tree).valid is valid

    def test_cap_passed_only_at_the_last_real_edge(self):
        # The word-factor chain fits the grid, also with an aux edge of
        # weight 1/2 (aux weights are not on the grid), until a last real
        # edge of weight 1/2 doubles its lcm past the cap.
        last = len(_WORD_FACTORS) + 1
        for slack, valid in ((ZERO, True), (R(1, (1 << 64) - 1), False)):
            g, tree = _grid_chain(_WORD_FACTORS, slack)
            g.add_edge(2, 0, R(1, 2), aux=True)
            assert _path_taken(g, tree) == "grid"
            g.add_edge(last, 0, R(1, 2))
            assert [e.aux for e in g.edges[-2:]] == [True, False]
            assert _path_taken(g, tree) == "ancestors"
            assert verify_sssp(g, tree).valid is valid
            _same_outcome(g, tree)

    @pytest.mark.parametrize("aux", [False, True], ids=["outside-tree", "aux-parent"])
    def test_miss_reported_before_an_earlier_violation(self, aux):
        # Edge 1 -> 3 violates the triangle inequality and is listed before
        # 0 -> 2, which leaves the tree for an unreachable vertex: the
        # reachability pass runs first, so the miss is the outcome.
        edges = [(0, 1, R(1, 3)), (0, 3, R(5, 3)), (1, 3, R(1, 3)), (0, 2, R(1, 3))]
        g = WeightedDigraph(4, edges, source=0)
        parent = {1: (0, R(1, 3), False), 3: (0, R(5, 3), False)}
        if aux:
            parent[2] = (0, R(7), True)
        tree = SsspResult(4, 0, parent)
        assert _path_taken(g, tree) == "grid"
        out = verify_sssp(g, tree)
        assert out.reason == "tree misses a reachable vertex"
        assert out.witness is g.edge_between(0, 2)
        assert _same_outcome(g, tree) is None
        # Without the miss, the violation is the outcome.
        g = WeightedDigraph(4, edges[:-1], source=0)
        assert verify_sssp(g, tree).witness is g.edge_between(1, 3)
        assert _same_outcome(g, tree) == "same"


class _ReadLog(list):
    """A list that logs the index of each `[]` read."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, i):
        self.log.append(i)
        return list.__getitem__(self, i)


class _MarkedEdges(list):
    """A list of edges that logs "pass" when iterated, then each edge as
    it is handed out."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __iter__(self):
        self.log.append("pass")
        for e in list.__iter__(self):
            self.log.append(e)
            yield e


def _walk_log(g, tree):
    """`verify_sssp`'s outcome on (g, tree) with the grid cap at 0; the
    edges its walks reached, in order, each with the tree edges it climbed;
    and the edges its anchored check reached, if it ran."""
    log = []
    past_grid = graph_module._verify_past_grid
    anchored_paths = graph_module._anchored_paths

    def spy_past_grid(n, source, order, tree_edge, real_edges):
        return past_grid(n, source, order, _ReadLog(tree_edge, log), _MarkedEdges(real_edges, log))

    def spy_anchored_paths(n, source, order, tree_edge):
        log.append("anchors")
        return anchored_paths(n, source, order, list(tree_edge))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_GRID_BITS", 0)
        mp.setattr(graph_module, "_verify_past_grid", spy_past_grid)
        mp.setattr(graph_module, "_anchored_paths", spy_anchored_paths)
        out = verify_sssp(g, tree)
    # The passes over the edges: the reachability check's when a vertex is
    # unreachable, then the walks', which the anchored check takes over
    # from the edge it was on.
    passes = [i for i, item in enumerate(log) if item == "pass"]
    if not passes:  # a structural check decided
        return out, {}, []
    walks = {}
    anchored = []
    for item in log[passes[-1] + 1:]:
        if item == "anchors":
            anchored = [e]
        elif isinstance(item, Edge):
            if anchored:
                anchored.append(item)
            else:
                e = item
                walks[e] = -1  # an edge's first read is its tree-edge test
        elif not anchored:
            walks[e] += 1
    return out, {e: max(k, 0) for e, k in walks.items()}, anchored


def _span(up, depth, u, v):
    """Tree edges from u and from v up to their common ancestor, in the
    tree of parent map `up` and vertex depths `depth`."""
    k = 0
    while u != v:
        if depth[u] >= depth[v]:
            u = up[u]
        else:
            v = up[v]
        k += 1
    return k


def _deep_chain_with_root_edges(n):
    """A chain 0 -> 1 -> ... -> n-1 whose edge i weighs 1/p for the 15-bit
    primes p taken in turn, edges v -> v + 3 with 1/7 of slack every 7th
    vertex, and, listed among them, a tight edge from the root to every
    500th vertex; with the tree of the chain."""
    primes = [p for p in _primes_below(1 << 15) if p > 1 << 14]
    chain = [(v, v + 1, R(1, primes[v % len(primes)])) for v in range(n - 1)]
    dist = [ZERO]
    for _, _, w in chain:
        dist.append(dist[-1] + w)
    short = [(v, v + 3, dist[v + 3] - dist[v] + R(1, 7)) for v in range(1, n - 3, 7)]
    root = [(0, v, dist[v]) for v in range(500, n, 500)]
    mid = len(short) // 3
    g = WeightedDigraph(n, chain + short[:mid] + root + short[mid:], source=0)
    return g, SsspResult(n, 0, {v: (u, w, False) for u, v, w in chain})


@st.composite
def _past_grid_case(draw):
    """A small random non-negative graph, one edge of which weighs
    j + 1/q for a q past 2^64, so that the weights' lcm is past the grid
    cap; with its exact_oracle tree and one change to it: none, a moved
    parent, a tightened non-tree edge, or a tree edge cut off through an
    aux parent."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, n * (n - 1)))
    g = gen_random(n, m, draw(st.integers(0, 2**16)), draw(st.sampled_from(["unit", "small", "medium"])))
    big = g.edges[draw(st.integers(0, m - 1))]
    big.weight = BigRational(draw(st.integers(0, 3))) + R(1, (1 << 64) + draw(st.integers(1, 1 << 20)))
    tree = dijkstra_nonneg(g, 0, strategy="exact_oracle")
    dist = tree.distances()
    kind = draw(st.sampled_from(["tree", "moved", "tightened", "cut"]))
    t = SsspResult(n, 0, tree.parent)
    real = sorted(v for v, (_, _, aux) in tree.parent.items() if not aux)
    if kind == "moved":
        moves = [e for e in g.edges if e.head != 0 and tree.parent.get(e.head, (None,))[0] != e.tail]
        if moves:
            e = draw(st.sampled_from(moves))
            t.parent[e.head] = (e.tail, e.weight, False)
    elif kind == "tightened":
        loose = [e for e in g.edges if dist[e.tail] is not None and dist[e.head] is not None
                 and tree.parent.get(e.head, (None,))[0] != e.tail and e is not big]
        if loose:
            e = draw(st.sampled_from(loose))
            by = draw(st.sampled_from([ZERO, R(1, (1 << 64) + 1), R(1, 3)]))
            e.weight = dist[e.head] - dist[e.tail] - by
    elif kind == "cut" and real:
        v = draw(st.sampled_from(real))
        u, w, _ = t.parent[v]
        t.parent[v] = (u, w, True)
    return g, t


class TestCommonAncestorVerify:
    """Past the grid cap, `verify_sssp` compares each edge from its
    endpoints' common ancestor, and on anchors from the first edge past
    the walk's cap: the same outcomes as `reference_verify`, no walk past
    `_WALK_EDGES` tree edges, and long spans on anchors."""

    def test_long_spans_take_anchors_without_long_walks(self):
        g, tree = _deep_chain_with_root_edges(3000)
        cap = graph_module._WALK_EDGES
        rng = np.random.default_rng(50)
        cases = [(g, tree)] + list(_mutants(g, tree, rng, 8))
        outcomes = set()
        for h, t in cases:
            _same_outcome(h, t)
            out, walks, anchored = _walk_log(h, t)
            outcomes.add(out.reason)
            assert max(walks.values(), default=0) <= cap
            up = {x: p for x, (p, _, _) in t.parent.items()}
            depth = {t.source: 0}
            for v in t.tree_order() or ():
                depth[v] = depth[up[v]] + 1
            # A chain's spans are its depth differences, so no long span
            # is walked: the first one reached starts the anchored check.
            reached = set(walks) | set(anchored)
            long = [e for e in reached if e.tail != up.get(e.head) and _span(up, depth, e.tail, e.head) > cap]
            assert all(walks.get(e, 0) == 0 and e in anchored for e in long)
        assert outcomes == {"", "edge violates the triangle inequality"}
        # On the tree itself the short edges listed before the first root
        # edge walk their three tree edges; from that root edge on, the
        # anchored check checks every edge.
        out, walks, anchored = _walk_log(g, tree)
        assert out.valid
        reached = list(walks)
        first_root = g.edge_between(0, 500)
        assert reached[-1] is first_root
        assert all(walks[e] == 3 for e in reached if e.head == e.tail + 3)
        assert anchored == g.edges[g.edges.index(first_root):]

    def test_walk_stops_past_the_bits_budget(self):
        # Tree weights of 100-bit denominators below a last weight 1.  A
        # shortcut over three of them reaches the root on the step that
        # takes its pair to 300 bits; one over four stops there, short of
        # the root, and goes to anchors.
        for hops in (3, 4):
            dens = [(1 << 100) + 2 * i + 1 for i in range(hops)]
            for slack, valid in ((ZERO, True), (R(1, 7), False)):
                g, tree = _grid_chain(dens, slack)
                out, walks, anchored = _walk_log(g, tree)
                assert out.valid is valid
                shortcut = g.edge_between(0, hops + 1)
                assert walks[shortcut] == 4
                assert (shortcut in anchored) is (hops == 4)
                _same_outcome(g, tree)

    @given(_past_grid_case())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs_past_the_grid(self, case):
        g, tree = case
        assert math.lcm(*(e.weight.den for e in g.edges)) >> 64
        _same_outcome(g, tree)
