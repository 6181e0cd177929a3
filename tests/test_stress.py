"""Adversarial shapes the random populations rarely hit: maximal ties,
all-zero weights, tight word budgets, extreme hop parameters, long
chains, and the arbitrary-magnitude integers of the scaled price."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ratpath.graph import WeightedDigraph, bf_exact, gen_random, gen_small_diff, serialize
from ratpath.rational import BigRational, WordBudget
from ratpath.sssp import dijkstra_nonneg, negative_sssp

ROOT = Path(__file__).resolve().parents[1]


def R(n, d=1):
    return BigRational(n, d)


def test_uniform_weights_maximal_ties():
    # every key comparison between equal-depth vertices is a tie, driving
    # the comparator through the similarity machinery constantly
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 50))
        m = int(rng.integers(n, min(4 * n, n * (n - 1)) + 1))
        skeleton = gen_random(n, m, seed)
        g = WeightedDigraph(n, [(e.tail, e.head, R(1, 3)) for e in skeleton.edges], source=0)
        res = dijkstra_nonneg(g, 0, strategy="distcmp", seed=seed)
        assert res.distances() == bf_exact(g, 0).dist


def test_all_zero_weights():
    for seed in range(5):
        skeleton = gen_random(20, 60, seed)
        g = WeightedDigraph(20, [(e.tail, e.head, R(0)) for e in skeleton.edges], source=0)
        res = dijkstra_nonneg(g, 0, strategy="distcmp", seed=seed)
        assert res.distances() == bf_exact(g, 0).dist


def test_tight_budget_unit_weights():
    budget = WordBudget(8)
    for seed in range(5):
        g = gen_random(20, 60, seed, "unit", "none")
        res = negative_sssp(g, 0, seed=seed, budget=budget)
        assert res.distances() == bf_exact(g, 0).dist


def test_hop_parameter_one():
    budget = WordBudget(16)
    for seed in range(5):
        g = gen_random(18, 54, seed, "small", "priced")
        res = negative_sssp(g, 0, k=1, seed=seed, budget=budget)
        assert res.distances() == bf_exact(g, 0).dist


def test_pairwise_strategy_on_gadgets():
    for bound in (6, 30):
        g, _ = gen_small_diff(bound)
        res = dijkstra_nonneg(g, 0, strategy="pairwise_delta", seed=1)
        assert res.distances() == bf_exact(g, 0).dist


def test_wide_weights_end_to_end():
    # "big" priced weights: 30-bit numerators and denominators before the
    # price offsets, so the scaled price, pair approximations and cut
    # runs all work on numbers wider than a machine word
    budget = WordBudget(128)
    for seed in range(2):
        g = gen_random(10, 30, seed, "big", "priced")
        res = negative_sssp(g, 0, seed=seed, budget=budget)
        assert res.distances() == bf_exact(g, 0).dist


def test_long_chain():
    n = 1200
    g = WeightedDigraph(n, [(i, i + 1, R(1, 3)) for i in range(n - 1)], source=0)
    res = dijkstra_nonneg(g, 0, strategy="distcmp", seed=0)
    assert res.distances() == bf_exact(g, 0).dist


def test_cli_deterministic_across_processes(tmp_path):
    g = gen_random(16, 48, 9, "small", "priced")
    inst = tmp_path / "inst.gr"
    inst.write_text(serialize(g))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outs = []
    for i in range(2):
        tree = tmp_path / f"t{i}.tree"
        proc = subprocess.run(
            [
                sys.executable, "-m", "ratpath.cli", "solve",
                "--input", str(inst), "--seed", "11", "--word-bits", "16",
                "--output", str(tree),
            ],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(tree.read_bytes())
    assert outs[0] == outs[1]
