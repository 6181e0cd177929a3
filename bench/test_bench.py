"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Runs from the repository root; it is not part of the library's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_match():
    assert [w["name"] for w in _declared()["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    out = _run(workload, 0)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0
    # All eight metrics of the report, gated or not, are printed with units.
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("report ")}
    for name, unit in run.END_TO_END:
        assert table[name] == unit
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    assert report["env"]["workload"] == workload and report["env"]["seed"] == 3
    assert {"python", "numpy", "gmpy2", "nproc", "n", "m"} <= set(report["env"])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    out = _run(workload, 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["bench.solve.total_s"]["value"] > 0
    assert result["metrics"]["trace.span_sum_error_s"]["value"] < 1e-6


def test_same_seed_gives_same_instances():
    rp = run.import_ratpath()
    for workload in wl.WORKLOADS:
        assert wl.generate(rp, workload, 5, "tiny") == wl.generate(rp, workload, 5, "tiny")
        assert wl.generate(rp, workload, 5, "tiny") != wl.generate(rp, workload, 6, "tiny")


@pytest.mark.parametrize("workload", ["nonneg-ties", "neg-deep"])
def test_corrupted_tree_counts_as_failed(workload):
    rp = run.import_ratpath()
    graphs = [rp.parse(t) for t in wl.generate(rp, workload, 2, "tiny")]
    bench = run.Bench(rp, workload, graphs, 2, reference.Probe())
    inst = bench.instances[0]
    bench.run_oracle(inst)
    tree, _ = bench.solve(inst, {})
    bench.check(inst, tree)
    assert bench.tally.failed == 0

    # Raise the weight of one tree edge: the tree no longer matches the
    # graph, so the exact verify and the oracle both disagree with it.
    v = max(tree.parent)
    u, w, aux = tree.parent[v]
    bad = rp.SsspResult(tree.n, tree.source, {**tree.parent, v: (u, w + 1, aux)})
    bench.check(inst, bad)
    assert bench.tally.attempted == 2 and bench.tally.failed == 1
    assert bench.tally.failed_frac == 0.5
    assert run.judge(rp, None, None, inst.oracle_dist) is not None


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("nonneg-ties", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_span_self_and_children_add_up():
    rp = run.import_ratpath()
    tracer = Tracer(rp)
    g = rp.parse(wl.generate(rp, "nonneg-ties", 1, "tiny")[0])
    with tracer.installed(), tracer.root("solve"):
        rp.dijkstra_nonneg(g, 0, strategy="distcmp", seed=1)
    assert rp.dijkstra_nonneg.__name__ == "dijkstra_nonneg"
    assert not hasattr(rp.dijkstra_nonneg, "__wrapped__")  # restored on exit
    total = tracer.get("bench.solve", "total_s")
    children = tracer.get("sssp.dijkstra_nonneg", "total_s")
    assert 0 < children <= total
    assert abs(tracer.get("bench.solve", "self_s") + children - total) < 1e-9
    assert tracer.get("distcmp.DistCmp.compare", "calls") > 0
    assert tracer.max_sum_error < 1e-9
