"""The library still has every name the benchmark's tracer wraps.

`bench/spans.py` wraps library functions where the calling module looks
them up (`sssp.bf_exact`, `sssp.verify_sssp`, `sssp.augment_source`,
`sssp.compare_via_approx`, `scaling.integer_sssp_arrays`, ...).  If the
library drops one of those names, every traced benchmark run fails; this
test fails first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import ratpath as rp
from ratpath.graph import gen_random

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_exact_verify_accepts():
    spans = _load_spans()
    verify = rp.verify_sssp
    g = gen_random(16, 48, 3, "small", "priced")
    tracer = spans.Tracer(rp)
    with tracer.installed():
        with tracer.root("solve"):
            tree = rp.negative_sssp(g, 0, seed=1)
        with tracer.root("verify"):
            out = rp.verify_sssp(g, tree, mode="exact")
    assert isinstance(tree, rp.SsspResult)
    assert out.valid
    assert tracer.get("graph.verify_sssp.exact", "calls", ("verify",)) == 1
    assert tracer.get("sssp.cut_dijkstra", "calls") >= 1
    assert rp.verify_sssp is verify  # restored on exit


def _ties(seed: int):
    # Every weight 1/3: the exact ties that relaxation tests meet are put
    # to `DistCmp.compare`, which top words spare every other comparison.
    third = rp.BigRational(1, 3)
    skeleton = gen_random(20, 80, seed)
    return rp.WeightedDigraph(20, [(e.tail, e.head, third) for e in skeleton.edges], source=0)


def test_tracer_records_nonneg_strategies():
    # The non-negative workloads time distcmp under "solve" and
    # pairwise_delta under "pairwise"; each wrapped name must still be
    # the one these strategies call.
    spans = _load_spans()
    g = gen_random(16, 48, 3, "small")
    tracer = spans.Tracer(rp)
    with tracer.installed():
        with tracer.root("solve"):
            rp.dijkstra_nonneg(_ties(3), 0, strategy="distcmp", seed=1)
        with tracer.root("pairwise"):
            rp.dijkstra_nonneg(g, 0, strategy="pairwise_delta", seed=1)
    assert tracer.get("distcmp.DistCmp.compare", "calls") >= 1
    for name in ("cfrac.best_approx", "cfrac.compare_via_approx", "inctree.IncTree.path_weight"):
        assert tracer.get(name, "calls", ("pairwise",)) >= 1, name


def test_traced_compare_counts_every_level_0_query():
    # Every level-0 query of a distcmp solve enters through the traced
    # `DistCmp.compare`, so a faster path cannot bypass the span.
    spans = _load_spans()
    for seed in range(3):
        g = _ties(seed)
        tracer = spans.Tracer(rp)
        collect = {}
        with tracer.installed():
            with tracer.root("solve"):
                rp.dijkstra_nonneg(g, 0, strategy="distcmp", seed=seed, collect=collect)
        calls = tracer.get("distcmp.DistCmp.compare", "calls")
        assert calls == collect["distcmp.level_queries"][0] > 0
