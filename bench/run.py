"""Benchmark of ratpath's exact solvers: latency, memory and correctness.

    python3 bench/run.py --workload nonneg-ties --seed 1 --seconds 30 --trace 0

Run from the repository root.  One workload runs per process, single
threaded, on ratpath's public functions with default constants and
jobs=1.  The run

1. generates the workload's instances from the seed (untimed);
2. times set-up: importing ratpath afresh and parsing the serialized
   instances, several times, reporting the median;
3. with `--trace 0`, makes two passes over the instance set, whose size
   grows with `--seconds`, timing per instance the solver, the exact
   oracle, the pairwise strategy (non-negative workloads) and the exact
   verify of the solver's tree, and checking every solve against the
   verify and the oracle's distances.  Each time is scaled to a reference
   machine speed (see `reference.py`) and the faster of an instance's two
   passes counts;
4. with `--trace 1`, solves a prefix of the same instance set with and
   without the wrappers of `spans.py` and reports per-layer numbers and
   the tracing overhead instead.

Everything is printed to stdout; the last line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import workloads as wl
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 7
MIN_TRACED = 20
PASSES = 2
TAIL_LADDER = (50, 75, 90, 95, 99)

# Every end-to-end metric, in print order.  failed_frac is 0 on a correct
# build and pairwise_p50_s does not exist on neg-deep, so neither is in
# the gated set of BENCHMARK.json; both stay in the printed report.
END_TO_END = (
    ("solve_p50_s", "s"),
    ("solve_tail_s", "s"),
    ("oracle_p50_s", "s"),
    ("pairwise_p50_s", "s"),
    ("verify_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("failed_frac", "ratio"),
)
GATED = ("solve_p50_s", "solve_tail_s", "oracle_p50_s", "verify_p50_s", "peak_rss_mb", "setup_s")

LEVELS = 4


def _per_layer_table():
    """(name, unit, reader) of every per-layer metric.  A reader gets the
    Tracer and the TraceTotals of the traced run."""
    rows = [
        ("bench.solve.total_s", "s", lambda tr, t: t.per_solve(tr.get("bench.solve", "total_s"))),
        ("bench.pairwise.total_s", "s",
         lambda tr, t: t.per_solve(tr.get("bench.pairwise", "total_s", ("pairwise",)))),
        ("bench.verify.total_s", "s",
         lambda tr, t: t.per_solve(tr.get("bench.verify", "total_s", ("verify",)))),
        ("trace.overhead", "ratio", lambda tr, t: t.overhead()),
        ("trace.span_sum_error_s", "s", lambda tr, t: tr.max_sum_error),
        ("sssp.dijkstra_nonneg.self_s", "s", None),
        ("sssp.heap_pushes", "count", lambda tr, t: t.counter("heap_pushes")),
        ("sssp.relaxations", "count", lambda tr, t: t.counter("relaxations")),
        ("sssp.negative_sssp.self_s", "s", None),
        ("sssp.cut_preprocess.self_s", "s", None),
        ("sssp.cut_dijkstra.calls", "count", None),
        ("sssp.cut_dijkstra.total_s", "s", None),
        ("sssp.cut_heap_inserts", "count", lambda tr, t: t.counter("cut_heap_inserts")),
        ("sssp.cut_heap_inserts_max", "count", lambda tr, t: t.peak("cut_heap_inserts_max")),
        ("sssp.cut_inserts_bound_share", "ratio", lambda tr, t: t.peak("cut_inserts_bound_share")),
        ("sssp.cut_relaxations", "count", lambda tr, t: t.counter("cut_relaxations")),
        ("sssp.hitset_share", "ratio", lambda tr, t: t.counter("hitset_share")),
        ("sssp.pipeline_attempts", "count", lambda tr, t: t.counter("pipeline_attempts")),
        ("scaling.eps_feasible_price.self_s", "s", None),
        ("scaling.integer_sssp_arrays.calls", "count", None),
        ("scaling.integer_sssp_arrays.total_s", "s", None),
        ("scaling.rounds", "count", lambda tr, t: t.counter("scaling_rounds")),
        ("scaling.assemble_price.total_s", "s", None),
        ("distcmp.DistCmp.compare.calls", "count", None),
        ("distcmp.DistCmp.compare.total_s", "s", None),
        ("distcmp.DistCmp.insert_leaf.calls", "count", None),
        ("distcmp.DistCmp.insert_leaf.total_s", "s", None),
    ]
    for kind in ("level_queries", "easy_answers", "difficult_answers", "cover_fallbacks"):
        for lvl in range(LEVELS):
            rows.append((f"distcmp.{kind}.L{lvl}", "count",
                         lambda tr, t, kind=kind, lvl=lvl: t.level(kind, lvl)))
    rows.append(("distcmp.easy_share.L0", "ratio", lambda tr, t: t.easy_share()))
    for lvl in range(LEVELS - 1):
        rows.append((f"distcmp.ell_bits.L{lvl}", "bits",
                     lambda tr, t, lvl=lvl: tr.ell_bits[lvl] if lvl < len(tr.ell_bits) else 0))
    rows += [
        ("cover.SparseCover.__init__.calls", "count", None),
        ("cover.SparseCover.__init__.total_s", "s", None),
        ("cover.SparseCover.insert_edge.calls", "count", None),
        ("cover.SparseCover.insert_edge.total_s", "s", None),
        ("cover.cover_updates", "count", lambda tr, t: t.dc_counter("cover_updates")),
        ("cfrac.compare_via_approx.calls", "count", ("solve", "pairwise")),
        ("cfrac.compare_via_approx.total_s", "s", ("solve", "pairwise")),
        ("cfrac.best_approx.calls", "count", ("solve", "pairwise")),
        ("cfrac.best_approx.total_s", "s", ("solve", "pairwise")),
        ("inctree.IncTree.path_weight.calls", "count", ("solve", "pairwise")),
        ("inctree.IncTree.path_weight.total_s", "s", ("solve", "pairwise")),
        ("inctree.IncTree.insert_leaf.calls", "count", ("solve", "pairwise")),
        ("graph.parse.total_s", "s", lambda tr, t: tr.get("graph.parse", "total_s", ("setup",))),
        ("graph.verify_sssp.exact.total_s", "s", ("verify",)),
        ("graph.verify_sssp.fast.total_s", "s", None),
        ("graph.augment_source.total_s", "s", None),
        ("graph.bf_exact.calls", "count", None),
        ("rational.exact_bits_max", "bits", lambda tr, t: t.exact_bits_max),
    ]
    out = []
    for name, unit, reader in rows:
        if reader is None or isinstance(reader, tuple):
            # A span field, per traced solve, summed over the given roots.
            roots = reader or ("solve",)
            span, field = name.rsplit(".", 1)
            reader = (lambda tr, t, span=span, field=field, roots=roots:
                      t.per_solve(tr.get(span, field, roots)))
        out.append((name, unit, reader))
    return out


PER_LAYER = _per_layer_table()


class Tally:
    """Attempted and failed solves, with the reasons of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def record(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def judge(rp, tree, verified, oracle_dist):
    """Why a solve is wrong, or None.  `verified` is the exact verify's
    outcome on `tree` (None when the solve did not produce a tree)."""
    if not isinstance(tree, rp.SsspResult):
        return f"no tree: {type(tree).__name__}"
    if verified is not None and not verified.valid:
        return f"exact verify rejects the tree: {verified.reason}"
    if tree.distances() != oracle_dist:
        return "distances differ from the oracle"
    return None


def tail_percentile(count):
    """Highest ladder percentile with at least ten of `count` solves
    beyond it (50 when there is none, as in the tiny self-test sizes)."""
    ok = [p for p in TAIL_LADDER if count * (100 - p) / 100 >= 10]
    return ok[-1] if ok else 50


def percentile(xs, p):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def import_ratpath():
    """Import ratpath from this checkout's src/, never from elsewhere."""
    if not (SRC / "ratpath" / "__init__.py").is_file():
        raise SystemExit(f"error: no ratpath sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ratpath" or m.startswith("ratpath.")]:
        del sys.modules[name]
    rp = importlib.import_module("ratpath")
    if SRC.resolve() not in Path(rp.__file__).resolve().parents:
        raise SystemExit(f"error: ratpath imported from {rp.__file__}, not from {SRC}")
    return rp


def set_up(texts, probe):
    """Median over SETUP_REPS of: import ratpath afresh, parse all texts.
    Returns (scaled seconds, raw seconds, ratpath, graphs)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        scale = reference.NOMINAL_S / statistics.median([probe() for _ in range(5)])
        t0 = perf_counter()
        rp = import_ratpath()
        graphs = [rp.parse(t) for t in texts]
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * scale)
    return statistics.median(scaled), statistics.median(raw), rp, graphs


def timed(fn, *args, **kwargs):
    gc.collect()
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


class Instance:
    """One parsed instance plus what the checks need from its first pass."""

    def __init__(self, g, seed):
        self.g = g
        self.seed = seed
        self.oracle_dist = None
        self.digest = None
        # Per call kind, (pass, raw seconds) of each timed call.
        self.times = {"solve": [], "oracle": [], "pairwise": [], "verify": []}
        # Per pass, the reference probe taken just before the instance.
        self.probes = []


class Bench:
    def __init__(self, rp, workload, graphs, seed, probe):
        self.rp = rp
        self.workload = workload
        self.negative = wl.is_negative(workload)
        self.instances = [Instance(g, wl.instance_seed(seed, i)) for i, g in enumerate(graphs)]
        self.tally = Tally()
        self.exact_bits_max = 0
        self.pass_no = 0
        self.probe = probe

    def solve(self, inst, collect):
        """Timed solver call; returns (tree or None, seconds)."""
        gc.collect()
        t0 = perf_counter()
        try:
            tree = wl.solve(self.rp, self.workload, inst.g, inst.seed, collect)
        except Exception:  # a raising solve is a counted failure, not a crash
            traceback.print_exc(file=sys.stderr)
            return None, perf_counter() - t0
        return tree, perf_counter() - t0

    def run_oracle(self, inst):
        res, dt = timed(wl.oracle, self.rp, self.workload, inst.g)
        inst.times["oracle"].append((self.pass_no, dt))
        if inst.oracle_dist is None:
            inst.oracle_dist = wl.oracle_distances(self.rp, self.workload, res)
            for d in inst.oracle_dist:
                if d is not None:
                    bits = max(d.num.bit_length(), d.den.bit_length())
                    self.exact_bits_max = max(self.exact_bits_max, bits)

    def run_pairwise(self, inst):
        try:
            tree, dt = timed(wl.pairwise, self.rp, inst.g, inst.seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.tally.record("pairwise_delta raised")
            return
        inst.times["pairwise"].append((self.pass_no, dt))
        self.tally.record(judge(self.rp, tree, None, inst.oracle_dist))

    def check(self, inst, tree, verify=None):
        """Exact verify (timed, optionally inside `verify`), oracle
        distances and byte-identical output across passes."""
        if not isinstance(tree, self.rp.SsspResult):
            self.tally.record(judge(self.rp, tree, None, inst.oracle_dist))
            return
        with verify or contextlib.nullcontext():
            outcome, dt = timed(self.rp.verify_sssp, inst.g, tree, mode="exact")
        inst.times["verify"].append((self.pass_no, dt))
        reason = judge(self.rp, tree, outcome, inst.oracle_dist)
        if reason is None:
            digest = hashlib.sha256(self.rp.serialize_tree(tree).encode()).hexdigest()
            if inst.digest is None:
                inst.digest = digest
            elif digest != inst.digest:
                reason = "tree differs from the first pass"
        self.tally.record(reason)

    def measure(self):
        """PASSES passes over the instance set."""
        for _ in range(PASSES):
            for inst in self.instances:
                inst.probes.append(self.probe())
                tree, dt = self.solve(inst, {})
                inst.times["solve"].append((self.pass_no, dt))
                self.run_oracle(inst)
                if not self.negative:
                    self.run_pairwise(inst)
                self.check(inst, tree)
            self.pass_no += 1

    def best(self, kind, scaled=True):
        """Per instance, the fastest timed call of `kind` over the passes,
        scaled to reference speed by the probes around it (or raw)."""
        scales = [reference.scales([inst.probes[p] for inst in self.instances])
                  for p in range(self.pass_no)]
        out = []
        for i, inst in enumerate(self.instances):
            ts = [dt * (scales[p][i] if scaled else 1.0) for p, dt in inst.times[kind]]
            if ts:
                out.append(min(ts))
        return out

    def trace(self, seconds, tracer):
        """Solve a prefix of the instance set with and without wrappers."""
        totals = TraceTotals()
        start = perf_counter()
        for i, inst in enumerate(self.instances):
            if i >= MIN_TRACED and perf_counter() - start > seconds:
                break
            collect = {}
            # Alternate which side goes first so warm-up favours neither.
            if i % 2:
                tree, traced_s = self._traced_solve(tracer, inst, collect)
                _, plain_s = self.solve(inst, {})
            else:
                _, plain_s = self.solve(inst, {})
                tree, traced_s = self._traced_solve(tracer, inst, collect)
            totals.add(inst, collect, plain_s, traced_s)
            self.run_oracle(inst)
            with tracer.installed():
                if not self.negative:
                    with tracer.root("pairwise"):
                        self.run_pairwise(inst)
                self.check(inst, tree, verify=tracer.root("verify"))
        totals.exact_bits_max = self.exact_bits_max
        return totals

    def _traced_solve(self, tracer, inst, collect):
        with tracer.installed(), tracer.root("solve") as span:
            tree, _ = self.solve(inst, collect)
        return tree, span[0]


class TraceTotals:
    """Counters of the traced solver calls, summed per key."""

    def __init__(self):
        self.solves = 0
        self.sums = {}
        self.peaks = {}
        self.plain = []
        self.traced = []
        self.exact_bits_max = 0

    def add(self, inst, collect, plain_s, traced_s):
        self.solves += 1
        self.plain.append(plain_s)
        self.traced.append(traced_s)
        n = inst.g.n
        for key, val in collect.items():
            if key == "cut_heap_inserts_max":
                self.peaks[key] = max(self.peaks.get(key, 0), val)
                share = val / (n + 2 * n * math.sqrt(n))
                self.peaks["cut_inserts_bound_share"] = max(
                    self.peaks.get("cut_inserts_bound_share", 0.0), share)
            elif isinstance(val, list):
                acc = self.sums.setdefault(key, [])
                acc.extend([0] * (len(val) - len(acc)))
                for j, x in enumerate(val):
                    acc[j] += x
            else:
                self.sums[key] = self.sums.get(key, 0) + val
        if "hitset_size" in collect:
            self.sums["hitset_share"] = self.sums.get("hitset_share", 0.0) + collect["hitset_size"] / n

    def per_solve(self, value):
        return value / self.solves if self.solves else 0.0

    def counter(self, key):
        return self.per_solve(self.sums.get(key, 0))

    def peak(self, key):
        return self.peaks.get(key, 0)

    def _dc(self, kind):
        # The non-negative solver reports its structure as "distcmp.*",
        # the cut runs of the negative pipeline as "cut_dc.*".
        for prefix in ("distcmp.", "cut_dc."):
            if prefix + kind in self.sums:
                return self.sums[prefix + kind]
        return None

    def level(self, kind, lvl):
        vals = self._dc(kind) or []
        return self.per_solve(vals[lvl]) if lvl < len(vals) else 0.0

    def dc_counter(self, kind):
        return self.per_solve(self._dc(kind) or 0)

    def easy_share(self):
        queries = self._dc("level_queries") or [0]
        easy = self._dc("easy_answers") or [0]
        return easy[0] / queries[0] if queries[0] else 0.0

    def overhead(self):
        return statistics.median(self.traced) / statistics.median(self.plain)


def environment(rp, args, graphs):
    ns = sorted(g.n for g in graphs)
    ms = sorted(g.m for g in graphs)
    return {
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "ratpath": rp.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "instances": len(graphs),
        "n": [ns[0], ns[-1]],
        "m": [ms[0], ms[-1]],
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny instance sets, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    rp = import_ratpath()
    texts = wl.generate(rp, args.workload, args.seed, args.size, args.seconds)
    probe = reference.Probe()
    setup_s, setup_raw_s, rp, graphs = set_up(texts, probe)
    gc.collect()
    gc.freeze()
    bench = Bench(rp, args.workload, graphs, args.seed, probe)
    report = {"env": environment(rp, args, graphs)}

    if args.trace:
        tracer = Tracer(rp)
        with tracer.installed(), tracer.root("setup"):
            for t in texts:
                rp.parse(t)
        totals = bench.trace(args.seconds, tracer)
        metrics = {name: {"value": reader(tracer, totals), "unit": unit}
                   for name, unit, reader in PER_LAYER}
        report["traced_solves"] = totals.solves
        report["untraced_solve_p50_s"] = statistics.median(totals.plain)
        report["traced_solve_p50_s"] = statistics.median(totals.traced)
        printed = metrics
        correct = bench.tally.failed == 0 and tracer.max_sum_error < 1e-6
    else:
        bench.measure()
        solve, oracle = bench.best("solve"), bench.best("oracle")
        pair, verify = bench.best("pairwise"), bench.best("verify")
        p = tail_percentile(len(solve))
        values = {
            "solve_p50_s": statistics.median(solve),
            "solve_tail_s": percentile(solve, p),
            "oracle_p50_s": statistics.median(oracle),
            "pairwise_p50_s": statistics.median(pair) if pair else None,
            "verify_p50_s": statistics.median(verify) if verify else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "failed_frac": bench.tally.failed_frac,
        }
        printed = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        metrics = {name: printed[name] for name in GATED}
        raw = {kind: bench.best(kind, scaled=False) for kind in ("solve", "oracle", "pairwise", "verify")}
        report["raw_wall_s"] = {
            "setup": setup_raw_s,
            **{kind + "_p50": statistics.median(ts) for kind, ts in raw.items() if ts},
            "solve_tail": percentile(raw["solve"], p),
        }
        report.update({
            "passes": PASSES,
            "timed_instances": len(solve),
            "tail_percentile": p,
            "tail_beyond": len(solve) - math.ceil(len(solve) * p / 100),
            "tree_digest": hashlib.sha256(
                "".join(i.digest or "-" for i in bench.instances).encode()).hexdigest(),
            "exact_bits_max": bench.exact_bits_max,
            "reference_probe_p50_s": statistics.median(
                x for inst in bench.instances for x in inst.probes),
        })
        correct = bench.tally.failed == 0 and all(v is not None for n, v in values.items()
                                                  if n in GATED)

    report["attempted"] = bench.tally.attempted
    report["failed"] = bench.tally.failed
    report["failures"] = bench.tally.reasons
    for name, m in printed.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<40} {value:>14} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
