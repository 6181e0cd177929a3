"""Spans recorded around calls into ratpath, from outside the library.

`Tracer.installed()` replaces selected public functions and methods with
timing wrappers, at the place where the calling code looks them up, and
restores them on exit.  A wrapped call records a span only inside a root
span that the benchmark opens with `Tracer.root()`; calls outside any root
run through untimed.

Each span keeps its total time and, separately, its self time: the time
it was the innermost open span.  Both are read from the same clock
readings, so for every span the children's totals plus its self time
equal its total up to rounding; `max_sum_error` records the worst
deviation seen at a root, which exposes broken bookkeeping.

Spans are aggregated in memory per (root, name) as calls, total and self
seconds, and read out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter


def _targets(rp):
    """(owner, attribute, span name) of every wrapped callable.

    Names a module imports from another module are wrapped in the
    importing module, where the call looks them up.
    """
    sssp, scaling, distcmp, cfrac = rp.sssp, rp.scaling, rp.distcmp, rp.cfrac
    return [
        (rp, "dijkstra_nonneg", "sssp.dijkstra_nonneg"),
        (rp, "negative_sssp", "sssp.negative_sssp"),
        (sssp, "cut_preprocess", "sssp.cut_preprocess"),
        (sssp, "cut_dijkstra", "sssp.cut_dijkstra"),
        (sssp, "eps_feasible_price", "scaling.eps_feasible_price"),
        (scaling, "integer_sssp_arrays", "scaling.integer_sssp_arrays"),
        (scaling, "assemble_price", "scaling.assemble_price"),
        (sssp, "compare_via_approx", "cfrac.compare_via_approx"),
        # PairwiseDeltaComparator imports it from cfrac at call time.
        (cfrac, "compare_via_approx", "cfrac.compare_via_approx"),
        (distcmp, "best_approx", "cfrac.best_approx"),
        (rp.DistCmp, "__init__", "distcmp.DistCmp.__init__"),
        (rp.DistCmp, "compare", "distcmp.DistCmp.compare"),
        (rp.DistCmp, "insert_leaf", "distcmp.DistCmp.insert_leaf"),
        (rp.SparseCover, "__init__", "cover.SparseCover.__init__"),
        (rp.SparseCover, "insert_edge", "cover.SparseCover.insert_edge"),
        (rp.IncTree, "path_weight", "inctree.IncTree.path_weight"),
        (rp.IncTree, "insert_leaf", "inctree.IncTree.insert_leaf"),
        (rp, "parse", "graph.parse"),
        (rp, "verify_sssp", "graph.verify_sssp"),
        (sssp, "verify_sssp", "graph.verify_sssp"),
        (sssp, "augment_source", "graph.augment_source"),
        # Only the solver's internal fallbacks; the benchmark's own oracle
        # calls go through the package attribute.
        (sssp, "bf_exact", "graph.bf_exact"),
    ]


def _verify_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return f"graph.verify_sssp.{mode}"


class _Frame:
    __slots__ = ("key", "start", "resume", "self_s", "child_s")

    def __init__(self, key, start):
        self.key = key
        self.start = start
        self.resume = start
        self.self_s = 0.0
        self.child_s = 0.0


class Tracer:
    def __init__(self, rp):
        self._rp = rp
        self._stack = []
        self._root = None
        # (root, name) -> [calls, total_s, self_s]
        self.stats = {}
        self.max_sum_error = 0.0
        # Level widths (ell) of DistCmp structures built under the "solve" root.
        self.ell_bits = []

    # -- span bookkeeping --------------------------------------------

    def _open(self, key):
        now = perf_counter()
        if self._stack:
            parent = self._stack[-1]
            parent.self_s += now - parent.resume
        frame = _Frame(key, now)
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        now = perf_counter()
        frame.self_s += now - frame.resume
        total = now - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.key} closed out of order")
        rec = self.stats.get(frame.key)
        if rec is None:
            rec = self.stats[frame.key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += total
        rec[2] += frame.self_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += total
            parent.resume = now
        else:
            err = abs(frame.child_s + frame.self_s - total)
            self.max_sum_error = max(self.max_sum_error, err)
        return total

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-level span; yields a one-item list that receives its
        total seconds on exit."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._root = name
        frame = self._open((name, "bench." + name))
        out = [None]
        try:
            yield out
        finally:
            out[0] = self._close(frame)
            self._root = None

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = _verify_name(args, kwargs) if name == "graph.verify_sssp" else name
            if span == "distcmp.DistCmp.__init__" and tracer._root == "solve":
                tracer._note_ell(args[1].ell)
            frame = tracer._open((tracer._root, span))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return wrapper

    def _note_ell(self, ell):
        for i, bits in enumerate(ell):
            if i == len(self.ell_bits):
                self.ell_bits.append(bits)
            else:
                self.ell_bits[i] = max(self.ell_bits[i], bits)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _targets(self._rp):
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- read-out -----------------------------------------------------------

    def get(self, name, field, roots=("solve",)):
        """Sum of `field` ("calls", "total_s" or "self_s") of span `name`
        over the given roots."""
        idx = {"calls": 0, "total_s": 1, "self_s": 2}[field]
        return sum(self.stats.get((r, name), (0, 0.0, 0.0))[idx] for r in roots)
