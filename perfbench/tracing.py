"""In-memory tracing of osclass for the traced benchmark run.

The tracer wraps every public function of every osclass module in each
namespace that binds it (``from .linalg import op_norm`` leaves copies in
``opsys``, ``osdist`` and ``unitary``), so calls through module globals are
seen too.  Entry points record spans (name, start, end, parent span, op id);
hot leaves only add to call and time counters.  Nothing is written until the
run ends.  Times are rescaled to the reference speed of the op they fall in,
as the end-to-end latencies are.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize

#: Helpers called once per matrix entry, point or point pair.  A counter on
#: them would cost more than the work it counts; their time stays in the
#: caller's self time.
UNWRAPPED = {"linalg.as_matrix", "linalg.as_vector", "linalg.vec", "unitary.circle_dist",
             "io.parse_complex", "io.jsonable"}

#: Hot leaves: aggregated as call and time counters instead of spans.
LEAVES = {"linalg.op_norm", "formulas.eval_formula"}

#: Which per-layer figure a ``scipy.optimize.minimize`` call adds its nfev to,
#: by the span that called it.
NFEV_BY_PARENT = {"osdist.amplified_map_norm": "osdist.inner.nfev",
                  "osdist.dn_search": "osdist.outer.nfev",
                  "osdist.wt_classify": "osdist.wt.nfev"}

IO_PARSE = {"io.load_json", "io.parse_matrix", "io.parse_system", "io.parse_point_set",
            "io.parse_structure"}

ESTIMATE_HELD = "ops_per_s on estimate, dn_zero_excess and inner_norm_mean held"

# name -> (unit, better, what it should move: end-to-end metric on workload)
PER_LAYER = {
    "cli.run.calls": ("count/pass", "lower", "op_p50_ms on cli"),
    "cli.run.self_s": ("s/pass", "lower", "op_p50_ms on cli"),
    "io.parse.s": ("s/pass", "lower", "op_p50_ms on cli"),
    "io.report.s": ("s/pass", "lower", "op_p50_ms on cli"),
    "unitary.spectrum.calls": ("count/pass", "lower", "op_tail_ms, ops_per_s on cli"),
    "unitary.spectrum.s": ("s/pass", "lower", "op_tail_ms, ops_per_s on cli"),
    "unitary.canonical_form.s": ("s/pass", "lower", "op_tail_ms, ops_per_s on cli"),
    "unitary.rigid_equivalent.s": ("s/pass", "lower", "op_tail_ms, ops_per_s on cli"),
    "unitary.cois_unitary_theorem.s": ("s/pass", "lower", "op_tail_ms, ops_per_s on cli"),
    "unitary.cois_unitary_oracle.calls": ("count/pass", "lower",
                                          "ops_per_s, op_tail_ms, peak_rss_mb on exact"),
    "unitary.cois_unitary_oracle.s": ("s/pass", "lower",
                                      "ops_per_s, op_tail_ms, peak_rss_mb on exact"),
    "unitary.oracle.bijections": ("computed/pass", "lower",
                                  "ops_per_s, op_tail_ms, peak_rss_mb on exact"),
    "degree1.degree_one_homeomorphic.s": ("s/pass", "lower", "ops_per_s, op_tail_ms on exact"),
    "degree1.deg1_via_opsys.s": ("s/pass", "lower", "ops_per_s, op_tail_ms on exact"),
    "degree1.tried": ("count/pass", "lower", "ops_per_s, op_tail_ms on exact"),
    "degree1.tried_frac": ("ratio", "lower", "ops_per_s, op_tail_ms on exact"),
    "linalg.op_norm.calls": ("count/pass", "lower", "ops_per_s on estimate"),
    "linalg.op_norm.s": ("s/pass", "lower", "ops_per_s on estimate"),
    "linalg.span_membership.calls": ("count/pass", "lower", "op_p50_ms on cli"),
    "linalg.gram_rank.calls": ("count/pass", "lower", "op_p50_ms on cli"),
    "linalg.eig_normal.s": ("s/pass", "lower", "op_p50_ms on cli"),
    "numpy.svd.calls": ("count/pass", "lower", "ops_per_s on estimate"),
    "numpy.pinv.calls": ("count/pass", "lower", "ops_per_s on exact"),
    "opsys.build_system.s": ("s/pass", "lower", "op_p50_ms on cli"),
    "opsys.amplified_norm.s": ("s/pass", "lower", "op_p50_ms on cli"),
    "osdist.dgh_weighted.s": ("s/pass", "lower", ESTIMATE_HELD),
    "osdist.dn_search.calls": ("count/pass", "lower", ESTIMATE_HELD),
    "osdist.dn_search.self_s": ("s/pass", "lower", ESTIMATE_HELD),
    "osdist.amplified_map_norm.calls": ("count/pass", "lower", ESTIMATE_HELD),
    "osdist.amplified_map_norm.s": ("s/pass", "lower", ESTIMATE_HELD),
    "osdist.outer.nfev": ("count/pass", "lower", ESTIMATE_HELD),
    "osdist.inner.nfev": ("count/pass", "lower", ESTIMATE_HELD),
    "osdist.wt_classify.s": ("s/pass", "lower", ESTIMATE_HELD),
    "osdist.wt.nfev": ("count/pass", "lower", ESTIMATE_HELD),
    "metric.dk_bruteforce.calls": ("count/pass", "lower", "ops_per_s, op_tail_ms on structures"),
    "metric.dk_bruteforce.s": ("s/pass", "lower", "ops_per_s, op_tail_ms on structures"),
    "metric.dgh_structures.s": ("s/pass", "lower", "ops_per_s, op_tail_ms on structures"),
    "metric.FiniteStructure.init.s": ("s/pass", "lower", "ops_per_s, op_tail_ms on structures"),
    "formulas.universal_fingerprint.s": ("s/pass", "lower", "ops_per_s on structures"),
    "formulas.eval_formula.calls": ("count/pass", "lower", "ops_per_s on structures"),
}
MODULES = ("cli", "io", "unitary", "degree1", "linalg", "opsys", "osdist", "metric", "formulas")
PER_LAYER.update({f"{m}.errors": ("count/pass", "lower", "ops_failed on every workload")
                  for m in MODULES})
PER_LAYER.update({
    "trace.ops_per_s": ("1/s", "higher", "ops_per_s traced; compare trace.untraced_ops_per_s"),
    "trace.untraced_ops_per_s": ("1/s", "higher", "ops_per_s untraced, same run"),
    "trace.overhead_frac": ("ratio", "lower", "tracing cost: untraced/traced ops_per_s - 1"),
})


class Tracer:
    """Wraps osclass in place; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.stack: list = []
        self.counts: dict = defaultdict(float)
        self.leaf_s: dict = defaultdict(float)  # (figure, op id) -> wall seconds
        self.speed: dict = {}  # op id -> reference-speed factor
        self._undo: list = []

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "osclass" or n.startswith("osclass.")) and m is not None]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                wrappers[fn] = self._leaf(fn, name) if name in LEAVES else self._span(fn, name)
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._patch(mod, attr, wrappers[fn])
        fs = sys.modules["osclass.metric"].FiniteStructure
        self._patch(fs, "__post_init__",
                    self._span(fs.__post_init__, "metric.FiniteStructure.init"))
        self._patch(np.linalg, "svd", self._leaf(np.linalg.svd, "numpy.svd"))
        self._patch(np.linalg, "pinv", self._leaf(np.linalg.pinv, "numpy.pinv"))
        self._patch(scipy.optimize, "minimize", self._minimize(scipy.optimize.minimize))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # --- wrappers ----------------------------------------------------------

    def _span(self, fn, name):
        module = name.partition(".")[0]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([name, clock(), 0.0, parent, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or spans[parent][0].partition(".")[0] != module:
                    self.counts[f"{module}.errors"] += 1
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, name):
        counts, leaf_s = self.counts, self.leaf_s
        clock = time.perf_counter
        calls, secs = f"{name}.calls", f"{name}.s"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf_s[secs, self.op] += clock() - t0
                counts[calls] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _minimize(self, fn):
        def wrapper(*args, **kwargs):
            parent = self.spans[self.stack[-1]][0] if self.enabled and self.stack else None
            result = fn(*args, **kwargs)
            if parent in NFEV_BY_PARENT:
                self.counts[NFEV_BY_PARENT[parent]] += int(result.nfev)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result):
        """Work counters read from the inputs and results of entry points."""
        if name == "unitary.cois_unitary_oracle":
            u, v = np.asarray(args[0]), np.asarray(args[1])
            # computed, not counted: the oracle scores every bijection of
            # equal-size spectra, and generated spectra have distinct points
            if u.shape == v.shape:
                self.counts["unitary.oracle.bijections"] += math.factorial(u.shape[0])
        elif name in ("degree1.degree_one_homeomorphic", "degree1.deg1_via_opsys"):
            d, e = args[0], args[1]
            self.counts["degree1.tried"] += result.tried
            if d.size == e.size:
                self.counts["degree1.bijections"] += math.factorial(d.size)

    # --- aggregation ---------------------------------------------------------

    def per_layer(self, passes: int) -> dict:
        """Per-layer figures per pass of the batch, with self times per span name."""
        spans = self.spans
        dur = [(s[2] - s[1]) * self.speed.get(s[4], 1.0) for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        for (figure, op), secs in self.leaf_s.items():
            self.counts[figure] += secs * self.speed.get(op, 1.0)
        self.leaf_s.clear()

        def nested_in(i, group):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in group:
                    return True
                p = spans[p][3]
            return False

        def inclusive(group):
            return sum(dur[i] for i, s in enumerate(spans)
                       if s[0] in group and not nested_in(i, group))

        calls, self_s = defaultdict(int), defaultdict(float)
        for i, s in enumerate(spans):
            calls[s[0]] += 1
            self_s[s[0]] += dur[i] - child[i]
        c = self.counts
        out = {
            "cli.run.calls": calls["cli.run"],
            "cli.run.self_s": self_s["cli.run"],
            "io.parse.s": inclusive(IO_PARSE),
            "io.report.s": inclusive({"io.canonical_report"}),
            "unitary.spectrum.calls": calls["unitary.spectrum"],
            "unitary.oracle.bijections": c["unitary.oracle.bijections"],
            "unitary.cois_unitary_oracle.calls": calls["unitary.cois_unitary_oracle"],
            "degree1.tried": c["degree1.tried"],
            "linalg.op_norm.calls": c["linalg.op_norm.calls"],
            "linalg.op_norm.s": c["linalg.op_norm.s"],
            "linalg.span_membership.calls": calls["linalg.span_membership"],
            "linalg.gram_rank.calls": calls["linalg.gram_rank"],
            "numpy.svd.calls": c["numpy.svd.calls"],
            "numpy.pinv.calls": c["numpy.pinv.calls"],
            "osdist.dn_search.calls": calls["osdist.dn_search"],
            "osdist.dn_search.self_s": self_s["osdist.dn_search"],
            "osdist.amplified_map_norm.calls": calls["osdist.amplified_map_norm"],
            "osdist.outer.nfev": c["osdist.outer.nfev"],
            "osdist.inner.nfev": c["osdist.inner.nfev"],
            "osdist.wt.nfev": c["osdist.wt.nfev"],
            "metric.dk_bruteforce.calls": calls["metric.dk_bruteforce"],
            "formulas.eval_formula.calls": c["formulas.eval_formula.calls"],
        }
        for key in PER_LAYER:
            if key.endswith(".s") and key not in out:
                out[key] = inclusive({key[:-2]})
        for m in MODULES:
            out[f"{m}.errors"] = c[f"{m}.errors"]
        per_pass = {k: v / passes for k, v in out.items()}
        per_pass["degree1.tried_frac"] = (c["degree1.tried"] / c["degree1.bijections"]
                                          if c["degree1.bijections"] else 0.0)
        selfs = {k: v / passes for k, v in sorted(self_s.items())}
        return {"metrics": per_pass, "self_s": selfs, "spans": len(spans)}

    def dump(self) -> dict:
        """Raw spans (wall clock), counters, and each op's reference-speed factor."""
        return {"spans": self.spans, "counts": dict(self.counts), "speed": self.speed}
