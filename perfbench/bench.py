"""Measurement loop, metrics and result record of the osclass benchmark.

One client runs the batch in a closed loop: the next op starts only when the
previous one has returned and been checked.  The batch is repeated until the
run's time is up; each op's latency is the median of its repeats, and the
end-to-end figures are taken over those per-op medians, so every run reports
on the same fixed set of ops.

Latencies are reported at a fixed reference speed.  The host's speed drifts
by +-30% within seconds (other tenants share the cores), so each op's wall
time is divided by the time of a fixed reference kernel run just before and
just after it, and multiplied by the kernel's nominal time.  Raw wall times
are kept in the run record.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import osclass
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: name -> (unit, better); the untraced run reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ops_ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "dn_zero_excess": ("nat", "lower"),
    "inner_norm_mean": ("ratio", "higher"),
}

#: The tail is the latency with this many ops beyond it.
TAIL_BEYOND = 10

SETUP_REPEATS = 5

#: The reference kernel: a tiny SVD and a short Python loop, the two kinds of
#: work osclass ops are made of.  Its nominal time is about its median on the
#: machine the baseline was recorded on (see README.md), so reported
#: latencies read as typical wall times there.
REF_REPS = 60
REF_NOMINAL_S = 1.0e-3
_REF_MATRIX = np.array([[1.0 + 0.5j, -0.3, 0.2j], [0.4, 0.9 - 0.1j, -0.6], [0.1j, 0.7, -1.2]])
_SVD = np.linalg.svd  # bound before the tracer patches numpy


def reference_kernel() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(REF_REPS):
        acc += float(_SVD(_REF_MATRIX, compute_uv=False)[0])
        acc += sum(j * j for j in range(50))
    return time.perf_counter() - start


class Tally:
    """Latencies, results and failures of the ops of one batch."""

    def __init__(self, n: int):
        self.samples = [[] for _ in range(n)]  # at reference speed
        self.raw = [[] for _ in range(n)]  # wall time
        self.refs: list = []
        self.results = [None] * n
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def fail(self, kind: str, reason: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"op": kind, "reason": reason})


def run_op(i: int, op, tally: Tally, tracer=None):
    """Time one op (tracing only the call), then check its output."""
    ref_before = reference_kernel()
    if tracer is not None:
        tracer.op = tally.attempted
        tracer.enabled = True
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    ref = (ref_before + reference_kernel()) / 2
    if tracer is not None:
        tracer.speed[tracer.op] = REF_NOMINAL_S / ref
    tally.refs.append(ref)
    tally.raw[i].append(elapsed)
    tally.samples[i].append(elapsed * REF_NOMINAL_S / ref)
    tally.results[i] = result
    tally.attempted += 1
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error:
        tally.fail(op.kind, error)


def run_passes(ops, seconds: float, tally: Tally, tracer=None, whole: bool = False) -> int:
    """Repeat the batch for ``seconds``; the first pass always completes.

    With ``whole`` the time is checked only between passes, so every pass
    is complete and counts per pass are exact.  Returns complete passes.
    """
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for i, op in enumerate(ops):
            if passes and not whole and time.perf_counter() >= deadline:
                return passes
            run_op(i, op, tally, tracer)
        passes += 1
        if time.perf_counter() >= deadline:
            return passes


def latency_summary(tally: Tally) -> dict:
    med = [statistics.median(s) for s in tally.samples]
    n = len(med)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a batch needs more than {TAIL_BEYOND} ops, has {n}")
    return {
        "ops_per_s": n / sum(med),
        "op_p50_ms": statistics.median(med) * 1e3,
        "op_tail_ms": sorted(med)[n - TAIL_BEYOND - 1] * 1e3,
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "ops": n,
        "per_op_s": med,
        "raw_per_op_s": [statistics.median(s) for s in tally.raw],
        "ref_median_ms": statistics.median(tally.refs) * 1e3,
    }


def quality(probe, results) -> dict:
    dn = [r["estimate"] for op, r in zip(probe, results) if op.quality == "dn_zero"]
    inner = [float(r) for op, r in zip(probe, results) if op.quality == "inner_norm"]
    return {"dn_zero_excess": statistics.fmean(dn), "inner_norm_mean": statistics.fmean(inner)}


def measure_setup(name: str, seed: int, repeats: int = SETUP_REPEATS):
    """Median time, over fresh processes, to import osclass and build the inputs.

    Each process's wall time is taken at reference speed from kernels run just
    before and just after it; the wall times are returned alongside.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    reference_kernel()  # its first call pays numpy's lazy set-up
    times, wall = [], []
    for _ in range(repeats):
        workdir = tempfile.mkdtemp(prefix=f"setup-{name}-", dir=OUT)
        ref_before = reference_kernel()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), workdir],
                capture_output=True, text=True, env=env, timeout=120, check=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        wall.append(float(proc.stdout.split()[-1]))
        times.append(wall[-1] * REF_NOMINAL_S * 2 / (ref_before + reference_kernel()))
    return statistics.median(times), wall


def env_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS") or k.startswith("OMP_")},
        "platform": platform.platform(),
    }


def warm_up(name: str, seed: int):
    """Run the tiny batch once, unmeasured, so lazy set-up is not timed."""
    workdir = tempfile.mkdtemp(prefix="warmup-", dir=OUT)
    try:
        wl = workloads.build(name, seed, os.path.relpath(workdir), tiny=True)
        run_passes(wl.ops, 0.0, Tally(len(wl.ops)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_repeats: int = SETUP_REPEATS, extra_ops=()) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record).

    ``tiny`` and ``extra_ops`` exist for the benchmark's own tests.
    """
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        setup_s = setup_wall = None
        if not trace:
            setup_s, setup_wall = measure_setup(name, seed, setup_repeats)
        wl = workloads.build(name, seed, os.path.relpath(workdir), tiny=tiny)
        ops = wl.ops + list(extra_ops)
        if not tiny:
            warm_up(name, seed)
        detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "env": env_record()}
        if trace:
            metrics, counts = _traced(name, seed, ops, seconds, detail)
        else:
            metrics, counts = _untraced(wl, ops, seconds, detail)
            metrics["setup_s"] = setup_s
            detail["setup_wall_s"] = setup_wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = END_TO_END if not trace else tracing.PER_LAYER
    detail["directions"] = {k: units[k][1] for k in metrics}
    attempted, failed = counts
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k][0]} for k in units}}
    return line, detail


def _untraced(wl, ops, seconds, detail):
    tally = Tally(len(ops))
    passes = run_passes(ops, seconds, tally)
    summary = latency_summary(tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.probe[0] in ops:  # estimate times the probe as part of its batch
        probe = Tally(0)
        results = [tally.results[ops.index(op)] for op in wl.probe]
    else:
        probe = Tally(len(wl.probe))
        run_passes(wl.probe, 0.0, probe)
        results = probe.results
    attempted, failed = tally.attempted + probe.attempted, tally.failed + probe.failed
    metrics = {
        "ops_per_s": summary["ops_per_s"],
        "op_p50_ms": summary["op_p50_ms"],
        "op_tail_ms": summary["op_tail_ms"],
        "ops_ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        **quality(wl.probe, results),
    }
    detail.update({
        "passes": passes,
        "ops": summary["ops"],
        "tail": {"percentile": summary["tail_percentile"], "ops_beyond": TAIL_BEYOND,
                 "ops": summary["ops"]},
        "reference_kernel_ms": {"nominal": REF_NOMINAL_S * 1e3, "median": summary["ref_median_ms"]},
        "per_op_ms": sorted(([op.kind, round(t * 1e3, 3), round(raw * 1e3, 3)] for op, t, raw
                             in zip(ops, summary["per_op_s"], summary["raw_per_op_s"])),
                            key=lambda row: row[1]),
        "failures": tally.failures + probe.failures,
    })
    return metrics, (attempted, failed)


def _traced(name, seed, ops, seconds, detail):
    plain = Tally(len(ops))
    run_passes(ops, seconds / 2, plain)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Tally(len(ops))
        passes = run_passes(ops, seconds / 2, traced, tracer, whole=True)
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(passes)
    untraced_rate = latency_summary(plain)["ops_per_s"]
    traced_rate = latency_summary(traced)["ops_per_s"]
    metrics = dict(layers["metrics"])
    metrics.update({"trace.ops_per_s": traced_rate, "trace.untraced_ops_per_s": untraced_rate,
                    "trace.overhead_frac": untraced_rate / traced_rate - 1.0})
    path = os.path.join(OUT, f"trace-{name}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ops": [op.kind for op in ops], **tracer.dump()}, fh)
    detail.update({
        "traced_passes": passes,
        "spans": layers["spans"],
        "self_s_per_pass": layers["self_s"],
        "moves": {k: tracing.PER_LAYER[k][2] for k in tracing.PER_LAYER},
        "trace_file": os.path.relpath(path, ROOT),
        "failures": plain.failures + traced.failures,
    })
    return metrics, (plain.attempted + traced.attempted, plain.failed + traced.failed)


def check_source():
    """The program must be the one in this checkout's ``src``."""
    where = os.path.dirname(os.path.abspath(osclass.__file__))
    if where != os.path.join(SRC, "osclass"):
        raise RuntimeError(f"osclass imported from {where}, not from {SRC}")
