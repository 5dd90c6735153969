"""Tests of the benchmark itself: metric names and units, the checker, failure modes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_spec_lists_exactly_the_emitted_metrics():
    assert {(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]} == {
        (k, u, b) for k, (u, b) in bench.END_TO_END.items()}
    assert {(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        (k, u, b) for k, (u, b, _) in tracing.PER_LAYER.items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(name):
    line, detail = bench.run_workload(name, 3, 0.01, trace=False, tiny=True, setup_repeats=1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= len(detail["per_op_ms"])
    assert set(line["metrics"]) == set(bench.END_TO_END)
    for key, (unit, better) in bench.END_TO_END.items():
        value = line["metrics"][key]
        assert value["unit"] == unit and np.isfinite(value["value"]) and value["value"] > 0
        assert detail["directions"][key] == better
    assert detail["env"]["python"] and detail["env"]["thread_env"] is not None
    assert detail["tail"]["ops_beyond"] == bench.TAIL_BEYOND


def test_tiny_traced_run_emits_every_per_layer_metric():
    line, detail = bench.run_workload("cli", 3, 0.01, trace=True, tiny=True)
    assert line["correct"]
    assert set(line["metrics"]) == set(tracing.PER_LAYER)
    for key, (unit, better, _) in tracing.PER_LAYER.items():
        assert line["metrics"][key]["unit"] == unit
        assert detail["directions"][key] == better
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["cli.run.calls"] >= 1 and m["cli.run.self_s"] > 0 and m["io.parse.s"] > 0
    assert m["trace.ops_per_s"] > 0 and m["trace.untraced_ops_per_s"] > 0
    assert detail["self_s_per_pass"]["cli.run"] > 0
    assert set(detail["moves"]) == set(tracing.PER_LAYER)


def test_tracer_restores_the_library():
    import osclass
    from osclass import linalg, osdist

    originals = (osdist.amplified_map_norm, linalg.op_norm, osdist.op_norm, np.linalg.svd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert osdist.op_norm is linalg.op_norm is osclass.op_norm
        assert osdist.op_norm is not originals[1]
    finally:
        tracer.uninstall()
    assert (osdist.amplified_map_norm, linalg.op_norm, osdist.op_norm, np.linalg.svd) == originals


def _rigid_oracle_op():
    wl = workloads.build("exact", 5, "", tiny=True)
    return next(op for op in wl.ops if op.kind.startswith("oracle.m5.rigid"))


def test_checker_fails_an_injected_wrong_verdict():
    op = _rigid_oracle_op()
    good = op.call()
    assert op.check(good) is None
    wrong = dataclasses.replace(op, call=lambda: dataclasses.replace(good, verdict="NotIsomorphic"))
    line, detail = bench.run_workload("exact", 5, 0.01, trace=False, tiny=True, setup_repeats=1,
                                      extra_ops=[wrong])
    assert line["failed"] == 1 and not line["correct"]
    assert line["metrics"]["ops_ok_frac"]["value"] < 1.0
    assert detail["failures"][0]["op"] == op.kind


@pytest.mark.parametrize("key", ["forward_coeffs", "backward_coeffs"])
def test_checker_fails_a_tampered_oracle_coefficient(key):
    op = _rigid_oracle_op()
    dec = op.call()
    coeffs = np.array(dec.certificate[key], dtype=complex)
    coeffs[1] += 1e-4
    tampered = dataclasses.replace(dec, certificate={**dec.certificate, key: coeffs})
    assert "residual" in op.check(tampered)


@pytest.mark.parametrize("key", ["forward", "backward"])
def test_checker_fails_a_tampered_degree_one_map(key):
    wl = workloads.build("exact", 5, "", tiny=True)
    op = next(o for o in wl.ops if o.kind == "deg1.d1.m5.affine")
    dec = op.call()
    assert op.check(dec) is None
    bad = dec.witness[key].coeffs.copy()
    bad[0, 2] += 1e-4
    witness = {**dec.witness, key: dataclasses.replace(dec.witness[key], coeffs=bad)}
    assert key in op.check(dataclasses.replace(dec, witness=witness))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
