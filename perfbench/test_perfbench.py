"""Tests of the benchmark itself: the output check and the traced counts."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # first: puts the checkout's src/ on sys.path
import bench_check
import bench_ops
import bench_trace

FROZEN_OP = bench_ops.ops_for("series", 0)[3]  # K=10, lambda=2


def _run(args: list[str], outdir: Path, tracer=None) -> Path:
    _, _, error = run.run_op(args, outdir, tracer)
    assert error is None, error
    (run_dir,) = [p for p in outdir.iterdir() if p.is_dir()]
    return run_dir


def _with(args: list[str], name: str, value: str) -> list[str]:
    out = list(args)
    out[out.index(name) + 1] = value
    return out


@pytest.fixture(scope="module")
def reference():
    return bench_check.load_reference()


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory):
    return _run(FROZEN_OP, tmp_path_factory.mktemp("frozen"))


def test_reference_covers_every_seed0_op(reference):
    keys = {bench_check.op_key(a) for w in bench_ops.WORKLOADS for a in bench_ops.ops_for(w, 0)}
    assert keys == set(reference)


def test_reference_op_passes(frozen_run, reference):
    assert bench_check.check_op(FROZEN_OP, frozen_run, reference) == []


def _rewrite_series(run_dir: Path, dest: Path, transform) -> Path:
    shutil.copytree(run_dir, dest)
    path = dest / "otoc_series.csv"
    header = path.read_text().splitlines()[0]
    data = transform(np.loadtxt(path, delimiter=",", skiprows=1))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.15g")
    return dest


def test_roundoff_reordering_passes(frozen_run, reference, tmp_path):
    def roundoff(data):
        data[:, 1:] *= 1.0 + 1e-12
        return data

    perturbed = _rewrite_series(frozen_run, tmp_path / "run", roundoff)
    assert bench_check.check_op(FROZEN_OP, perturbed, reference) == []


def test_perturbed_output_is_rejected(frozen_run, reference, tmp_path):
    def bump_last_c(data):
        data[-1, 1] *= 1.001
        return data

    perturbed = _rewrite_series(frozen_run, tmp_path / "run", bump_last_c)
    errors = bench_check.check_op(FROZEN_OP, perturbed, reference)
    assert errors and "c_exact" in errors[0]


def test_invariant_violation_is_rejected(frozen_run, reference, tmp_path):
    def negative_c(data):
        data[10, 1] = -1e-3
        return data

    perturbed = _rewrite_series(frozen_run, tmp_path / "run", negative_c)
    errors = bench_check.check_op(FROZEN_OP, perturbed, {})
    assert any("outside [0, 1]" in e for e in errors)


def test_one_percent_K_change_is_rejected(reference, tmp_path):
    changed = _run(_with(FROZEN_OP, "--K", "10.1"), tmp_path)
    assert bench_check.check_op(FROZEN_OP, changed, reference)


def test_smaller_lattice_agrees_with_reference(reference, tmp_path):
    """M=1024 matches the M=4096 reference of a frozen state well inside RTOL."""
    small = _run(_with(FROZEN_OP, "--lattice", "1024"), tmp_path)
    assert bench_check.check_op(FROZEN_OP, small, reference) == []


SMALL_OPS = [
    ["evolve", "--K", "10", "--lambda", "2", "--lattice", "256", "--kicks", "40",
     "--snapshot-times", "40"],
    ["spectrum", "--K", "10", "--lambda", "5", "--t", "20", "--dim", "64", "--with-fidelity"],
    ["spectrum", "--K", "4", "--lambda", "0", "--t", "10", "--dim", "32"],
    ["phase-diagram", "--plane", "lambda-K", "--lambda-range", "0:5:2", "--k-range", "1:10:2",
     "--kicks", "500", "--lattice", "64", "--jobs", "2"],
    ["norm-scan", "--K", "10", "--lambda-range", "0:0.15:3", "--hbar-list", "0.5,2.89",
     "--kicks", "20", "--lattice", "64"],
]


def test_traced_step_counts_match_op_parameters(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = bench_trace.Tracer(spool)
    bench_trace.install(tracer)
    try:
        for i, args in enumerate(SMALL_OPS):
            _run(args, tmp_path / f"op{i}", tracer)
    finally:
        tracer.uninstall()
    tracer.merge_workers()
    steps, site_steps = (sum(x) for x in zip(*map(bench_ops.expected_steps, SMALL_OPS)))
    metrics = bench_trace.layer_metrics(tracer, jobs=2)
    assert metrics["propagator.steps"] == steps
    assert metrics["propagator.site_steps"] == site_steps
    evolved = steps - 64 - 32  # every step but the matrix columns runs inside evolve
    for name in ("propagator.apply_kick", "propagator.apply_free"):
        assert tracer.stats[name][0] == steps
    assert tracer.stats["observables.observer"][0] == evolved
    # evolve stops checking the tail after its first wrap-around warning
    assert 0 < tracer.stats["propagator.tail"][0] <= evolved
    assert tracer.stats["propagator.fft"][0] == 2 * steps
    assert tracer.stats["spectrum.eig"][0] == 2
    assert tracer.stats["phases.point"][0] == 4
    assert tracer.stats["cli.command"][0] == len(SMALL_OPS)
    assert all(v >= 0 for v in metrics.values())
    assert metrics["fileio.bytes"] > 0 and 0 < metrics["phases.busy_ratio"] <= 1


def test_every_ops_step_count_is_defined():
    for workload in bench_ops.WORKLOADS:
        for seed in (0, 1, 7):
            for args in bench_ops.ops_for(workload, seed):
                steps, sites = bench_ops.expected_steps(args)
                assert 0 < steps < sites


def test_run_refuses_a_checkout_without_source(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    with pytest.raises(ValueError):
        json.loads(out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "")


def test_traced_metrics_match_benchmark_json(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    names = list(bench_trace.layer_metrics(bench_trace.Tracer(tmp_path), jobs=1))
    names.append("trace.overhead_s")
    assert [m["name"] for m in declared] == names
    assert all(m["unit"] == bench_trace.unit_of(m["name"]) for m in declared)
