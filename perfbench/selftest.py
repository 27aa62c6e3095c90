"""Checks of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the library's default test run: each
smoke run starts fresh interpreters and takes several seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run(workload, seconds=2, trace=0, env=None, cwd=ROOT):
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_passes_every_oracle(workload):
    res = result(run(workload))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_fault_injection_makes_necks_fail():
    res = result(run("necks", env=dict(os.environ, SLAG_FAULT_DTHETA="1e-3")))
    assert res["failed"] > 0 and not res["correct"]


def test_traced_run_reports_every_layer_metric():
    res = result(run("calculus", trace=1))
    assert res["correct"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert res["metrics"]["trace.absent_hooks"]["value"] == 0
    assert res["metrics"]["quadrature.calls"]["value"] == 0
    assert res["metrics"]["floer.generators"]["value"] > 0


def test_missing_hook_target_is_reported_absent(monkeypatch):
    import slaglab
    bogus = tracer.Hook("quadrature", "quadrature:no_such_rule")
    monkeypatch.setattr(tracer, "HOOKS", (bogus,))
    t = tracer.Tracer()
    t.install(slaglab)
    assert t.absent == ["quadrature:no_such_rule"]


def test_reference_kernel_server_times_and_stops():
    with reference.KernelServer() as server:
        timings = [server.measure() for _ in range(3)]
    assert all(wall > 0 and cpu > 0 for wall, cpu in timings)
    assert server._proc.returncode == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = workload.inputs(np.random.default_rng([3, 0]))
    second = workload.inputs(np.random.default_rng([3, 0]))
    for _ in range(3):
        a, b = next(first), next(second)
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                assert np.array_equal(a[key], b[key])
            elif key not in ("planes", "charts"):
                assert a[key] == b[key]


@pytest.mark.parametrize("m", range(3, 9))
def test_simplex_boundary_is_a_sphere(m):
    gens, counts = workloads.simplex_boundary(m, np.random.default_rng(m))
    assert len(gens) == 2 ** (m + 2) - 2
    workloads.check_simplex_boundary(gens, counts, m)


def test_simplex_check_catches_a_broken_differential():
    gens, counts = workloads.simplex_boundary(4, np.random.default_rng(0))
    del counts[next(iter(counts))]
    with pytest.raises(workloads.OracleMiss):
        workloads.check_simplex_boundary(gens, counts, 4)


def test_fails_without_the_library():
    bare = HERE / "out" / "bare"  # inside the checkout, without src/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("necks", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
