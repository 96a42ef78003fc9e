"""Smoke test of the benchmark harness at reduced sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload through run.py with and without tracing and checks that
each metric BENCHMARK.json declares is emitted with its unit; then hands
each output check a corrupted result and checks that it fires.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert m["name"] in proc.stdout


def test_workloads_match_the_declaration():
    assert set(workloads.WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".traces", "__pycache__"))
    proc = run_bench(tmp_path, "carleman_sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def make(name, tmp_path, seed=SEED):
    wl = workloads.WORKLOADS[name](seed, "smoke", tmp_path)
    return wl, wl.run()


def test_carleman_check_fires(tmp_path):
    wl, report = make("carleman_sweep", tmp_path)
    assert wl.check(report) == []
    wl.reference = {k: v * (1 + 1e-6) for k, v in wl.summary(report).items()}
    assert wl.check(report)
    wl.reference = None
    report.rows[0]["ratio"] = float("nan")
    assert wl.check(report)
    report.passed = False
    assert wl.check(report)


def test_margin_check_fires(tmp_path):
    wl, scans = make("margin_scan", tmp_path)
    assert wl.check(scans) == []
    wl.reference = [m * (1 + 1e-6) for m in wl.summary(scans)]
    assert wl.check(scans)
    wl.reference = None
    shifted = dataclasses.replace(scans[-1], min_margin=scans[-1].min_margin * (1 + 1e-6))
    assert wl.check(scans[:-1] + [shifted])
    moved = dataclasses.replace(scans[-1], argmin_xi=tuple(x + 1.0 for x in scans[-1].argmin_xi))
    assert wl.check(scans[:-1] + [moved])


def test_ball_check_fires(tmp_path):
    wl, (solutions, three, coarse) = make("ball_solves", tmp_path)
    assert wl.check((solutions, three, coarse)) == []
    problem, u = solutions[0]
    values = u.values.copy()
    values[problem.interior] *= 1 + 1e-6
    bad = [(problem, u.with_values(values))] + solutions[1:]
    assert wl.check((bad, three, coarse))
    three.passed = None
    assert wl.check((solutions, three, coarse))
    three.passed = True
    coarse[-1].passed = False
    assert wl.check((solutions, three, coarse))


def test_report_io_check_fires(tmp_path):
    wl, (code, out, loaded) = make("report_io", tmp_path)
    assert wl._check(code, out, loaded) == []
    assert wl._check(1, out, loaded)
    corrupt = dict(loaded, binary=loaded["binary"].with_values(loaded["binary"].values * 2))
    assert wl._check(code, out, corrupt)
    grid = next(out.glob("symbol_scan_*_grid.csv"))
    lines = grid.read_text().splitlines(keepends=True)
    grid.write_text("".join(lines[:-1]))
    assert wl._check(code, out, loaded)
    grid.write_text("".join(lines))
    report = next(p for p in out.glob("symbol_scan_*.json") if not p.name.endswith(".meta.json"))
    data = json.loads(report.read_text())
    data["rows"][0]["min_margin"] *= 1 + 1e-6
    report.write_text(json.dumps(data))
    assert wl._check(code, out, loaded)


def test_stencil_case_check_fires(monkeypatch):
    metrics, problems = tracing.stencil_cases(SEED, repeats=1)
    assert problems == []
    assert {"kernels.d2_257.var_s", "kernels.d3_65.const_flops"} <= set(metrics)
    real = tracing._kernels.apply_stencil_var
    monkeypatch.setattr(tracing._kernels, "apply_stencil_var",
                        lambda f, off, c: real(f, off, c) + 1e-6)
    _, problems = tracing.stencil_cases(SEED, repeats=1)
    assert len(problems) == len(tracing.STENCIL_CASES)


def test_tracer_restores_and_attributes_self_time(tmp_path):
    from carlat import experiments, solver

    original = experiments.random_bump, solver.splu
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.random_bump is not original[0]
        wl = workloads.WORKLOADS["ball_solves"](SEED, "smoke", tmp_path)
        tracer.enabled = True
        t0 = time.perf_counter()
        wl.run()
        wall = time.perf_counter() - t0
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert (experiments.random_bump, solver.splu) == original
    m = tracer.summary(wall)
    assert m["solver.lu.unknowns"] > 0 and m["solver.lu.fill_nnz"] >= m["solver.lu.unknowns"]
    assert 0 < m["solver.lu.factor_s"] <= m["solver.dirichlet_solve.busy_s"]
    layer_total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_total + m["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert m["solver.random_bump.calls"] == 0
