"""Checks of the benchmark itself; slow, so run on their own:

    python3 -m pytest perfbench -q

They run the benchmark briefly, so every workload's cities are synthesised
and checked against reference.json along the way.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
from accessopt import optimizer  # noqa: E402
from accessopt.geodata import generate_synthetic_scenario  # noqa: E402
from accessopt.routing import build_travel_time_matrices  # noqa: E402

COUNT_METRICS = [name for name, unit in run.PER_LAYER_UNITS.items() if unit == "count"]
COUNT_METRICS.append("routing.reach_share")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly(workload):
    """Every work count is the same on two traced runs with different seeds."""
    first, second = (result(bench("--workload", workload, "--seed", seed,
                                  "--seconds", "1", "--trace", "1"))
                     for seed in ("1", "2"))
    assert first["correct"] and second["correct"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_held_out_city_keeps_character(workload):
    """The held-out city passes every check, local-search moves included."""
    checks = run.Checks(workload, record=False)
    metrics, _ = run.per_layer(run.Bench(workload, 1, checks, held_out=True), 1)
    assert checks.attempted > 0 and checks.failed == 0
    if run.WORKLOADS[workload].moves:
        assert metrics["optimizer.ls_moves"][0] > 0


def test_split_matches_predicted_layers():
    """Routing dominates score-city, where the optimizer never runs."""
    m = result(bench("--workload", "score-city", "--seconds", "1", "--trace", "1"))["metrics"]
    selfs = {layer: m[f"{layer}.self_s"]["value"] for layer in run.LAYERS}
    assert max(selfs, key=selfs.get) == "routing"
    assert selfs["optimizer"] == 0.0
    assert sum(selfs.values()) == pytest.approx(m["cli.main_s"]["value"], rel=1e-9)


def test_layouts_scanned_matches_evaluations(monkeypatch):
    """The count model equals the evaluations optimize really makes.

    Besides scanning: greedy checks feasibility once per step and once at
    the end, optimize checks the greedy layout once, local search evaluates
    its start twice, and objective_value evaluates the result once.
    """
    scenario = generate_synthetic_scenario(1, grid_rows=12, grid_cols=12,
                                           n_existing=4, n_candidate=16)
    matrices = build_travel_time_matrices(scenario)
    calls = []
    evaluate = optimizer._Evaluator.evaluate
    monkeypatch.setattr(optimizer._Evaluator, "evaluate",
                        lambda self, open_ids: calls.append(1) or evaluate(self, open_ids))
    res = optimizer.optimize(scenario, matrices, optimizer.ObjectiveParams())
    assert res.feasible
    scanned, opens, _ = tracer.layouts_scanned(res.trace, 16, res.feasible)
    assert len(calls) == scanned + (opens + 1) + 1 + 2 + 1


def test_refuses_to_run_without_sources(tmp_path):
    """Given only BENCHMARK.json and perfbench/, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle-pool", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
