"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import api, run, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
WORKLOADS = ("system_values", "paper_checks", "solve_large")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny_run(capsys, workload: str, trace: int = 0) -> dict:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                     "0.01", "--trace", str(trace)], tiny=True)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def patch_everywhere(monkeypatch, holder, attr: str, make) -> None:
    """Replace a library function in every module that refers to it."""
    original = getattr(holder, attr)
    replacement = make(original)
    for module in api.MODULES:
        if module.__dict__.get(attr) is original:
            monkeypatch.setattr(module, attr, replacement)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_exactly_the_declared_metrics(capsys, workload,
                                                       trace):
    result = tiny_run(capsys, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
        assert np.isfinite(metric["value"])


def test_traced_system_values_counts_layer_work(capsys):
    metrics = tiny_run(capsys, "system_values", trace=1)["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    # One cascade per node and one shortest-path table per node plus the
    # base table, over the twelve tiny systems of a pass (8 x 7 nodes,
    # 2 x 10, 13 and 13).
    assert value["cascade.failure_calls"] == 102
    assert value["metrics.apsp_calls"] == 102 + 12
    assert value["equilibrium.solve_calls"] == 12
    assert 0.0 < value["metrics.cyber_affected_share.n301w"] <= 1.0


def test_perturbed_g_fails_its_operation(capsys, monkeypatch):
    def make(original):
        def shifted(h, V):
            g = original(h, V).copy()
            g[0] += 1e-6
            return g
        return shifted
    patch_everywhere(monkeypatch, api.metrics, "effective_values", make)
    result = tiny_run(capsys, "system_values")
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_perturbed_T_fails_the_reference_check(capsys, monkeypatch):
    def make(original):
        def stretched(topology, t0, disconnection_penalty=None):
            return original(topology, t0, disconnection_penalty) * (1 + 1e-10)
        return stretched
    patch_everywhere(monkeypatch, api.metrics, "cyber_effect_matrix", make)
    result = tiny_run(capsys, "system_values")
    assert result["failed"] >= 1
    assert any("system_values.n41.T" in p
               for p in result["detail"]["problems"])


@pytest.mark.parametrize("field, scale", [("mu", 1 + 1e-6),
                                          ("payoff_d", 1 + 1e-6)])
def test_perturbed_solution_fails_the_reference_check(capsys, monkeypatch,
                                                      field, scale):
    def make(original):
        def perturbed(*args, **kwargs):
            solution = original(*args, **kwargs)
            return dataclasses.replace(
                solution, **{field: getattr(solution, field) * scale})
        return perturbed
    patch_everywhere(monkeypatch, api.equilibrium, "solve_equilibrium", make)
    result = tiny_run(capsys, "solve_large")
    assert result["failed"] >= 1
    assert any("reference" in p for p in result["detail"]["problems"])


def test_perturbed_oracle_payoff_fails_its_operation(capsys, monkeypatch):
    def make(original):
        def biased(*args, **kwargs):
            played = original(*args, **kwargs)
            return dataclasses.replace(played,
                                       payoff_d=played.payoff_d + 0.05)
        return biased
    patch_everywhere(monkeypatch, api.oracle, "fictitious_play", make)
    result = tiny_run(capsys, "paper_checks")
    assert result["failed"] >= 2
    assert any(p.startswith("oracle_s.f2") for p in
               result["detail"]["problems"])


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer", "bench"):
        with tracer.span("inner", "cascade"):
            pass
        with tracer.span("inner", "metrics"):
            pass
    outer, first, second = tracer.spans
    own = tracing.self_times(tracer.spans)
    assert first.parent == 0 and second.parent == 0
    assert own[0] == pytest.approx(
        outer.duration - first.duration - second.duration, abs=1e-12)
    assert own[1] == first.duration


def test_instrument_restores_the_library():
    before = {(holder, attr): holder.__dict__[attr]
              for holder, attr, _ in api.TRACED}
    with tracing.instrument(tracing.Tracer(), tracing.Probe()):
        assert api.metrics.battlefield_values is not before[
            (api.metrics, "battlefield_values")]
    assert all(holder.__dict__[attr] is fn
               for (holder, attr), fn in before.items())


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
