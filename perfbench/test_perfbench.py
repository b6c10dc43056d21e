"""The benchmark's own tests: tiny-size smoke of every workload, a seeded
force defect that must trip the gates, and the exit code without the program.

Run from the repository root::

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from harness import host_facts, run_workload, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.25

GATED_E2E = {"setup_s": "s", "latency_s.p50": "s", "peak_rss_mb": "MiB",
             "model_s": "s"}
SIM_E2E = {**GATED_E2E, "particle_steps_per_s": "1/s",
           "step_wall_s.p50": "s", "force_err": "ratio"}
SERVICE_E2E = {**GATED_E2E, "jobs_per_s": "1/s", "job_latency_s.p50": "s",
               "job_latency_s.tail": "s"}


@pytest.fixture(autouse=True)
def pinned_env(monkeypatch):
    for name, value in run.PINNED_ENV.items():
        monkeypatch.setenv(name, value)
    for name in run.UNSET_ENV:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def host():
    return host_facts()


def tiny(workload):
    """A version of ``workload`` that runs in about a second."""
    if workload.kind == "service":
        return replace(workload, setup_reps=3)
    n = {"direct-plummer": 2048, "block-cluster": 1024,
         "pm-uniform": 512}[workload.name]
    return replace(workload, n=n, setup_reps=2)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(_units(BENCHMARK["end_to_end"])) == set(run.GATED)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_emits_every_named_metric(name, host):
    workload = tiny(WORKLOADS[name])
    report = run_workload(workload, 3, SECONDS, True, host)
    assert report["outcome"].failed == 0, report["outcome"].errors

    expected = SERVICE_E2E if workload.kind == "service" else SIM_E2E
    for metric, unit in expected.items():
        assert report["e2e"][metric]["unit"] == unit, metric
        assert np.isfinite(report["e2e"][metric]["value"]), metric
        assert report["e2e"][metric]["clock"] in ("host", "modelled", "none")

    untraced = run.result_line(report, trace=False)
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == _units(
        BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    traced = run.result_line(report, trace=True)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units(
        BENCHMARK["per_layer"])
    assert traced["correct"] and traced["attempted"] >= 1
    assert "model_s traced == untraced" in report["outcome"].checks


class _PerturbedAcc:
    """A backend wrapper that scales every acceleration by (1 + 1e-3)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = f"perturbed-{inner.name}"

    def compute(self, pos, vel, mass):
        from repro.backends.protocol import ForceEvaluation

        ev = self.inner.compute(pos, vel, mass)
        return ForceEvaluation(ev.acc * (1.0 + 1e-3), ev.jerk, ev.segments)

    def close(self) -> None:
        self.inner.close()


def test_seeded_force_defect_trips_force_err_and_failed_frac(host):
    workload = tiny(WORKLOADS["direct-plummer"])
    report = run_workload(workload, 3, SECONDS, False, host,
                          wrap_backend=_PerturbedAcc)
    outcome = report["outcome"]
    assert report["e2e"]["force_err"]["value"] > 5e-4
    assert outcome.checks["force_err"] is False
    assert outcome.failed >= 1
    line = run.result_line(report, trace=False)
    assert line["correct"] is False and line["failed"] == outcome.failed


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(80)]
    percentile, value = tail(values)
    assert percentile == 87.5 and value == 69.0
    assert sum(v > value for v in values) == 10
    assert tail(values[:10]) is None


def test_refuses_without_the_program(tmp_path):
    """A checkout holding only the benchmark must fail without a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
