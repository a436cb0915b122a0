"""Tests of the covcon benchmark itself.

    python3 -m pytest perfbench -q

They run the harness on tiny shapes (``--smoke``) and check that it emits
every metric BENCHMARK.json declares, that a perturbed eigenvalue fails the
oracle and counts as a failed operation, that a repetition differing from the
warm-up counts as failed, and that the harness refuses a directory without
covcon's source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = harness("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == declared
    values = {name: v["value"] for name, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # The layers' self times account for the whole traced repetition.
        assert abs(values["trace.unattributed_s"]) <= 0.02 * values["trace.run_s"]
        assert values["statistics.psi1_iterations"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_perturbed_lambda_max_fails_the_oracle(monkeypatch, tmp_path):
    job = workloads.make_job("tall_sample", workloads.SMOKE, 5)
    clean = workloads.measure(job, 0.0, trace=False, spans_path=tmp_path / "spans.json")
    assert clean["checks"] and all(clean["checks"])
    assert run.tally(clean) == (2 * job.ops, 0)

    original = workloads.experiments.operator_deviation

    def perturbed(A):
        report = original(A)
        return dataclasses.replace(report, lambda_max=report.lambda_max * (1.0 + 1e-9))

    monkeypatch.setattr(workloads.experiments, "operator_deviation", perturbed)
    bad = workloads.measure(job, 0.0, trace=False, spans_path=tmp_path / "spans.json")
    assert not any(bad["checks"])
    assert run.tally(bad) == (2 * job.ops, job.ops)


def test_eigen_oracle_tolerance():
    A = workloads.sampler.sample_ensemble(workloads.EnsembleSpec("gaussian", 8, 64, 3))
    report = workloads.linalg.operator_deviation(A)
    assert workloads.eigen_matches(A, report)
    assert not workloads.eigen_matches(A, dataclasses.replace(report, lambda_max=report.lambda_max * (1.0 + 1e-10)))
    assert not workloads.eigen_matches(A, dataclasses.replace(report, lambda_min=report.lambda_min * (1.0 - 1e-10)))


def test_repetition_that_differs_from_the_warm_up_counts_as_failed(monkeypatch, tmp_path):
    job = workloads.make_job("tall_sample", workloads.SMOKE, 5)
    run_grid = workloads.experiments.run_grid
    calls = []

    def drifting(grid, workers=1):
        calls.append(grid)
        results = run_grid(grid, workers)
        # Every repetition after the warm-up loses the last cell's last trial.
        return results if len(calls) == 1 else results[:-1] + [dataclasses.replace(results[-1], reports=results[-1].reports[:-1])]

    monkeypatch.setattr(workloads.experiments, "run_grid", drifting)
    result = workloads.measure(job, 0.0, trace=False, spans_path=tmp_path / "spans.json")
    assert all(result["checks"])
    assert result["matches"] == [[True] * (job.ops - 1) + [False]]
    assert run.tally(result) == (2 * job.ops, 1)


def test_scaled_times_ignore_a_uniformly_slower_host():
    times, refs = [2.0, 2.5, 3.0], [0.09, 0.1, 0.08, 0.09]
    at_nominal = reference.scaled(times, refs)
    assert at_nominal[0] == pytest.approx(2.0 * reference.NOMINAL_S / 0.095)
    assert reference.scaled([1.7 * t for t in times], [1.7 * r for r in refs]) == pytest.approx(at_nominal)
    with pytest.raises(ValueError):
        reference.scaled(times, refs[:-1])


def test_self_time_excludes_children():
    spans = [
        tracing.Span(0, None, "a", "x", 0.0, 10.0, "", 0),
        tracing.Span(1, 0, "b", "y", 1.0, 4.0, "", 0),
        tracing.Span(2, 1, "c", "z", 2.0, 3.0, "", 0),
        tracing.Span(3, 0, "b", "y", 5.0, 6.0, "", 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_refuses_a_checkout_without_covcon(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = harness("--workload", "verify_grid", "--seed", "1", "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
