"""Self-test of the benchmark: the oracle, one job of each workload, and
that corrupted outputs are counted as failed.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import oracle  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _job(jobs, kind):
    return next(job for job in jobs if job.kind == kind)


def test_oracle_beta_values_at_zero():
    for n, k in ((3, 1), (5, 2), (8, 7), (20, 9)):
        for l, value in zip(range(0, 7, 2), oracle.moments(n, k, 0.0)):
            exact = 0.5 * _beta((k + l) / 2, (n - k) / 2)
            assert abs(float(value) - exact) <= 1e-14 * exact


def test_oracle_isotropic_sigma_and_reflection():
    for n in (3, 4, 7, 30):
        for k in range(1, n):
            assert abs(oracle.sigma(n, k, 0.0) - n * (n + 2) / 2) <= 1e-13 * n * n
            for eta in (-3.5, 0.7, 12.0):
                assert oracle.rel_close(oracle.sigma(n, k, eta), oracle.sigma(n, n - k, -eta), 1e-14)


def test_oracle_fold_and_verdicts():
    # n = 3, k = 1: eta* = 2.1782879740..., alpha* = 6.7314863965...
    eta_star = oracle.fold(3, 1)
    assert abs(eta_star - 2.178287974) < 1e-8
    assert oracle.fold_bracketed(3, 1, eta_star, 1e-10)
    assert abs(oracle.fold(4, 2)) < 1e-12
    assert oracle.expected_verdict(3, 1, eta_star + 0.1, eta_star) == "Stable"
    assert oracle.expected_verdict(3, 2, -eta_star - 0.1, -eta_star) == "Stable"
    assert oracle.expected_verdict(5, 2, 3.0, 1.7) == "Unstable"
    assert oracle.expected_isotropic_verdict(4, 11.9) == "Stable"
    assert oracle.expected_isotropic_verdict(4, 12.1) == "Unstable"


def test_branch_jobs_pass_and_corruption_fails():
    jobs = workloads.branches_round(3)
    job = jobs[0]  # (n, k) = (3, 1)
    out = job.run()
    assert job.check(out) == 0
    point, tag = out["samples"][0]
    bad = dict(out, samples=[(dataclasses.replace(point, sigma=point.sigma * (1 + 1e-6)), tag)])
    assert job.check(bad) == 1
    flipped = dict(out, samples=[(point, "stable" if tag == "unstable" else "unstable")])
    assert job.check(flipped) == 1
    for kind in ("diagram", "threshold"):
        extra = _job(jobs, kind)
        value = extra.run()
        assert extra.check(value) == 0
    assert _job(jobs, "threshold").check(value * (1 + 1e-4)) == 1


def test_sphere_jobs_pass_and_split_cluster_fails():
    from onsager_ms.equilibrium import OrderTensor

    jobs = workloads.sphere_round(3)
    low = _job(jobs, "low_bundle")
    out = low.run()
    assert low.check(out) == 0
    form = _job(jobs, "form_n5")
    direct, decomposed = form.run()
    assert form.check((direct, decomposed)) == 0
    assert form.check((direct * (1 + 1e-3) + 1e-3, decomposed)) == 1

    (result, clusters, residual), *rest = out[0]
    n = result.tensor.n
    split = np.diag(np.linspace(-1e-3, 1e-3, n))  # trace-free, splits every cluster
    broken = dataclasses.replace(result, tensor=OrderTensor(n, result.tensor.entries + split))
    assert low.check(([(broken, clusters, residual), *rest], out[1])) == 1


def test_cli_job_passes_and_repeat_must_be_identical():
    env = workloads.child_env(str(SRC))
    job = _job(workloads.cli_round(4, env), "cli.eta-star")
    code, stdout = job.run()
    assert code == 0 and job.check((code, stdout)) == 0
    again = job.run()
    assert job.check(again) == 0
    payload = json.loads(stdout)
    payload["alpha_star"] *= 1 + 1e-6
    corrupted = (0, json.dumps(payload).encode())
    assert job.check(corrupted) == 1
    # A job whose first output is corrupted fails the oracle check itself.
    assert _job(workloads.cli_round(4, env), "cli.eta-star").check(corrupted) == 1


def test_loop_counts_corrupted_output_as_failed():
    good = workloads.Job("probe", lambda: 1.0, lambda out: 0 if out == 1.0 else 1)
    corrupted = workloads.Job("probe", lambda: 1.0 + 1e-6, good.check)
    tally = bench.Tally()
    bench.run_rounds([good, corrupted], 1e-9, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, 1)


def test_only_the_known_n6_fault_is_expected():
    from types import SimpleNamespace

    from onsager_ms.equilibrium import OrderTensor

    n6 = _job(workloads.sphere_round(3), "fixed_point_n6")

    def outcome(converged=True, count=6):
        tensor = OrderTensor(6, np.diag(np.linspace(-0.25, 0.25, 6)))
        result = SimpleNamespace(converged=converged, residual=1e-12, tensor=tensor)
        return (result, SimpleNamespace(count=count, multiplicities=(1,) * count), None)

    def raises():
        raise RuntimeError("no fixed point")

    tally = bench.Tally()
    bench.run_rounds([dataclasses.replace(n6, run=lambda: [outcome(), outcome()])], 1e-9, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 2, 0)
    for run in (lambda: [outcome(), outcome(converged=False)], raises):
        tally = bench.Tally()
        bench.run_rounds([dataclasses.replace(n6, run=run)], 1e-9, tally)
        assert tally.unexpected > 0


def test_traced_run_computes_every_per_layer_metric():
    from spans import Recorder

    import traced

    produced = set(traced.layer_metrics(Recorder(), 1, 1))
    produced |= {"cli.import_ms", "cli.import_scipy_stats_ms", "trace.jobs_per_s_delta"}
    produced |= {f"cli.{sub}.wall_ms" for sub, _, _ in workloads.cli_commands(1)}
    assert set(traced.per_layer_units(bench.ROOT)) <= produced


def test_refuses_to_run_without_the_library(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "branches", "--seed", "1", "--seconds", "1"]) == 2


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([os.path.abspath(__file__), "-q"]))
