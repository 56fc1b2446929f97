"""The three workloads: their seeded inputs, their jobs and the checks.

A workload is a list of jobs that makes one round; a run repeats whole
rounds.  A job's ``run`` is the timed call into the library; its ``check``
runs afterwards, untimed, and returns how many of the job's operations gave
a wrong answer (a job that raises fails all of them).  Checks compare with
``oracle`` (mpmath closed forms and the paper's rules), never with a stored
copy of earlier output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

# --------------------------------------------------------------------------
# Shared pieces


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]
    ops: int = 1
    # Given the job's output: True when every failed operation in it shows a
    # known library fault.  Those are counted in `failed` but do not make the
    # run incorrect; any other failure, or a job that raises, does.
    known_fault: Callable[[object], bool] | None = None


# Set-up a user of each workload pays once, run in a fresh interpreter.
# The sphere workload builds every product rule its jobs use (they fit the
# 8-entry sphere_rule cache, so the jobs never rebuild them).
SPHERE_RULES = ((3, 64), (4, 48), (5, 32), (6, 16), (3, 24), (4, 24), (5, 20), (6, 14))

SETUP_CODE = {
    "branches": "import onsager_ms",
    "sphere": (
        "import onsager_ms\n"
        "from onsager_ms.quadrature import sphere_rule\n"
        f"for d, order in {SPHERE_RULES!r}:\n"
        "    sphere_rule(d, order)\n"
    ),
    "cli": "import onsager_ms.cli",
}


def in_process_setup(workload: str) -> None:
    if workload != "cli":
        exec(SETUP_CODE[workload], {})


# --------------------------------------------------------------------------
# branches: one branch study per (n, k)

N_MAX = 38
DIAGRAM_N_MAX = 8
FOLD_MARGIN = 1e-10     # relative bracket around the library fold
ROOT_RTOL = 1e-10       # sigma(root) against alpha
SIGMA_RTOL = 1e-9       # sampled sigma and sigma'
# isotropic_threshold bisects to THRESHOLD_TOL on a THRESHOLD_GRID-point
# grid; this keeps the job near the cost of a large-n branch study.
THRESHOLD_TOL = 1e-4
THRESHOLD_GRID = 16


def _branch_job(n: int, k: int, lift: float, grid: list[float]) -> Job:
    # Library functions are looked up on their modules at call time, so the
    # traced run sees its wrappers.
    from onsager_ms import sigma as sg, spectral as sp, stability as st
    from onsager_ms.quadrature import SphereParams

    def run():
        params = SphereParams(n, k)
        star = sg.find_eta_star(params)
        alpha = star.alpha_star * (1.0 + lift)
        roots = sg.invert_alpha(params, alpha)
        return {
            "star": star,
            "alpha": alpha,
            "roots": roots,
            "samples": [(sg.sample(params, e), st.branch_tag(params, e)) for e in grid],
            "reports": [st.classify(params, r) for r in roots],
            "spectra": [sp.full_spectrum(params, r) for r in roots],
        }

    def check(out) -> int:
        eta_star = out["star"].eta_star
        ok = oracle.fold_bracketed(n, k, eta_star, FOLD_MARGIN * (1.0 + abs(eta_star)))
        ok = ok and oracle.rel_close(out["star"].alpha_star, oracle.sigma(n, k, eta_star), SIGMA_RTOL)
        roots = out["roots"]
        ok = ok and len(roots) == 2 and roots[0] < eta_star < roots[1]
        for root, report, spectrum in zip(roots, out["reports"], out["spectra"]):
            verdict = oracle.expected_verdict(n, k, root, eta_star)
            ok = ok and (
                oracle.rel_close(oracle.sigma(n, k, root), out["alpha"], ROOT_RTOL)
                and report.classification == verdict
                and (verdict == "Stable" or report.witness_value < 0.0)
                and oracle.rel_close(report.alpha, out["alpha"], SIGMA_RTOL)
                and spectrum.kernel_dim == k * (n - k)
                and (spectrum.gap > 0.0) == (verdict == "Stable")
            )
        for point, tag in out["samples"]:
            ok = ok and _sample_ok(n, k, point.eta, point.sigma, point.sigma_prime, tag, eta_star)
        return 0 if ok else 1

    return Job("branch", run, check)


def _diagram_job(n: int, pd_grid: list[float], gap_eta: float, iso_alphas) -> Job:
    """phase_diagram, the k = 1 gap bound and isotropic verdicts at one n."""
    from onsager_ms import sigma as sg, spectral as sp, stability as st
    from onsager_ms.quadrature import SphereParams

    def run():
        params = SphereParams(n, 1)
        return (
            sg.phase_diagram(n, np.array(pd_grid)),
            sp.gap_estimate(params, gap_eta),
            [st.classify(params, 0.0, alpha=a) for a in iso_alphas],
        )

    def check(out) -> int:
        diagram, gap_bound, reports = out
        ok = gap_bound > 0.0 and len(diagram.branches) == n - 1
        for alpha, report in zip(iso_alphas, reports):
            verdict = oracle.expected_isotropic_verdict(n, alpha)
            ok = ok and report.classification == verdict
            ok = ok and (verdict == "Stable" or report.witness_value < 0.0)
        for branch in diagram.branches:
            ok = ok and branch.reflected == (branch.k > n // 2)
            for point, tag in zip(branch.samples, branch.tags):
                ok = ok and _sample_ok(n, branch.k, point.eta, point.sigma, point.sigma_prime, tag)
        return 0 if ok else 1

    return Job("diagram", run, check)


def _threshold_job(n: int) -> Job:
    from onsager_ms import spectral as sp

    def run():
        return sp.isotropic_threshold(n, tol=THRESHOLD_TOL, grid_size=THRESHOLD_GRID)

    def check(value) -> int:
        return 0 if abs(value - oracle.isotropic_sigma(n)) <= THRESHOLD_TOL else 1

    return Job("threshold", run, check)


def _sample_ok(n, k, eta, sigma, sigma_prime, tag, eta_star=None) -> bool:
    ref = oracle.sigma(n, k, eta)
    ref_prime = oracle.sigma_prime(n, k, eta)
    expected = oracle.expected_verdict(n, k, eta, eta_star).lower()
    if eta_star is None and k in (1, n - 1):
        eta_star = oracle.fold(n, k)
    near_fold = eta_star is not None and abs(eta - eta_star) <= 2 * FOLD_MARGIN * (1.0 + abs(eta_star))
    return (
        oracle.rel_close(sigma, ref, SIGMA_RTOL)
        and abs(sigma_prime - ref_prime) <= SIGMA_RTOL * (n + abs(ref_prime))
        and (tag == expected or (near_fold and tag == "marginal"))
    )


def branches_round(seed: int) -> list[Job]:
    """One branch study per (n, k), 3 <= n <= N_MAX, in sweep order; for
    n <= DIAGRAM_N_MAX also a phase-diagram job and a threshold job."""
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for n in range(3, N_MAX + 1):
        for k in range(1, n):
            lift = float(rng.uniform(0.05, 0.6))
            span = 1.5 * n + 5.0
            jobs.append(_branch_job(n, k, lift, [float(x) for x in rng.uniform(-span, span, 4)]))
        if n <= DIAGRAM_N_MAX:
            iso = oracle.isotropic_sigma(n)
            jobs.append(_diagram_job(
                n,
                sorted(float(x) for x in rng.uniform(-10.0, 30.0, 60)),
                oracle.fold(n, 1) + float(rng.uniform(0.5, 3.0)),
                (iso * float(rng.uniform(0.5, 0.95)), iso * float(rng.uniform(1.05, 1.5))),
            ))
            jobs.append(_threshold_job(n))
    return jobs


# --------------------------------------------------------------------------
# sphere: product-cubature fixed points and direct quadratic forms

FIXED_POINT_RESIDUAL = 1e-8
# Product-cubature results are held to 1e-6, the bound the acceptance tests
# use for the direct form and the fixed-point sigma consistency.
EL_RESIDUAL = 1e-6
FORM_RTOL = 1e-6
SIGMA_FP_RTOL = 1e-6
# alpha ranges on which sphere_order_for picks its per-dimension cap, so
# every fixed point uses one rule per dimension.
FP_ALPHA = {3: (90.0, 130.0), 4: (56.0, 90.0), 5: (30.0, 48.0)}
# n = 6 fixed points: seed-independent inputs that fail on every run (the
# order cap of 16 under-resolves the integrand; see CHANGES.md).
FP6_ALPHAS = (30.0, 60.0)
FP6_START_SEED = 7
FORM_ETA = (-3.0, 5.0)
FORMS_N5_PER_ROUND = 32
LOW_BUNDLES_PER_ROUND = 8


def _start_tensor(n: int, rng: np.random.Generator) -> np.ndarray:
    from onsager_ms.equilibrium import OrderTensor

    return OrderTensor.random_unit(n, rng).entries


def _fixed_point(n: int, alpha: float, start: np.ndarray):
    from onsager_ms import equilibrium as eq
    from onsager_ms.quadrature import SphereParams

    result = eq.solve_fixed_point(n, alpha, eq.OrderTensor(n, start))
    clusters = eq.eigenvalue_structure(result.tensor)
    residual = None
    if clusters.count == 2:
        k = clusters.multiplicities[-1]
        eta = clusters.values[-1] - clusters.values[0]
        _, vectors = np.linalg.eigh(result.tensor.entries)
        rotation = np.flip(vectors, axis=1).T  # leading cluster's axes first
        residual = eq.euler_lagrange_residual(eq.critical_point(SphereParams(n, k), eta, rotation))
    return result, clusters, residual


def _fixed_point_ok(n: int, alpha: float, out) -> bool:
    result, clusters, residual = out
    eigenvalues = np.linalg.eigvalsh(np.asarray(result.tensor.entries))
    return (
        result.converged
        and result.residual <= FIXED_POINT_RESIDUAL
        and oracle.axial_tensor_ok(n, alpha, eigenvalues, SIGMA_FP_RTOL)
        and clusters.count == 2
        and [m for _, m in oracle.split_clusters(eigenvalues)] == list(clusters.multiplicities)
        and residual is not None
        and residual <= EL_RESIDUAL
    )


def _n6_fault(out) -> bool:
    """The known n = 6 fault: Picard converges, to a tensor that is not axial."""
    result, clusters, _ = out
    return result.converged and result.residual <= FIXED_POINT_RESIDUAL and clusters.count != 2


def _form(n: int, k: int, eta: float, draw_seed: int, wrap_phi):
    from onsager_ms import equilibrium as eq, stability as st
    from onsager_ms.quadrature import SphereParams

    params = SphereParams(n, k)
    point = eq.critical_point(params, eta)
    top = st.random_smooth_perturbation(params, eta, np.random.default_rng(draw_seed))
    direct = st.quadratic_form_direct(point, wrap_phi(st.assemble_sphere_function(top)))
    return direct, st.quadratic_form_decomposed(point, top)


def _form_ok(out) -> bool:
    direct, decomposed = out
    return bool(np.isfinite(direct)) and abs(direct - decomposed) <= FORM_RTOL * (1.0 + abs(direct))


def _fp_job(n, alpha, start) -> Job:
    return Job(
        f"fixed_point_n{n}",
        lambda: _fixed_point(n, alpha, start),
        lambda out: 0 if _fixed_point_ok(n, alpha, out) else 1,
    )


def _form_job(n, k, eta, draw_seed, wrap_phi) -> Job:
    return Job(
        f"form_n{n}",
        lambda: _form(n, k, eta, draw_seed, wrap_phi),
        lambda out: 0 if _form_ok(out) else 1,
    )


def sphere_round(seed: int, wrap_phi=lambda phi: phi) -> list[Job]:
    """One round: three heavy jobs (an n = 5 fixed point, the two n = 6
    fixed points, an n = 6 direct form) and 40 light ones of about the same
    cost (n = 5 direct forms, and bundles of n = 3 and 4 work)."""
    rng = np.random.default_rng([seed, 2])

    def draw_form(n):
        return int(rng.integers(1, n)), float(rng.uniform(*FORM_ETA)), int(rng.integers(2**31))

    def draw_fp(n):
        return float(rng.uniform(*FP_ALPHA[n])), _start_tensor(n, rng)

    jobs = [_fp_job(5, *draw_fp(5)), _form_job(6, *draw_form(6), wrap_phi)]
    start6 = np.random.default_rng(FP6_START_SEED)
    fp6 = [(alpha, _start_tensor(6, start6)) for alpha in FP6_ALPHAS]
    jobs.append(Job(
        "fixed_point_n6",
        lambda: [_fixed_point(6, alpha, start) for alpha, start in fp6],
        lambda outs: sum(not _fixed_point_ok(6, a, out) for (a, _), out in zip(fp6, outs)),
        ops=len(fp6),
        known_fault=lambda outs: all(
            _fixed_point_ok(6, a, out) or _n6_fault(out) for (a, _), out in zip(fp6, outs)
        ),
    ))
    jobs += [_form_job(5, *draw_form(5), wrap_phi) for _ in range(FORMS_N5_PER_ROUND)]
    for _ in range(LOW_BUNDLES_PER_ROUND):
        fps = [(n, *draw_fp(n)) for n in (3, 4, 4, 4)]
        forms = [(n, *draw_form(n)) for n in (3, 3, 4, 4, 4, 4)]
        jobs.append(Job(
            "low_bundle",
            lambda fps=fps, forms=forms: (
                [_fixed_point(*args) for args in fps],
                [_form(*args, wrap_phi) for args in forms],
            ),
            lambda out, fps=fps: (
                sum(not _fixed_point_ok(n, a, o) for (n, a, _), o in zip(fps, out[0]))
                + sum(not _form_ok(o) for o in out[1])
            ),
            ops=len(fps) + len(forms),
        ))
    return jobs


# --------------------------------------------------------------------------
# cli: one fresh `python -m onsager_ms.cli` process per job


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _check_sigma_csv(n, k):
    def check(text: str) -> bool:
        rows = _csv_rows(text)
        return bool(rows) and all(
            _sample_ok(n, k, float(e), float(s), float(sp), tag) for e, s, sp, tag in rows
        )
    return check


def _check_phase_csv(n):
    def check(text: str) -> bool:
        rows = _csv_rows(text)
        ok = len({int(r[0]) for r in rows}) == n - 1
        for kk, e, a, label in rows:
            kk, eta = int(kk), float(e)
            tag, *rest = label.split(" ")
            ok = ok and (rest == ["reflected"]) == (kk > n // 2)
            ok = ok and oracle.rel_close(float(a), oracle.sigma(n, kk, eta), SIGMA_RTOL)
            ok = ok and tag == oracle.expected_verdict(n, kk, eta).lower()
        return ok
    return check


def _check_eta_star(n, k):
    def check(text: str) -> bool:
        out = json.loads(text)
        eta_star = out["eta_star"]
        return (
            oracle.fold_bracketed(n, k, eta_star, FOLD_MARGIN * (1.0 + abs(eta_star)))
            and oracle.rel_close(out["alpha_star"], oracle.sigma(n, k, eta_star), SIGMA_RTOL)
        )
    return check


def _check_classify(n, k, eta):
    def check(text: str) -> bool:
        out = json.loads(text)
        verdict = oracle.expected_verdict(n, k, eta)
        return (
            out["classification"] == verdict
            and oracle.rel_close(out["alpha"], oracle.sigma(n, k, eta), SIGMA_RTOL)
            and (verdict == "Stable" or out["witness_value"] < 0.0)
        )
    return check


def _check_spectrum(n, k, eta):
    def check(text: str) -> bool:
        out = json.loads(text)
        stable = oracle.expected_verdict(n, k, eta) == "Stable"
        return (
            out["kernel_dim"] == k * (n - k)
            and (out["gap"] > 0.0) == stable
            and oracle.rel_close(out["alpha"], oracle.sigma(n, k, eta), SIGMA_RTOL)
        )
    return check


def _check_solve_m(n, alpha):
    def check(text: str) -> bool:
        out = json.loads(text)
        eigenvalues = np.linalg.eigvalsh(np.array(out["tensor"]))
        return (
            out["converged"]
            and out["residual"] <= FIXED_POINT_RESIDUAL
            and out["clusters"]["count"] == 2
            and oracle.axial_tensor_ok(n, alpha, eigenvalues, SIGMA_FP_RTOL)
        )
    return check


def _check_verify(text: str) -> bool:
    lines = text.splitlines()
    total = len(lines) - 1
    return total > 0 and lines[-1] == f"{total}/{total} checks passed" and all(
        line.startswith("PASS") for line in lines[:-1]
    )


def _eta_off_fold(rng, n, k, low, high) -> float:
    """A seeded eta at least 0.25 away from the fold and from 0."""
    fold = oracle.fold(n, k)
    while True:
        eta = float(rng.uniform(low, high))
        if abs(eta - fold) > 0.25 and abs(eta) > 0.25:
            return eta


def cli_commands(seed: int) -> list[tuple[str, list[str], Callable[[str], bool]]]:
    """(subcommand, argv, output check) for one round; each must exit 0."""
    rng = np.random.default_rng([seed, 3])

    def nk(n_low, n_high):
        n = int(rng.integers(n_low, n_high + 1))
        return n, int(rng.integers(1, n))

    def fmt(x: float) -> str:
        return repr(float(x))

    cmds = []
    n, k = nk(3, 8)
    lo, hi = float(rng.uniform(-10, 0)), float(rng.uniform(5, 20))
    cmds.append(("sigma", ["--n", str(n), "--k", str(k), "--eta-min", fmt(lo), "--eta-max", fmt(hi),
                           "--samples", "11"], _check_sigma_csv(n, k)))
    n = int(rng.integers(3, 7))
    lo, hi = float(rng.uniform(-10, 0)), float(rng.uniform(5, 20))
    cmds.append(("phase-diagram", ["--n", str(n), "--eta-min", fmt(lo), "--eta-max", fmt(hi),
                                   "--samples", "11"], _check_phase_csv(n)))
    n, k = nk(3, 12)
    cmds.append(("eta-star", ["--n", str(n), "--k", str(k)], _check_eta_star(n, k)))
    n, k = nk(3, 8)
    eta = _eta_off_fold(rng, n, k, -8.0, 12.0)
    cmds.append(("classify", ["--n", str(n), "--k", str(k), "--eta", fmt(eta)], _check_classify(n, k, eta)))
    n, k = nk(3, 6)
    eta = _eta_off_fold(rng, n, k, -8.0, 12.0)
    cmds.append(("spectrum", ["--n", str(n), "--k", str(k), "--eta", fmt(eta), "--grid", "32"],
                 _check_spectrum(n, k, eta)))
    alpha = float(rng.uniform(*FP_ALPHA[4]))
    cmds.append(("solve-m", ["--n", "4", "--alpha", fmt(alpha), "--seed", str(int(rng.integers(1000)))],
                 _check_solve_m(4, alpha)))
    cmds.append(("verify", [], _check_verify))
    return cmds


def cli_argv(sub: str, args: list[str]) -> list[str]:
    return [sys.executable, "-m", "onsager_ms.cli", sub, *args]


def _cli_job(sub, args, check, env, argv_for) -> Job:
    first = []  # this job's first output in the run, and whether it passed

    def run():
        proc = subprocess.run(argv_for(sub, args), env=env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def check_output(out) -> int:
        if not first:
            returncode, stdout = out
            first.append((out, returncode == 0 and check(stdout.decode())))
        # Byte-identical output across repeats within a run.
        first_out, first_ok = first[0]
        return 0 if first_ok and out == first_out else 1

    return Job(f"cli.{sub}", run, check_output)


def cli_round(seed: int, env: dict, argv_for=cli_argv) -> list[Job]:
    return [_cli_job(sub, args, check, env, argv_for) for sub, args, check in cli_commands(seed)]


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env
