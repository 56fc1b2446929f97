"""End-to-end acceptance checks for the whole library.

Each test exercises one headline guarantee at its documented tolerance and
prints a single PASS/FAIL line, so the suite doubles as a release report:

    pytest tests/test_acceptance.py -s
"""

import time

import numpy as np
import pytest

from onsager_ms.cli import main
from onsager_ms.equilibrium import OrderTensor, eigenvalue_structure, solve_fixed_point
from onsager_ms.moments import recurrence_residual, scaled_moments
from onsager_ms.quadrature import SphereParams
from onsager_ms.sigma import find_eta_star, sigma_value
from onsager_ms.spectral import full_spectrum, isotropic_threshold
from onsager_ms.stability import (
    assemble_sphere_function,
    classify,
    d_quantities,
    gram_matrix,
    gram_matrix_quadrature,
    quadratic_form_decomposed,
    quadratic_form_direct,
    random_smooth_perturbation,
)
from onsager_ms.equilibrium import critical_point

PAIRS_N6 = [(n, k) for n in range(3, 7) for k in range(1, n)]


def _report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {name} [{detail}]")
    assert ok, f"criterion {num}: {name} [{detail}]"


def test_01_isotropic_threshold():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6):
        got = isotropic_threshold(n, tol=1e-8)
        worst = max(worst, abs(got - n * (n + 2) / 2.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, "isotropic threshold at n(n+2)/2", ok,
            f"worst {worst:.2e}, {elapsed:.1f}s")


def test_02_sigma_at_zero():
    t0 = time.perf_counter()
    worst = 0.0
    for n, k in PAIRS_N6:
        target = n * (n + 2) / 2.0
        worst = max(worst, abs(sigma_value(SphereParams(n, k), 0.0) - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(2, "sigma_k(0) = n(n+2)/2", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_03_reflection_symmetry():
    t0 = time.perf_counter()
    grid = np.linspace(-30.0, 30.0, 121)
    worst = 0.0
    for n, k in PAIRS_N6:
        a = np.array([sigma_value(SphereParams(n, k), e) for e in grid])
        b = np.array([sigma_value(SphereParams(n, n - k), -e) for e in grid])
        worst = max(worst, float(np.max(np.abs(a - b) / np.abs(a))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(3, "sigma_k(eta) = sigma_{n-k}(-eta)", ok,
            f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_04_asymptotic_slopes():
    # The chord slope sigma/eta misses its limit by exactly k*n/(2*eta) to
    # first order, which exceeds 0.05 at eta = 200 once k*n >= 20.  Those
    # pairs get the sharper expansion bound instead (see the project
    # decision log); everything else is held to the plain 0.05.
    t0 = time.perf_counter()
    worst_plain = 0.0
    worst_expansion = 0.0
    for n, k in PAIRS_N6:
        params = SphereParams(n, k)
        up = sigma_value(params, 200.0) / 200.0 - k
        dn = sigma_value(params, -200.0) / (-200.0) - (k - n)
        for dev, const in ((up, k * n / 400.0), (dn, -(n - k) * n / 400.0)):
            if abs(const) <= 0.045:
                worst_plain = max(worst_plain, abs(dev))
            worst_expansion = max(worst_expansion, abs(dev - const))
    elapsed = time.perf_counter() - t0
    ok = worst_plain <= 0.05 and worst_expansion <= 0.005 and elapsed < 1.0
    _report(4, "asymptotic slopes at eta = +-200", ok,
            f"plain {worst_plain:.3f}, vs expansion {worst_expansion:.1e}, {elapsed:.2f}s")


def test_05_moment_recurrence():
    t0 = time.perf_counter()
    worst = 0.0
    for n, k in PAIRS_N6:
        for eta in (-50.0, -5.0, -1.0, 1.0, 5.0, 50.0):
            params = SphereParams(n, k)
            vals, _ = scaled_moments(params, eta)
            for l in (0, 2, 4):
                worst = max(worst, recurrence_residual(params, eta, vals, l))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 2.0
    _report(5, "moment recurrence", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_06_gram_constants():
    t0 = time.perf_counter()
    worst = 0.0
    for n, k in ((4, 1), (4, 2), (5, 2), (6, 3)):
        params = SphereParams(n, k)
        diff = gram_matrix(params) - gram_matrix_quadrature(params)
        worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(6, "Gram matrix closed forms", ok, f"worst abs {worst:.2e}, {elapsed:.1f}s")


def test_07_decomposition_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n, k, eta in ((4, 1, 3.0), (5, 2, -2.0), (5, 1, 5.0), (6, 3, 1.0)):
        params = SphereParams(n, k)
        point = critical_point(params, eta)
        for _ in range(50):
            top = random_smooth_perturbation(params, eta, rng)
            direct = quadratic_form_direct(point, assemble_sphere_function(top))
            decomposed = quadratic_form_decomposed(point, top)
            worst = max(worst, abs(direct - decomposed) / (1.0 + abs(direct)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    _report(7, "block decomposition equals direct form", ok,
            f"worst {worst:.2e} over 200 draws, {elapsed:.0f}s")


def test_08_sign_laws():
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    for n, k in PAIRS_N6:
        params = SphereParams(n, k)
        star = find_eta_star(params).eta_star
        for eta in np.linspace(-10.0, 10.0, 41):
            d1, d2, d3 = d_quantities(params, float(eta))
            if abs(eta) > 1e-10:
                checked += 2
                violations += d1 * (-eta) <= 0.0
                violations += d2 * eta <= 0.0
                if abs(eta - star) > 1e-10:
                    checked += 1
                    violations += d3 * eta * (eta - star) <= 0.0
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    _report(8, "D1/D2/D3 sign laws", ok,
            f"{violations} violations in {checked} strict checks, {elapsed:.1f}s")


def test_09_classification_table():
    t0 = time.perf_counter()
    bad = []
    for n in (5, 6):
        for k in range(1, n // 2 + 1):
            params = SphereParams(n, k)
            star = find_eta_star(params).eta_star
            for eta in np.linspace(-6.0, 8.0, 15):
                eta = float(eta)
                if abs(eta) < 1e-6 or abs(eta - star) < 1e-6:
                    continue
                report = classify(params, eta)
                expected = "Stable" if (k == 1 and eta > star) else "Unstable"
                if report.classification != expected:
                    bad.append((n, k, eta, report.classification))
                elif expected == "Unstable" and not report.witness_value < -1e-12:
                    bad.append((n, k, eta, f"witness {report.witness_value}"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _report(9, "classification table for n = 5, 6", ok,
            f"{len(bad)} mismatches, {elapsed:.1f}s")


def test_10_kernel_and_gap():
    t0 = time.perf_counter()
    bad = []
    for n, extra in ((3, 1.0), (4, 2.0), (5, 1.0)):
        params = SphereParams(n, 1)
        eta = find_eta_star(params).eta_star + extra
        report = full_spectrum(params, eta)
        if report.kernel_dim != n - 1:
            bad.append(f"n={n} kernel_dim={report.kernel_dim}")
        if not report.gap > 0:
            bad.append(f"n={n} gap={report.gap}")
        if not (report.kernel_projection is not None
                and report.kernel_projection >= 1.0 - 1e-6):
            bad.append(f"n={n} projection={report.kernel_projection}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(10, "rotational kernel and positive gap", ok,
            f"{'; '.join(bad) or 'all clean'}, {elapsed:.1f}s")


def test_11_fixed_point_structure():
    t0 = time.perf_counter()
    bad = []
    for n, alpha in ((3, 20.0), (4, 30.0), (5, 40.0)):
        rng = np.random.default_rng(7)
        for rep in range(20):
            res = solve_fixed_point(n, alpha, OrderTensor.random_unit(n, rng))
            if not res.converged:
                continue
            if res.residual > 1e-8:
                bad.append(f"n={n} rep={rep} residual={res.residual:.1e}")
                continue
            struct = eigenvalue_structure(res.tensor)
            if struct.count > 2:
                bad.append(f"n={n} rep={rep} clusters={struct.count}")
                continue
            if struct.count == 2:
                (v_low, v_high) = struct.values
                (m_low, m_high) = struct.multiplicities
                if abs(m_high * v_high + m_low * v_low) > 1e-8:
                    bad.append(f"n={n} rep={rep} trace relation")
                    continue
                eta = v_high - v_low
                sig = sigma_value(SphereParams(n, m_high), eta)
                if abs(sig - alpha) > 1e-6 * alpha:
                    bad.append(f"n={n} rep={rep} sigma={sig}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    _report(11, "fixed-point solutions are axial branch points", ok,
            f"{len(bad)} bad of 60 runs, {elapsed:.1f}s")


def test_12_verify_command(tmp_path):
    t0 = time.perf_counter()
    code_default = main(["verify", "--out", str(tmp_path / "default.txt")])
    code_low = main(["verify", "--quad-order", "4", "--out", str(tmp_path / "low.txt")])
    elapsed = time.perf_counter() - t0
    ok = code_default == 0 and code_low == 1 and elapsed < 600.0
    _report(12, "verify exit codes (default pass, order 4 fail)", ok,
            f"codes {code_default}/{code_low}, {elapsed:.1f}s")
