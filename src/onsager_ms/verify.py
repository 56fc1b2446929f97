"""Self-check harness: named residual checks over every numerical layer.

Each check compares a computed quantity against an independent closed
form or a cross-module identity and reports the worst relative residual.
The configured quadrature order reaches only the checks that read the
theta rules directly (quadrature_mass, quadrature_structure,
polynomial_exactness, moments_zero_field, moment_recurrence and
bingham_axial); every other check runs the library as it ships, at
DEFAULT_ORDER.  The rule checks are deliberately order-sensitive: the
polynomial exactness probe integrates fixed monomials up to degree 8, so
a Gauss rule of order 4 (exact only through degree 7) must fail it,
while order 8 and above pass.  The rule checks that sweep eta restrict
themselves to a cap that shrinks with the order, so a coarse rule is
tested inside its honest range rather than blamed for resolving
e^{50 sin^2} with eight nodes; the library checks sweep up to that cap
at DEFAULT_ORDER, |eta| = 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .equilibrium import (
    OrderTensor,
    bingham_second_moments,
    critical_point,
    eigenvalue_structure,
    solve_fixed_point,
)
from .moments import moment, recurrence_residual, scaled_moments
from .quadrature import DEFAULT_ORDER, SphereParams, _degree5_nodes, polar_rule, surface_area, theta_rule
from .sigma import find_eta_star, sigma_prime, sigma_prime_fd, sigma_value
from .spectral import full_spectrum
from .stability import (
    GAMMA_BY_FAMILY,
    STABLE,
    UNSTABLE,
    assemble_sphere_function,
    classify,
    d_quantities,
    equality_attainer,
    functional_I,
    gram_matrix,
    gram_matrix_quadrature,
    quadratic_form_decomposed,
    quadratic_form_direct,
    random_smooth_perturbation,
    wx_functionals,
    _DIRECT_THETA_ORDER,
    _basis_values,
)

_ETA_CAP_MIN = 1.0
# The widest eta sweep, and the one of every check that runs at DEFAULT_ORDER.
_ETA_CAP = 50.0


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for a verification run.

    ``quad_order`` is the theta order of the rule checks only.  ``tol``,
    when given, replaces every check's default tolerance; the default
    None keeps per-check tolerances.  ``eta_cap`` bounds the |eta| the
    rule checks sweep, tied to what ``quad_order`` can resolve.
    """

    quad_order: int = DEFAULT_ORDER
    tol: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.quad_order < 2:
            raise ValueError("quad_order must be at least 2")
        if self.tol is not None and not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    @property
    def eta_cap(self) -> float:
        return float(np.clip(2.0 * self.quad_order - 20.0, _ETA_CAP_MIN, _ETA_CAP))

    def tolerance(self, default: float) -> float:
        return default if self.tol is None else float(self.tol)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _result(name: str, cfg: VerifyConfig, worst: float, default_tol: float, detail: str = "") -> CheckResult:
    tol = cfg.tolerance(default_tol)
    return CheckResult(name, bool(worst <= tol), float(worst), tol, detail)


def _beta(x: float, y: float) -> float:
    """B(x, y) from ``math.lgamma``, apart from the rule builder's own mass."""
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _check_quadrature_mass(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n, k in ((3, 1), (4, 2), (5, 2), (6, 3)):
        rule = theta_rule(n, k, cfg.quad_order)
        exact = 0.5 * _beta(0.5 * k, 0.5 * (n - k))
        worst = max(worst, abs(rule.total_mass - exact) / exact)
    return _result("quadrature_mass", cfg, worst, 1e-12)


def _sphere_rules() -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(d, points, weights) of the rules on S^(d-1) the library integrates
    with: the degree-5 rules for d = 1..6 and the direct form's polar rule
    at (n, k) = (5, 2)."""
    rules = [(d, *_degree5_nodes(d)) for d in range(1, 7)]
    polar = polar_rule(5, 2, _DIRECT_THETA_ORDER)
    return rules + [(5, polar.points, polar.weights)]


def _check_quadrature_structure(cfg: VerifyConfig) -> CheckResult:
    """Theta nodes inside (0, pi/2) with positive weights; sphere rules'
    points on the unit sphere; the polar rule's first-k block norm sin(theta)
    strictly inside (0, 1), so that omega and xi are defined at every node."""
    rule = theta_rule(5, 2, cfg.quad_order)
    ok = (
        bool(np.all(rule.nodes > 0.0))
        and bool(np.all(rule.nodes < 0.5 * np.pi))
        and bool(np.all(rule.weights > 0.0))
    )
    for _, points, _ in _sphere_rules():
        ok = ok and bool(np.all(np.abs(np.linalg.norm(points, axis=1) - 1.0) <= 1e-14))
    block = np.linalg.norm(polar_rule(5, 2, _DIRECT_THETA_ORDER).points[:, :2], axis=1)
    ok = ok and bool(np.all(block > 0.0)) and bool(np.all(block < 1.0))
    return CheckResult("quadrature_structure", ok, 0.0 if ok else 1.0, 0.5)


def _check_polynomial_exactness(cfg: VerifyConfig) -> CheckResult:
    """Fixed monomial probe; an order-4 rule cannot integrate degree 8."""
    n, k = 4, 1
    rule = theta_rule(n, k, cfg.quad_order)
    worst = 0.0
    worst_j = 0
    for j in range(9):
        approx = float(np.sum(rule.weights * rule.sin2**j))
        exact = 0.5 * _beta(0.5 * k + j, 0.5 * (n - k))
        rel = abs(approx - exact) / exact
        if rel > worst:
            worst, worst_j = rel, j
    return _result("polynomial_exactness", cfg, worst, 1e-12, f"worst at degree {worst_j}")


def _check_sphere_moments(cfg: VerifyConfig) -> CheckResult:
    """Every monomial x^a of degree |a| <= 5 on each sphere rule against
    2 prod_i Gamma((a_i + 1)/2) / Gamma((|a| + d)/2), or 0 when an a_i is
    odd: relative to the exact value, or to the area where it is 0."""
    worst, where = 0.0, ""
    for d, points, weights in _sphere_rules():
        area = surface_area(d)
        for degree in range(6):
            for axes in combinations_with_replacement(range(d), degree):
                a = np.bincount(np.array(axes, dtype=int), minlength=d)
                approx = float(weights @ np.prod(points[:, list(axes)], axis=1))
                if np.any(a % 2):
                    rel = abs(approx) / area
                else:
                    exact = 2.0 * math.prod(math.gamma(0.5 * (ai + 1)) for ai in a) / math.gamma(0.5 * (degree + d))
                    rel = abs(approx - exact) / exact
                if rel > worst:
                    worst, where = rel, f"worst at d = {d}, a = {tuple(a.tolist())}"
    return _result("sphere_moments", cfg, worst, 1e-12, where)


def _check_moments_zero_field(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n, k in ((4, 1), (5, 2), (6, 3)):
        params = SphereParams(n, k)
        for l in (0, 2, 4, 6, 8):
            approx = moment(params, 0.0, l, cfg.quad_order)
            exact = 0.5 * _beta(0.5 * (k + l), 0.5 * (n - k))
            worst = max(worst, abs(approx - exact) / exact)
    return _result("moments_zero_field", cfg, worst, 1e-12)


def _check_moment_recurrence(cfg: VerifyConfig) -> CheckResult:
    cap = cfg.eta_cap
    worst = 0.0
    for n, k in ((4, 1), (5, 2)):
        params = SphereParams(n, k)
        for eta in (-cap, -0.3 * cap, 0.3 * cap, cap):
            tilt = scaled_moments(params, eta, order=cfg.quad_order)
            for l in (0, 2, 4):
                worst = max(worst, recurrence_residual(tilt, l))
    return _result("moment_recurrence", cfg, worst, 1e-9)


def _check_sigma_isotropic(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n in (3, 4, 5):
        for k in range(1, n):
            value = sigma_value(SphereParams(n, k), 0.0)
            exact = 0.5 * n * (n + 2)
            worst = max(worst, abs(value - exact) / exact)
    return _result("sigma_isotropic", cfg, worst, 1e-10)


def _check_sigma_reflection(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n, k in ((4, 1), (5, 2)):
        params = SphereParams(n, k)
        mirror = SphereParams(n, n - k)
        for eta in np.linspace(-_ETA_CAP, _ETA_CAP, 9):
            a = sigma_value(params, float(eta))
            b = sigma_value(mirror, float(-eta))
            worst = max(worst, abs(a - b) / abs(a))
    return _result("sigma_reflection", cfg, worst, 1e-10)


def _check_sigma_derivative(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    params = SphereParams(4, 1)
    for eta in (-0.8 * _ETA_CAP, 0.4 * _ETA_CAP):
        analytic = sigma_prime(params, eta)
        fd = sigma_prime_fd(params, eta)
        scale = max(1.0, abs(analytic))
        worst = max(worst, abs(analytic - fd) / scale)
    return _result("sigma_derivative", cfg, worst, 1e-4)


def _check_sigma_slopes(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n, k in ((4, 1), (5, 2)):
        params = SphereParams(n, k)
        worst = max(worst, abs(sigma_value(params, 200.0) / 200.0 - k))
        worst = max(worst, abs(sigma_value(params, -200.0) / -200.0 - (k - n)))
    return _result("sigma_slopes", cfg, worst, 0.05)


def _check_eta_star_fold(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n, k in ((3, 1), (4, 3)):
        params = SphereParams(n, k)
        star = find_eta_star(params)
        if not (np.isfinite(star.eta_star) and star.alpha_star > 0):
            return CheckResult("eta_star_fold", False, np.inf, cfg.tolerance(1e-6), f"bad fold for {n},{k}")
        scale = star.alpha_star / max(1.0, abs(star.eta_star))
        worst = max(worst, abs(sigma_prime(params, star.eta_star)) / scale)
    return _result("eta_star_fold", cfg, worst, 1e-6)


def _check_d_sign_laws(cfg: VerifyConfig) -> CheckResult:
    """Signs of D1, D2, D3 against the theorem, each divided by A_0, on
    k = 1 and next to the fold eta* = 0 of k = n/2, where D3 ~ eta^2."""
    star = find_eta_star(SphereParams(4, 1)).eta_star
    probes = [(1, float(eta), star) for eta in np.linspace(-_ETA_CAP, _ETA_CAP, 9)
              if abs(eta) >= 1e-3 and abs(eta - star) >= 0.05 * max(1.0, abs(star))]
    probes += [(2, eta, 0.0) for eta in (-1e-6, 1e-6)]
    worst = -np.inf
    for k, eta, star in probes:
        params = SphereParams(4, k)
        a0 = moment(params, eta, 0)
        d1, d2, d3 = (d / a0 for d in d_quantities(params, eta))
        sign = np.sign(eta)
        # Each product is negative when the computed sign is lawful.
        worst = max(worst, d1 * sign, -d2 * sign, -d3 * sign * np.sign(eta - star))
    return _result("d_sign_laws", cfg, worst, 0.0)


def _check_gram_consistency(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n, k in ((4, 2), (5, 2)):
        params = SphereParams(n, k)
        closed = gram_matrix(params)
        quad = gram_matrix_quadrature(params)
        scale = float(np.max(np.abs(closed)))
        worst = max(worst, float(np.max(np.abs(closed - quad))) / scale)
    return _result("gram_consistency", cfg, worst, 1e-10)


def _check_wx_table(cfg: VerifyConfig) -> CheckResult:
    params = SphereParams(5, 2)
    table = wx_functionals(params)
    # Degree-4 integrands: the degree-5 rules of the factor spheres are exact.
    rules = (_degree5_nodes(params.k), _degree5_nodes(params.complement))
    scale = max(float(np.max(np.abs(v))) for v in table.values())
    worst = 0.0
    for idx, vec in table.items():
        # Omega slots (gamma = 1) live on the first factor sphere, xi slots on the second.
        side = GAMMA_BY_FAMILY[idx.family] - 1
        (points, weights), d = rules[side], vec.size
        vals = _basis_values(idx, rules[0][0], rules[1][0])  # reads its own factor only
        for i in range(d):
            quad = float(np.sum(weights * (points[:, i] ** 2 - 1.0 / d) * vals))
            worst = max(worst, abs(quad - vec[i]) / scale)
    return _result("wx_table", cfg, worst, 1e-10)


def _check_attainer_zero_mode(cfg: VerifyConfig) -> CheckResult:
    worst = 0.0
    for n, k in ((4, 1), (5, 2)):
        params = SphereParams(n, k)
        for eta in (-2.0, 2.0):
            rule = theta_rule(n, k)
            a = equality_attainer(params, eta, 0)
            value = functional_I(0, params, eta, a)
            norm = moment(params, eta, 0) * float(
                np.sum(rule.weights * np.exp(-eta * rule.sin2) * a * a)
            )
            worst = max(worst, abs(value) / norm)
    return _result("attainer_zero_mode", cfg, worst, 1e-10)


def _check_decomposed_vs_direct(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for params, eta in ((SphereParams(4, 1), 3.0), (SphereParams(5, 2), -2.0)):
        point = critical_point(params, eta)
        for _ in range(5):
            top = random_smooth_perturbation(params, eta, rng)
            direct = quadratic_form_direct(point, assemble_sphere_function(top))
            decomposed = quadratic_form_decomposed(point, top)
            worst = max(worst, abs(direct - decomposed) / (1.0 + abs(direct)))
    return _result("decomposed_vs_direct", cfg, worst, 1e-6)


def _check_bingham_axial(cfg: VerifyConfig) -> CheckResult:
    """The contour's E[m_i^2] on axial exponents against the theta moments:
    A_2/(k A_0) on the leading k axes and (1 - A_2/A_0)/(n - k) on the rest."""
    cap = cfg.eta_cap
    worst = 0.0
    for n, k in ((4, 1), (8, 3), (20, 10)):
        leading = np.arange(n) < k
        for eta in (-cap, 0.3 * cap, cap):
            ratio = scaled_moments(SphereParams(n, k), eta, order=cfg.quad_order).mean
            axial = np.where(leading, ratio / k, (1.0 - ratio) / (n - k))
            got = bingham_second_moments(np.where(leading, eta, 0.0))
            worst = max(worst, float(np.max(np.abs(got - axial) / axial)))
    return _result("bingham_axial", cfg, worst, 1e-10)


def _check_fixed_point(cfg: VerifyConfig) -> CheckResult:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for n, alpha in ((3, 20.0), (4, 30.0)):
        for _ in range(5):
            result = solve_fixed_point(n, alpha, OrderTensor.random_unit(n, rng))
            if not result.converged:
                return CheckResult("fixed_point", False, np.inf, cfg.tolerance(1e-8), f"no convergence at n={n}")
            worst = max(worst, result.residual)
            clusters = eigenvalue_structure(result.tensor)
            if clusters.count > 2:
                return CheckResult("fixed_point", False, np.inf, cfg.tolerance(1e-8), f"{clusters.count} clusters at n={n}")
            positive = [
                (value, mult)
                for value, mult in zip(clusters.values, clusters.multiplicities)
                if value > 0
            ]
            if len(positive) != 1:
                return CheckResult("fixed_point", False, np.inf, cfg.tolerance(1e-8), f"no axial structure at n={n}")
            value, k = positive[0]
            eta = n * value / (n - k)
            branch = sigma_value(SphereParams(n, k), eta)
            worst = max(worst, abs(branch - alpha) / alpha * 1e-2)
    return _result("fixed_point", cfg, worst, 1e-8)


def _check_classification(cfg: VerifyConfig) -> CheckResult:
    p1 = SphereParams(5, 1)
    p2 = SphereParams(5, 2)
    star = find_eta_star(p1).eta_star
    threshold = p1.n * (p1.n + 2) / 2.0  # where the isotropic state loses stability
    cases = (
        (classify(p1, star + 1.0), STABLE),
        (classify(p1, min(0.5, 0.5 * star)), UNSTABLE),
        (classify(p1, -1.0), UNSTABLE),
        (classify(p2, 2.0), UNSTABLE),
        (classify(p2, -2.0), UNSTABLE),
        (classify(p1, 0.0, alpha=0.8 * threshold), STABLE),
        (classify(p1, 0.0, alpha=1.2 * threshold), UNSTABLE),
    )
    mismatches = 0
    for report, expected in cases:
        if report.classification != expected:
            mismatches += 1
        elif expected == UNSTABLE and not (report.witness_value is not None and report.witness_value < 0):
            mismatches += 1
    return CheckResult("classification", mismatches == 0, float(mismatches), 0.0,
                       f"{mismatches} of {len(cases)} verdicts wrong" if mismatches else "")


def _check_spectrum_kernel_gap(cfg: VerifyConfig) -> CheckResult:
    params = SphereParams(4, 1)
    star = find_eta_star(params).eta_star
    problems = []
    below = full_spectrum(params, 2.0, 32)
    above = full_spectrum(params, star + 1.0, 32)
    reports = [below, above]
    if below.kernel_dim != 3:
        problems.append(f"kernel_dim {below.kernel_dim} below the fold")
    if not below.gap < 0:
        problems.append("no negative direction below the fold")
    if above.kernel_dim != 3:
        problems.append(f"kernel_dim {above.kernel_dim} above the fold")
    if not above.gap > 0:
        problems.append("no positive gap above the fold")
    projections = [r.kernel_projection for r in reports if r.kernel_projection is not None]
    if len(projections) != len(reports) or min(projections) < 1.0 - 1e-6:
        problems.append("kernel modes misaligned with the rotational profile")
    ok = not problems
    return CheckResult("spectrum_kernel_gap", ok, 0.0 if ok else float(len(problems)), 0.5,
                       "; ".join(problems))


_CHECKS = (
    _check_quadrature_mass,
    _check_quadrature_structure,
    _check_polynomial_exactness,
    _check_sphere_moments,
    _check_moments_zero_field,
    _check_moment_recurrence,
    _check_sigma_isotropic,
    _check_sigma_reflection,
    _check_sigma_derivative,
    _check_sigma_slopes,
    _check_eta_star_fold,
    _check_d_sign_laws,
    _check_gram_consistency,
    _check_wx_table,
    _check_attainer_zero_mode,
    _check_decomposed_vs_direct,
    _check_bingham_axial,
    _check_fixed_point,
    _check_classification,
    _check_spectrum_kernel_gap,
)


def run_all(config: VerifyConfig | None = None) -> list[CheckResult]:
    """Run the whole battery; an exception inside a check records a failure."""
    cfg = config or VerifyConfig()
    results = []
    for check in _CHECKS:
        name = check.__name__.removeprefix("_check_")
        try:
            results.append(check(cfg))
        except Exception as exc:  # a crash is a failed check, not a crashed run
            results.append(CheckResult(name, False, np.inf, np.nan, f"{type(exc).__name__}: {exc}"))
    return results
