"""The interaction-intensity curve sigma_k(eta), its fold, and inversion.

An anisotropic equilibrium with order parameter eta on the k-fold branch
exists exactly at interaction strength

    sigma_k(eta) = k (n-k) A_0 / (2 (A_2 - A_4)),

where the A_l are the exponential moments at eta.  The curve is strictly
convex-looking in practice: its derivative changes sign exactly once, at
the fold point eta_k^*, which is the bottom of the branch in the
(eta, alpha) plane.  sigma_k(0) = n(n+2)/2 for every k, and the two
asymptotic slopes are k (eta -> +inf) and k - n (eta -> -inf).

The reflection m -> (m_n, ..., m_1) identifies the k-branch at eta with
the (n-k)-branch at -eta, giving sigma_k(eta) = sigma_{n-k}(-eta); tests
lean on that identity heavily.

All formulas here are ratios of moments, so they are evaluated from the
rescaled moments and remain finite for any eta the quadrature resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .moments import scaled_moments
from .quadrature import DEFAULT_ORDER, SphereParams

_BRACKET_LIMIT = 2.0**16


def _branch_alpha(params: SphereParams, moments) -> float:
    """k (n-k) A_0 / (2 (A_2 - A_4)) from moments (A_0, A_2, A_4, ...).

    The ratio is scale-free, so rescaled moments give the same value.
    """
    gap = moments[1] - moments[2]
    if gap <= 0:
        raise RuntimeError("A_2 - A_4 <= 0; quadrature cannot resolve this eta")
    return float(params.k * params.complement * moments[0] / (2.0 * gap))


def sigma_value(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> float:
    """Interaction strength alpha = sigma_k(eta) carrying the k-branch."""
    a, _ = scaled_moments(params, eta, 4, order)
    return _branch_alpha(params, a)


def sigma_prime(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> float:
    """Derivative of sigma_k at eta, from the closed moment formula.

    d/d eta of each moment raises l by 2, which collapses the quotient
    rule to

        sigma_k'(eta) = k(n-k) (A_2(A_2-A_4) - A_0(A_4-A_6))
                        / (2 (A_2-A_4)^2).

    Evaluated from rescaled moments: the common exponential factor
    cancels between numerator and denominator.
    """
    a, _ = scaled_moments(params, eta, 6, order)
    _branch_alpha(params, a)  # the shared guard on the moment gap
    gap = a[1] - a[2]
    num = a[1] * gap - a[0] * (a[2] - a[3])
    return float(params.k * params.complement * num / (2.0 * gap * gap))


def sigma_prime_fd(
    params: SphereParams, eta: float, h: float = 1e-5, order: int = DEFAULT_ORDER
) -> float:
    """Central finite-difference cross-check for :func:`sigma_prime`."""
    return (
        sigma_value(params, eta + h, order) - sigma_value(params, eta - h, order)
    ) / (2.0 * h)


@dataclass(frozen=True)
class SigmaSample:
    """One sampled point of a branch: (eta, sigma_k(eta), sigma_k'(eta))."""

    eta: float
    sigma: float
    sigma_prime: float


def sample(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> SigmaSample:
    return SigmaSample(
        float(eta), sigma_value(params, eta, order), sigma_prime(params, eta, order)
    )


@dataclass(frozen=True)
class EtaStar:
    """The fold of a branch: minimizer eta_k^* and alpha^* = sigma_k(eta_k^*)."""

    params: SphereParams
    eta_star: float
    alpha_star: float


@lru_cache(maxsize=128)
def _eta_star_cached(n: int, k: int, order: int) -> EtaStar:
    params = SphereParams(n, k)
    if 2 * k == n:
        # sigma_k(eta) = sigma_{n-k}(-eta) makes this branch even in eta.
        return EtaStar(params, 0.0, sigma_value(params, 0.0, order))

    def dphi(e: float) -> float:
        return sigma_prime(params, e, order)

    # Bracket the sign change of sigma', doubling outward from +-8.  The
    # asymptotic slopes have opposite signs so this terminates quickly.
    span = 8.0
    while dphi(-span) * dphi(span) > 0:
        span *= 2.0
        if span > _BRACKET_LIMIT:
            raise RuntimeError("failed to bracket the fold of the intensity curve")
    est = brentq(dphi, -span, span, xtol=1e-13, rtol=4 * np.finfo(float).eps)
    return EtaStar(params, float(est), sigma_value(params, est, order))


def find_eta_star(params: SphereParams, order: int = DEFAULT_ORDER) -> EtaStar:
    """Locate the unique zero of sigma_k' by Brent's method on the analytic
    derivative, inside a bracket doubled outward from +-8.

    On the symmetric branch k = n/2 the curve is even in eta, and the fold
    is returned as exactly eta* = 0.
    """
    return _eta_star_cached(params.n, params.k, order)


def invert_alpha(
    params: SphereParams, alpha: float, order: int = DEFAULT_ORDER
) -> list[float]:
    """All eta with sigma_k(eta) = alpha, sorted ascending.

    Returns [] below the fold value alpha^*, the single fold point inside
    a relative band of 1e-9 around alpha^*, and the two transversal roots
    (one on each monotone side of eta_k^*) above it.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    star = find_eta_star(params, order)
    if abs(alpha - star.alpha_star) <= 1e-9 * star.alpha_star:
        return [star.eta_star]
    if alpha < star.alpha_star:
        return []

    def g(e: float) -> float:
        return sigma_value(params, e, order) - alpha

    roots = []
    for direction in (-1.0, 1.0):
        span = 8.0
        while g(star.eta_star + direction * span) < 0:
            span *= 2.0
            if span > _BRACKET_LIMIT:
                raise RuntimeError("failed to bracket an intensity root")
        a, b = sorted((star.eta_star, star.eta_star + direction * span))
        roots.append(brentq(g, a, b, xtol=1e-12, rtol=4 * np.finfo(float).eps))
    return sorted(float(r) for r in roots)


@dataclass(frozen=True)
class PhaseBranch:
    """Sampled k-branch with per-point stability tags.

    ``reflected`` marks branches with k > floor(n/2); they are mirror
    images of the low-k branches under eta -> -eta.
    """

    k: int
    reflected: bool
    samples: tuple[SigmaSample, ...]
    tags: tuple[str, ...]


@dataclass(frozen=True)
class PhaseDiagram:
    n: int
    branches: tuple[PhaseBranch, ...]


def phase_diagram(
    n: int, eta_grid=None, order: int = DEFAULT_ORDER
) -> PhaseDiagram:
    """Sample every branch k = 1 .. n-1 of the (eta, alpha) phase diagram.

    Defaults to 401 evenly spaced eta values on [-10, 30].  Tags follow
    the branch stability rule (stable / unstable / marginal) from the
    stability module.
    """
    if n > 8:
        raise ValueError(f"phase diagram supports n <= 8, got n={n}")
    if eta_grid is None:
        eta_grid = np.linspace(-10.0, 30.0, 401)
    grid = np.asarray(eta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("eta_grid must be a non-empty 1-d array of finite values")

    from .stability import branch_tag  # deferred: stability imports this module

    branches = []
    for k in range(1, n):
        params = SphereParams(n, k)
        samples = tuple(sample(params, float(e), order) for e in grid)
        tags = tuple(branch_tag(params, float(e), order) for e in grid)
        branches.append(PhaseBranch(k, k > n // 2, samples, tags))
    return PhaseDiagram(n, tuple(branches))
