"""The interaction-intensity curve sigma_k(eta), its fold, and inversion.

An anisotropic equilibrium with order parameter eta on the k-fold branch
exists exactly at interaction strength

    sigma_k(eta) = k (n-k) A_0 / (2 (A_2 - A_4)) = k (n-k) / (2 s),

where the A_l are the exponential moments at eta and s = E[t (1-t)],
t = sin^2, under the polar measure tilted by e^(eta t).  The curve is
strictly convex-looking in practice: its derivative changes sign exactly
once, at the fold point eta_k^*, which is the bottom of the branch in
the (eta, alpha) plane.  sigma_k(0) = n(n+2)/2 for every k, and the two
asymptotic slopes are k (eta -> +inf) and k - n (eta -> -inf).

The reflection m -> (m_n, ..., m_1) identifies the k-branch at eta with
the (n-k)-branch at -eta, giving sigma_k(eta) = sigma_{n-k}(-eta); tests
lean on that identity heavily.

All formulas here are expectations under the tilted measure, evaluated
from one rescaled moment pass; eta is confined to the moment domain
|eta| <= ETA_MAX, and the brackets of the fold search and of the
inversion end at its edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.optimize import brentq

from .moments import ETA_MAX, TiltedMeasure, scaled_moments
from .quadrature import DEFAULT_ORDER, SphereParams


def _branch_alpha(params: SphereParams, tilt: TiltedMeasure) -> float:
    """sigma_k = k (n-k) / (2 s); the moment pass guarantees s = E[t(1-t)] > 0."""
    return params.k * params.complement / (2.0 * tilt.s)


def _branch_slope(params: SphereParams, tilt: TiltedMeasure) -> float:
    """sigma_k' = -k (n-k) Cov(t, t(1-t)) / (2 s^2), the covariance as a centred sum."""
    centred_t = tilt.weights * (tilt.rule.sin2 - tilt.mean)
    cov = float(centred_t @ (tilt.rule.moment_rows[2] - tilt.s)) / tilt.a0  # row 2: t(1-t)
    return -params.k * params.complement * cov / (2.0 * tilt.s * tilt.s)


def sigma_value(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> float:
    """Interaction strength alpha = sigma_k(eta) carrying the k-branch."""
    return _branch_alpha(params, scaled_moments(params, eta, order=order))


def sigma_prime(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> float:
    """Derivative of sigma_k at eta: d/d eta of an expectation under the
    tilted measure is its covariance with t, so
    sigma_k' = -k(n-k) Cov(t, t(1-t)) / (2 s^2).  The covariance is summed
    centred and keeps absolute accuracy near its zero at the fold.
    """
    return _branch_slope(params, scaled_moments(params, eta, order=order))


def sigma_prime_fd(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> float:
    """Central finite-difference cross-check for :func:`sigma_prime`, step 1e-5."""
    h = 1e-5
    return (sigma_value(params, eta + h, order) - sigma_value(params, eta - h, order)) / (2.0 * h)


@dataclass(frozen=True)
class SigmaSample:
    """One sampled point of a branch: (eta, sigma_k(eta), sigma_k'(eta))."""

    eta: float
    sigma: float
    sigma_prime: float


def sample(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> SigmaSample:
    tilt = scaled_moments(params, eta, order=order)
    return SigmaSample(tilt.eta, _branch_alpha(params, tilt), _branch_slope(params, tilt))


@dataclass(frozen=True)
class EtaStar:
    """The fold of a branch: minimizer eta_k^* and alpha^* = sigma_k(eta_k^*)."""

    params: SphereParams
    eta_star: float
    alpha_star: float


def _outward(origin: float, direction: float):
    """Bracket ends origin + direction * span for span = 8, 16, ..., clamped
    to the moment domain and ending with the first end on its edge."""
    span = 8.0
    while True:
        end = min(max(origin + direction * span, -ETA_MAX), ETA_MAX)
        yield end
        if abs(end) == ETA_MAX:
            return
        span *= 2.0


# Every (n, k) with n <= 50 (1,224 branches) at two orders.
@lru_cache(maxsize=2448)
def _eta_star_cached(n: int, k: int, order: int) -> EtaStar:
    params = SphereParams(n, k)
    if 2 * k == n:
        # sigma_k(eta) = sigma_{n-k}(-eta) makes this branch even in eta.
        return EtaStar(params, 0.0, sigma_value(params, 0.0, order))

    dphi = partial(sigma_prime, params, order=order)
    # Bracket the sign change of sigma', doubling outward from +-8.  The
    # asymptotic slopes have opposite signs so this terminates quickly.
    for span in _outward(0.0, 1.0):
        if dphi(-span) * dphi(span) <= 0:
            break
    else:
        raise ValueError(
            f"the fold of the intensity curve lies outside the moment domain |eta| <= {ETA_MAX}"
        )
    est = brentq(dphi, -span, span, xtol=1e-13, rtol=4 * np.finfo(float).eps)
    return EtaStar(params, float(est), sigma_value(params, est, order))


def find_eta_star(params: SphereParams, order: int = DEFAULT_ORDER) -> EtaStar:
    """Locate the unique zero of sigma_k' by Brent's method on the analytic
    derivative, inside a bracket doubled outward from +-8 up to the edge of
    the moment domain.

    On the symmetric branch k = n/2 the curve is even in eta, and the fold
    is returned as exactly eta* = 0.  Folds are cached by (n, k, order),
    least recently used first out, up to 2,448 of them: every branch with
    n <= 50 at two orders.
    """
    return _eta_star_cached(params.n, params.k, order)


def invert_alpha(params: SphereParams, alpha: float) -> list[float]:
    """All eta with sigma_k(eta) = alpha, sorted ascending.

    Returns [] below the fold value alpha^*, the single fold point inside
    a relative band of 1e-9 around alpha^*, and the two transversal roots
    (one on each monotone side of eta_k^*) above it.  Both roots must lie
    in the moment domain |eta| <= ETA_MAX; an alpha whose root is beyond
    it raises ValueError.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    star = find_eta_star(params)
    if abs(alpha - star.alpha_star) <= 1e-9 * star.alpha_star:
        return [star.eta_star]
    if alpha < star.alpha_star:
        return []

    def g(e: float) -> float:
        return sigma_value(params, e) - alpha

    roots = []
    for direction in (-1.0, 1.0):
        for end in _outward(star.eta_star, direction):
            if g(end) >= 0:
                break
        else:
            raise ValueError(
                f"alpha = {alpha} needs an intensity root outside the moment domain "
                f"|eta| <= {ETA_MAX}"
            )
        a, b = sorted((star.eta_star, end))
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
    stability module.  Raises ValueError for n < 3, as ``SphereParams`` does.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
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
