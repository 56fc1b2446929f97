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
the (n-k)-branch at -eta, giving sigma_k(eta) = sigma_{n-k}(-eta); for
2k > n the theta rule, fold and verdict are the (n, n - k) ones mirrored.

All formulas here are expectations under the tilted measure, evaluated
from one rescaled moment pass at the library's one theta order,
DEFAULT_ORDER, so a fold is cached by (n, k) alone; eta is confined to
the moment domain |eta| <= ETA_MAX, and the brackets of the fold search
and of the inversion end at its edge.  One pass gives sigma_k and
sigma_k' together, and both searches use them: the fold is bisected on
the sign of sigma_k', and alpha is inverted by Newton steps on
sigma_k - alpha that fall back on bisection inside the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .moments import ETA_MAX, TiltedMeasure, scaled_moments
from .quadrature import SphereParams


def _branch_alpha(tilt: TiltedMeasure) -> float:
    """sigma_k = k (n-k) / (2 s), (n, k) and s = E[t(1-t)] > 0 from the moment pass ``tilt``."""
    params = tilt.rule.params
    return params.k * params.complement / (2.0 * tilt.s)


def _alpha_at(tilt: TiltedMeasure, alpha: float | None) -> float:
    """alpha, or sigma_k(eta) from the moment pass ``tilt`` when None, as
    ``_checked_alpha`` returns it."""
    return _checked_alpha(_branch_alpha(tilt) if alpha is None else alpha)


def _checked_alpha(alpha: float) -> float:
    """alpha as a float; ValueError unless it is positive and finite."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


def _branch_slope(tilt: TiltedMeasure) -> float:
    """sigma_k' = -k (n-k) Cov(t, t(1-t)) / (2 s^2) from ``tilt``, the covariance as a centred sum."""
    rule = tilt.rule
    centred_t = tilt.weights * (rule.sin2 - tilt.mean)
    cov = float(centred_t @ (rule.moment_rows[2] - tilt.s)) / tilt.a0  # row 2: t(1-t)
    return -rule.params.k * rule.params.complement * cov / (2.0 * tilt.s * tilt.s)


def sigma_value(params: SphereParams, eta: float) -> float:
    """Interaction strength alpha = sigma_k(eta) carrying the k-branch."""
    return _branch_alpha(scaled_moments(params, eta))


def sigma_prime(params: SphereParams, eta: float) -> float:
    """Derivative of sigma_k at eta: d/d eta of an expectation under the
    tilted measure is its covariance with t, so
    sigma_k' = -k(n-k) Cov(t, t(1-t)) / (2 s^2).  The covariance is summed
    centred and keeps absolute accuracy near its zero at the fold.
    """
    return _branch_slope(scaled_moments(params, eta))


def sigma_prime_fd(params: SphereParams, eta: float) -> float:
    """Central finite-difference cross-check for :func:`sigma_prime`, step 1e-5."""
    h = 1e-5
    return (sigma_value(params, eta + h) - sigma_value(params, eta - h)) / (2.0 * h)


@dataclass(frozen=True)
class SigmaSample:
    """One sampled point of a branch: (eta, sigma_k(eta), sigma_k'(eta))."""

    eta: float
    sigma: float
    sigma_prime: float


def sample(params: SphereParams, eta: float) -> SigmaSample:
    tilt = scaled_moments(params, eta)
    return SigmaSample(tilt.eta, _branch_alpha(tilt), _branch_slope(tilt))


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


_RTOL = 4 * np.finfo(float).eps  # the searches stop at Brent's tolerance, xtol + _RTOL |eta|


# Every (n, k) with n <= 50: 1,224 branches.
@lru_cache(maxsize=1224)
def _eta_star_cached(n: int, k: int) -> EtaStar:
    params = SphereParams(n, k)
    if 2 * k >= n:
        # sigma_k(eta) = sigma_{n-k}(-eta): the (n, n - k) fold mirrored; 0 on k = n/2.
        eta = -_eta_star_cached(n, n - k).eta_star if 2 * k > n else 0.0
        return EtaStar(params, eta, sigma_value(params, eta))

    # sigma'(0) < 0: under Beta(k/2, (n-k)/2), Cov(t, t(1-t)) has the sign
    # of n - 2k.  sigma' tends to k > 0, so its one sign change is past 0.
    lo = sample(params, 0.0)
    for end in _outward(0.0, 1.0):
        hi = sample(params, end)
        if hi.sigma_prime >= 0:
            break
        lo = hi
    else:
        raise ValueError(f"the fold of the intensity curve lies outside the moment domain |eta| <= {ETA_MAX}")
    while hi.eta - lo.eta > 1e-13 + _RTOL * hi.eta:
        mid = sample(params, 0.5 * (lo.eta + hi.eta))
        if mid.sigma_prime < 0:
            lo = mid
        else:
            hi = mid
    best = min(lo, hi, key=lambda point: abs(point.sigma_prime))
    return EtaStar(params, best.eta, best.sigma)


def find_eta_star(params: SphereParams) -> EtaStar:
    """Locate the unique zero of sigma_k' by bisection on its sign in a
    bracket doubled outward from 8 to the edge of the moment domain, down
    to 1e-13 + 4 eps |eta|; the fold is the end with the smaller |sigma_k'|.

    Only 2k < n is searched: for 2k > n the fold is exactly -eta_{n-k}^*,
    and on the even branch k = n/2 exactly 0; alpha^* is sigma_k(eta^*)
    from the branch's own moment pass.  Folds are cached by (n, k), least
    recently used first out, up to 1,224 of them: every branch with n <= 50.
    """
    return _eta_star_cached(params.n, params.k)


def _root(params: SphereParams, alpha: float, eta_star: float, direction: float) -> float:
    """The root of sigma_k = alpha on one side of the fold, by Newton steps
    from the outer end of its bracket, bisecting when a step would leave it."""
    inner = eta_star
    for end in _outward(eta_star, direction):
        point = sample(params, end)
        if point.sigma >= alpha:
            break
        inner = end
    else:
        raise ValueError(f"alpha = {alpha} needs an intensity root outside the moment domain "
                         f"|eta| <= {ETA_MAX}")
    for _ in range(100):
        if point.sigma < alpha:
            inner = point.eta
        else:
            outer = point.eta
        lo, hi = sorted((inner, outer))
        eta = point.eta - (point.sigma - alpha) / point.sigma_prime if point.sigma_prime else math.nan
        if not lo <= eta <= hi:
            eta = 0.5 * (lo + hi)
        if abs(eta - point.eta) <= 1e-12 + _RTOL * abs(eta):
            return eta
        point = sample(params, eta)
    raise RuntimeError(f"the intensity root for alpha = {alpha} did not converge in 100 steps")


def invert_alpha(params: SphereParams, alpha: float) -> list[float]:
    """All eta with sigma_k(eta) = alpha, sorted ascending.

    Returns [] below the fold value alpha^*, the single fold point inside
    a relative band of 1e-9 around alpha^*, and the two transversal roots
    (one on each monotone side of eta_k^*) above it.  Both roots must lie
    in the moment domain |eta| <= ETA_MAX; an alpha whose root is beyond
    it raises ValueError.  Each root comes from Newton steps on sigma_k - alpha,
    with the slope of the same moment pass, that bisect in a bracket doubled
    outward from eta_k^*, to 1e-12 + 4 eps |eta|; one pass per eta per call.
    """
    alpha = _checked_alpha(alpha)
    star = find_eta_star(params)
    if abs(alpha - star.alpha_star) <= 1e-9 * star.alpha_star:
        return [star.eta_star]
    if alpha < star.alpha_star:
        return []
    return sorted(_root(params, alpha, star.eta_star, direction) for direction in (-1.0, 1.0))


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


def phase_diagram(n: int, eta_grid=None) -> PhaseDiagram:
    """Sample every branch k = 1 .. n-1 of the (eta, alpha) phase diagram.

    Defaults to 401 evenly spaced eta values on [-10, 30].  Tags follow
    the branch stability rule (stable / unstable / marginal) from the
    stability module.  n is checked by ``SphereParams``: an integral float
    such as 3.0 is taken as 3, and n < 3 or 3.5 raises ValueError.
    """
    n = SphereParams(n, 1).n
    if eta_grid is None:
        eta_grid = np.linspace(-10.0, 30.0, 401)
    grid = np.asarray(eta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("eta_grid must be a non-empty 1-d array of finite values")

    from .stability import branch_tag  # deferred: stability imports this module

    branches = []
    for k in range(1, n):
        params = SphereParams(n, k)
        samples = tuple(sample(params, float(e)) for e in grid)
        tags = tuple(branch_tag(params, float(e)) for e in grid)
        branches.append(PhaseBranch(k, k > n // 2, samples, tags))
    return PhaseDiagram(n, tuple(branches))
