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
sigma_k' together.  The fold is found by Illinois false-position steps
on sigma_k' inside its sign bracket, and its last pass also gives the
curvature sigma_k''(eta^*), cached with it.  alpha is inverted by Newton
steps on sigma_k - alpha from a seed that curvature and the asymptotic
slopes place at each root; they run on the lean private pass of the
moments module, which reads the rule once per call and gives sigma_k and
the step's slope from one product, and fall back on bisection inside
the bracket.  A phase diagram evaluates each branch over its whole grid
in one vector pass, (order x m) weights in one product, and tags the
grid in one comparison with the cached fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .moments import ETA_MAX, TiltedMeasure, _moment_sums, scaled_moments
from .quadrature import DEFAULT_ORDER, SphereParams, WeightedQuadrature, theta_rule


def _branch_alpha(tilt: TiltedMeasure) -> float:
    """sigma_k from the moment pass ``tilt``, which carries (n, k) and s."""
    return _intensity(tilt.rule.params, tilt.s)


def _intensity(params: SphereParams, s):
    """sigma_k = k (n-k) / (2 s) from s = E[t(1-t)] > 0; elementwise for an array of s."""
    return params.k * params.complement / (2.0 * s)


def _intensity_rate(params: SphereParams, ds, s):
    """-k (n-k) ds / (2 s^2), the eta-derivative of sigma_k = k (n-k) / (2 s)
    when ds is s's: with s' = Cov(t, t(1-t)) it is sigma_k', and where
    s' = 0, with s'' it is sigma_k''.  Elementwise for arrays."""
    return -params.k * params.complement * ds / (2.0 * s * s)


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
    return _intensity_rate(rule.params, cov, tilt.s)


def _fold_curvature(tilt: TiltedMeasure) -> float:
    """sigma_k'' at a zero of sigma_k', from the moment pass ``tilt`` there:
    with u = t(1-t), s'' = E[(t - E t)^2 (u - s)], a third moment summed
    centred."""
    rule = tilt.rule
    centred = tilt.weights * (rule.sin2 - tilt.mean) ** 2
    third = float(centred @ (rule.moment_rows[2] - tilt.s)) / tilt.a0  # row 2: t(1-t)
    return _intensity_rate(rule.params, third, tilt.s)


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


class _Probe(NamedTuple):
    """One step of the fold search: eta, sigma_k'(eta) and the moment pass there."""

    eta: float
    slope: float
    tilt: TiltedMeasure


class _Fold(NamedTuple):
    """A branch's fold and the curvature sigma_k''(eta^*) that seeds its inversion."""

    star: EtaStar
    curvature: float


# Every (n, k) with n <= 50: 1,224 branches.
@lru_cache(maxsize=1224)
def _eta_star_cached(n: int, k: int) -> _Fold:
    params = SphereParams(n, k)
    if 2 * k > n:
        # sigma_k(eta) = sigma_{n-k}(-eta): the (n, n - k) fold mirrored, with its curvature.
        mirror = _eta_star_cached(n, n - k)
        eta = -mirror.star.eta_star
        return _Fold(EtaStar(params, eta, sigma_value(params, eta)), mirror.curvature)
    if 2 * k == n:
        tilt = scaled_moments(params, 0.0)
        return _Fold(EtaStar(params, 0.0, _branch_alpha(tilt)), _fold_curvature(tilt))

    def point(eta: float) -> _Probe:
        tilt = scaled_moments(params, eta)
        return _Probe(tilt.eta, _branch_slope(tilt), tilt)

    # sigma'(0) < 0: under Beta(k/2, (n-k)/2), Cov(t, t(1-t)) has the sign
    # of n - 2k.  sigma' tends to k > 0, so its one sign change is past 0.
    lo = point(0.0)
    for end in _outward(0.0, 1.0):
        hi = point(end)
        if hi.slope >= 0:
            break
        lo = hi
    else:
        raise ValueError(f"the fold of the intensity curve lies outside the moment domain |eta| <= {ETA_MAX}")
    # Illinois false position: the secant of the bracket ends, with the
    # slope at an end that stays put for a second step in a row halved, so
    # both ends close in.  A step stays half the stopping width inside the
    # bracket, so a root next to one end is bracketed by the following step.
    lo_slope, hi_slope, moved = lo.slope, hi.slope, None
    while hi.eta - lo.eta > (width := 1e-13 + _RTOL * hi.eta):
        eta = (lo.eta * hi_slope - hi.eta * lo_slope) / (hi_slope - lo_slope)
        eta = min(max(eta, lo.eta + 0.5 * width), hi.eta - 0.5 * width)
        mid = point(eta)
        if mid.slope < 0:
            if moved == "lo":
                hi_slope *= 0.5
            lo, lo_slope, moved = mid, mid.slope, "lo"
        else:
            if moved == "hi":
                lo_slope *= 0.5
            hi, hi_slope, moved = mid, mid.slope, "hi"
    best = min(lo, hi, key=lambda end: abs(end.slope)).tilt
    return _Fold(EtaStar(params, best.eta, _branch_alpha(best)), _fold_curvature(best))


def find_eta_star(params: SphereParams) -> EtaStar:
    """Locate the unique zero of sigma_k' by Illinois false-position steps
    in a sign bracket doubled outward from 8 to the edge of the moment
    domain, down to a width of 1e-13 + 4 eps |eta|; the fold is the end
    with the smaller |sigma_k'|.  Each eta costs one moment pass; a cold
    fold takes about 12 of them.

    Only 2k < n is searched: for 2k > n the fold is exactly -eta_{n-k}^*,
    and on the even branch k = n/2 exactly 0; alpha^* is sigma_k(eta^*)
    from the branch's own moment pass.  The fold's last pass also gives
    the curvature sigma_k''(eta^*), which is cached with it to seed
    :func:`invert_alpha`; a mirrored fold shares its mirror's.  Folds are
    cached by (n, k), least recently used first out, up to 1,224 of them:
    every branch with n <= 50.
    """
    return _eta_star_cached(params.n, params.k).star


def _root(rule: WeightedQuadrature, alpha: float, fold: _Fold, direction: float) -> float:
    """The root of sigma_k = alpha on the side ``direction`` of the fold.

    Newton steps on the lean moment pass start from a seed that the
    quadratic of the fold's curvature and the asymptotic slope (k to the
    right, n - k to the left) place at or inside the root of a convex
    branch.  The bracket runs from the fold to the edge of the domain.  A
    step that would not land strictly inside it, or that does not halve
    the move before last, bisects it instead, as in Numerical Recipes'
    rtsafe: just above the fold the slope is so small that rounding in
    sigma_k moves the root by more than the tolerance, and Newton steps
    alone would cycle.  While no eta with sigma_k >= alpha is known, a
    step that would leave goes to the edge, where sigma_k < alpha raises
    ValueError.
    """
    params, star = rule.params, fold.star
    lift = alpha - star.alpha_star
    asymptote = params.k if direction > 0 else params.complement
    seed = max(math.sqrt(2.0 * lift / fold.curvature), lift / asymptote)
    edge = direction * ETA_MAX
    inner, outer = star.eta_star, None  # outer: an eta with sigma_k >= alpha, once one is seen
    eta = star.eta_star + direction * seed if seed < ETA_MAX - direction * star.eta_star else edge
    last = before_last = math.inf  # the last two moves
    for _ in range(100):
        (a0, t, s, s_sin2, _), _ = _moment_sums(rule, eta)
        mean, s = t / a0, s / a0
        excess = _intensity(params, s) - alpha  # sigma_k with the bits of sigma_value
        if excess >= 0.0:
            outer = eta
        elif eta == edge:
            raise ValueError(f"alpha = {alpha} needs an intensity root outside the moment domain "
                             f"|eta| <= {ETA_MAX}")
        else:
            inner = eta
        # sigma_k' from the same sums, uncentred: a Newton step needs no more.
        slope = _intensity_rate(params, s_sin2 / a0 - mean * s, s)
        newton = eta - excess / slope if slope else math.nan
        lo, hi = sorted((inner, edge if outer is None else outer))
        if lo <= newton <= hi and abs(newton - eta) <= 1e-12 + _RTOL * abs(newton):
            return newton
        if outer is None:
            step = newton if lo < newton < hi else edge
        elif lo < newton < hi and abs(newton - eta) <= 0.5 * before_last:
            step = newton
        else:
            step = 0.5 * (inner + outer)
            if abs(step - eta) <= 1e-12 + _RTOL * abs(step):
                return step
        last, before_last = abs(step - eta), last
        eta = step
    raise RuntimeError(f"the intensity root for alpha = {alpha} did not converge in 100 steps")


def invert_alpha(params: SphereParams, alpha: float) -> list[float]:
    """All eta with sigma_k(eta) = alpha, sorted ascending.

    Returns [] below the fold value alpha^*, the single fold point inside
    a relative band of 1e-9 around alpha^*, and the two transversal roots
    (one on each monotone side of eta_k^*) above it.  Both roots must lie
    in the moment domain |eta| <= ETA_MAX; an alpha whose root is beyond
    it raises ValueError.

    With lift = alpha - alpha^*, each root is seeded at eta^* plus or minus
    max(sqrt(2 lift / sigma_k''(eta^*)), lift / slope), the slope k to the
    right and n - k to the left, and found by Newton steps on
    sigma_k - alpha, to 1e-12 + 4 eps |eta|, that bisect the bracket from
    eta^* to the edge of the domain when a step would leave it or would
    not halve the move before last.  The steps run on a lean moment pass that reads the rule once per call and
    takes sigma_k and the step's slope from one product; sigma_k has the
    bits of :func:`sigma_value`.  Each eta costs one pass, about 9 per
    call for both roots.
    """
    alpha = _checked_alpha(alpha)
    fold = _eta_star_cached(params.n, params.k)
    star = fold.star
    if abs(alpha - star.alpha_star) <= 1e-9 * star.alpha_star:
        return [star.eta_star]
    if alpha < star.alpha_star:
        return []
    rule = theta_rule(params.n, params.k, DEFAULT_ORDER)
    return [_root(rule, alpha, fold, direction) for direction in (-1.0, 1.0)]


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

    Defaults to 401 evenly spaced eta values on [-10, 30].  Each branch is
    one lean moment pass over the whole grid, whose (order x m) tilted
    weights give sigma_k, and sigma_k' with its covariance summed centred,
    for every eta at once; they agree with :func:`sample` to about 1e-15
    relative, not to the bit.  Tags follow the branch stability rule
    (stable / unstable / marginal) of ``branch_tag``, row for row, from
    one comparison of the grid with the cached fold.  A grid value outside
    the moment domain raises its ValueError.  n is checked by
    ``SphereParams``: an integral float such as 3.0 is taken as 3, and
    n < 3 or 3.5 raises ValueError.
    """
    n = SphereParams(n, 1).n
    if eta_grid is None:
        eta_grid = np.linspace(-10.0, 30.0, 401)
    grid = np.asarray(eta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("eta_grid must be a non-empty 1-d array of finite values")

    from .stability import _branch_verdict  # deferred: stability imports this module

    etas = grid.tolist()
    branches = []
    for k in range(1, n):
        params = SphereParams(n, k)
        samples = _samples(etas, *_branch_curve(params, grid))
        tags = tuple(verdict.lower() for verdict in _branch_verdict(params, grid))
        branches.append(PhaseBranch(k, k > n // 2, samples, tags))
    return PhaseDiagram(n, tuple(branches))


def _samples(etas: list[float], sigmas: list[float], slopes: list[float]) -> tuple[SigmaSample, ...]:
    """The rows of a branch curve as frozen ``SigmaSample``s.  Each gets its
    field dict whole, in place of the dataclass ``__init__``'s one
    ``object.__setattr__`` per field, which took a quarter of
    ``phase_diagram``; the rows equal ``SigmaSample(eta, sigma, slope)``."""
    rows = tuple(map(object.__new__, repeat(SigmaSample, len(etas))))
    for row, eta, sigma, slope in zip(rows, etas, sigmas, slopes):
        object.__setattr__(row, "__dict__", {"eta": eta, "sigma": sigma, "sigma_prime": slope})
    return rows


def _branch_curve(params: SphereParams, grid: np.ndarray) -> tuple[list[float], list[float]]:
    """sigma_k and sigma_k' at every eta of ``grid`` from one lean moment
    pass over it: the formulas of :func:`sample` a column at a time, the
    covariance summed centred."""
    rule = theta_rule(params.n, params.k, DEFAULT_ORDER)
    sums, weights = _moment_sums(rule, grid)
    a0, mean, s = sums[0], sums[1] / sums[0], sums[2] / sums[0]
    centred_t = weights * (rule.sin2[:, None] - mean)
    cov = np.einsum("ij,ij->j", centred_t, rule.moment_rows[2][:, None] - s) / a0  # row 2: t(1-t)
    return _intensity(params, s).tolist(), _intensity_rate(params, cov, s).tolist()
