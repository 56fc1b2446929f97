"""Exponential moments of the polar measure, as one tilted measure.

With t = sin^2(theta), the moments A_l(eta) = integral of e^(eta t) t^(l/2)
against sin^(k-1)(theta) cos^(n-k-1)(theta) dtheta, for even l, are
A_0 E[t^(l/2)] under the polar measure tilted by e^(eta t).  One pass,
:func:`scaled_moments`, returns that measure on the Gauss nodes at the
common scale e^(-max(eta, 0)), with E[t], s = E[t(1-t)], E[t^2(1-t)],
E[t(1-t)^2] and sigma_k = k (n-k) / (2 s), worked out once per pass.
The pass has one implementation per shape of eta: ``_moment_sums`` for
a float and ``_moment_grid`` for a grid.  The intensity curve, the sign
quantities and the spectral blocks take these in formulas of positive
factors or a centred covariance, never a difference of nearly equal
moments.

The domain is finite |eta| <= ETA_MAX = 700, and every entry point of
the library that needs moments raises ValueError outside it.  Inside it,
at the default order 128, sigma_k agrees with a 35-digit 1F1 oracle to
4.3e-14 relative or better and sigma_k' to 8.5e-14 for n <= 50 (sampled
at n = 3, 8, 20, 38, 50, k = 1, n/2, n-1 and |eta| = 100, 200, 400, 700;
worst at (n, k, eta) = (20, 1, -700) and (3, 1, +700)).  Past the edge
the Gauss rule stops resolving the exponential weight: at eta = 2000 the
error in sigma is 3e-6 at (n, k) = (20, 1) and 5e-3 at (50, 7).

At eta = 0 the moments reduce to Beta values,
A_l(0) = (1/2) B((k+l)/2, (n-k)/2), which the Gauss rule reproduces
exactly because the integrand is then a polynomial in sin^2(theta).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .quadrature import DEFAULT_ORDER, SphereParams, WeightedQuadrature, theta_rule

#: Largest |eta| of the moment domain.
ETA_MAX = 700.0

_OUTSIDE = f"eta is outside the moment domain: need finite |eta| <= {ETA_MAX}"


def _checked_eta(eta: float) -> float:
    """eta as a float; ValueError unless it is finite with |eta| <= ETA_MAX."""
    eta = float(eta)
    if not abs(eta) <= ETA_MAX:
        raise ValueError(_OUTSIDE)
    return eta


class TiltedMeasure(NamedTuple):
    """The polar measure tilted by e^(eta t), t = sin^2, on ``rule``'s nodes:
    ``weights`` (the rule's times e^(eta t - shift), shift = max(eta, 0))
    sum to ``a0`` = e^(-shift) A_0 and give E[f] = weights @ f(t) / a0;
    ``mean`` = E[t], ``s`` = E[t(1-t)], ``s_sin2`` = E[t^2(1-t)],
    ``s_cos2`` = E[t(1-t)^2] and ``sigma`` = k (n-k) / (2 s), the one
    sigma_k(eta) every reader of the pass shares.  Read the fields by name."""

    a0: float
    weights: np.ndarray
    rule: WeightedQuadrature
    shift: float
    eta: float
    mean: float
    s: float
    s_sin2: float
    s_cos2: float
    sigma: float


def _intensity(params: SphereParams, s):
    """sigma_k = k (n-k) / (2 s) from s = E[t(1-t)] > 0; elementwise for an array of s."""
    return params.k * params.complement / (2.0 * s)


def scaled_moments(
    params: SphereParams, eta: float, *, order: int = DEFAULT_ORDER
) -> TiltedMeasure:
    """The tilted measure at eta and its expectations, from one
    :func:`_moment_sums` pass on the theta rule of ``order``.  Raises
    ValueError unless eta is finite with |eta| <= ETA_MAX, and the pass's
    RuntimeError when the mass or an expectation is not positive.
    """
    eta = _checked_eta(eta)
    rule = theta_rule(params.n, params.k, order)
    (a0, t, s, s_sin2, s_cos2), weights = _moment_sums(rule, eta)
    s /= a0
    sigma = _intensity(params, s)
    return TiltedMeasure(a0, weights, rule, max(eta, 0.0), eta, t / a0, s, s_sin2 / a0, s_cos2 / a0, sigma)


def _moment_sums(rule: WeightedQuadrature, eta: float) -> tuple[list[float], np.ndarray]:
    """The moment pass at a float eta that the caller has checked: the
    rule's weights tilted by e^(eta t - shift), shift = max(eta, 0), and
    their sums ``rule.moment_rows @ weights`` of 1, t, t(1-t), t^2(1-t)
    and t(1-t)^2 as a list.  RuntimeError when a sum is not positive,
    which 0 < t < 1 at every node rules out for a sound rule."""
    weights = eta * rule.sin2 - max(eta, 0.0)
    np.exp(weights, out=weights)  # in place: the pass runs tens of times per branch
    weights *= rule.weights
    sums = (rule.moment_rows @ weights).tolist()  # five floats are read and checked faster than an array
    # The weights are finite, so a sum is positive or has underflowed to 0.
    if not min(sums) > 0.0:
        raise RuntimeError("tilted moments not positive; quadrature failure")
    return sums, weights


def _moment_grid(rule: WeightedQuadrature, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_moment_sums` over a 1-d float array of m values of eta in one
    product, a column per eta: (5, m) sums and (order, m) weights.  Raises
    the ValueError of :func:`_checked_eta` unless every eta is in the
    domain, and the pass's RuntimeError."""
    if not np.all(np.abs(etas) <= ETA_MAX):
        raise ValueError(_OUTSIDE)
    weights = etas * rule.sin2[:, None] - np.maximum(etas, 0.0)
    np.exp(weights, out=weights)
    weights *= rule.weights[:, None]
    sums = rule.moment_rows @ weights
    if not sums.min() > 0.0:
        raise RuntimeError("tilted moments not positive; quadrature failure")
    return sums, weights


def moment(
    params: SphereParams, eta: float, l: int, order: int = DEFAULT_ORDER
) -> float:
    """The moment A_l(eta) for even 0 <= l <= 8, from :func:`scaled_moments`."""
    if l not in (0, 2, 4, 6, 8):
        raise ValueError(f"moment index l must be one of 0, 2, 4, 6, 8, got {l}")
    tilt = scaled_moments(params, eta, order=order)
    # A_0 is the pass's own mass, so every reader of A_0 gets the same bits.
    scaled = tilt.a0 if l == 0 else float(tilt.weights @ tilt.rule.sin2 ** (l // 2))
    return float(np.exp(tilt.shift) * scaled)


def recurrence_residual(tilt: TiltedMeasure, l: int) -> float:
    """Relative residual |lhs - rhs| / A_l of the moment recurrence
    A_{l+2} - A_{l+4} = ((n+l) A_{l+2} - (k+l) A_l) / (2 eta), l = 0, 2, 4
    (the eta-derivative identity integrated by parts), from the pass
    ``tilt``, which carries eta and (n, k); the identity is linear, so the
    common scale drops out.  It divides by eta: eta = 0 is a domain error
    (use the Beta closed forms there), and |eta| below about 1e-4 is
    ill-conditioned.
    """
    eta = tilt.eta
    if eta == 0.0:
        raise ValueError("recurrence divides by eta; use Beta closed forms at eta=0")
    if l not in (0, 2, 4):
        raise ValueError(f"recurrence index l must be one of 0, 2, 4, got {l}")
    t = tilt.rule.sin2
    al, al2, al4 = (float(tilt.weights @ t ** (j // 2)) for j in (l, l + 2, l + 4))
    n, k = tilt.rule.params.n, tilt.rule.params.k
    return abs(al2 - al4 - ((n + l) * al2 - (k + l) * al) / (2.0 * eta)) / al
