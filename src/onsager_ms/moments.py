"""Exponential moments of the polar measure.

The moments

    A_l(eta) = integral of exp(eta sin^2 theta) sin^l(theta)
               against sin^(k-1)(theta) cos^(n-k-1)(theta) dtheta

for even l are the atoms from which the intensity curve, the sign
quantities and the spectral blocks are all built.  One pass,
:func:`scaled_moments`, makes A_0, A_2, ..., A_8 together at the common
scale e^(-max(eta, 0)), so the quadrature only ever sees non-positive
exponents; consumers that form products of moments work with these
rescaled values to stay inside double-precision range.

The domain is finite |eta| <= ETA_MAX = 700, and every entry point of
the library that needs moments raises ValueError outside it.  Inside it,
at the default order 128, sigma_k agrees with a 35-digit 1F1 oracle to
6e-11 relative or better and sigma_k' to 6e-10 for n <= 50 (sampled at
k = 1, n/2, n-1 and |eta| = 100, 200, 400, 700; sigma_k' is worst on
k = n-1 at eta = 700).  Past the edge the Gauss rule stops resolving the
exponential weight: at eta = 2000 the error in sigma is 3e-6 at
(n, k) = (20, 1) and 5e-3 at (50, 7).

At eta = 0 the moments reduce to Beta values,
A_l(0) = (1/2) B((k+l)/2, (n-k)/2), which the Gauss rule reproduces
exactly because the integrand is then a polynomial in sin^2(theta).
"""

from __future__ import annotations

import numpy as np

from .quadrature import DEFAULT_ORDER, SphereParams, theta_rule

#: Largest |eta| of the moment domain.
ETA_MAX = 700.0


def scaled_moments(
    params: SphereParams, eta: float, *, order: int = DEFAULT_ORDER
) -> tuple[np.ndarray, float]:
    """Rescaled moments exp(-shift) * A_l for l = 0, 2, 4, 6, 8.

    Returns ``(values, shift)`` with shift = max(eta, 0) and
    A_l = exp(shift) * values[l // 2].  Raises ValueError unless eta is
    finite with |eta| <= ETA_MAX.  The values are checked to be positive
    and strictly decreasing in l (sin^2 < 1 on the open interval); a
    violation signals a broken quadrature rule and raises RuntimeError.
    """
    eta = float(eta)
    if not abs(eta) <= ETA_MAX:
        raise ValueError(f"eta is outside the moment domain: need finite |eta| <= {ETA_MAX}")
    rule = theta_rule(params.n, params.k, order)
    shift = max(eta, 0.0)
    values = rule.sin2_powers @ (rule.weights * np.exp(eta * rule.sin2 - shift))
    a0, a2, a4, a6, a8 = values.tolist()
    if not a0 > a2 > a4 > a6 > a8 > 0.0:
        raise RuntimeError("moments not positive and decreasing in l; quadrature failure")
    return values, shift


def moment(
    params: SphereParams, eta: float, l: int, order: int = DEFAULT_ORDER
) -> float:
    """The moment A_l(eta) for even 0 <= l <= 8, from :func:`scaled_moments`."""
    if l not in (0, 2, 4, 6, 8):
        raise ValueError(f"moment index l must be one of 0, 2, 4, 6, 8, got {l}")
    values, shift = scaled_moments(params, eta, order=order)
    return float(np.exp(shift) * values[l // 2])


def recurrence_residual(params: SphereParams, eta: float, values, l: int) -> float:
    """Relative residual of the moment recurrence at index l = 0, 2 or 4.

    The moments satisfy
        A_{l+2} - A_{l+4} = ((n+l) A_{l+2} - (k+l) A_l) / (2 eta),
    obtained by integrating the eta-derivative identity by parts.
    ``values`` is the array :func:`scaled_moments` returns at eta; the
    identity is linear, so the common scale drops out.  The returned
    |lhs - rhs| / A_l should vanish to quadrature accuracy.

    The identity divides by eta, so eta = 0 is a domain error (use the
    Beta closed forms there) and tiny |eta| amplifies roundoff; callers
    should treat |eta| below about 1e-4 as ill-conditioned.
    """
    eta = float(eta)
    if eta == 0.0:
        raise ValueError("recurrence divides by eta; use Beta closed forms at eta=0")
    if l not in (0, 2, 4):
        raise ValueError(f"recurrence index l must be one of 0, 2, 4, got {l}")
    al, al2, al4 = (float(v) for v in values[l // 2 : l // 2 + 3])
    n, k = params.n, params.k
    return abs(al2 - al4 - ((n + l) * al2 - (k + l) * al) / (2.0 * eta)) / al
