"""Reference values computed apart from the library, and the paper's rules.

Moments come from the closed form

    A_l(eta) = 1/2 B((k+l)/2, (n-k)/2) 1F1((k+l)/2; (n+l)/2; eta)

evaluated by mpmath at 35 significant digits, so no quadrature rule of the
library is involved.  Everything here runs outside the timed regions of the
benchmark.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

DPS = 35


def _mp(x: float) -> mp.mpf:
    return mp.mpf(float(x))


def _closed_form(n: int, k: int, l: int, eta: mp.mpf) -> mp.mpf:
    return mp.beta(mp.mpf(k + l) / 2, mp.mpf(n - k) / 2) * mp.hyp1f1(mp.mpf(k + l) / 2, mp.mpf(n + l) / 2, eta) / 2


@lru_cache(maxsize=None)
def moments(n: int, k: int, eta: float) -> tuple:
    """(A_0, A_2, A_4, A_6) at eta as mpmath numbers, each from its closed form."""
    with mp.workdps(DPS):
        e = _mp(eta)
        return tuple(_closed_form(n, k, l, e) for l in (0, 2, 4, 6))


def sigma(n: int, k: int, eta: float) -> float:
    """sigma_k(eta) = k (n-k) A_0 / (2 (A_2 - A_4))."""
    a0, a2, a4, _ = moments(n, k, float(eta))
    with mp.workdps(DPS):
        return float(k * (n - k) * a0 / (2 * (a2 - a4)))


def sigma_prime(n: int, k: int, eta: float) -> float:
    """k (n-k) (A_2 (A_2 - A_4) - A_0 (A_4 - A_6)) / (2 (A_2 - A_4)^2)."""
    a0, a2, a4, a6 = moments(n, k, float(eta))
    with mp.workdps(DPS):
        gap = a2 - a4
        return float(k * (n - k) * (a2 * gap - a0 * (a4 - a6)) / (2 * gap * gap))


def isotropic_sigma(n: int) -> float:
    """sigma_k(0) = n (n + 2) / 2 for every k."""
    return n * (n + 2) / 2.0


def fold_bracketed(n: int, k: int, eta_star: float, margin: float) -> bool:
    """True when the oracle's sigma' changes sign from - to + across
    [eta_star - margin, eta_star + margin], i.e. the oracle fold lies there."""
    return sigma_prime(n, k, eta_star - margin) < 0.0 < sigma_prime(n, k, eta_star + margin)


@lru_cache(maxsize=None)
def fold(n: int, k: int) -> float:
    """The oracle fold eta*_k: bisection on the sign change of sigma'.

    sigma' runs from k - n (eta -> -inf) to k (eta -> +inf) and changes sign
    once; the fold sits within |eta| < 2n + 20 for every branch.
    """
    lo, hi = -(2.0 * n + 20.0), 2.0 * n + 20.0
    while hi - lo > 1e-13 * (1.0 + abs(lo + hi)):
        mid = 0.5 * (lo + hi)
        if sigma_prime(n, k, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_verdict(n: int, k: int, eta: float, eta_star: float | None = None) -> str:
    """The paper's rule on an anisotropic branch (eta != 0).

    2 <= k <= n-2 is unstable; k = 1 is stable iff eta > eta*_1; k = n-1 is
    the mirror image, stable iff eta < eta*_{n-1}.  ``eta_star`` is a fold
    already confirmed by :func:`fold_bracketed`; without it the oracle's own
    fold is used.
    """
    if 2 <= k <= n - 2:
        return "Unstable"
    if eta_star is None:
        eta_star = fold(n, k)
    stable = eta > eta_star if k == 1 else eta < eta_star
    return "Stable" if stable else "Unstable"


def expected_isotropic_verdict(n: int, alpha: float) -> str:
    return "Stable" if alpha < isotropic_sigma(n) else "Unstable"


def rel_close(value: float, reference: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rtol * abs(reference)


def split_clusters(eigenvalues, rel_tol: float = 1e-6) -> list[tuple[float, int]]:
    """Group sorted eigenvalues into (mean, multiplicity) clusters."""
    w = sorted(float(x) for x in eigenvalues)
    threshold = rel_tol * (1.0 + max(abs(x) for x in w))
    groups: list[list[float]] = [[w[0]]]
    for prev, cur in zip(w, w[1:]):
        if cur - prev > threshold:
            groups.append([])
        groups[-1].append(cur)
    return [(sum(g) / len(g), len(g)) for g in groups]


def axial_tensor_ok(n: int, alpha: float, eigenvalues, rtol: float = 1e-6) -> bool:
    """Two clusters of multiplicities (k, n-k), trace-free, whose gap eta
    satisfies the oracle's sigma_k(eta) = alpha (Fatkullin-Slastikov: every
    critical point is axial)."""
    clusters = split_clusters(eigenvalues)
    if len(clusters) != 2:
        return False
    (low, m_low), (high, m_high) = clusters
    if abs(m_high * high + m_low * low) > 1e-8 * (1.0 + abs(high)):
        return False
    return rel_close(sigma(n, m_high, high - low), alpha, rtol)
