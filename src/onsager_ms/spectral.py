"""Discretized spectra of the second-variation blocks.

In the weighted metric <a, a>_w = int e^{-eta sin^2} a^2 dmu each block
functional I_gamma is A_0 times the identity minus a rank-one term, so
its spectrum is known in closed form: a simple eigenvalue (one of the
sign scalars D1, D2, D3, or exactly zero for the mixed block on an
anisotropic branch) below a bulk at A_0.  The dense collocation
eigensolve is compared against this closed form on every call; a
disagreement means the grid cannot resolve the exponential weight and
raises instead of returning garbage.

The zero modes of the mixed block are the rotational kernel of the
equilibrium: k (n-k) modes, one per basis slot, each a multiple of
e^{eta sin^2} sin cos.  ``full_spectrum`` aggregates all blocks with
their multiplicities, identifies the kernel, and reports the spectral
gap; ``gap_estimate`` turns the block minima into an explicit lower
bound in the plain L^2 metric for stable k = 1 states.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy.linalg import null_space

from .moments import scaled_moments
from .quadrature import (
    DEFAULT_ORDER,
    SphereParams,
    WeightedQuadrature,
    _freeze,
    surface_area,
    theta_rule,
)
from .sigma import _branch_alpha, find_eta_star
from .stability import (
    FAMILIES,
    GAMMA_BY_FAMILY,
    THETA,
    _block_low,
    _profile,
    _rank_one_coefficient,
    basis_indices,
    equality_attainer,
)

BLOCK_FAMILIES = FAMILIES + ("b",)
MIN_GRID = 8

# Relative tolerance for the dense-vs-closed-form consistency check.
_CLOSED_FORM_RTOL = 1e-9

# Eigenvalues below this fraction of the spectral radius count as kernel.
KERNEL_RTOL = 1e-8


def family_multiplicities(params: SphereParams) -> dict[str, int]:
    """How many identical copies of each block the full form contains."""
    counts = {family: 0 for family in FAMILIES}
    for idx in basis_indices(params):
        counts[idx.family] += 1
    counts["b"] = 1
    return counts


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectrum of one block in the weighted metric.

    ``eigenvalues`` and ``closed_form`` are ascending and agree to
    roundoff; ``eigenvectors`` columns hold the coefficient profiles
    a(theta_i) on the grid of ``rule``, orthonormal in the weighted
    metric.  The constrained b block has one eigenpair fewer than grid
    points.
    """

    params: SphereParams
    family: str
    gamma: int
    eta: float
    alpha: float
    rule: WeightedQuadrature
    eigenvalues: np.ndarray
    closed_form: np.ndarray
    eigenvectors: np.ndarray


def _family_exists(params: SphereParams, family: str) -> bool:
    if family in ("Omega_A", "Omega_B"):
        return params.k >= 2
    if family in ("Xi_A", "Xi_B"):
        return params.complement >= 2
    return True


def _rank_one_block(
    diagonal: np.ndarray,
    coefficient: float,
    direction: np.ndarray,
    constraint: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """diag(diagonal) - coefficient * q q^T, restricted to the null space of
    ``constraint`` when one is given; also returns that space's orthonormal
    basis (None when unrestricted), which maps eigenvectors back to the grid."""
    mat = np.diag(diagonal) - coefficient * np.outer(direction, direction)
    if constraint is None:
        return mat, None
    basis = null_space(constraint[None, :])
    return basis.T @ mat @ basis, basis


def block_spectrum(
    params: SphereParams,
    eta: float,
    family: str,
    grid_size: int = 64,
    alpha: float | None = None,
    order: int = DEFAULT_ORDER,
) -> BlockSpectrum:
    """Dense spectrum of one block, verified against its closed form.

    alpha defaults to sigma_k(eta).  Eigenvalues are reported in plain
    units (the internal solve is rescaled by e^{-max(eta,0)} so nothing
    overflows on the way).
    """
    if family not in BLOCK_FAMILIES:
        raise ValueError(f"unknown block family {family!r}")
    if not _family_exists(params, family):
        raise ValueError(f"family {family} is empty for (n, k) = ({params.n}, {params.k})")
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    eta = float(eta)
    gamma = 3 if family == "b" else GAMMA_BY_FAMILY[family]
    vals, shift = scaled_moments(params, eta, order=order)
    a0, a2, a4 = (float(x) for x in vals[:3])
    branch_alpha = _branch_alpha(params, vals)
    if alpha is None:
        alpha = branch_alpha
    else:
        alpha = float(alpha)
        if not np.isfinite(alpha) or alpha <= 0:
            raise ValueError("alpha must be positive and finite")

    rule = theta_rule(params.n, params.k, grid_size)
    w, t = rule.weights, rule.sin2
    growth = np.exp(eta * t - shift)
    root_mass = np.sqrt(w * growth)
    mat, basis = _rank_one_block(
        np.full(w.size, a0),
        _rank_one_coefficient(gamma, params) * alpha,
        root_mass * _profile(gamma, t),
        root_mass if gamma == 3 else None,
    )
    evals, evecs = np.linalg.eigh(mat)
    if basis is not None:
        evecs = basis @ evecs
    low = _block_low(gamma, params, a0, a2, a4, alpha)
    closed = np.concatenate(([low], np.full(evals.size - 1, a0)))
    closed.sort()

    tol = _CLOSED_FORM_RTOL * max(a0, abs(low))
    if float(np.max(np.abs(evals - closed))) > tol:
        raise RuntimeError(
            f"dense and closed-form spectra disagree for {family} at eta = {eta:g}; "
            "increase grid_size"
        )
    factor = float(np.exp(shift))
    evals = evals * factor
    closed = closed * factor
    profiles = evecs * (np.exp(0.5 * eta * t) / np.sqrt(w))[:, None]
    _freeze(evals, closed, profiles)
    return BlockSpectrum(
        params, family, gamma, eta, alpha, rule, evals, closed, profiles
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Aggregated block spectra with kernel and gap diagnostics.

    ``eigenvalues`` pools every block with its multiplicity.  Entries of
    magnitude below ``threshold`` (a fixed fraction of the spectral
    radius) count as kernel; ``gap`` is the smallest remaining
    eigenvalue, negative exactly when the state is unstable.
    ``ambiguous`` flags eigenvalues within a decade of the threshold,
    where the kernel count should not be trusted.  ``kernel_projection``
    is the worst squared alignment of a numerical kernel mode with the
    rotational profile e^{eta sin^2} sin cos (None when no kernel was
    detected).
    """

    params: SphereParams
    eta: float
    alpha: float
    grid_size: int
    blocks: Mapping[str, BlockSpectrum]
    multiplicities: Mapping[str, int]
    eigenvalues: np.ndarray
    threshold: float
    kernel_dim: int
    gap: float
    ambiguous: bool
    kernel_projection: float | None


def full_spectrum(
    params: SphereParams,
    eta: float,
    grid_size: int = 64,
    alpha: float | None = None,
    order: int = DEFAULT_ORDER,
) -> SpectrumReport:
    """Spectrum of the full discretized second variation at (k, eta)."""
    counts = family_multiplicities(params)
    blocks: dict[str, BlockSpectrum] = {}
    pooled = []
    for family, count in counts.items():
        if count == 0:
            continue
        block = block_spectrum(params, eta, family, grid_size, alpha, order)
        blocks[family] = block
        pooled.append(np.tile(block.eigenvalues, count))
    eigenvalues = np.sort(np.concatenate(pooled))
    alpha_used = next(iter(blocks.values())).alpha

    threshold = KERNEL_RTOL * float(np.max(np.abs(eigenvalues)))
    magnitudes = np.abs(eigenvalues)
    in_kernel = magnitudes < threshold
    kernel_dim = int(np.count_nonzero(in_kernel))
    rest = eigenvalues[~in_kernel]
    gap = float(rest.min()) if rest.size else 0.0
    ambiguous = bool(
        np.any((magnitudes >= threshold / 10.0) & (magnitudes <= threshold * 10.0))
    )

    projection = None
    theta_block = blocks.get(THETA)
    if theta_block is not None:
        zero_columns = np.nonzero(np.abs(theta_block.eigenvalues) < threshold)[0]
        if zero_columns.size:
            w = theta_block.rule.weights
            g = equality_attainer(params, eta, 0, grid_size)
            g_norm = float(np.sum(w * g * g))
            fractions = []
            for column in zero_columns:
                a = theta_block.eigenvectors[:, column]
                overlap = float(np.sum(w * a * g)) ** 2
                fractions.append(overlap / (float(np.sum(w * a * a)) * g_norm))
            projection = float(min(fractions))

    _freeze(eigenvalues)
    return SpectrumReport(
        params,
        float(eta),
        alpha_used,
        grid_size,
        MappingProxyType(blocks),
        MappingProxyType(counts),
        eigenvalues,
        threshold,
        kernel_dim,
        gap,
        ambiguous,
        projection,
    )


def gap_estimate(
    params: SphereParams,
    eta: float,
    grid_size: int = 64,
    order: int = DEFAULT_ORDER,
) -> float:
    """Explicit lower bound c0 for the spectral gap of a stable k = 1 state.

    On the orthogonal complement of the rotational kernel the form
    dominates c0 times the plain L^2 norm on the sphere.  Per-block
    minima (with the kernel direction and the mean constraint projected
    out) are computed directly in the plain metric; the complement of
    the decomposable subspace contributes min over the sphere of 1/f_0.
    The bound degenerates to zero as eta approaches the fold from above.
    """
    if params.k != 1:
        raise ValueError("the gap certificate covers the k = 1 branch")
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    eta = float(eta)
    star = find_eta_star(params, order).eta_star
    if not eta > star:
        raise ValueError("k = 1 equilibria are stable only for eta > eta_1^*")

    vals, _ = scaled_moments(params, eta, order=order)
    alpha = _branch_alpha(params, vals)
    a0_scaled = float(vals[0])
    rule = theta_rule(params.n, 1, grid_size)
    w, t = rule.weights, rule.sin2
    decay = np.exp(-eta * t)
    sqw = np.sqrt(w)

    # All quantities carry a uniform factor e^{-eta}; it cancels in the
    # final assembly except where restored explicitly.
    def block_minimum(gamma: int, constraint: np.ndarray | None) -> float:
        mat, _ = _rank_one_block(
            a0_scaled * decay,
            _rank_one_coefficient(gamma, params) * alpha * np.exp(-eta),
            sqw * _profile(gamma, t),
            constraint,
        )
        return float(np.linalg.eigvalsh(mat)[0])

    kernel_direction = sqw * equality_attainer(params, eta, 0, grid_size)
    lam_xi = block_minimum(2, None)
    lam_theta = block_minimum(0, kernel_direction)
    lam_b = block_minimum(3, sqw)
    # eta > eta_1^* > 0, so min over the sphere of 1/f_0 is at sin^2 = 1
    # and equals the surface-area prefactor times A_0 e^{-eta}.
    bound = min(a0_scaled, np.exp(eta) * min(lam_xi, lam_theta, lam_b))
    if not bound > 0.0:
        raise RuntimeError(
            f"gap bound did not come out positive at (n, eta) = ({params.n}, {eta:g}): "
            "the certificate has decayed below floating-point resolution there, "
            "and a larger grid_size does not help"
        )
    return surface_area(1) * surface_area(params.complement) * float(bound)


def isotropic_threshold(
    n: int,
    tol: float = 1e-8,
    grid_size: int = 32,
    order: int = DEFAULT_ORDER,
) -> float:
    """Interaction strength where the isotropic state loses stability.

    Bisects on alpha for the sign change of the smallest eigenvalue of
    the discretized second variation at eta = 0.  The exact crossing is
    n (n + 2) / 2 for every n.
    """
    n = int(n)
    if n < 3:
        raise ValueError("n must be at least 3")
    if tol <= 0:
        raise ValueError("tol must be positive")
    params = SphereParams(n, 1)

    def smallest(alpha: float) -> float:
        report = full_spectrum(params, 0.0, grid_size, alpha, order)
        return float(report.eigenvalues[0])

    lo, hi = 1.0, 2.0 * n * (n + 2)
    if not (smallest(lo) > 0.0 > smallest(hi)):
        raise RuntimeError("stability sign change not bracketed in alpha")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if smallest(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
