"""Discretized spectra of the second-variation blocks.

In the weighted metric <a, a>_w = int e^{-eta sin^2} a^2 dmu each block
functional I_gamma is A_0 times the identity minus a rank-one term: on
the grid the matrix A_0 I - c q q^T, restricted to mean-zero profiles
for the b block.  Its spectrum follows from that structure (Golub, SIAM
Rev. 15, 1973): one complete QR factorization of q, with the mean
constraint as a leading column for b, gives an orthonormal eigenbasis
whose first free column is the downdated direction, with eigenvalue
A_0 - c |Pq|^2, and whose other columns span the A_0 eigenspace.  On
every call that grid eigenvalue is compared with its closed form from
the moments (one of the sign scalars D1, D2, D3, or exactly zero for
the mixed block on an anisotropic branch); a disagreement means the
grid cannot resolve the exponential weight and raises instead of
returning garbage.

The zero modes of the mixed block are the rotational kernel of the
equilibrium: k (n-k) modes, one per basis slot, each a multiple of
e^{eta sin^2} sin cos.  ``full_spectrum`` aggregates all blocks with
their multiplicities, identifies the kernel, and reports the spectral
gap; ``gap_estimate`` turns the block minima into an explicit lower
bound in the plain L^2 metric for stable k = 1 states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy.linalg import null_space

from .moments import TiltedMeasure, scaled_moments
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
    OMEGA_A,
    OMEGA_B,
    THETA,
    XI_A,
    XI_B,
    _attainer,
    _block_low,
    _profile,
    _rank_one_coefficient,
)

BLOCK_FAMILIES = FAMILIES + ("b",)
_GAMMA_BY_BLOCK = {**GAMMA_BY_FAMILY, "b": 3}
MIN_GRID = 8

# Relative tolerance for the grid-vs-closed-form consistency check.
_CLOSED_FORM_RTOL = 1e-9

# Eigenvalues below this fraction of the spectral radius count as kernel.
KERNEL_RTOL = 1e-8


def family_multiplicities(params: SphereParams) -> dict[str, int]:
    """How many identical copies of each block the full form contains:
    the number of basis slots of each family, and one radial block b."""
    k, nk = params.k, params.complement
    return {
        OMEGA_A: k - 1,
        OMEGA_B: k * (k - 1) // 2,
        XI_A: nk - 1,
        XI_B: nk * (nk - 1) // 2,
        THETA: k * nk,
        "b": 1,
    }


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectrum of one block in the weighted metric, from its rank-one
    structure.

    ``eigenvalues`` is ascending: the downdated value A_0 - c |Pq|^2 of
    the grid, then A_0 for every other eigenpair.  ``closed_form`` is
    the same spectrum with the low value taken from the moments; the
    two agree to the grid-resolution check's tolerance.
    ``eigenvectors`` columns hold the coefficient profiles a(theta_i) on
    the grid of ``rule``, orthonormal in the weighted metric, the
    downdated direction first.  The constrained b block has one
    eigenpair fewer than grid points.
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
    """Spectrum of one block from its rank-one structure, verified
    against its closed form.

    alpha defaults to sigma_k(eta).  Eigenvalues are reported in plain
    units (the internal values are rescaled by e^{-max(eta,0)} so
    nothing overflows on the way).
    """
    if family not in BLOCK_FAMILIES:
        raise ValueError(f"unknown block family {family!r}")
    if family_multiplicities(params)[family] == 0:
        raise ValueError(f"family {family} is empty for (n, k) = ({params.n}, {params.k})")
    tilt = scaled_moments(params, eta, order=order)
    return _block_spectrum(params, tilt, family, grid_size, _alpha_at(params, tilt, alpha))


def _alpha_at(params: SphereParams, tilt: TiltedMeasure, alpha: float | None) -> float:
    """alpha, checked, or sigma_k(eta) from the moment pass ``tilt`` when None."""
    alpha = _branch_alpha(params, tilt) if alpha is None else float(alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be positive and finite")
    return alpha


def _block_spectrum(
    params: SphereParams, tilt: TiltedMeasure, family: str, grid_size: int, alpha: float
) -> BlockSpectrum:
    """``block_spectrum`` from the moment pass ``tilt``, with alpha resolved."""
    if grid_size < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    eta, a0, shift = tilt.eta, tilt.a0, tilt.shift
    gamma = _GAMMA_BY_BLOCK[family]
    rule = theta_rule(params.n, params.k, grid_size)
    w, t = rule.weights, rule.sin2
    growth = np.exp(eta * t - shift)
    root_mass = np.sqrt(w * growth)
    direction = root_mass * _profile(gamma, t)
    # The mean constraint of b leads, so the first free column of Q is
    # the part of the direction that satisfies it; R[free, free] is its norm.
    columns = (root_mass, direction) if gamma == 3 else (direction,)
    q, r = np.linalg.qr(np.column_stack(columns), mode="complete")
    free = len(columns) - 1
    evecs = q[:, free:]
    evals = np.full(evecs.shape[1], a0)
    evals[0] = a0 - _rank_one_coefficient(gamma, params) * alpha * r[free, free] ** 2
    low = _block_low(gamma, params, tilt, alpha)
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
    """Spectrum of the full discretized second variation at (k, eta).

    One moment pass at ``order`` and one alpha (sigma_k(eta) by default)
    serve every block.  Blocks of one functional share a spectrum, so a
    block is built once per gamma; the pooled eigenvalues are built from
    each block's distinct values and their multiplicities.
    """
    tilt = scaled_moments(params, eta, order=order)
    alpha = _alpha_at(params, tilt, alpha)
    counts = family_multiplicities(params)
    blocks: dict[str, BlockSpectrum] = {}
    by_gamma: dict[int, BlockSpectrum] = {}
    pairs: list[tuple[float, int]] = []
    for family, count in counts.items():
        if count == 0:
            continue
        gamma = _GAMMA_BY_BLOCK[family]
        if gamma in by_gamma:
            block = replace(by_gamma[gamma], family=family)
        else:
            block = _block_spectrum(params, tilt, family, grid_size, alpha)
            by_gamma[gamma] = block
        blocks[family] = block
        # The downdated value, then the bulk at A_0.
        size = block.eigenvalues.size
        pairs += [(block.eigenvalues[0], count), (block.eigenvalues[-1], count * (size - 1))]
    pairs.sort()
    values = np.array([value for value, _ in pairs])
    multiplicities = np.array([count for _, count in pairs])
    eigenvalues = np.repeat(values, multiplicities)

    magnitudes = np.abs(values)
    threshold = KERNEL_RTOL * float(np.max(magnitudes))
    in_kernel = magnitudes < threshold
    kernel_dim = int(np.sum(multiplicities[in_kernel]))
    rest = values[~in_kernel]
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
            g = _attainer(theta_block.rule, tilt, 0)
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
        tilt.eta,
        alpha,
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


def gap_estimate(params: SphereParams, eta: float, grid_size: int = 64) -> float:
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
    star = find_eta_star(params).eta_star
    if not eta > star:
        raise ValueError("k = 1 equilibria are stable only for eta > eta_1^*")

    tilt = scaled_moments(params, eta)
    alpha = _branch_alpha(params, tilt)
    a0_scaled = tilt.a0
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

    kernel_direction = sqw * _attainer(rule, tilt, 0)
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


def isotropic_threshold(n: int, tol: float = 1e-8, grid_size: int = 32) -> float:
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
        report = full_spectrum(params, 0.0, grid_size, alpha)
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
