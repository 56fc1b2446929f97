"""Discretized spectra of the second-variation blocks.

In the weighted metric <a, a>_w = int e^{-eta sin^2} a^2 dmu each block
functional I_gamma is A_0 times the identity minus a rank-one term: on
the grid the matrix A_0 I - c q q^T, restricted to mean-zero profiles
for the b block.  Its spectrum follows from that structure (Golub, SIAM
Rev. 15, 1973) without a factorization: A_0 on the complement of q, and
the downdated value A_0 - c |Pq|^2, where P projects q off the mean
constraint for b (one Gram-Schmidt step and one re-orthogonalisation)
and is the identity otherwise.  The eigenvectors are built on first
read, from a complete QR factorization of q with the constraint as a
leading column for b.  On every call the grid eigenvalue is compared
with its closed form from the moments (one of the sign scalars D1, D2,
D3, or exactly zero for the mixed block on an anisotropic branch); a
disagreement means the grid cannot resolve the exponential weight and
raises instead of returning garbage.

Which family feeds which block, and how many slots (the block's
multiplicity) each has, is listed once, in ``stability``'s docstring.
The zero modes of the mixed block I_0 are the rotational kernel of the
equilibrium, one per Theta slot, each a multiple of e^{eta sin^2} sin cos.
``full_spectrum`` builds one block per gamma, shared by every family
that gamma serves, pools the blocks with their multiplicities,
identifies the kernel, and reports the spectral gap;
``gap_estimate`` turns the block minima into an explicit lower bound in
the plain L^2 metric for stable k = 1 states and their k = n - 1 mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .moments import TiltedMeasure, _checked_eta, scaled_moments
from .quadrature import (
    SphereParams,
    WeightedQuadrature,
    _area_product,
    _as_int,
    _freeze,
    _whole,
    theta_rule,
)
from .sigma import _alpha_at, _branch_alpha, find_eta_star
from .stability import (
    FAMILIES,
    GAMMA_BY_FAMILY,
    _attainer,
    _block_low,
    _limits,
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
    the number of basis slots of each family, in ``stability``'s closed
    form, and one radial block b."""
    return {**{family: _limits(family, params)[2] for family in FAMILIES}, "b": 1}


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Spectrum of one block functional I_gamma in the weighted metric,
    from its rank-one structure.

    Every basis family served by one gamma carries this same block, so
    ``full_spectrum`` builds one per gamma and maps each of its families
    to it.  ``eigenvalues`` is ascending: the downdated value
    A_0 - c |Pq|^2 of the grid, then A_0 for every other eigenpair.
    ``closed_form`` is the same spectrum with the low value taken from
    the moments; the two agree to the grid-resolution check's tolerance.
    ``eigenvectors`` columns hold the coefficient profiles a(theta_i) on
    the grid of ``rule``, orthonormal in the weighted metric, the
    downdated direction first.  They come from a complete QR
    factorization of the block's grid columns (the mean constraint for
    b, then q), made on first read.  The constrained b block has one
    eigenpair fewer than grid points.
    """

    params: SphereParams
    gamma: int
    eta: float
    alpha: float
    rule: WeightedQuadrature
    eigenvalues: np.ndarray
    closed_form: np.ndarray
    _columns: tuple[np.ndarray, ...] = field(repr=False)
    _free: np.ndarray = field(repr=False)  # Pq, the part of q that meets the constraint

    @cached_property
    def _to_profile(self) -> np.ndarray:
        """The map from grid coordinates to profiles a(theta_i)."""
        scale = np.exp(0.5 * self.eta * self.rule.sin2) / np.sqrt(self.rule.weights)
        _freeze(scale)
        return scale

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        q = np.linalg.qr(np.column_stack(self._columns), mode="complete")[0]
        profiles = q[:, len(self._columns) - 1 :] * self._to_profile[:, None]
        _freeze(profiles)
        return profiles


def _grid_rule(params: SphereParams, grid_size: int) -> WeightedQuadrature:
    """The theta rule of ``grid_size`` points; ValueError below MIN_GRID."""
    if _as_int("grid_size", grid_size) < MIN_GRID:
        raise ValueError(f"grid_size must be at least {MIN_GRID}")
    return theta_rule(params.n, params.k, grid_size)


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
    # The right singular vectors past the first span the constraint's null space.
    basis = np.linalg.svd(constraint[None, :])[2][1:].T
    return basis.T @ mat @ basis, basis


def block_spectrum(
    params: SphereParams,
    eta: float,
    family: str,
    grid_size: int = 64,
    alpha: float | None = None,
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
    tilt = scaled_moments(params, eta)
    return _block_spectrum(tilt, family, grid_size, _alpha_at(tilt, alpha))


def _block_spectrum(tilt: TiltedMeasure, family: str, grid_size: int, alpha: float) -> BlockSpectrum:
    """``block_spectrum`` from the moment pass ``tilt``, with alpha resolved."""
    params = tilt.rule.params
    rule = _grid_rule(params, grid_size)
    eta, a0, shift = tilt.eta, tilt.a0, tilt.shift
    gamma = _GAMMA_BY_BLOCK[family]
    w, t = rule.weights, rule.sin2
    growth = np.exp(eta * t - shift)
    root_mass = np.sqrt(w * growth)
    direction = root_mass * _profile(gamma, t)
    if gamma == 3:
        # Project q off the mean constraint, twice for orthogonality to rounding.
        unit = root_mass / np.sqrt(root_mass @ root_mass)
        free = direction - (unit @ direction) * unit
        free -= (unit @ free) * unit
        columns = (root_mass, direction)
    else:
        free, columns = direction, (direction,)
    evals = np.full(w.size - len(columns) + 1, a0)
    evals[0] = a0 - _rank_one_coefficient(gamma, params) * alpha * (free @ free)
    low = _block_low(gamma, tilt, alpha)
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
    _freeze(evals, closed)
    return BlockSpectrum(params, gamma, eta, alpha, rule, evals, closed, columns, free)


@dataclass(frozen=True, eq=False)
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
) -> SpectrumReport:
    """Spectrum of the full discretized second variation at (k, eta).

    One moment pass and one alpha (sigma_k(eta) by default) serve every
    block.  A block is its functional: ``blocks`` maps every family of
    one gamma to the same ``BlockSpectrum``.  The pooled eigenvalues are
    built from each block's distinct values and their multiplicities.
    """
    tilt = scaled_moments(params, eta)
    alpha = _alpha_at(tilt, alpha)
    counts = family_multiplicities(params)
    blocks: dict[str, BlockSpectrum] = {}
    by_gamma: dict[int, BlockSpectrum] = {}
    pairs: list[tuple[float, int]] = []
    for family, count in counts.items():
        if count == 0:
            continue
        gamma = _GAMMA_BY_BLOCK[family]
        if gamma not in by_gamma:
            by_gamma[gamma] = _block_spectrum(tilt, family, grid_size, alpha)
        block = blocks[family] = by_gamma[gamma]
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
    theta_block = by_gamma.get(0)
    if theta_block is not None:
        zero_columns = np.nonzero(np.abs(theta_block.eigenvalues) < threshold)[0]
        if zero_columns.size:
            w = theta_block.rule.weights
            g = _attainer(theta_block.rule.sin2, tilt, 0)
            g_norm = float(np.sum(w * g * g))
            fractions = []
            for column in zero_columns:
                # Column 0 is Pq up to sign and scale, which the ratio below
                # ignores; only a bulk column needs the QR basis.
                if column == 0:
                    a = theta_block._free * theta_block._to_profile
                else:
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
    """Explicit lower bound c0 for the spectral gap of a stable k = 1 or k = n - 1 state.

    On the orthogonal complement of the rotational kernel the form
    dominates c0 times the plain L^2 norm on the sphere.  Per-block
    minima (with the kernel direction and the mean constraint projected
    out) are computed directly in the plain metric; the complement of
    the decomposable subspace contributes min over the sphere of 1/f_0.
    The bound degenerates to zero as eta approaches the fold from above;
    an eta outside the moment domain raises the moments' ValueError.  A
    p x p block M whose minimum is within p eps ||M||_2 of 0 raises RuntimeError.
    k = n - 1 at eta is k = 1 at -eta under m -> (m_n, ..., m_1), an
    isometry of the sphere, and returns that bound.
    """
    if 2 * params.k > params.n:
        return gap_estimate(SphereParams(params.n, params.complement), -_checked_eta(eta), grid_size)
    if params.k != 1:
        raise ValueError("the gap certificate covers the k = 1 and k = n - 1 branches")
    rule = _grid_rule(params, grid_size)
    eta = _checked_eta(eta)
    star = find_eta_star(params).eta_star
    if not eta > star:
        raise ValueError("k = 1 is stable only for eta > eta_1^*, and k = n - 1 only for eta < -eta_1^*")

    tilt = scaled_moments(params, eta)
    alpha = _branch_alpha(tilt)
    a0_scaled = tilt.a0
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
        eigenvalues = np.linalg.eigvalsh(mat)
        # Weyl: eigvalsh errs by up to p eps ||M||_2 on a p x p block M; a smaller minimum has no sign.
        noise = len(eigenvalues) * np.finfo(float).eps * np.abs(eigenvalues).max()
        return float(eigenvalues[0]) if eigenvalues[0] > noise else 0.0

    kernel_direction = sqw * _attainer(t, tilt, 0)
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
    return _area_product(params) * float(bound)


def isotropic_threshold(n: int, tol: float = 1e-8, grid_size: int = 32) -> float:
    """Interaction strength where the isotropic state loses stability.

    Bisects on alpha for the sign change of the smallest eigenvalue of
    the discretized second variation at eta = 0.  The exact crossing is
    n (n + 2) / 2 for every n.
    """
    n = _whole("n", n)
    if n < 3:
        raise ValueError("n must be at least 3")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    params = SphereParams(n, 1)

    def smallest(alpha: float) -> float:
        report = full_spectrum(params, 0.0, grid_size, alpha)
        return float(report.eigenvalues[0])

    lo, hi = 1.0, 2.0 * n * (n + 2)
    if not (smallest(lo) > 0.0 > smallest(hi)):
        raise RuntimeError("stability sign change not bracketed in alpha")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: tol is below their spacing
        if smallest(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
