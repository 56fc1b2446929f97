"""Discretized spectra of the second-variation blocks.

In the weighted metric <a, a>_w = int e^{-eta sin^2} a^2 dmu each block
functional I_gamma is A_0 times the identity minus a rank-one term: on
the grid the matrix A_0 I - c q q^T, restricted to mean-zero profiles
for the b block.  Its spectrum follows from that structure (Golub, SIAM
Rev. 15, 1973) without a factorization: A_0 on the complement of q, and
the downdated value A_0 - c |Pq|^2, where P projects q off the mean
constraint for b and is the identity otherwise.  One tilted product on
the grid per point, g = w e^(eta t - shift) summed against t(1-t), t^2,
(1-t)^2 and, for b, the centred (t - E_g t)^2, gives |Pq|^2 for all four
blocks.  On every call each block's grid eigenvalue is compared, as a
scalar, with its closed form from the moments (one of the sign scalars
D1, D2, D3, or exactly zero for the mixed block on an anisotropic
branch); a disagreement means the grid cannot resolve the exponential
weight and raises instead of returning garbage.  A block is its
scalars: its eigenvalue and closed-form arrays, its grid columns and its
eigenvectors (a complete QR factorization of q, with the constraint as a
leading column for b) are built on first read.  A ``full_spectrum``
report is its scalars too: the moment pass, the grid product, the checks
and the kernel and gap diagnostics run when it is made, while its
``blocks``, its pooled ``eigenvalues`` and its ``kernel_projection`` are
built from each block's three scalars on first read.  Which families
are present at (n, k), their counts and the blocks' rank-one
coefficients are worked out once per (n, k) and cached.

Which family feeds which block, and how many slots (the block's
multiplicity) each has, is listed once, in ``stability``'s docstring.
The zero modes of the mixed block I_0 are the rotational kernel of the
equilibrium, one per Theta slot, each a multiple of e^{eta sin^2} sin cos.
``full_spectrum`` has one block per gamma, shared by every family that
gamma serves, and identifies the kernel and the spectral gap from the
blocks' distinct values and their multiplicities;
``gap_estimate`` turns the block minima into an explicit lower bound in
the plain L^2 metric for stable k = 1 states and their k = n - 1 mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

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
    THETA,
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
    return dict(zip(BLOCK_FAMILIES, _layout(params.n, params.k)[0]))


# Every (n, k) with n <= 50, as the fold cache holds; two short tuples each.
@lru_cache(maxsize=1224)
def _layout(n: int, k: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The slot count of each of ``BLOCK_FAMILIES`` at (n, k), b's included,
    and the rank-one coefficient of each gamma, worked out once per (n, k)."""
    params = SphereParams(n, k)
    counts = tuple(_limits(family, params)[2] for family in FAMILIES) + (1,)
    return counts, tuple(_rank_one_coefficient(gamma, params) for gamma in range(4))


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Spectrum of one block functional I_gamma in the weighted metric,
    from its rank-one structure.

    Every basis family served by one gamma carries this same block, so a
    ``full_spectrum`` report builds one per gamma, when its ``blocks`` are
    first read, and maps each of its families to it.  A block is three
    scalars, in plain units: the downdated value A_0 - c |Pq|^2 of the
    grid, the bulk value A_0, and the closed-form low value from the
    moments; the two low values agree to the grid-resolution check's
    tolerance.  Its arrays are built from them on first read.
    ``eigenvalues`` is ascending: the downdated value, then A_0 for every
    other eigenpair.  ``closed_form`` is the same spectrum with the low
    value from the moments.  ``eigenvectors``
    columns hold the coefficient profiles a(theta_i) on the grid of
    ``rule``, orthonormal in the weighted metric, the downdated
    direction first.  They come from a complete QR factorization of the
    block's grid columns (the mean constraint for b, then q).  The
    constrained b block has one eigenpair fewer than grid points.
    """

    params: SphereParams
    gamma: int
    eta: float
    alpha: float
    rule: WeightedQuadrature
    _low: float = field(repr=False)  # the grid's downdated value
    _bulk: float = field(repr=False)  # A_0
    _closed_low: float = field(repr=False)  # the downdated value from the moments

    @property
    def _size(self) -> int:
        return self.rule.weights.size - (self.gamma == 3)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        evals = np.full(self._size, self._bulk)
        evals[0] = self._low
        _freeze(evals)
        return evals

    @cached_property
    def closed_form(self) -> np.ndarray:
        closed = np.full(self._size, self._bulk)
        closed[0] = self._closed_low
        closed.sort()
        _freeze(closed)
        return closed

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """The block's grid columns: the mean constraint for b, then q."""
        w, t = self.rule.weights, self.rule.sin2
        root_mass = np.sqrt(w * np.exp(self.eta * t - max(self.eta, 0.0)))
        direction = root_mass * _profile(self.gamma, t)
        return (root_mass, direction) if self.gamma == 3 else (direction,)

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
    alpha = _alpha_at(tilt, alpha)
    rule, scalars = _block_scalars(tilt, (family,), grid_size, alpha)
    gamma = _GAMMA_BY_BLOCK[family]
    return BlockSpectrum(params, gamma, tilt.eta, alpha, rule, *scalars[gamma])


def _projected_norms(rule: WeightedQuadrature, eta: float, shift: float) -> tuple[float, ...]:
    """|Pq_gamma|^2 for gamma = 0, 1, 2, 3 on ``rule``, at the scale
    e^(-shift): sums of g = w e^(eta t - shift) against t(1-t), t^2,
    (1-t)^2, and for b the centred (t - E_g t)^2, which keeps its
    accuracy where the tilted measure concentrates."""
    t = rule.sin2
    g = eta * t - shift
    np.exp(g, out=g)
    g *= rule.weights
    gt = g * t
    rest = 1.0 - t
    centred = t - gt.sum() / g.sum()
    return float(gt @ rest), float(gt @ t), float((g * rest) @ rest), float((g * centred) @ centred)


def _block_scalars(
    tilt: TiltedMeasure, families: Iterable[str], grid_size: int, alpha: float
) -> tuple[WeightedQuadrature, dict[int, tuple[float, float, float]]]:
    """The grid rule and, keyed by gamma, the grid low value, bulk A_0 and
    closed-form low value in plain units of one block per gamma of
    ``families``, from the moment pass ``tilt`` and one product on the
    grid, with alpha resolved; a block whose grid value disagrees with its
    closed form raises, naming the first of its families."""
    params = tilt.rule.params
    rule = _grid_rule(params, grid_size)
    coefficients = _layout(params.n, params.k)[1]
    eta, a0 = tilt.eta, tilt.a0
    norms = _projected_norms(rule, eta, tilt.shift)
    factor = float(np.exp(tilt.shift))
    scalars: dict[int, tuple[float, float, float]] = {}
    for family in families:
        gamma = _GAMMA_BY_BLOCK[family]
        if gamma in scalars:
            continue
        grid_low = a0 - coefficients[gamma] * alpha * norms[gamma]
        low = _block_low(gamma, tilt, alpha)
        # The grid spectrum (grid_low, A_0, ..., A_0) against the sorted
        # closed form: only the low entry and, when low > A_0, the top differ.
        error = max(abs(grid_low - min(low, a0)), abs(a0 - max(low, a0)))
        if error > _CLOSED_FORM_RTOL * max(a0, abs(low)):
            raise RuntimeError(
                f"dense and closed-form spectra disagree for {family} at eta = {eta:g}; "
                "increase grid_size"
            )
        scalars[gamma] = grid_low * factor, a0 * factor, low * factor
    return rule, scalars


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Aggregated block spectra with kernel and gap diagnostics.

    The report is its scalars: the distinct eigenvalues and their
    multiplicities, from which the kernel and gap diagnostics are taken
    when it is made, and each block's three scalars.  Entries of
    magnitude below ``threshold`` (a fixed fraction of the spectral
    radius) count as kernel; ``gap`` is the smallest remaining
    eigenvalue, negative exactly when the state is unstable.
    ``ambiguous`` flags eigenvalues within a decade of the threshold,
    where the kernel count should not be trusted.  Built on first read:
    ``eigenvalues``, which pools every block with its multiplicity;
    ``blocks``, which maps every family of one gamma to the same
    ``BlockSpectrum``; and ``kernel_projection``, the worst squared
    alignment of a numerical kernel mode with the rotational profile
    e^{eta sin^2} sin cos (None when no kernel was detected).
    """

    params: SphereParams
    eta: float
    alpha: float
    grid_size: int
    multiplicities: Mapping[str, int]
    threshold: float
    kernel_dim: int
    gap: float
    ambiguous: bool
    _values: tuple[float, ...] = field(repr=False)  # distinct eigenvalues, ascending
    _counts: tuple[int, ...] = field(repr=False)  # their multiplicities
    _rule: WeightedQuadrature = field(repr=False)  # the grid
    _tilt: TiltedMeasure = field(repr=False)  # the point's moment pass
    # Each block's grid low value, bulk A_0 and closed-form low value, by gamma.
    _scalars: Mapping[int, tuple[float, float, float]] = field(repr=False)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        pooled = np.repeat(self._values, self._counts)
        _freeze(pooled)
        return pooled

    @cached_property
    def blocks(self) -> Mapping[str, BlockSpectrum]:
        by_gamma = {
            gamma: BlockSpectrum(self.params, gamma, self.eta, self.alpha, self._rule, *scalars)
            for gamma, scalars in self._scalars.items()
        }
        return MappingProxyType(
            {family: by_gamma[_GAMMA_BY_BLOCK[family]] for family, count in self.multiplicities.items() if count}
        )

    @cached_property
    def kernel_projection(self) -> float | None:
        low, bulk, _ = self._scalars[0]
        # Column 0 holds the downdated value, every later column the bulk.
        zero_columns = [0] if abs(low) < self.threshold else []
        if abs(bulk) < self.threshold:
            zero_columns += range(1, self._rule.weights.size)
        if not zero_columns:
            return None
        theta_block = self.blocks[THETA]
        w = theta_block.rule.weights
        g = _attainer(theta_block.rule.sin2, self._tilt, 0)
        g_norm = float(np.sum(w * g * g))
        fractions = []
        for column in zero_columns:
            # Column 0 is q (P is the identity off b) up to sign and scale,
            # which the ratio below ignores; only a bulk column needs the
            # QR basis.
            if column == 0:
                a = theta_block._columns[0] * theta_block._to_profile
            else:
                a = theta_block.eigenvectors[:, column]
            overlap = float(np.sum(w * a * g)) ** 2
            fractions.append(overlap / (float(np.sum(w * a * a)) * g_norm))
        return float(min(fractions))


def full_spectrum(
    params: SphereParams,
    eta: float,
    grid_size: int = 64,
    alpha: float | None = None,
) -> SpectrumReport:
    """Spectrum of the full discretized second variation at (k, eta).

    One moment pass and one alpha (sigma_k(eta) by default) serve every
    block, and one product on the grid gives every block's downdated
    value, checked against its closed form before the report is made.
    The diagnostics come from each block's distinct values and their
    multiplicities; the pooled eigenvalues, the blocks and the kernel
    projection are built from the blocks' scalars on first read.
    """
    tilt = scaled_moments(params, eta)
    alpha = _alpha_at(tilt, alpha)
    counts = family_multiplicities(params)
    present = [family for family, count in counts.items() if count]
    rule, scalars = _block_scalars(tilt, present, grid_size, alpha)
    pairs: list[tuple[float, int]] = []
    for family in present:
        gamma, count = _GAMMA_BY_BLOCK[family], counts[family]
        low, bulk, _ = scalars[gamma]
        # The downdated value, then the bulk at A_0 on every other grid
        # direction (one fewer for the constrained b block).
        pairs += [(low, count), (bulk, count * (rule.weights.size - 1 - (gamma == 3)))]
    pairs.sort()
    values = tuple(value for value, _ in pairs)
    multiplicities = tuple(count for _, count in pairs)

    magnitudes = [abs(value) for value in values]
    threshold = KERNEL_RTOL * max(magnitudes)
    kernel_dim = sum(count for size, count in zip(magnitudes, multiplicities) if size < threshold)
    gap = min((value for value, size in zip(values, magnitudes) if not size < threshold), default=0.0)
    ambiguous = any(threshold / 10.0 <= size <= threshold * 10.0 for size in magnitudes)
    return SpectrumReport(
        params,
        tilt.eta,
        alpha,
        grid_size,
        MappingProxyType(counts),
        threshold,
        kernel_dim,
        gap,
        ambiguous,
        values,
        multiplicities,
        rule,
        tilt,
        scalars,
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
        return full_spectrum(params, 0.0, grid_size, alpha)._values[0]

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
