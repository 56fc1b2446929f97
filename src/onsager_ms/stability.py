"""Second-variation analysis at an equilibrium: basis, block functionals, verdicts.

The quadratic form of the free energy at an axially symmetric state acts
on mean-zero perturbations phi of the density.  Written in polar product
coordinates m = (sin(theta) omega, cos(theta) xi), the subspace spanned
by a(theta) p(omega, xi) with p in the quadratic basis U, plus radial
profiles b(theta) of zero mean, captures every component of m x m - I/n;
on it the form splits into one-dimensional functionals I_0 .. I_3, one
per basis slot, each a rank-one downdate of a weighted norm:

    I_gamma(a) = A_0(eta) * int e^{-eta sin^2} a^2 dmu
                 - c_gamma * alpha * ( int u_gamma a dmu )^2.

The basis families, their slots (1-based) and counts, and the functional
each feeds (``_FAMILY_TABLE``; every per-family rule is read from it):

    family   slots                     count           feeds  on
    Omega_A  (0, l), l <= k-1          k-1             I_1    S^(k-1)
    Omega_B  (i, i'), i < i' <= k      k(k-1)/2        I_1    S^(k-1)
    Xi_A     (0, l), l <= n-k-1        n-k-1           I_2    S^(n-k-1)
    Xi_B     (i, i'), i < i' <= n-k    (n-k)(n-k-1)/2  I_2    S^(n-k-1)
    Theta    (i, j), i <= k, j <= n-k  k(n-k)          I_0    both: omega_i xi_j
    b        radial profile b(theta)   1               I_3

The signs of the three scalars D1, D2, D3 (the downdated directions'
extreme values) decide stability: the isotropic state is stable exactly
up to alpha = n(n+2)/2; branches with 2 <= k <= n-2 are always unstable;
the k = 1 branch is stable exactly for eta above the fold eta_1^*, and
k = n-1 mirrors it under eta -> -eta.  That branch rule and the verdict
constants STABLE, UNSTABLE and MARGINAL live in ``sigma``, beside the
fold.  Each formula below reads a point's one moment pass, whose field
``sigma`` is sigma_k(eta).

A perturbation (``PerturbationTop``) is given by its profiles, functions
of theta.  Their values on the blocks' theta rule form one read-only
array, a row per slot and b's row last, checked once; the decomposed form
reads it.  I_gamma has one implementation, over a stack of such rows,
which the decomposed form, ``functional_I`` and the witness below call.
The profiles of a seeded random perturbation are the rows of one
polynomial table, which a single call evaluates at every theta for the
grid and for the assembled evaluator.

Unstable verdicts carry an explicit witness: the Cauchy-Schwarz
equality profile of the violated functional, placed in a single basis
slot, whose decomposed form value is verified to be strictly negative,
and which the direct form can check on the sphere.  ``classify`` takes
that value from the witness's one grid row, with the checks a
``PerturbationTop`` makes, and decides the verdict from it; the
``PerturbationTop`` itself, ``StabilityReport.witness``, is built from
the point's moment pass on first read and holds the same row.

The direct form, the decomposition's oracle, integrates the undecomposed
second variation on the polar product rule (``quadrature.polar_rule``):
phi^2 and phi m m^T have degree 4 in omega and in xi, so its degree-5
factor rules are exact there, and a theta order other than the blocks'
leaves the two forms no shared nodes.  The rule's node budget is its
only limit: it checks the decomposition at every k up to n = 29.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .equilibrium import CriticalPointSpec, _validated_points
from .moments import TiltedMeasure, _checked_eta, scaled_moments
from .quadrature import (
    SphereParams,
    WeightedQuadrature,
    _area_product,
    _degree5_nodes,
    _freeze,
    _real,
    _whole,
    polar_rule,
    surface_area,
    theta_rule,
)
from .sigma import MARGINAL, STABLE, UNSTABLE, _alpha_at, _branch_slope, _branch_verdict

OMEGA_A = "Omega_A"
OMEGA_B = "Omega_B"
XI_A = "Xi_A"
XI_B = "Xi_B"
THETA = "Theta"

# Each family's functional I_gamma and slot kind: "A" or "B" on the factor
# sphere of gamma, or "mixed" on both (see the module docstring).
_FAMILY_TABLE = {
    OMEGA_A: (1, "A"),
    OMEGA_B: (1, "B"),
    XI_A: (2, "A"),
    XI_B: (2, "B"),
    THETA: (0, "mixed"),
}
FAMILIES = tuple(_FAMILY_TABLE)
GAMMA_BY_FAMILY = {family: gamma for family, (gamma, _) in _FAMILY_TABLE.items()}

# Theta order of the direct form's polar rule, other than the blocks'
# DEFAULT_ORDER.  Every block integrand (phi^2, phi m m^T, the Gram
# products) has degree <= 4 in omega and in xi, so the degree-5 factor
# rules of the polar rule serve the Gram quadrature too.
_DIRECT_THETA_ORDER = 32

# Points per block when an assembled perturbation is evaluated: 128 KiB
# per array, so one block's temporaries stay in cache.
_PHI_BLOCK = 1 << 14


@dataclass(frozen=True)
class BasisIndex:
    """One slot of the quadratic basis U, indexed as the module docstring's
    table states: (0, l), (i, i') with i < i', or (i, j) for Theta."""

    family: str
    indices: tuple[int, int]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        try:
            i, j = self.indices
        except (TypeError, ValueError):
            raise ValueError(f"indices must be a pair (i, j), got {self.indices!r}") from None
        pair = i, j = _whole("basis index i", i), _whole("basis index j", j)
        object.__setattr__(self, "indices", pair)
        kind = _FAMILY_TABLE[self.family][1]
        if kind == "A" and not (i == 0 and j >= 1):
            raise ValueError(f"A-family indices are (0, l) with l >= 1, got {pair}")
        if kind == "B" and not 1 <= i < j:
            raise ValueError(f"B-family indices are pairs 1 <= i < i', got {pair}")
        if kind == "mixed" and not (i >= 1 and j >= 1):
            raise ValueError(f"Theta indices are (i, j) with i, j >= 1, got {pair}")


def _side(gamma: int, params: SphereParams) -> int:
    """Dimension of a one-sphere slot's factor: k for omega (gamma = 1), else n - k."""
    return params.k if gamma == 1 else params.complement


def _limits(family: str, params: SphereParams) -> tuple[int, int, int]:
    """The largest i and the largest j of a family's slots at (n, k), and
    the number of slots, in closed form."""
    gamma, kind = _FAMILY_TABLE[family]
    if kind == "mixed":
        return params.k, params.complement, params.k * params.complement
    d = _side(gamma, params)
    return (0, d - 1, d - 1) if kind == "A" else (d - 1, d, d * (d - 1) // 2)


def _check_ranges(idx: BasisIndex, params: SphereParams) -> None:
    top_i, top_j, _ = _limits(idx.family, params)
    i, j = idx.indices
    if not (i <= top_i and j <= top_j):
        raise ValueError(f"{idx} is out of range for (n, k) = ({params.n}, {params.k})")


def basis_indices(params: SphereParams) -> tuple[BasisIndex, ...]:
    """All basis slots for (n, k), in a fixed deterministic order: one
    shared tuple of frozen slots per (n, k)."""
    return _basis_indices(params.n, params.k)


@lru_cache(maxsize=128)
def _basis_indices(n: int, k: int) -> tuple[BasisIndex, ...]:
    params = SphereParams(n, k)
    out: list[BasisIndex] = []
    for family, (_, kind) in _FAMILY_TABLE.items():
        top_i, top_j, _ = _limits(family, params)
        for i in range(0 if kind == "A" else 1, top_i + 1):
            first_j = i + 1 if kind == "B" else 1
            out.extend(BasisIndex(family, (i, j)) for j in range(first_j, top_j + 1))
    return tuple(out)


def _a_value(vec: np.ndarray, j: int) -> np.ndarray:
    # Summed column by column: a strided reduction over the last axis is slow.
    lower = sum(vec[..., l] ** 2 for l in range(j))
    return (j * vec[..., j] ** 2 - lower) / np.sqrt(2.0 * j * (j + 1))


def _basis_values(idx: BasisIndex, omega: np.ndarray, xi: np.ndarray) -> np.ndarray:
    gamma, kind = _FAMILY_TABLE[idx.family]
    i, j = idx.indices
    if kind == "mixed":
        return omega[..., i - 1] * xi[..., j - 1]
    vec = omega if gamma == 1 else xi
    return _a_value(vec, j) if kind == "A" else vec[..., i - 1] * vec[..., j - 1]


def basis_eval(idx: BasisIndex, omega, xi):
    """Evaluate a basis element at unit vectors omega (R^k) and xi (R^{n-k})."""
    omega = _real("omega", omega)
    xi = _real("xi", xi)
    params = SphereParams(omega.shape[-1] + xi.shape[-1], omega.shape[-1])
    _check_ranges(idx, params)
    for name, vec in (("omega", omega), ("xi", xi)):
        norms = np.linalg.norm(vec, axis=-1)
        if not float(np.max(np.abs(norms - 1.0))) <= 1e-12:
            raise ValueError(f"{name} must be a unit vector")
    vals = _basis_values(idx, omega, xi)
    return float(vals) if np.ndim(vals) == 0 else vals


def _slot_denominator(gamma: int, params: SphereParams) -> int:
    """Normalizing constant d_gamma of functional I_gamma's basis slots."""
    k, nk = params.k, params.complement
    return (k * nk, k * (k + 2), nk * (nk + 2), k * nk)[gamma]


def _gram_constant(params: SphereParams, family: str) -> float:
    gamma = GAMMA_BY_FAMILY[family]
    area_k, area_nk = surface_area(params.k), surface_area(params.complement)
    return (area_k * area_nk, area_k, area_nk)[gamma] / _slot_denominator(gamma, params)


def gram_matrix(params: SphereParams) -> np.ndarray:
    """Closed-form Gram matrix of the basis, diagonal by orthogonality.

    Convention: omega-only pairs are integrated over S^{k-1}, xi-only
    pairs over S^{n-k-1}, and everything else (Theta and cross-family
    pairs) over the product sphere.
    """
    return np.diag([_gram_constant(params, idx.family) for idx in basis_indices(params)])


def gram_matrix_quadrature(params: SphereParams) -> np.ndarray:
    """Quadrature evaluation of the Gram matrix (same conventions), exact on
    the degree-5 rules of each factor sphere."""
    idxs = basis_indices(params)
    om_pts, om_w = _degree5_nodes(params.k)
    xi_pts, xi_w = _degree5_nodes(params.complement)
    # Each slot's values on the omega nodes and on the xi nodes; a
    # one-sphere slot reads only its own factor and is 1 on the other.
    rows = []
    for idx in idxs:
        gamma, kind = _FAMILY_TABLE[idx.family]
        if kind == "mixed":
            i, j = idx.indices
            rows.append((om_pts[:, i - 1], xi_pts[:, j - 1]))
        else:
            vals = _basis_values(idx, om_pts, xi_pts)
            rows.append((vals, np.ones(len(xi_w))) if gamma == 1 else (np.ones(len(om_w)), vals))
    om, xi = (np.array(side) for side in zip(*rows))
    om_gram, xi_gram = (om * om_w) @ om.T, (xi * xi_w) @ xi.T
    # Omega-only pairs integrate over S^(k-1) alone, xi-only pairs over S^(n-k-1).
    gamma = np.array([GAMMA_BY_FAMILY[idx.family] for idx in idxs])
    pair = np.where(gamma[:, None] == gamma[None, :], gamma, 0)
    return np.select([pair == 1, pair == 2], [om_gram, xi_gram], om_gram * xi_gram)


def _wx_vector(d: int, l: int) -> np.ndarray:
    pref = 2.0 * surface_area(d) / (d * (d + 2)) / np.sqrt(2.0 * l * (l + 1))
    v = np.zeros(d)
    v[:l] = -pref
    v[l] = l * pref
    return v


def wx_functionals(params: SphereParams) -> dict[BasisIndex, np.ndarray]:
    """W_i(Omega_I) and X_j(Xi_J) tables: the second moments against
    omega_i^2 - 1/k (resp. xi_j^2 - 1/(n-k)).

    B-family entries vanish identically; A-family vectors sum to zero and
    have squared norm 2 S_d^2 / (d (d+2))^2 for the relevant d.
    """
    out: dict[BasisIndex, np.ndarray] = {}
    for idx in basis_indices(params):
        gamma, kind = _FAMILY_TABLE[idx.family]
        if kind != "mixed":
            d = _side(gamma, params)
            out[idx] = _wx_vector(d, idx.indices[1]) if kind == "A" else np.zeros(d)
    return out


def _profile(gamma: int, t: np.ndarray) -> np.ndarray:
    """Rank-one direction u_gamma of each functional, as a function of t = sin^2."""
    if gamma == 0:
        return np.sqrt(t * (1.0 - t))
    if gamma in (1, 3):
        return t
    if gamma == 2:
        return 1.0 - t
    raise ValueError(f"gamma must be one of 0, 1, 2, 3, got {gamma}")


def _rank_one_coefficient(gamma: int, params: SphereParams) -> float:
    numerator = params.n if gamma == 3 else 2.0
    return numerator / _slot_denominator(gamma, params)


def _sign_scalar(gamma: int, tilt: TiltedMeasure) -> float:
    """The sign scalar D_gamma, alpha-free, at the scale of the moment pass
    ``tilt``, which carries (n, k): D_0 = 0 (the rotation modes),
    D_1 = -2 eta A_0 E[t^2(1-t)]/((k+2)s), D_2 = 2 eta A_0 E[t(1-t)^2]/((n-k+2)s)
    and D_3 = eta A_0 sigma'/sigma."""
    params, eta, a0 = tilt.rule.params, tilt.eta, tilt.a0
    if gamma == 0:
        return 0.0
    if gamma == 1:
        return -2.0 * eta * a0 * tilt.s_sin2 / ((params.k + 2) * tilt.s)
    if gamma == 2:
        return 2.0 * eta * a0 * tilt.s_cos2 / ((params.n - params.k + 2) * tilt.s)
    return eta * a0 * _branch_slope(tilt) / tilt.sigma


def _low_at(tilt: TiltedMeasure, alpha: float, d: float) -> float:
    """The closed-form low value of a block with sign scalar d: D_gamma on
    the branch, and affine in alpha with A_0 at alpha = 0, so
    A_0 (1 - alpha/sigma) + (alpha/sigma) D_gamma = A_0 - c_gamma alpha N_gamma
    (c_gamma the rank-one coefficient, N_gamma the squared profile norm)."""
    ratio = alpha / tilt.sigma
    return tilt.a0 * (1.0 - ratio) + ratio * d


def _block_low(gamma: int, tilt: TiltedMeasure, alpha: float) -> float:
    """Closed-form lowest eigenvalue of block gamma at alpha, at ``tilt``'s scale."""
    return _low_at(tilt, alpha, _sign_scalar(gamma, tilt))


def functional_I(
    gamma: int,
    params: SphereParams,
    eta: float,
    a,
    alpha: float | None = None,
) -> float:
    """Evaluate I_gamma at collocation values a on the theta quadrature grid.

    alpha defaults to sigma_k(eta).  gamma = 3 requires mean-zero values
    against the measure.
    """
    tilt = scaled_moments(params, eta)
    rows = _grid_values([a], tilt.rule, lambda _: "coefficient values")
    if gamma == 3:
        _check_zero_mean(rows[0], tilt.rule, "coefficient values")
    return _functional_value(tilt, rows, (gamma,), _alpha_at(tilt, alpha))[0]


def _functional_value(tilt: TiltedMeasure, rows: np.ndarray, gammas: Sequence[int], alpha) -> list[float]:
    """I_gamma of each row of checked grid values ``rows``, with gamma
    ``gammas[i]`` for row i, from the moment pass ``tilt``.

    w e^{-eta t} and each w u_gamma are formed once per call.  Every row
    sees the per-element operations of a one-row call, and a sum along
    the last axis sums one row alone, so a row's value does not depend
    on the rows beside it.
    """
    w, t = tilt.rule.weights, tilt.rule.sin2
    params = tilt.rule.params
    w_profiles = {gamma: w * _profile(gamma, t) for gamma in set(gammas)}
    a0 = float(np.exp(tilt.shift) * tilt.a0)
    weighted = (w * np.exp(-tilt.eta * t) * rows * rows).sum(axis=1).tolist()
    # Shaped as ``rows``, so that no rows (the zero perturbation) give no values.
    stacked = np.array([w_profiles[gamma] for gamma in gammas]).reshape(rows.shape)
    inner = (stacked * rows).sum(axis=1).tolist()
    return [
        a0 * square - _rank_one_coefficient(gamma, params) * alpha * x * x
        for gamma, square, x in zip(gammas, weighted, inner)
    ]


def d_quantities(
    params: SphereParams, eta: float, alpha: float | None = None
) -> tuple[float, float, float]:
    """The three sign scalars deciding each block's extreme value.

    On the branch (alpha = sigma_k(eta), the default) D1 has the sign of
    -eta, D2 that of eta and D3 (mean-zero block) that of eta (eta - eta_k^*),
    each by its formula (see ``_sign_scalar``).  eta must lie in the moment
    domain |eta| <= ETA_MAX, inside which the values stay finite.
    """
    return _d_values(scaled_moments(params, eta), alpha)


def _d_values(tilt: TiltedMeasure, alpha: float | None) -> tuple[float, float, float]:
    """``d_quantities`` from the moment pass ``tilt``."""
    alpha = _alpha_at(tilt, alpha)
    factor = float(np.exp(tilt.shift))
    return tuple(_block_low(gamma, tilt, alpha) * factor for gamma in (1, 2, 3))


@dataclass(frozen=True, eq=False)
class PerturbationTop:
    """A perturbation in the decomposable subspace, given by its profiles.

    ``coefficient_functions`` maps basis slots to profiles a(theta), and
    ``b_function`` is the radial profile b(theta), zero when None; each
    maps an array of theta to one value per entry.  ``coefficients`` and
    ``b`` hold their values on ``rule``, the theta rule at DEFAULT_ORDER:
    the rows of one read-only array, slots first and b last, derived once
    and checked once.  They must be finite, and b must have zero mean
    against the measure.
    """

    params: SphereParams
    coefficient_functions: Mapping[BasisIndex, Callable]
    b_function: Callable | None = None
    rule: WeightedQuadrature = field(init=False)
    coefficients: Mapping[BasisIndex, np.ndarray] = field(init=False)
    b: np.ndarray = field(init=False)
    # The stacked rows behind ``coefficients`` and ``b``, and each row's gamma.
    _rows: np.ndarray = field(init=False, repr=False)
    _gammas: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rule = theta_rule(self.params.n, self.params.k)
        funcs = dict(self.coefficient_functions)
        slots = list(funcs)
        for idx in slots:
            _check_ranges(idx, self.params)
        profiles = list(funcs.values())
        if self.b_function is not None:
            profiles.append(self.b_function)
        values = _profile_values(profiles, rule.nodes)
        if self.b_function is None:
            values = [*values, np.zeros_like(rule.weights)]
        rows = _grid_values(
            values, rule, lambda row: f"values for {slots[row]}" if row < len(slots) else "b values"
        )
        if self.b_function is not None:
            _check_zero_mean(rows[-1], rule, "b values")
        object.__setattr__(self, "coefficient_functions", MappingProxyType(funcs))
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "coefficients", MappingProxyType(dict(zip(slots, rows))))
        object.__setattr__(self, "b", rows[-1])
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_gammas", tuple(GAMMA_BY_FAMILY[idx.family] for idx in slots) + (3,))

    @property
    def theta_grid(self) -> np.ndarray:
        return self.rule.nodes


def _grid_values(values, rule: WeightedQuadrature, name: Callable[[int], str]) -> np.ndarray:
    """A read-only copy of profiles' values at ``rule``'s nodes, one row per
    profile, checked once to be real, to match the grid and to be finite.
    When the check fails, the first bad row is found and ``name(row)``
    names it."""
    try:
        arr = _real("values", values)
    except ValueError:  # complex rows, rows of unequal shapes or not numbers: found below
        arr = None
    if arr is None or arr.shape != (len(values), rule.weights.size) or not np.isfinite(arr).all():
        for row, vals in enumerate(values):
            vals = _real(name(row), vals)
            if vals.shape != rule.weights.shape:
                raise ValueError(f"{name(row)} do not match the grid")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name(row)} must be finite")
    _freeze(arr)
    return arr


def _check_zero_mean(vals: np.ndarray, rule: WeightedQuadrature, name: str) -> None:
    """Zero mean of grid values against the measure: |sum w v| at most
    1e-10 sum w |v|, a bound that scales with the values."""
    w = rule.weights
    if abs(float(np.sum(w * vals))) > 1e-10 * float(np.sum(w * np.abs(vals))):
        raise ValueError(f"{name} must have zero mean against the measure")


class _ProfileTable:
    """Profiles of theta, one row each, evaluated in one pass.

    Row r is e^{eta t - shift} u_gamma(t) p_r(t) - offset_r, with
    t = sin^2(theta), shift = max(eta, 0), gamma = ``gammas[r]`` (None:
    no u factor) and p_r the polynomial in t whose coefficients, lowest
    degree first, are ``coeffs[r]``.  The polynomials are summed by
    Horner's rule, in the order of numpy.polynomial's evaluation.
    """

    def __init__(self, eta: float, gammas: Sequence[int | None], coeffs: np.ndarray, offsets: np.ndarray):
        self.eta, self.shift = eta, max(eta, 0.0)
        self.gammas, self.coeffs, self.offsets = tuple(gammas), coeffs, offsets

    def __call__(self, theta, rows: Sequence[int]) -> np.ndarray:
        """Values of the given rows at theta, of shape (len(rows),) + theta's."""
        t = np.sin(np.asarray(theta, dtype=float)) ** 2
        base = np.exp(self.eta * t - self.shift)
        gammas = [self.gammas[r] for r in rows]
        factors = {gamma: base if gamma is None else base * _profile(gamma, t) for gamma in set(gammas)}
        lift = (len(rows),) + (1,) * t.ndim
        coeffs = self.coeffs[rows]
        poly = coeffs[:, -1].reshape(lift) + t * 0
        for j in range(coeffs.shape[1] - 2, -1, -1):
            poly = coeffs[:, j].reshape(lift) + poly * t
        return np.array([factors[gamma] for gamma in gammas]) * poly - self.offsets[rows].reshape(lift)


class _TableRow:
    """One row of a ``_ProfileTable``, as a profile a(theta)."""

    def __init__(self, table: _ProfileTable, row: int):
        self.table, self.row = table, row

    def __call__(self, theta) -> np.ndarray:
        return self.table(theta, [self.row])[0]


def _profile_values(profiles: Sequence[Callable], theta: np.ndarray):
    """Each profile's values at theta: one table call, an array with one row
    per profile, when every profile is a row of one ``_ProfileTable``, and
    otherwise a list of one call's values per profile."""
    if profiles and all(isinstance(f, _TableRow) and f.table is profiles[0].table for f in profiles):
        return profiles[0].table(theta, [f.row for f in profiles])
    return [f(theta) for f in profiles]


def _polar_angles(coords: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta, sin(theta) and cos(theta) of points m = (sin(theta) omega,
    cos(theta) xi), from their coordinates ``coords``, one row per component."""
    s2 = sum(x * x for x in coords[:k])
    if np.any(s2 <= 0.0) or np.any(s2 >= 1.0):
        raise ValueError(
            "a point has a vanishing coordinate block, where the polar angle is undefined; "
            "the nodes of polar_rule avoid this"
        )
    s = np.sqrt(s2)
    return np.arcsin(np.clip(s, 0.0, 1.0)), s, np.sqrt(1.0 - s2)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of a 1-d array, and each entry's index among them."""
    # Product rules list nodes of equal theta in runs: collapsing the runs
    # first leaves a short sort.  The NaN opens the first run.
    starts = np.flatnonzero(np.diff(values, prepend=np.nan) != 0.0)
    distinct, inverse = np.unique(values[starts], return_inverse=True)
    return distinct, np.repeat(inverse, np.diff(np.append(starts, values.size)))


def assemble_sphere_function(p: PerturbationTop) -> Callable:
    """Pointwise evaluator of the assembled perturbation on S^{n-1}, from
    its profiles.  phi takes an (N, n) array of unit vectors, or one
    vector, and returns N values; points that are not unit vectors of
    R^n, and points where either coordinate block vanishes, raise."""
    slots = list(p.coefficient_functions)
    profiles = list(p.coefficient_functions.values())
    has_b = p.b_function is not None
    if has_b:
        profiles.append(p.b_function)
    n, k = p.params.n, p.params.k

    def phi(pts):
        pts, _ = _validated_points(n, pts)
        # One coordinate-major copy: every component contiguous.
        coords = pts.T.copy()
        theta, s, c = _polar_angles(coords, k)
        # Profiles depend on theta alone: evaluate each once per distinct value.
        distinct, where = _distinct(theta)
        values = [_real("profile values", vals) for vals in _profile_values(profiles, distinct)]
        out = np.zeros(theta.shape)
        # Cache-sized blocks keep the per-slot passes out of main memory.
        for start in range(0, theta.size, _PHI_BLOCK):
            block = slice(start, start + _PHI_BLOCK)
            omega = (coords[:k, block] / s[block]).T
            xi = (coords[k:, block] / c[block]).T
            at = where[block]
            for idx, vals in zip(slots, values):
                out[block] += vals[at] * _basis_values(idx, omega, xi)
            if has_b:
                out[block] += values[-1][at]
        return out

    return phi


def quadratic_form_decomposed(spec: CriticalPointSpec, p: PerturbationTop) -> float:
    """Second-variation value of the assembled perturbation, via the blocks
    (``p`` has checked its values and b's zero mean), from the spec's own
    moment pass, on whose grid ``p`` carries its values.

    The block sum is scaled by (|S^(k-1)| |S^(n-k-1)|)^2, about 5e-296 at
    (n, k) = (255, 1) and smaller beyond.  Where a nonzero sum times it
    leaves the normal doubles (below 2.2e-308), as it does at
    (n, k, eta) = (270, 1, 5), ValueError names n."""
    if p.params != spec.params:
        raise ValueError("perturbation and spec parameters differ")
    return _scaled_form(spec.params, _block_sum(spec, p))


def _scaled_form(params: SphereParams, total: float) -> float:
    """The decomposed form from its block sum ``total``: that times the
    positive factor (|S^(k-1)| |S^(n-k-1)|)^2.  ValueError naming n when
    a nonzero sum underflows there to zero or a subnormal."""
    value = _area_product(params) ** 2 * total
    if total != 0.0 and abs(value) < np.finfo(float).tiny:
        raise ValueError(f"the decomposed form underflows at n = {params.n}: the block sum is {total:g}")
    return value


def _block_sum(spec: CriticalPointSpec, p: PerturbationTop) -> float:
    """The decomposed form before its area factor, from the spec's moment
    pass over ``p``'s rows.  I_3 of an absent b is exactly 0.0 and is not
    evaluated."""
    slots = len(p.coefficients)
    rows = slots + (p.b_function is not None)
    return _rows_sum(spec._tilt, spec.alpha, p._rows[:rows], p._gammas[:rows], slots)


def _rows_sum(tilt: TiltedMeasure, alpha: float, rows: np.ndarray, gammas: Sequence[int], slots: int) -> float:
    """Each of the first ``slots`` rows' I_gamma over its d_gamma, plus I_3
    of the row after them when there is one (b), in one
    ``_functional_value`` call from the moment pass ``tilt``."""
    params = tilt.rule.params
    values = _functional_value(tilt, rows, gammas, alpha)
    total = 0.0
    for gamma, term in zip(gammas, values[:slots]):
        total += term / _slot_denominator(gamma, params)
    return total + values[slots] if len(values) > slots else total


def quadratic_form_direct(spec: CriticalPointSpec, phi: Callable) -> float:
    """Second-variation value straight from the defining integrals.

    phi maps an (N, n) array of unit vectors to N values and must have
    zero mean over the sphere.  Independent of the block decomposition;
    used as its oracle.  The integrals run on ``polar_rule`` at theta
    order 32, placed in the spec's frame; its node budget admits every k
    up to n = 29, and a rule above it, such as (30, 15), raises ValueError.
    """
    params = spec.params
    n, k = params.n, params.k
    rule = polar_rule(n, k, _DIRECT_THETA_ORDER)
    canonical, w = rule.points, rule.weights
    identity = np.array_equal(spec.rotation, np.eye(n))
    pts = canonical if identity else canonical @ spec.rotation
    vals = _real("phi values", phi(pts))
    if vals.shape != w.shape:
        raise ValueError("phi must return one value per quadrature point")
    if not np.all(np.isfinite(vals)):
        raise ValueError("phi values must be finite")
    if abs(float(np.sum(w * vals))) > 1e-9 * float(np.sum(w * np.abs(vals))):
        raise ValueError("phi must have zero mean over the sphere")
    s2 = np.einsum("ij,ij->i", canonical[:, :k], canonical[:, :k])
    tilt = spec._tilt
    inv_f0 = _area_product(params) * tilt.a0 * np.exp(tilt.shift - spec.eta * s2)
    first = float(np.sum(w * vals * vals * inv_f0))
    weighted = w * vals
    tensor = (pts * weighted[:, None]).T @ pts
    tensor -= np.eye(n) * (float(np.sum(weighted)) / n)
    return first - spec.alpha * float(np.sum(tensor * tensor))


def equality_attainer(params: SphereParams, eta: float, gamma: int) -> np.ndarray:
    """Grid values of the Cauchy-Schwarz equality profile of I_gamma.

    Rescaled by e^{-max(eta,0)} (an immaterial constant for a quadratic
    functional) so the values stay bounded for large positive eta.  eta
    must lie in the moment domain |eta| <= ETA_MAX, and gamma must be one
    of 0, 1, 2, 3.
    """
    tilt = scaled_moments(params, eta)
    return _attainer(tilt.rule.sin2, tilt, gamma)


def _attainer(t: np.ndarray, tilt: TiltedMeasure, gamma: int) -> np.ndarray:
    """``equality_attainer`` at t = sin^2(theta), from the moment pass ``tilt``."""
    base = np.exp(tilt.eta * t - tilt.shift)
    if gamma == 3:
        return base * (tilt.mean - t)
    return base * _profile(gamma, t)


# The slot of each functional's witness; gamma = 3 places it in b.
_WITNESS_SLOTS = {0: BasisIndex(THETA, (1, 1)), 1: BasisIndex(OMEGA_A, (0, 1)), 2: BasisIndex(XI_A, (0, 1))}


def _attainer_top(tilt: TiltedMeasure, gamma: int) -> PerturbationTop:
    """The equality profile of I_gamma in one basis slot (b for gamma = 3),
    at the (n, k) of the moment pass ``tilt``."""
    params = tilt.rule.params

    def profile(theta):
        return _attainer(np.sin(theta) ** 2, tilt, gamma)

    if gamma == 3:
        return PerturbationTop(params, {}, profile)
    return PerturbationTop(params, {_WITNESS_SLOTS[gamma]: profile})


@dataclass(frozen=True)
class StabilityReport:
    """A verdict with its D values and, for an unstable point, the value of
    the decomposed form at its witness.  ``witness``, the equality profile
    of the violated functional in one basis slot (None unless the point
    is unstable), is built on first read from the point's moment pass;
    its rows are those ``witness_value`` was computed from."""

    params: SphereParams
    eta: float
    alpha: float
    classification: str
    d_quantities: tuple[float, float, float]
    witness_value: float | None = None
    _tilt: TiltedMeasure | None = field(default=None, repr=False, compare=False)
    _gamma: int | None = field(default=None, repr=False, compare=False)  # the witness's functional

    @cached_property
    def witness(self) -> PerturbationTop | None:
        return None if self._gamma is None else _attainer_top(self._tilt, self._gamma)


def classify(
    params: SphereParams,
    eta: float,
    alpha: float | None = None,
) -> StabilityReport:
    """Stability verdict for the equilibrium at (k, eta).

    eta = 0 selects the isotropic point and requires an explicit positive
    alpha (stable up to n(n+2)/2).  On anisotropic branches alpha is fixed
    to sigma_k(eta): branches with 2 <= k <= n-2 are unstable at every eta;
    k = 1 is stable exactly for eta > eta_1^*; k = n-1 is its mirror
    image, stable exactly for eta < eta_{n-1}^* = -eta_1^*.  Verdicts
    within 1e-9 of a boundary are Marginal.  The point's own moment pass
    gives alpha, the D values and the witness.

    eta must lie in the moment domain, finite |eta| <= ETA_MAX = 700;
    outside it the moments' ValueError is raised.
    """
    eta = float(eta)
    n, k = params.n, params.k
    if eta != 0.0 and alpha is not None:
        raise ValueError("on the anisotropic branch alpha is fixed to sigma_k(eta)")
    spec = CriticalPointSpec(params, eta, alpha)
    tilt = spec._tilt
    dq = _d_values(tilt, alpha)
    if eta == 0.0:
        threshold = n * (n + 2) / 2.0
        verdict = STABLE if spec.alpha < threshold else UNSTABLE
        if abs(spec.alpha - threshold) <= 1e-9 * threshold:
            verdict = MARGINAL
        gamma = 0
    else:
        verdict = _branch_verdict(params, eta)
        # The Omega witness (D1 < 0 for eta > 0) needs k >= 2 and the Xi
        # witness (D2 < 0 for eta < 0) needs n-k >= 2; on k = 1 and k = n-1
        # between the fold and zero the mean-zero block is the one that goes
        # negative.
        if eta > 0 and k > 1:
            gamma = 1
        elif eta < 0 and k < n - 1:
            gamma = 2
        else:
            gamma = 3
    if verdict != UNSTABLE:
        return StabilityReport(params, eta, spec.alpha, verdict, dq)
    # The witness's one row, with the bits its PerturbationTop holds and
    # the checks it makes: the witness itself is built only when read.
    rule = tilt.rule
    rows = _grid_values(
        [_attainer(np.sin(rule.nodes) ** 2, tilt, gamma)],
        rule,
        lambda _: "b values" if gamma == 3 else f"values for {_WITNESS_SLOTS[gamma]}",
    )
    if gamma == 3:
        _check_zero_mean(rows[0], rule, "b values")
    # The sign comes from the block sum, before the positive area factor,
    # which underflows at large n.
    total = _rows_sum(tilt, spec.alpha, rows, (gamma,), 0 if gamma == 3 else 1)
    if not total < 0.0:
        # The boundary sits below floating-point resolution here.
        return StabilityReport(params, eta, spec.alpha, MARGINAL, dq)
    value = _scaled_form(params, total)
    return StabilityReport(params, eta, spec.alpha, UNSTABLE, dq, float(value), tilt, gamma)


def branch_tag(params: SphereParams, eta: float) -> str:
    """Lowercase stability tag of the k-branch at eta, for diagram sampling.

    Matches ``classify`` away from eta = 0; the eta = 0 row is tagged by
    continuity along the branch (the anisotropic family degenerates to
    the isotropic point there, where the theorem's branch clauses are
    silent).  eta must lie in the moment domain |eta| <= ETA_MAX.
    """
    return _branch_verdict(params, eta).lower()


def random_smooth_perturbation(
    params: SphereParams,
    eta: float,
    rng: np.random.Generator,
) -> PerturbationTop:
    """Seeded random perturbation concentrated near the branch density.

    Each basis slot gets a random polynomial in sin^2(theta), of degree 3
    for n <= 5 and 2 above, times the structural prefactor of its family
    (sin^2, cos^2, or sin cos) and the branch factor
    e^{eta sin^2 - max(eta, 0)}; the radial profile is mean-subtracted
    exactly on the grid.  Every profile is a row of one table.
    """
    # The seeded draws of the tests and of the benchmark depend on the degree
    # and on the order: one row of coefficients per slot, then b's.
    max_degree = 3 if params.n <= 5 else 2
    eta = _checked_eta(eta)
    rule = theta_rule(params.n, params.k)
    slots = basis_indices(params)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(slots) + 1, max_degree + 1))
    gammas = [GAMMA_BY_FAMILY[idx.family] for idx in slots] + [None]
    raw = _ProfileTable(eta, gammas, coeffs, np.zeros(len(gammas)))(rule.nodes, [len(slots)])[0]
    offset = float(np.sum(rule.weights * raw)) / rule.total_mass
    table = _ProfileTable(eta, gammas, coeffs, np.append(np.zeros(len(slots)), offset))
    funcs = {idx: _TableRow(table, row) for row, idx in enumerate(slots)}
    return PerturbationTop(params, funcs, _TableRow(table, len(slots)))
