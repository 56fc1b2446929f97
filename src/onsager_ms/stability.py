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

The signs of the three scalars D1, D2, D3 (the downdated directions'
extreme values) decide stability: the isotropic state is stable exactly
up to alpha = n(n+2)/2; branches with 2 <= k <= n-2 are always unstable;
the k = 1 branch is stable exactly for eta above the fold eta_1^*, and
k = n-1 mirrors it under eta -> -eta.

Unstable verdicts carry an explicit witness: the Cauchy-Schwarz equality
profile of the violated functional, placed in a single basis slot, whose
decomposed form value is verified to be strictly negative.

The direct form, the decomposition's oracle, integrates the undecomposed
second variation on the polar product rule (``quadrature.polar_rule``):
phi^2 and phi m m^T have degree 4 in omega and in xi, so order-3 factor
rules are exact there, and a theta order other than the blocks' leaves
the two forms no shared nodes.  The rule's node budget is its only
limit: it checks the decomposition for every n <= 11 and raises above.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .equilibrium import CriticalPointSpec
from .moments import TiltedMeasure, _checked_eta, scaled_moments
from .quadrature import (
    DEFAULT_ORDER,
    SphereParams,
    WeightedQuadrature,
    _freeze,
    polar_rule,
    sphere_rule,
    surface_area,
    theta_rule,
)
from .sigma import _branch_alpha, _branch_slope, find_eta_star

STABLE = "Stable"
UNSTABLE = "Unstable"
MARGINAL = "Marginal"

OMEGA_A = "Omega_A"
OMEGA_B = "Omega_B"
XI_A = "Xi_A"
XI_B = "Xi_B"
THETA = "Theta"
FAMILIES = (OMEGA_A, OMEGA_B, XI_A, XI_B, THETA)

# Functional index served by each basis family in the decomposition.
GAMMA_BY_FAMILY = {OMEGA_A: 1, OMEGA_B: 1, XI_A: 2, XI_B: 2, THETA: 0}

# Polar-rule orders of the direct form: the theta order differs from the
# blocks' DEFAULT_ORDER.  Order-3 factor rules integrate degree 5 exactly,
# and every block integrand (phi^2, phi m m^T, the Gram products) has
# degree <= 4 in omega and in xi, so the Gram quadrature uses them too.
_DIRECT_THETA_ORDER = 32
_DIRECT_FACTOR_ORDER = 3

# Points per block when an assembled perturbation is evaluated: 128 KiB
# per array, so one block's temporaries stay in cache.
_PHI_BLOCK = 1 << 14


@dataclass(frozen=True)
class BasisIndex:
    """One slot of the quadratic basis U.

    A-families use (0, l); B-families use ordered pairs (i, i') with
    i < i'; the mixed Theta family uses (i, j) with i indexing omega and
    j indexing xi.  All indices are 1-based as in the defining formulas.
    """

    family: str
    indices: tuple[int, int]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        pair = (int(self.indices[0]), int(self.indices[1]))
        object.__setattr__(self, "indices", pair)
        i, j = pair
        if self.family in (OMEGA_A, XI_A):
            if i != 0 or j < 1:
                raise ValueError(f"A-family indices are (0, l) with l >= 1, got {pair}")
        elif self.family in (OMEGA_B, XI_B):
            if not 1 <= i < j:
                raise ValueError(f"B-family indices are pairs 1 <= i < i', got {pair}")
        else:
            if i < 1 or j < 1:
                raise ValueError(f"Theta indices are (i, j) with i, j >= 1, got {pair}")


def _check_ranges(idx: BasisIndex, params: SphereParams) -> None:
    k, nk = params.k, params.complement
    i, j = idx.indices
    limits = {
        OMEGA_A: j <= k - 1,
        OMEGA_B: j <= k,
        XI_A: j <= nk - 1,
        XI_B: j <= nk,
        THETA: i <= k and j <= nk,
    }
    if not limits[idx.family]:
        raise ValueError(f"{idx} is out of range for (n, k) = ({params.n}, {k})")


def basis_indices(params: SphereParams) -> tuple[BasisIndex, ...]:
    """All basis slots for (n, k), in a fixed deterministic order."""
    k, nk = params.k, params.complement
    out: list[BasisIndex] = []
    out.extend(BasisIndex(OMEGA_A, (0, l)) for l in range(1, k))
    out.extend(
        BasisIndex(OMEGA_B, (i, j)) for i in range(1, k + 1) for j in range(i + 1, k + 1)
    )
    out.extend(BasisIndex(XI_A, (0, l)) for l in range(1, nk))
    out.extend(
        BasisIndex(XI_B, (i, j)) for i in range(1, nk + 1) for j in range(i + 1, nk + 1)
    )
    out.extend(
        BasisIndex(THETA, (i, j)) for i in range(1, k + 1) for j in range(1, nk + 1)
    )
    return tuple(out)


def _a_value(vec: np.ndarray, j: int) -> np.ndarray:
    # Summed column by column: a strided reduction over the last axis is slow.
    lower = sum(vec[..., l] ** 2 for l in range(j))
    return (j * vec[..., j] ** 2 - lower) / np.sqrt(2.0 * j * (j + 1))


def _basis_values(idx: BasisIndex, omega: np.ndarray, xi: np.ndarray) -> np.ndarray:
    i, j = idx.indices
    if idx.family == OMEGA_A:
        return _a_value(omega, j)
    if idx.family == OMEGA_B:
        return omega[..., i - 1] * omega[..., j - 1]
    if idx.family == XI_A:
        return _a_value(xi, j)
    if idx.family == XI_B:
        return xi[..., i - 1] * xi[..., j - 1]
    return omega[..., i - 1] * xi[..., j - 1]


def basis_eval(idx: BasisIndex, omega, xi):
    """Evaluate a basis element at unit vectors omega (R^k) and xi (R^{n-k})."""
    omega = np.asarray(omega, dtype=float)
    xi = np.asarray(xi, dtype=float)
    params = SphereParams(omega.shape[-1] + xi.shape[-1], omega.shape[-1])
    _check_ranges(idx, params)
    for name, vec in (("omega", omega), ("xi", xi)):
        norms = np.linalg.norm(vec, axis=-1)
        if float(np.max(np.abs(norms - 1.0))) > 1e-12:
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
    """Quadrature evaluation of the Gram matrix (same conventions), exact on order-3 rules."""
    idxs = basis_indices(params)
    om_rule = sphere_rule(params.k, _DIRECT_FACTOR_ORDER)
    xi_rule = sphere_rule(params.complement, _DIRECT_FACTOR_ORDER)
    om_pts, om_w = om_rule.points, om_rule.weights
    xi_pts, xi_w = xi_rule.points, xi_rule.weights
    ones_om = np.ones(len(om_pts))
    ones_xi = np.ones(len(xi_pts))

    factors = []
    for idx in idxs:
        if idx.family in (OMEGA_A, OMEGA_B):
            factors.append((_basis_values(idx, om_pts, xi_pts[:0]), ones_xi))
        elif idx.family in (XI_A, XI_B):
            factors.append((ones_om, _basis_values(idx, om_pts[:0], xi_pts)))
        else:
            i, j = idx.indices
            factors.append((om_pts[:, i - 1], xi_pts[:, j - 1]))

    omega_like = {OMEGA_A, OMEGA_B}
    xi_like = {XI_A, XI_B}
    out = np.zeros((len(idxs), len(idxs)))
    for a, ia in enumerate(idxs):
        for b in range(a, len(idxs)):
            ib = idxs[b]
            om_factor = float(np.sum(om_w * factors[a][0] * factors[b][0]))
            xi_factor = float(np.sum(xi_w * factors[a][1] * factors[b][1]))
            if ia.family in omega_like and ib.family in omega_like:
                entry = om_factor
            elif ia.family in xi_like and ib.family in xi_like:
                entry = xi_factor
            else:
                entry = om_factor * xi_factor
            out[a, b] = out[b, a] = entry
    return out


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
        if idx.family == OMEGA_A:
            out[idx] = _wx_vector(params.k, idx.indices[1])
        elif idx.family == OMEGA_B:
            out[idx] = np.zeros(params.k)
        elif idx.family == XI_A:
            out[idx] = _wx_vector(params.complement, idx.indices[1])
        elif idx.family == XI_B:
            out[idx] = np.zeros(params.complement)
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


def _block_low(gamma: int, params: SphereParams, tilt: TiltedMeasure, alpha: float) -> float:
    """Closed-form lowest eigenvalue of block gamma at the scale of ``tilt``.

    On the branch it is the sign scalar D_gamma: D_0 = 0 (the rotation
    modes), D_1 = -2 eta A_0 E[t^2(1-t)]/((k+2)s),
    D_2 = 2 eta A_0 E[t(1-t)^2]/((n-k+2)s) and D_3 = eta A_0 sigma'/sigma.
    The value is affine in alpha and A_0 at alpha = 0, so off the branch
    it is A_0 (1 - alpha/sigma) + (alpha/sigma) D_gamma, which equals
    A_0 - c_gamma alpha N_gamma (c_gamma the rank-one coefficient,
    N_gamma the squared profile norm).
    """
    n, k, eta, a0 = params.n, params.k, tilt.eta, tilt.a0
    sigma = _branch_alpha(params, tilt)
    if gamma == 0:
        d = 0.0
    elif gamma == 1:
        d = -2.0 * eta * a0 * tilt.s_sin2 / ((k + 2) * tilt.s)
    elif gamma == 2:
        d = 2.0 * eta * a0 * tilt.s_cos2 / ((n - k + 2) * tilt.s)
    else:
        d = eta * a0 * _branch_slope(params, tilt) / sigma
    ratio = alpha / sigma
    return a0 * (1.0 - ratio) + ratio * d


def functional_I(
    gamma: int,
    params: SphereParams,
    eta: float,
    a,
    alpha: float | None = None,
    order: int = DEFAULT_ORDER,
) -> float:
    """Evaluate I_gamma at collocation values a on the theta quadrature grid.

    alpha defaults to sigma_k(eta).  gamma = 3 requires mean-zero values
    against the measure.
    """
    rule = theta_rule(params.n, params.k, order)
    vals = np.asarray(a, dtype=float)
    if vals.shape != rule.weights.shape:
        raise ValueError("coefficient values must be sampled on the quadrature grid")
    if not np.all(np.isfinite(vals)):
        raise ValueError("coefficient values must be finite")
    tilt = scaled_moments(params, eta, order=order)
    if alpha is None:
        alpha = _branch_alpha(params, tilt)
    if gamma == 3:
        w = rule.weights
        mean = float(np.sum(w * vals))
        if abs(mean) > 1e-10 * max(1.0, float(np.sum(w * np.abs(vals)))):
            raise ValueError("the radial profile b must have zero mean")
    return _functional_value(gamma, params, tilt, vals, alpha)


def _functional_value(gamma: int, params: SphereParams, tilt: TiltedMeasure, vals, alpha) -> float:
    """I_gamma at checked grid values ``vals``, from the moment pass ``tilt``."""
    w, t = tilt.rule.weights, tilt.rule.sin2
    a0 = float(np.exp(tilt.shift) * tilt.a0)
    weighted = float(np.sum(w * np.exp(-tilt.eta * t) * vals * vals))
    inner = float(np.sum(w * _profile(gamma, t) * vals))
    return a0 * weighted - _rank_one_coefficient(gamma, params) * alpha * inner * inner


def d_quantities(
    params: SphereParams, eta: float, alpha: float | None = None, order: int = DEFAULT_ORDER
) -> tuple[float, float, float]:
    """The three sign scalars deciding each block's extreme value.

    On the branch (alpha = sigma_k(eta), the default) D1 has the sign of
    -eta, D2 that of eta and D3 (mean-zero block) that of eta (eta - eta_k^*),
    each by its formula (see ``_block_low``).  eta must lie in the moment
    domain |eta| <= ETA_MAX, inside which the values stay finite.
    """
    return _d_values(params, scaled_moments(params, eta, order=order), alpha)


def _d_values(params: SphereParams, tilt: TiltedMeasure, alpha: float | None) -> tuple[float, float, float]:
    """``d_quantities`` from the moment pass ``tilt``."""
    alpha = _branch_alpha(params, tilt) if alpha is None else alpha
    factor = float(np.exp(tilt.shift))
    return tuple(_block_low(gamma, params, tilt, alpha) * factor for gamma in (1, 2, 3))


@dataclass(frozen=True)
class PerturbationTop:
    """A perturbation in the decomposable subspace, stored by collocation.

    ``coefficients`` maps basis slots to values a(theta_i) on the grid of
    ``rule``; ``b`` holds the radial profile, which must have zero mean
    against the measure.  When built from callables the function handles
    are retained so the perturbation can also be assembled pointwise on
    the full sphere.
    """

    params: SphereParams
    rule: WeightedQuadrature
    coefficients: Mapping[BasisIndex, np.ndarray]
    b: np.ndarray
    coefficient_functions: Mapping[BasisIndex, Callable] | None = None
    b_function: Callable | None = None

    def __post_init__(self) -> None:
        if self.rule.params != self.params:
            raise ValueError("quadrature rule does not match the parameters")
        coeffs: dict[BasisIndex, np.ndarray] = {}
        for idx, vals in self.coefficients.items():
            _check_ranges(idx, self.params)
            arr = np.asarray(vals, dtype=float)
            if arr.shape != self.rule.weights.shape:
                raise ValueError(f"values for {idx} do not match the grid")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"values for {idx} must be finite")
            arr = arr.copy()
            _freeze(arr)
            coeffs[idx] = arr
        object.__setattr__(self, "coefficients", MappingProxyType(coeffs))
        b = np.asarray(self.b, dtype=float).copy()
        if b.shape != self.rule.weights.shape:
            raise ValueError("b values do not match the grid")
        if not np.all(np.isfinite(b)):
            raise ValueError("b values must be finite")
        w = self.rule.weights
        if abs(float(np.sum(w * b))) > 1e-10 * max(1.0, float(np.sum(w * np.abs(b)))):
            raise ValueError("b must have zero mean against the measure")
        _freeze(b)
        object.__setattr__(self, "b", b)

    @property
    def theta_grid(self) -> np.ndarray:
        return self.rule.nodes

    @staticmethod
    def from_functions(
        params: SphereParams,
        coefficient_functions: Mapping[BasisIndex, Callable],
        b_function: Callable | None = None,
        order: int = DEFAULT_ORDER,
    ) -> "PerturbationTop":
        rule = theta_rule(params.n, params.k, order)
        theta = rule.nodes
        coeffs = {
            idx: np.asarray(f(theta), dtype=float)
            for idx, f in coefficient_functions.items()
        }
        b = np.zeros_like(theta) if b_function is None else np.asarray(b_function(theta), float)
        return PerturbationTop(
            params, rule, coeffs, b, dict(coefficient_functions), b_function
        )


def _polar_angles(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta, sin(theta) and cos(theta) of points m = (sin(theta) omega, cos(theta) xi)."""
    s2 = sum(x * x for x in pts[:, :k].T)
    if np.any(s2 <= 0.0) or np.any(s2 >= 1.0):
        raise ValueError(
            "a point has a vanishing coordinate block; even-order product rules avoid this"
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
    """Pointwise evaluator of the assembled perturbation on S^{n-1}.

    Needs the function-handle form (from_functions); collocation values
    alone do not determine the profiles off the grid.
    """
    if p.coefficient_functions is None:
        raise ValueError("perturbation carries grid values only; build it with from_functions")
    funcs = dict(p.coefficient_functions)
    b_func = p.b_function
    k = p.params.k

    def phi(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        theta, s, c = _polar_angles(pts, k)
        # Profiles depend on theta alone: evaluate each once per distinct value.
        distinct, where = _distinct(theta)
        profiles = [(idx, np.asarray(f(distinct), dtype=float)) for idx, f in funcs.items()]
        b_vals = None if b_func is None else np.asarray(b_func(distinct), dtype=float)
        out = np.zeros(theta.shape)
        # Cache-sized blocks keep the per-slot passes out of main memory;
        # coordinate-major omega and xi keep each component contiguous.
        for start in range(0, theta.size, _PHI_BLOCK):
            block = slice(start, start + _PHI_BLOCK)
            omega = (pts[block, :k].T / s[block]).T
            xi = (pts[block, k:].T / c[block]).T
            at = where[block]
            for idx, vals in profiles:
                out[block] += vals[at] * _basis_values(idx, omega, xi)
            if b_vals is not None:
                out[block] += b_vals[at]
        return out

    return phi


def _moments_at(spec: CriticalPointSpec, order: int) -> TiltedMeasure:
    """The spec's own moment pass when it was made at ``order``, else one new pass."""
    if order == spec._tilt.rule.order:
        return spec._tilt
    return scaled_moments(spec.params, spec.eta, order=order)


def quadratic_form_decomposed(spec: CriticalPointSpec, p: PerturbationTop) -> float:
    """Second-variation value of the assembled perturbation, via the blocks,
    from the moment pass at ``p``'s order (``p`` has checked its values and
    b's zero mean): the spec's own pass at the default order."""
    if p.params != spec.params:
        raise ValueError("perturbation and spec parameters differ")
    return _decomposed_value(spec, p, _moments_at(spec, p.rule.order))


def _decomposed_value(spec: CriticalPointSpec, p: PerturbationTop, tilt: TiltedMeasure) -> float:
    params = spec.params
    total = 0.0
    for idx, vals in p.coefficients.items():
        gamma = GAMMA_BY_FAMILY[idx.family]
        term = _functional_value(gamma, params, tilt, vals, spec.alpha)
        total += term / _slot_denominator(gamma, params)
    total += _functional_value(3, params, tilt, p.b, spec.alpha)
    return (surface_area(params.k) * surface_area(params.complement)) ** 2 * total


def quadratic_form_direct(spec: CriticalPointSpec, phi: Callable) -> float:
    """Second-variation value straight from the defining integrals.

    phi maps an (N, n) array of unit vectors to N values and must have
    zero mean over the sphere.  Independent of the block decomposition;
    used as its oracle.  The integrals run on ``polar_rule`` at orders
    (32, 3), placed in the spec's frame; its node budget admits n <= 11,
    and larger n raises ValueError.
    """
    params = spec.params
    n, k = params.n, params.k
    rule = polar_rule(n, k, _DIRECT_THETA_ORDER, _DIRECT_FACTOR_ORDER)
    canonical, w = rule.points, rule.weights
    identity = np.array_equal(spec.rotation, np.eye(n))
    pts = canonical if identity else canonical @ spec.rotation
    vals = np.asarray(phi(pts), dtype=float)
    if vals.shape != w.shape:
        raise ValueError("phi must return one value per quadrature point")
    if abs(float(np.sum(w * vals))) > 1e-9 * max(1.0, float(np.sum(w * np.abs(vals)))):
        raise ValueError("phi must have zero mean over the sphere")
    s2 = np.einsum("ij,ij->i", canonical[:, :k], canonical[:, :k])
    tilt = spec._tilt
    area = surface_area(params.k) * surface_area(params.complement)
    inv_f0 = area * tilt.a0 * np.exp(tilt.shift - spec.eta * s2)
    first = float(np.sum(w * vals * vals * inv_f0))
    weighted = w * vals
    tensor = (pts * weighted[:, None]).T @ pts
    tensor -= np.eye(n) * (float(np.sum(weighted)) / n)
    return first - spec.alpha * float(np.sum(tensor * tensor))


def equality_attainer(
    params: SphereParams, eta: float, gamma: int, order: int = DEFAULT_ORDER
) -> np.ndarray:
    """Grid values of the Cauchy-Schwarz equality profile of I_gamma.

    Rescaled by e^{-max(eta,0)} (an immaterial constant for a quadratic
    functional) so the values stay bounded for large positive eta.  eta
    must lie in the moment domain |eta| <= ETA_MAX, and gamma must be one
    of 0, 1, 2, 3.
    """
    tilt = scaled_moments(params, eta, order=order)
    return _attainer(tilt.rule, tilt, gamma)


def _attainer(rule: WeightedQuadrature, tilt: TiltedMeasure, gamma: int) -> np.ndarray:
    """``equality_attainer`` on ``rule``'s grid, from the moment pass ``tilt``."""
    t = rule.sin2
    base = np.exp(tilt.eta * t - tilt.shift)
    if gamma == 3:
        return base * (tilt.mean - t)
    return base * _profile(gamma, t)


@dataclass(frozen=True)
class StabilityReport:
    params: SphereParams
    eta: float
    alpha: float
    classification: str
    d_quantities: tuple[float, float, float]
    witness: PerturbationTop | None = None
    witness_value: float | None = None


def _attainer_top(params: SphereParams, tilt: TiltedMeasure, gamma: int) -> PerturbationTop:
    rule = tilt.rule
    values = _attainer(rule, tilt, gamma)
    zero = np.zeros_like(rule.weights)
    if gamma == 3:
        return PerturbationTop(params, rule, {}, values)
    slot = {0: BasisIndex(THETA, (1, 1)), 1: BasisIndex(OMEGA_A, (0, 1)), 2: BasisIndex(XI_A, (0, 1))}
    return PerturbationTop(params, rule, {slot[gamma]: values}, zero)


def _branch_verdict(params: SphereParams, eta: float, order: int) -> str:
    """The theorem's verdict on the anisotropic k-branch at eta (see ``classify``).

    Raises the moments' ValueError outside the moment domain, like every
    verdict the moments would decide there.
    """
    eta = _checked_eta(eta)
    n, k = params.n, params.k
    if 2 <= k <= n - 2:
        return UNSTABLE
    star = find_eta_star(params, order).eta_star
    if abs(eta - star) <= 1e-9:
        return MARGINAL
    return STABLE if ((eta > star) if k == 1 else (eta < star)) else UNSTABLE


def classify(
    params: SphereParams,
    eta: float,
    alpha: float | None = None,
    order: int = DEFAULT_ORDER,
) -> StabilityReport:
    """Stability verdict for the equilibrium at (k, eta).

    eta = 0 selects the isotropic point and requires an explicit positive
    alpha (stable up to n(n+2)/2).  On anisotropic branches alpha is fixed
    to sigma_k(eta): branches with 2 <= k <= n-2 are unstable at every eta;
    k = 1 is stable exactly for eta > eta_1^*; k = n-1 is its mirror
    image, stable exactly for eta < eta_{n-1}^* = -eta_1^*.  Verdicts
    within 1e-9 of a boundary are Marginal.  The report's alpha comes from
    the default-order pass; ``order`` sets the D values, fold and witness.

    eta must lie in the moment domain, finite |eta| <= ETA_MAX = 700;
    outside it the moments' ValueError is raised.
    """
    eta = float(eta)
    n, k = params.n, params.k
    if eta != 0.0 and alpha is not None:
        raise ValueError("on the anisotropic branch alpha is fixed to sigma_k(eta)")
    spec = CriticalPointSpec(params, eta, alpha)
    tilt = _moments_at(spec, order)
    dq = _d_values(params, tilt, alpha)
    if eta == 0.0:
        threshold = n * (n + 2) / 2.0
        verdict = STABLE if spec.alpha < threshold else UNSTABLE
        if abs(spec.alpha - threshold) <= 1e-9 * threshold:
            verdict = MARGINAL
        gamma = 0
    else:
        verdict = _branch_verdict(params, eta, order)
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
    top = _attainer_top(params, tilt, gamma)
    value = _decomposed_value(spec, top, tilt)
    if not value < 0.0:
        # The boundary sits below floating-point resolution here.
        return StabilityReport(params, eta, spec.alpha, MARGINAL, dq)
    return StabilityReport(params, eta, spec.alpha, UNSTABLE, dq, top, float(value))


def branch_tag(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> str:
    """Lowercase stability tag of the k-branch at eta, for diagram sampling.

    Matches ``classify`` away from eta = 0; the eta = 0 row is tagged by
    continuity along the branch (the anisotropic family degenerates to
    the isotropic point there, where the theorem's branch clauses are
    silent).  eta must lie in the moment domain |eta| <= ETA_MAX.
    """
    return _branch_verdict(params, eta, order).lower()


def _polynomial_profile(gamma: int, coeffs: np.ndarray, eta: float, offset: float = 0.0) -> Callable:
    shift = max(eta, 0.0)

    def func(theta):
        t = np.sin(np.asarray(theta, dtype=float)) ** 2
        base = np.exp(eta * t - shift)
        if gamma < 0:
            return base * np.polynomial.polynomial.polyval(t, coeffs) - offset
        return base * _profile(gamma, t) * np.polynomial.polynomial.polyval(t, coeffs)

    return func


def random_smooth_perturbation(
    params: SphereParams,
    eta: float,
    rng: np.random.Generator,
    order: int = DEFAULT_ORDER,
) -> PerturbationTop:
    """Seeded random perturbation concentrated near the branch density.

    Each basis slot gets a random polynomial in sin^2(theta), of degree 3
    for n <= 5 and 2 above, times the structural prefactor of its family
    (sin^2, cos^2, or sin cos) and the branch factor
    e^{eta sin^2 - max(eta, 0)}; the radial profile is mean-subtracted
    exactly on the grid.
    """
    # The seeded draws of the tests and of the benchmark depend on the degree.
    max_degree = 3 if params.n <= 5 else 2
    eta = float(eta)
    rule = theta_rule(params.n, params.k, order)
    funcs: dict[BasisIndex, Callable] = {}
    for idx in basis_indices(params):
        coeffs = rng.uniform(-1.0, 1.0, size=max_degree + 1)
        funcs[idx] = _polynomial_profile(GAMMA_BY_FAMILY[idx.family], coeffs, eta)
    b_coeffs = rng.uniform(-1.0, 1.0, size=max_degree + 1)
    raw = _polynomial_profile(-1, b_coeffs, eta)(rule.nodes)
    offset = float(np.sum(rule.weights * raw)) / rule.total_mass
    b_function = _polynomial_profile(-1, b_coeffs, eta, offset)
    return PerturbationTop.from_functions(params, funcs, b_function, order)
