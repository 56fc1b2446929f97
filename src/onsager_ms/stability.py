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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .equilibrium import MAX_FULL_SPHERE_DIM, CriticalPointSpec, critical_point
from .moments import moment, scaled_moments
from .quadrature import (
    DEFAULT_ORDER,
    SphereParams,
    WeightedQuadrature,
    _freeze,
    sphere_rule,
    surface_area,
    theta_rule,
)
from .sigma import _branch_alpha, find_eta_star, sigma_value

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

# Full-sphere product-rule order used by the direct form, per dimension.
_DIRECT_FORM_ORDER = {3: 24, 4: 24, 5: 20, 6: 14}

# Largest exponent whose exp is a finite float.
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))

# Points per block when an assembled perturbation is evaluated: 128 KiB
# per array, so one block's temporaries stay in cache.
_PHI_BLOCK = 1 << 14

# Degree of the random polynomial profiles, per dimension (kept low at
# n = 6 so the product quadrature stays exact for the assembled phi).
_RANDOM_DEGREE = {3: 3, 4: 3, 5: 3, 6: 2}


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


def gram_matrix_quadrature(params: SphereParams, order: int = 16) -> np.ndarray:
    """Quadrature evaluation of the Gram matrix (same conventions)."""
    if params.n > MAX_FULL_SPHERE_DIM:
        raise ValueError(f"quadrature verification needs n <= {MAX_FULL_SPHERE_DIM}")
    idxs = basis_indices(params)
    om_rule = sphere_rule(params.k, order)
    xi_rule = sphere_rule(params.complement, order)
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
    return 1.0 - t


def _rank_one_coefficient(gamma: int, params: SphereParams) -> float:
    numerator = params.n if gamma == 3 else 2.0
    return numerator / _slot_denominator(gamma, params)


def _block_low(
    gamma: int, params: SphereParams, a0: float, a2: float, a4: float, alpha: float
) -> float:
    """Closed-form lowest eigenvalue of block gamma, from moments at one scale:
    D1, D2, D3 for gamma = 1, 2, 3, and zero on the branch for gamma = 0."""
    denominator = _slot_denominator(gamma, params)
    if gamma == 3:
        return a0 - params.n * alpha * (a0 * a4 - a2 * a2) / (denominator * a0)
    norm = (a2 - a4, a4, a0 - 2.0 * a2 + a4)[gamma]
    return a0 - 2.0 * alpha * norm / denominator


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
    if gamma not in (0, 1, 2, 3):
        raise ValueError(f"gamma must be one of 0, 1, 2, 3, got {gamma}")
    rule = theta_rule(params.n, params.k, order)
    vals = np.asarray(a, dtype=float)
    if vals.shape != rule.nodes.shape:
        raise ValueError("coefficient values must be sampled on the quadrature grid")
    if not np.all(np.isfinite(vals)):
        raise ValueError("coefficient values must be finite")
    eta = float(eta)
    if alpha is None:
        alpha = sigma_value(params, eta, order)
    w, t = rule.weights, rule.sin2
    if gamma == 3:
        mean = float(np.sum(w * vals))
        if abs(mean) > 1e-10 * max(1.0, float(np.sum(w * np.abs(vals)))):
            raise ValueError("the radial profile b must have zero mean")
    a0 = moment(params, eta, 0, order)
    weighted = float(np.sum(w * np.exp(-eta * t) * vals * vals))
    inner = float(np.sum(w * _profile(gamma, t) * vals))
    return a0 * weighted - _rank_one_coefficient(gamma, params) * alpha * inner * inner


def d_quantities(
    params: SphereParams,
    eta: float,
    alpha: float | None = None,
    order: int = DEFAULT_ORDER,
    scaled: bool = False,
) -> tuple[float, float, float]:
    """The three sign scalars deciding each block's extreme value.

    D1 = A0 - 2 alpha A4 / (k(k+2)) carries the sign of -eta;
    D2 (cosine analogue) carries the sign of eta;
    D3 (mean-zero block) carries the sign of eta (eta - eta_k^*).
    With ``scaled`` the common factor e^{max(eta,0)} is dropped; without
    it, an eta whose factor overflows raises ValueError.  Either way eta
    must lie in the moment domain |eta| <= ETA_MAX.
    """
    vals, shift = scaled_moments(params, eta, order=order)
    a0, a2, a4 = (float(x) for x in vals[:3])
    branch_alpha = _branch_alpha(params, vals)  # checked even when alpha is given
    alpha = branch_alpha if alpha is None else alpha
    dq = tuple(_block_low(gamma, params, a0, a2, a4, alpha) for gamma in (1, 2, 3))
    if scaled:
        return dq
    factor = float(np.exp(shift)) if shift <= _LOG_FLOAT_MAX else math.inf
    out = tuple(d * factor for d in dq)
    if not all(map(math.isfinite, out)):
        raise ValueError(
            f"D quantities overflow at eta={eta}; d_quantities(..., scaled=True) "
            "gives them without the factor e^eta"
        )
    return out


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
            if arr.shape != self.rule.nodes.shape:
                raise ValueError(f"values for {idx} do not match the grid")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"values for {idx} must be finite")
            arr = arr.copy()
            _freeze(arr)
            coeffs[idx] = arr
        object.__setattr__(self, "coefficients", MappingProxyType(coeffs))
        b = np.asarray(self.b, dtype=float).copy()
        if b.shape != self.rule.nodes.shape:
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


def quadratic_form_decomposed(spec: CriticalPointSpec, p: PerturbationTop) -> float:
    """Second-variation value of the assembled perturbation, via the blocks."""
    if p.params != spec.params:
        raise ValueError("perturbation and spec parameters differ")
    params = spec.params
    order = p.rule.order
    total = 0.0
    for idx, vals in p.coefficients.items():
        gamma = GAMMA_BY_FAMILY[idx.family]
        term = functional_I(gamma, params, spec.eta, vals, alpha=spec.alpha, order=order)
        total += term / _slot_denominator(gamma, params)
    total += functional_I(3, params, spec.eta, p.b, alpha=spec.alpha, order=order)
    return (surface_area(params.k) * surface_area(params.complement)) ** 2 * total


def quadratic_form_direct(spec: CriticalPointSpec, phi: Callable, order: int | None = None) -> float:
    """Second-variation value straight from the defining integrals.

    phi maps an (N, n) array of unit vectors to N values and must have
    zero mean over the sphere.  Independent of the block decomposition;
    used as its oracle.
    """
    params = spec.params
    n = params.n
    if n > MAX_FULL_SPHERE_DIM:
        raise ValueError(f"direct form needs full-sphere quadrature, n <= {MAX_FULL_SPHERE_DIM}")
    if order is None:
        order = _DIRECT_FORM_ORDER[n]
    rule = sphere_rule(n, order)
    pts, w = rule.points, rule.weights
    vals = np.asarray(phi(pts), dtype=float)
    if vals.shape != w.shape:
        raise ValueError("phi must return one value per quadrature point")
    if abs(float(np.sum(w * vals))) > 1e-9 * max(1.0, float(np.sum(w * np.abs(vals)))):
        raise ValueError("phi must have zero mean over the sphere")
    rotated = pts @ spec.rotation.T
    s2 = np.einsum("ij,ij->i", rotated[:, : params.k], rotated[:, : params.k])
    scaled, shift = scaled_moments(params, spec.eta)
    inv_f0 = (
        surface_area(params.k)
        * surface_area(params.complement)
        * scaled[0]
        * np.exp(shift - spec.eta * s2)
    )
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
    functional) so the values stay bounded for large positive eta.
    """
    rule = theta_rule(params.n, params.k, order)
    t = rule.sin2
    base = np.exp(eta * t - max(float(eta), 0.0))
    if gamma != 3:
        return base * _profile(gamma, t)
    scaled, _ = scaled_moments(params, eta, order=order)
    return base * (scaled[1] / scaled[0] - t)


@dataclass(frozen=True)
class StabilityReport:
    params: SphereParams
    eta: float
    alpha: float
    classification: str
    d_quantities: tuple[float, float, float]
    witness: PerturbationTop | None = None
    witness_value: float | None = None


def _attainer_top(params: SphereParams, eta: float, gamma: int, order: int) -> PerturbationTop:
    rule = theta_rule(params.n, params.k, order)
    values = equality_attainer(params, eta, gamma, order)
    zero = np.zeros_like(rule.nodes)
    if gamma == 3:
        return PerturbationTop(params, rule, {}, values)
    slot = {0: BasisIndex(THETA, (1, 1)), 1: BasisIndex(OMEGA_A, (0, 1)), 2: BasisIndex(XI_A, (0, 1))}
    return PerturbationTop(params, rule, {slot[gamma]: values}, zero)


def _unstable_report(
    spec: CriticalPointSpec, dq: tuple[float, float, float], gamma: int, order: int
) -> StabilityReport:
    top = _attainer_top(spec.params, spec.eta, gamma, order)
    value = quadratic_form_decomposed(spec, top)
    if not value < 0.0:
        # The boundary sits below floating-point resolution here.
        return StabilityReport(spec.params, spec.eta, spec.alpha, MARGINAL, dq)
    return StabilityReport(
        spec.params, spec.eta, spec.alpha, UNSTABLE, dq, top, float(value)
    )


def _classify_isotropic(params: SphereParams, alpha: float, order: int) -> StabilityReport:
    n = params.n
    threshold = n * (n + 2) / 2.0
    dq = d_quantities(params, 0.0, alpha=alpha, order=order)
    if abs(alpha - threshold) <= 1e-9 * threshold:
        return StabilityReport(params, 0.0, alpha, MARGINAL, dq)
    if alpha < threshold:
        return StabilityReport(params, 0.0, alpha, STABLE, dq)
    spec = CriticalPointSpec(params, 0.0, alpha)
    return _unstable_report(spec, dq, 0, order)


def _branch_verdict(params: SphereParams, eta: float, order: int) -> str:
    """The theorem's verdict on the anisotropic k-branch at eta (see ``classify``)."""
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

    eta = 0 selects the isotropic point and requires an explicit alpha
    (stable up to n(n+2)/2).  On anisotropic branches alpha is fixed to
    sigma_k(eta): branches with 2 <= k <= n-2 are unstable at every eta;
    k = 1 is stable exactly for eta > eta_1^*; k = n-1 is its mirror
    image, stable exactly for eta < eta_{n-1}^* = -eta_1^*.  Verdicts
    within 1e-9 of a boundary are Marginal.

    eta must lie in the moment domain, finite |eta| <= ETA_MAX = 700;
    outside it the moments' ValueError is raised.
    """
    eta = float(eta)
    n, k = params.n, params.k
    if eta == 0.0:
        if alpha is None:
            raise ValueError("eta = 0 is the isotropic point; pass alpha explicitly")
        return _classify_isotropic(params, float(alpha), order)
    if alpha is not None:
        raise ValueError("on the anisotropic branch alpha is fixed to sigma_k(eta)")
    # Branch alpha at full accuracy; `order` governs only the stability quadrature.
    spec = critical_point(params, eta, order=max(order, DEFAULT_ORDER))
    dq = d_quantities(params, eta, order=order)
    verdict = _branch_verdict(params, eta, order)
    if verdict != UNSTABLE:
        return StabilityReport(params, eta, spec.alpha, verdict, dq)
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
    return _unstable_report(spec, dq, gamma, order)


def branch_tag(params: SphereParams, eta: float, order: int = DEFAULT_ORDER) -> str:
    """Lowercase stability tag of the k-branch at eta, for diagram sampling.

    Matches ``classify`` away from eta = 0; the eta = 0 row is tagged by
    continuity along the branch (the anisotropic family degenerates to
    the isotropic point there, where the theorem's branch clauses are
    silent).
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
    max_degree: int | None = None,
) -> PerturbationTop:
    """Seeded random perturbation concentrated near the branch density.

    Each basis slot gets a random polynomial in sin^2(theta) times the
    structural prefactor of its family (sin^2, cos^2, or sin cos) and the
    branch factor e^{eta sin^2 - max(eta, 0)}; the radial profile is
    mean-subtracted exactly on the grid.
    """
    if max_degree is None:
        if params.n not in _RANDOM_DEGREE:
            raise ValueError(f"pass max_degree explicitly for n = {params.n}")
        max_degree = _RANDOM_DEGREE[params.n]
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
