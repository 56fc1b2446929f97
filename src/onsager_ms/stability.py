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
k = n-1 mirrors it under eta -> -eta.

A perturbation (``PerturbationTop``) is given by its profiles, functions
of theta; the decomposed form reads their values on the blocks' theta
rule.  Unstable verdicts carry an explicit witness: the Cauchy-Schwarz
equality profile of the violated functional, placed in a single basis
slot, whose decomposed form value is verified to be strictly negative,
and which the direct form can check on the sphere.

The direct form, the decomposition's oracle, integrates the undecomposed
second variation on the polar product rule (``quadrature.polar_rule``):
phi^2 and phi m m^T have degree 4 in omega and in xi, so its degree-5
factor rules are exact there, and a theta order other than the blocks'
leaves the two forms no shared nodes.  The rule's node budget is its
only limit: it checks the decomposition at every k up to n = 29.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .equilibrium import CriticalPointSpec
from .moments import TiltedMeasure, _checked_eta, scaled_moments
from .quadrature import (
    SphereParams,
    WeightedQuadrature,
    _area_product,
    _degree5_nodes,
    _freeze,
    _whole,
    polar_rule,
    surface_area,
    theta_rule,
)
from .sigma import _alpha_at, _branch_alpha, _branch_slope, find_eta_star

STABLE = "Stable"
UNSTABLE = "Unstable"
MARGINAL = "Marginal"

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
    """All basis slots for (n, k), in a fixed deterministic order."""
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
    omega = np.asarray(omega, dtype=float)
    xi = np.asarray(xi, dtype=float)
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


def _block_low(gamma: int, tilt: TiltedMeasure, alpha: float) -> float:
    """Closed-form lowest eigenvalue of block gamma at the scale of the
    moment pass ``tilt``, which carries (n, k).

    On the branch it is the sign scalar D_gamma: D_0 = 0 (the rotation
    modes), D_1 = -2 eta A_0 E[t^2(1-t)]/((k+2)s),
    D_2 = 2 eta A_0 E[t(1-t)^2]/((n-k+2)s) and D_3 = eta A_0 sigma'/sigma.
    The value is affine in alpha and A_0 at alpha = 0, so off the branch
    it is A_0 (1 - alpha/sigma) + (alpha/sigma) D_gamma, which equals
    A_0 - c_gamma alpha N_gamma (c_gamma the rank-one coefficient,
    N_gamma the squared profile norm).
    """
    params, eta, a0 = tilt.rule.params, tilt.eta, tilt.a0
    n, k = params.n, params.k
    sigma = _branch_alpha(tilt)
    if gamma == 0:
        d = 0.0
    elif gamma == 1:
        d = -2.0 * eta * a0 * tilt.s_sin2 / ((k + 2) * tilt.s)
    elif gamma == 2:
        d = 2.0 * eta * a0 * tilt.s_cos2 / ((n - k + 2) * tilt.s)
    else:
        d = eta * a0 * _branch_slope(tilt) / sigma
    ratio = alpha / sigma
    return a0 * (1.0 - ratio) + ratio * d


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
    vals = _grid_values(a, tilt.rule, "coefficient values", zero_mean=gamma == 3)
    return _functional_value(gamma, tilt, vals, _alpha_at(tilt, alpha))


def _functional_value(gamma: int, tilt: TiltedMeasure, vals, alpha) -> float:
    """I_gamma at checked grid values ``vals``, from the moment pass ``tilt``."""
    w, t = tilt.rule.weights, tilt.rule.sin2
    a0 = float(np.exp(tilt.shift) * tilt.a0)
    weighted = float(np.sum(w * np.exp(-tilt.eta * t) * vals * vals))
    inner = float(np.sum(w * _profile(gamma, t) * vals))
    return a0 * weighted - _rank_one_coefficient(gamma, tilt.rule.params) * alpha * inner * inner


def d_quantities(
    params: SphereParams, eta: float, alpha: float | None = None
) -> tuple[float, float, float]:
    """The three sign scalars deciding each block's extreme value.

    On the branch (alpha = sigma_k(eta), the default) D1 has the sign of
    -eta, D2 that of eta and D3 (mean-zero block) that of eta (eta - eta_k^*),
    each by its formula (see ``_block_low``).  eta must lie in the moment
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
    ``b`` hold their values on ``rule``, the theta rule at DEFAULT_ORDER,
    derived once and read-only: they must be finite, and b must have zero
    mean against the measure.
    """

    params: SphereParams
    coefficient_functions: Mapping[BasisIndex, Callable]
    b_function: Callable | None = None
    rule: WeightedQuadrature = field(init=False)
    coefficients: Mapping[BasisIndex, np.ndarray] = field(init=False)
    b: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        rule = theta_rule(self.params.n, self.params.k)
        funcs = dict(self.coefficient_functions)
        coeffs = {}
        for idx, f in funcs.items():
            _check_ranges(idx, self.params)
            coeffs[idx] = _grid_values(f(rule.nodes), rule, f"values for {idx}")
        if self.b_function is None:
            b = np.zeros_like(rule.weights)
            _freeze(b)
        else:
            b = _grid_values(self.b_function(rule.nodes), rule, "b values", zero_mean=True)
        object.__setattr__(self, "coefficient_functions", MappingProxyType(funcs))
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "coefficients", MappingProxyType(coeffs))
        object.__setattr__(self, "b", b)

    @property
    def theta_grid(self) -> np.ndarray:
        return self.rule.nodes


def _grid_values(values, rule: WeightedQuadrature, name: str, zero_mean: bool = False) -> np.ndarray:
    """A read-only copy of a profile's values at ``rule``'s nodes, checked
    to be finite and, when ``zero_mean``, of zero mean against the measure:
    |sum w v| at most 1e-10 sum w |v|, a bound that scales with the values."""
    arr = np.array(values, dtype=float)
    if arr.shape != rule.weights.shape:
        raise ValueError(f"{name} do not match the grid")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    w = rule.weights
    if zero_mean and abs(float(np.sum(w * arr))) > 1e-10 * float(np.sum(w * np.abs(arr))):
        raise ValueError(f"{name} must have zero mean against the measure")
    _freeze(arr)
    return arr


def _polar_angles(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta, sin(theta) and cos(theta) of points m = (sin(theta) omega, cos(theta) xi)."""
    s2 = sum(x * x for x in pts[:, :k].T)
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
    its profiles; points where either coordinate block vanishes raise."""
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
    """The decomposed form before its area factor: each slot's I_gamma over
    its d_gamma, plus I_3 of b, from the spec's moment pass.  I_3 of an
    absent b is exactly 0.0 and is not evaluated."""
    params, tilt = spec.params, spec._tilt
    total = 0.0
    for idx, vals in p.coefficients.items():
        gamma = GAMMA_BY_FAMILY[idx.family]
        term = _functional_value(gamma, tilt, vals, spec.alpha)
        total += term / _slot_denominator(gamma, params)
    if p.b_function is None:
        return total
    return total + _functional_value(3, tilt, p.b, spec.alpha)


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
    vals = np.asarray(phi(pts), dtype=float)
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


@dataclass(frozen=True)
class StabilityReport:
    params: SphereParams
    eta: float
    alpha: float
    classification: str
    d_quantities: tuple[float, float, float]
    witness: PerturbationTop | None = None
    witness_value: float | None = None


def _attainer_top(tilt: TiltedMeasure, gamma: int) -> PerturbationTop:
    """The equality profile of I_gamma in one basis slot (b for gamma = 3),
    at the (n, k) of the moment pass ``tilt``."""
    params = tilt.rule.params

    def profile(theta):
        return _attainer(np.sin(theta) ** 2, tilt, gamma)

    if gamma == 3:
        return PerturbationTop(params, {}, profile)
    slot = {0: BasisIndex(THETA, (1, 1)), 1: BasisIndex(OMEGA_A, (0, 1)), 2: BasisIndex(XI_A, (0, 1))}
    return PerturbationTop(params, {slot[gamma]: profile})


def _branch_verdict(params: SphereParams, eta: float) -> str:
    """The theorem's verdict on the anisotropic k-branch at eta (see ``classify``).

    A branch with 2k > n is read as its mirror, the (n - k)-branch at -eta.
    Raises the moments' ValueError outside the moment domain, like every
    verdict the moments would decide there.
    """
    eta = _checked_eta(eta)
    if 2 * params.k > params.n:
        params, eta = SphereParams(params.n, params.complement), -eta
    if params.k >= 2:
        return UNSTABLE
    star = find_eta_star(params).eta_star
    if abs(eta - star) <= 1e-9:
        return MARGINAL
    return STABLE if eta > star else UNSTABLE


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
    top = _attainer_top(tilt, gamma)
    # The sign comes from the block sum, before the positive area factor,
    # which underflows at large n.
    total = _block_sum(spec, top)
    if not total < 0.0:
        # The boundary sits below floating-point resolution here.
        return StabilityReport(params, eta, spec.alpha, MARGINAL, dq)
    value = _scaled_form(params, total)
    return StabilityReport(params, eta, spec.alpha, UNSTABLE, dq, top, float(value))


def branch_tag(params: SphereParams, eta: float) -> str:
    """Lowercase stability tag of the k-branch at eta, for diagram sampling.

    Matches ``classify`` away from eta = 0; the eta = 0 row is tagged by
    continuity along the branch (the anisotropic family degenerates to
    the isotropic point there, where the theorem's branch clauses are
    silent).  eta must lie in the moment domain |eta| <= ETA_MAX.
    """
    return _branch_verdict(params, eta).lower()


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
    eta = _checked_eta(eta)
    rule = theta_rule(params.n, params.k)
    funcs: dict[BasisIndex, Callable] = {}
    for idx in basis_indices(params):
        coeffs = rng.uniform(-1.0, 1.0, size=max_degree + 1)
        funcs[idx] = _polynomial_profile(GAMMA_BY_FAMILY[idx.family], coeffs, eta)
    b_coeffs = rng.uniform(-1.0, 1.0, size=max_degree + 1)
    raw = _polynomial_profile(-1, b_coeffs, eta)(rule.nodes)
    offset = float(np.sum(rule.weights * raw)) / rule.total_mass
    b_function = _polynomial_profile(-1, b_coeffs, eta, offset)
    return PerturbationTop(params, funcs, b_function)
