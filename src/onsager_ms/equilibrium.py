"""Equilibrium states: densities, the order-tensor fixed point, its spectrum.

A critical point of the Onsager free energy with Maier-Saupe interaction
is a Boltzmann density e^{M : m m}/Z whose trace-free symmetric order
tensor M reproduces itself under

    M = alpha * ( int (m x m - I/n) e^{M:mm} dm ) / ( int e^{M:mm} dm ).

The map on the right is equivariant under conjugation by orthogonal
matrices and sends diagonal tensors to diagonal tensors, so the Picard
iteration is run on the eigenvalues in the (fixed) eigenframe of the
initial tensor; each step needs only axis second moments of a product
quadrature on the sphere.  Those integrands depend on m only through the
squares m_i^2, so the step runs on the positive orthant of the product
rule (``build_orthant_quadrature``), about 2^n times fewer nodes than the full
sphere.

Axially symmetric solutions have exactly two eigenvalue clusters,
eta(n-k)/n with multiplicity k and -eta k/n with multiplicity n-k, and
the consistency condition alpha = sigma_k(eta).  ``eigenvalue_structure``
checks a converged tensor against that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .moments import scaled_moments
from .quadrature import (
    DEFAULT_ORDER,
    SphereParams,
    _freeze,
    build_orthant_quadrature,
    sphere_rule,
    surface_area,
)
from .sigma import sigma_value

MAX_FULL_SPHERE_DIM = 6

_SPHERE_ORDER_CAP = {3: 64, 4: 48, 5: 32, 6: 16}


def sphere_order_for(n: int, alpha: float) -> int:
    """Product-rule order resolving e^{M:mm} at interaction strength alpha.

    Grows with alpha (the exponent spread grows roughly like alpha) and is
    capped per dimension to keep the node count below a few million.
    """
    if n not in _SPHERE_ORDER_CAP:
        raise ValueError(f"full-sphere work supports 3 <= n <= 6, got n={n}")
    base = int(np.ceil(abs(alpha) / 2.0)) + 20
    base += base % 2
    return min(base, _SPHERE_ORDER_CAP[n])


@dataclass(frozen=True)
class OrderTensor:
    """Symmetric trace-free n x n tensor; entries are stored read-only."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        scale = 1.0 + float(np.max(np.abs(a))) if a.size else 1.0
        if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
            raise ValueError("entries must be symmetric")
        sym = 0.5 * (a + a.T)
        if abs(float(np.trace(sym))) > 1e-10 * (1.0 + float(np.linalg.norm(sym))):
            raise ValueError("entries must be trace-free")
        _freeze(sym)
        object.__setattr__(self, "entries", sym)

    @staticmethod
    def zero(n: int) -> "OrderTensor":
        return OrderTensor(n, np.zeros((n, n)))

    @staticmethod
    def axial(params: SphereParams, eta: float) -> "OrderTensor":
        """Diagonal two-eigenvalue pattern of the axially symmetric branch."""
        lam = np.empty(params.n)
        lam[: params.k] = eta * params.complement / params.n
        lam[params.k :] = -eta * params.k / params.n
        return OrderTensor(params.n, np.diag(lam))

    @staticmethod
    def random_unit(n: int, rng: np.random.Generator | None = None) -> "OrderTensor":
        """Seeded random symmetric trace-free tensor with Frobenius norm 1."""
        if rng is None:
            rng = np.random.default_rng(0)
        while True:
            g = rng.standard_normal((n, n))
            sym = 0.5 * (g + g.T)
            sym -= np.trace(sym) / n * np.eye(n)
            norm = float(np.linalg.norm(sym))
            if norm > 1e-8:
                return OrderTensor(n, sym / norm)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True)
class CriticalPointSpec:
    """An equilibrium h^(k): axis pattern k, order parameter eta, frame R.

    The density is e^{eta |P_k R m|^2} normalized over the sphere.  For
    eta != 0 the intensity must satisfy alpha = sigma_k(eta); the
    isotropic point eta = 0 is a critical point at every alpha, so alpha
    is free there (it still enters the second-variation form).
    """

    params: SphereParams
    eta: float
    alpha: float
    rotation: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.params.n
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not np.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError("alpha must be positive")
        rot = np.eye(n) if self.rotation is None else np.asarray(self.rotation, float)
        if rot.shape != (n, n):
            raise ValueError(f"rotation must be {n}x{n}, got {rot.shape}")
        if float(np.linalg.norm(rot.T @ rot - np.eye(n))) > 1e-12:
            raise ValueError("rotation must be orthogonal")
        rot = rot.copy()
        _freeze(rot)
        object.__setattr__(self, "rotation", rot)
        if self.eta != 0.0:
            target = sigma_value(self.params, self.eta)
            if abs(self.alpha - target) > 1e-10 * target:
                raise ValueError(
                    f"alpha={self.alpha} is not sigma_k(eta)={target} "
                    "(anisotropic equilibria exist only on the branch)"
                )


def critical_point(
    params: SphereParams,
    eta: float,
    rotation: np.ndarray | None = None,
    order: int = DEFAULT_ORDER,
) -> CriticalPointSpec:
    """The branch equilibrium at eta, with alpha = sigma_k(eta) filled in."""
    return CriticalPointSpec(params, float(eta), sigma_value(params, eta, order), rotation)


def isotropic_point(n: int, alpha: float) -> CriticalPointSpec:
    """The uniform state; k is immaterial and defaults to 1."""
    return CriticalPointSpec(SphereParams(n, 1), 0.0, float(alpha))


def _validated_points(spec: CriticalPointSpec, m) -> tuple[np.ndarray, bool]:
    pts = np.asarray(m, dtype=float)
    single = pts.ndim == 1
    mat = np.atleast_2d(pts)
    if mat.ndim != 2 or mat.shape[1] != spec.params.n:
        raise ValueError(f"points must have {spec.params.n} components")
    norms = np.linalg.norm(mat, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > 1e-12:
        raise ValueError("points must lie on the unit sphere")
    return mat, single


def _log_density_values(spec: CriticalPointSpec, mat: np.ndarray, order: int) -> np.ndarray:
    params = spec.params
    rotated = mat @ spec.rotation.T
    s2 = np.einsum("ij,ij->i", rotated[:, : params.k], rotated[:, : params.k])
    scaled, shift = scaled_moments(params, spec.eta, order=order)
    log_z = shift + np.log(
        surface_area(params.k) * surface_area(params.complement) * scaled[0]
    )
    return spec.eta * s2 - log_z


def log_density(spec: CriticalPointSpec, m, order: int = DEFAULT_ORDER):
    mat, single = _validated_points(spec, m)
    vals = _log_density_values(spec, mat, order)
    return float(vals[0]) if single else vals


def density(spec: CriticalPointSpec, m, order: int = DEFAULT_ORDER):
    """Normalized equilibrium density at unit vector(s) m."""
    mat, single = _validated_points(spec, m)
    vals = np.exp(_log_density_values(spec, mat, order))
    return float(vals[0]) if single else vals


def _unit_probes(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic quasi-random unit vectors (scrambled Sobol -> Gaussian)."""
    sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
    exponent = max(int(np.ceil(np.log2(max(count, 2)))), 1)
    u = sampler.random_base2(m=exponent)[:count]
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    degenerate = norms < 1e-8
    if np.any(degenerate):
        g[degenerate] = 0.0
        g[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    return g / norms[:, None]


def euler_lagrange_residual(
    spec: CriticalPointSpec,
    alpha: float | None = None,
    probe_count: int = 64,
    order: int | None = None,
    seed: int = 0,
) -> float:
    """Deviation of ln f - alpha int (m.m')^2 f(m') dm' from a constant.

    Sampled at quasi-random unit vectors; zero (to quadrature accuracy)
    exactly when the point is a genuine critical point.  Passing an
    explicit alpha probes a deliberately inconsistent intensity.
    """
    n = spec.params.n
    if n > MAX_FULL_SPHERE_DIM:
        raise ValueError(f"residual check needs full-sphere quadrature, n <= {MAX_FULL_SPHERE_DIM}")
    if alpha is None:
        alpha = spec.alpha
    if order is None:
        order = sphere_order_for(n, spec.alpha)
    rule = sphere_rule(n, order)
    f_vals = density(spec, rule.points)
    weighted = rule.weights * f_vals
    second = (rule.points * weighted[:, None]).T @ rule.points
    probes = _unit_probes(n, probe_count, seed)
    g = log_density(spec, probes) - alpha * np.einsum(
        "ij,jk,ik->i", probes, second, probes
    )
    return float(np.max(np.abs(g - np.mean(g))))


@lru_cache(maxsize=8)
def _picard_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared coordinates and weights of the orthant rule: all the Picard step reads."""
    rule = build_orthant_quadrature(n, order)
    p2 = rule.points**2
    _freeze(p2)
    return p2, rule.weights


def _lambda_step(lam: np.ndarray, alpha: float, p2: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One Picard step on the eigenvalues, in the fixed eigenframe."""
    expo = p2 @ lam
    e = np.exp(expo - float(np.max(expo)))
    we = weights * e
    z = float(np.sum(we))
    d = we @ p2
    out = alpha * (d / z - 1.0 / lam.size)
    return out - np.mean(out)


@dataclass(frozen=True)
class FixedPointResult:
    tensor: OrderTensor
    converged: bool
    iterations: int
    update_norm: float
    residual: float


def fixed_point_map(tensor: OrderTensor, alpha: float, order: int | None = None) -> OrderTensor:
    """One application of the normalized moment map to an order tensor."""
    n = tensor.n
    if order is None:
        order = sphere_order_for(n, alpha)
    lam, frame = np.linalg.eigh(tensor.entries)
    new_lam = _lambda_step(lam, alpha, *_picard_rule(n, order))
    return OrderTensor(n, (frame * new_lam) @ frame.T)


def solve_fixed_point(
    n: int,
    alpha: float,
    initial: OrderTensor,
    max_iter: int = 500,
    tol: float = 1e-10,
    order: int | None = None,
    damping: float = 0.0,
) -> FixedPointResult:
    """Picard-iterate the order-tensor equation from the given initial tensor.

    The eigenframe of the initial tensor is invariant under the map, so
    only the eigenvalue vector is iterated.  Non-convergence is reported
    in the result, not raised.  ``damping`` in [0, 1) blends in the
    previous iterate (0 = plain Picard).
    """
    if not 3 <= n <= MAX_FULL_SPHERE_DIM:
        raise ValueError(f"fixed point solver supports 3 <= n <= {MAX_FULL_SPHERE_DIM}")
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be positive")
    if tol < 1e-12:
        raise ValueError("tol below 1e-12 is not resolvable by the quadrature")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    if initial.n != n:
        raise ValueError(f"initial tensor has n={initial.n}, expected {n}")
    if order is None:
        order = sphere_order_for(n, alpha)
    p2, weights = _picard_rule(n, order)
    lam, frame = np.linalg.eigh(initial.entries)
    update = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        target = _lambda_step(lam, alpha, p2, weights)
        new_lam = (1.0 - damping) * target + damping * lam
        update = float(np.linalg.norm(new_lam - lam))
        lam = new_lam
        if update < tol:
            break
    residual = float(np.linalg.norm(_lambda_step(lam, alpha, p2, weights) - lam))
    tensor = OrderTensor(n, (frame * lam) @ frame.T)
    return FixedPointResult(
        tensor=tensor,
        converged=bool(update < tol),
        iterations=iterations,
        update_norm=update,
        residual=residual,
    )


@dataclass(frozen=True)
class EigenClusters:
    """Eigenvalues of an order tensor grouped by a relative gap threshold.

    ``ambiguous`` flags any consecutive gap within a factor 10 of the
    threshold: near eta = 0 the two clusters coalesce continuously and
    the count is then reported conservatively (merged), not guessed.
    """

    count: int
    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    ambiguous: bool
    threshold: float


def eigenvalue_structure(tensor: OrderTensor, rel_tol: float = 1e-6) -> EigenClusters:
    """Cluster the spectrum; axially symmetric tensors give two clusters."""
    w = np.sort(np.linalg.eigvalsh(tensor.entries))
    radius = float(np.max(np.abs(w)))
    threshold = rel_tol * (1.0 + radius)
    gaps = np.diff(w)
    boundaries = np.flatnonzero(gaps > threshold)
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [w.size]))
    values = tuple(float(np.mean(w[a:b])) for a, b in zip(starts, ends))
    mult = tuple(int(b - a) for a, b in zip(starts, ends))
    ambiguous = bool(
        np.any((gaps >= threshold / 10.0) & (gaps <= threshold * 10.0))
    )
    return EigenClusters(len(values), values, mult, ambiguous, threshold)
