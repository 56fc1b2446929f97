"""Equilibrium states: densities, the order-tensor fixed point, its spectrum.

A critical point of the Onsager free energy with Maier-Saupe interaction
is a Boltzmann density e^{M : m m}/Z whose trace-free symmetric order
tensor M reproduces itself under

    M = alpha * ( int (m x m - I/n) e^{M:mm} dm ) / ( int e^{M:mm} dm ).

The map on the right is equivariant under conjugation by orthogonal
matrices and sends diagonal tensors to diagonal tensors, so the Picard
iteration is run on the eigenvalues in the (fixed) eigenframe of the
initial tensor; each step needs only the axis second moments E[m_i^2] of
the Bingham density e^{sum_i lambda_i m_i^2}/Z.  Those are ratios of
one-dimensional inverse Laplace transforms (Kume & Wood, Biometrika 92,
2005), evaluated on ``quadrature.bromwich_rule`` in O(n) work per node,
with no sphere rule; ``bingham_second_moments`` holds them to 1e-10
relative for n <= 20 (``MAX_CONTOUR_DIM``).  The Euler-Lagrange residual
is exact: ln f - alpha int (m.m')^2 f(m') dm' is a quadratic form in m
minus a constant, so its deviation from the best constant is half the
spread of that form's eigenvalues.

Axially symmetric solutions have exactly two eigenvalue clusters,
eta(n-k)/n with multiplicity k and -eta k/n with multiplicity n-k, and
the consistency condition alpha = sigma_k(eta).  ``eigenvalue_structure``
checks a converged tensor against that shape.  A ``CriticalPointSpec``
makes its point's moment pass once and carries it; alpha defaults to
sigma_k(eta) from that pass, which the density and the forms also read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .moments import TiltedMeasure, scaled_moments
from .quadrature import SphereParams, _area_product, _freeze, _real, _whole, bromwich_rule
from .sigma import _alpha_at, _checked_alpha

#: Largest n at which ``bingham_second_moments`` keeps 1e-10 relative
#: accuracy; beyond it the contour loses digits near eta = 0.
MAX_CONTOUR_DIM = 20

#: Rounding noise of a Picard step's update norm on the contour, per unit
#: n * alpha (measured up to 1.1e-12 at n = 6..20, alpha <= 2000).
_PICARD_NOISE = 1e-12

#: Picard steps before ``solve_fixed_point`` reports non-convergence.
_PICARD_MAX_ITER = 500

_SPHERE_ORDER_CAP = {3: 64, 4: 48, 5: 32, 6: 16}


def sphere_order_for(n: int, alpha: float) -> int:
    """Product-rule order resolving e^{M:mm} at interaction strength alpha.

    Grows with alpha (the exponent spread grows roughly like alpha) and is
    capped per dimension to keep the node count below a few million.  No
    library call uses it any more: the fixed point and the residual run on
    the contour of ``bingham_second_moments``.
    """
    if n not in _SPHERE_ORDER_CAP:
        raise ValueError(f"full-sphere work supports 3 <= n <= 6, got n={n}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be non-negative and finite, got {alpha}")
    base = int(np.ceil(alpha / 2.0)) + 20
    base += base % 2
    return min(base, _SPHERE_ORDER_CAP[n])


@dataclass(frozen=True, eq=False)
class OrderTensor:
    """Symmetric trace-free n x n tensor; entries are stored read-only."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _real("entries", self.entries)
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
        if not n >= 2:
            # For n <= 1 every trace-free tensor is zero: no draw can be normalized.
            raise ValueError(f"a unit trace-free tensor needs n >= 2, got n={n}")
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


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, one per n, shared by every spec built
    without a rotation; a rotation that is passed in is checked and copied."""
    eye = np.eye(n)
    _freeze(eye)
    return eye


@dataclass(frozen=True, eq=False)
class CriticalPointSpec:
    """An equilibrium h^(k): axis pattern k, order parameter eta, frame R.

    The density is e^{eta |P_k R m|^2} normalized over the sphere.  For
    eta != 0 the intensity must satisfy alpha = sigma_k(eta), its default;
    the isotropic point eta = 0 is a critical point at every alpha, so
    alpha must be given there (it still enters the second-variation form).
    The spec makes the point's moment pass (``scaled_moments`` at
    DEFAULT_ORDER) once and keeps it, weights read-only: alpha, the
    density and the quadratic forms all read it.
    """

    params: SphereParams
    eta: float
    alpha: float | None = None
    rotation: np.ndarray | None = None
    _tilt: TiltedMeasure = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.params.n
        tilt = scaled_moments(self.params, self.eta)
        _freeze(tilt.weights)
        if self.alpha is None and tilt.eta == 0.0:
            raise ValueError("eta = 0 is the isotropic point; pass alpha explicitly")
        object.__setattr__(self, "_tilt", tilt)
        object.__setattr__(self, "eta", tilt.eta)
        object.__setattr__(self, "alpha", _alpha_at(tilt, self.alpha))
        if self.rotation is None:
            rot = _identity(n)
        else:
            rot = _real("rotation", self.rotation)
            if rot.shape != (n, n):
                raise ValueError(f"rotation must be {n}x{n}, got {rot.shape}")
            if not float(np.linalg.norm(rot.T @ rot - np.eye(n))) <= 1e-12:
                raise ValueError("rotation must be orthogonal")
            rot = rot.copy()
            _freeze(rot)
        object.__setattr__(self, "rotation", rot)
        if self.eta != 0.0:
            if abs(self.alpha - tilt.sigma) > 1e-10 * tilt.sigma:
                raise ValueError(
                    f"alpha={self.alpha} is not sigma_k(eta)={tilt.sigma} "
                    "(anisotropic equilibria exist only on the branch)"
                )


def critical_point(
    params: SphereParams, eta: float, rotation: np.ndarray | None = None
) -> CriticalPointSpec:
    """The branch equilibrium at eta != 0, with alpha = sigma_k(eta) filled in."""
    return CriticalPointSpec(params, eta, rotation=rotation)


def isotropic_point(n: int, alpha: float) -> CriticalPointSpec:
    """The uniform state; k is immaterial and defaults to 1."""
    return CriticalPointSpec(SphereParams(n, 1), 0.0, float(alpha))


def _validated_points(n: int, m) -> tuple[np.ndarray, bool]:
    """Points m as an (N, n) array of unit rows, and whether m was one vector."""
    pts = _real("points", m)
    single = pts.ndim == 1
    mat = np.atleast_2d(pts)
    if mat.ndim != 2 or mat.shape[1] != n:
        raise ValueError(f"points must have {n} components")
    norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
    if not np.all(np.abs(norms - 1.0) <= 1e-12):
        raise ValueError("points must lie on the unit sphere")
    return mat, single


def log_density(spec: CriticalPointSpec, m):
    mat, single = _validated_points(spec.params.n, m)
    params, tilt = spec.params, spec._tilt
    rotated = mat @ spec.rotation.T
    s2 = np.einsum("ij,ij->i", rotated[:, : params.k], rotated[:, : params.k])
    log_z = tilt.shift + np.log(_area_product(params) * tilt.a0)
    vals = spec.eta * s2 - log_z
    return float(vals[0]) if single else vals


def density(spec: CriticalPointSpec, m):
    """Normalized equilibrium density at unit vector(s) m."""
    vals = np.exp(log_density(spec, m))
    return float(vals) if np.ndim(vals) == 0 else vals


def bingham_second_moments(lam) -> np.ndarray:
    """Axis second moments E[m_i^2] of the density e^{sum_i lambda_i m_i^2}/Z on S^(n-1).

    With mu = lambda - max(lambda), so that every branch point lies on
    (-inf, 0],

        E[m_i^2] = (1/2) int e^s (s - mu_i)^{-1} prod_j (s - mu_j)^{-1/2} ds
                   / int e^s prod_j (s - mu_j)^{-1/2} ds

    over a Bromwich contour: Z is 2 pi^{n/2} e^{max(lambda)} times the
    inverse Laplace transform of prod_j (s - mu_j)^{-1/2} at t = 1, and
    E[m_i^2] is the derivative of log Z in lambda_i.  Both integrals run
    on ``bromwich_rule``.  Accurate to 1e-10 relative for n <= 20; larger
    n raises ValueError.
    """
    lam = _real("eigenvalues", lam)
    if lam.ndim != 1 or not 1 <= lam.size <= MAX_CONTOUR_DIM:
        raise ValueError(
            f"Bingham moments on the contour support 1 <= n <= {MAX_CONTOUR_DIM}, "
            f"got shape {lam.shape}"
        )
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    return _contour_moments(lam)


def _contour_moments(lam: np.ndarray) -> np.ndarray:
    """``bingham_second_moments`` without its input checks."""
    nodes, weights = bromwich_rule()
    inv = 1.0 / (nodes - (lam - lam.max())[:, None])
    # The nodes lie off the real axis, so the principal roots multiply to
    # prod_j (s - mu_j)^{-1/2} on the branch the contour integral needs.
    terms = weights * np.sqrt(inv).prod(axis=0)
    return (0.5 / terms.sum().imag) * (inv @ terms).imag


def euler_lagrange_residual(spec: CriticalPointSpec, alpha: float | None = None) -> float:
    """Deviation of ln f - alpha int (m.m')^2 f(m') dm' from the best constant.

    Zero exactly when the point is a genuine critical point.  Passing an
    explicit alpha probes a deliberately inconsistent intensity.  With
    S = int m m^T f dm, the function is m^T B m minus a constant for
    B = eta R^T P_k R - alpha S, so its sup deviation on the sphere from
    the best constant is (lambda_max(B) - lambda_min(B)) / 2.  In the
    spec's frame B is the diagonal eta 1[i < k] - alpha E[m_i^2], with
    E[m_i^2] from ``bingham_second_moments`` rather than from the theta
    moments behind sigma_k, so the residual stays an independent check of
    alpha = sigma_k(eta).  Supports n <= 20.
    """
    alpha = _alpha_at(spec._tilt, spec.alpha if alpha is None else alpha)
    exponent = np.zeros(spec.params.n)
    exponent[: spec.params.k] = spec.eta
    b = exponent - alpha * bingham_second_moments(exponent)
    return 0.5 * float(np.max(b) - np.min(b))


def _picard_step(lam: np.ndarray, alpha: float) -> np.ndarray:
    """One Picard step on the eigenvalues, in the fixed eigenframe.

    alpha (E[m_i^2] - 1/n), made trace-free; the 1/n drops out there.
    """
    out = alpha * _contour_moments(lam)
    return out - out.sum() / out.size


@dataclass(frozen=True)
class FixedPointResult:
    tensor: OrderTensor
    converged: bool
    iterations: int
    update_norm: float
    residual: float


def fixed_point_map(tensor: OrderTensor, alpha: float) -> OrderTensor:
    """One application of the normalized moment map to an order tensor."""
    if tensor.n > MAX_CONTOUR_DIM:
        raise ValueError(f"the moment map supports n <= {MAX_CONTOUR_DIM}, got n={tensor.n}")
    alpha = _checked_alpha(alpha)
    lam, frame = np.linalg.eigh(tensor.entries)
    new_lam = _picard_step(lam, alpha)
    return OrderTensor(tensor.n, (frame * new_lam) @ frame.T)


def solve_fixed_point(
    n: int,
    alpha: float,
    initial: OrderTensor,
    tol: float = 1e-10,
) -> FixedPointResult:
    """Picard-iterate the order-tensor equation from the given initial tensor.

    The eigenframe of the initial tensor is invariant under the map, so
    only the eigenvalue vector is iterated.  The iteration has converged
    once the update norm falls below tol, or below the contour's rounding
    noise of about 1e-12 * n * alpha where that is larger: the updates
    stall there.  Non-convergence after 500 steps is reported in the
    result, not raised.
    """
    n = _whole("n", n)
    if not 3 <= n <= MAX_CONTOUR_DIM:
        raise ValueError(f"fixed point solver supports 3 <= n <= {MAX_CONTOUR_DIM}, got n={n}")
    alpha = _checked_alpha(alpha)
    if not 1e-12 <= tol < np.inf:
        raise ValueError("tol must be finite and at least 1e-12, the contour's resolution")
    if initial.n != n:
        raise ValueError(f"initial tensor has n={initial.n}, expected {n}")
    stop = max(tol, _PICARD_NOISE * n * alpha)
    lam, frame = np.linalg.eigh(initial.entries)
    update = np.inf
    iterations = 0
    for iterations in range(1, _PICARD_MAX_ITER + 1):
        new_lam = _picard_step(lam, alpha)
        step = new_lam - lam
        update = math.sqrt(step @ step)
        lam = new_lam
        if update < stop:
            break
    residual = float(np.linalg.norm(_picard_step(lam, alpha) - lam))
    tensor = OrderTensor(n, (frame * lam) @ frame.T)
    return FixedPointResult(
        tensor=tensor,
        converged=bool(update < stop),
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


def eigenvalue_structure(tensor: OrderTensor) -> EigenClusters:
    """Cluster the spectrum, splitting at gaps above 1e-6 (1 + spectral
    radius); axially symmetric tensors give two clusters."""
    w = np.sort(np.linalg.eigvalsh(tensor.entries))
    radius = float(np.max(np.abs(w)))
    threshold = 1e-6 * (1.0 + radius)
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
