"""Gaussian rules for the weighted polar measure and for spheres.

Two families of integrals appear throughout the package: integrals against
the polar measure sin^(k-1)(theta) cos^(n-k-1)(theta) dtheta on [0, pi/2],
and surface integrals over unit spheres S^(d-1).  Both get deterministic
Gaussian rules here.

The substitution t = sin^2(theta) turns the polar measure into the Jacobi
weight (1/2) t^(k/2-1) (1-t)^((n-k)/2-1) dt on [0, 1], so Gauss-Jacobi
nodes integrate it with spectral accuracy for every admissible (n, k),
including the half-integer exponents of the axisymmetric case k = 1.
Sphere integrals use a product rule over recursive spherical angles, each
angle carrying a symmetric Gauss-Jacobi rule, bottoming out at the two
point set S^0.  Integrands even in every coordinate can use the positive
orthant of the same product rule instead.

Rule objects are immutable after construction (arrays are marked
read-only) and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_jacobi

DEFAULT_ORDER = 128

#: Largest sphere dimension served by the deterministic product rule.
MAX_SPHERE_DIM = 8
_MAX_SPHERE_NODES = 6_000_000


@dataclass(frozen=True)
class SphereParams:
    """Ambient dimension n and multiplicity k of the leading eigenvalue block.

    Admissible range: n >= 3 and 1 <= k <= n - 1.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if int(self.n) != self.n or int(self.k) != self.k:
            raise ValueError("n and k must be integers")
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={self.k} for n={self.n}")

    @property
    def complement(self) -> int:
        """Multiplicity n - k of the trailing eigenvalue block."""
        return self.n - self.k


def surface_area(d: int) -> float:
    """Surface area of the unit sphere S^(d-1): 2 pi^(d/2) / Gamma(d/2)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    return float(2.0 * math.exp(0.5 * d * math.log(math.pi) - gammaln(0.5 * d)))


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class WeightedQuadrature:
    """Gauss rule for the polar measure of a given (n, k).

    ``weights @ f(nodes)`` approximates the integral of f(theta) against
    sin^(k-1)(theta) cos^(n-k-1)(theta) dtheta over [0, pi/2].  The rule is
    exact for integrands that are polynomials in sin^2(theta) of degree up
    to 2*order - 1.

    ``sin2`` caches sin^2(nodes); most integrands are functions of it.
    ``sin2_powers`` holds the rows sin2**j for j = 0..4, the polynomial
    factors of the moments A_0 .. A_8.
    """

    params: SphereParams
    nodes: np.ndarray
    weights: np.ndarray
    order: int
    sin2: np.ndarray
    sin2_powers: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def build_weighted_quadrature(
    params: SphereParams, order: int = DEFAULT_ORDER
) -> WeightedQuadrature:
    """Construct the Gauss-Jacobi rule for the polar measure.

    Nodes are returned as theta values in the open interval (0, pi/2);
    weights are strictly positive and sum to (1/2) B(k/2, (n-k)/2).
    """
    if order < 2:
        raise ValueError(f"need order >= 2, got {order}")
    a = 0.5 * (params.n - params.k - 2)
    b = 0.5 * (params.k - 2)
    x, w = roots_jacobi(order, a, b)
    t = 0.5 * (x + 1.0)
    nodes = np.arcsin(np.sqrt(t))
    # Jacobi weight on [-1, 1] maps to the t-interval with factor 2^(-n/2).
    weights = w * 2.0 ** (-0.5 * params.n)
    powers = t[None, :] ** np.arange(5)[:, None]
    _freeze(nodes, weights, t, powers)
    return WeightedQuadrature(params, nodes, weights, order, t, powers)


@lru_cache(maxsize=128)
def theta_rule(n: int, k: int, order: int = DEFAULT_ORDER) -> WeightedQuadrature:
    """Cached accessor for :func:`build_weighted_quadrature`."""
    return build_weighted_quadrature(SphereParams(n, k), order)


def integrate_mu(rule: WeightedQuadrature, f) -> float:
    """Integrate a function of theta against the polar measure.

    ``f`` is evaluated vectorized on the rule's nodes.  A non-finite value
    at any node raises ValueError rather than propagating NaN.
    """
    vals = np.asarray(f(rule.nodes), dtype=float)
    if vals.ndim == 0:
        vals = np.full(rule.nodes.shape, float(vals))
    if vals.shape != rule.nodes.shape:
        raise ValueError(
            f"integrand returned shape {vals.shape}, expected {rule.nodes.shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand is non-finite at a quadrature node")
    return float(rule.weights @ vals)


@dataclass(frozen=True)
class SphereQuadrature:
    """Product cubature on the unit sphere S^(dimension-1).

    ``points`` has shape (count, dimension) with unit rows; ``weights``
    sum to the surface area.  Exact for polynomials in the coordinates of
    total degree up to 2*order - 1 (odd monomials vanish by symmetry of
    the node set).
    """

    dimension: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _both_signs(c: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return c, w


def _positive_half(c: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The 1-d rules are symmetric under c -> -c with equal weights, so the
    # half c > 0 counts twice; a c = 0 node (odd orders) is its own mirror.
    half = c >= 0.0
    return c[half], np.where(c[half] > 0.0, 2.0 * w[half], w[half])


def _sphere_nodes(d: int, order: int, keep) -> tuple[np.ndarray, np.ndarray]:
    """Recursive product rule on S^(d-1).

    ``keep`` maps each symmetric 1-d factor, S^0 included, to the nodes
    and weights the rule uses.
    """
    if d == 1:
        c, w = keep(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        return c[:, None], w
    sub_pts, sub_w = _sphere_nodes(d - 1, order, keep)
    mu = 0.5 * (d - 3)
    c, w = keep(*roots_jacobi(order, mu, mu))
    s = np.sqrt(1.0 - c * c)
    m = sub_pts.shape[0]
    pts = np.empty((c.size * m, d))
    pts[:, 0] = np.repeat(c, m)
    pts[:, 1:] = np.repeat(s, m)[:, None] * np.tile(sub_pts, (c.size, 1))
    return pts, np.repeat(w, m) * np.tile(sub_w, c.size)


def _product_rule(d: int, order: int, keep) -> SphereQuadrature:
    if not 1 <= d <= MAX_SPHERE_DIM:
        raise ValueError(
            f"product rule supports 1 <= d <= {MAX_SPHERE_DIM}, got d={d}; "
            "use Monte Carlo sampling beyond that"
        )
    if order < 2:
        raise ValueError(f"need order >= 2, got {order}")
    # Counted on the full rule, so the orthant fold accepts the same orders.
    if 2 * order ** (d - 1) > _MAX_SPHERE_NODES:
        raise ValueError(
            f"product rule with order={order} in dimension {d} exceeds the "
            f"node budget of {_MAX_SPHERE_NODES}"
        )
    pts, w = _sphere_nodes(d, order, keep)
    _freeze(pts, w)
    return SphereQuadrature(d, pts, w)


def build_sphere_quadrature(d: int, order: int) -> SphereQuadrature:
    """Deterministic product rule on S^(d-1) for 1 <= d <= 8.

    S^0 is the two-point set {+1, -1}.  Beyond d = 8 the node count of a
    product rule is impractical; callers needing higher dimensions should
    switch to Monte Carlo sampling.
    """
    return _product_rule(d, order, _both_signs)


def build_orthant_quadrature(d: int, order: int) -> SphereQuadrature:
    """The product rule of the same (d, order) folded onto the positive orthant.

    The product rule's node set and weights are symmetric under
    m_i -> -m_i for every coordinate, so for integrands even in every
    coordinate the nodes with all coordinates >= 0, each weighted by 2 per
    nonzero coordinate, give the full rule's value with about 2^d times fewer
    nodes.  Zero coordinates occur only at odd orders.  Weights still sum
    to the surface area.
    """
    return _product_rule(d, order, _positive_half)


@lru_cache(maxsize=8)
def sphere_rule(d: int, order: int) -> SphereQuadrature:
    """Cached accessor for :func:`build_sphere_quadrature`."""
    return build_sphere_quadrature(d, order)
