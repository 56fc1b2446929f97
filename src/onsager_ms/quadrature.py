"""Gaussian rules for the weighted polar measure and for spheres.

Two families of integrals appear throughout the package: integrals against
the polar measure sin^(k-1)(theta) cos^(n-k-1)(theta) dtheta on [0, pi/2],
and surface integrals over unit spheres S^(d-1).  Both get deterministic
Gaussian rules here.

The substitution t = sin^2(theta) turns the polar measure into the Jacobi
weight (1/2) t^(k/2-1) (1-t)^((n-k)/2-1) dt on [0, 1], so Gauss-Jacobi
nodes integrate it with spectral accuracy for every admissible (n, k),
including the half-integer exponents of the axisymmetric case k = 1.
``gauss_jacobi`` builds every Gauss-Jacobi rule of the package in numpy
alone, after Golub & Welsch (Math. Comp. 23, 1969): nodes are the
eigenvalues of the Jacobi matrix, refined by one Newton step, and
weights are Christoffel numbers from the orthonormal three-term
recurrence.  For every (n, k) with n <= 50 and at orders 16 to 200, the
sums of w t^j, j = 0, 4, 8, of the theta rules are within 2.1e-14
relative of their Beta values.  The rule for (n, k) with 2k > n is the
mirror image t -> 1 - t of the rule for (n, n - k).
Sphere integrals use a product rule over recursive spherical angles, each
angle carrying a symmetric Gauss-Jacobi rule, bottoming out at the two
point set S^0; for d >= 2 it lists its first coordinate in ascending
order.  Integrands of degree <= 5 in the block directions omega and xi of
m = (sin(theta) omega, cos(theta) xi) use the polar rule: the polar Gauss
rule in theta times the fully symmetric degree-5 rule on S^(k-1) and on
S^(n-k-1), 2d^2 nodes on S^(d-1).
The node budget ``_MAX_SPHERE_NODES`` is the one limit on the dimension
of both kinds of sphere rule: a rule above it raises ValueError unbuilt.

Exponential integrals over the whole sphere, such as the Bingham moments,
are one-dimensional inverse Laplace transforms; ``bromwich_rule`` gives
the trapezoid rule on a Talbot contour for them.

Rule objects are immutable after construction (arrays are marked
read-only) and safe to share between threads.  A theta rule derives its
``nodes`` and ``moment_rows`` from its t-values on first use, so a rule
read only through ``weights`` and ``sin2`` holds those two arrays alone.

``theta_rule``, ``sphere_rule`` and ``polar_rule`` share one
least-recently-used cache, bounded by the bytes of the rules' arrays: at
most ``_CACHE_BYTES`` (32 MiB), about twice the 15 MB of every theta rule
with n <= 50 at orders 128 and 64.  A rule larger than the budget is
returned and not kept.  Each accessor's ``cache_info()`` reports its hits
and misses, ``maxsize`` as the byte budget and ``currsize`` as the bytes
of its rules that the cache holds.  The cache is guarded by a lock.
Every argument of the three accessors must be an integer; anything else,
40.0 included, raises ValueError before the lookup.
"""

from __future__ import annotations

import inspect
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import NamedTuple

import numpy as np

#: The theta order of everything above the rule layer, the one order whose
#: accuracy the library states; the rule layer takes any order >= 2.
DEFAULT_ORDER = 128

#: Most nodes of any sphere rule: 48 MB of points per coordinate.
_MAX_SPHERE_NODES = 6_000_000

#: Bytes of rule arrays that the rule cache holds at most.
_CACHE_BYTES = 32 << 20


@dataclass(frozen=True)
class SphereParams:
    """Ambient dimension n and multiplicity k of the leading eigenvalue block.

    Admissible range: n >= 3 and 1 <= k <= n - 1.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        # Integral floats become ints, which the rule accessors require.
        object.__setattr__(self, "n", _whole("n", self.n))
        object.__setattr__(self, "k", _whole("k", self.k))
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
    if not 1 <= d < math.inf:
        raise ValueError(f"need d >= 1, got d={d}")
    return float(2.0 * math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)))


def _area_product(params: SphereParams) -> float:
    """|S^(k-1)| |S^(n-k-1)|, the area factor of the polar measure at (n, k)."""
    return surface_area(params.k) * surface_area(params.complement)


def _beta(x: float, y: float) -> float:
    """Euler's Beta function B(x, y) for x, y > 0.

    ``math.gamma`` keeps it to a few ulps while Gamma(x + y) is finite
    (exp of lgamma sums loses up to 9e-15 at n = 50); beyond, it falls
    back on ``math.lgamma``.
    """
    if x + y < 170.0:
        return math.gamma(x) * math.gamma(y) / math.gamma(x + y)
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def gauss_jacobi(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of ``order`` points for the weight (1 - x)^a (1 + x)^b on [-1, 1].

    Returns ascending nodes in (-1, 1) and positive weights that sum to
    2^(a+b+1) B(a+1, b+1); a, b > -1 and order >= 2.  The nodes are the
    eigenvalues of the Jacobi matrix (Golub & Welsch), refined by one
    Newton step.  One pass of the orthonormal recurrence, for the
    probability measure so that q_0 = 1, gives q_(n-2), q_(n-1) and q_n at
    those eigenvalues; at n = 50 and order 200 they stay below 1e27, far
    from overflow.  The classical identity for (1 - x^2) P_m' gives the
    derivatives, and the Christoffel-Darboux formula gives
    K(x) = sum_(j<n) q_j(x)^2 at every x, so the weights are mass / K taken
    at the refined nodes by one Taylor step.  A rule with a = b is made
    exactly symmetric.
    """
    if order < 2:
        raise ValueError(f"need order >= 2, got {order}")
    if not (a > -1.0 and b > -1.0):
        raise ValueError(f"need a, b > -1, got a={a}, b={b}")
    n = order
    # Monic recurrence p_(j+1) = (x - diag_j) p_j - offsq_j p_(j-1); the
    # first terms are written apart because their general forms are 0/0 at
    # a + b = 0 (diag_0) and a + b = -1 (offsq_1).
    j = np.arange(1.0, n + 1.0)
    s = 2.0 * j + (a + b)
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b - a) * (b + a) / (s[:-1] * (s[:-1] + 2.0))
    offsq = np.empty(n)  # offsq_1 .. offsq_n
    offsq[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    j, s = j[1:], s[1:]
    offsq[1:] = 4.0 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    root = np.sqrt(offsq)
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[n :: n + 1] = root[:-1]  # the lower band, which eigvalsh reads
    x = np.linalg.eigvalsh(jacobi)
    # root[i] q_(i+1) = (x - diag_i) q_i - root[i-1] q_(i-1), q_0 = 1.
    step = (x - diag[:, None]) / root[:, None]
    ratio = (root[:-1] / root[1:]).tolist()
    q0, q1 = np.ones(n), step[0]
    for i in range(1, n - 1):
        q0, q1 = q1, step[i] * q1 - ratio[i - 1] * q0
    qn = step[n - 1] * q1 - ratio[n - 2] * q0

    def times_derivative(m: int, qm: np.ndarray, qprev: np.ndarray) -> np.ndarray:
        """(1 - x^2) q_m'(x) from q_m and q_(m-1)."""
        sm = 2 * m + a + b
        # sqrt(h_(m-1) / h_m) for the norms h_m of the classical P_m; the factor
        # (m + a + b) / (2m + a + b - 1) is 0/0 at m = 1, a + b = -1, and 1 there.
        tail = 1.0 if m == 1 else (m + a + b) / (sm - 1.0)
        norm = math.sqrt((sm + 1.0) * m * tail / ((m + a) * (m + b)))
        return (m * (a - b - sm * x) * qm + 2.0 * (m + a) * (m + b) * norm * qprev) / sm

    span = (1.0 - x) * (1.0 + x)
    dn, d1 = times_derivative(n, qn, q1), times_derivative(n - 1, q1, q0)
    kernel = root[n - 1] * (dn * q1 - d1 * qn) / span
    newton = qn * span / dn
    # K' from q'' by the Jacobi equation (1 - x^2) y'' = (a - b + (a + b + 2) x) y' - m(m + a + b + 1) y.
    drift = (a - b + (a + b + 2.0) * x) / span
    ddn = (drift * dn - n * (n + a + b + 1.0) * qn) / span
    dd1 = (drift * d1 - (n - 1) * (n + a + b) * q1) / span
    kernel -= newton * root[n - 1] * (ddn * q1 - dd1 * qn)
    x -= newton
    w = (2.0 ** (a + b + 1.0) * _beta(a + 1.0, b + 1.0)) / kernel
    if a == b:
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    return x, w


def _as_int(name: str, value) -> int:
    """``value`` as an int by ``operator.index``; ValueError naming it otherwise.

    A rule's size and dimensions must be integers: 40.0 would equal the
    key of the rule of order 40, so a cached accessor would answer it only
    once that rule exists, and raise in a cold process.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _whole(name: str, value) -> int:
    """``value`` as an int when it equals one, an integral float such as
    3.0 included; ValueError naming it otherwise (3.5, nan, inf, None)."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class WeightedQuadrature:
    """Gauss rule for the polar measure of a given (n, k).

    ``weights @ f(nodes)`` approximates the integral of f(theta) against
    sin^(k-1)(theta) cos^(n-k-1)(theta) dtheta over [0, pi/2].  The rule is
    exact for integrands that are polynomials in sin^2(theta) of degree up
    to 2*order - 1.

    ``sin2`` holds t = sin^2(nodes); most integrands are functions of it.
    ``nodes`` and ``moment_rows`` are derived from it once, on first use.
    """

    params: SphereParams
    weights: np.ndarray
    order: int
    sin2: np.ndarray

    @cached_property
    def nodes(self) -> np.ndarray:
        """theta = arcsin(sqrt(t)), in the open interval (0, pi/2)."""
        nodes = np.arcsin(np.sqrt(self.sin2))
        _freeze(nodes)
        return nodes

    @cached_property
    def moment_rows(self) -> np.ndarray:
        """Rows 1, t, t(1-t), t^2(1-t) and t(1-t)^2, whose tilted
        expectations the moment pass takes in one product."""
        t = self.sin2
        rows = np.stack((np.ones_like(t), t, t * (1 - t), t * t * (1 - t), t * (1 - t) ** 2))
        _freeze(rows)
        return rows

    @property
    def nbytes(self) -> int:
        """Bytes of the rule's arrays once ``nodes`` and ``moment_rows`` exist."""
        return 8 * self.weights.nbytes

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def build_weighted_quadrature(
    params: SphereParams, order: int = DEFAULT_ORDER
) -> WeightedQuadrature:
    """Construct the Gauss-Jacobi rule for the polar measure.

    Nodes are returned as theta values in the open interval (0, pi/2);
    weights are strictly positive and sum to (1/2) B(k/2, (n-k)/2).  For
    2k > n the rule is the mirror image of the rule for (n, n - k).
    """
    if 2 * params.k > params.n:
        return _mirror(build_weighted_quadrature(SphereParams(params.n, params.complement), order), params)
    a = 0.5 * (params.n - params.k - 2)
    b = 0.5 * (params.k - 2)
    x, w = gauss_jacobi(order, a, b)
    t = 0.5 * (x + 1.0)
    # Jacobi weight on [-1, 1] maps to the t-interval with factor 2^(-n/2).
    weights = w * 2.0 ** (-0.5 * params.n)
    _freeze(weights, t)
    return WeightedQuadrature(params, weights, order, t)


def _mirror(rule: WeightedQuadrature, params: SphereParams) -> WeightedQuadrature:
    """The rule of ``params`` from the rule of (n, n - k): t -> 1 - t, both arrays reversed."""
    t = 1.0 - rule.sin2[::-1]
    weights = rule.weights[::-1].copy()
    _freeze(weights, t)
    return WeightedQuadrature(params, weights, rule.order, t)


class _CacheInfo(NamedTuple):
    """Counters of one cached rule accessor; sizes are in bytes."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _RuleCache:
    """One least-recently-used store for rules, bounded by their ``nbytes``.

    Decorating a builder with an instance gives a cached accessor.  Every
    argument must be an integer (``_as_int``), checked before the lookup.
    Keys hold every argument with defaults filled in, so ``f(a, b)`` and
    ``f(a, b, <default>)`` share an entry.  Keeping a rule evicts the least
    recently used ones until the store is within ``budget``; a rule above
    the budget is returned and not kept.  A miss builds outside the lock,
    so two threads may build the same rule; the first one kept is returned
    to both.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._rules: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, build):
        signature = inspect.signature(build)
        names = tuple(signature.parameters)
        defaults = build.__defaults__ or ()
        arity = len(names)
        required = arity - len(defaults)
        rules, lock = self._rules, self._lock
        counts = [0, 0]  # hits, misses

        @wraps(build)
        def accessor(*args, **kwargs):
            if kwargs or not required <= len(args) <= arity:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args = bound.args
            elif len(args) < arity:
                args += defaults[len(args) - required:]
            try:
                key = (build, *map(operator.index, args))
            except TypeError:
                key = (build, *map(_as_int, names, args))  # raises, naming the argument
            lock.acquire()  # ``with lock`` would double the cost of a hit
            try:
                rule = rules.get(key)
                if rule is not None:
                    rules.move_to_end(key)
                    counts[0] += 1
                    return rule
                counts[1] += 1
            finally:
                lock.release()
            return self._keep(key, build(*key[1:]))

        def cache_info() -> _CacheInfo:
            with self._lock:
                held = sum(rule.nbytes for key, rule in self._rules.items() if key[0] is build)
                return _CacheInfo(counts[0], counts[1], self.budget, held)

        accessor.cache_info = cache_info
        return accessor

    def _keep(self, key, rule):
        if rule.nbytes > self.budget:
            return rule
        with self._lock:
            kept = self._rules.setdefault(key, rule)
            if kept is rule:
                self.nbytes += rule.nbytes
                while self.nbytes > self.budget:
                    self.nbytes -= self._rules.popitem(last=False)[1].nbytes
            return kept


_RULES = _RuleCache(_CACHE_BYTES)


@_RULES
def theta_rule(n: int, k: int, order: int = DEFAULT_ORDER) -> WeightedQuadrature:
    """Cached accessor for :func:`build_weighted_quadrature`.

    A rule with 2k > n is the mirror image of ``theta_rule(n, n - k, order)``:
    the partner is looked up, and built and kept on a miss, like any other
    key.
    """
    params = SphereParams(n, k)
    if 2 * k > n:
        return _mirror(theta_rule(n, n - k, order), params)
    return build_weighted_quadrature(params, order)


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


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Cubature on the unit sphere S^(dimension-1): a product or a polar rule.

    ``points`` has shape (count, dimension) with unit rows; ``weights``
    sum to the surface area.  A product rule of order p is exact for
    polynomials of total degree up to 2p - 1; ``polar_rule`` states its
    own exactness.  Odd monomials vanish by symmetry of the node set.
    """

    dimension: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def nbytes(self) -> int:
        return self.points.nbytes + self.weights.nbytes


def _check_budget(count: int, what: str) -> None:
    if count > _MAX_SPHERE_NODES:
        raise ValueError(f"{what} needs {count} nodes, above the node budget of {_MAX_SPHERE_NODES}")


def _sphere_nodes(d: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Recursive product rule on S^(d-1)."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    sub_pts, sub_w = _sphere_nodes(d - 1, order)
    mu = 0.5 * (d - 3)
    c, w = gauss_jacobi(order, mu, mu)
    s = np.sqrt(1.0 - c * c)
    m = sub_pts.shape[0]
    pts = np.empty((c.size * m, d))
    pts[:, 0] = np.repeat(c, m)
    pts[:, 1:] = np.repeat(s, m)[:, None] * np.tile(sub_pts, (c.size, 1))
    return pts, np.repeat(w, m) * np.tile(sub_w, c.size)


def build_sphere_quadrature(d: int, order: int) -> SphereQuadrature:
    """Deterministic product rule on S^(d-1), d >= 1, with 2 order^(d-1) nodes.

    S^0 is the two-point set {+1, -1}.  A rule above the node budget
    ``_MAX_SPHERE_NODES`` raises ValueError: order 4 reaches d = 11 and
    order 8 stops at d = 8.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    if order < 2:
        raise ValueError(f"need order >= 2, got {order}")
    _check_budget(2 * order ** (d - 1), f"product rule of order {order} on S^{d - 1}")
    pts, w = _sphere_nodes(d, order)
    _freeze(pts, w)
    return SphereQuadrature(d, pts, w)


@_RULES
def sphere_rule(d: int, order: int) -> SphereQuadrature:
    """Cached accessor for :func:`build_sphere_quadrature`."""
    return build_sphere_quadrature(d, order)


def _degree5_nodes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Fully symmetric rule on S^(d-1) exact to degree 5 (Stroud, 1971): the
    2d points +-e_i, each weighted |S^(d-1)| (4 - d) / (2d(d + 2)), negative
    from d = 5 on, and the 2d(d - 1) points (+-e_i +- e_j) / sqrt(2), each
    weighted |S^(d-1)| / (d(d + 2)).  At d = 1 it is {+1, -1}."""
    axes = np.eye(d)
    i, j = np.triu_indices(d, 1)
    pairs = np.concatenate((axes[i] + axes[j], axes[i] - axes[j])) / math.sqrt(2.0)
    pts = np.concatenate((axes, -axes, pairs, -pairs))
    scale = surface_area(d) / (d * (d + 2))
    w = np.full(len(pts), scale)
    w[: 2 * d] = 0.5 * (4 - d) * scale
    return pts, w


@_RULES
def polar_rule(n: int, k: int, theta_order: int) -> SphereQuadrature:
    """Polar product rule on S^(n-1) at the points m = (sin(theta) omega, cos(theta) xi).

    The surface measure is sin^(k-1) cos^(n-k-1) dtheta domega dxi, so the
    weights are those of ``theta_rule(n, k, theta_order)`` times those of
    the degree-5 rules on S^(k-1) and S^(n-k-1) (``_degree5_nodes``).  The
    rule is exact for integrands of degree up to 5 in omega and in xi times
    a polynomial in sin^2(theta) of degree up to 2*theta_order - 1.  Points
    are listed theta-major, so nodes of equal theta form runs.  A rule
    whose node count, 4 theta_order k^2 (n-k)^2, exceeds the node budget
    raises ValueError before it is built: at theta order 32 that admits
    every k up to n = 29.
    """
    params = SphereParams(n, k)
    count = 4 * theta_order * k * k * params.complement ** 2
    _check_budget(count, f"polar rule of theta order {theta_order} on S^{n - 1}")
    theta = theta_rule(n, k, theta_order)
    om_pts, om_w = _degree5_nodes(k)
    xi_pts, xi_w = _degree5_nodes(params.complement)
    s, c = np.sqrt(theta.sin2), np.sqrt(1.0 - theta.sin2)
    pts = np.empty((theta.order, len(om_w), len(xi_w), n))
    pts[..., :k] = s[:, None, None, None] * om_pts[None, :, None, :]
    pts[..., k:] = c[:, None, None, None] * xi_pts[None, None, :, :]
    w = theta.weights[:, None, None] * om_w[None, :, None] * xi_w[None, None, :]
    pts, w = pts.reshape(-1, n), w.reshape(-1)
    _freeze(pts, w)
    return SphereQuadrature(n, pts, w)


#: Trapezoid nodes on the full Talbot contour of ``bromwich_rule``.
BROMWICH_NODES = 48


@lru_cache(maxsize=1)
def bromwich_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for inverse Laplace transforms evaluated at t = 1.

    For F analytic off (-inf, 0], decaying at infinity and real on the
    real axis, (1/2 pi i) int_Br e^s F(s) ds ~= sum(imag(weights * F(nodes))).
    This is the trapezoid rule with N = ``BROMWICH_NODES`` on the contour
    z(theta) = N (0.5017 theta cot(0.6407 theta) - 0.6122 + 0.2645 i theta),
    -pi < theta < pi, of Trefethen, Weideman & Schmelzer ("Talbot
    quadratures and rational approximations", BIT 46, 2006), which
    converges geometrically for such F.  Since z(-theta) = conj z(theta)
    and z'(-theta) = -conj z'(theta), the terms at -theta are minus the
    conjugates of those at theta: only the N/2 nodes with theta > 0 are
    kept, and each pair sums to twice the imaginary part.  The weights
    carry the factor e^z.
    """
    count = BROMWICH_NODES
    theta = (np.arange(count // 2) + 0.5) * (2.0 * np.pi / count)
    cot = 1.0 / np.tan(0.6407 * theta)
    z = count * (0.5017 * theta * cot - 0.6122 + 0.2645j * theta)
    dz = count * (0.5017 * cot - 0.5017 * 0.6407 * theta / np.sin(0.6407 * theta) ** 2 + 0.2645j)
    weights = (2.0 / count) * np.exp(z) * dz
    _freeze(z, weights)
    return z, weights
