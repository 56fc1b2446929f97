import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from onsager_ms import quadrature
from onsager_ms.quadrature import (
    DEFAULT_ORDER,
    SphereParams,
    bromwich_rule,
    build_sphere_quadrature,
    build_weighted_quadrature,
    gauss_jacobi,
    integrate_mu,
    polar_rule,
    sphere_rule,
    surface_area,
    theta_rule,
)

PAIRS = [(n, k) for n in range(3, 9) for k in range(1, n)]


def polar_mass(n, k):
    return 0.5 * special.beta(k / 2.0, (n - k) / 2.0)


def test_sphere_params_validation():
    with pytest.raises(ValueError):
        SphereParams(2, 1)
    with pytest.raises(ValueError):
        SphereParams(4, 0)
    with pytest.raises(ValueError):
        SphereParams(4, 4)
    p = SphereParams(5, 2)
    assert p.complement == 3


@pytest.mark.parametrize(
    "n,k,name",
    [(math.nan, 1, "n"), (math.inf, 1, "n"), (None, 1, "n"), (3.5, 1, "n"), (5, math.nan, "k"), (5, -math.inf, "k")],
)
def test_sphere_params_name_a_non_integer(n, k, name):
    """n and k are checked as integers before anything converts them: nan,
    inf and None raise the library's own ValueError, naming the argument."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        SphereParams(n, k)


def test_order_floor():
    with pytest.raises(ValueError):
        build_weighted_quadrature(SphereParams(4, 1), order=1)


@pytest.mark.parametrize("n,k", PAIRS)
def test_total_mass(n, k):
    rule = build_weighted_quadrature(SphereParams(n, k), order=24)
    assert rule.total_mass == pytest.approx(polar_mass(n, k), rel=1e-13)


@pytest.mark.parametrize("n,k", PAIRS)
def test_nodes_interior(n, k):
    rule = build_weighted_quadrature(SphereParams(n, k), order=16)
    assert np.all(rule.nodes > 0.0)
    assert np.all(rule.nodes < np.pi / 2.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(rule.weights > 0.0)
    assert np.allclose(rule.sin2, np.sin(rule.nodes) ** 2, atol=1e-15)


@given(
    pair=st.sampled_from(PAIRS),
    j=st.integers(min_value=0, max_value=15),
    order=st.integers(min_value=8, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_exactness(pair, j, order):
    """Monomials in sin^2(theta) integrate exactly up to degree 2*order - 1."""
    n, k = pair
    if j > 2 * order - 1:
        return
    rule = build_weighted_quadrature(SphereParams(n, k), order=order)
    got = float(np.sum(rule.weights * rule.sin2**j))
    exact = 0.5 * special.beta((k + 2 * j) / 2.0, (n - k) / 2.0)
    assert got == pytest.approx(exact, rel=1e-12)


# Pairs of the accuracy test: small n, both special cases a + b = 0 (n = 4)
# and b = -1/2 (k = 1), middle and extreme k, and their mirror images.
ACCURACY_PAIRS = [(3, 1), (3, 2), (4, 1), (4, 2), (8, 3), (8, 5), (20, 1), (38, 19), (50, 1), (50, 49)]


@pytest.fixture(scope="module")
def beta_40_digits():
    mp = pytest.importorskip("mpmath")

    @functools.lru_cache(maxsize=None)
    def value(x2: int, y2: int) -> float:
        """0.5 B(x2 / 2, y2 / 2) to 40 digits, rounded once."""
        with mp.workdps(40):
            return float(mp.beta(mp.mpf(x2) / 2, mp.mpf(y2) / 2) / 2)

    return value


@pytest.mark.parametrize("order", [16, 64, 128, 200])
@pytest.mark.parametrize("n,k", ACCURACY_PAIRS)
def test_theta_rule_moments_against_mpmath(beta_40_digits, n, k, order):
    """sum w t^j = (1/2) B(k/2 + j, (n-k)/2) to 1e-13 relative for j = 0, 4, 8;
    rules with 2k > n are mirror images and are held to the same bound."""
    rule = theta_rule(n, k, order)
    assert rule.order == order and rule.weights.size == order
    for j in (0, 4, 8):
        got = math.fsum(rule.weights * rule.sin2**j)
        exact = beta_40_digits(k + 2 * j, n - k)
        assert abs(got - exact) <= 1e-13 * exact, (n, k, order, j)


def test_mirrored_theta_rule_is_a_miss_of_its_own_key(monkeypatch):
    """theta_rule(n, k) with 2k > n flips the kept rule of (n, n - k) with no
    new Jacobi solve; the partner's counters do not move, and the result is
    the uncached build's.  A wrapper rebinding ``theta_rule``, as a tracer
    does, does not hide the kept partner."""
    partner = theta_rule(9, 2, 24)
    solves = []
    solve = quadrature.gauss_jacobi
    monkeypatch.setattr(quadrature, "gauss_jacobi", lambda *args: solves.append(args) or solve(*args))
    monkeypatch.setattr(quadrature, "theta_rule", functools.wraps(theta_rule)(lambda *args: theta_rule(*args)))
    before = theta_rule.cache_info()
    rule = quadrature.theta_rule(9, 7, 24)
    after = theta_rule.cache_info()
    assert solves == []
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    assert rule.params == SphereParams(9, 7)
    assert np.array_equal(rule.sin2, 1.0 - partner.sin2[::-1])
    assert np.array_equal(rule.weights, partner.weights[::-1])
    built = build_weighted_quadrature(SphereParams(9, 7), 24)
    assert np.array_equal(built.sin2, rule.sin2) and np.array_equal(built.weights, rule.weights)
    assert theta_rule(9, 7, 24) is rule
    # Without a kept partner the mirror solves for it and does not keep it.
    solves.clear()
    lone = theta_rule(9, 6, 23)
    assert len(solves) == 1 and theta_rule.cache_info().misses == after.misses + 1
    assert np.array_equal(lone.weights, theta_rule(9, 3, 23).weights[::-1])
    assert theta_rule.cache_info().misses == after.misses + 2


@pytest.mark.parametrize("d", range(2, 12))
def test_sphere_factor_rules_match_roots_jacobi(d):
    """The symmetric factor of the product rule on S^(d-1) agrees with
    scipy's roots_jacobi, a test-only reference, to its digits; it is
    symmetric and its odd moments vanish."""
    mu = 0.5 * (d - 3)
    for order in (4, 8, 16, 32, 64):
        x, w = gauss_jacobi(order, mu, mu)
        ref_x, ref_w = special.roots_jacobi(order, mu, mu)
        assert float(np.max(np.abs(x - ref_x))) <= 4.5e-16
        assert float(np.max(np.abs(w / ref_w - 1.0))) <= 1e-11
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert math.fsum(w) == pytest.approx(2.0 ** (2 * mu + 1) * special.beta(mu + 1, mu + 1), rel=1e-14)


def test_gauss_jacobi_rejects_bad_input():
    with pytest.raises(ValueError, match="order >= 2"):
        gauss_jacobi(1, 0.0, 0.0)
    with pytest.raises(ValueError, match="a, b > -1"):
        gauss_jacobi(8, -1.0, 0.5)


def test_sphere_sizes_reject_bad_input():
    with pytest.raises(ValueError, match="need d >= 1, got d=0"):
        surface_area(0)
    for d in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"need d >= 1, got d={d}"):
            surface_area(d)
    with pytest.raises(ValueError, match="need d >= 1, got d=0"):
        build_sphere_quadrature(0, 4)
    with pytest.raises(ValueError, match="need order >= 2, got 1"):
        build_sphere_quadrature(3, 1)


def test_theta_rule_mass_beyond_the_gamma_range(beta_40_digits):
    """At n = 400 Gamma(n/2) overflows, and the mass falls back on lgamma."""
    rule = build_weighted_quadrature(SphereParams(400, 1), order=16)
    assert math.fsum(rule.weights) == pytest.approx(beta_40_digits(1, 399), rel=1e-13)


def test_integrate_mu_matches_manual_sum():
    params = SphereParams(5, 2)
    rule = build_weighted_quadrature(params, order=32)
    f = lambda th: np.cos(th) + 0.25 * np.sin(th) ** 2
    expected = float(np.sum(rule.weights * f(rule.nodes)))
    assert integrate_mu(rule, f) == pytest.approx(expected, rel=1e-15)
    # A scalar integrand is a constant.
    assert integrate_mu(rule, lambda th: 2.0) == pytest.approx(2.0 * rule.total_mass, rel=1e-15)


def test_integrate_mu_rejects_nonfinite():
    rule = build_weighted_quadrature(SphereParams(4, 1), order=8)
    with pytest.raises(ValueError):
        integrate_mu(rule, lambda th: np.where(th > 0.5, np.nan, 1.0))
    with pytest.raises(ValueError, match="integrand returned shape \\(7,\\), expected \\(8,\\)"):
        integrate_mu(rule, lambda th: th[:-1])


def test_theta_rule_is_cached():
    a = theta_rule(4, 1, 32)
    b = theta_rule(4, 1, 32)
    assert a is b


def test_theta_rule_default_order_shares_the_entry():
    rule = theta_rule(6, 2, DEFAULT_ORDER)
    assert theta_rule(6, 2) is rule
    assert theta_rule(6, k=2) is rule
    assert theta_rule(n=6, k=2, order=DEFAULT_ORDER) is rule


def test_float_order_fails_alike_cold_and_warm(cold_and_warm):
    """A float order or dimension equals the key of its integer rule, so it
    must be refused before the lookup, with or without that rule kept."""
    calls = ["theta_rule(5, 2, 40.0)", "sphere_rule(3, 6.0)", "polar_rule(5, 2, 32.0)", "sphere_rule(3.0, 6)"]
    warm = ["theta_rule(5, 2, 40)", "sphere_rule(3, 6)", "polar_rule(5, 2, 32)"]
    cold, hot = cold_and_warm("from onsager_ms.quadrature import polar_rule, sphere_rule, theta_rule", calls, warm)
    assert cold == hot == [
        "ValueError: order must be an integer, got 40.0",
        "ValueError: order must be an integer, got 6.0",
        "ValueError: theta_order must be an integer, got 32.0",
        "ValueError: d must be an integer, got 3.0",
    ]
    # numpy integers index like ints and share the integer rule's entry.
    assert theta_rule(5, 2, np.int64(40)) is theta_rule(5, 2, 40)
    assert type(SphereParams(5.0, 2.0).n) is int


def test_rule_arrays_are_frozen():
    rule = theta_rule(3, 1, 16)
    for array in (rule.nodes, rule.weights, rule.sin2, rule.moment_rows[1]):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_derived_theta_arrays_are_built_once():
    rule = build_weighted_quadrature(SphereParams(7, 3), order=48)
    t = rule.sin2
    assert rule.nodes is rule.nodes
    assert np.array_equal(rule.nodes, np.arcsin(np.sqrt(t)))
    assert rule.moment_rows is rule.moment_rows
    expected = np.stack((np.ones_like(t), t, t * (1 - t), t * t * (1 - t), t * (1 - t) ** 2))
    assert np.array_equal(rule.moment_rows, expected)
    # The cache charges a rule every array it can come to hold.
    assert rule.nbytes == sum(a.nbytes for a in (rule.weights, t, rule.nodes, rule.moment_rows))


def test_theta_working_set_fits_the_cache_budget():
    """Every theta rule with n <= 50 at orders 128 and 64 fits the budget
    together; a rule's bytes depend only on its order."""
    pairs = sum(n - 1 for n in range(3, 51))
    per_pair = sum(theta_rule(3, 1, order).nbytes for order in (DEFAULT_ORDER, 64))
    assert pairs == 1224
    assert pairs * per_pair <= quadrature._CACHE_BYTES
    assert theta_rule.cache_info().maxsize == quadrature._CACHE_BYTES


def test_rule_cache_evicts_least_recently_used(monkeypatch):
    keys = [(3, 1, 17), (4, 1, 17), (4, 2, 17), (5, 1, 17)]
    size = theta_rule(*keys[0]).nbytes
    monkeypatch.setattr(quadrature._RULES, "budget", 3 * size)
    first, second, third = (theta_rule(*key) for key in keys[:3])
    assert quadrature._RULES.nbytes == 3 * size  # everything older went
    assert theta_rule(*keys[0]) is first  # a hit makes it the most recent
    misses = theta_rule.cache_info().misses
    theta_rule(*keys[3])
    assert quadrature._RULES.nbytes == 3 * size
    assert theta_rule(*keys[0]) is first
    assert theta_rule(*keys[2]) is third
    assert theta_rule.cache_info().misses == misses + 1
    assert theta_rule(*keys[1]) is not second  # evicted, so rebuilt
    assert theta_rule.cache_info().misses == misses + 2
    assert quadrature._RULES.nbytes <= 3 * size


@pytest.mark.parametrize("d", range(2, 7))
def test_surface_area(d):
    assert surface_area(d) == pytest.approx(2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0), rel=1e-14)


@pytest.mark.parametrize("d", range(2, 7))
def test_sphere_rule_mass_and_moments(d):
    rule = sphere_rule(d, 12)
    w, pts = rule.weights, rule.points
    assert float(np.sum(w)) == pytest.approx(surface_area(d), rel=1e-12)
    sq = float(np.sum(w * pts[:, 0] ** 2))
    assert sq == pytest.approx(surface_area(d) / d, rel=1e-12)
    quart = float(np.sum(w * pts[:, 0] ** 4))
    assert quart == pytest.approx(3.0 * surface_area(d) / (d * (d + 2)), rel=1e-12)
    if d >= 2:
        cross = float(np.sum(w * pts[:, 0] ** 2 * pts[:, 1] ** 2))
        assert cross == pytest.approx(surface_area(d) / (d * (d + 2)), rel=1e-12)


def test_sphere_rule_odd_moments_vanish():
    rule = sphere_rule(3, 10)
    for i in range(3):
        assert abs(np.sum(rule.weights * rule.points[:, i])) < 1e-13
        assert abs(np.sum(rule.weights * rule.points[:, i] ** 3)) < 1e-13


def test_sphere_rule_no_zero_coordinates():
    # Zero coordinates would break the polar-angle recursion downstream.
    rule = sphere_rule(4, 8)
    assert float(np.min(np.abs(rule.points))) > 1e-12


def test_sphere_points_on_unit_sphere():
    rule = sphere_rule(5, 6)
    norms = np.linalg.norm(rule.points, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-13


def test_build_sphere_quadrature_dimension_cap():
    """The node budget is the only cap: S^8 builds at order 4 and not at 8."""
    rule = build_sphere_quadrature(5, 8)
    assert rule.points.shape[1] == 5
    assert float(np.sum(rule.weights)) == pytest.approx(surface_area(5), rel=1e-12)
    rule = build_sphere_quadrature(9, 4)
    assert rule.count == 2 * 4**8
    assert float(np.sum(rule.weights)) == pytest.approx(surface_area(9), rel=1e-12)
    with pytest.raises(ValueError, match="node budget"):
        build_sphere_quadrature(9, 8)
    s0 = build_sphere_quadrature(1, 4)
    assert s0.points.tolist() == [[1.0], [-1.0]]
    assert s0.weights.tolist() == [1.0, 1.0]


def test_bromwich_rule_inverts_laplace_transforms():
    """(1/2 pi i) int e^s F(s) ds at t = 1 for F = s^-a and F = (s + c)^-1."""
    nodes, weights = bromwich_rule()
    assert nodes.size == 24
    for a in np.arange(0.5, 10.5, 0.5):
        got = float(np.sum(np.imag(weights * nodes**-a)))
        assert got == pytest.approx(1.0 / special.gamma(a), rel=1e-11)
    for c in (0.0, 0.5, 3.0, 40.0, 700.0):
        got = float(np.sum(np.imag(weights / (nodes + c))))
        assert got == pytest.approx(np.exp(-c), rel=1e-11, abs=1e-14)
    with pytest.raises(ValueError):
        nodes[0] = 1.0


def test_default_order_value():
    assert DEFAULT_ORDER == 128


@pytest.mark.parametrize("d", range(1, 11))
def test_degree5_rule_is_exact(d):
    """The factor rule of the polar rule integrates every monomial of degree
    <= 5 on S^(d-1): the even ones to 2 prod Gamma((a_i + 1)/2) /
    Gamma((|a| + d)/2), the odd ones to 0; its weights sum to the area."""
    pts, w = quadrature._degree5_nodes(d)
    assert pts.shape == (2 * d * d, d) and w.shape == (2 * d * d,)
    assert np.allclose(np.sum(pts**2, axis=1), 1.0, atol=1e-15)
    assert math.fsum(w) == pytest.approx(surface_area(d), rel=1e-15)
    for degree in range(6):
        for combo in itertools.combinations_with_replacement(range(d), degree):
            a = np.bincount(np.array(combo, dtype=int), minlength=d)
            got = float(w @ np.prod(pts**a, axis=1))
            want = 0.0
            if not np.any(a % 2):
                want = 2.0 * math.prod(math.gamma(0.5 * (e + 1)) for e in a) / math.gamma(0.5 * (degree + d))
            assert abs(got - want) <= 4e-15 * surface_area(d), (a, got, want)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 7) for k in range(1, n)])
def test_polar_rule_mass(n, k):
    rule = polar_rule(n, k, 32)
    assert rule.count == 4 * 32 * k**2 * (n - k) ** 2
    assert np.allclose(np.sum(rule.points**2, axis=1), 1.0, atol=1e-15)
    assert float(np.sum(rule.weights)) == pytest.approx(surface_area(n), rel=1e-13)


def test_polar_rule_node_budget():
    """The direct form's rule, theta order 32, fits the cache's byte budget
    at (11, 5) and is kept; at (14, 7) its 37 MB exceed it, so it is
    returned and not kept.  At (30, 15) it is above the node budget and is
    refused before any array is allocated."""
    rule = polar_rule(11, 5, 32)
    assert rule.count == 4 * 32 * 5**2 * 6**2 == 115_200
    assert polar_rule(11, 5, 32) is rule
    assert rule.nbytes <= polar_rule.cache_info().currsize
    theta_rule(14, 7, 32)  # the rule's theta factor, kept beforehand
    held, before = quadrature._RULES.nbytes, polar_rule.cache_info()
    rule = polar_rule(14, 7, 32)
    after = polar_rule.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)
    assert quadrature._RULES.nbytes == held
    assert rule.nbytes > quadrature._CACHE_BYTES
    assert rule.count == 4 * 32 * 7**2 * 7**2 == 307_328
    assert float(np.sum(rule.weights)) == pytest.approx(surface_area(14), rel=1e-13)
    del rule
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="node budget"):
            polar_rule(30, 15, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _exponents(d, degree):
    grid = np.indices((degree + 1,) * d).reshape(d, -1).T
    return grid[grid.sum(axis=1) <= degree]


def _block_moments(rule, k, degree, sin2_powers):
    """Integrals of m_omega^a m_xi^b sin^(2j)(theta) for |a|, |b| <= degree.

    m_omega^a m_xi^b = omega^a xi^b sin^|a| cos^|b|: block monomials of
    degree |a| and |b| times powers of sin and cos (polynomials in sin^2
    when |a| and |b| are even; the odd ones integrate to zero).
    """
    om, xi = _exponents(k, degree), _exponents(rule.dimension - k, degree)
    out = np.zeros((sin2_powers, len(om), len(xi)))
    for start in range(0, rule.count, 4096):
        p, w = rule.points[start:start + 4096], rule.weights[start:start + 4096]
        powers = p[:, :, None] ** np.arange(degree + 1)
        left = np.prod(powers[:, np.arange(k), om], axis=2)
        right = np.prod(powers[:, np.arange(k, rule.dimension), xi], axis=2)
        t = np.sum(p[:, :k] ** 2, axis=1)
        for j in range(sin2_powers):
            out[j] += left.T @ ((w * t**j)[:, None] * right)
    return out


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 7) for k in range(1, n)])
def test_polar_rule_integrates_block_monomials(n, k):
    """Block monomials of degree <= 5 times sin^2 powers 0..2 integrate as on
    a product rule exact to total degree 13."""
    got = _block_moments(polar_rule(n, k, 32), k, 5, 3)
    want = _block_moments(sphere_rule(n, 7), k, 5, 3)
    assert float(np.max(np.abs(got - want))) <= 1e-13 * surface_area(n)
