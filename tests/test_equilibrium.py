import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from onsager_ms.equilibrium import (
    MAX_CONTOUR_DIM,
    CriticalPointSpec,
    OrderTensor,
    bingham_second_moments,
    critical_point,
    density,
    eigenvalue_structure,
    euler_lagrange_residual,
    fixed_point_map,
    isotropic_point,
    log_density,
    solve_fixed_point,
    sphere_order_for,
)
from onsager_ms.moments import scaled_moments
from onsager_ms.quadrature import SphereParams, build_sphere_quadrature, sphere_rule
from onsager_ms.sigma import sigma_value


def test_order_tensor_rejects_asymmetric():
    a = np.zeros((3, 3))
    a[0, 1] = 1.0
    with pytest.raises(ValueError):
        OrderTensor(3, a)


def test_order_tensor_rejects_trace():
    with pytest.raises(ValueError):
        OrderTensor(3, np.diag([1.0, 0.0, 0.0]))


def test_order_tensor_rejects_bad_shape_and_values():
    with pytest.raises(ValueError, match="entries must be 3x3, got \\(2, 2\\)"):
        OrderTensor(3, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="entries must be finite"):
        OrderTensor(3, np.diag([np.inf, 0.0, 0.0]))


def test_order_tensor_entries_frozen():
    t = OrderTensor.zero(4)
    with pytest.raises(ValueError):
        t.entries[0, 0] = 1.0


def test_axial_tensor_structure():
    params = SphereParams(5, 2)
    t = OrderTensor.axial(params, 3.0)
    lam = np.sort(t.eigenvalues())
    assert abs(np.trace(t.entries)) < 1e-12
    assert lam[:3] == pytest.approx([-3.0 * 2 / 5] * 3)
    assert lam[3:] == pytest.approx([3.0 * 3 / 5] * 2)


@given(n=st.integers(min_value=3, max_value=6), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_random_unit_is_unit_trace_free(n, seed):
    t = OrderTensor.random_unit(n, np.random.default_rng(seed))
    assert t.frobenius_norm() == pytest.approx(1.0, rel=1e-12)
    assert abs(np.trace(t.entries)) < 1e-12


def test_random_unit_needs_two_dimensions():
    """For n <= 1 every trace-free tensor is zero, so no draw normalizes."""
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"needs n >= 2, got n={n}"):
            OrderTensor.random_unit(n)


def test_random_unit_deterministic():
    a = OrderTensor.random_unit(4, np.random.default_rng(11))
    b = OrderTensor.random_unit(4, np.random.default_rng(11))
    assert np.array_equal(a.entries, b.entries)


def test_spec_requires_branch_alpha():
    params = SphereParams(4, 1)
    good = sigma_value(params, 2.0)
    CriticalPointSpec(params, 2.0, good)
    with pytest.raises(ValueError):
        CriticalPointSpec(params, 2.0, good * 1.01)


def test_spec_rejects_nonorthogonal_rotation():
    params = SphereParams(3, 1)
    with pytest.raises(ValueError):
        CriticalPointSpec(params, 0.0, 5.0, rotation=np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="rotation must be orthogonal"):
        critical_point(params, 1.0, rotation=np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="rotation must be 3x3"):
        critical_point(params, 1.0, rotation=np.eye(2))


def test_spec_without_rotation_shares_one_frozen_identity():
    """Specs built without a rotation share one read-only identity per n;
    a rotation that is passed in is checked and copied."""
    first = critical_point(SphereParams(5, 2), 1.0)
    assert first.rotation is isotropic_point(5, 3.0).rotation
    assert np.array_equal(first.rotation, np.eye(5))
    assert not first.rotation.flags.writeable
    assert critical_point(SphereParams(6, 2), 1.0).rotation.shape == (6, 6)
    frame = np.eye(5)
    passed = critical_point(SphereParams(5, 2), 1.0, frame)
    assert passed.rotation is not frame and not passed.rotation.flags.writeable


def test_isotropic_point_accepts_any_alpha():
    spec = isotropic_point(5, 3.0)
    assert spec.eta == 0.0
    assert spec.alpha == 3.0


def test_density_normalized():
    spec = critical_point(SphereParams(3, 1), 4.0)
    rule = sphere_rule(3, 24)
    mass = float(np.sum(rule.weights * density(spec, rule.points)))
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_density_positive_and_log_consistent():
    spec = critical_point(SphereParams(4, 2), -2.0)
    rule = sphere_rule(4, 12)
    f = density(spec, rule.points)
    assert np.all(f > 0)
    assert np.allclose(np.log(f), log_density(spec, rule.points), atol=1e-12)


def test_density_rotation_equivariance():
    """density with rotation R at m equals the unrotated density at R m."""
    rng = np.random.default_rng(0)
    R = special_ortho_group.rvs(4, random_state=rng)
    params = SphereParams(4, 1)
    base = critical_point(params, 2.5)
    rotated = CriticalPointSpec(params, 2.5, base.alpha, rotation=R)
    m = rng.normal(size=4)
    m /= np.linalg.norm(m)
    assert density(rotated, m) == pytest.approx(density(base, R @ m), rel=1e-12)


def test_density_rejects_off_sphere_points():
    spec = isotropic_point(3, 1.0)
    with pytest.raises(ValueError):
        density(spec, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="unit sphere"):
        density(spec, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="points must have 3 components"):
        density(spec, np.array([1.0, 0.0]))


def test_euler_lagrange_residual_discriminates():
    spec = critical_point(SphereParams(4, 1), 3.0)
    assert euler_lagrange_residual(spec) < 1e-10
    assert euler_lagrange_residual(spec, alpha=1.1 * spec.alpha) > 1e-3


def test_euler_lagrange_residual_isotropic():
    assert euler_lagrange_residual(isotropic_point(3, 5.0)) < 1e-12


@pytest.mark.parametrize("n", range(3, 7))
def test_sphere_rule_first_coordinate_ascends(n):
    """The product rule lists its first coordinate in ascending order."""
    orders = {sphere_order_for(n, alpha) for alpha in range(0, 200, 2)} | {7, 9}
    for order in sorted(orders):
        first = build_sphere_quadrature(n, order).points[:, 0]
        assert np.all(np.diff(first) >= 0.0)


@pytest.mark.parametrize(
    "n,k,eta,orders",
    [(3, 1, 6.0, (23, 24)), (4, 2, -4.0, (15, 16)), (5, 1, 5.0, (19, 20)),
     (5, 4, -7.0, (19, 20)), (6, 3, 2.5, (12, 13))],
)
def test_residual_on_half_rule_matches_full_rule(n, k, eta, orders):
    """ln f - alpha m^T S m is m^T B m minus a constant, B = eta R^T P_k R - alpha S,
    so the exact residual is half B's spread.  The reference sums S on every
    node of a full product rule, at an odd and an even order that resolve it."""
    rotation = special_ortho_group.rvs(n, random_state=np.random.default_rng(n + k))
    spec = critical_point(SphereParams(n, k), eta, rotation)
    projector = rotation[:k].T @ rotation[:k]
    for order in orders:
        rule = sphere_rule(n, order)
        weighted = rule.weights * density(spec, rule.points)
        second = (rule.points * weighted[:, None]).T @ rule.points
        for alpha in (spec.alpha, 1.05 * spec.alpha):
            b = np.linalg.eigvalsh(eta * projector - alpha * second)
            want = 0.5 * float(b[-1] - b[0])
            assert abs(euler_lagrange_residual(spec, alpha=alpha) - want) <= 1e-10


@pytest.mark.parametrize("n,k,eta", [(8, 3, 5.0), (12, 1, 40.0), (20, 10, -3.0), (20, 19, -300.0)])
def test_residual_beyond_product_rules(n, k, eta):
    spec = critical_point(SphereParams(n, k), eta)
    assert euler_lagrange_residual(spec) < 1e-10 * spec.alpha
    assert euler_lagrange_residual(spec, alpha=1.01 * spec.alpha) > 1e-3


@pytest.mark.parametrize("n", range(3, MAX_CONTOUR_DIM + 1))
def test_bingham_moments_match_theta_moments(n):
    """The contour's axial E[m_i^2] against A_2/(k A_0) and (1 - A_2/A_0)/(n - k):
    two independent routes to the same moments."""
    for k in range(1, n):
        leading = np.arange(n) < k
        for eta in (700, -700, 300, -300, 100, -100, 30, -30, 3, -3, 1e-3, -1e-3, 0.5, 5):
            ratio = scaled_moments(SphereParams(n, k), float(eta)).mean
            want = np.where(leading, ratio / k, (1.0 - ratio) / (n - k))
            got = bingham_second_moments(np.where(leading, float(eta), 0.0))
            assert float(np.max(np.abs(got - want) / want)) <= 1e-10, (k, eta)


def test_bingham_moments_domain():
    assert bingham_second_moments(np.full(5, 2.5)) == pytest.approx(np.full(5, 0.2), rel=1e-13)
    with pytest.raises(ValueError):
        bingham_second_moments(np.zeros(MAX_CONTOUR_DIM + 1))
    with pytest.raises(ValueError):
        bingham_second_moments(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        euler_lagrange_residual(critical_point(SphereParams(MAX_CONTOUR_DIM + 1, 1), 2.0))


def test_sphere_order_grows_then_caps():
    assert sphere_order_for(3, 10.0) < sphere_order_for(3, 60.0)
    assert sphere_order_for(3, 1e6) == sphere_order_for(3, 1e7)
    with pytest.raises(ValueError):
        sphere_order_for(7, 10.0)


@pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_sphere_order_refuses_negative_or_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be non-negative and finite, got"):
        sphere_order_for(4, alpha)
    assert sphere_order_for(4, 0.0) == 20


def test_axial_branch_is_fixed_point():
    """The axial tensor built from sigma_k(eta) = alpha reproduces itself.

    This crosses two independent routes: the Bromwich contour inside the
    map versus the 1-d polar rule behind sigma.
    """
    params = SphereParams(4, 1)
    eta = 2.0
    alpha = sigma_value(params, eta)
    t = OrderTensor.axial(params, eta)
    image = fixed_point_map(t, alpha)
    assert np.allclose(image.entries, t.entries, atol=1e-10)


# Product-rule order and the eigenvalue spreads it resolves to better than 1e-12 at each n.
_PRODUCT_RESOLVES = {3: (40, (1, 3, 10, 30)), 4: (36, (1, 3, 10, 30)), 5: (24, (1, 3, 10)), 6: (14, (1, 3))}


@pytest.mark.parametrize("n", range(3, 7))
def test_contour_step_matches_product_rule(n):
    """The Picard step on the contour against the same step summed on every
    node of a full product rule, in a random frame."""
    order, spreads = _PRODUCT_RESOLVES[n]
    rule = build_sphere_quadrature(n, order)
    p2 = rule.points**2
    frame = special_ortho_group.rvs(n, random_state=np.random.default_rng(n))
    rng = np.random.default_rng(n)
    alpha = 25.0
    for spread in spreads:
        lam = np.sort(rng.uniform(0.0, 1.0, n))
        lam = spread * (lam - lam[0]) / (lam[-1] - lam[0])
        lam -= np.mean(lam)
        expo = p2 @ lam
        we = rule.weights * np.exp(expo - float(np.max(expo)))
        want = alpha * ((we @ p2) / float(np.sum(we)) - 1.0 / n)
        want -= np.mean(want)
        scale = float(np.max(np.abs(want)))
        image = fixed_point_map(OrderTensor(n, (frame * lam) @ frame.T), alpha)
        assert float(np.max(np.abs(image.entries - (frame * want) @ frame.T))) <= 1e-11 * scale


@pytest.mark.parametrize("order", [7, 8])
@pytest.mark.parametrize("n", range(3, 7))
def test_picard_step_on_orthant_matches_full_rule(n, order):
    """The Picard kernel reads only m_i^2, so the contour integrates it on the
    positive orthant, mapped to the simplex u_i = m_i^2.  Near the isotropic
    state, where the step alpha (E - I/n) cancels most of E, it still matches
    the step summed on every node of the full product rule of order 7 or 8,
    which resolves e^(m^T Q m) there."""
    tensor = OrderTensor(n, 0.05 * OrderTensor.random_unit(n, np.random.default_rng(n)).entries)
    alpha = 25.0
    lam, frame = np.linalg.eigh(tensor.entries)
    rule = sphere_rule(n, order)
    p2 = rule.points**2
    expo = p2 @ lam
    we = rule.weights * np.exp(expo - float(np.max(expo)))
    want = alpha * ((we @ p2) / float(np.sum(we)) - 1.0 / n)
    want -= np.mean(want)
    scale = float(np.max(np.abs(want)))
    image = fixed_point_map(tensor, alpha)
    assert float(np.max(np.abs(image.entries - (frame * want) @ frame.T))) <= 1e-11 * scale


def test_solve_fixed_point_subcritical_reaches_zero():
    # Below n(n+2)/2 the isotropic state is the only attractor.
    res = solve_fixed_point(3, 5.0, OrderTensor.random_unit(3, np.random.default_rng(1)))
    assert res.converged
    assert res.tensor.frobenius_norm() < 1e-8


def test_solve_fixed_point_supercritical():
    res = solve_fixed_point(3, 20.0, OrderTensor.random_unit(3, np.random.default_rng(2)))
    assert res.converged
    assert res.residual < 1e-10
    struct = eigenvalue_structure(res.tensor)
    assert struct.count == 2
    assert not struct.ambiguous


def test_solve_fixed_point_deterministic():
    start = OrderTensor.random_unit(4, np.random.default_rng(5))
    a = solve_fixed_point(4, 30.0, start)
    b = solve_fixed_point(4, 30.0, start)
    assert np.array_equal(a.tensor.entries, b.tensor.entries)
    assert a.iterations == b.iterations


def test_solve_fixed_point_recovers_branch():
    res = solve_fixed_point(5, 40.0, OrderTensor.random_unit(5, np.random.default_rng(3)))
    struct = eigenvalue_structure(res.tensor)
    assert struct.count == 2
    (v_low, v_high) = struct.values
    (m_low, m_high) = struct.multiplicities
    assert m_high * v_high + m_low * v_low == pytest.approx(0.0, abs=1e-10)
    eta = v_high - v_low
    assert sigma_value(SphereParams(5, m_high), eta) == pytest.approx(40.0, rel=1e-8)


def test_solve_fixed_point_guards():
    start = OrderTensor.random_unit(3, np.random.default_rng(0))
    for tol in (1e-14, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and at least 1e-12"):
            solve_fixed_point(3, 20.0, start, tol=tol)
    with pytest.raises(ValueError):
        solve_fixed_point(3, -1.0, start)
    with pytest.raises(ValueError):
        solve_fixed_point(21, 20.0, OrderTensor.random_unit(21, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        solve_fixed_point(4, 20.0, start)
    with pytest.raises(ValueError, match="the moment map supports n <= 20"):
        fixed_point_map(OrderTensor.random_unit(21, np.random.default_rng(0)), 20.0)


def test_solve_fixed_point_refuses_a_non_integer_n():
    """3.5 lies inside the supported range; it is refused as n, not as a
    mismatch with the initial tensor."""
    with pytest.raises(ValueError, match="^n must be an integer, got 3.5$"):
        solve_fixed_point(3.5, 20.0, OrderTensor.zero(3))
    assert solve_fixed_point(3.0, 20.0, OrderTensor.random_unit(3, np.random.default_rng(2))).tensor.n == 3


def test_eigenvalue_structure_isotropic_single_cluster():
    struct = eigenvalue_structure(OrderTensor.zero(4))
    assert struct.count == 1
    assert struct.multiplicities == (4,)


def test_eigenvalue_structure_axial_clusters():
    t = OrderTensor.axial(SphereParams(6, 2), 5.0)
    struct = eigenvalue_structure(t)
    assert struct.count == 2
    assert struct.multiplicities == (4, 2)
    assert not struct.ambiguous


def test_eigenvalue_structure_flags_near_threshold():
    t = OrderTensor.axial(SphereParams(4, 2), 2e-6)
    struct = eigenvalue_structure(t)
    assert struct.ambiguous
