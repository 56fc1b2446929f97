import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsager_ms.equilibrium import critical_point, isotropic_point
from onsager_ms.moments import moment
from onsager_ms.quadrature import SphereParams, sphere_rule, surface_area, theta_rule
from onsager_ms.sigma import find_eta_star, sigma_value
from onsager_ms.stability import (
    FAMILIES,
    MARGINAL,
    STABLE,
    UNSTABLE,
    _DIRECT_FORM_ORDER,
    BasisIndex,
    PerturbationTop,
    assemble_sphere_function,
    basis_eval,
    basis_indices,
    branch_tag,
    classify,
    d_quantities,
    equality_attainer,
    functional_I,
    gram_matrix,
    gram_matrix_quadrature,
    quadratic_form_decomposed,
    quadratic_form_direct,
    random_smooth_perturbation,
    wx_functionals,
    _basis_values,
)

PAIRS = [(n, k) for n in range(3, 7) for k in range(1, n)]


def family_counts(params):
    k, nk = params.k, params.complement
    return {
        "Omega_A": k - 1,
        "Omega_B": k * (k - 1) // 2,
        "Xi_A": nk - 1,
        "Xi_B": nk * (nk - 1) // 2,
        "Theta": k * nk,
    }


@pytest.mark.parametrize("n,k", PAIRS)
def test_basis_index_counts(n, k):
    params = SphereParams(n, k)
    indices = basis_indices(params)
    got = {fam: sum(1 for i in indices if i.family == fam) for fam in FAMILIES}
    assert got == family_counts(params)


def test_basis_indices_deterministic_order():
    a = basis_indices(SphereParams(5, 2))
    b = basis_indices(SphereParams(5, 2))
    assert a == b
    assert a[0].family == "Omega_A"
    assert a[-1].family == "Theta"


def test_basis_index_validation():
    with pytest.raises(ValueError):
        BasisIndex("Omega_C", (0, 1))
    with pytest.raises(ValueError):
        basis_eval(BasisIndex("Theta", (3, 1)), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_basis_eval_rejects_non_unit():
    idx = BasisIndex("Theta", (1, 1))
    with pytest.raises(ValueError):
        basis_eval(idx, np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_basis_eval_theta_product():
    idx = BasisIndex("Theta", (2, 1))
    omega = np.array([0.6, 0.8])
    xi = np.array([0.0, 1.0])
    assert basis_eval(idx, omega, xi) == pytest.approx(0.8 * 0.0)


def test_gram_matrix_is_diagonal_positive():
    g = gram_matrix(SphereParams(5, 2))
    assert np.allclose(g, np.diag(np.diag(g)))
    assert np.all(np.diag(g) > 0)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2)])
def test_gram_closed_form_matches_quadrature(n, k):
    params = SphereParams(n, k)
    closed = gram_matrix(params)
    quad = gram_matrix_quadrature(params)
    scale = float(np.max(np.abs(closed)))
    assert float(np.max(np.abs(closed - quad))) <= 1e-10 * scale


def test_wx_table_structure():
    params = SphereParams(5, 2)
    table = wx_functionals(params)
    for idx, vec in table.items():
        if idx.family in ("Omega_B", "Xi_B"):
            assert np.all(vec == 0.0)
        else:
            d = params.k if idx.family == "Omega_A" else params.complement
            assert vec.shape == (d,)
            assert float(np.sum(vec)) == pytest.approx(0.0, abs=1e-14)
            norm2 = float(np.sum(vec**2))
            assert norm2 == pytest.approx(2.0 * surface_area(d) ** 2 / (d * (d + 2)) ** 2, rel=1e-12)


def test_wx_vector_against_direct_quadrature():
    """W_l(Omega_A(0,l)) = int (omega_i^2 - 1/k) Omega dS, via the product rule."""
    from onsager_ms.quadrature import sphere_rule

    params = SphereParams(5, 3)
    idx = BasisIndex("Omega_A", (0, 2))
    rule = sphere_rule(3, 16)
    vals = basis_eval(idx, rule.points, np.tile([1.0, 0.0], (rule.points.shape[0], 1)))
    table = wx_functionals(params)
    for i in range(3):
        direct = float(np.sum(rule.weights * (rule.points[:, i] ** 2 - 1.0 / 3.0) * vals))
        assert direct == pytest.approx(table[idx][i], abs=1e-13 * surface_area(3))


def test_functional_rejects_bad_gamma_and_grid():
    params = SphereParams(4, 1)
    rule = theta_rule(4, 1, 32)
    vals = np.ones_like(rule.nodes)
    with pytest.raises(ValueError):
        functional_I(4, params, 1.0, vals, order=32)
    with pytest.raises(ValueError):
        functional_I(0, params, 1.0, vals[:-1], order=32)
    with pytest.raises(ValueError):
        functional_I(3, params, 1.0, vals, order=32)  # not mean-zero


@pytest.mark.parametrize("gamma", [0, 1, 2, 3])
def test_attainer_reaches_block_extreme(gamma):
    """I_gamma at its equality profile equals the matching sign scalar
    times a positive moment factor; gamma = 0 vanishes on the branch."""
    params = SphereParams(5, 2)
    eta = 1.8
    order = 128
    a = equality_attainer(params, eta, gamma, order)
    got = functional_I(gamma, params, eta, a, order=order)
    a0 = moment(params, eta, 0, order)
    a2 = moment(params, eta, 2, order)
    a4 = moment(params, eta, 4, order)
    d1, d2, d3 = d_quantities(params, eta, order=order)
    scale = np.exp(-2.0 * max(eta, 0.0))
    if gamma == 0:
        expected = 0.0
        assert abs(got) <= 1e-12 * scale * a0 * (a2 - a4)
        return
    factor = {1: a4, 2: a0 - 2 * a2 + a4, 3: a4 - a2**2 / a0}[gamma]
    expected = scale * factor * {1: d1, 2: d2, 3: d3}[gamma]
    assert got == pytest.approx(expected, rel=1e-10)


def test_d_quantities_coincide_at_zero():
    params = SphereParams(4, 1)
    alpha = 7.0
    d1, d2, d3 = d_quantities(params, 0.0, alpha=alpha)
    a0 = moment(params, 0.0, 0)
    expected = a0 * (1.0 - 2.0 * alpha / (4 * 6))
    for d in (d1, d2, d3):
        assert d == pytest.approx(expected, rel=1e-12)


@given(
    pair=st.sampled_from(PAIRS),
    eta=st.floats(min_value=-12.0, max_value=12.0),
)
@settings(max_examples=60, deadline=None)
def test_d_sign_laws(pair, eta):
    n, k = pair
    params = SphereParams(n, k)
    d1, d2, d3 = d_quantities(params, eta)
    star = find_eta_star(params).eta_star
    if abs(eta) > 1e-6:
        assert d1 * (-eta) >= 0.0
        assert d2 * eta >= 0.0
    if abs(eta) > 1e-6 and abs(eta - star) > 1e-6:
        assert d3 * eta * (eta - star) > 0.0


def test_d_quantities_scaled_stays_finite():
    vals = d_quantities(SphereParams(3, 1), 650.0, scaled=True)
    assert all(np.isfinite(v) for v in vals)
    # Past the moment domain both forms raise rather than return a value the
    # quadrature does not resolve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scaled in (False, True):
            with pytest.raises(ValueError, match="moment domain"):
                d_quantities(SphereParams(5, 2), 2000.0, scaled=scaled)


def test_perturbation_top_validation():
    params = SphereParams(4, 1)
    rule = theta_rule(4, 1, 16)
    ones = np.ones_like(rule.nodes)
    with pytest.raises(ValueError):
        PerturbationTop(params, rule, {}, ones)  # b not mean-zero
    with pytest.raises(ValueError):
        PerturbationTop(params, rule, {BasisIndex("Theta", (1, 1)): ones[:-1]}, 0.0 * ones)
    top = PerturbationTop(params, rule, {BasisIndex("Theta", (1, 1)): ones}, 0.0 * ones)
    with pytest.raises(ValueError):
        top.coefficients[BasisIndex("Theta", (1, 1))][0] = 2.0
    with pytest.raises(TypeError):
        top.coefficients[BasisIndex("Theta", (1, 2))] = ones
    assert np.array_equal(top.theta_grid, rule.nodes)


def test_assemble_requires_function_handles():
    params = SphereParams(4, 1)
    rule = theta_rule(4, 1, 16)
    zero = np.zeros_like(rule.nodes)
    top = PerturbationTop(params, rule, {}, zero)
    with pytest.raises(ValueError):
        assemble_sphere_function(top)


def test_assemble_matches_manual_evaluation():
    params = SphereParams(4, 2)
    idx = BasisIndex("Theta", (2, 1))
    top = PerturbationTop.from_functions(params, {idx: lambda th: np.sin(th) ** 2}, order=32)
    phi = assemble_sphere_function(top)
    pt = np.array([0.3, 0.5, 0.6, np.sqrt(1.0 - 0.3**2 - 0.5**2 - 0.6**2)])
    theta = np.arcsin(np.sqrt(0.3**2 + 0.5**2))
    omega = pt[:2] / np.sin(theta)
    xi = pt[2:] / np.cos(theta)
    expected = np.sin(theta) ** 2 * basis_eval(idx, omega, xi)
    assert phi(pt)[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n,k", PAIRS)
def test_assemble_matches_nodewise_evaluation(n, k):
    """Profiles evaluated once per distinct theta give bitwise the values of
    evaluating them at every node of the direct form's rule."""
    params = SphereParams(n, k)
    top = random_smooth_perturbation(params, 1.5, np.random.default_rng(10 * n + k))
    pts = sphere_rule(n, _DIRECT_FORM_ORDER[n]).points
    s2 = np.sum(pts[:, :k] ** 2, axis=-1)
    theta = np.arcsin(np.sqrt(s2))
    omega = pts[:, :k] / np.sqrt(s2)[:, None]
    xi = pts[:, k:] / np.sqrt(1.0 - s2)[:, None]
    want = np.zeros(theta.shape)
    for idx, func in top.coefficient_functions.items():
        want += func(theta) * _basis_values(idx, omega, xi)
    want += top.b_function(theta)
    assert np.array_equal(assemble_sphere_function(top)(pts), want)


def test_decomposed_matches_direct_form():
    params = SphereParams(4, 1)
    spec = critical_point(params, 3.0)
    rng = np.random.default_rng(0)
    top = random_smooth_perturbation(params, 3.0, rng)
    dec = quadratic_form_decomposed(spec, top)
    direct = quadratic_form_direct(spec, assemble_sphere_function(top))
    assert abs(direct - dec) <= 1e-6 * (1.0 + abs(direct))


def test_random_perturbation_deterministic():
    params = SphereParams(5, 2)
    a = random_smooth_perturbation(params, 1.0, np.random.default_rng(9))
    b = random_smooth_perturbation(params, 1.0, np.random.default_rng(9))
    for idx in a.coefficients:
        assert np.array_equal(a.coefficients[idx], b.coefficients[idx])
    assert np.array_equal(a.b, b.b)


def test_random_perturbation_needs_degree_for_large_n():
    with pytest.raises(ValueError):
        random_smooth_perturbation(SphereParams(7, 2), 0.5, np.random.default_rng(0))


def test_classify_isotropic_threshold():
    params = SphereParams(5, 1)
    threshold = 5 * 7 / 2.0
    assert classify(params, 0.0, alpha=0.9 * threshold).classification == STABLE
    report = classify(params, 0.0, alpha=1.1 * threshold)
    assert report.classification == UNSTABLE
    assert report.witness_value is not None and report.witness_value < 0
    assert classify(params, 0.0, alpha=threshold).classification == MARGINAL


def test_classify_guards():
    params = SphereParams(4, 1)
    with pytest.raises(ValueError):
        classify(params, 0.0)  # isotropic needs alpha
    with pytest.raises(ValueError):
        classify(params, 1.0, alpha=9.0)  # branch fixes alpha
    with pytest.raises(ValueError):
        classify(params, np.inf)


def test_classify_k1_branch():
    params = SphereParams(4, 1)
    star = find_eta_star(params).eta_star
    assert classify(params, star + 0.5).classification == STABLE
    below = classify(params, star - 0.5)
    assert below.classification == UNSTABLE
    assert below.witness_value < 0
    negative = classify(params, -1.0)
    assert negative.classification == UNSTABLE
    assert negative.witness_value < 0
    assert classify(params, star).classification == MARGINAL


def test_classify_middle_k_always_unstable():
    params = SphereParams(5, 2)
    for eta in (-4.0, -0.5, 0.7, 3.0, 8.0):
        report = classify(params, eta)
        assert report.classification == UNSTABLE
        assert report.witness_value < 0


def test_classify_mirror_branch():
    params = SphereParams(4, 3)
    star = find_eta_star(params).eta_star
    assert star < 0
    assert classify(params, star - 0.5).classification == STABLE
    report = classify(params, star + 0.5)
    assert report.classification == UNSTABLE
    assert report.witness_value < 0


def test_classify_witness_is_reusable():
    """The reported witness re-evaluates to the reported negative value."""
    params = SphereParams(5, 2)
    report = classify(params, 2.0)
    spec = critical_point(params, 2.0)
    again = quadratic_form_decomposed(spec, report.witness)
    assert again == pytest.approx(report.witness_value, rel=1e-12)


def test_branch_tag_is_lowercase_and_continuous_at_zero():
    for n, k in PAIRS:
        tag = branch_tag(SphereParams(n, k), 0.0)
        assert tag == "unstable"
    star = find_eta_star(SphereParams(3, 1)).eta_star
    assert branch_tag(SphereParams(3, 1), star + 1.0) == "stable"
    assert branch_tag(SphereParams(3, 1), star) == "marginal"


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9) for k in range(1, n)])
def test_branch_tag_matches_classify(n, k):
    params = SphereParams(n, k)
    for eta in (-6.0, -1.5, 0.7, 4.0, 9.0):
        assert branch_tag(params, eta) == classify(params, eta).classification.lower()
