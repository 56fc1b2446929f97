import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsager_ms.equilibrium import critical_point, density, isotropic_point, log_density
from onsager_ms.moments import moment, scaled_moments
from onsager_ms.quadrature import SphereParams, polar_rule, sphere_rule, surface_area, theta_rule
from onsager_ms.sigma import find_eta_star, sigma_prime, sigma_value
from onsager_ms.spectral import block_spectrum
from onsager_ms.stability import (
    FAMILIES,
    MARGINAL,
    STABLE,
    UNSTABLE,
    _DIRECT_FACTOR_ORDER,
    _DIRECT_THETA_ORDER,
    GAMMA_BY_FAMILY,
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
    _slot_denominator,
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


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (8, 4), (10, 5), (12, 6)])
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
    for gamma in (7, -1, 2.5):
        with pytest.raises(ValueError, match="gamma must be one of 0, 1, 2, 3"):
            equality_attainer(params, 1.0, gamma)
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
    if abs(eta) > 1e-10:
        assert d1 * (-eta) >= 0.0
        assert d2 * eta >= 0.0
    if abs(eta) > 1e-10 and abs(eta - star) > 1e-10:
        assert d3 * eta * (eta - star) > 0.0


def test_d_sign_laws_near_zero_on_every_branch():
    """The strict sign laws at |eta| = 1e-8, 1e-6, 1e-3 and at eta* +- 1e-10
    for every (n, k) with n <= 38, where D1, D2 ~ eta and, on k = n/2,
    D3 ~ eta^2 vanish."""
    violations = []
    for n in range(3, 39):
        for k in range(1, n):
            params = SphereParams(n, k)
            star = find_eta_star(params).eta_star
            etas = [1e-8, -1e-8, 1e-6, -1e-6, 1e-3, -1e-3]
            etas += [e for e in (star - 1e-10, star + 1e-10) if e not in etas]
            for eta in etas:
                d1, d2, d3 = d_quantities(params, eta)
                if not (d1 * -eta > 0.0 and d2 * eta > 0.0 and d3 * eta * (eta - star) > 0.0):
                    violations.append((n, k, eta))
    assert violations == []


def _hypergeometric_reference(n, k, eta):
    """sigma, sigma' and D1, D2, D3 on the branch from 40-digit 1F1 moments."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e = mp.mpf(eta)
        a0, a2, a4, a6 = (
            mp.beta(mp.mpf(k + l) / 2, mp.mpf(n - k) / 2)
            * mp.hyp1f1(mp.mpf(k + l) / 2, mp.mpf(n + l) / 2, e)
            / 2
            for l in (0, 2, 4, 6)
        )
        gap = a2 - a4
        sigma = k * (n - k) * a0 / (2 * gap)
        slope = k * (n - k) * (a2 * gap - a0 * (a4 - a6)) / (2 * gap * gap)
        d1 = a0 - 2 * sigma * a4 / (k * (k + 2))
        d2 = a0 - 2 * sigma * (a0 - 2 * a2 + a4) / ((n - k) * (n - k + 2))
        d3 = a0 - n * sigma * (a0 * a4 - a2 * a2) / (k * (n - k) * a0)
        return tuple(float(x) for x in (sigma, slope, d1, d2, d3))


def test_sign_quantities_against_hypergeometric_moments():
    """sigma, sigma' and D1..D3 against 40-digit 1F1 moments on n = 3..8,
    every k, eta from 1e-8 to 650 (297 cases)."""
    etas = (1e-8, -1e-8, 1e-6, -1e-6, 1e-3, -1e-3, -2.0, 3.0, 40.0, -60.0, 650.0)
    worst = np.zeros(5)
    for n in range(3, 9):
        for k in range(1, n):
            params = SphereParams(n, k)
            for eta in etas:
                want = np.array(_hypergeometric_reference(n, k, eta))
                got = np.array(
                    [sigma_value(params, eta), sigma_prime(params, eta), *d_quantities(params, eta)]
                )
                worst = np.maximum(worst, np.abs(got - want) / np.abs(want))
    assert worst[0] <= 1e-10  # sigma
    assert worst[1] <= 1e-7  # sigma'
    assert worst[2] <= 1e-10 and worst[3] <= 1e-10  # D1, D2
    assert worst[4] <= 1e-7  # D3


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (8, 7)])
def test_off_branch_blocks_are_moment_downdates(n, k):
    """Off the branch each block's low value is A_0 - c_gamma alpha N_gamma,
    with the rank-one coefficient c_gamma and the squared profile norm N_gamma
    from the plain moments."""
    params = SphereParams(n, k)
    nk = n - k
    for eta in (-3.0, 2.5):
        a0, a2, a4 = (moment(params, eta, l) for l in (0, 2, 4))
        sigma = sigma_value(params, eta)
        for alpha in (0.5 * sigma, 2.0 * sigma):
            want = {
                "Theta": a0 - 2.0 * alpha * (a2 - a4) / (k * nk),
                "Omega_A": a0 - 2.0 * alpha * a4 / (k * (k + 2)),
                "Xi_A": a0 - 2.0 * alpha * (a0 - 2.0 * a2 + a4) / (nk * (nk + 2)),
                "b": a0 - n * alpha * (a0 * a4 - a2 * a2) / (k * nk * a0),
            }
            d1, d2, d3 = d_quantities(params, eta, alpha=alpha)
            for got, family in ((d1, "Omega_A"), (d2, "Xi_A"), (d3, "b")):
                assert got == pytest.approx(want[family], rel=1e-10)
            for family, value in want.items():
                if (family == "Omega_A" and k < 2) or (family == "Xi_A" and nk < 2):
                    continue
                low = block_spectrum(params, eta, family, alpha=alpha).closed_form[0]
                assert low == pytest.approx(value, rel=1e-10)


def test_d_quantities_stays_finite():
    vals = d_quantities(SphereParams(3, 1), 650.0)
    assert all(np.isfinite(v) for v in vals)
    # Past the moment domain it raises rather than return a value the
    # quadrature does not resolve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="moment domain"):
            d_quantities(SphereParams(5, 2), 2000.0)


@pytest.mark.parametrize("n", [3, 8, 20, 38, 80])
def test_d_quantities_unscaled_finite_on_the_domain(n):
    """e^eta times the D quantities stays finite up to |eta| = 700, so the
    unscaled form needs no overflow test of its own."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(1, n):
            for eta in (-700.0, 700.0):
                assert all(np.isfinite(d_quantities(SphereParams(n, k), eta)))


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
    evaluating them at every node: of the direct form's polar rule, and of
    a product rule, whose equal-theta nodes are not contiguous."""
    params = SphereParams(n, k)
    top = random_smooth_perturbation(params, 1.5, np.random.default_rng(10 * n + k))
    phi = assemble_sphere_function(top)
    polar = polar_rule(n, k, _DIRECT_THETA_ORDER, _DIRECT_FACTOR_ORDER)
    for pts in (polar.points, sphere_rule(n, 8).points):
        s2 = np.sum(pts[:, :k] ** 2, axis=-1)
        theta = np.arcsin(np.sqrt(s2))
        omega = pts[:, :k] / np.sqrt(s2)[:, None]
        xi = pts[:, k:] / np.sqrt(1.0 - s2)[:, None]
        want = np.zeros(theta.shape)
        for idx, func in top.coefficient_functions.items():
            want += func(theta) * _basis_values(idx, omega, xi)
        want += top.b_function(theta)
        assert np.array_equal(phi(pts), want)


def test_decomposed_matches_direct_form():
    params = SphereParams(4, 1)
    spec = critical_point(params, 3.0)
    rng = np.random.default_rng(0)
    top = random_smooth_perturbation(params, 3.0, rng)
    dec = quadratic_form_decomposed(spec, top)
    direct = quadratic_form_direct(spec, assemble_sphere_function(top))
    assert abs(direct - dec) <= 1e-6 * (1.0 + abs(direct))


@pytest.mark.parametrize(
    "n,k,eta",
    [(7, 1, 2.0), (7, 3, -1.5), (7, 6, -2.0), (8, 1, 3.0), (8, 4, 1.0), (8, 7, -3.0), (10, 5, 1.0)],
)
def test_decomposed_matches_direct_form_beyond_six(n, k, eta):
    """The node budget, not a dimension cap, bounds the direct form: it
    checks the decomposition past n = 6, at test_07's tolerance."""
    params = SphereParams(n, k)
    spec = critical_point(params, eta)
    top = random_smooth_perturbation(params, eta, np.random.default_rng(n + k))
    direct = quadratic_form_direct(spec, assemble_sphere_function(top))
    assert abs(direct - quadratic_form_decomposed(spec, top)) <= 1e-6 * (1.0 + abs(direct))


def test_decomposed_form_makes_one_moment_pass(moment_passes):
    """One moment pass, the spec's, serves every slot, and the value is
    bitwise the sum of functional_I over the slots, each of which makes its
    own pass."""
    params = SphereParams(6, 3)
    top = random_smooth_perturbation(params, 1.0, np.random.default_rng(3))
    alpha = sigma_value(params, 1.0)
    total = 0.0
    for idx, vals in top.coefficients.items():
        gamma = GAMMA_BY_FAMILY[idx.family]
        total += functional_I(gamma, params, 1.0, vals, alpha=alpha) / _slot_denominator(gamma, params)
    total += functional_I(3, params, 1.0, top.b, alpha=alpha)
    want = (surface_area(3) * surface_area(3)) ** 2 * total
    moment_passes.clear()
    spec = critical_point(params, 1.0)
    assert quadratic_form_decomposed(spec, top) == want
    assert len(moment_passes) == 1
    # A perturbation on another grid gets one pass at its own order.
    coarse = random_smooth_perturbation(params, 1.0, np.random.default_rng(3), order=64)
    quadratic_form_decomposed(spec, coarse)
    assert moment_passes[1:] == [(6, 3, 1.0, 64)]


def test_spec_carries_one_read_only_moment_pass(moment_passes):
    """A point makes its moment pass once: bit-identical to scaled_moments at
    the default order, with read-only weights, and read by the density and
    the direct form without a pass of their own."""
    params = SphereParams(4, 1)
    spec = critical_point(params, 3.0)
    assert len(moment_passes) == 1
    tilt, want = spec._tilt, scaled_moments(params, 3.0)
    assert np.array_equal(tilt.weights, want.weights)
    assert tilt.rule is want.rule
    assert (tilt.a0, tilt.mean, tilt.s, tilt.s_sin2, tilt.s_cos2) == (
        want.a0, want.mean, want.s, want.s_sin2, want.s_cos2
    )
    assert spec.alpha == sigma_value(params, 3.0)
    with pytest.raises(ValueError):
        tilt.weights[0] = 1.0
    moment_passes.clear()
    density(spec, np.eye(4))
    log_density(spec, np.eye(4))
    phi = assemble_sphere_function(random_smooth_perturbation(params, 3.0, np.random.default_rng(1)))
    quadratic_form_direct(spec, phi)
    assert moment_passes == []


def _witness_gamma(report):
    if report.witness is None:
        return None
    families = {idx.family for idx in report.witness.coefficients}
    return GAMMA_BY_FAMILY[families.pop()] if families else 3


@pytest.mark.parametrize(
    "n,k,eta,alpha,gamma",
    [
        (4, 1, 4.0, None, None),  # stable, above the fold
        (5, 2, 2.0, None, 1),
        (5, 2, -2.0, None, 2),
        (4, 1, 0.5, None, 3),  # k = 1 between zero and the fold
        (5, 1, 0.0, 21.0, 0),  # isotropic, above n(n+2)/2
    ],
)
def test_classify_makes_one_moment_pass(moment_passes, n, k, eta, alpha, gamma):
    """The spec's pass gives classify its D values, its witness and the
    witness's form value; with the fold cached, no other pass is made."""
    params = SphereParams(n, k)
    find_eta_star(params)
    moment_passes.clear()
    report = classify(params, eta, alpha=alpha)
    assert _witness_gamma(report) == gamma
    assert len(moment_passes) == 1


@pytest.mark.parametrize("n,k,eta", [(3, 2, 4.0), (4, 1, 3.0), (5, 2, -2.0), (6, 3, 1.0), (6, 5, -3.0)])
def test_direct_form_is_rotation_covariant(n, k, eta):
    """In a rotated frame the direct form builds its rule in the spec's
    frame, so a perturbation rotated along gives the canonical value."""
    params = SphereParams(n, k)
    rng = np.random.default_rng(7 * n + k)
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    phi = assemble_sphere_function(random_smooth_perturbation(params, eta, rng))
    canonical = quadratic_form_direct(critical_point(params, eta), phi)
    rotated = quadratic_form_direct(
        critical_point(params, eta, rotation), lambda m: phi(m @ rotation.T)
    )
    assert abs(rotated - canonical) <= 1e-12 * abs(canonical)


def test_random_perturbation_deterministic():
    params = SphereParams(5, 2)
    a = random_smooth_perturbation(params, 1.0, np.random.default_rng(9))
    b = random_smooth_perturbation(params, 1.0, np.random.default_rng(9))
    for idx in a.coefficients:
        assert np.array_equal(a.coefficients[idx], b.coefficients[idx])
    assert np.array_equal(a.b, b.b)


def test_random_perturbation_needs_degree_for_large_n():
    """The profile degree is 3 up to n = 5 and 2 above, at every n: each slot
    and the radial profile draw degree + 1 coefficients."""
    for n, degree in ((5, 3), (6, 2), (7, 2), (10, 2)):
        params = SphereParams(n, 2)
        rng, reference = np.random.default_rng(0), np.random.default_rng(0)
        random_smooth_perturbation(params, 0.5, rng)
        reference.uniform(size=(len(basis_indices(params)) + 1) * (degree + 1))
        assert rng.uniform() == reference.uniform()


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
    for alpha in (-5.0, 0.0):
        with pytest.raises(ValueError, match="alpha must be positive"):
            classify(params, 0.0, alpha=alpha)
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
