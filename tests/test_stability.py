import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsager_ms import stability
from onsager_ms.equilibrium import (
    CriticalPointSpec,
    OrderTensor,
    critical_point,
    density,
    euler_lagrange_residual,
    fixed_point_map,
    isotropic_point,
    log_density,
    solve_fixed_point,
)
from onsager_ms.moments import moment, scaled_moments
from onsager_ms.quadrature import (
    SphereParams,
    build_sphere_quadrature,
    build_weighted_quadrature,
    polar_rule,
    sphere_rule,
    surface_area,
    theta_rule,
)
from onsager_ms.sigma import find_eta_star, invert_alpha, sigma_prime, sigma_value
from onsager_ms.spectral import block_spectrum, full_spectrum
from onsager_ms.stability import (
    FAMILIES,
    MARGINAL,
    STABLE,
    UNSTABLE,
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
    for family, pair, message in (
        ("Omega_A", (1, 2), "A-family indices are \\(0, l\\)"),
        ("Xi_A", (0, 0), "A-family indices are \\(0, l\\)"),
        ("Omega_B", (2, 2), "B-family indices are pairs"),
        ("Xi_B", (0, 1), "B-family indices are pairs"),
        ("Theta", (0, 1), "Theta indices are \\(i, j\\)"),
    ):
        with pytest.raises(ValueError, match=message):
            BasisIndex(family, pair)
    with pytest.raises(ValueError):
        basis_eval(BasisIndex("Theta", (3, 1)), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for indices in ((1, 2, 3), (1,), 12, ()):
        with pytest.raises(ValueError, match="indices must be a pair"):
            BasisIndex("Theta", indices)


def test_basis_index_takes_integral_floats():
    idx = BasisIndex("Theta", (1.0, 2.0))
    assert idx.indices == (1, 2) and all(type(i) is int for i in idx.indices)


def test_basis_index_refuses_a_fractional_index():
    with pytest.raises(ValueError, match="basis index i must be an integer, got 1.5"):
        BasisIndex("Theta", (1.5, 2.9))


def test_basis_index_refuses_a_nan_index():
    with pytest.raises(ValueError, match="basis index i must be an integer, got nan"):
        BasisIndex("Theta", (float("nan"), 1))


def _range_edges(n, k):
    """Per family, its last slot in range (None when the family is empty)
    and the first slots past each limit: A has l <= d - 1, B has i' <= d,
    Theta has i <= k and j <= n - k, d the dimension of the factor."""
    nk = n - k
    edges = {}
    for family, d in (("Omega", k), ("Xi", nk)):
        edges[f"{family}_A"] = ((0, d - 1) if d >= 2 else None, [(0, d)])
        edges[f"{family}_B"] = ((d - 1, d) if d >= 2 else None, [(1, d + 1), (d, d + 1)])
    edges["Theta"] = ((k, nk), [(k + 1, nk), (k, nk + 1), (k + 1, 1), (1, nk + 1)])
    return edges


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (5, 2), (6, 3), (7, 6), (9, 4)])
def test_every_family_range_limit(n, k):
    """The last slot in range is accepted and the first past each limit
    raises, for every family, by ``basis_eval`` and by ``PerturbationTop``."""
    params = SphereParams(n, k)
    omega, xi = np.eye(k)[0], np.eye(n - k)[-1]
    for family, (last, beyond) in _range_edges(n, k).items():
        if last is not None:
            idx = BasisIndex(family, last)
            assert idx in basis_indices(params)
            assert np.isfinite(basis_eval(idx, omega, xi))
            PerturbationTop(params, {idx: np.ones_like})
        for pair in beyond:
            idx = BasisIndex(family, pair)
            with pytest.raises(ValueError, match="out of range"):
                basis_eval(idx, omega, xi)
            with pytest.raises(ValueError, match="out of range"):
                PerturbationTop(params, {idx: np.ones_like})


def test_basis_eval_rejects_non_unit():
    idx = BasisIndex("Theta", (1, 1))
    with pytest.raises(ValueError):
        basis_eval(idx, np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="omega must be a unit vector"):
        basis_eval(idx, np.array([np.nan, 0.0]), np.array([1.0, 0.0]))


def test_basis_eval_theta_product():
    idx = BasisIndex("Theta", (2, 1))
    omega = np.array([0.6, 0.8])
    xi = np.array([0.0, 1.0])
    assert basis_eval(idx, omega, xi) == pytest.approx(0.8 * 0.0)


def test_gram_matrix_is_diagonal_positive():
    g = gram_matrix(SphereParams(5, 2))
    assert np.allclose(g, np.diag(np.diag(g)))
    assert np.all(np.diag(g) > 0)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (8, 4), (10, 5), (12, 6), (14, 7), (20, 1)])
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
    rule = theta_rule(4, 1)
    vals = np.ones_like(rule.nodes)
    with pytest.raises(ValueError):
        functional_I(4, params, 1.0, vals)
    for gamma in (7, -1, 2.5):
        with pytest.raises(ValueError, match="gamma must be one of 0, 1, 2, 3"):
            equality_attainer(params, 1.0, gamma)
    with pytest.raises(ValueError):
        functional_I(0, params, 1.0, vals[:-1])
    with pytest.raises(ValueError):
        functional_I(3, params, 1.0, vals)  # not mean-zero
    with pytest.raises(ValueError, match="coefficient values must be finite"):
        functional_I(0, params, 1.0, np.where(rule.nodes < 0.5, np.nan, 1.0))


@pytest.mark.parametrize("gamma", [0, 1, 2, 3])
def test_attainer_reaches_block_extreme(gamma):
    """I_gamma at its equality profile equals the matching sign scalar
    times a positive moment factor; gamma = 0 vanishes on the branch."""
    params = SphereParams(5, 2)
    eta = 1.8
    a = equality_attainer(params, eta, gamma)
    got = functional_I(gamma, params, eta, a)
    a0 = moment(params, eta, 0)
    a2 = moment(params, eta, 2)
    a4 = moment(params, eta, 4)
    d1, d2, d3 = d_quantities(params, eta)
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


def test_sigma_accuracy_stated_in_the_docs():
    """sigma_k and sigma_k' against 1F1 moments at the points the moments
    docstring states: n in {3, 8, 20, 38, 50}, k in {1, n/2, n-1} and
    eta = +-100, +-200, +-400, +-700 (120 points).  Measured: 4.3e-14 and
    8.5e-14 relative."""
    worst = 0.0
    for n in (3, 8, 20, 38, 50):
        for k in (1, n // 2, n - 1):
            params = SphereParams(n, k)
            for eta in (100.0, -100.0, 200.0, -200.0, 400.0, -400.0, 700.0, -700.0):
                sigma, slope = _hypergeometric_reference(n, k, eta)[:2]
                worst = max(worst, abs(sigma_value(params, eta) / sigma - 1.0))
                worst = max(worst, abs(sigma_prime(params, eta) / slope - 1.0))
    assert worst <= 1e-12


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
    rule = theta_rule(4, 1)
    theta_slot = BasisIndex("Theta", (1, 1))
    with pytest.raises(ValueError, match="zero mean"):
        PerturbationTop(params, {}, np.ones_like)  # b not mean-zero
    with pytest.raises(ValueError, match="do not match the grid"):
        PerturbationTop(params, {theta_slot: lambda th: np.ones(th.size - 1)})
    with pytest.raises(ValueError, match="do not match the grid"):
        PerturbationTop(params, {}, lambda th: 0.0)
    with pytest.raises(ValueError, match="must be finite"):
        PerturbationTop(params, {theta_slot: lambda th: np.full(th.shape, np.nan)})
    with pytest.raises(ValueError, match="must be finite"):
        PerturbationTop(params, {}, lambda th: np.where(th < 0.5, np.inf, 0.0))
    with pytest.raises(ValueError, match="out of range"):
        PerturbationTop(params, {BasisIndex("Theta", (2, 1)): np.ones_like})
    top = PerturbationTop(params, {theta_slot: np.ones_like})
    with pytest.raises(ValueError):
        top.coefficients[theta_slot][0] = 2.0
    with pytest.raises(ValueError):
        top.b[0] = 2.0
    with pytest.raises(TypeError):
        top.coefficients[BasisIndex("Theta", (1, 2))] = np.ones_like(rule.nodes)
    with pytest.raises(TypeError):
        top.coefficient_functions[BasisIndex("Theta", (1, 2))] = np.ones_like
    assert top.rule is rule
    assert np.array_equal(top.theta_grid, rule.nodes)
    assert np.array_equal(top.coefficients[theta_slot], np.ones_like(rule.nodes))
    assert np.array_equal(top.b, np.zeros_like(rule.nodes))


@pytest.mark.parametrize("amplitude", [1.0, 1e-6, 1e-11, 1e-300])
def test_zero_mean_checks_scale_with_the_profile(amplitude):
    """The zero-mean checks of b and of the direct form's phi compare the
    mean with the profile's own weighted size, not with an absolute floor:
    a constant is rejected and a mean-subtracted profile accepted at every
    amplitude."""
    params = SphereParams(4, 1)
    rule = theta_rule(4, 1)
    with pytest.raises(ValueError, match="zero mean against the measure"):
        PerturbationTop(params, {}, lambda th: amplitude * np.ones_like(th))
    mean = float(rule.weights @ np.sin(rule.nodes) ** 2) / rule.total_mass
    top = PerturbationTop(params, {}, lambda th: amplitude * (np.sin(th) ** 2 - mean))
    assert np.isfinite(quadratic_form_decomposed(critical_point(params, 3.0), top))

    spec = critical_point(params, 3.0)
    with pytest.raises(ValueError, match="zero mean over the sphere"):
        quadratic_form_direct(spec, lambda m: np.full(len(m), amplitude))
    assert np.isfinite(quadratic_form_direct(spec, lambda m: amplitude * (m[:, 0] ** 2 - 0.25)))
    # An all-zero profile has zero mean at any scale.
    assert quadratic_form_direct(spec, lambda m: np.zeros(len(m))) == 0.0


def test_witness_without_b_skips_the_radial_block(monkeypatch):
    """A witness with no b profile evaluates only its own slot's functional:
    I_3 of the zero profile is exactly 0.0 and is not computed."""
    params, eta = SphereParams(5, 2), 3.0
    assert functional_I(3, params, eta, np.zeros(theta_rule(5, 2).weights.size)) == 0.0
    gammas = []
    original = stability._functional_value

    def counted(gamma, *args):
        gammas.append(gamma)
        return original(gamma, *args)

    monkeypatch.setattr(stability, "_functional_value", counted)
    report = classify(params, eta)
    assert report.classification == UNSTABLE and report.witness.b_function is None
    assert gammas == [1]


def test_perturbation_top_is_its_profiles():
    """The profiles are the only inputs; the rule and the grid values are
    derived from them, not settable."""
    init = [f.name for f in dataclasses.fields(PerturbationTop) if f.init]
    assert init == ["params", "coefficient_functions", "b_function"]
    with pytest.raises(TypeError):
        PerturbationTop(SphereParams(4, 1), {}, None, theta_rule(4, 1))


def test_assemble_matches_manual_evaluation():
    params = SphereParams(4, 2)
    idx = BasisIndex("Theta", (2, 1))
    top = PerturbationTop(params, {idx: lambda th: np.sin(th) ** 2})
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
    polar = polar_rule(n, k, _DIRECT_THETA_ORDER)
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


def test_forms_reject_mismatched_input():
    params = SphereParams(4, 1)
    spec = critical_point(params, 3.0)
    other = random_smooth_perturbation(SphereParams(4, 2), 3.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="perturbation and spec parameters differ"):
        quadratic_form_decomposed(spec, other)
    with pytest.raises(ValueError, match="one value per quadrature point"):
        quadratic_form_direct(spec, lambda m: m[:-1, 0])
    with pytest.raises(ValueError, match="zero mean over the sphere"):
        quadratic_form_direct(spec, lambda m: m[:, 0] ** 2)
    for bad in (np.nan, np.inf, -np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                quadratic_form_direct(spec, lambda m, bad=bad: np.full(len(m), bad))


def test_decomposed_matches_direct_form():
    params = SphereParams(4, 1)
    spec = critical_point(params, 3.0)
    rng = np.random.default_rng(0)
    top = random_smooth_perturbation(params, 3.0, rng)
    dec = quadratic_form_decomposed(spec, top)
    direct = quadratic_form_direct(spec, assemble_sphere_function(top))
    assert abs(direct - dec) <= 1e-6 * (1.0 + abs(direct))


# Every k at n = 7 and 8, k in {1, n // 2, n - 1} for n = 9..14, and the two
# ends at n = 20; a few points keep an eta of their own.
_BEYOND_SIX_ETA = {(7, 1): 2.0, (7, 3): -1.5, (7, 6): -2.0, (8, 1): 3.0, (8, 4): 1.0, (8, 7): -3.0, (10, 5): 1.0}
_BEYOND_SIX = [(n, k) for n in (7, 8) for k in range(1, n)]
_BEYOND_SIX += [(n, k) for n in range(9, 15) for k in sorted({1, n // 2, n - 1})] + [(20, 1), (20, 19)]


@pytest.mark.parametrize(
    "n,k,eta", [(n, k, _BEYOND_SIX_ETA.get((n, k), 2.0 if 2 * k <= n else -2.0)) for n, k in _BEYOND_SIX]
)
def test_decomposed_matches_direct_form_beyond_six(n, k, eta):
    """The node budget, not a dimension cap, bounds the direct form: it
    checks the decomposition past n = 6, up to n = 20, at test_07's
    tolerance."""
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


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9) for k in range(1, n)])
def test_every_witness_checks_on_the_direct_form(n, k):
    """Every Unstable report's witness assembles on the sphere, and the
    direct form, independent of the blocks, gives it the reported
    negative value: on the branch at eta in {-3, -0.7, 0.6, 2, 5} (and
    eta^* - 0.3 on k = 1), and at the isotropic point above its threshold."""
    params = SphereParams(n, k)
    points = [(eta, None) for eta in (-3.0, -0.7, 0.6, 2.0, 5.0)]
    if k == 1:
        points.append((find_eta_star(params).eta_star - 0.3, None))
    points.append((0.0, 1.3 * n * (n + 2) / 2.0))
    unstable = 0
    for eta, alpha in points:
        report = classify(params, eta, alpha=alpha)
        if report.classification != UNSTABLE:
            continue
        unstable += 1
        spec = CriticalPointSpec(params, report.eta, report.alpha)
        direct = quadratic_form_direct(spec, assemble_sphere_function(report.witness))
        assert direct < 0.0
        assert abs(direct - report.witness_value) <= 1e-10 * abs(report.witness_value)
    assert unstable >= 4


_ALPHA_TAKERS = {
    "d_quantities": lambda alpha: d_quantities(SphereParams(5, 2), 1.0, alpha=alpha),
    "functional_I": lambda alpha: functional_I(
        1, SphereParams(5, 2), 1.0, equality_attainer(SphereParams(5, 2), 1.0, 1), alpha=alpha
    ),
    "euler_lagrange_residual": lambda alpha: euler_lagrange_residual(
        critical_point(SphereParams(5, 2), 1.0), alpha=alpha
    ),
    "block_spectrum": lambda alpha: block_spectrum(SphereParams(5, 2), 1.0, "Theta", 16, alpha=alpha),
    "full_spectrum": lambda alpha: full_spectrum(SphereParams(5, 2), 1.0, 16, alpha=alpha),
    "invert_alpha": lambda alpha: invert_alpha(SphereParams(5, 2), alpha),
    "fixed_point_map": lambda alpha: fixed_point_map(OrderTensor.random_unit(4, np.random.default_rng(0)), alpha),
    "solve_fixed_point": lambda alpha: solve_fixed_point(3, alpha, OrderTensor.zero(3)),
}


@pytest.mark.parametrize("name", _ALPHA_TAKERS)
def test_explicit_alpha_is_checked_alike(name):
    """Every entry point with an explicit alpha refuses one that is not
    positive and finite with the same message, and takes a sound one."""
    call = _ALPHA_TAKERS[name]
    for alpha in (np.nan, np.inf, -np.inf, 0.0, -3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                call(alpha)
    call(7.0)


@pytest.mark.parametrize("n,k,eta", [(270, 1, 5.0), (300, 150, 1.0)])
def test_classify_refuses_an_underflowing_witness_value(n, k, eta):
    """The block sum is negative, but the positive area factor takes the
    witness value below the normal doubles: a ValueError names n rather
    than a Marginal verdict on an unstable branch."""
    params = SphereParams(n, k)
    assert branch_tag(params, eta) == "unstable"
    with pytest.raises(ValueError, match=f"underflows at n = {n}"):
        classify(params, eta)


def test_decomposed_form_refuses_an_underflow():
    """The area factor (|S^0| |S^(n-2)|)^2 takes a nonzero block sum below
    the normal doubles at n = 270: a ValueError names n rather than a
    silent 0.0.  At n = 200 the form is still a normal double."""

    def form(n):
        params = SphereParams(n, 1)
        top = PerturbationTop(params, {BasisIndex("Theta", (1, 1)): lambda th: np.sin(th) * np.cos(th)})
        return quadratic_form_decomposed(critical_point(params, 5.0), top)

    assert np.finfo(float).tiny <= form(200) < 1e-200
    with pytest.raises(ValueError, match="underflows at n = 270"):
        form(270)


def test_branch_tag_is_the_mirror_tag_to_fifty():
    """branch_tag((n, k), eta) is branch_tag((n, n - k), -eta) for every
    (n, k) with n <= 50, on a grid that straddles each fold inside and
    outside the 1e-9 marginal band; the band is reached on k = 1."""
    for n in range(3, 51):
        for k in range(1, n):
            params, mirror = SphereParams(n, k), SphereParams(n, n - k)
            star = find_eta_star(params).eta_star
            grid = [star + d for d in (-0.5, -1e-8, -1e-10, 0.0, 1e-10, 1e-8, 0.5)] + [-5.0, 0.0, 3.0]
            for eta in grid:
                assert branch_tag(params, eta) == branch_tag(mirror, -eta), (n, k, eta)
            if k == 1:
                assert [branch_tag(params, star + d) for d in (-1e-8, 1e-10, 1e-8)] == [
                    "unstable", "marginal", "stable"
                ]


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


_ARRAY_HOLDERS = {
    "OrderTensor": lambda: OrderTensor.zero(3),
    "CriticalPointSpec": lambda: critical_point(SphereParams(4, 1), 2.0),
    "WeightedQuadrature": lambda: build_weighted_quadrature(SphereParams(4, 1), 16),
    "SphereQuadrature": lambda: build_sphere_quadrature(3, 4),
    "BlockSpectrum": lambda: block_spectrum(SphereParams(4, 1), 1.0, "Theta", 16),
    "SpectrumReport": lambda: full_spectrum(SphereParams(4, 1), 1.0, 16),
    "PerturbationTop": lambda: random_smooth_perturbation(SphereParams(4, 1), 1.0, np.random.default_rng(0)),
    "FixedPointResult": lambda: solve_fixed_point(3, 10.0, OrderTensor.zero(3)),
    "StabilityReport": lambda: classify(SphereParams(4, 1), -1.0),
}


@pytest.mark.parametrize("name", _ARRAY_HOLDERS)
def test_array_holders_compare_and_hash(name):
    """Objects that carry arrays, or hold such objects, compare to a bool
    and hash without raising; two built alike need not be equal."""
    a, b = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert (a == a) is True
    assert isinstance(a == b, bool)
    hash(a)
