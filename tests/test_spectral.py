import numpy as np
import pytest

from onsager_ms.moments import moment, scaled_moments
from onsager_ms.quadrature import SphereParams, theta_rule
from onsager_ms.sigma import _branch_alpha, find_eta_star, sigma_value
from onsager_ms.spectral import (
    _CLOSED_FORM_RTOL,
    BLOCK_FAMILIES,
    _rank_one_block,
    block_spectrum,
    family_multiplicities,
    full_spectrum,
    gap_estimate,
    isotropic_threshold,
)
from onsager_ms.stability import (
    GAMMA_BY_FAMILY,
    _block_low,
    _profile,
    _rank_one_coefficient,
    basis_indices,
    d_quantities,
)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 13) for k in range(1, n)])
def test_family_multiplicities(n, k):
    """The closed-form counts match a count over the enumerated basis."""
    params = SphereParams(n, k)
    enumerated = {family: 0 for family in BLOCK_FAMILIES}
    for idx in basis_indices(params):
        enumerated[idx.family] += 1
    enumerated["b"] = 1
    counts = family_multiplicities(params)
    assert counts == enumerated
    assert list(counts) == list(BLOCK_FAMILIES)


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (12, 6), (38, 1), (38, 19)])
def test_rank_one_spectrum_matches_dense_reference(n, k):
    """Every block against a dense eigensolve of the same grid matrix.

    Where the dense reference's low eigenvalue disagrees with the
    closed form, the grid is too coarse and ``block_spectrum`` must
    raise; everywhere else its eigenpairs must match the dense ones.
    """
    params = SphereParams(n, k)
    passed = raised = 0
    for grid_size in (8, 24, 64, 128):
        rule = theta_rule(n, k, grid_size)
        w, t = rule.weights, rule.sin2
        for eta in (-20.0, -1e-3, 1.5, 40.0):
            tilt = scaled_moments(params, eta)
            a0, shift = tilt.a0, tilt.shift
            alpha = _branch_alpha(params, tilt)
            root_mass = np.sqrt(w * np.exp(eta * t - shift))
            for family, count in family_multiplicities(params).items():
                if count == 0:
                    continue
                gamma = 3 if family == "b" else GAMMA_BY_FAMILY[family]
                coefficient = _rank_one_coefficient(gamma, params) * alpha
                direction = root_mass * _profile(gamma, t)
                constraint = root_mass if gamma == 3 else None
                mat, basis = _rank_one_block(
                    np.full(w.size, a0), coefficient, direction, constraint
                )
                dense = np.linalg.eigvalsh(mat)
                low = _block_low(gamma, params, tilt, alpha)
                closed = np.sort(np.concatenate(([low], np.full(dense.size - 1, a0))))
                resolved = np.max(np.abs(dense - closed)) <= _CLOSED_FORM_RTOL * max(a0, abs(low))
                if not resolved:
                    with pytest.raises(RuntimeError, match="increase grid_size"):
                        block_spectrum(params, eta, family, grid_size=grid_size)
                    raised += 1
                    continue
                spec = block_spectrum(params, eta, family, grid_size=grid_size)
                passed += 1
                scaled = spec.eigenvalues * np.exp(-shift)
                assert np.max(np.abs(scaled - dense)) <= 1e-12 * a0
                # Orthonormal in the weighted metric.
                a = spec.eigenvectors
                gram = a.T @ (a * (w * np.exp(-eta * t))[:, None])
                assert np.max(np.abs(gram - np.eye(dense.size))) <= 1e-12
                # Back to the grid coordinates the matrix acts on.
                v = a * (np.sqrt(w) * np.exp(-0.5 * eta * t))[:, None]
                full = a0 * v - coefficient * np.outer(direction, direction @ v)
                if basis is not None:
                    assert np.max(np.abs(root_mass @ v)) <= 1e-12 * np.linalg.norm(root_mass)
                    full = basis @ (basis.T @ full)
                residual = np.linalg.norm(full - v * scaled[None, :], axis=0)
                assert np.max(residual) <= 1e-12 * a0
    # Only the coarsest grid fails to resolve the weight, at |eta| >= 20.
    blocks = sum(1 for count in family_multiplicities(params).values() if count)
    assert (passed, raised) == (14 * blocks, 2 * blocks)


def test_grid_resolution_check_fires():
    params = SphereParams(3, 1)
    with pytest.raises(RuntimeError, match="increase grid_size"):
        block_spectrum(params, 50.0, "Theta", grid_size=8)
    spec = block_spectrum(params, 50.0, "Theta", grid_size=64)
    assert abs(spec.eigenvalues[0]) <= 1e-9 * spec.eigenvalues[-1]


def test_block_spectrum_missing_family_raises():
    with pytest.raises(ValueError):
        block_spectrum(SphereParams(4, 1), 1.0, "Omega_A")


def test_block_low_eigenvalues_match_sign_scalars():
    """Each block's smallest eigenvalue is the matching D quantity; the
    Theta block bottoms out at zero on the branch (the rotation modes)."""
    params = SphereParams(4, 2)
    eta = 1.3
    d1, d2, d3 = d_quantities(params, eta)
    theta = block_spectrum(params, eta, "Theta")
    omega = block_spectrum(params, eta, "Omega_A")
    xi = block_spectrum(params, eta, "Xi_A")
    b = block_spectrum(params, eta, "b")
    a0 = moment(params, eta, 0)
    assert abs(theta.eigenvalues[0]) <= 1e-10 * a0
    assert omega.eigenvalues[0] == pytest.approx(d1, rel=1e-9)
    assert xi.eigenvalues[0] == pytest.approx(d2, rel=1e-9)
    assert b.eigenvalues[0] == pytest.approx(d3, rel=1e-9)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 7) for k in range(1, n)])
def test_block_closed_form_low_is_d_quantity(n, k):
    params = SphereParams(n, k)
    for eta in (-2.5, 0.8, 3.0):
        d1, d2, d3 = d_quantities(params, eta)
        expected = {"b": d3}
        if k >= 2:
            expected["Omega_A"] = d1
        if n - k >= 2:
            expected["Xi_A"] = d2
        for family, d in expected.items():
            assert block_spectrum(params, eta, family).closed_form[0] == d


def test_block_bulk_is_a0():
    params = SphereParams(4, 1)
    eta = 2.0
    spec = block_spectrum(params, eta, "Theta", grid_size=32)
    a0 = moment(params, eta, 0)
    assert spec.eigenvalues[-1] == pytest.approx(a0, rel=1e-10)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_block_grid_floor():
    with pytest.raises(ValueError):
        block_spectrum(SphereParams(4, 1), 1.0, "Theta", grid_size=4)
    with pytest.raises(ValueError):
        full_spectrum(SphereParams(4, 1), 1.0, grid_size=4)


def test_eigenvector_profiles_reproduce_eigenvalues():
    """Rayleigh quotients of the returned profiles against the weighted
    forms recover the eigenvalues, tying the matrix to the functional."""
    params = SphereParams(4, 1)
    eta = 1.5
    spec = block_spectrum(params, eta, "Theta", grid_size=24)
    rule = spec.rule
    w, t = rule.weights, rule.sin2
    a0 = moment(params, eta, 0, spec_order(spec))
    u = np.sqrt(t * (1.0 - t))
    c = 2.0 / (params.k * params.complement) * spec.alpha
    for col in (0, 5, -1):
        a = spec.eigenvectors[:, col]
        quad = a0 * float(np.sum(w * np.exp(-eta * t) * a * a)) - c * float(np.sum(w * u * a)) ** 2
        norm = float(np.sum(w * np.exp(-eta * t) * a * a))
        assert quad / norm == pytest.approx(spec.eigenvalues[col], rel=1e-8, abs=1e-12)


def spec_order(spec):
    return spec.rule.order


def test_full_spectrum_kernel_dimension():
    # dim SO(n) - dim(SO(k) x SO(n-k)) = k (n - k) rotation modes.
    for n, k, eta in ((3, 1, 3.5), (4, 2, 2.0), (5, 2, -1.5)):
        report = full_spectrum(SphereParams(n, k), eta, grid_size=32)
        assert report.kernel_dim == k * (n - k)
        assert not report.ambiguous


def test_full_spectrum_gap_sign_tracks_stability():
    params = SphereParams(4, 1)
    star = find_eta_star(params).eta_star
    above = full_spectrum(params, star + 1.0, grid_size=32)
    below = full_spectrum(params, star - 1.0, grid_size=32)
    assert above.gap > 0
    assert below.gap < 0
    assert above.kernel_projection >= 1.0 - 1e-6


def test_full_spectrum_pools_multiplicities():
    params = SphereParams(4, 1)
    report = full_spectrum(params, 2.0, grid_size=16)
    expected = sum(
        count * (16 - (1 if fam == "b" else 0))
        for fam, count in report.multiplicities.items()
        if count > 0
    )
    assert report.eigenvalues.size == expected
    assert np.all(np.diff(report.eigenvalues) >= 0)
    for params, eta in ((SphereParams(5, 2), -1.5), (SphereParams(7, 3), 2.0)):
        report = full_spectrum(params, eta, grid_size=16)
        tiled = np.sort(np.concatenate([
            np.tile(report.blocks[family].eigenvalues, count)
            for family, count in report.multiplicities.items()
            if count > 0
        ]))
        assert np.array_equal(report.eigenvalues, tiled)


@pytest.mark.parametrize("n,k,eta", [(4, 1, 3.0), (6, 3, -1.5)])
def test_full_spectrum_makes_one_moment_pass(moment_passes, n, k, eta):
    """One pass and one alpha serve every block, and each block is bitwise
    the one ``block_spectrum`` builds from its own pass."""
    params = SphereParams(n, k)
    report = full_spectrum(params, eta)
    assert len(moment_passes) == 1
    assert report.alpha == sigma_value(params, eta)
    for family, block in report.blocks.items():
        alone = block_spectrum(params, eta, family)
        assert block.alpha == report.alpha
        assert np.array_equal(block.eigenvalues, alone.eigenvalues)
        assert np.array_equal(block.eigenvectors, alone.eigenvectors)


def test_full_spectrum_isotropic_explicit_alpha():
    report = full_spectrum(SphereParams(4, 1), 0.0, grid_size=16, alpha=6.0)
    assert report.gap > 0  # below n(n+2)/2 = 12
    report2 = full_spectrum(SphereParams(4, 1), 0.0, grid_size=16, alpha=20.0)
    assert report2.eigenvalues[0] < 0


def test_gap_estimate_positive_above_fold():
    params = SphereParams(3, 1)
    star = find_eta_star(params).eta_star
    c0 = gap_estimate(params, star + 1.0)
    assert c0 > 0
    # Deterministic.
    assert gap_estimate(params, star + 1.0) == c0


def test_gap_estimate_shrinks_toward_fold():
    params = SphereParams(3, 1)
    star = find_eta_star(params).eta_star
    near = gap_estimate(params, star + 0.05)
    far = gap_estimate(params, star + 2.0)
    assert 0 < near < far


def test_gap_estimate_preconditions():
    params = SphereParams(3, 1)
    star = find_eta_star(params).eta_star
    with pytest.raises(ValueError):
        gap_estimate(SphereParams(4, 2), 3.0)
    with pytest.raises(ValueError):
        gap_estimate(params, star - 0.5)


def test_gap_estimate_reports_decayed_certificate():
    # At large n the certificate underflows; no grid can bring it back.
    params = SphereParams(14, 1)
    star = find_eta_star(params).eta_star
    with pytest.raises(RuntimeError, match="below floating-point resolution") as info:
        gap_estimate(params, star + 24.0)
    assert "increase grid_size" not in str(info.value)


@pytest.mark.parametrize("n", [3, 4])
def test_isotropic_threshold(n):
    got = isotropic_threshold(n, tol=1e-8)
    assert got == pytest.approx(n * (n + 2) / 2.0, abs=1e-6)
