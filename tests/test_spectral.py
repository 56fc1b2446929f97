import tracemalloc

import numpy as np
import pytest

from onsager_ms.moments import moment, scaled_moments
from onsager_ms.quadrature import SphereParams, theta_rule
from onsager_ms.sigma import _branch_alpha, find_eta_star, invert_alpha, sigma_value
from onsager_ms.spectral import (
    _CLOSED_FORM_RTOL,
    _GAMMA_BY_BLOCK,
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
    THETA,
    _attainer,
    _block_low,
    _profile,
    _rank_one_coefficient,
    basis_indices,
    classify,
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
            alpha = _branch_alpha(tilt)
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
                low = _block_low(gamma, tilt, alpha)
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


def _dense_disagrees(params, eta, grid_size):
    """Whether a dense eigvalsh of some nonempty block on the grid disagrees
    with the block's closed form beyond the resolution check's tolerance."""
    rule = theta_rule(params.n, params.k, grid_size)
    w, t = rule.weights, rule.sin2
    tilt = scaled_moments(params, eta)
    alpha = _branch_alpha(tilt)
    root_mass = np.sqrt(w * np.exp(eta * t - tilt.shift))
    gammas = {_GAMMA_BY_BLOCK[f] for f, count in family_multiplicities(params).items() if count}
    for gamma in gammas:
        mat, _ = _rank_one_block(
            np.full(w.size, tilt.a0),
            _rank_one_coefficient(gamma, params) * alpha,
            root_mass * _profile(gamma, t),
            root_mass if gamma == 3 else None,
        )
        dense = np.linalg.eigvalsh(mat)
        low = _block_low(gamma, tilt, alpha)
        closed = np.sort(np.concatenate(([low], np.full(dense.size - 1, tilt.a0))))
        if np.max(np.abs(dense - closed)) > _CLOSED_FORM_RTOL * max(tilt.a0, abs(low)):
            return True
    return False


@pytest.mark.parametrize("n,k", [(3, 1), (6, 2), (9, 8)])
def test_resolution_check_raises_where_a_dense_block_disagrees(n, k):
    """The scalar resolution check raises exactly where a dense eigensolve
    of some block disagrees with its closed form, and returns elsewhere."""
    params = SphereParams(n, k)
    star = find_eta_star(params).eta_star
    raised = 0
    for grid_size in (8, 16, 64):
        for eta in (-50.0, -5.0, 5.0, 50.0, star - 0.3, star + 0.3):
            if _dense_disagrees(params, eta, grid_size):
                raised += 1
                with pytest.raises(RuntimeError, match="increase grid_size"):
                    full_spectrum(params, eta, grid_size=grid_size)
            else:
                full_spectrum(params, eta, grid_size=grid_size)
    # Grids 8 and 16 cannot resolve the weight at |eta| = 50, nor grid 8
    # at the fold of (9, 8), about eta = -10.5: 14 of the 54 points.
    assert raised == {(3, 1): 4, (6, 2): 4, (9, 8): 6}[n, k]


def test_grid_resolution_check_fires():
    params = SphereParams(3, 1)
    with pytest.raises(RuntimeError, match="increase grid_size"):
        block_spectrum(params, 50.0, "Theta", grid_size=8)
    spec = block_spectrum(params, 50.0, "Theta", grid_size=64)
    assert abs(spec.eigenvalues[0]) <= 1e-9 * spec.eigenvalues[-1]


def test_block_spectrum_missing_family_raises():
    with pytest.raises(ValueError):
        block_spectrum(SphereParams(4, 1), 1.0, "Omega_A")
    with pytest.raises(ValueError, match="unknown block family 'Omega_C'"):
        block_spectrum(SphereParams(4, 1), 1.0, "Omega_C")


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


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9) for k in range(1, n)])
def test_families_of_one_gamma_share_one_block(n, k):
    """A block is its functional: ``full_spectrum`` maps every nonempty
    family of one gamma to the same block, and different gammas to
    different blocks."""
    params = SphereParams(n, k)
    report = full_spectrum(params, 1.0, grid_size=16)
    assert set(report.blocks) == {f for f, count in family_multiplicities(params).items() if count}
    for family, block in report.blocks.items():
        assert block.gamma == _GAMMA_BY_BLOCK[family]
        for other, other_block in report.blocks.items():
            assert (block is other_block) == (_GAMMA_BY_BLOCK[family] == _GAMMA_BY_BLOCK[other])


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


def _qr_profiles(rule, tilt, gamma):
    """The profiles of a complete QR factorization of the block's columns,
    the mean constraint leading for b, built here from the rule and the pass."""
    w, t = rule.weights, rule.sin2
    root_mass = np.sqrt(w * np.exp(tilt.eta * t - tilt.shift))
    direction = root_mass * _profile(gamma, t)
    columns = (root_mass, direction) if gamma == 3 else (direction,)
    q = np.linalg.qr(np.column_stack(columns), mode="complete")[0]
    return q[:, len(columns) - 1 :] * (np.exp(0.5 * tilt.eta * t) / np.sqrt(w))[:, None]


@pytest.mark.parametrize("n,k,eta", [(3, 1, 2.5), (6, 3, -1.5), (12, 5, 4.0), (38, 19, 1.0)])
def test_eigenvectors_are_the_complete_qr(n, k, eta):
    """Eigenvectors are built on first read, bit for bit the complete QR of
    the block's columns, frozen, and shared by the blocks of one gamma."""
    params = SphereParams(n, k)
    tilt = scaled_moments(params, eta)
    report = full_spectrum(params, eta)
    by_gamma = {}
    for family, block in report.blocks.items():
        assert np.array_equal(block.eigenvectors, _qr_profiles(block.rule, tilt, block.gamma))
        assert not block.eigenvectors.flags.writeable
        assert block.eigenvectors is by_gamma.setdefault(block.gamma, block.eigenvectors)


@pytest.mark.parametrize("n,k", [(5, 1), (12, 6), (38, 19)])
def test_branch_study_makes_no_qr(monkeypatch, n, k):
    """A branch study factorizes nothing; the first read of the eigenvectors
    makes one complete QR per gamma, and later reads make none."""
    shapes = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    params = SphereParams(n, k)
    star = find_eta_star(params)
    roots = invert_alpha(params, 1.3 * star.alpha_star)
    reports = [classify(params, root) for root in roots]
    spectra = [full_spectrum(params, root) for root in roots]
    assert len(reports) == 2 and shapes == []
    for report in spectra:
        gammas = {block.gamma for block in report.blocks.values()}
        for _ in range(2):
            for block in report.blocks.values():
                block.eigenvectors
        assert len(shapes) == len(gammas)
        shapes.clear()


def test_full_spectrum_allocates_no_grid_square():
    """Beyond its O(grid) vectors a call allocates nothing: no grid x grid
    matrix, 2 MiB at grid_size 512."""
    params, grid_size = SphereParams(5, 1), 512
    full_spectrum(params, 3.0, grid_size=grid_size)  # builds the rule
    tracemalloc.start()
    try:
        full_spectrum(params, 3.0, grid_size=grid_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_size * grid_size * 8 / 8


def _block_arrays_as_built_eagerly(rule, tilt, gamma, alpha):
    """A block's eigenvalues and closed form built as dense arrays from its
    grid columns: q projected off the mean constraint by Gram-Schmidt for b."""
    params, w, t = rule.params, rule.weights, rule.sin2
    root_mass = np.sqrt(w * np.exp(tilt.eta * t - tilt.shift))
    free = root_mass * _profile(gamma, t)
    if gamma == 3:
        unit = root_mass / np.linalg.norm(root_mass)
        free = free - (unit @ free) * unit
        free -= (unit @ free) * unit
    size = w.size - (gamma == 3)
    evals = np.full(size, tilt.a0)
    evals[0] -= _rank_one_coefficient(gamma, params) * alpha * (free @ free)
    closed = np.sort(np.concatenate(([_block_low(gamma, tilt, alpha)], np.full(size - 1, tilt.a0))))
    factor = np.exp(tilt.shift)
    return evals * factor, closed * factor


def test_full_spectrum_builds_its_arrays_on_first_read():
    """A branch point at (38, 19) stays below 64 KiB until the pooled
    eigenvalues (370 KiB) are read; they are the distinct values repeated
    by multiplicity, and each block's arrays match dense ones built from
    its grid columns."""
    params, eta = SphereParams(38, 19), 2.0
    full_spectrum(params, eta)  # builds the rules
    tracemalloc.start()
    try:
        report = full_spectrum(params, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    pairs = []
    for family, block in report.blocks.items():
        count = report.multiplicities[family]
        pairs += [(block.eigenvalues[0], count), (block.eigenvalues[-1], count * (block.eigenvalues.size - 1))]
    pairs.sort()
    expected = np.repeat([value for value, _ in pairs], [count for _, count in pairs])
    assert report.eigenvalues.nbytes > 360 * 1024
    assert np.array_equal(report.eigenvalues, expected)
    assert not report.eigenvalues.flags.writeable
    tilt = scaled_moments(params, eta)
    a0 = tilt.a0 * np.exp(tilt.shift)
    for block in report.blocks.values():
        evals, closed = _block_arrays_as_built_eagerly(block.rule, tilt, block.gamma, report.alpha)
        assert np.max(np.abs(block.eigenvalues - evals)) <= 1e-12 * a0
        assert np.max(np.abs(block.closed_form - closed)) <= 1e-12 * a0
        assert np.array_equal(block.eigenvectors, _qr_profiles(block.rule, tilt, block.gamma))


def _qr_kernel_projection(report, tilt):
    """The worst alignment with the rotational profile over the Theta
    block's zero columns, taken from a complete QR basis."""
    block = report.blocks[THETA]
    w, g = block.rule.weights, _attainer(block.rule.sin2, tilt, 0)
    zero = np.nonzero(np.abs(block.eigenvalues) < report.threshold)[0]
    profiles = _qr_profiles(block.rule, tilt, 0)[:, zero]
    return zero, min(np.sum(w * a * g) ** 2 / (np.sum(w * a * a) * np.sum(w * g * g)) for a in profiles.T)


@pytest.mark.parametrize("n", range(3, 13))
def test_kernel_projection_matches_qr_columns(n):
    """The kernel projection from the downdated direction is the one from
    the QR basis's zero column, at eta^* +- {0.3, 3} on grids 16 and 64."""
    for k in range(1, n):
        params = SphereParams(n, k)
        star = find_eta_star(params).eta_star
        for eta in (star - 3.0, star - 0.3, star + 0.3, star + 3.0):
            tilt = scaled_moments(params, eta)
            for grid_size in (16, 64):
                report = full_spectrum(params, eta, grid_size=grid_size)
                zero, expected = _qr_kernel_projection(report, tilt)
                assert list(zero) == [0]
                assert report.kernel_projection == pytest.approx(expected, rel=0, abs=1e-14)


def test_kernel_projection_over_bulk_columns():
    """At an alpha far off the branch the A_0 bulk falls below the kernel
    threshold; the projection then reads the QR basis's bulk columns."""
    params, eta = SphereParams(4, 1), 2.0
    report = full_spectrum(params, eta, grid_size=16, alpha=1e9)
    zero, expected = _qr_kernel_projection(report, scaled_moments(params, eta))
    assert list(zero) == list(range(1, 16))
    assert report.kernel_projection == expected


def test_float_grid_size_fails_alike_cold_and_warm(cold_and_warm):
    setup = (
        "from onsager_ms.quadrature import SphereParams\n"
        "from onsager_ms.spectral import block_spectrum, full_spectrum, gap_estimate"
    )
    calls = [
        "full_spectrum(SphereParams(5, 2), 1.0, grid_size=48.0)",
        "gap_estimate(SphereParams(3, 1), 5.0, grid_size=16.5)",
        "block_spectrum(SphereParams(4, 1), 1.0, 'Theta', grid_size=32.0)",
    ]
    warm = [
        "full_spectrum(SphereParams(5, 2), 1.0, grid_size=48)",
        "gap_estimate(SphereParams(3, 1), 5.0, grid_size=16)",
        "block_spectrum(SphereParams(4, 1), 1.0, 'Theta', grid_size=32)",
    ]
    cold, hot = cold_and_warm(setup, calls, warm)
    assert cold == hot == [
        "ValueError: grid_size must be an integer, got 48.0",
        "ValueError: grid_size must be an integer, got 16.5",
        "ValueError: grid_size must be an integer, got 32.0",
    ]


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
    with pytest.raises(ValueError, match="grid_size must be at least"):
        gap_estimate(params, star + 1.0, grid_size=2)


def test_gap_estimate_checks_eta_first():
    """A NaN or out-of-domain eta raises the moments' domain error, not the
    stability condition it cannot be compared with."""
    params = SphereParams(3, 1)
    with pytest.raises(ValueError) as reference:
        scaled_moments(params, np.nan)
    for eta in (np.nan, np.inf, -1e4, 1e4):
        with pytest.raises(ValueError) as info:
            gap_estimate(params, eta)
        assert str(info.value) == str(reference.value)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_gap_estimate_covers_the_mirror_branch(n):
    """k = n - 1 at eta is k = 1 at -eta under m -> (m_n, ..., m_1), an
    isometry of the sphere, so the certificates are equal."""
    star = find_eta_star(SphereParams(n, 1)).eta_star
    for lift in (0.5, 2.0):
        mirrored = gap_estimate(SphereParams(n, n - 1), -(star + lift))
        assert mirrored > 0.0
        assert mirrored == gap_estimate(SphereParams(n, 1), star + lift)


def test_gap_estimate_mirror_preconditions():
    """The mirror branch raises on its unstable side and on a bad eta like
    k = 1; the middle branches, mirrored or not, still raise."""
    star = find_eta_star(SphereParams(5, 1)).eta_star
    with pytest.raises(ValueError, match="stable only for"):
        gap_estimate(SphereParams(5, 4), -star + 0.5)
    for k in (2, 3):
        with pytest.raises(ValueError, match="covers the k = 1 and k = n - 1 branches"):
            gap_estimate(SphereParams(5, k), -3.0)
    with pytest.raises(ValueError) as reference:
        scaled_moments(SphereParams(5, 4), np.nan)
    for params in (SphereParams(5, 4), SphereParams(5, 3)):
        with pytest.raises(ValueError) as info:
            gap_estimate(params, np.nan)
        assert str(info.value) == str(reference.value)


def test_gap_estimate_reports_decayed_certificate():
    # At large n the certificate underflows; no grid can bring it back.
    # Near that edge a block minimum sits in eigvalsh's rounding band, and
    # its sign alone would decide: every point of the scan must raise.
    params = SphereParams(14, 1)
    star = find_eta_star(params).eta_star
    for delta in np.linspace(0.0, 1e-3, 9):
        with pytest.raises(RuntimeError, match="below floating-point resolution") as info:
            gap_estimate(params, star + 24.0 + delta)
        assert "increase grid_size" not in str(info.value)


@pytest.mark.parametrize("n", [3, 4])
def test_isotropic_threshold(n):
    # 1e-20 is below the spacing of floats near the threshold: the
    # bisection stops once no float lies strictly between its ends.
    for tol in (1e-8, 1e-20):
        got = isotropic_threshold(n, tol=tol)
        assert got == pytest.approx(n * (n + 2) / 2.0, abs=1e-6)
    for tol in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            isotropic_threshold(n, tol=tol)
    for bad in (n + 0.7, np.nan):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {bad}$"):
            isotropic_threshold(bad)
    with pytest.raises(ValueError, match="n must be at least 3"):
        isotropic_threshold(n - 2)


def _hex(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.parametrize("n,k", [(7, 1), (7, 2), (7, 6)])
def test_reports_build_their_objects_on_first_read(monkeypatch, n, k):
    """On branch roots, ``classify`` constructs no PerturbationTop, and
    ``full_spectrum`` no BlockSpectrum and no kernel-projection sums, until
    those fields are read.  Once read, the blocks equal ``block_spectrum``
    for every family and the witness's decomposed form equals
    ``witness_value``, both to the bit; the projection matches the QR
    reference to its 1e-14, as the column-0 formula always has."""
    from onsager_ms import spectral, stability
    from onsager_ms.equilibrium import critical_point
    from onsager_ms.stability import quadratic_form_decomposed

    built = {"witness": 0, "block": 0, "projection": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            built[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(stability.PerturbationTop, "__init__", "witness")
    counting(spectral.BlockSpectrum, "__init__", "block")
    counting(spectral, "_attainer", "projection")

    params = SphereParams(n, k)
    star = find_eta_star(params)
    witnesses = set()
    for eta in invert_alpha(params, 1.3 * star.alpha_star):
        report = classify(params, eta)
        spectrum = full_spectrum(params, eta)
        assert report.classification != "Marginal" and spectrum.kernel_dim == k * (n - k)
        assert (spectrum.gap > 0.0) == (report.classification == "Stable")
        assert spectrum.eigenvalues.size > 0
        assert built == {"witness": 0, "block": 0, "projection": 0}

        if report.witness_value is None:
            assert report.witness is None
        else:
            witness = report.witness
            assert report.witness is witness and built["witness"] == 1
            witnesses.add((tuple(witness.coefficients), witness.b_function is not None))
            value = quadratic_form_decomposed(critical_point(params, eta), witness)
            assert value.hex() == report.witness_value.hex()

        blocks = spectrum.blocks
        assert built["block"] == len(set(map(id, blocks.values())))
        for family, block in blocks.items():
            eager = block_spectrum(params, eta, family)
            for field in ("eigenvalues", "closed_form", "eigenvectors"):
                assert _hex(getattr(block, field)) == _hex(getattr(eager, field)), (family, field)
            assert (block.gamma, block.eta, block.alpha) == (eager.gamma, eager.eta, eager.alpha)

        projection = spectrum.kernel_projection
        assert built["projection"] == 1
        zero, expected = _qr_kernel_projection(spectrum, scaled_moments(params, eta))
        assert list(zero) == [0]
        assert projection == pytest.approx(expected, rel=0, abs=1e-14)
        built.update(witness=0, block=0, projection=0)
    assert witnesses  # at least one unstable root carried its witness
