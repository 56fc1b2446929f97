import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from onsager_ms import sigma
from onsager_ms.quadrature import SphereParams
from onsager_ms.sigma import (
    SigmaSample,
    find_eta_star,
    invert_alpha,
    phase_diagram,
    sample,
    sigma_prime,
    sigma_prime_fd,
    sigma_value,
)
from onsager_ms.stability import branch_tag

PAIRS = [(n, k) for n in range(3, 7) for k in range(1, n)]

# Adaptive-quadrature sigma values, frozen.
SIGMA_ORACLE = {
    (4, 1, 3.0): 9.296699472650994,
    (5, 2, -2.0): 19.904567508397335,
    (6, 3, 1.5): 24.556029316864965,
    (3, 1, -7.0): 17.80495998484719,
}

# Fold points from golden-section search on adaptive-quadrature sigma, frozen.
# The minimum is flat, so eta* carries ~1e-7 of search noise; alpha* is sharp.
FOLD_ORACLE = {
    (3, 1): (2.1782879163000106, 6.731486396483349),
    (5, 1): (5.371045314202359, 11.457880860465053),
}


@pytest.mark.parametrize("key,expected", sorted(SIGMA_ORACLE.items()))
def test_sigma_against_adaptive_oracle(key, expected):
    # 5e-12: the A_2 - A_4 cancellation limits the oracle itself.
    n, k, eta = key
    assert sigma_value(SphereParams(n, k), eta) == pytest.approx(expected, rel=5e-12)


@pytest.mark.parametrize("n,k", PAIRS)
def test_sigma_at_zero(n, k):
    assert sigma_value(SphereParams(n, k), 0.0) == pytest.approx(n * (n + 2) / 2.0, rel=1e-10)


@given(
    pair=st.sampled_from(PAIRS),
    eta=st.floats(min_value=-30.0, max_value=30.0),
)
@settings(max_examples=100, deadline=None)
def test_reflection_symmetry(pair, eta):
    n, k = pair
    a = sigma_value(SphereParams(n, k), eta)
    b = sigma_value(SphereParams(n, n - k), -eta)
    assert a == pytest.approx(b, rel=1e-10)


@given(
    pair=st.sampled_from(PAIRS),
    eta=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(pair, eta):
    n, k = pair
    params = SphereParams(n, k)
    exact = sigma_prime(params, eta)
    fd = sigma_prime_fd(params, eta)
    assert exact == pytest.approx(fd, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 7) for k in range(1, n)])
def test_asymptotic_expansion(n, k):
    """sigma_k(eta) = k*eta + k*n/2 + O(1/eta) as eta -> +inf, mirrored below.

    The constant term k*n/2 is exact, so the chord slope sigma/eta misses
    the limit k by k*n/(2*eta); at eta = 200 that alone exceeds 0.05 for
    the largest (n,k) here, which the expansion bound accounts for.
    """
    params = SphereParams(n, k)
    up = sigma_value(params, 200.0) - (200.0 * k + k * n / 2.0)
    dn = sigma_value(params, -200.0) - (200.0 * (n - k) + (n - k) * n / 2.0)
    assert abs(up) <= 0.2
    assert abs(dn) <= 0.2


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 7) for k in range(1, n)])
def test_asymptotic_slopes(n, k):
    """The derivative reaches its limits much faster than the chord."""
    params = SphereParams(n, k)
    assert sigma_prime(params, 200.0) == pytest.approx(k, abs=1e-3)
    assert sigma_prime(params, -200.0) == pytest.approx(k - n, abs=1e-3)


@pytest.mark.parametrize("key,expected", sorted(FOLD_ORACLE.items()))
def test_fold_point(key, expected):
    n, k = key
    eta_ref, alpha_ref = expected
    star = find_eta_star(SphereParams(n, k))
    assert star.eta_star == pytest.approx(eta_ref, abs=5e-7)
    assert star.alpha_star == pytest.approx(alpha_ref, rel=1e-11)


def test_fold_is_a_minimum():
    params = SphereParams(4, 1)
    star = find_eta_star(params)
    assert abs(sigma_prime(params, star.eta_star)) < 1e-9
    for d in (0.1, 1.0):
        assert sigma_value(params, star.eta_star + d) > star.alpha_star
        assert sigma_value(params, star.eta_star - d) > star.alpha_star


def test_symmetric_branch_fold_at_zero():
    # k = n/2 has an even sigma, so the fold sits at eta = 0.
    star = find_eta_star(SphereParams(4, 2))
    assert abs(star.eta_star) < 1e-9
    assert star.alpha_star == pytest.approx(12.0, rel=1e-10)


@pytest.mark.parametrize("n", range(4, 39, 2))
def test_symmetric_branch_fold_is_exactly_zero(n):
    # sigma_k(eta) = sigma_{n-k}(-eta) makes k = n/2 even in eta.
    params = SphereParams(n, n // 2)
    star = find_eta_star(params)
    assert star.eta_star == 0.0
    assert star.alpha_star == sigma_value(params, 0.0)


def test_eta_star_reflection():
    """For 2k > n the fold is the mirror of the (n, n - k) fold, bit for
    bit; alpha^* is each branch's own sigma at its eta^*."""
    up = find_eta_star(SphereParams(5, 1))
    down = find_eta_star(SphereParams(5, 4))
    assert down.eta_star == -up.eta_star
    assert down.alpha_star == sigma_value(SphereParams(5, 4), down.eta_star)
    assert down.alpha_star == pytest.approx(up.alpha_star, rel=1e-12)


def test_fold_reflection_is_exact_to_fifty():
    """For every (n, k) with n <= 50, the fold of (n, n - k) is the mirror
    of the fold of (n, k) to the bit, and alpha^* is sigma_k at eta^* to
    the bit on both."""
    for n in range(3, 51):
        for k in range(1, n):
            params = SphereParams(n, k)
            star = find_eta_star(params)
            assert find_eta_star(SphereParams(n, n - k)).eta_star == -star.eta_star, (n, k)
            assert star.alpha_star == sigma_value(params, star.eta_star), (n, k)


def test_invert_alpha_below_fold():
    params = SphereParams(3, 1)
    star = find_eta_star(params)
    assert invert_alpha(params, 0.9 * star.alpha_star) == []


def test_invert_alpha_at_fold_collapses():
    params = SphereParams(3, 1)
    star = find_eta_star(params)
    roots = invert_alpha(params, star.alpha_star)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(star.eta_star, abs=1e-6)


@given(excess=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_invert_alpha_round_trip(excess):
    params = SphereParams(3, 1)
    star = find_eta_star(params)
    alpha = star.alpha_star + excess
    roots = invert_alpha(params, alpha)
    assert len(roots) == 2
    lo, hi = roots
    assert lo < star.eta_star < hi
    for eta in roots:
        assert sigma_value(params, eta) == pytest.approx(alpha, rel=1e-8)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.0, -3.0])
def test_invert_alpha_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        invert_alpha(SphereParams(4, 1), alpha)


@pytest.mark.parametrize("alpha", [3e3, 1e5])
def test_invert_alpha_past_the_domain_raises(alpha):
    """A root beyond |eta| = 700 is reported, not bracketed outside the
    range where the moments are accurate."""
    with pytest.raises(ValueError, match="moment domain"):
        invert_alpha(SphereParams(4, 1), alpha)


@pytest.mark.parametrize("n,k,eta", [(3, 1, 3.0), (5, 2, -4.0), (6, 3, 30.0), (4, 1, 650.0)])
def test_invert_alpha_evaluates_each_eta_once(moment_passes, n, k, eta):
    """Each root's Newton steps start from a seed set by the cached fold and
    its curvature, so the fold is not evaluated again, and no eta, the
    domain's edge included, gets a second moment pass within one call."""
    params = SphereParams(n, k)
    find_eta_star(params)  # the fold is cached and not part of the call
    alpha = sigma_value(params, eta)
    moment_passes.clear()
    roots = invert_alpha(params, alpha)
    assert len(roots) == 2
    assert min(abs(r - eta) for r in roots) <= 1e-8 * max(1.0, abs(eta))
    assert moment_passes
    assert len(set(moment_passes)) == len(moment_passes)


@pytest.mark.parametrize("n,k", [(3, 1), (5, 1), (9, 7), (12, 5), (38, 3)])
def test_fold_search_evaluates_each_eta_once(moment_passes, n, k):
    """The bisection evaluates each midpoint once, and alpha^* comes from
    the returned end's own moment pass."""
    params = SphereParams(n, k)
    warm = find_eta_star(params)
    sigma._eta_star_cached.cache_clear()
    moment_passes.clear()
    cold = find_eta_star(params)
    assert moment_passes
    assert len(set(moment_passes)) == len(moment_passes)
    assert (cold.eta_star, cold.alpha_star) == (warm.eta_star, warm.alpha_star)
    assert cold.alpha_star == sigma_value(params, cold.eta_star)


def test_fold_search_takes_few_passes(moment_passes):
    """A cold fold with 2k < n <= 38 takes at most 15 moment passes on
    average, its outward bracket search included, one per eta."""
    sigma._eta_star_cached.cache_clear()
    counts = []
    for n in range(3, 39):
        for k in range(1, (n + 1) // 2):
            moment_passes.clear()
            find_eta_star(SphereParams(n, k))
            assert len(set(moment_passes)) == len(moment_passes), (n, k)
            counts.append(len(moment_passes))
    assert len(counts) == 342
    assert sum(counts) / len(counts) <= 15.0


def test_invert_alpha_takes_few_passes(moment_passes):
    """With every fold cached, an inversion of both roots takes at most 10.5
    moment passes on average over every (n, k) with n <= 38 at lifts 0.05,
    0.3, 0.6, 1 and 3 above alpha^*, and never one eta twice."""
    counts = []
    for n in range(3, 39):
        for k in range(1, n):
            params = SphereParams(n, k)
            star = find_eta_star(params)
            for lift in (0.05, 0.3, 0.6, 1.0, 3.0):
                moment_passes.clear()
                assert len(invert_alpha(params, star.alpha_star * (1.0 + lift))) == 2
                assert len(set(moment_passes)) == len(moment_passes), (n, k, lift)
                counts.append(len(moment_passes))
    assert len(counts) == 5 * 702
    assert sum(counts) / len(counts) <= 10.5


@pytest.mark.parametrize("n,k", [(3, 1), (6, 3), (9, 2), (9, 7), (20, 1)])
def test_fold_curvature_matches_finite_differences(n, k):
    """The cached sigma_k''(eta^*), the seed of the inversion, is positive and
    agrees with a central second difference of sigma_k, on a searched fold,
    on the even branch and on a mirrored one."""
    params = SphereParams(n, k)
    fold = sigma._eta_star_cached(n, k)
    h, eta = 1e-3, fold.star.eta_star
    fd = (sigma_value(params, eta + h) - 2.0 * fold.star.alpha_star + sigma_value(params, eta - h)) / (h * h)
    assert fold.curvature > 0.0
    assert fold.curvature == pytest.approx(fd, rel=1e-5)


def test_invert_alpha_just_outside_the_marginal_band(moment_passes):
    """An alpha 2e-9 above alpha^*, just past the band that returns the fold
    alone, has two roots, one on each side of eta^*, on every (n, k) with
    n <= 38.  There the slope is so small that rounding in sigma_k moves
    the root by more than the tolerance; the steps still end, by bisection,
    without evaluating an eta twice."""
    for n in range(3, 39):
        for k in range(1, n):
            params = SphereParams(n, k)
            star = find_eta_star(params)
            alpha = star.alpha_star * (1.0 + 2e-9)
            moment_passes.clear()
            lo, hi = invert_alpha(params, alpha)
            assert len(set(moment_passes)) == len(moment_passes), (n, k)
            assert lo < star.eta_star < hi, (n, k)
            for root in (lo, hi):
                assert abs(sigma_value(params, root) - alpha) <= 1e-12 * alpha, (n, k)


def _roots_match_brentq(params, star, alpha, moment_passes):
    """Both intensity roots of ``alpha`` agree with scipy's ``brentq``, run on
    brackets doubled outward from the fold as the library's are, and the
    inversion makes one moment pass per eta."""
    rtol = 4 * np.finfo(float).eps
    moment_passes.clear()
    roots = invert_alpha(params, alpha)
    assert len(roots) == 2
    assert len(set(moment_passes)) == len(moment_passes)
    for root, direction in zip(roots, (-1.0, 1.0)):
        ends = sigma._outward(star.eta_star, direction)
        end = next(e for e in ends if sigma_value(params, e) >= alpha)
        a, b = sorted((star.eta_star, end))
        ref = brentq(lambda e: sigma_value(params, e) - alpha, a, b, xtol=1e-12, rtol=rtol)
        assert abs(root - ref) <= 1e-11 * max(1.0, abs(ref))
        assert abs(sigma_value(params, root) - alpha) <= 1e-12 * alpha


def test_brent_matches_scipy_on_every_fold_to_twelve(moment_passes):
    """For every (n, k) with n <= 12, the fold agrees with scipy's ``brentq``
    on the slope, run on a bracket doubled outward as the library's is and at
    the same tolerances, and the search makes one moment pass per eta; at
    lifts 0.05, 0.3 and 0.6 above alpha^* both intensity roots agree too."""
    rtol = 4 * np.finfo(float).eps
    sigma._eta_star_cached.cache_clear()
    for n in range(3, 13):
        for k in range(1, n):
            params = SphereParams(n, k)
            moment_passes.clear()
            star = find_eta_star(params)
            assert len(set(moment_passes)) == len(moment_passes), (n, k)
            span = next(
                s for s in sigma._outward(0.0, 1.0) if sigma_prime(params, -s) * sigma_prime(params, s) <= 0
            )
            fold = brentq(lambda e: sigma_prime(params, e), -span, span, xtol=1e-13, rtol=rtol)
            assert abs(star.eta_star - fold) <= 1e-12, (n, k)
            for lift in (0.05, 0.3, 0.6):
                _roots_match_brentq(params, star, star.alpha_star * (1.0 + lift), moment_passes)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (7, 2), (11, 9)])
def test_brent_matches_scipy_on_invert_alpha(moment_passes, n, k):
    """Just above the fold, and far above it, both intensity roots agree
    with scipy's ``brentq``."""
    params = SphereParams(n, k)
    star = find_eta_star(params)
    for factor in (1.0001, 1.3, 5.0):
        _roots_match_brentq(params, star, star.alpha_star * factor, moment_passes)


def test_invert_alpha_round_trip_near_the_edge():
    params = SphereParams(4, 1)
    roots = invert_alpha(params, sigma_value(params, 650.0))
    assert len(roots) == 2
    assert roots[1] == pytest.approx(650.0, abs=1e-10)


def test_sample_bundles_value_and_slope():
    params = SphereParams(4, 2)
    s = sample(params, 1.5)
    assert s.eta == 1.5
    assert s.sigma == pytest.approx(sigma_value(params, 1.5), rel=1e-15)
    assert s.sigma_prime == pytest.approx(sigma_prime(params, 1.5), rel=1e-15)


def test_phase_diagram_structure():
    grid = np.linspace(-4.0, 4.0, 9)
    diagram = phase_diagram(4, grid)
    assert diagram.n == 4
    assert tuple(b.k for b in diagram.branches) == (1, 2, 3)
    assert tuple(b.reflected for b in diagram.branches) == (False, False, True)
    for branch in diagram.branches:
        assert len(branch.samples) == 9
        assert len(branch.tags) == 9
        assert all(tag in ("stable", "unstable", "marginal") for tag in branch.tags)
        assert [s.eta for s in branch.samples] == list(grid)


def test_phase_diagram_reflected_branch_mirrors():
    grid = np.linspace(-3.0, 3.0, 7)
    diagram = phase_diagram(5, grid)
    k1 = diagram.branches[0]
    k4 = diagram.branches[3]
    for s_lo, s_hi in zip(k1.samples, reversed(k4.samples)):
        assert s_hi.sigma == pytest.approx(s_lo.sigma, rel=1e-10)


@pytest.mark.parametrize("n", range(3, 13))
def test_phase_diagram_rows_match_sample_and_branch_tag(n):
    """Each row of the one-pass diagram matches ``sample`` and ``branch_tag``
    at its eta: sigma to 1e-14 relative, sigma' to 1e-14 (n + |sigma'|) and
    the tag exactly, on a seeded grid with eta = 0, the domain's edges and
    every fold plus and minus 1e-10, where the tags turn."""
    folds = [find_eta_star(SphereParams(n, k)).eta_star for k in range(1, n)]
    extra = [0.0, -700.0, 700.0, *np.add.outer(folds, [-1e-10, 1e-10]).ravel()]
    grid = np.concatenate([np.random.default_rng(n).uniform(-10.0, 30.0, 60), extra])
    diagram = phase_diagram(n, grid)
    for branch in diagram.branches:
        params = SphereParams(n, branch.k)
        assert [point.eta for point in branch.samples] == grid.tolist()
        for point, tag in zip(branch.samples, branch.tags):
            want = sample(params, point.eta)
            assert abs(point.sigma - want.sigma) <= 1e-14 * want.sigma, (branch.k, point.eta)
            assert abs(point.sigma_prime - want.sigma_prime) <= 1e-14 * (n + abs(want.sigma_prime))
            assert tag == branch_tag(params, point.eta), (branch.k, point.eta)
    assert "marginal" in diagram.branches[0].tags and "marginal" in diagram.branches[-1].tags


def test_phase_diagram_rows_are_frozen_samples():
    """A diagram row is the ``SigmaSample`` that ``sample`` returns, equal
    to one built from its fields, and refuses attribute assignment."""
    row = phase_diagram(4, np.array([-1.0, 2.0])).branches[0].samples[1]
    assert type(row) is type(sample(SphereParams(4, 1), 2.0))
    assert row == SigmaSample(row.eta, row.sigma, row.sigma_prime)
    assert hash(row) == hash(SigmaSample(row.eta, row.sigma, row.sigma_prime))
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.sigma = 0.0


@pytest.mark.parametrize("eta", [700.5, -701.0, 1e308])
def test_phase_diagram_refuses_a_grid_past_the_domain(eta):
    with pytest.raises(ValueError, match="outside the moment domain"):
        phase_diagram(5, np.array([0.0, eta]))


def test_fold_cache_covers_every_branch_to_fifty():
    from onsager_ms.sigma import _eta_star_cached

    assert _eta_star_cached.cache_info().maxsize == sum(n - 1 for n in range(3, 51)) == 1224
    params = SphereParams(9, 2)
    assert find_eta_star(params) is find_eta_star(params)


@pytest.mark.parametrize("n", [-4, 1, 2])
def test_phase_diagram_rejects_small_n(n):
    with pytest.raises(ValueError, match=f"need n >= 3, got n={n}"):
        phase_diagram(n, np.array([0.0]))


def test_phase_diagram_takes_n_as_sphere_params_do():
    """An integral float n is the integer n; any other float is refused."""
    diagram = phase_diagram(3.0, np.array([-1.0, 2.0]))
    assert diagram.n == 3 and type(diagram.n) is int
    assert tuple(b.k for b in diagram.branches) == (1, 2)
    with pytest.raises(ValueError, match="n must be an integer, got 3.5"):
        phase_diagram(3.5, np.array([0.0]))


def test_phase_diagram_rejects_bad_grid():
    with pytest.raises(ValueError):
        phase_diagram(4, np.array([np.nan]))
    with pytest.raises(ValueError):
        phase_diagram(9, np.array([]))
