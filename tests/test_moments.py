import dataclasses
import inspect
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import onsager_ms
from onsager_ms.equilibrium import critical_point
from onsager_ms.moments import ETA_MAX, moment, recurrence_residual, scaled_moments
from onsager_ms.quadrature import DEFAULT_ORDER, SphereParams, theta_rule
from onsager_ms.sigma import sigma_prime, sigma_prime_fd, sigma_value
from onsager_ms.spectral import block_spectrum, full_spectrum
from onsager_ms.stability import (
    branch_tag,
    classify,
    d_quantities,
    equality_attainer,
    functional_I,
    random_smooth_perturbation,
)

PAIRS = [(n, k) for n in range(3, 7) for k in range(1, n)]

# Adaptive-quadrature values of A_l(eta), frozen as reference points.
QUAD_ORACLE = {
    (4, 1, 3.0, 0): 2.3409401868852235,
    (4, 1, 3.0, 2): 1.1517926122300692,
    (4, 1, 3.0, 4): 0.7740875685575602,
    (5, 2, -2.0, 0): 0.17000149067932385,
    (5, 2, -2.0, 2): 0.0475026086888168,
    (6, 3, 1.5, 0): 0.44559200786368725,
}


def beta_moment(n, k, l):
    # A_l(0) in closed form.
    return 0.5 * special.beta((k + l) / 2.0, (n - k) / 2.0)


@pytest.mark.parametrize("key,expected", sorted(QUAD_ORACLE.items()))
def test_moment_against_adaptive_oracle(key, expected):
    n, k, eta, l = key
    assert moment(SphereParams(n, k), eta, l) == pytest.approx(expected, rel=1e-12)


@given(
    pair=st.sampled_from(PAIRS),
    l=st.sampled_from([0, 2, 4, 6]),
)
@settings(max_examples=40, deadline=None)
def test_zero_field_moments_are_beta_values(pair, l):
    n, k = pair
    assert moment(SphereParams(n, k), 0.0, l) == pytest.approx(beta_moment(n, k, l), rel=1e-12)


def test_extreme_eta_stays_finite():
    """The scaled representation survives eta at the cap without overflow."""
    params = SphereParams(3, 1)
    tilt = scaled_moments(params, ETA_MAX)
    assert np.all(np.isfinite(tilt.weights))
    assert np.isfinite([tilt.a0, tilt.mean, tilt.s, tilt.s_sin2, tilt.s_cos2]).all()
    assert tilt.shift == ETA_MAX
    # Adaptive-quadrature value at the cap, frozen.
    assert moment(params, ETA_MAX, 0) == pytest.approx(7.249700458363177e300, rel=1e-10)


def test_eta_beyond_cap_raises():
    with pytest.raises(ValueError):
        moment(SphereParams(3, 1), ETA_MAX + 1.0, 0)
    with pytest.raises(ValueError):
        moment(SphereParams(3, 1), -ETA_MAX - 1.0, 0)


def test_odd_l_rejected():
    with pytest.raises(ValueError):
        moment(SphereParams(4, 1), 1.0, 3)


def test_negative_eta_shift_is_zero():
    tilt = scaled_moments(SphereParams(4, 2), -5.0)
    assert tilt.shift == 0.0
    assert tilt.a0 > 0 and np.all(tilt.weights > 0)


@given(
    pair=st.sampled_from(PAIRS),
    eta=st.floats(min_value=-50.0, max_value=50.0),
    l=st.sampled_from([0, 2, 4]),
)
@settings(max_examples=80, deadline=None)
def test_recurrence(pair, eta, l):
    """The integration-by-parts recurrence holds to quadrature accuracy."""
    if abs(eta) < 1e-2:
        return
    params = SphereParams(*pair)
    tilt = scaled_moments(params, eta)
    assert recurrence_residual(tilt, l) <= 1e-9


def test_recurrence_rejects_eta_zero():
    params = SphereParams(4, 1)
    tilt = scaled_moments(params, 0.0)
    with pytest.raises(ValueError):
        recurrence_residual(tilt, 0)


def test_moment_vector_monotone():
    """A_0 > A_2 > ... > A_8 > 0, and the pass rescales by e^-eta."""
    params = SphereParams(5, 2)
    tilt = scaled_moments(params, 7.0)
    assert tilt.shift == 7.0
    assert tilt.a0 * np.exp(7.0) == moment(params, 7.0, 0)
    vals = [moment(params, 7.0, l) for l in (0, 2, 4, 6, 8)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_moment_pass_is_read_by_name():
    """The pass is a named tuple: the old (values, shift) unpacking and
    positional moment reads fail loudly, and each field is the tilted
    expectation its name says."""
    params = SphereParams(5, 2)
    tilt = scaled_moments(params, 7.0)
    with pytest.raises(ValueError):
        vals, shift = tilt
    for index in (1, 2):
        with pytest.raises(TypeError):
            float(tilt[index])
    t = tilt.rule.sin2
    expected = {"mean": t, "s": t * (1 - t), "s_sin2": t * t * (1 - t), "s_cos2": t * (1 - t) ** 2}
    for field, f in expected.items():
        assert getattr(tilt, field) == pytest.approx(tilt.weights @ f / tilt.a0, rel=1e-13)
    assert tilt.a0 == pytest.approx(float(np.sum(tilt.weights)), rel=1e-14)
    assert moment(params, 7.0, 2) == pytest.approx(np.exp(7.0) * tilt.a0 * tilt.mean, rel=1e-13)


def test_recurrence_residual_is_relative():
    params = SphereParams(4, 1)
    tilt = scaled_moments(params, 5.0)
    for l in (0, 2, 4):
        assert recurrence_residual(tilt, l) <= 1e-10
    with pytest.raises(ValueError):
        recurrence_residual(tilt, 6)


def test_order_is_keyword_only():
    """A stale row count in the order slot raises instead of picking a rule."""
    with pytest.raises(TypeError):
        scaled_moments(SphereParams(4, 1), 1.0, 4)
    coarse = scaled_moments(SphereParams(4, 1), 1.0, order=64)
    fine = scaled_moments(SphereParams(4, 1), 1.0)
    for field in ("a0", "mean", "s", "s_sin2", "s_cos2"):
        assert getattr(coarse, field) == pytest.approx(getattr(fine, field), rel=1e-14)


def _exported_signatures():
    """Every exported function, public method and dataclass ``__init__``."""
    for name, obj in vars(onsager_ms).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        if not inspect.isclass(obj):
            yield name, inspect.signature(obj)
            continue
        if dataclasses.is_dataclass(obj):
            yield f"{name}.__init__", inspect.signature(obj.__init__)
        for attr, member in vars(obj).items():
            func = getattr(member, "__func__", member)  # staticmethod, classmethod
            if not attr.startswith("_") and inspect.isfunction(func):
                yield f"{name}.{attr}", inspect.signature(func)


def test_order_is_a_parameter_of_the_rule_layer_only():
    """Above the rule layer everything runs at DEFAULT_ORDER: the theta
    order is a parameter of the four rule-layer functions alone, and the
    only other ``order`` is the required order of a product rule, or the
    one a built theta rule records."""
    orders = {
        name: sig.parameters["order"].default
        for name, sig in _exported_signatures()
        if "order" in sig.parameters
    }
    empty = inspect.Parameter.empty
    assert orders == {
        "build_weighted_quadrature": DEFAULT_ORDER,
        "theta_rule": DEFAULT_ORDER,
        "scaled_moments": DEFAULT_ORDER,
        "moment": DEFAULT_ORDER,
        "WeightedQuadrature.__init__": empty,
        "build_sphere_quadrature": empty,
        "sphere_rule": empty,
    }


@pytest.mark.parametrize("eta", [np.inf, -np.inf, np.nan])
def test_non_finite_eta_is_outside_the_domain(eta):
    with pytest.raises(ValueError, match="moment domain"):
        scaled_moments(SphereParams(4, 1), eta)


@pytest.mark.parametrize("n", range(3, 9))
def test_one_pass_gives_one_a0(n):
    """A_0 has the same bits wherever the library reads it: the plain
    accessor and the closed-form bulk of a block spectrum both come from
    the one moment pass."""
    for k in range(1, n):
        params = SphereParams(n, k)
        for eta in (-2.5, 0.8, 2.678, 3.0):
            a0 = moment(params, eta, 0)
            assert block_spectrum(params, eta, "b").closed_form[-1] == a0


def _domain_entry_points():
    params = SphereParams(5, 1)
    ones = np.ones(theta_rule(5, 1, DEFAULT_ORDER).nodes.shape)
    return {
        "sigma_value": lambda eta: sigma_value(params, eta),
        "sigma_prime": lambda eta: sigma_prime(params, eta),
        "sigma_prime_fd": lambda eta: sigma_prime_fd(params, eta),
        "d_quantities": lambda eta: d_quantities(params, eta),
        "classify": lambda eta: classify(params, eta),
        "block_spectrum": lambda eta: block_spectrum(params, eta, "b", grid_size=128),
        "full_spectrum": lambda eta: full_spectrum(params, eta, grid_size=128),
        "functional_I": lambda eta: functional_I(1, params, eta, ones),
        "critical_point": lambda eta: critical_point(params, eta),
        "branch_tag": lambda eta: branch_tag(params, eta),
        "branch_tag_unstable_k": lambda eta: branch_tag(SphereParams(5, 2), eta),
        "equality_attainer": lambda eta: equality_attainer(params, eta, 1),
        "random_smooth_perturbation": lambda eta: random_smooth_perturbation(
            params, eta, np.random.default_rng(0)
        ),
    }


@pytest.mark.parametrize("name", sorted(_domain_entry_points()))
def test_entry_points_share_the_moment_domain(name):
    """Every entry point raises the moments' own ValueError just past
    |eta| = ETA_MAX, and accepts the edge itself."""
    call = _domain_entry_points()[name]
    with pytest.raises(ValueError) as reference:
        scaled_moments(SphereParams(5, 1), ETA_MAX + 0.5)
    for eta in (ETA_MAX + 0.5, -ETA_MAX - 0.5):
        with pytest.raises(ValueError) as info:
            call(eta)
        assert str(info.value) == str(reference.value)
    for eta in (ETA_MAX, -ETA_MAX):
        call(eta)
