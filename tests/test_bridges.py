"""Bridge drift, marginal, sampling, and KL oracles.

scipy appears here only as an independent quadrature oracle; the package
itself never imports it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bridgetune import bridges
from bridgetune.bridges import (BridgeSpec, HorizonBoundaryError,
                                TransitionDomainError)


def brownian(beta=1.0, horizon=1.0):
    return BridgeSpec(kind=bridges.BROWNIAN, beta=np.atleast_1d(beta),
                      horizon=horizon)


def ou(beta=1.0, horizon=1.0, q=1.0, sigma=1.0):
    return BridgeSpec(kind=bridges.OU, beta=np.atleast_1d(beta),
                      horizon=horizon, q=q, sigma=sigma)


# ---------------------------------------------------------------- drift

def test_brownian_drift_at_origin():
    assert bridges.drift(brownian(beta=2.0), 0.0, [0.0]) == pytest.approx([2.0])


def test_brownian_drift_vanishes_at_beta():
    spec = brownian(beta=[1.5, -0.5])
    for t in (0.0, 0.3, 0.9):
        assert np.allclose(bridges.drift(spec, t, spec.beta), 0.0)


def test_ou_drift_hand_value():
    # q=1, x=0, t=0.5: drift = beta / sinh(0.5)
    got = bridges.drift(ou(), 0.5, [0.0])
    assert got[0] == pytest.approx(1.0 / math.sinh(0.5), abs=1e-12)
    assert got[0] == pytest.approx(1.9190, abs=5e-5)


def test_drift_horizon_boundary_error():
    with pytest.raises(HorizonBoundaryError):
        bridges.drift(brownian(), 1.0 - 1e-10, [0.0])
    with pytest.raises(HorizonBoundaryError):
        bridges.drift(ou(), 1.0, [0.0])


def test_ou_drift_approaches_brownian_as_q_to_zero():
    # small q: coth(s)/ -> 1/s and 1/sinh(s) -> 1/s, recovering (beta-x)/(T-t)
    b = bridges.drift(brownian(beta=2.0), 0.4, [0.7])
    o = bridges.drift(ou(beta=2.0, q=1e-6), 0.4, [0.7])
    assert np.allclose(b, o, atol=1e-6)


# ---------------------------------------------------------------- marginals

def test_marginal_moments_brownian():
    spec = brownian(beta=3.0)
    assert bridges.mean_coeff(spec, 0.25) == pytest.approx(0.25)
    assert bridges.marginal_variance(spec, 0.5) == pytest.approx(0.25)
    # variance vanishes at both pinned ends
    assert bridges.marginal_variance(spec, 0.0) == pytest.approx(0.0)
    assert bridges.marginal_variance(spec, 1.0) == pytest.approx(0.0)


def test_logpdf_hand_value_at_mean():
    spec = brownian(beta=2.0)
    got = bridges.transition_logpdf(spec, 0.5, [1.0])
    expect = -0.5 * math.log(2.0 * math.pi * 0.25)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(-0.2258, abs=5e-5)


def test_logpdf_independent_coordinates_sum():
    one = bridges.transition_logpdf(brownian(beta=2.0), 0.5, [1.0])
    two = bridges.transition_logpdf(brownian(beta=[2.0, 2.0]), 0.5, [1.0, 1.0])
    assert two == pytest.approx(2.0 * one, abs=1e-12)


def test_logpdf_domain_errors():
    spec = brownian()
    for t in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(TransitionDomainError):
            bridges.transition_logpdf(spec, t, [0.0])


@pytest.mark.parametrize("make", [brownian, ou])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_density_normalizes_to_one(make, t):
    spec = make(beta=1.0)
    val, err = quad(lambda x: math.exp(bridges.transition_logpdf(spec, t, [x])),
                    -20.0, 20.0)
    assert abs(val - 1.0) < 1e-6


def test_density_matches_gaussian_closed_form():
    # the marginal is exactly N(mean_coeff*beta, marginal_variance)
    rng = np.random.default_rng(0)
    for make in (brownian, ou):
        spec = make(beta=1.3)
        for t in (0.2, 0.7):
            m = bridges.mean_coeff(spec, t) * spec.beta[0]
            v = bridges.marginal_variance(spec, t)
            for x in rng.uniform(-3, 3, size=5):
                expect = -0.5 * math.log(2 * math.pi * v) - (x - m) ** 2 / (2 * v)
                assert bridges.transition_logpdf(spec, t, [x]) == pytest.approx(
                    expect, abs=1e-12)


def test_transition_logpdf_maximized_on_mean_curve():
    spec = brownian(beta=2.0)
    rng = np.random.default_rng(4)
    for t in (0.2, 0.4, 0.6, 0.8):
        on_mean = bridges.mean_coeff(spec, t) * 2.0
        best = bridges.transition_logpdf(spec, t, [on_mean])
        expect = -0.5 * math.log(2 * math.pi * bridges.marginal_variance(spec, t))
        assert best == pytest.approx(expect, abs=1e-12)
        for _ in range(10):
            off = on_mean + rng.standard_normal() * 0.3
            assert bridges.transition_logpdf(spec, t, [off]) <= best


@pytest.mark.parametrize("make", [brownian, ou])
def test_coefficients_accept_time_arrays(make):
    # one time per call and all times at once agree; the drift is a x + c beta
    spec = make(beta=[0.8, -1.2])
    ts = np.array([0.05, 0.3, 0.5, 0.95])
    means = bridges.mean_coeff(spec, ts)
    variances = bridges.marginal_variance(spec, ts)
    a, c = bridges.drift_coeffs(spec, ts)
    x = np.array([0.4, 0.1])
    for i, t in enumerate(ts):
        assert means[i] == pytest.approx(bridges.mean_coeff(spec, t), rel=1e-15)
        assert variances[i] == pytest.approx(bridges.marginal_variance(spec, t),
                                             rel=1e-15)
        assert np.allclose(bridges.drift(spec, t, x), a[i] * x + c[i] * spec.beta,
                           rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------- sampling

def test_sample_path_pins_both_ends():
    rng = np.random.default_rng(1)
    spec = brownian(beta=[1.0, -2.0])
    path = bridges.sample_path(spec, 50, rng)
    assert np.array_equal(path.values[0], np.zeros(2))
    assert np.array_equal(path.values[-1], spec.beta)
    assert path.times.shape == (51,)
    assert path.values.shape == (51, 2)
    assert path.times[0] == 0.0 and path.times[-1] == spec.horizon


def test_sample_path_deterministic():
    spec = ou(beta=0.5)
    a = bridges.sample_path(spec, 30, np.random.default_rng(7))
    b = bridges.sample_path(spec, 30, np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)


def test_sample_path_rejects_tiny_grid():
    with pytest.raises(ValueError):
        bridges.sample_path(brownian(), 1, np.random.default_rng(0))


def test_marginal_sampler_matches_bridge_moments():
    # smaller version of the full-scale acceptance run
    spec = brownian(beta=1.0)
    rng = np.random.default_rng(2)
    xs = bridges.sample_paths_marginal(spec, 400, 20000, 200, rng)[:, 0]
    assert abs(xs.mean() - 0.5) < 0.02 * 0.5 + 0.01
    assert abs(xs.var() - 0.25) < 0.03 * 0.25 + 0.005


def test_ou_marginal_mean_form_against_monte_carlo():
    # the two candidate mean forms differ sharply at asymmetric t:
    # sinh(q t)/sinh(q T) = 0.2150 vs sinh(q (T-t))/sinh(q T) = 0.6997
    # at t = 0.25; Monte-Carlo paths decide between them
    spec = ou(beta=1.0)
    rng = np.random.default_rng(3)
    xs = bridges.sample_paths_marginal(spec, 400, 20000, 100, rng)[:, 0]
    implemented = bridges.mean_coeff(spec, 0.25)
    rejected = math.sinh(spec.q * 0.75) / math.sinh(spec.q * 1.0)
    assert implemented == pytest.approx(math.sinh(0.25) / math.sinh(1.0), abs=1e-12)
    assert abs(xs.mean() - implemented) < 0.02
    assert abs(xs.mean() - rejected) > 0.4
    v = bridges.marginal_variance(spec, 0.25)
    assert abs(xs.var() - v) < 0.05 * v + 0.005


def test_ou_mean_solves_bridge_ode():
    # d m/dt = q * (-coth(q(T-t)) m + beta/sinh(q(T-t))), m(0)=0, m(T)=beta
    spec = ou(beta=1.0, q=1.7)
    h = 1e-6
    for t in (0.1, 0.4, 0.8):
        m = bridges.mean_coeff(spec, t) * spec.beta
        dm = (bridges.mean_coeff(spec, t + h) - bridges.mean_coeff(spec, t - h)) / (2 * h)
        rhs = bridges.drift(spec, t, m)[0]
        assert dm == pytest.approx(rhs, abs=1e-5)
    assert bridges.mean_coeff(spec, 0.0) == 0.0
    assert bridges.mean_coeff(spec, 1.0) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- KL

def test_kl_zero_for_matching_drift():
    spec = brownian(beta=1.0)
    est = bridges.kl_path_estimate(
        spec, lambda t, z: bridges.drift(spec, t, z), 200, 20,
        np.random.default_rng(5))
    assert est < 1e-6


def test_kl_constant_offset_analytic_value():
    # offset c adds c^2/2 per unit time up to the truncation point
    spec = brownian(beta=1.0)
    n_steps = 1000
    est = bridges.kl_path_estimate(
        spec, lambda t, z: bridges.drift(spec, t, z) + 1.0, n_steps, 200,
        np.random.default_rng(6))
    t_max = spec.horizon * (1.0 - 1.0 / n_steps)
    expect = 0.5 * t_max
    assert abs(est - expect) < 0.05 * expect


def test_kl_offset_exact_arithmetic():
    # for a constant offset the estimate is deterministic: each step adds
    # exactly 0.5 c^2 dt regardless of the path, so 1 path suffices
    spec = brownian(beta=0.0)
    c = 2.0
    est = bridges.kl_path_estimate(
        spec, lambda t, z: bridges.drift(spec, t, z) + c, 1000, 1,
        np.random.default_rng(7))
    assert est == pytest.approx(0.5 * c * c * 0.999, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_kl_nonnegative(seed, c):
    spec = ou(beta=0.5)
    est = bridges.kl_path_estimate(
        spec, lambda t, z: bridges.drift(spec, t, z) + c, 50, 3,
        np.random.default_rng(seed))
    assert est >= 0.0


# ---------------------------------------------------------------- spec

def test_bridge_spec_validation():
    with pytest.raises(ValueError):
        BridgeSpec(kind="poisson")
    with pytest.raises(ValueError):
        BridgeSpec(kind=bridges.BROWNIAN, horizon=0.0)
    with pytest.raises(ValueError):
        BridgeSpec(kind=bridges.OU, q=-1.0)
    spec = BridgeSpec(kind=bridges.BROWNIAN, beta=[1.0, 2.0, 3.0])
    assert spec.dim == 3
    assert spec.diffusion_scale() == 1.0
    assert ou(sigma=0.7).diffusion_scale() == 0.7
