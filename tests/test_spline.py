"""Natural cubic spline: interpolation, boundary, and smoothness oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgetune.spline import SplineFitError, fit_natural, interp_weights


def _fd2(spline, x, h=1e-5):
    f = lambda z: spline.eval(z)[0]
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def test_three_knot_worked_value():
    # uniform h=0.5, natural ends: the single interior equation
    # 2(h0+h1)*M1 = 6*((y2-y1)/h1 - (y1-y0)/h0) = -24 gives M1 = -12,
    # and S(0.25) = 0.5*y1 + ((B^3-B)*M1)*h^2/6 = 0.5 + 0.1875 = 0.6875
    spline = fit_natural([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    assert spline.second_derivs[1, 0] == pytest.approx(-12.0, abs=1e-12)
    assert spline.eval(0.25)[0] == pytest.approx(0.6875, abs=1e-12)


def test_two_knot_linear_and_extrapolation():
    # natural spline through two points is the straight line, everywhere
    spline = fit_natural([(0.0, 0.0), (1.0, 2.0)])
    assert spline.eval(0.5)[0] == pytest.approx(1.0, abs=1e-12)
    assert spline.eval(-0.5)[0] == pytest.approx(-1.0, abs=1e-12)
    assert spline.eval(2.0)[0] == pytest.approx(4.0, abs=1e-12)


def test_knot_exactness():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(-3, 3, size=9)) + np.arange(9) * 1e-3
    ys = rng.standard_normal((9, 4))
    spline = fit_natural(list(zip(xs, ys)))
    assert np.max(np.abs(spline.eval_many(xs) - ys)) < 1e-10


def test_natural_boundary_second_derivative_zero():
    rng = np.random.default_rng(6)
    xs = np.linspace(0.0, 4.0, 7)
    ys = rng.standard_normal((7, 2))
    spline = fit_natural(list(zip(xs, ys)))
    assert np.max(np.abs(spline.second_derivs[0])) < 1e-8
    assert np.max(np.abs(spline.second_derivs[-1])) < 1e-8
    # probe just inside each end: curvature must vanish toward the boundary
    assert abs(_fd2(spline, xs[0] + 1e-4)) < 1e-2
    assert abs(_fd2(spline, xs[-1] - 1e-4)) < 1e-2


def test_interior_c2_continuity():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 3.0, 5)
    ys = rng.standard_normal((5, 1))
    spline = fit_natural(list(zip(xs, ys)))
    h = 1e-6
    for knot in xs[1:-1]:
        left = spline.eval(knot - h)[0]
        mid = spline.eval(knot)[0]
        right = spline.eval(knot + h)[0]
        # value continuity: the centered second difference stays O(h^2 M)
        assert abs(left + right - 2 * mid) < 1e-9
        # C1: one-sided slopes differ by at most h * |M|
        assert abs((mid - left) / h - (right - mid) / h) < 1e-4
        # C2: curvature agrees across the knot
        assert abs(_fd2(spline, knot - 5 * h) - _fd2(spline, knot + 5 * h)) < 1e-2


def test_extrapolation_continues_boundary_cubic():
    # interior equation with h=1: 4*M1 = 6*((y2-y1) - (y1-y0)) = -18, M1 = -4.5
    spline = fit_natural([(0.0, 0.0), (1.0, 0.0), (2.0, -3.0)])
    assert spline.second_derivs[1, 0] == pytest.approx(-4.5, abs=1e-12)
    x = 2.3
    got = spline.eval(x)[0]
    # extend the last piece algebraically: a = (x1-x)/h may go negative
    a, b = 2.0 - x, x - 1.0
    expect = a * 0.0 + b * -3.0 + ((a**3 - a) * -4.5 + (b**3 - b) * 0.0) / 6.0
    assert got == pytest.approx(expect, abs=1e-12)
    # continuity across the last knot
    assert abs(spline.eval(2.0 - 1e-9)[0] - spline.eval(2.0 + 1e-9)[0]) < 1e-6


def test_lines_reproduced_exactly():
    # natural end conditions reproduce straight lines, even extrapolated
    xs = np.linspace(-1, 2, 6)
    ys = (2.5 * xs - 1.0)[:, None]
    spline = fit_natural(list(zip(xs, ys)))
    probes = np.linspace(-2, 3, 21)
    assert np.max(np.abs(spline.eval_many(probes)[:, 0] - (2.5 * probes - 1.0))) < 1e-9


def test_refit_idempotent():
    rng = np.random.default_rng(8)
    xs = np.linspace(0, 1, 5)
    ys = rng.standard_normal((5, 3))
    a = fit_natural(list(zip(xs, ys)))
    b = fit_natural(list(zip(xs, ys)))
    probes = np.linspace(-0.5, 1.5, 17)
    assert np.array_equal(a.eval_many(probes), b.eval_many(probes))


def test_fit_errors():
    with pytest.raises(SplineFitError):
        fit_natural([(0.0, 1.0)])
    with pytest.raises(SplineFitError):
        fit_natural([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(SplineFitError):
        fit_natural([(1.0, 1.0), (0.5, 2.0), (2.0, 0.0)])


def test_interp_weights_reproduce_eval():
    rng = np.random.default_rng(9)
    xs = np.linspace(0, 2, 6)
    ys = rng.standard_normal((6, 3))
    spline = fit_natural(list(zip(xs, ys)))
    probes = np.linspace(-0.4, 2.4, 13)
    w = interp_weights(xs, probes)
    assert w.shape == (13, 6)
    assert np.max(np.abs(w @ ys - spline.eval_many(probes))) < 1e-10


def _weights_one_unit_vector_at_a_time(pos, points):
    """interp_weights' reference: one scalar spline per unit knot vector."""
    n = len(pos)
    return np.stack([fit_natural(list(zip(pos, np.eye(n)[j]))).eval_many(points)[:, 0]
                     for j in range(n)], axis=1)


def test_interp_weights_equal_one_fit_per_unit_vector_byte_for_byte():
    """The bytes goodness_sde reads (a zero's sign counts too): random knot
    sets, and every (L, n_steps) grid of latent_map._spline_feature_weights."""
    rng = np.random.default_rng(4)
    cases = [(np.sort(rng.choice(np.linspace(-3, 3, 61), size=n, replace=False)),
              rng.uniform(-5, 5, size=int(rng.integers(1, 40))))
             for n in rng.integers(2, 12, size=200)]
    cases += [(np.arange(L + 1, dtype=np.float64), (L + 2) * (np.arange(s - 1) / s) - 1.0)
              for L in range(1, 12) for s in range(4, 40)]
    for pos, points in cases:
        assert interp_weights(pos, points).tobytes() == \
            _weights_one_unit_vector_at_a_time(pos, points).tobytes()


def test_interp_weights_partition_of_unity():
    # constant data must be reproduced exactly, so rows sum to one
    w = interp_weights(np.linspace(0, 1, 4), np.linspace(-0.2, 1.2, 9))
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_property_interpolation_and_linearity(n, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-5, 5, size=n))
    if np.min(np.diff(xs), initial=np.inf) < 1e-6:
        xs = np.arange(n, dtype=float)
    ys = rng.standard_normal((n, 2))
    ys2 = rng.standard_normal((n, 2))
    spline = fit_natural(list(zip(xs, ys)))
    assert np.max(np.abs(spline.eval_many(xs) - ys)) < 1e-8
    # evaluation is linear in knot values
    s2 = fit_natural(list(zip(xs, ys2)))
    s_sum = fit_natural(list(zip(xs, ys + ys2)))
    probes = rng.uniform(xs[0] - 1, xs[-1] + 1, size=5)
    assert np.max(np.abs(s_sum.eval_many(probes) -
                         (spline.eval_many(probes) + s2.eval_many(probes)))) < 1e-8
