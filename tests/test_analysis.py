"""Analysis statistics against hand values, brute-force references, and
scipy oracles.

The brute-force references below recompute the same formulas through an
independent code path (plain Python loops and exhaustive pair enumeration).
For inputs short enough that numpy reduces sums sequentially, the results
must agree bit-for-bit.
"""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.stats

from bridgetune import bridges
from bridgetune.analysis import (StatisticsError, bridge_distance,
                                 centroid_distance, kendall_tau_b, pearson,
                                 trace_from_arrays)
from bridgetune.autodiff import Tensor
from bridgetune.latent_map import MapNet, latent_times

# ---------------------------------------------------------------- references


def _ref_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    dx = [xi - mx for xi in x]
    dy = [yi - my for yi in y]
    sxy = 0.0
    sxx = 0.0
    syy = 0.0
    for a, b in zip(dx, dy):
        sxy += a * b
        sxx += a * a
        syy += b * b
    return sxy / math.sqrt(sxx * syy)


def _ref_tau_b(x, y):
    n = len(x)
    c = d = tx = ty = 0
    for i, j in combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0:
            tx += 1
        if dy == 0:
            ty += 1
        if dx != 0 and dy != 0:
            if dx == dy:
                c += 1
            else:
                d += 1
    n0 = n * (n - 1) // 2
    return (c - d) / math.sqrt((n0 - tx) * (n0 - ty))


def _nondegenerate_pair(rng, n, integer=False):
    while True:
        if integer:
            x = [int(v) for v in rng.integers(0, 4, size=n)]
            y = [int(v) for v in rng.integers(0, 4, size=n)]
        else:
            x = [float(v) for v in rng.normal(size=n)]
            y = [float(v) for v in rng.normal(size=n)]
        if len(set(x)) > 1 and len(set(y)) > 1:
            return x, y


# ----------------------------------------------------------- trace rebuilding

def test_trace_from_arrays_round_trip():
    rng = np.random.default_rng(0)
    h_out = rng.normal(size=(4, 6))
    h_ctx = rng.normal(size=(4, 6))
    trace = trace_from_arrays(h_out, h_ctx)
    assert len(trace.h_out) == 4 and len(trace.h_ctx) == 4
    for i in range(4):
        assert trace.h_out[i].data.shape == (6, 1)
        assert np.array_equal(trace.h_out[i].data.reshape(-1), h_out[i])
        assert np.array_equal(trace.h_ctx[i].data.reshape(-1), h_ctx[i])


# ---------------------------------------------------------- centroid distance

def test_centroid_two_singletons():
    d = centroid_distance({0: [np.array([0.0, 0.0])],
                           1: [np.array([3.0, 4.0])]})
    assert d == pytest.approx(5.0, abs=1e-12)


def test_centroid_unit_triangle():
    pts = {0: [np.array([0.0, 0.0])],
           1: [np.array([1.0, 0.0])],
           2: [np.array([0.5, math.sqrt(3) / 2])]}
    assert centroid_distance(pts) == pytest.approx(1.0, abs=1e-12)


def test_centroid_duplication_invariant():
    rng = np.random.default_rng(1)
    by_label = {l: [rng.normal(size=3) for _ in range(4)] for l in (0, 1, 2)}
    base = centroid_distance(by_label)
    doubled = {l: pts + pts for l, pts in by_label.items()}
    assert centroid_distance(doubled) == pytest.approx(base, rel=1e-12)


def test_centroid_uses_means():
    # Two points per class; centroids are the midpoints.
    by_label = {0: [np.array([0.0, 0.0]), np.array([2.0, 0.0])],
                1: [np.array([1.0, 3.0]), np.array([1.0, 5.0])]}
    assert centroid_distance(by_label) == pytest.approx(4.0, abs=1e-12)


def test_centroid_errors():
    with pytest.raises(StatisticsError, match="2 labels"):
        centroid_distance({0: [np.zeros(2)]})
    with pytest.raises(StatisticsError, match="no states"):
        centroid_distance({0: [np.zeros(2)], 1: []})


# ----------------------------------------------------------------- pearson

def test_pearson_exact_linear():
    x = [1.0, 2.0, 3.0, 5.0]
    r, p = pearson(x, [2 * v + 1 for v in x])
    assert r == pytest.approx(1.0, abs=1e-12)
    assert p == pytest.approx(0.0, abs=1e-12)
    r2, _ = pearson(x, [-v for v in x])
    assert r2 == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("x, y", [
    ([math.nan, 1, 2], [1, 2, 3]), ([1, 2, 3], [1, math.inf, 3]),
    ([1, 2, 3, 4], [1, 2, 3, math.nan]), ([1, 2, -math.inf], [1, 2, 3])], ids=["leading-nan", "inf", "trailing-nan", "minus-inf"])
def test_pearson_refuses_a_non_finite_input(x, y):
    with pytest.raises(StatisticsError, match="non-finite"):
        pearson(x, y)


def test_pearson_hand_example():
    # r = 0.8 by direct evaluation; with df = 2 the t-transform gives
    # t^2 = 32/9 and P(|T| > t) = 1 - t/sqrt(2 + t^2) = 0.2 exactly.
    r, p = pearson([1, 2, 3, 4], [1, 3, 2, 4])
    assert r == pytest.approx(0.8, abs=1e-12)
    t = r * math.sqrt(2) / math.sqrt(1 - r * r)
    assert t == pytest.approx(1.8856, abs=5e-5)
    assert p == pytest.approx(0.2, rel=1e-10)


def test_pearson_matches_brute_force_100_inputs():
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(3, 8))  # short enough for sequential numpy sums
        x, y = _nondegenerate_pair(rng, n)
        r, _ = pearson(x, y)
        assert r == _ref_pearson(x, y), (trial, x, y)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        x, y = _nondegenerate_pair(rng, n)
        r, p = pearson(x, y)
        r_s, p_s = scipy.stats.pearsonr(x, y)
        assert r == pytest.approx(r_s, rel=1e-10, abs=1e-12)
        assert p == pytest.approx(p_s, rel=1e-9, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(StatisticsError, match="at least 3"):
        pearson([1, 2], [3, 4])
    with pytest.raises(StatisticsError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(StatisticsError, match="equal-length"):
        pearson([1, 2, 3], [1, 2])


# ------------------------------------------------------------- kendall tau-b

def test_tau_b_perfect_concordance_and_discordance():
    tau, p = kendall_tau_b([1, 2, 3], [1, 2, 3])
    assert tau == pytest.approx(1.0, abs=1e-15)
    tau2, _ = kendall_tau_b([1, 2, 3], [3, 2, 1])
    assert tau2 == pytest.approx(-1.0, abs=1e-15)
    assert 0.0 <= p <= 1.0


def test_tau_b_tied_example_is_zero():
    # Exhaustive enumeration of x=(1,1,2,2), y=(1,2,1,2): of the six pairs,
    # four involve a tie, one is concordant ((1,1)->(2,2)) and one is
    # discordant ((1,2)->(2,1)), so S = 0 and tau-b = 0.
    tau, _ = kendall_tau_b([1, 1, 2, 2], [1, 2, 1, 2])
    assert tau == 0.0
    ref = scipy.stats.kendalltau([1, 1, 2, 2], [1, 2, 1, 2]).statistic
    assert ref == pytest.approx(0.0, abs=1e-15)


def test_tau_b_matches_brute_force_100_inputs():
    rng = np.random.default_rng(4)
    for trial in range(100):
        n = int(rng.integers(3, 20))
        x, y = _nondegenerate_pair(rng, n, integer=(trial % 2 == 0))
        tau, _ = kendall_tau_b(x, y)
        assert tau == _ref_tau_b(x, y), (trial, x, y)


def test_tau_b_matches_scipy():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(5, 30))
        x, y = _nondegenerate_pair(rng, n, integer=(trial % 2 == 0))
        tau, p = kendall_tau_b(x, y)
        ref = scipy.stats.kendalltau(x, y, method="asymptotic")
        assert tau == pytest.approx(ref.statistic, rel=1e-10, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


def test_tau_b_errors():
    with pytest.raises(StatisticsError, match="equal length"):
        kendall_tau_b([1, 2, 3], [1, 2])
    with pytest.raises(StatisticsError, match="at least 2"):
        kendall_tau_b([1], [2])
    with pytest.raises(StatisticsError, match="tied"):
        kendall_tau_b([1, 1, 1], [1, 2, 3])


# ------------------------------------------------------------ bridge distance

def _const_map(r, value=0.0, in_dim=4):
    w = Tensor(np.zeros((r, in_dim)))
    b = Tensor(np.full((r, 1), value))
    return MapNet(weights=[w], biases=[b], dims=(in_dim, r),
                  time_augmented=False)


def _trace_of(n_points, d=2):
    rng = np.random.default_rng(6)
    return trace_from_arrays(rng.normal(size=(n_points, d)),
                             rng.normal(size=(n_points, d)))


def test_bridge_distance_hand_value():
    # Single latent point (L = 0 trace): t = 1/2, u = 0, beta = 2 gives
    # (0 - 0.5 * 2)^2 / (2 * 0.25) = 2.
    net = _const_map(r=1)
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.array([2.0]))
    total, per_layer = bridge_distance(_trace_of(1), net, spec)
    assert total == pytest.approx(2.0, abs=1e-12)
    assert per_layer == pytest.approx(2.0, abs=1e-12)


def test_bridge_distance_zero_on_mean_curve():
    net = _const_map(r=2)
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.zeros(2))
    total, per_layer = bridge_distance(_trace_of(4), net, spec)
    assert total == 0.0 and per_layer == 0.0


def test_bridge_distance_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        net = _const_map(r=r, value=float(rng.normal()))
        spec = bridges.BridgeSpec(kind=bridges.BROWNIAN,
                                  beta=rng.normal(size=r))
        total, per_layer = bridge_distance(_trace_of(3), net, spec)
        assert total >= 0.0
        assert per_layer == pytest.approx(total / 3.0, rel=1e-12)


def test_bridge_distance_sum_structure():
    # With a constant map the (t, u) pairs are unchanged by permuting the
    # trace entries, so the sum is too.
    net = _const_map(r=2, value=0.4)
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.array([1.0, -1.0]))
    trace = _trace_of(4)
    shuffled = trace_from_arrays(
        np.vstack([t.data.reshape(1, -1) for t in trace.h_out[::-1]]),
        np.vstack([t.data.reshape(1, -1) for t in trace.h_ctx[::-1]]))
    a, _ = bridge_distance(trace, net, spec)
    b, _ = bridge_distance(shuffled, net, spec)
    assert a == pytest.approx(b, rel=1e-12)


def test_bridge_distance_matches_manual_sum():
    # Cross-check the quadratic form against a direct evaluation.
    net = _const_map(r=2, value=0.3)
    beta = np.array([0.5, 1.5])
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=beta)
    n_points = 3
    total, _ = bridge_distance(_trace_of(n_points), net, spec)
    expect = 0.0
    for t in latent_times(n_points - 1):
        diff = np.full(2, 0.3) - t * beta
        expect += float(diff @ diff) / (2.0 * t * (1.0 - t))
    assert total == pytest.approx(expect, rel=1e-12)
