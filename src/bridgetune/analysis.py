"""Analysis statistics: label-centroid distances, Pearson and Kendall tau-b
correlations with p-values, and the bridge distance of a latent path.

The correlation routines are written from scratch (pair counting, the
t-transform through a regularized incomplete beta, and the tie-corrected
normal approximation) so tests can cross-check them against independent
brute-force references.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import bridges
from .autodiff import Tensor, no_grad
from .backbone import HiddenTrace
from .latent_map import MapNet, bridge_quadratic


def trace_from_arrays(h_out: np.ndarray, h_ctx: np.ndarray) -> HiddenTrace:
    """Rebuild a HiddenTrace from the (L+1) x d matrices stored in probe
    snapshots (rows are layers)."""
    return HiddenTrace(
        h_out=[Tensor(row.reshape(-1, 1)) for row in np.asarray(h_out)],
        h_ctx=[Tensor(row.reshape(-1, 1)) for row in np.asarray(h_ctx)])


class StatisticsError(ValueError):
    """Degenerate statistics input (too short, zero variance, all tied)."""


def centroid_distance(states_by_label: dict) -> float:
    """Mean Euclidean distance between class centroids over unordered
    label pairs."""
    labels = sorted(states_by_label)
    if len(labels) < 2:
        raise StatisticsError(f"need at least 2 labels, got {len(labels)}")
    centroids = {}
    for label in labels:
        pts = np.asarray(states_by_label[label], dtype=np.float64)
        if pts.size == 0:
            raise StatisticsError(f"label {label} has no states")
        centroids[label] = pts.mean(axis=0)
    dists = [float(np.linalg.norm(centroids[a] - centroids[b]))
             for a, b in combinations(labels, 2)]
    return sum(dists) / len(dists)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's algorithm)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-15:
            break
    return h


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log(1.0 - x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def pearson(x, y):
    """Product-moment coefficient with a two-sided p-value from the
    t-distribution with n-2 degrees of freedom. StatisticsError on a NaN or
    infinite input, which would otherwise clip to r = 1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise StatisticsError("inputs must be equal-length 1-d sequences")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise StatisticsError("non-finite value in an input")
    n = len(x)
    if n < 3:
        raise StatisticsError(f"need at least 3 observations, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float((dx * dx).sum())
    sy = float((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise StatisticsError("zero variance in an input")
    r = float((dx * dy).sum()) / math.sqrt(sx * sy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if 1.0 - r * r <= 0.0:
        return r, 0.0
    t2 = df * r * r / (1.0 - r * r)
    p = _betainc_reg(df / 2.0, 0.5, df / (df + t2))
    return r, p


def kendall_tau_b(x, y):
    """Tau-b with tie corrections in both variables; p-value via the
    tie-corrected normal approximation to the concordance statistic."""
    x = list(x)
    y = list(y)
    if len(x) != len(y):
        raise StatisticsError("inputs must have equal length")
    n = len(x)
    if n < 2:
        raise StatisticsError(f"need at least 2 observations, got {n}")
    concordant = discordant = ties_x = ties_y = 0
    for i, j in combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0 and dy == 0:
            ties_x += 1
            ties_y += 1
        elif dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif dx == dy:
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) // 2
    n1 = ties_x
    n2 = ties_y
    if n0 == n1 or n0 == n2:
        raise StatisticsError("all observations tied in one variable")
    s = concordant - discordant
    tau = s / math.sqrt((n0 - n1) * (n0 - n2))

    def tie_sizes(vals):
        counts = {}
        for v in vals:
            counts[v] = counts.get(v, 0) + 1
        return [c for c in counts.values() if c > 1]

    tx = tie_sizes(x)
    ty = tie_sizes(y)
    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(t * (t - 1) * (2 * t + 5) for t in tx)
    vu = sum(u * (u - 1) * (2 * u + 5) for u in ty)
    var_s = (v0 - vt - vu) / 18.0
    if n > 2:
        var_s += (sum(t * (t - 1) * (t - 2) for t in tx)
                  * sum(u * (u - 1) * (u - 2) for u in ty)
                  / (9.0 * n * (n - 1) * (n - 2)))
    var_s += (sum(t * (t - 1) for t in tx) * sum(u * (u - 1) for u in ty)
              / (2.0 * n * (n - 1)))
    if var_s <= 0:
        return tau, 1.0
    z = s / math.sqrt(var_s)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return tau, p


def bridge_distance(trace, mapnet: MapNet, spec: bridges.BridgeSpec):
    """Distance of the projected trace to the bridge: the variable part of
    the PDF goodness, negated. Returns (sum over layers, per-layer mean)."""
    with no_grad():
        quadratic, variances = bridge_quadratic(mapnet, trace, spec)
    total = quadratic.item()
    return total, total / len(variances)
