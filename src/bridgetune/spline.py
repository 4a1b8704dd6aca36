"""Natural cubic spline interpolation with a hand-rolled tridiagonal solve.

Supports vector-valued knots (one spline per dimension, shared knot grid).
Evaluation outside the knot span extends the boundary interval's cubic,
which under natural boundary conditions is near-linear.
"""

from __future__ import annotations

import numpy as np


class SplineFitError(ValueError):
    """Bad knot set: fewer than two knots or non-increasing positions."""


class CubicSpline:
    """Piecewise cubic with natural boundary (zero second derivative at the
    first and last knots). knot_values has shape (n_knots, d)."""

    __slots__ = ("knot_positions", "knot_values", "second_derivs")

    def __init__(self, knot_positions, knot_values, second_derivs):
        self.knot_positions = knot_positions
        self.knot_values = knot_values
        self.second_derivs = second_derivs

    def eval(self, t: float) -> np.ndarray:
        return self.eval_many(np.asarray([t]))[0]

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        x = self.knot_positions
        # clamp to a real interval so out-of-span points reuse the boundary cubic
        idx = np.clip(np.searchsorted(x, ts, side="right") - 1, 0, len(x) - 2)
        x0 = x[idx]
        x1 = x[idx + 1]
        h = (x1 - x0)[:, None]
        a = ((x1 - ts) / (x1 - x0))[:, None]
        b = ((ts - x0) / (x1 - x0))[:, None]
        y0 = self.knot_values[idx]
        y1 = self.knot_values[idx + 1]
        m0 = self.second_derivs[idx]
        m1 = self.second_derivs[idx + 1]
        return (a * y0 + b * y1
                + ((a ** 3 - a) * m0 + (b ** 3 - b) * m1) * h ** 2 / 6.0)


def _thomas(lower, diag, upper, rhs):
    """Solve a tridiagonal system in place; rhs may be (n, d)."""
    n = len(diag)
    diag = diag.copy()
    rhs = rhs.copy()
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    out = np.empty_like(rhs)
    out[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        out[i] = (rhs[i] - upper[i] * out[i + 1]) / diag[i]
    return out


def fit_natural(knots) -> CubicSpline:
    """Fit a natural cubic spline through (position, value) knots.

    knots: sequence of (position, value) where value is a scalar or d-vector.
    """
    knots = list(knots)
    if len(knots) < 2:
        raise SplineFitError(f"need at least 2 knots, got {len(knots)}")
    pos = np.asarray([p for p, _ in knots], dtype=np.float64)
    vals = np.asarray([np.atleast_1d(np.asarray(v, dtype=np.float64)) for _, v in knots])
    if np.any(np.diff(pos) <= 0):
        raise SplineFitError("knot positions must be strictly increasing")

    n = len(pos)
    m = np.zeros_like(vals)
    if n > 2:
        h = np.diff(pos)
        lower = np.zeros(n - 2)
        diag = np.zeros(n - 2)
        upper = np.zeros(n - 2)
        rhs = np.zeros((n - 2, vals.shape[1]))
        for i in range(1, n - 1):
            j = i - 1
            lower[j] = h[i - 1]
            diag[j] = 2.0 * (h[i - 1] + h[i])
            upper[j] = h[i]
            rhs[j] = 6.0 * ((vals[i + 1] - vals[i]) / h[i]
                            - (vals[i] - vals[i - 1]) / h[i - 1])
        m[1:-1] = _thomas(lower, diag, upper, rhs)
    return CubicSpline(pos, vals, m)


def interp_weights(knot_positions, eval_points) -> np.ndarray:
    """Weight matrix W with eval_many(eval_points) == W @ knot_values.

    Natural-spline evaluation is linear in the knot values, so the spline
    through the unit knot vectors (one coordinate each, fitted on its own)
    recovers the exact weights. Lets callers express spline evaluation as a
    constant matmul on an autodiff graph.
    """
    pos = np.asarray(knot_positions, dtype=np.float64)
    return fit_natural(list(zip(pos, np.eye(len(pos))))).eval_many(eval_points)
