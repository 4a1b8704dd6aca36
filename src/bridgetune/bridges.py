"""Brownian and Ornstein-Uhlenbeck bridge mathematics.

Both bridges are pinned at (0, 0) and (T, beta) and treated as r independent
coordinates (isotropic product form). The Brownian bridge uses the standard
marginal variance t(T-t)/T. The OU bridge marginal mean is
sinh(q t)/sinh(q T) * beta, the form that satisfies the bridge drift ODE and
the Monte-Carlo oracle; see tests for the validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

BROWNIAN = "brownian"
OU = "ou"


class HorizonBoundaryError(ValueError):
    """drift() evaluated too close to the pinned endpoint t = T."""


class TransitionDomainError(ValueError):
    """transition_logpdf() requires 0 < t < T strictly."""


@dataclass(frozen=True)
class BridgeSpec:
    """A pinned diffusion bridge: head endpoint is the zero vector, tail is
    beta at time horizon. q and sigma only matter for the OU kind (Brownian
    diffusion is the identity)."""

    kind: str
    beta: np.ndarray = field(default_factory=lambda: np.zeros(1))
    horizon: float = 1.0
    q: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in (BROWNIAN, OU):
            raise ValueError(f"unknown bridge kind {self.kind!r}")
        object.__setattr__(self, "beta",
                           np.atleast_1d(np.asarray(self.beta, dtype=np.float64)))
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.kind == OU and (self.q <= 0 or self.sigma <= 0):
            raise ValueError("OU bridge needs q > 0 and sigma > 0")

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    def diffusion_scale(self) -> float:
        return self.sigma if self.kind == OU else 1.0


@dataclass(frozen=True)
class PathSample:
    """One realization on a uniform grid; values[0] is the zero vector and
    values[-1] is pinned exactly to beta."""

    times: np.ndarray
    values: np.ndarray


def mean_coeff(spec: BridgeSpec, t):
    """Marginal mean of the bridge at t is mean_coeff(t) * beta; t may be a
    float or a numpy array of times."""
    if spec.kind == BROWNIAN:
        return t / spec.horizon
    return np.sinh(spec.q * t) / math.sinh(spec.q * spec.horizon)


def marginal_variance(spec: BridgeSpec, t):
    """Per-coordinate marginal variance of the bridge at t (float or array)."""
    T = spec.horizon
    if spec.kind == BROWNIAN:
        return t * (T - t) / T
    q = spec.q
    return (spec.sigma ** 2 / q) * np.sinh(q * (T - t)) * np.sinh(q * t) / math.sinh(q * T)


def drift_coeffs(spec: BridgeSpec, t):
    """(a, c) such that the bridge drift at (t, x) is a * x + c * beta; t
    may be a float or a numpy array of times strictly before the horizon."""
    T = spec.horizon
    if spec.kind == BROWNIAN:
        c = 1.0 / (T - t)
        return -c, c
    s = spec.q * (T - t)
    return -spec.q / np.tanh(s), spec.q / np.sinh(s)


def drift(spec: BridgeSpec, t: float, x) -> np.ndarray:
    """Bridge drift field at (t, x), valid strictly before the horizon. x may
    hold one state per row."""
    if spec.horizon - t < 1e-9:
        raise HorizonBoundaryError(f"drift at t={t} within 1e-9 of horizon {spec.horizon}")
    a, c = drift_coeffs(spec, t)
    return a * np.asarray(x, dtype=np.float64) + c * spec.beta


def transition_logpdf(spec: BridgeSpec, t: float, x) -> float:
    """Log-density of the bridge marginal at time t from the (0, 0) head,
    summed over the r independent coordinates."""
    if not 0.0 < t < spec.horizon:
        raise TransitionDomainError(f"t={t} outside (0, {spec.horizon})")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    m = mean_coeff(spec, t) * spec.beta
    v = marginal_variance(spec, t)
    r = spec.dim
    return float(-0.5 * r * math.log(2.0 * math.pi * v)
                 - ((x - m) ** 2).sum() / (2.0 * v))


def _euler_maruyama(spec: BridgeSpec, n_steps: int, n_paths: int, n_moves: int,
                    rng: np.random.Generator, drift_fn=None):
    """Euler-Maruyama from the zero state on the grid t_k = k T / n_steps
    under drift_fn(t, x) (the bridge drift by default), with the bridge's
    diffusion scale. Yields the (n_paths, r) states x_0 .. x_{n_moves}; each
    move draws one standard normal per path and coordinate, path-major."""
    if drift_fn is None:
        drift_fn = partial(drift, spec)
    dt = spec.horizon / n_steps
    scale = spec.diffusion_scale() * math.sqrt(dt)
    x = np.zeros((n_paths, spec.dim))
    yield x
    for k in range(n_moves):
        x = x + drift_fn(k * dt, x) * dt + scale * rng.standard_normal(x.shape)
        yield x


def sample_path(spec: BridgeSpec, n_steps: int, rng: np.random.Generator) -> PathSample:
    """Euler-Maruyama on a uniform grid; the final value is set exactly to
    beta (the drift is singular at T, so the last step is pinning)."""
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    values = np.zeros((n_steps + 1, spec.dim))
    for k, x in enumerate(_euler_maruyama(spec, n_steps, 1, n_steps - 1, rng)):
        values[k] = x[0]
    values[n_steps] = spec.beta
    return PathSample(times=np.linspace(0.0, spec.horizon, n_steps + 1), values=values)


def sample_paths_marginal(spec: BridgeSpec, n_steps: int, n_paths: int,
                          step_index: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized Euler-Maruyama over many paths, returning only the values
    at the grid index step_index (memory stays O(n_paths * r))."""
    for x in _euler_maruyama(spec, n_steps, n_paths, min(step_index, n_steps - 1), rng):
        pass
    if step_index >= n_steps:
        return np.broadcast_to(spec.beta, x.shape).copy()
    return x


def kl_path_estimate(spec: BridgeSpec, drift_fn, n_steps: int, n_paths: int,
                     rng: np.random.Generator) -> float:
    """Girsanov KL between the path measure of dZ = drift_fn dt + sigma dB
    and the bridge, estimated by simulating Z under drift_fn and summing
    0.5 * ||sigma^-1 (drift_fn - bridge drift)||^2 * dt up to
    t_max = T (1 - 1/n_steps), the hard truncation before the singularity.
    All paths move together: drift_fn(t, z) gets z of shape (n_paths, r)."""
    if n_steps < 2 or n_paths < 1:
        raise ValueError("need n_steps >= 2 and n_paths >= 1")
    dt = spec.horizon / n_steps
    sig = spec.diffusion_scale()
    cost = np.zeros(n_paths)

    def scored_drift(t, z):
        g = np.asarray(drift_fn(t, z), dtype=np.float64)
        u = (g - drift(spec, t, z)) / sig
        cost[:] += 0.5 * (u * u).sum(axis=1) * dt
        return g

    for _ in _euler_maruyama(spec, n_steps, n_paths, n_steps - 1, rng, scored_drift):
        pass
    return float(cost.mean())
