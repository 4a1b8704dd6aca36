"""Projection from hidden-state space to the latent bridge space.

Covers the PCA endpoint table, the 3-layer mapping network, the discrete
latent path, the two goodness functions (transition-PDF sum and Girsanov
KL of the approximated SDE), and the map-fitting loop over a frozen
backbone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import bridges
from .autodiff import Tensor
from .backbone import (BackboneState, HiddenTrace, check_counts, check_finite, check_input,
                       traces)
from .snapshot import check_records, header_value, load_kind, save_snapshot
from .spline import interp_weights

class RankDeficientError(ValueError):
    """Embedding covariance has rank below the requested latent dimension."""


@dataclass(frozen=True)
class EndpointTable:
    """Per-token bridge tails: |V| x r matrix whose rows all have norm eta."""

    beta: np.ndarray
    eta: float
    r: int

    def row(self, token: int) -> np.ndarray:
        """token's row; ValueError for a token outside 0 .. |V|-1."""
        if not 0 <= token < len(self.beta):
            raise ValueError(f"token {token} outside the endpoint table of "
                             f"{len(self.beta)} tokens")
        return self.beta[token]


def build_endpoints(V_embed: np.ndarray, r: int, eta: float = 1.0) -> EndpointTable:
    """PCA of the output embedding rows: project mean-centered rows onto the
    top-r principal directions, then rescale every row to norm eta.

    Sign convention for determinism: each principal direction's
    largest-magnitude component is made positive. Zero rows map to a fixed
    unit direction scaled by eta. An eta whose rows overflow or underflow,
    so that a row's norm computed from its squares is not eta to rounding,
    is a ValueError.
    """
    V_embed = np.asarray(V_embed, dtype=np.float64)
    n, d = V_embed.shape
    if not (r < d and n > r):
        raise ValueError(f"need latent dimension r < d and |V| > r, got r={r}, d={d}, |V|={n}")
    centered = V_embed - V_embed.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    achieved = int((eigvals > 1e-12 * max(eigvals[0], 1e-300)).sum())
    if achieved < r:
        raise RankDeficientError(
            f"covariance rank {achieved} below latent dimension {r}")
    P = eigvecs[:, :r]
    for j in range(r):
        k = int(np.argmax(np.abs(P[:, j])))
        if P[k, j] < 0:
            P[:, j] = -P[:, j]
    proj = centered @ P
    norms = np.linalg.norm(proj, axis=1)
    beta = np.empty_like(proj)
    fixed = np.zeros(r)
    fixed[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for i in range(n):
            beta[i] = fixed * eta if norms[i] == 0.0 else proj[i] * (eta / norms[i])
        scaled = (np.abs(np.sqrt((beta * beta).sum(axis=1)) - eta) <= 1e-12 * eta).all()
    if not scaled:
        raise ValueError(f"eta {eta!r} overflows the endpoint rows or underflows them")
    return EndpointTable(beta=beta, eta=float(eta), r=r)


@dataclass
class MapNet:
    """Three affine layers with relu between them. Input is [h_o; h_bar]
    (2d) for the PDF method, plus a scalar time channel (2d+1) for SDE.
    bridge is the bridge the map was fitted toward: its kind, q and sigma
    (its beta is unused; bridge_spec gives each token's). sde_steps is the
    simulation grid it was fitted on, which the sde running cost uses."""

    weights: list
    biases: list
    dims: tuple
    time_augmented: bool
    bridge: bridges.BridgeSpec = field(
        default_factory=lambda: bridges.BridgeSpec(kind=bridges.BROWNIAN))
    sde_steps: int = 8

    def forward(self, x: Tensor) -> Tensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.matmul(w, h, bias=b)
            if i < last:
                h = ad.relu(h)
        return h

    def trainables(self):
        return self.weights + self.biases

    def frozen(self) -> "MapNet":
        """This map with tensors that share its arrays but take no gradient,
        for running costs whose backward must not reach the map."""
        return MapNet(weights=[Tensor(w.data) for w in self.weights],
                      biases=[Tensor(b.data) for b in self.biases],
                      dims=self.dims, time_augmented=self.time_augmented,
                      bridge=self.bridge, sde_steps=self.sde_steps)


def new_mapnet(input_dim: int, hidden_dims, out_dim: int,
               rng: np.random.Generator, time_augmented: bool) -> MapNet:
    dims = (input_dim, *hidden_dims, out_dim)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / math.sqrt(d_in)
        weights.append(Tensor(rng.uniform(-scale, scale, size=(d_out, d_in)),
                              requires_grad=True))
        biases.append(Tensor(np.zeros((d_out, 1)), requires_grad=True))
    return MapNet(weights=weights, biases=biases, dims=dims,
                  time_augmented=time_augmented)


def latent_times(num_layers: int):
    """t_{i+1} = (i+1)/(L+2) for the L+1 trace entries i = 0..L."""
    L = num_layers
    return [(i + 1) / (L + 2) for i in range(L + 1)]


def _knot_matrix(trace: HiddenTrace) -> Tensor:
    """[H_out; H_ctx]: the (2d) x (L+1) matrix of MapNet inputs, one column
    per trace entry."""
    return ad.concat([ad.concat(trace.h_out, axis=1),
                      ad.concat(trace.h_ctx, axis=1)], axis=0)


def bridge_quadratic(mapnet: MapNet, trace: HiddenTrace, spec: bridges.BridgeSpec):
    """The variable part of the PDF goodness, negated: the sum over latent
    points u_i of ||u_i - m(t_i)||^2 / (2 v(t_i)), kept on the graph, and
    the marginal variances v(t_i). One MapNet forward scores the whole path."""
    return _quadratic(mapnet, _knot_matrix(trace), spec.beta, spec)


def _quadratic(mapnet: MapNet, knots: Tensor, betas, spec: bridges.BridgeSpec):
    """bridge_quadratic of a knot matrix toward the endpoint row betas or,
    for a B-stack of knot matrices, toward one row of the B x r betas per
    slice: a vector of B sums, each with the bytes of its slice's own. spec
    gives the bridge's kind, q and sigma."""
    times = np.asarray(latent_times(knots.data.shape[-1] - 1))
    means = betas[..., :, None] * bridges.mean_coeff(spec, times)  # np.outer's products
    variances = bridges.marginal_variance(spec, times)
    diff = ad.sub(mapnet.forward(knots), Tensor(means))
    weighted = ad.elementwise_mul(ad.square(diff), Tensor(0.5 / variances.reshape(1, -1)))
    return ad.tensor_sum(weighted, axis=(-2, -1)), variances


def goodness_pdf(mapnet: MapNet, trace: HiddenTrace, spec: bridges.BridgeSpec) -> Tensor:
    """Sum over latent points of the bridge marginal log-density, kept on
    the autodiff graph (differentiable in gamma and in the trace)."""
    return _goodness_pdf(mapnet, _knot_matrix(trace), spec.beta, spec)


def _goodness_pdf(mapnet: MapNet, knots: Tensor, betas, spec: bridges.BridgeSpec) -> Tensor:
    """goodness_pdf of a knot matrix, or of each slice of a stack (_quadratic)."""
    if spec.horizon != 1.0:
        raise ValueError("pipeline bridges are fixed to horizon 1")
    quadratic, variances = _quadratic(mapnet, knots, betas, spec)
    log_norm = -0.5 * betas.shape[-1] * np.log(2.0 * math.pi * variances).sum()
    return ad.sub(Tensor(log_norm), quadratic)


@lru_cache(maxsize=32)
def _spline_feature_weights(num_layers: int, n_steps: int) -> np.ndarray:
    """Interpolation weights from trace knots (layer indices 0..L) to the
    simulation grid, through x = (L+2) t - 1. Constant given (L, n_steps)."""
    L = num_layers
    ts = np.arange(n_steps - 1) / n_steps
    xs = (L + 2) * ts - 1.0
    return interp_weights(np.arange(L + 1, dtype=np.float64), xs)


def goodness_sde(mapnet, trace: HiddenTrace, spec: bridges.BridgeSpec,
                 n_steps: int, rng: np.random.Generator) -> Tensor:
    """Girsanov KL of the g-driven latent SDE against the bridge.

    Z is simulated from zero under drift g(h_o(x), h_bar(x), t) with the
    bridge's diffusion scale; the running integrand 0.5 ||u||^2 dt with
    u = sigma^-1 (g - bridge drift) accumulates up to t_max = 1 - 1/n_steps.
    Differentiable through g and through the spline-interpolated trace.

    g does not depend on Z, so one MapNet forward gives the drift G at all
    n_steps - 1 grid times, and the Euler-Maruyama states are cumulative
    sums: column k of Z is the sum over j < k of g_j dt + noise_j.
    """
    if n_steps < 4:
        raise ValueError("n_steps must be at least 4")
    if spec.horizon != 1.0:
        raise ValueError("pipeline bridges are fixed to horizon 1")
    return _goodness_sde(mapnet, _knot_matrix(trace), spec.beta, spec, n_steps,
                         rng.standard_normal((n_steps - 1, spec.dim)))


def _goodness_sde(mapnet, knots: Tensor, betas, spec: bridges.BridgeSpec, n_steps: int,
                  draws) -> Tensor:
    """goodness_sde of a knot matrix with its standard normal draws
    ((n_steps - 1) x r), or of each slice of a stack with (B, n_steps - 1, r)
    draws, the draws of B samples in turn: B sums, each with the bytes of
    its slice's own (_quadratic)."""
    W = _spline_feature_weights(knots.data.shape[-1] - 1, n_steps)
    sig = spec.diffusion_scale()
    dt = 1.0 / n_steps
    noise = draws * (sig * math.sqrt(dt))
    times = np.arange(n_steps - 1) * dt
    time_row = np.broadcast_to(times, (*knots.data.shape[:-2], 1, n_steps - 1))
    features = ad.concat([ad.matmul(knots, Tensor(W.T)), Tensor(time_row)], axis=-2)
    G = mapnet.forward(features)
    cumsum = np.triu(np.ones((n_steps - 1, n_steps - 1)), k=1)
    Z = ad.add(ad.matmul(ad.scalar_mul(G, dt), Tensor(cumsum)),
               Tensor(noise.swapaxes(-1, -2) @ cumsum))
    a, c = bridges.drift_coeffs(spec, times)
    B = ad.add(ad.elementwise_mul(Z, Tensor(a.reshape(1, -1))),
               Tensor(betas[..., :, None] * c))  # np.outer's products
    kl = ad.tensor_sum(ad.square(ad.sub(G, B)), axis=(-2, -1))
    return ad.scalar_mul(kl, 0.5 * dt / sig ** 2)


MAP_HIDDEN_DIMS = (64, 32)  # the widths of fit_map's two hidden map layers
WARMUP_RATIO = 0.01  # the share of fit_map's steps that warm its learning rate up


@dataclass(frozen=True)
class FitMapConfig:
    method: str = "pdf"
    bridge_kind: str = bridges.BROWNIAN
    q: float = 1.0
    sigma: float = 1.0
    latent_dim: int = 8
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_steps: int = 400
    sde_steps: int = 8
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("pdf", "sde"):
            raise ValueError(f"method must be pdf or sde, got {self.method!r}")
        check_counts(self, latent_dim=1, batch_size=1, max_steps=0, eval_every=1,
                     sde_steps=4, seed=0)
        check_finite(self, 0, "learning_rate")
        if self.bridge_kind not in (bridges.BROWNIAN, bridges.OU):
            raise ValueError(f"bridge_kind must be {bridges.BROWNIAN} or {bridges.OU}, "
                             f"got {self.bridge_kind!r}")
        check_finite(self, 0, "q", "sigma")


def bridge_spec(mapnet: MapNet, endpoints: EndpointTable, token: int) -> bridges.BridgeSpec:
    """The bridge toward token's endpoint row, of the kind, q and sigma
    that mapnet was fitted toward."""
    bridge = mapnet.bridge
    return bridges.BridgeSpec(kind=bridge.kind, beta=endpoints.row(token),
                              q=bridge.q, sigma=bridge.sigma)


def running_cost(cfg, mapnet: MapNet, trace: HiddenTrace, spec: bridges.BridgeSpec,
                 rng: np.random.Generator) -> Tensor:
    """The running cost of cfg.method ("pdf" or "sde") for one trace, lower
    when the latent path is closer to the bridge: the negated PDF goodness,
    or the SDE KL over mapnet.sde_steps steps with its noise drawn from rng."""
    return _method_cost(cfg, lambda: goodness_pdf(mapnet, trace, spec),
                        lambda: goodness_sde(mapnet, trace, spec, mapnet.sde_steps, rng))


def _method_cost(cfg, pdf, sde) -> Tensor:
    """The one switch on cfg.method behind running_cost and _stack_costs:
    the negated PDF goodness pdf(), or the SDE KL sde(). running_cost
    scores through the public goodness functions, whose calls the
    benchmark's tracer counts per trace."""
    if cfg.method == "pdf":
        return ad.scalar_mul(pdf(), -1.0)
    return sde()


def collect_traces(state: BackboneState, samples):
    """Frozen-backbone (trace, target) pairs for (tokens, target,
    mask_position) samples, computed off-graph in stacks of equal-length
    samples (backbone.traces). The backbone never changes during map
    fitting, so each sample's trace is computed once."""
    samples = list(samples)
    return list(zip(traces(state, [(tokens, pos) for tokens, _, pos in samples]),
                    [target for _, target, _ in samples]))


def _knots(state: BackboneState, samples):
    """(knot matrix, target) of each sample, from collect_traces."""
    return [(_knot_matrix(trace).data, target) for trace, target in
            collect_traces(state, samples)]


def _knot_stack(pairs, endpoints: EndpointTable):
    """The B x 2d x (L+1) stack of (knot matrix, target) pairs' knot
    matrices, and the B x r stack of their targets' endpoint rows
    (EndpointTable.row: ValueError for a target outside the table)."""
    return (Tensor(np.stack([knots for knots, _ in pairs])),
            np.stack([endpoints.row(target) for _, target in pairs]))


def _stack_costs(cfg, mapnet: MapNet, knots: Tensor, betas, draws) -> Tensor:
    """running_cost of each slice of a knot stack toward mapnet's bridge
    with the slice's row of betas, on mapnet's grid: a vector with each
    slice's bytes. draws is the sde noise, the draws of B samples in turn,
    or one draw that every slice shares."""
    spec = mapnet.bridge
    return _method_cost(cfg, lambda: _goodness_pdf(mapnet, knots, betas, spec),
                        lambda: _goodness_sde(mapnet, knots, betas, spec, mapnet.sde_steps,
                                              draws))


def fit_map(state: BackboneState, samples, cfg: FitMapConfig,
            endpoints: EndpointTable, holdout=None):
    """Train gamma by Adam to maximize goodness_pdf or minimize the SDE KL.

    samples/holdout: (tokens, target, mask_position) triples. Returns
    (MapNet, history) where history rows are (step, train_loss, holdout_goodness);
    the map carries cfg's bridge and sde_steps (MapNet.bridge, MapNet.sde_steps).

    A sample's trace is collected when a batch first draws it, so a short fit
    runs no forward for samples it never draws; every sample is checked
    (backbone.check_input, and its target against the endpoint table) before
    the first step all the same. Holdout traces are collected up front, as
    the first holdout score reads them all, and holdout targets are checked
    against the endpoint table then.

    Every knot matrix is 2d x (L+1), whatever the sequence length, so each
    step's minibatch runs through MapNet as one stack, and the holdout is
    scored as one no-grad stack. The sde noise is drawn in sample order,
    and the map, its history and its holdout scores have the bytes of one
    graph per sample (running_cost).
    """
    samples = list(samples)
    for tokens, target, pos in samples:
        check_input(state.config, tokens, pos)
        endpoints.row(target)
    rng = np.random.default_rng(cfg.seed)
    sde = cfg.method == "sde"
    mapnet = new_mapnet(2 * state.config.hidden_dim + sde, MAP_HIDDEN_DIMS, cfg.latent_dim,
                        rng, time_augmented=sde)
    mapnet.bridge = bridges.BridgeSpec(kind=cfg.bridge_kind, q=cfg.q, sigma=cfg.sigma)
    mapnet.sde_steps = cfg.sde_steps
    drawn = {}  # sample index -> (knot matrix, target)
    held = _knot_stack(_knots(state, holdout), endpoints) if holdout else None
    params = mapnet.trainables()
    adam = ad.AdamState(params, cfg.learning_rate)
    warmup_steps = max(1, int(WARMUP_RATIO * cfg.max_steps))
    history = []

    def holdout_goodness():
        if held is None:
            return math.nan
        # each holdout sample's running cost draws from a fresh generator
        draws = np.random.default_rng(cfg.seed).standard_normal(
            (cfg.sde_steps - 1, endpoints.r)) if sde else None
        with ad.no_grad():
            costs = _stack_costs(cfg, mapnet, *held, draws)
        total = 0.0
        for cost in costs.data.tolist():
            total -= cost
        return total / len(costs.data)

    for step in range(1, cfg.max_steps + 1):
        idx = rng.integers(0, len(samples), size=cfg.batch_size).tolist()
        new = [j for j in dict.fromkeys(idx) if j not in drawn]  # first-seen order
        drawn.update(zip(new, _knots(state, [samples[j] for j in new])))
        knots, betas = _knot_stack([drawn[j] for j in idx], endpoints)
        with np.errstate(all="ignore"):  # a non-finite step raises NonFiniteError
            draws = rng.standard_normal((len(idx), cfg.sde_steps - 1, endpoints.r)) \
                if sde else None
            costs = _stack_costs(cfg, mapnet, knots, betas, draws)
            adam.learning_rate = cfg.learning_rate * min(1.0, step / warmup_steps)
            loss = ad.train_step(params, costs, adam)
        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            history.append((step, loss, holdout_goodness()))
    return mapnet, history


def save_mapnet(path, mapnet: MapNet, method: str, endpoints: EndpointTable) -> None:
    """The map, its bridge's kind, q and sigma, its sde_steps, and the
    endpoint table; ValueError, before writing, unless method is sde for a
    time-augmented map and pdf for another, as load_mapnet requires."""
    if method != ("sde" if mapnet.time_augmented else "pdf"):
        raise ValueError(f"method {method!r} for a map with time_augmented="
                         f"{mapnet.time_augmented}")
    bridge = mapnet.bridge
    header = {
        "kind": "mapnet", "method": method, "dims": list(mapnet.dims),
        "time_augmented": mapnet.time_augmented, "eta": endpoints.eta,
        "r": endpoints.r, "bridge_kind": bridge.kind, "q": bridge.q, "sigma": bridge.sigma,
        "sde_steps": mapnet.sde_steps,
    }
    tensors = {"endpoints.beta": endpoints.beta}
    for i, (w, b) in enumerate(zip(mapnet.weights, mapnet.biases)):
        tensors[f"map.w{i}"] = w.data
        tensors[f"map.b{i}"] = b.data
    save_snapshot(path, header, tensors)


def load_mapnet(path):
    """Returns (MapNet, EndpointTable, header); the map's tensors are
    frozen (requires_grad False), as load_backbone's are. The header's
    method is sde for a time-augmented map, else pdf. Its bridge_kind, q and
    sigma, checked as FitMapConfig checks its own, are the map's bridge, and
    its sde_steps, an integer of at least 4, the map's grid."""
    header, tensors = load_kind(path, "mapnet")
    dims = tuple(header_value(path, header, "dims", lambda v: isinstance(v, list) and (
        len(v) >= 2 and all(type(d) is int and d >= 1 for d in v))))
    time_augmented = header_value(path, header, "time_augmented",
                                  lambda v: isinstance(v, bool))
    header_value(path, header, "method", lambda v: v == ("sde" if time_augmented else "pdf"))
    eta = header_value(path, header, "eta", lambda v: type(v) in (int, float))
    kind = header_value(path, header, "bridge_kind",
                        lambda v: v in (bridges.BROWNIAN, bridges.OU))
    q, sigma = (header_value(path, header, key,
                             lambda v: type(v) in (int, float) and 0 < v < math.inf)
                for key in ("q", "sigma"))
    sde_steps = header_value(path, header, "sde_steps", lambda v: type(v) is int and v >= 4)
    r = header_value(path, header, "r", lambda v: v == dims[-1] and type(v) is int)
    n_layers = len(dims) - 1
    shapes = {"endpoints.beta": (None, r)}
    for i in range(n_layers):
        shapes[f"map.w{i}"] = (dims[i + 1], dims[i])
        shapes[f"map.b{i}"] = (dims[i + 1], 1)
    check_records(path, tensors, shapes)
    weights = [Tensor(tensors[f"map.w{i}"]) for i in range(n_layers)]
    biases = [Tensor(tensors[f"map.b{i}"]) for i in range(n_layers)]
    mapnet = MapNet(weights=weights, biases=biases, dims=dims, time_augmented=time_augmented,
                    bridge=bridges.BridgeSpec(kind=kind, q=q, sigma=sigma), sde_steps=sde_steps)
    return mapnet, EndpointTable(beta=tensors["endpoints.beta"], eta=eta, r=r), header
