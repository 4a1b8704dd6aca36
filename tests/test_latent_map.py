"""Latent projection layer: PCA endpoints, the mapping network, both
goodness functions, and map fitting on a frozen backbone.

Finite-difference checks treat the goodness functions as black boxes over
their trainable parameters; the SDE case fixes the simulation noise so the
pathwise gradient is well-defined.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import bridgetune.autodiff as ad
from bridgetune import bridges, latent_map
from bridgetune.autodiff import Tensor
from bridgetune.backbone import HiddenTrace, checksum
from bridgetune.latent_map import (MAP_HIDDEN_DIMS, WARMUP_RATIO, FitMapConfig,
                                   RankDeficientError, _spline_feature_weights, bridge_spec,
                                   build_endpoints, collect_traces, fit_map, goodness_pdf,
                                   goodness_sde, latent_times, load_mapnet,
                                   new_mapnet, running_cost, save_mapnet)
from bridgetune.pipeline import TrainConfig
from bridgetune.snapshot import SnapshotFormatError

OU_BRIDGE = {"bridge_kind": bridges.OU, "q": 1.5, "sigma": 0.9}

# ------------------------------------------------------------- endpoint table


def test_endpoint_rows_have_norm_eta(world):
    for eta in (1.0, 0.5, 3.0):
        table = build_endpoints(world.state["embed"].data, r=8, eta=eta)
        norms = np.linalg.norm(table.beta, axis=1)
        assert np.max(np.abs(norms - eta)) < 1e-8
        assert table.eta == eta and table.r == 8


def test_endpoints_symmetric_2d_example():
    V = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
    table = build_endpoints(V, r=1, eta=0.7)
    expect = np.array([[0.7], [-0.7], [0.7], [-0.7]])
    assert np.allclose(table.beta, expect, atol=1e-12)


def test_endpoints_duplicate_rows_identical():
    rng = np.random.default_rng(3)
    V = rng.normal(size=(10, 6))
    V[7] = V[2]
    table = build_endpoints(V, r=3, eta=1.0)
    assert np.array_equal(table.beta[7], table.beta[2])


def test_endpoints_zero_projection_fallback():
    # A row equal to the column mean projects to zero; it must land on the
    # fixed unit direction scaled by eta instead of producing NaNs.
    base = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    V = np.vstack([base, base.mean(axis=0)])
    table = build_endpoints(V, r=2, eta=1.5)
    assert np.allclose(table.beta[-1], [1.5, 0.0], atol=1e-12)
    assert not np.isnan(table.beta).any()


def test_endpoints_rank_deficient_error():
    # Rows on a single line: covariance rank 1 < requested r=2.
    line = np.outer(np.arange(6, dtype=np.float64), [1.0, 2.0, 0.5])
    with pytest.raises(RankDeficientError, match="rank 1"):
        build_endpoints(line, r=2)


def test_endpoints_dimension_validation():
    V = np.eye(4)
    with pytest.raises(ValueError, match="r < d"):
        build_endpoints(V, r=4)
    with pytest.raises(ValueError):
        build_endpoints(np.ones((2, 8)), r=3)  # |V| <= r


def test_endpoints_deterministic(world):
    a = build_endpoints(world.state["embed"].data, r=8)
    b = build_endpoints(world.state["embed"].data, r=8)
    assert np.array_equal(a.beta, b.beta)


# ------------------------------------------------------ mapnet and latent path

def _tiny_trace(rng, L=2, d=4):
    return HiddenTrace(
        h_out=[Tensor(rng.normal(size=(d, 1))) for _ in range(L + 1)],
        h_ctx=[Tensor(rng.normal(size=(d, 1))) for _ in range(L + 1)])


def _tiny_mapnet(rng, d=4, r=2, sde=False):
    input_dim = 2 * d + (1 if sde else 0)
    return new_mapnet(input_dim, (6, 5), r, rng, time_augmented=sde)


def test_mapnet_forward_shape_and_relu():
    rng = np.random.default_rng(0)
    net = _tiny_mapnet(rng)
    out = net.forward(Tensor(rng.normal(size=(8, 1))))
    assert out.data.shape == (2, 1)
    # Hidden layers pass through relu; an all-negative first layer collapses
    # the output to the bias path.
    net.weights[0].data[:] = -100.0
    net.biases[0].data[:] = -1.0
    collapsed = net.forward(Tensor(np.abs(rng.normal(size=(8, 1)))))
    bias_only = net.forward(Tensor(np.zeros((8, 1))))
    # relu kills both pre-activations, so the outputs agree.
    assert np.allclose(collapsed.data, bias_only.data, atol=1e-12)


def test_new_mapnet_deterministic_and_zero_biases():
    a = _tiny_mapnet(np.random.default_rng(42))
    b = _tiny_mapnet(np.random.default_rng(42))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa.data, wb.data)
    for bias in a.biases:
        assert np.all(bias.data == 0.0)
    assert len(a.trainables()) == 6
    assert a.dims[-1] == 2


def test_latent_times_values():
    assert latent_times(4) == [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6]
    assert latent_times(2) == [1 / 4, 2 / 4, 3 / 4]
    ts = latent_times(10)
    assert len(ts) == 11 and 0.0 < min(ts) and max(ts) < 1.0


def _per_layer_path(net, trace):
    """(t_i, u_i = g([h_o; h_bar])) with one MapNet.forward per trace entry:
    the per-layer reference for the whole-path goodness functions."""
    times = latent_times(len(trace.h_out) - 1)
    return [(t, net.forward(ad.concat([ho, hc], axis=0)))
            for t, ho, hc in zip(times, trace.h_out, trace.h_ctx)]


# ------------------------------------------------------------- goodness (pdf)

def test_goodness_pdf_matches_transition_logpdf_sum(world):
    # Compositional contract: the on-graph goodness equals the off-graph sum
    # of marginal log-densities over the projected path.
    rng = np.random.default_rng(4)
    trace = _tiny_trace(rng, L=3, d=world.config.hidden_dim)
    net = new_mapnet(2 * world.config.hidden_dim, (8, 6), world.endpoints.r,
                     rng, time_augmented=False)
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=world.endpoints.row(5))
    val = goodness_pdf(net, trace, spec).item()
    with ad.no_grad():
        path = _per_layer_path(net, trace)
    expect = sum(bridges.transition_logpdf(spec, t, u.data.reshape(-1))
                 for t, u in path)
    assert val == pytest.approx(expect, rel=1e-12)


def test_goodness_pdf_maximum_on_zero_bridge():
    # beta = 0 and a zero map put every latent point on the mean curve, so
    # the goodness hits its analytic maximum: sum of the log normalizers.
    rng = np.random.default_rng(5)
    net = _tiny_mapnet(rng)
    for w in net.weights:
        w.data[:] = 0.0
    trace = _tiny_trace(rng, L=2)
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.zeros(2))
    val = goodness_pdf(net, trace, spec).item()
    expect = sum(-1.0 * math.log(2.0 * math.pi * t * (1.0 - t))
                 for t in latent_times(2))  # r/2 = 1
    assert val == pytest.approx(expect, rel=1e-12)
    # Moving any latent point off the curve strictly lowers the goodness.
    net.biases[-1].data[0, 0] = 0.3
    assert goodness_pdf(net, trace, spec).item() < val


def test_goodness_pdf_rejects_other_horizons():
    rng = np.random.default_rng(6)
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.zeros(2),
                              horizon=2.0)
    with pytest.raises(ValueError, match="horizon"):
        goodness_pdf(_tiny_mapnet(rng), _tiny_trace(rng), spec)


def test_gradient_ascent_reaches_pdf_maximum():
    # Adam on -goodness_pdf drives every latent point onto the mean curve
    # t*beta; the achieved goodness matches the analytic maximum.
    rng = np.random.default_rng(7)
    net = _tiny_mapnet(rng, d=4, r=2)
    trace = _tiny_trace(rng, L=2, d=4)
    beta = np.array([0.6, -0.8])
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=beta)
    params = net.trainables()
    adam = ad.AdamState(params, 1e-2)
    for _ in range(400):
        loss = ad.scalar_mul(goodness_pdf(net, trace, spec), -1.0)
        grads = ad.backward(loss)
        ad.adam_step(params, grads, adam)
    with ad.no_grad():
        path = _per_layer_path(net, trace)
    for t, u in path:
        assert np.linalg.norm(u.data.reshape(-1) - t * beta) < 1e-4
    final = goodness_pdf(net, trace, spec).item()
    analytic = sum(-1.0 * math.log(2.0 * math.pi * t * (1.0 - t))
                   for t in latent_times(2))
    assert final == pytest.approx(analytic, rel=1e-6)


# --------------------------------------------------------- finite differences

def _flatten_leaves(net, trace):
    leaves = net.trainables() + trace.h_out + trace.h_ctx
    for leaf in trace.h_out + trace.h_ctx:
        leaf.requires_grad = True
    return leaves


def _fd_check(fn, leaves, rel_tol):
    val0 = fn()
    grads = ad.backward(val0)
    eps = 1e-6
    worst = 0.0
    rng = np.random.default_rng(0)
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        # Probe a few random coordinates per leaf.
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + eps
            up = fn().item()
            flat[idx] = old - eps
            dn = fn().item()
            flat[idx] = old
            fd = (up - dn) / (2 * eps)
            g = grads.get(leaf)
            an = 0.0 if g is None else g.reshape(-1)[idx]
            scale = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / scale)
    assert worst < rel_tol, worst


@pytest.mark.parametrize("trial", range(20))
def test_goodness_pdf_finite_difference(trial):
    rng = np.random.default_rng(100 + trial)
    net = _tiny_mapnet(rng, d=3, r=2)
    trace = _tiny_trace(rng, L=2, d=3)
    beta = rng.normal(size=2)
    kind = bridges.BROWNIAN if trial % 2 == 0 else bridges.OU
    spec = bridges.BridgeSpec(kind=kind, beta=beta, q=0.8, sigma=1.1)
    leaves = _flatten_leaves(net, trace)
    _fd_check(lambda: goodness_pdf(net, trace, spec), leaves, 1e-4)


@pytest.mark.parametrize("trial", range(20))
def test_goodness_sde_finite_difference(trial):
    # Fixed noise: re-seeding the rng per evaluation makes the pathwise map
    # deterministic, so central differences are meaningful.
    rng = np.random.default_rng(200 + trial)
    net = _tiny_mapnet(rng, d=3, r=2, sde=True)
    trace = _tiny_trace(rng, L=2, d=3)
    beta = rng.normal(size=2)
    kind = bridges.BROWNIAN if trial % 2 == 0 else bridges.OU
    spec = bridges.BridgeSpec(kind=kind, beta=beta, q=0.8, sigma=1.1)
    leaves = _flatten_leaves(net, trace)
    _fd_check(lambda: goodness_sde(net, trace, spec, 6,
                                   np.random.default_rng(42)),
              leaves, 1e-3)


# ------------------------------------------------------------- goodness (sde)

def _numpy_mapnet(net, x):
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = w.data @ h + b.data
        if i < len(net.weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def _sequential_sde_reference(net, trace, spec, n, rng):
    """Step-by-step Euler-Maruyama on plain arrays with the bridge drift of
    bridges.drift, drawing the noise exactly as goodness_sde does."""
    r = spec.dim
    sig = spec.diffusion_scale()
    dt = 1.0 / n
    noise = rng.standard_normal((n - 1, r)) * (sig * math.sqrt(dt))
    W = _spline_feature_weights(len(trace.h_out) - 1, n)
    H_o = np.hstack([t.data for t in trace.h_out])
    H_c = np.hstack([t.data for t in trace.h_ctx])
    z = np.zeros(r)
    total = 0.0
    for k in range(n - 1):
        t = k * dt
        feats = np.concatenate([H_o @ W[k], H_c @ W[k], [t]])
        g = _numpy_mapnet(net, feats.reshape(-1, 1))[:, 0]
        u = (g - bridges.drift(spec, t, z)) / sig
        total += 0.5 * dt * float(u @ u)
        z = z + g * dt + noise[k]
    return total


@pytest.mark.parametrize("kind", [bridges.BROWNIAN, bridges.OU])
def test_goodness_sde_matches_sequential_euler_reference(kind):
    for trial in range(5):
        rng = np.random.default_rng(300 + trial)
        net = _tiny_mapnet(rng, d=4, r=3, sde=True)
        trace = _tiny_trace(rng, L=3, d=4)
        spec = bridges.BridgeSpec(kind=kind, beta=rng.normal(size=3),
                                  q=float(rng.uniform(0.3, 2.0)),
                                  sigma=float(rng.uniform(0.5, 1.5)))
        n = int(rng.integers(4, 20))
        got = goodness_sde(net, trace, spec, n, np.random.default_rng(trial)).item()
        want = _sequential_sde_reference(net, trace, spec, n,
                                         np.random.default_rng(trial))
        assert got == pytest.approx(want, rel=1e-12)


def test_goodness_sde_validation():
    rng = np.random.default_rng(10)
    net = _tiny_mapnet(rng, sde=True)
    trace = _tiny_trace(rng)
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.zeros(2))
    with pytest.raises(ValueError, match="at least 4"):
        goodness_sde(net, trace, spec, 3, np.random.default_rng(0))
    bad = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.zeros(2),
                             horizon=0.5)
    with pytest.raises(ValueError, match="horizon"):
        goodness_sde(net, trace, bad, 8, np.random.default_rng(0))


def test_goodness_sde_deterministic_given_rng():
    rng = np.random.default_rng(11)
    net = _tiny_mapnet(rng, sde=True)
    trace = _tiny_trace(rng)
    spec = bridges.BridgeSpec(kind=bridges.OU, beta=np.array([1.0, -1.0]), q=0.6)
    a = goodness_sde(net, trace, spec, 8, np.random.default_rng(3)).item()
    b = goodness_sde(net, trace, spec, 8, np.random.default_rng(3)).item()
    assert a == b


# ------------------------------------------------------------- running cost

@pytest.mark.parametrize("cfg_cls", [FitMapConfig, TrainConfig])
@pytest.mark.parametrize("kind", [bridges.BROWNIAN, bridges.OU])
def test_running_cost_is_negated_pdf_goodness_or_sde_kl(cfg_cls, kind):
    rng = np.random.default_rng(12)
    trace = _tiny_trace(rng)
    endpoints = build_endpoints(rng.normal(size=(6, 5)), r=2, eta=1.0)
    pdf_cfg = cfg_cls(method="pdf")
    sde_cfg = cfg_cls(method="sde")
    net = _tiny_mapnet(rng)
    net.bridge = bridges.BridgeSpec(kind=kind, q=0.7, sigma=1.3)
    spec = bridge_spec(net, endpoints, 4)
    assert (spec.kind, spec.q, spec.sigma, spec.horizon) == (kind, 0.7, 1.3, 1.0)
    assert np.array_equal(spec.beta, endpoints.row(4))

    got = running_cost(pdf_cfg, net, trace, spec, None).item()
    assert got == -goodness_pdf(net, trace, spec).item()

    net = _tiny_mapnet(rng, sde=True)
    net.sde_steps = 6  # the grid is the map's, not the config's
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    got = running_cost(sde_cfg, net, trace, spec, rng_a).item()
    assert got == goodness_sde(net, trace, spec, 6, rng_b).item()
    assert rng_a.random() == rng_b.random()  # the same draws were consumed


# -------------------------------------------------------------------- fit_map

def test_fit_map_config_validation():
    with pytest.raises(ValueError, match="method"):
        FitMapConfig(method="mle")
    with pytest.raises(ValueError, match="bridge_kind must be brownian or ou, got 'gauss'"):
        FitMapConfig(bridge_kind="gauss")
    for key in ("q", "sigma"):
        for bad in (0, -1.0, math.nan, math.inf, "1", True):
            with pytest.raises(ValueError, match=f"{key} must be a finite number above 0"):
                FitMapConfig(**{key: bad})


def test_fit_map_gives_the_map_its_bridge(world):
    cfg = FitMapConfig(method="pdf", bridge_kind=bridges.OU, q=1.5, sigma=0.9, max_steps=0)
    net, _ = fit_map(world.state, world.fit_samples[:8], cfg, world.endpoints)
    assert (net.bridge.kind, net.bridge.q, net.bridge.sigma) == (bridges.OU, 1.5, 0.9)
    assert net.frozen().bridge is net.bridge


def test_fit_map_zero_steps_returns_init(world):
    cfg = FitMapConfig(method="pdf", max_steps=0, seed=0)
    net, history = fit_map(world.state, world.fit_samples[:8], cfg,
                           world.endpoints)
    fresh = new_mapnet(2 * world.config.hidden_dim, MAP_HIDDEN_DIMS,
                       cfg.latent_dim, np.random.default_rng(0),
                       time_augmented=False)
    assert history == []
    for a, b in zip(net.weights, fresh.weights):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("method,steps,batch",
                         [("pdf", 120, 16), ("sde", 80, 8)])
def test_fit_map_improves_heldout_goodness_5_of_5(world, method, steps, batch):
    # Held-out goodness after fitting beats the untrained map on every seed.
    train = world.fit_samples[:120]
    hold = world.fit_samples[120:160]
    held = collect_traces(world.state, hold)
    before = checksum(world.state)
    wins = 0
    for seed in range(5):
        fitted = FitMapConfig(method=method, max_steps=steps, batch_size=batch,
                              seed=seed, eval_every=steps)
        untrained, _ = fit_map(world.state, train, replace(fitted, max_steps=0),
                               world.endpoints)
        _, hN = fit_map(world.state, train, fitted, world.endpoints,
                        holdout=hold)
        # fit_map's holdout score, for the map it starts from
        h0 = 0.0
        for trace, target in held:
            h0 -= running_cost(fitted, untrained, trace,
                               bridge_spec(untrained, world.endpoints, target),
                               np.random.default_rng(seed)).item()
        if hN[-1][2] > h0 / len(held):
            wins += 1
    assert wins == 5
    assert checksum(world.state) == before


def test_fit_map_deterministic(world):
    cfg = FitMapConfig(method="pdf", max_steps=30, batch_size=8, seed=4,
                       eval_every=10)
    net_a, hist_a = fit_map(world.state, world.fit_samples[:40], cfg,
                            world.endpoints)
    net_b, hist_b = fit_map(world.state, world.fit_samples[:40], cfg,
                            world.endpoints)
    assert hist_a == hist_b
    for a, b in zip(net_a.trainables(), net_b.trainables()):
        assert np.array_equal(a.data, b.data)


def test_fit_map_history_without_holdout_is_nan(world):
    cfg = FitMapConfig(method="pdf", max_steps=10, batch_size=4, seed=0,
                       eval_every=5)
    _, history = fit_map(world.state, world.fit_samples[:16], cfg,
                         world.endpoints)
    assert len(history) == 2
    assert all(math.isnan(h[2]) for h in history)
    assert all(isinstance(h[1], float) for h in history)


def _fit_map_collecting_up_front(state, samples, cfg, endpoints, holdout=None):
    """Reference: fit_map with every sample's trace collected before step 1."""
    rng = np.random.default_rng(cfg.seed)
    net = new_mapnet(2 * state.config.hidden_dim + (cfg.method == "sde"), MAP_HIDDEN_DIMS,
                     cfg.latent_dim, rng, time_augmented=cfg.method == "sde")
    net.bridge = bridges.BridgeSpec(kind=cfg.bridge_kind, q=cfg.q, sigma=cfg.sigma)
    traces = collect_traces(state, samples)
    held = collect_traces(state, holdout) if holdout else []
    adam = ad.AdamState(net.trainables(), cfg.learning_rate)
    warmup = max(1, int(WARMUP_RATIO * cfg.max_steps))
    history = []
    for step in range(1, cfg.max_steps + 1):
        idx = rng.integers(0, len(traces), size=cfg.batch_size)
        losses = [running_cost(cfg, net, trace, bridge_spec(net, endpoints, target), rng)
                  for trace, target in (traces[j] for j in idx)]
        adam.learning_rate = cfg.learning_rate * min(1.0, step / warmup)
        loss = ad.train_step(net.trainables(), losses, adam)
        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            score = math.nan
            if held:
                score = -sum(running_cost(cfg, net, trace, bridge_spec(net, endpoints, target),
                                          np.random.default_rng(cfg.seed)).item()
                             for trace, target in held) / len(held)
            history.append((step, loss, score))
    return net, history


@pytest.mark.parametrize("method,steps,batch,holdout,bridge", [
    ("pdf", 12, 8, 6, {}), ("pdf", 9, 4, 0, {}), ("sde", 8, 6, 4, {}), ("sde", 6, 4, 0, {}),
    ("pdf", 2, 3, 3, {}), ("pdf", 6, 4, 3, OU_BRIDGE), ("sde", 6, 4, 3, OU_BRIDGE)],
    ids=["pdf-holdout", "pdf", "sde-holdout", "sde", "pdf-short", "pdf-ou", "sde-ou"])
def test_fit_map_equals_collecting_every_trace_up_front(world, method, steps, batch, holdout,
                                                        bridge):
    samples = world.fit_samples[:40]  # the short case draws 6 of them at most
    hold = world.fit_samples[160:160 + holdout] or None
    cfg = FitMapConfig(method=method, max_steps=steps, batch_size=batch, eval_every=3,
                       seed=7, **bridge)
    net, history = fit_map(world.state, iter(samples), cfg, world.endpoints, holdout=hold)
    ref, ref_history = _fit_map_collecting_up_front(world.state, samples, cfg,
                                                    world.endpoints, holdout=hold)
    assert [(s, loss.hex()) for s, loss, _ in history] == \
        [(s, loss.hex()) for s, loss, _ in ref_history]
    assert [score.hex() for _, _, score in history] == \
        [score.hex() for _, _, score in ref_history]
    for a, b in zip(net.trainables(), ref.trainables()):
        assert a.data.tobytes() == b.data.tobytes()


def test_fit_map_runs_one_forward_per_drawn_sample_and_holdout_sample(world, monkeypatch):
    traced, costed = [], []
    traces, knots = latent_map.traces, latent_map._knot_matrix

    def counting_traces(state, pairs, pet=None):
        traced.extend(pairs)
        return traces(state, pairs, pet)

    def recording_knots(trace):
        costed.append(trace)  # kept alive, so identities stay distinct
        return knots(trace)

    monkeypatch.setattr(latent_map, "traces", counting_traces)
    monkeypatch.setattr(latent_map, "_knot_matrix", recording_knots)
    samples, hold = world.fit_samples[:100], world.fit_samples[100:105]
    cfg = FitMapConfig(method="sde", max_steps=4, batch_size=8, eval_every=4, seed=1)
    fit_map(world.state, samples, cfg, world.endpoints, holdout=hold)
    # every trace, holdout ones included, becomes the knot matrix that the
    # running costs read, once
    assert len(costed) == len({id(trace) for trace in costed})
    distinct = len(costed)
    assert len(traced) == distinct < len(samples)
    assert distinct > len(hold)


@pytest.mark.parametrize("bad", [
    ([5] * 11 + [99], 5, 3), ([5] * 39, 5, 3), ([], 5, 0), ([5, "a", 5], 5, 1),
    ([5, True, 5], 5, 1), ([5, 5, 5], 5, 3), ([5, 5, 5], -1, 1), ([5, 5, 5], 64, 1)],
    ids=["token-99", "39-tokens", "empty", "string-token", "bool-token", "mask-position",
         "target-minus-1", "target-64"])
def test_fit_map_rejects_a_bad_sample_that_no_batch_draws(world, bad):
    samples = list(world.fit_samples[:20]) + [bad]
    cfg = FitMapConfig(method="pdf", max_steps=0)
    with pytest.raises(ValueError):
        fit_map(world.state, samples, cfg, world.endpoints)
    fit_map(world.state, samples[:20], cfg, world.endpoints)


@pytest.mark.parametrize("target", [-1, 64], ids=["target-minus-1", "target-64"])
def test_fit_map_rejects_a_holdout_target_outside_the_endpoint_table(world, target):
    tokens, _, pos = world.fit_samples[20]
    hold = list(world.fit_samples[21:23]) + [(tokens, target, pos)]
    cfg = FitMapConfig(method="pdf", max_steps=1, batch_size=2, eval_every=1)
    with pytest.raises(ValueError, match="outside the endpoint table"):
        fit_map(world.state, world.fit_samples[:20], cfg, world.endpoints, holdout=hold)
    fit_map(world.state, world.fit_samples[:20], cfg, world.endpoints, holdout=hold[:2])


# ------------------------------------------------------------ save and load

def test_mapnet_save_load_round_trip(world, tmp_path):
    path = tmp_path / "map.bin"
    save_mapnet(path, replace(world.pdf_map, bridge=bridges.BridgeSpec(
        kind=bridges.OU, q=1.5, sigma=0.9)), "pdf", world.endpoints)
    net, endpoints, header = load_mapnet(path)
    assert header["method"] == "pdf"
    assert header["bridge_kind"] == bridges.OU
    assert header["q"] == 1.5 and header["sigma"] == 0.9
    assert (net.bridge.kind, net.bridge.q, net.bridge.sigma) == (bridges.OU, 1.5, 0.9)
    assert tuple(header["dims"]) == world.pdf_map.dims
    assert endpoints.eta == world.endpoints.eta
    assert endpoints.r == world.endpoints.r
    assert np.array_equal(endpoints.beta, world.endpoints.beta)
    for a, b in zip(net.trainables(), world.pdf_map.trainables()):
        assert np.array_equal(a.data, b.data)
        assert not a.requires_grad  # frozen, as a loaded backbone is
    assert net.time_augmented == world.pdf_map.time_augmented


def test_load_mapnet_rejects_other_snapshots(world_dir):
    with pytest.raises(SnapshotFormatError, match="not a 'mapnet' snapshot"):
        load_mapnet(world_dir / "backbone.bin")
