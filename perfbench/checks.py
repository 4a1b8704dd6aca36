"""Checks of the program's outputs against the plain-numpy references.

Each function takes the program's own objects, turns them into plain
arrays and compares them with ``reference``. Errors are returned as numbers
so that a run report shows how far off a failing check was.
"""

from __future__ import annotations

import math

import numpy as np

import reference
from bridgetune import autodiff as ad
from bridgetune import backbone, bridges, latent_map, spline

TOL = 1e-10


def arrays(tensors):
    return {name: t.data for name, t in tensors.items()}


def trace_arrays(trace):
    """(L+1) x d matrices of a HiddenTrace, rows are layers."""
    return (np.hstack([t.data for t in trace.h_out]).T,
            np.hstack([t.data for t in trace.h_ctx]).T)


def _scaled_error(got, want):
    got = np.asarray(got, dtype=np.float64).reshape(-1)
    want = np.asarray(want, dtype=np.float64).reshape(-1)
    return float(np.abs(got - want).max() / max(1.0, float(np.abs(want).max())))


def forward_error(state, pet, inputs):
    """Largest relative difference between the program's forward (logits
    and both trace matrices) and the reference, over (tokens, mask) pairs."""
    cfg = state.config
    weights = arrays(state.tensors)
    kind = pet.kind if pet is not None else None
    pet_arrays = arrays(pet.tensors) if pet is not None else None
    worst = 0.0
    with ad.no_grad():
        for tokens, mask in inputs:
            logits, trace = backbone.forward(state, tokens, mask, pet=pet)
            ref_logits, ref_out, ref_ctx = reference.forward(
                weights, cfg.num_layers, cfg.num_heads, tokens, mask, kind, pet_arrays)
            h_out, h_ctx = trace_arrays(trace)
            worst = max(worst, _scaled_error(logits.data, ref_logits),
                        _scaled_error(h_out, ref_out), _scaled_error(h_ctx, ref_ctx))
    return worst


def reference_accuracy(state, pet, samples, label_words):
    """Accuracy of argmax-over-label-words on reference logits."""
    cfg = state.config
    weights = arrays(state.tensors)
    kind = pet.kind if pet is not None else None
    pet_arrays = arrays(pet.tensors) if pet is not None else None
    label_words = sorted(label_words)
    hits = 0
    for s in samples:
        logits, _, _ = reference.forward(weights, cfg.num_layers, cfg.num_heads,
                                         s.tokens, s.mask_position, kind, pet_arrays)
        hits += int(reference.predict(logits, label_words) == s.label_word)
    return hits / len(samples)


def reference_mlm_loss(state, masked):
    """Mean masked-token cross-entropy from reference logits."""
    cfg = state.config
    weights = arrays(state.tensors)
    total = 0.0
    for tokens, target, pos in masked:
        logits, _, _ = reference.forward(weights, cfg.num_layers, cfg.num_heads, tokens, pos)
        total += reference.cross_entropy(logits, target)
    return total / len(masked)


def _map_arrays(mapnet):
    return [w.data for w in mapnet.weights], [b.data for b in mapnet.biases]


def brownian_spec(endpoints, label):
    return bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=endpoints.row(label), horizon=1.0)


def goodness_pdf_error(mapnet, endpoints, traces):
    """traces: (HiddenTrace, label) pairs."""
    weights, biases = _map_arrays(mapnet)
    worst = 0.0
    for trace, label in traces:
        got = latent_map.goodness_pdf(mapnet, trace, brownian_spec(endpoints, label)).item()
        want = reference.goodness_pdf(weights, biases, *trace_arrays(trace),
                                      endpoints.row(label))
        worst = max(worst, _scaled_error(got, want))
    return worst


def bridge_distance_error(mapnet, endpoints, rows, distances):
    """rows: (h_out, h_ctx, label) as stored in a probe file; distances:
    the program's (total, per-layer) for the same rows."""
    weights, biases = _map_arrays(mapnet)
    worst = 0.0
    for (h_out, h_ctx, label), got in zip(rows, distances, strict=True):
        want = reference.bridge_distance(weights, biases, h_out, h_ctx, endpoints.row(label))
        worst = max(worst, _scaled_error(got, want))
    return worst


def goodness_sde_values(mapnet, endpoints, traces, n_steps, seed):
    rng = np.random.default_rng(seed)
    return [latent_map.goodness_sde(mapnet, trace, brownian_spec(endpoints, label),
                                    n_steps, rng).item()
            for trace, label in traces]


def spline_error(num_layers, n_steps):
    """Natural-spline weights from the trace knots 0..L to the simulation
    grid x = (L + 2) t - 1, t = k / n_steps, as goodness_sde uses them."""
    knots = np.arange(num_layers + 1, dtype=np.float64)
    points = (num_layers + 2) * (np.arange(n_steps - 1) / n_steps) - 1.0
    return max(reference.spline_weight_errors(spline.interp_weights(knots, points),
                                              knots, points))


def all_finite(values):
    return all(math.isfinite(v) for v in values)
