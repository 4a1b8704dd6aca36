"""Plain-numpy reference computations, written from the model's definition.

Nothing here imports the program under test: every function takes plain
arrays, so a fault planted in the program cannot leak into the reference.

Definitions (see the repository README and the source paper):

- Backbone: states are d x N column matrices. Embedding rows of the tokens
  plus position rows, transposed. L pre-LN residual layers, each
  ``h += attn(LN1(h)); h += ffn(LN2(h))`` where LN normalizes every column
  (eps 1e-5) and applies a per-row gain and bias. Attention has H heads of
  width d/H, scores ``(q_h^T k_h) / sqrt(d/H)`` with a softmax over keys.
  The FFN is ``w2 gelu(w1 x + b1) + b2`` with the tanh GELU
  ``0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))``. The head is tied:
  logits are ``embed @ h_L[:, mask]``. The trace keeps, for layers 0..L, the
  column at the mask position and the mean over all columns.
- PET hooks: prompt appends the rows of P as extra columns after the
  sequence; LoRA adds ``B (A x)`` to the query and value projections;
  BitFit replaces every linear and layer-norm bias; the adapter maps each
  sublayer output ``a`` to ``a + wu relu(wd a)`` before the residual add.
- MapNet: affine layers with ReLU between them, none after the last.
- Brownian bridge pinned at (0, 0) and (1, beta): the marginal at time t
  has mean ``t beta`` and per-coordinate variance ``t (1 - t)``. Latent
  point i of an L-layer trace sits at ``t_i = (i + 1) / (L + 2)``.
"""

from __future__ import annotations

import math

import numpy as np

GELU_CUBIC = 0.044715
LN_EPS = 1e-5


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + GELU_CUBIC * x ** 3)))


def layer_norm(x):
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS)


def softmax_rows(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def relu(x):
    return np.maximum(x, 0.0)


def forward(weights, num_layers, num_heads, tokens, mask_position,
            pet_kind=None, pet=None):
    """Returns (logits (V,), h_out (L+1, d), h_ctx (L+1, d)).

    weights: backbone name -> array; pet: PET tensor name -> array.
    """
    pet = pet or {}

    def bias(name):
        return pet[name] if pet_kind == "bitfit" else weights[name]

    def adapt(i, site, a):
        if pet_kind != "adapter":
            return a
        return a + pet[f"layer{i}.{site}.wu"] @ relu(pet[f"layer{i}.{site}.wd"] @ a)

    tokens = list(tokens)
    h = (weights["embed"][tokens] + weights["pos"][:len(tokens)]).T
    if pet_kind == "prompt":
        h = np.concatenate([h, pet["P"].T], axis=1)
    d = h.shape[0]
    hd = d // num_heads
    h_out, h_ctx = [h[:, mask_position]], [h.mean(axis=1)]
    for i in range(num_layers):
        p = f"layer{i}."
        x = weights[p + "ln1.gain"] * layer_norm(h) + bias(p + "ln1.bias")
        q = weights[p + "attn.wq"] @ x + bias(p + "attn.bq")
        k = weights[p + "attn.wk"] @ x + bias(p + "attn.bk")
        v = weights[p + "attn.wv"] @ x + bias(p + "attn.bv")
        if pet_kind == "lora":
            q = q + pet[f"layer{i}.q.B"] @ (pet[f"layer{i}.q.A"] @ x)
            v = v + pet[f"layer{i}.v.B"] @ (pet[f"layer{i}.v.A"] @ x)
        heads = []
        for j in range(num_heads):
            rows = slice(j * hd, (j + 1) * hd)
            att = softmax_rows((q[rows].T @ k[rows]) * (1.0 / math.sqrt(hd)))
            heads.append((att @ v[rows].T).T)
        attn = weights[p + "attn.wo"] @ np.concatenate(heads, axis=0) + bias(p + "attn.bo")
        h = h + adapt(i, "attn", attn)
        x = weights[p + "ln2.gain"] * layer_norm(h) + bias(p + "ln2.bias")
        ff = (weights[p + "ffn.w2"] @ gelu(weights[p + "ffn.w1"] @ x + bias(p + "ffn.b1"))
              + bias(p + "ffn.b2"))
        h = h + adapt(i, "ffn", ff)
        h_out.append(h[:, mask_position])
        h_ctx.append(h.mean(axis=1))
    logits = weights["embed"] @ h[:, mask_position]
    return logits, np.stack(h_out), np.stack(h_ctx)


def cross_entropy(logits, target):
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[target])


def predict(logits, label_words):
    """Argmax over the label words; a tie goes to the first in order."""
    best = label_words[0]
    for w in label_words[1:]:
        if logits[w] > logits[best]:
            best = w
    return best


def mapnet(weights, biases, x):
    """ReLU MLP on a column vector x."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = w @ h + b
        if i < len(weights) - 1:
            h = relu(h)
    return h


def latent_times(num_layers):
    return [(i + 1) / (num_layers + 2) for i in range(num_layers + 1)]


def latent_path(weights, biases, h_out, h_ctx):
    """Latent points u_i = MapNet([h_out_i; h_ctx_i]) for each trace row."""
    return [mapnet(weights, biases, np.concatenate([ho, hc])[:, None])[:, 0]
            for ho, hc in zip(h_out, h_ctx)]


def brownian_logpdf(t, x, beta):
    """Log-density of the Brownian bridge marginal at time t."""
    v = t * (1.0 - t)
    diff = x - t * beta
    return -0.5 * len(beta) * math.log(2.0 * math.pi * v) - float(diff @ diff) / (2.0 * v)


def goodness_pdf(weights, biases, h_out, h_ctx, beta):
    """Sum of the bridge marginal log-densities along the latent path."""
    times = latent_times(len(h_out) - 1)
    path = latent_path(weights, biases, h_out, h_ctx)
    return sum(brownian_logpdf(t, u, beta) for t, u in zip(times, path))


def bridge_distance(weights, biases, h_out, h_ctx, beta):
    """(sum over layers, per-layer mean) of ||u_i - t_i beta||^2 / (2 v_i)."""
    times = latent_times(len(h_out) - 1)
    path = latent_path(weights, biases, h_out, h_ctx)
    total = 0.0
    for t, u in zip(times, path):
        diff = u - t * beta
        total += float(diff @ diff) / (2.0 * t * (1.0 - t))
    return total, total / len(path)


def spline_weight_errors(W, knots, points):
    """A natural cubic spline reproduces constants and straight lines, so the
    rows of its weight matrix sum to 1 and map the knot positions onto the
    evaluation points. Returns the two largest absolute errors."""
    W = np.asarray(W, dtype=np.float64)
    row_sum = float(np.abs(W.sum(axis=1) - 1.0).max())
    linear = float(np.abs(W @ np.asarray(knots, dtype=np.float64)
                          - np.asarray(points, dtype=np.float64)).max())
    return row_sum, linear
