"""Minimal dense-tensor reverse-mode automatic differentiation with Adam.

Everything is float64. The graph is define-by-run: a tensor is its own
graph node, and each forward op stores on its output the parent tensors and
a closure computing the local gradient rule. The graph is rebuilt from
scratch on every forward pass. Frozen parameters are plain Tensors with
requires_grad=False; they never receive a gradient slot.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np


class ShapeMismatchError(ValueError):
    """An op received inputs whose shapes do not conform."""


class NonScalarRootError(ValueError):
    """backward() was called on a tensor with more than one element."""


class MissingGradientError(KeyError):
    """adam_step() was handed a parameter with no gradient entry."""


class NonFiniteError(FloatingPointError):
    """A training step's loss or gradient norm is NaN or infinite."""


_grad_enabled = True
_FLOAT64 = np.dtype(np.float64)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    return _grad_enabled


class Tensor:
    """Dense float64 array participating in the computation graph.

    A Tensor is immutable once created, except for in-place parameter
    updates performed between graph lifetimes (adam_step). An op's output
    is its own graph node: grad_fn maps its gradient to a tuple aligned with
    parents (None for a parent that needs none). Both are None for leaves
    and under no_grad.
    """

    __slots__ = ("data", "requires_grad", "parents", "grad_fn")

    def __init__(self, data, requires_grad=False):
        # np.asarray returns a float64 ndarray unchanged; skipping the call
        # saves its overhead on every graph node
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.parents = None
        self.grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(op_kind, parents, out_data, grad_fn):  # op_kind is for wrappers
    for p in parents:
        if p.requires_grad:
            out = Tensor(out_data, True)
            if _grad_enabled:
                out.parents = parents
                out.grad_fn = grad_fn
            return out
    return Tensor(out_data)


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _check_2d(op, *tensors):
    for t in tensors:
        if t.data.ndim != 2:
            raise ShapeMismatchError(f"{op}: expected 2-d input, got shape {t.data.shape}")


# ---------------------------------------------------------------- ops

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b or, with bias, a @ b + bias in one node: the values, and the
    gradients in the order backward sums them, of add(matmul(a, b), bias)."""
    _check_2d("matmul", a, b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    if bias is None:
        def grad_fn(g):
            return (g @ b.data.T if a.requires_grad else None,
                    a.data.T @ g if b.requires_grad else None)

        return _make("matmul", [a, b], out, grad_fn)

    try:
        biased = out + bias.data
    except ValueError:
        biased = None
    if biased is None or biased.shape != out.shape:
        raise ShapeMismatchError(f"matmul: bias of shape {bias.data.shape} for {out.shape}")
    out = biased

    def grad_fn(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None,
                _unbroadcast(g, bias.data.shape) if bias.requires_grad else None)

    return _make("matmul", [a, b, bias], out, grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatchError(f"add: shapes {a.data.shape} and {b.data.shape}")

    def grad_fn(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make("add", [a, b], out, grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeMismatchError(f"sub: shapes {a.data.shape} and {b.data.shape}")

    def grad_fn(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _make("sub", [a, b], out, grad_fn)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("scalar_mul", [a], c * a.data, lambda g: (c * g,))


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatchError(
            f"elementwise_mul: shapes {a.data.shape} and {b.data.shape}")

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make("elementwise_mul", [a, b], out, grad_fn)


def _mean(x, axis, n):
    """x.mean(axis, keepdims=True) bit for bit (np.mean is this sum over n),
    without np.mean's Python overhead; n is x.shape[axis]."""
    return np.add.reduce(x, axis=axis, keepdims=True) / n


def mean_over_axis(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]
    out = _mean(a.data, axis, n)

    def grad_fn(g):
        return (np.broadcast_to(g / n, a.data.shape).copy(),)

    return _make("mean_over_axis", [a], out, grad_fn)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    edges = list(itertools.accumulate((t.data.shape[axis] for t in tensors), initial=0))
    lead = (slice(None),) * (axis % out.ndim)

    def grad_fn(g):  # the views np.split would give, without its overhead
        return tuple(g[lead + (slice(lo, hi),)] for lo, hi in zip(edges, edges[1:]))

    return _make("concat", tensors, out, grad_fn)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    _check_2d("slice_rows", a)
    out = a.data[start:stop]

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _make("slice_rows", [a], out, grad_fn)


def gather_rows(a: Tensor, indices, axis: int = 0) -> Tensor:
    """The rows of a at indices or, with axis=1, its columns; an index may
    repeat. Either way the result is a new C-contiguous array."""
    _check_2d("gather_rows", a)
    idx = np.asarray(indices, dtype=np.int64)
    out = np.take(a.data, idx, axis=axis)

    def grad_fn(g):
        if axis == 0:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            return (full,)
        # Scattered into a's transpose and returned as its transposed view:
        # the values and F layout of transpose, row gather, transpose.
        full = np.zeros(a.data.shape[::-1])
        np.add.at(full, idx, g.T)
        return (full.T,)

    return _make("gather_rows", [a], out, grad_fn)


def transpose(a: Tensor, rows: slice | None = None) -> Tensor:
    """a.T as a new C-contiguous array or, with a slice of rows, the
    transpose of those rows: slice_rows and transpose in one node, with
    their values and layouts."""
    _check_2d("transpose", a)
    if rows is None:
        return _make("transpose", [a], a.data.T.copy(), lambda g: (g.T,))

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[rows] = g.T
        return (full,)

    return _make("transpose", [a], a.data[rows].T.copy(), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _make("softmax", [a], s, grad_fn)


def layer_norm(a: Tensor, axis: int = 0, eps: float = 1e-5,
               gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize to zero mean, unit variance along axis. With gain and bias
    (given together), gain * y + bias in one node: the values, and the
    gradients in the order backward sums them, of
    add(elementwise_mul(gain, layer_norm(a)), bias)."""
    n = a.data.shape[axis]
    centred = a.data - _mean(a.data, axis, n)
    inv = 1.0 / np.sqrt(_mean(centred * centred, axis, n) + eps)  # np.var's arithmetic
    y = centred * inv

    def normalized_grad(g):
        gm = _mean(g, axis, n)
        gy = _mean(g * y, axis, n)
        return inv * (g - gm - y * gy)

    if gain is None and bias is None:
        return _make("layer_norm", [a], y, lambda g: (normalized_grad(g),))
    if gain is None or bias is None:
        raise ValueError("layer_norm: gain and bias go together")
    try:
        out = gain.data * y + bias.data
    except ValueError:
        raise ShapeMismatchError(f"layer_norm: gain {gain.data.shape} and bias "
                                 f"{bias.data.shape} for {y.shape}")

    def grad_fn(g):
        return (_unbroadcast(g * y, gain.data.shape) if gain.requires_grad else None,
                normalized_grad(_unbroadcast(g * gain.data, y.shape))
                if a.requires_grad else None,
                _unbroadcast(g, bias.data.shape) if bias.requires_grad else None)

    return _make("layer_norm", [gain, a, bias], out, grad_fn)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor, *, product_cube: bool = False) -> Tensor:
    """The tanh approximation of GELU. Its cube is x ** 3, or x * x * x
    with product_cube: numpy's power takes a slow path on negative bases,
    and the product differs in the last bits. Only packed inference, which
    is read through an argmax, takes the product; this keyword goes once the
    training paths take it too (ROADMAP item 5a). Both forms share one
    gradient rule."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x if product_cube else x ** 3))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def grad_fn(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner
        return (g * local,)

    return _make("gelu", [a], out, grad_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _make("relu", [a], a.data * mask, grad_fn)


def square(a: Tensor) -> Tensor:
    return _make("square", [a], a.data ** 2, lambda g: (2.0 * a.data * g,))


def tensor_sum(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def grad_fn(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make("sum", [a], out, grad_fn)


def log(a: Tensor) -> Tensor:
    return _make("log", [a], np.log(a.data), lambda g: (g / a.data,))


def cross_entropy_with_logits(logits: Tensor, target: int) -> Tensor:
    """Scalar -log softmax(logits)[target]; logits may be any shape with
    one element per class (flattened internally)."""
    flat = logits.data.reshape(-1)
    target = int(target)
    if not 0 <= target < flat.size:
        raise ShapeMismatchError(
            f"cross_entropy_with_logits: target {target} outside {flat.size} classes")
    m = flat.max()
    exps = np.exp(flat - m)
    z = exps.sum()
    out = np.asarray(m + np.log(z) - flat[target])
    probs = exps / z

    def grad_fn(g):
        local = probs.copy()
        local[target] -= 1.0
        return (float(g) * local.reshape(logits.data.shape),)

    return _make("cross_entropy_with_logits", [logits], out, grad_fn)


_OP_KINDS = ("matmul", "add", "sub", "scalar_mul", "elementwise_mul", "mean_over_axis",
             "concat", "slice_rows", "gather_rows", "transpose", "softmax", "layer_norm",
             "gelu", "relu", "square", "sum", "log", "cross_entropy_with_logits")


def op_kinds():
    """The op_kind of every graph node an op of this module can record."""
    return sorted(_OP_KINDS)


# ---------------------------------------------------------------- backward

def backward(root: Tensor) -> dict:
    """Reverse-topological accumulation from a scalar root.

    Returns a mapping tensor -> gradient ndarray covering every
    requires_grad ancestor of root.
    """
    if root.data.size != 1:
        raise NonScalarRootError(f"root has shape {root.data.shape}")

    # Depth-first post-order from root; each node's parents are pushed in
    # order and so explored last to first. The gradients that reach a shared
    # parent are summed in the reverse of this order, and a float sum of
    # three or more terms depends on its order, so another topological order
    # would change the results. A node goes back on the stack under its
    # parents (done is False) and joins the order when popped again.
    topo = []
    done = {}
    stack = [root]
    while stack:
        t = stack.pop()
        state = done.get(t)
        if state is None:
            done[t] = False
            stack.append(t)
            if t.parents is not None:
                for p in t.parents:
                    if p.requires_grad:
                        stack.append(p)
        elif not state:
            done[t] = True
            topo.append(t)

    grads = {root: np.ones_like(root.data)}
    for t in reversed(topo):
        g = grads.get(t)
        if g is None or t.grad_fn is None:
            continue
        for p, pg in zip(t.parents, t.grad_fn(g)):
            if pg is None or not p.requires_grad:
                continue
            prev = grads.get(p)
            grads[p] = pg if prev is None else prev + pg

    if not root.requires_grad:  # every other entry is a requires_grad parent
        del grads[root]
    return grads


# ---------------------------------------------------------------- optimizer

_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


class AdamState:
    """Adam with bias correction; moments keyed by parameter tensor."""

    def __init__(self, params, learning_rate):
        self.first_moment = {p: np.zeros_like(p.data) for p in params}
        self.second_moment = {p: np.zeros_like(p.data) for p in params}
        self.step_count = 0
        self.learning_rate = float(learning_rate)


def adam_step(params, grads, state: AdamState):
    """One in-place Adam update of params; grads maps tensor -> gradient
    ndarray, as backward returns it."""
    for i, p in enumerate(params):
        if p not in grads:
            raise MissingGradientError(f"no gradient for parameter {i} of shape {p.data.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for p in params:
        g = grads[p]
        m = state.first_moment[p]
        v = state.second_moment[p]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _EPSILON)
    return params, state


def clip_gradients(params, grads, max_norm: float):
    """Scale the gradient arrays of params in place so that their global
    norm is <= max_norm; returns the norm before scaling."""
    total = 0.0
    for p in params:
        g = grads[p]
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            grads[p] *= scale
    return norm


def train_step(params, losses, adam: AdamState, max_norm: float) -> float:
    """One optimizer step on the mean of the scalar losses: backward, clip
    the global gradient norm to max_norm, then Adam. Returns the mean loss.

    A NaN or infinite mean loss or pre-clip gradient norm raises
    NonFiniteError before adam_step, so params and adam are left as they were.
    """
    loss = losses[0]
    for extra in losses[1:]:
        loss = add(loss, extra)
    loss = scalar_mul(loss, 1.0 / len(losses))
    grads = backward(loss)
    norm = clip_gradients(params, grads, max_norm)
    value = loss.item()
    if not (math.isfinite(value) and math.isfinite(norm)):
        raise NonFiniteError(f"non-finite training step {adam.step_count + 1}: "
                             f"loss {value!r}, gradient norm {float(norm)!r}")
    adam_step(params, grads, adam)
    return value
