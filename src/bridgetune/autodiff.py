"""Minimal dense-tensor reverse-mode automatic differentiation with Adam.

Everything is float64. The graph is define-by-run: a tensor is its own
graph node, and each forward op stores on its output the parent tensors and
a closure computing the local gradient rule. The graph is rebuilt from
scratch on every forward pass. Frozen parameters are plain Tensors with
requires_grad=False; they never receive a gradient slot.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
_LN_EPS = 1e-5  # layer_norm's variance floor


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
    """Reduce a broadcast gradient to the operand's shape within each slice:
    the trailing axes where the operand has length 1 are summed. Leading
    axes the operand lacks stay, one gradient per sample of a stack, and
    backward sums them (sample by sample for a leaf)."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    for ax, s in enumerate(shape, start=lead):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _check_2d(op, *tensors):
    for t in tensors:
        if t.data.ndim != 2:
            raise ShapeMismatchError(f"{op}: expected 2-d input, got shape {t.data.shape}")


def _check_matrices(op, *tensors):
    """Each tensor a matrix or a stack of matrices (leading axes first)."""
    for t in tensors:
        if t.data.ndim < 2:
            raise ShapeMismatchError(f"{op}: expected at least 2-d input, got shape "
                                     f"{t.data.shape}")


def _head_shape(op, a, heads):
    """a's ... x d x N shape split into heads: ... x H x hd x N, hd = d / H."""
    _check_matrices(op, a)
    *lead, d, n = a.data.shape
    if heads < 1 or d % heads:
        raise ShapeMismatchError(f"{op}: {heads!r} heads for shape {a.data.shape}")
    return (*lead, heads, d // heads, n)


def _heads_grad(a, g):
    """a's gradient from the gradients g (... x H x hd x N) of its H heads'
    rows: a new C-contiguous array of what the per-head chain summed, one
    zero-filled full-size array per head. Those zeros turn -0.0 into 0.0
    once there are two or more heads, and so does adding 0.0 here."""
    full = np.empty(a.data.shape)
    full.reshape(g.shape)[...] = g
    if g.shape[-3] > 1:
        full += 0.0
    return full


# ---------------------------------------------------------------- ops

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b or, with bias, a @ b + bias in one node: the values, and the
    gradients in the order backward sums them, of add(matmul(a, b), bias).
    Operands may carry leading axes, which broadcast; numpy then runs one
    gemm per matrix slice, on the bytes and strides a 2-d call would see."""
    _check_matrices("matmul", a, b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(
            f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeMismatchError(
            f"matmul: leading axes differ, {a.data.shape} @ {b.data.shape}") from None

    parents = [a, b]
    if bias is not None:
        try:
            biased = out + bias.data
        except ValueError:
            biased = None
        if biased is None or biased.shape != out.shape:
            raise ShapeMismatchError(f"matmul: bias of shape {bias.data.shape} for {out.shape}")
        out = biased
        parents.append(bias)

    def grad_fn(g):
        grads = (_unbroadcast(g @ b.data.mT, a.data.shape) if a.requires_grad else None,
                 _unbroadcast(a.data.mT @ g, b.data.shape) if b.requires_grad else None)
        if bias is None:
            return grads
        return grads + (_unbroadcast(g, bias.data.shape) if bias.requires_grad else None,)

    return _make("matmul", parents, out, grad_fn)


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


def slice_rows(a: Tensor, start: int | None = None, stop: int | None = None, *,
               heads: int | None = None) -> Tensor:
    """Rows start:stop of a matrix, as a view. With heads=H, the ... x d x N
    states a as H heads of hd = d / H rows each, ... x H x hd x N, also a
    view: head j is slice_rows(a, j * hd, (j + 1) * hd), and the gradient is
    what those H nodes hand back summed."""
    if heads is not None:
        return _make("slice_rows", [a], a.data.reshape(_head_shape("slice_rows", a, heads)),
                     lambda g: (_heads_grad(a, g),))
    _check_2d("slice_rows", a)
    out = a.data[start:stop]

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _make("slice_rows", [a], out, grad_fn)


def gather_rows(a: Tensor, indices, axis: int = 0) -> Tensor:
    """The rows of a at indices or, with axis=1, its columns; an index may
    repeat. Either way the result is a new C-contiguous array.

    Two stacked forms hold each sample's bytes. B x N indices gather B
    samples' rows (B x N x ...), and the gradient is each sample's own
    scatter, B x ..., for backward to sum sample by sample. A B x d x N
    stack a with axis=1 and one index per sample picks each sample's
    column (B x d x 1), and each gradient slice has the layout of the
    one-column gather's gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim == 3 and axis == 1:
        return _pick_columns(a, idx)
    _check_2d("gather_rows", a)
    out = np.take(a.data, idx, axis=axis)

    def grad_fn(g):
        if axis == 0:
            if idx.ndim == 2:
                full = np.zeros((len(idx), *a.data.shape))
                np.add.at(full, (np.arange(len(idx))[:, None], idx), g)
                return (full,)
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            return (full,)
        # Scattered into a's transpose and returned as its transposed view:
        # the values and F layout of transpose, row gather, transpose.
        full = np.zeros(a.data.shape[::-1])
        np.add.at(full, idx, g.T)
        return (full.T,)

    return _make("gather_rows", [a], out, grad_fn)


def _pick_columns(a: Tensor, idx) -> Tensor:
    """gather_rows' per-sample column pick: column idx[b] of slice b."""
    b, _, n = a.data.shape
    if idx.shape != (b,) or not ((0 <= idx) & (idx < n)).all():
        raise ShapeMismatchError(f"gather_rows: columns {idx.tolist()} for stack {a.data.shape}")
    rows = np.arange(b)
    out = a.data[rows, :, idx].reshape(b, -1, 1)

    def grad_fn(g):  # each slice F-ordered, as the one-column gather's
        full = np.zeros((b, n, a.data.shape[1]))
        full[rows, idx] += g[..., 0]
        return (full.swapaxes(-1, -2),)

    return _make("gather_rows", [a], out, grad_fn)


def transpose(a: Tensor, *, heads: int | None = None, merge: bool = False) -> Tensor:
    """a with its last two axes swapped, as a new C-contiguous array.

    The head forms of attention, C-contiguous too, each stand for a chain
    of nodes per head, with its values, layouts and gradient sums.
    heads=H splits ... x d x N states into ... x H x N x hd, hd = d / H:
    head j is transpose(slice_rows(a, j * hd, (j + 1) * hd)). merge=True
    takes ... x H x N x hd head outputs back to ... x d x N: the transpose
    of the heads side by side, transpose(concat(heads, axis=1)), whose
    gradient reaches head j as the same view of the columns as through
    that concat."""
    if heads is not None:
        shape = _head_shape("transpose", a, heads)
        return _make("transpose", [a], a.data.reshape(shape).swapaxes(-1, -2).copy(),
                     lambda g: (_heads_grad(a, g.swapaxes(-1, -2)),))
    if merge:
        if a.data.ndim < 3:
            raise ShapeMismatchError(f"transpose: expected heads, got shape {a.data.shape}")
        *lead, h, n, hd = a.data.shape
        out = np.ascontiguousarray(a.data.swapaxes(-1, -2)).reshape(*lead, h * hd, n)
        return _make("transpose", [a], out,
                     lambda g: (g.reshape(*lead, h, hd, n).swapaxes(-1, -2),))
    _check_matrices("transpose", a)
    return _make("transpose", [a], a.data.mT.copy(), lambda g: (g.mT,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _make("softmax", [a], s, grad_fn)


def layer_norm(a: Tensor, axis: int = 0,
               gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize to zero mean, unit variance along axis. With gain and bias
    (given together), gain * y + bias in one node: the values, and the
    gradients in the order backward sums them, of
    add(elementwise_mul(gain, layer_norm(a)), bias)."""
    n = a.data.shape[axis]
    centred = a.data - _mean(a.data, axis, n)
    inv = 1.0 / np.sqrt(_mean(centred * centred, axis, n) + _LN_EPS)  # np.var's arithmetic
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
    is read through an argmax, takes the product; ROADMAP item 5a has a
    cheap cube that keeps x ** 3's bits for the other paths. Both forms
    share one gradient rule."""
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


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    """The sum of every element or, with axis=(-2, -1), of each matrix
    slice of a stack: each slice's sum has the bytes of that matrix's own."""
    out = np.asarray(a.data.sum(axis=axis))

    def grad_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make("sum", [a], out, grad_fn)


def log(a: Tensor) -> Tensor:
    return _make("log", [a], np.log(a.data), lambda g: (g / a.data,))


def cross_entropy_with_logits(logits: Tensor, target) -> Tensor:
    """Scalar -log softmax(logits)[target]; logits may be any shape with
    one element per class (flattened internally). With a sequence of B
    targets, logits is a stack of B slices, one target each, and the result
    the vector of their B losses, each with the bytes of its slice's own."""
    if not np.ndim(target):  # the one-slice stack, with a 0-d loss
        return _stacked_cross_entropy(logits, np.asarray([target], dtype=np.int64), ())
    targets = np.asarray(target, dtype=np.int64)
    if targets.ndim != 1 or logits.data.ndim < 2 or len(logits.data) != len(targets):
        raise ShapeMismatchError(f"cross_entropy_with_logits: {targets.shape} targets for "
                                 f"logits of shape {logits.data.shape}")
    return _stacked_cross_entropy(logits, targets, targets.shape)


def _stacked_cross_entropy(logits: Tensor, targets, shape) -> Tensor:
    """The losses of len(targets) slices of logits, one target each, as an
    array of the given shape."""
    n = len(targets)
    flat = logits.data.reshape(n, -1)
    if not ((0 <= targets) & (targets < flat.shape[1])).all():
        raise ShapeMismatchError(f"cross_entropy_with_logits: targets {targets.tolist()} "
                                 f"outside {flat.shape[1]} classes")
    rows = np.arange(n)
    m = flat.max(axis=1, keepdims=True)
    exps = np.exp(flat - m)
    z = exps.sum(axis=1, keepdims=True)
    out = (m[:, 0] + np.log(z[:, 0]) - flat[rows, targets]).reshape(shape)
    probs = exps / z

    def grad_fn(g):
        local = probs.copy()
        local[rows, targets] -= 1.0
        return ((np.reshape(g, (n, 1)) * local).reshape(logits.data.shape),)

    return _make("cross_entropy_with_logits", [logits], out, grad_fn)


_OP_KINDS = ("matmul", "add", "sub", "scalar_mul", "elementwise_mul", "mean_over_axis",
             "concat", "slice_rows", "gather_rows", "transpose", "softmax", "layer_norm",
             "gelu", "relu", "square", "sum", "log", "cross_entropy_with_logits")


def op_kinds():
    """The op_kind of every graph node an op of this module can record."""
    return sorted(_OP_KINDS)


# ---------------------------------------------------------------- backward

def _sum_samples(stacks):
    """The per-sample gradients that a leaf's stacks (one per use, from one
    stacked graph) hold, summed as one graph per sample sums them: sample
    by sample in batch order and, within a sample, its uses in the order
    they arrived, each term added to the running total as backward adds a
    gradient to a parent's."""
    terms = [s[b] for b in range(len(stacks[0])) for s in stacks]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def backward(root: Tensor) -> dict:
    """Reverse-topological accumulation from a scalar root.

    Returns a mapping tensor -> gradient ndarray covering every
    requires_grad ancestor of root.

    A gradient that reaches a parent with leading axes the parent lacks
    holds one gradient per sample of a stacked graph. A leaf keeps them
    until its last use and then sums them sample by sample in batch order
    (_sum_samples), the order in which one graph per sample would have
    summed them, so a stacked graph gives each weight the bytes of the
    per-sample graphs. A stack of one sample is that sample's gradient. A
    non-leaf sums the leading axes at once.
    """
    if root.data.size != 1:
        raise NonScalarRootError(f"root has shape {root.data.shape}")

    # Depth-first post-order from root; each node's parents are pushed in
    # order and so explored last to first. The gradients that reach a shared
    # parent are summed in the reverse of this order, and a float sum of
    # three or more terms depends on its order, so another topological order
    # would change the results. A node goes back on the stack under its
    # parents (done is False) and joins the order when popped again. uses
    # counts the edges into each leaf.
    topo = []
    done = {}
    uses = {}
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
                        if p.parents is None:
                            uses[p] = uses.get(p, 0) + 1
        elif not state:
            done[t] = True
            topo.append(t)

    grads = {root: np.ones_like(root.data)}
    waiting = {}  # leaf -> its stacks of per-sample gradients
    for t in reversed(topo):
        g = grads.get(t)
        if g is None or t.grad_fn is None:
            continue
        for p, pg in zip(t.parents, t.grad_fn(g)):
            if pg is None or not p.requires_grad:
                continue
            leaf = p.parents is None
            if pg.ndim > p.data.ndim:
                if not leaf:
                    while pg.ndim > p.data.ndim:
                        pg = pg.sum(axis=0)
                elif pg.ndim == p.data.ndim + 1 and len(pg) == 1:
                    pg = pg[0]
                else:
                    waiting.setdefault(p, []).append(pg.reshape(-1, *p.data.shape))
                    pg = None
            if pg is not None:
                prev = grads.get(p)
                grads[p] = pg if prev is None else prev + pg
            if leaf:
                # Fold a leaf's stacks at its last use, not after the walk, to
                # free them early: folding every leaf after the walk keeps every
                # float but raised tune_grid's peak_rss_mb from 53.5 to 57.0 MB
                # (benchmark, 2-core Xeon, 4 rounds a side).
                uses[p] -= 1
                if not uses[p] and p in waiting:
                    total = _sum_samples(waiting.pop(p))
                    prev = grads.get(p)
                    grads[p] = total if prev is None else prev + total

    if not root.requires_grad:  # every other entry is a requires_grad parent
        del grads[root]
    return grads


# ---------------------------------------------------------------- optimizer

_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8
CLIP_NORM = 1.0  # the global gradient norm that train_step clips to


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
    """Replace the gradients of params in grads by scaled copies so that
    their global norm is <= max_norm; returns the norm before scaling. The
    arrays themselves are left alone: backward may hand one array to two
    parameters (add gives both parents its gradient), and scaling in place
    would scale that array twice."""
    total = 0.0
    for p in params:
        g = grads[p]
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            grads[p] = grads[p] * scale
    return norm


def train_step(params, losses, adam: AdamState) -> float:
    """One optimizer step on the mean of the losses: backward, clip the
    global gradient norm to CLIP_NORM, then Adam. Returns the mean loss.

    losses is a list of scalar losses, one graph per sample, or the vector
    of a stacked graph's per-sample losses. Either way the mean is
    ((l0 + l1) + ...) * (1 / n), and each loss's gradient is exactly 1 / n.

    A NaN or infinite mean loss or pre-clip gradient norm raises
    NonFiniteError before adam_step, so params and adam are left as they were.
    """
    if isinstance(losses, Tensor):
        total = functools.reduce(operator.add, losses.data.tolist())
        loss = scalar_mul(_make("sum", [losses], np.asarray(total),
                                lambda g: (np.broadcast_to(g, losses.data.shape),)),
                          1.0 / len(losses.data))
    else:
        loss = losses[0]
        for extra in losses[1:]:
            loss = add(loss, extra)
        loss = scalar_mul(loss, 1.0 / len(losses))
    grads = backward(loss)
    norm = clip_gradients(params, grads, CLIP_NORM)
    value = loss.item()
    if not (math.isfinite(value) and math.isfinite(norm)):
        raise NonFiniteError(f"non-finite training step {adam.step_count + 1}: "
                             f"loss {value!r}, gradient norm {float(norm)!r}")
    adam_step(params, grads, adam)
    return value
