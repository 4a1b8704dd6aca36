"""Gradient and optimizer checks for the reverse-mode engine.

Every op is finite-difference checked over many random trials; structural
properties (DAG accumulation, graph suppression, optimizer arithmetic) get
direct oracles.
"""

import numpy as np
import pytest

import bridgetune.autodiff as ad

RNG_SEED = 20240817
FD_EPS = 1e-6
FD_TOL = 1e-4
N_TRIALS = 25


def _fd_grad(fn, x, eps=FD_EPS):
    """Central-difference gradient of scalar fn at x, elementwise."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        old = flat_x[i]
        flat_x[i] = old + eps
        up = fn()
        flat_x[i] = old - eps
        down = fn()
        flat_x[i] = old
        flat_g[i] = (up - down) / (2 * eps)
    return g


def _check_op(build, shapes, rng, scale=1.0, positive=False):
    """FD-check a scalar-valued graph builder against backward()."""
    tensors = []
    for shape in shapes:
        data = rng.standard_normal(shape) * scale
        if positive:
            data = np.abs(data) + 0.5
        tensors.append(ad.Tensor(data, requires_grad=True))
    loss = build(*tensors)
    grads = ad.backward(loss)
    for t in tensors:
        fd = _fd_grad(lambda: float(build(*tensors).data), t.data)
        an = grads[t.node_id].data
        denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(an)))
        assert np.max(np.abs(fd - an) / denom) < FD_TOL


def _scalarize(t):
    return ad.tensor_sum(ad.square(t))


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)


def test_matmul_grad(rng):
    for _ in range(N_TRIALS):
        m, k, n = rng.integers(1, 5, size=3)
        _check_op(lambda a, b: _scalarize(ad.matmul(a, b)), [(m, k), (k, n)], rng)


def test_add_sub_grad(rng):
    for _ in range(N_TRIALS):
        m, n = rng.integers(1, 5, size=2)
        _check_op(lambda a, b: _scalarize(ad.add(a, b)), [(m, n), (m, n)], rng)
        _check_op(lambda a, b: _scalarize(ad.sub(a, b)), [(m, n), (m, n)], rng)


def test_add_broadcast_grad(rng):
    for _ in range(N_TRIALS):
        m, n = rng.integers(1, 5, size=2)
        _check_op(lambda a, b: _scalarize(ad.add(a, b)), [(m, n), (m, 1)], rng)


def test_scalar_mul_grad(rng):
    for _ in range(N_TRIALS):
        c = float(rng.standard_normal())
        _check_op(lambda a: _scalarize(ad.scalar_mul(a, c)), [(3, 2)], rng)


def test_elementwise_mul_grad(rng):
    for _ in range(N_TRIALS):
        m, n = rng.integers(1, 5, size=2)
        _check_op(lambda a, b: _scalarize(ad.elementwise_mul(a, b)),
                  [(m, n), (m, n)], rng)


def test_mean_over_axis_grad(rng):
    for axis in (0, 1):
        for _ in range(N_TRIALS):
            m, n = rng.integers(2, 6, size=2)
            _check_op(lambda a: _scalarize(ad.mean_over_axis(a, axis)),
                      [(m, n)], rng)


def test_concat_grad(rng):
    for axis in (0, 1):
        for _ in range(N_TRIALS):
            if axis == 0:
                shapes = [(2, 3), (4, 3), (1, 3)]
            else:
                shapes = [(3, 2), (3, 1), (3, 4)]
            _check_op(lambda *ts: _scalarize(ad.concat(ts, axis)), shapes, rng)


def test_slice_rows_grad(rng):
    for _ in range(N_TRIALS):
        _check_op(lambda a: _scalarize(ad.slice_rows(a, 1, 4)), [(6, 3)], rng)


def test_gather_rows_grad(rng):
    # repeated index: gradients must accumulate, not overwrite
    idx = np.array([0, 2, 2, 4])
    for _ in range(N_TRIALS):
        _check_op(lambda a: _scalarize(ad.gather_rows(a, idx)), [(5, 3)], rng)


def test_transpose_grad(rng):
    for _ in range(N_TRIALS):
        _check_op(lambda a: _scalarize(ad.transpose(a)), [(4, 2)], rng)


def test_softmax_grad(rng):
    for axis in (0, 1, -1):
        for _ in range(N_TRIALS):
            _check_op(lambda a: _scalarize(ad.softmax(a, axis)), [(3, 4)], rng)


def test_layer_norm_grad(rng):
    for axis in (0, 1):
        for _ in range(N_TRIALS):
            _check_op(lambda a: _scalarize(ad.layer_norm(a, axis)), [(4, 3)], rng)


def test_gelu_grad(rng):
    for _ in range(N_TRIALS):
        _check_op(lambda a: _scalarize(ad.gelu(a)), [(3, 3)], rng, scale=2.0)


def test_relu_grad(rng):
    for _ in range(N_TRIALS):
        # keep probes away from the kink at zero
        t = ad.Tensor(rng.standard_normal((3, 3)) + np.sign(rng.standard_normal((3, 3))) * 0.5,
                      requires_grad=True)
        loss = _scalarize(ad.relu(t))
        grads = ad.backward(loss)
        fd = _fd_grad(lambda: float(_scalarize(ad.relu(t)).data), t.data)
        assert np.allclose(grads[t.node_id].data, fd, atol=FD_TOL)


def test_square_sum_grad(rng):
    for _ in range(N_TRIALS):
        _check_op(lambda a: ad.tensor_sum(ad.square(a)), [(3, 4)], rng)


def test_log_grad(rng):
    for _ in range(N_TRIALS):
        _check_op(lambda a: ad.tensor_sum(ad.log(a)), [(3, 3)], rng, positive=True)


def test_cross_entropy_grad(rng):
    for _ in range(N_TRIALS):
        target = int(rng.integers(0, 6))
        _check_op(lambda a: ad.cross_entropy_with_logits(a, target),
                  [(6, 1)], rng, scale=3.0)


def test_cross_entropy_matches_log_softmax(rng):
    logits = ad.Tensor(rng.standard_normal((5, 1)) * 2.0)
    target = 3
    loss = ad.cross_entropy_with_logits(logits, target)
    z = logits.data[:, 0]
    expected = -(z[target] - np.log(np.sum(np.exp(z))))
    assert abs(float(loss.data) - expected) < 1e-12


def test_cross_entropy_extreme_logits_stable():
    logits = ad.Tensor(np.array([[1000.0], [0.0], [-1000.0]]), requires_grad=True)
    loss = ad.cross_entropy_with_logits(logits, 0)
    assert np.isfinite(float(loss.data))
    grads = ad.backward(loss)
    assert np.all(np.isfinite(grads[logits.node_id].data))


def test_dag_reuse_accumulates(rng):
    # y = sum((x + x)^2) has gradient 8x; the shared parent must be visited once
    x = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    loss = ad.tensor_sum(ad.square(ad.add(x, x)))
    grads = ad.backward(loss)
    assert np.allclose(grads[x.node_id].data, 8.0 * x.data, atol=1e-12)


def test_deep_chain_matches_closed_form():
    x = ad.Tensor(np.array([[1.5]]), requires_grad=True)
    y = x
    for _ in range(40):
        y = ad.scalar_mul(y, 0.9)
    loss = ad.tensor_sum(y)
    grads = ad.backward(loss)
    assert abs(grads[x.node_id].data.item() - 0.9**40) < 1e-15


def test_backward_requires_scalar_root(rng):
    x = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ad.NonScalarRootError):
        ad.backward(ad.add(x, x))


def test_backward_skips_non_grad_leaves(rng):
    a = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=False)
    grads = ad.backward(ad.tensor_sum(ad.elementwise_mul(a, b)))
    assert a.node_id in grads
    assert b.node_id not in grads


@pytest.mark.parametrize("op", [ad.matmul, ad.add, ad.sub, ad.elementwise_mul])
def test_binary_grad_rules_skip_frozen_parents(rng, op):
    # A frozen parent gets no gradient computed, on either side.
    frozen = ad.Tensor(rng.standard_normal((3, 3)))
    for trainable_first in (True, False):
        x = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        out = op(x, frozen) if trainable_first else op(frozen, x)
        grads = out.node.grad_fn(np.ones((3, 3)))
        assert (grads[1] is None) == trainable_first
        assert (grads[0] is None) != trainable_first


def test_no_grad_suppresses_graph(rng):
    a = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.add(a, a)
    assert out.node is None
    out2 = ad.add(a, a)
    assert out2.node is not None


def test_shape_mismatch_raises(rng):
    a = ad.Tensor(rng.standard_normal((2, 3)))
    b = ad.Tensor(rng.standard_normal((2, 3)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(a, b)


def test_apply_dispatch_covers_all_ops(rng):
    expected = {"matmul", "add", "sub", "scalar_mul", "elementwise_mul",
                "mean_over_axis", "concat", "slice_rows", "gather_rows",
                "transpose", "softmax", "layer_norm", "gelu", "relu",
                "square", "sum", "log", "cross_entropy_with_logits"}
    assert set(ad.op_kinds()) == expected
    a = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    out = ad.apply("scalar_mul", [a], c=2.0)
    assert np.allclose(out.data, 2.0 * a.data)
    with pytest.raises(KeyError):
        ad.apply("unknown_op", [a])


def test_adam_first_step_oracle():
    # one step from zero moments: update = lr * g / (sqrt(g^2) + eps) after
    # bias correction, so each coordinate moves by almost exactly lr
    x = ad.Tensor(np.array([[2.0, -3.0]]), requires_grad=True)
    before = x.data.copy()
    lr = 0.05
    adam = ad.AdamState([x], lr)
    loss = ad.tensor_sum(ad.square(x))
    grads = ad.backward(loss)
    g = grads[x.node_id].data.copy()
    ad.adam_step([x], grads, adam)
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expected = before - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(x.data, expected, atol=1e-15)


def test_adam_second_step_oracle():
    x = ad.Tensor(np.array([[1.0]]), requires_grad=True)
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    adam = ad.AdamState([x], lr)
    m = v = 0.0
    expected = x.data.item()
    for t in (1, 2):
        loss = ad.tensor_sum(ad.square(x))
        grads = ad.backward(loss)
        g = grads[x.node_id].data.item()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
        ad.adam_step([x], grads, adam)
        assert abs(x.data.item() - expected) < 1e-15


def test_adam_zero_grad_is_fixed_point():
    x = ad.Tensor(np.array([[5.0]]), requires_grad=True)
    c = ad.Tensor(np.array([[1.0]]), requires_grad=True)
    adam = ad.AdamState([x, c], 0.1)
    # loss ignores x entirely; its gradient is exactly zero
    loss = ad.tensor_sum(ad.square(ad.add(c, ad.scalar_mul(x, 0.0))))
    grads = ad.backward(loss)
    assert np.all(grads[x.node_id].data == 0.0)
    ad.adam_step([x, c], grads, adam)
    assert x.data.item() == 5.0


def test_adam_missing_grad_raises():
    x = ad.Tensor(np.array([[1.0]]), requires_grad=True)
    adam = ad.AdamState([x], 0.1)
    with pytest.raises(ad.MissingGradientError):
        ad.adam_step([x], {}, adam)


def test_clip_rescales_above_max():
    x = ad.Tensor(np.array([[3.0]]), requires_grad=True)
    y = ad.Tensor(np.array([[4.0]]), requires_grad=True)
    grads = {x.node_id: ad.Tensor(np.array([[3.0]])),
             y.node_id: ad.Tensor(np.array([[4.0]]))}
    ad.clip_gradients([x, y], grads, 1.0)  # norm was 5
    assert abs(grads[x.node_id].data.item() - 0.6) < 1e-12
    assert abs(grads[y.node_id].data.item() - 0.8) < 1e-12


def test_clip_leaves_small_gradients_alone():
    x = ad.Tensor(np.array([[0.3]]), requires_grad=True)
    grads = {x.node_id: ad.Tensor(np.array([[0.3]]))}
    ad.clip_gradients([x], grads, 1.0)
    assert grads[x.node_id].data.item() == 0.3


def test_backward_deterministic(rng):
    data = rng.standard_normal((4, 4))
    outs = []
    for _ in range(2):
        x = ad.Tensor(data.copy(), requires_grad=True)
        loss = ad.tensor_sum(ad.square(ad.softmax(ad.matmul(x, x), axis=0)))
        grads = ad.backward(loss)
        outs.append(grads[x.node_id].data.copy())
    assert np.array_equal(outs[0], outs[1])
