"""Gradient and optimizer checks for the reverse-mode engine.

Every op is finite-difference checked over many random trials; structural
properties (DAG accumulation, graph suppression, optimizer arithmetic) get
direct oracles.
"""

import math

import numpy as np
import pytest

import bridgetune.autodiff as ad
from bridgetune import backbone, latent_map, pipeline, tasks
from bridgetune.pets import PET_KINDS, PetConfig, build_pet

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
        an = grads[t]
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
        _check_op(lambda a, b, c: _scalarize(ad.matmul(a, b, bias=c)),
                  [(m, k), (k, n), (m, 1)], rng)


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
        _check_op(lambda a: _scalarize(ad.gather_rows(a, idx, axis=1)), [(3, 5)], rng)


def test_transpose_grad(rng):
    for _ in range(N_TRIALS):
        _check_op(lambda a: _scalarize(ad.transpose(a)), [(4, 2)], rng)
        _check_op(lambda a: _scalarize(ad.transpose(a, slice(1, 4))), [(6, 3)], rng)


def test_softmax_grad(rng):
    for axis in (0, 1, -1):
        for _ in range(N_TRIALS):
            _check_op(lambda a: _scalarize(ad.softmax(a, axis)), [(3, 4)], rng)


def test_layer_norm_grad(rng):
    for axis in (0, 1):
        for _ in range(N_TRIALS):
            _check_op(lambda a: _scalarize(ad.layer_norm(a, axis)), [(4, 3)], rng)
    for _ in range(N_TRIALS):
        _check_op(lambda gain, a, bias: _scalarize(ad.layer_norm(a, gain=gain, bias=bias)),
                  [(4, 1), (4, 3), (4, 1)], rng)


def test_gelu_grad(rng):
    for _ in range(N_TRIALS):
        _check_op(lambda a: _scalarize(ad.gelu(a)), [(3, 3)], rng, scale=2.0)


@pytest.mark.parametrize("product_cube", [False, True], ids=["power", "product"])
def test_gelu_forms_equal_the_tanh_formula_in_bytes(product_cube):
    # Both forms against the tanh GELU written out here, on mixed signs
    # (where power and product differ); they share one gradient rule.
    rng = np.random.default_rng(30)
    x = rng.normal(0.0, 2.0, size=(256, 13))
    g = rng.normal(size=x.shape)
    c = np.sqrt(2.0 / np.pi)
    cube = x * x * x if product_cube else x ** 3
    t = np.tanh(c * (x + 0.044715 * cube))
    a = ad.Tensor(x, requires_grad=True)
    out = ad.gelu(a, product_cube=True) if product_cube else ad.gelu(a)
    assert out.data.tobytes() == (0.5 * x * (1.0 + t)).tobytes()
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * (c * (1.0 + 3 * 0.044715 * x ** 2))
    (grad,) = out.grad_fn(g)
    assert grad.tobytes() == (g * local).tobytes()
    other = ad.gelu(a) if product_cube else ad.gelu(a, product_cube=True)
    assert np.abs(out.data - other.data).max() <= 1e-15 * np.abs(x).max()


def test_gelu_power_and_product_cubes_differ_in_last_bits():
    x = np.random.default_rng(30).normal(0.0, 2.0, size=(256, 13))
    assert not np.array_equal(x * x * x, x ** 3)


def test_relu_grad(rng):
    for _ in range(N_TRIALS):
        # keep probes away from the kink at zero
        t = ad.Tensor(rng.standard_normal((3, 3)) + np.sign(rng.standard_normal((3, 3))) * 0.5,
                      requires_grad=True)
        loss = _scalarize(ad.relu(t))
        grads = ad.backward(loss)
        fd = _fd_grad(lambda: float(_scalarize(ad.relu(t)).data), t.data)
        assert np.allclose(grads[t], fd, atol=FD_TOL)


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
    assert np.all(np.isfinite(grads[logits]))


def test_dag_reuse_accumulates(rng):
    # y = sum((x + x)^2) has gradient 8x; the shared parent must be visited once
    x = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    loss = ad.tensor_sum(ad.square(ad.add(x, x)))
    grads = ad.backward(loss)
    assert np.allclose(grads[x], 8.0 * x.data, atol=1e-12)


def test_deep_chain_matches_closed_form():
    x = ad.Tensor(np.array([[1.5]]), requires_grad=True)
    y = x
    for _ in range(40):
        y = ad.scalar_mul(y, 0.9)
    loss = ad.tensor_sum(y)
    grads = ad.backward(loss)
    assert abs(grads[x].item() - 0.9**40) < 1e-15


def test_backward_requires_scalar_root(rng):
    x = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ad.NonScalarRootError):
        ad.backward(ad.add(x, x))


def test_backward_skips_non_grad_leaves(rng):
    a = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=False)
    grads = ad.backward(ad.tensor_sum(ad.elementwise_mul(a, b)))
    assert a in grads
    assert b not in grads


@pytest.mark.parametrize("op", [ad.matmul, ad.add, ad.sub, ad.elementwise_mul])
def test_binary_grad_rules_skip_frozen_parents(rng, op):
    # A frozen parent gets no gradient computed, on either side.
    frozen = ad.Tensor(rng.standard_normal((3, 3)))
    for trainable_first in (True, False):
        x = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        out = op(x, frozen) if trainable_first else op(frozen, x)
        grads = out.grad_fn(np.ones((3, 3)))
        assert (grads[1] is None) == trainable_first
        assert (grads[0] is None) != trainable_first


def test_no_grad_suppresses_graph(rng):
    a = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.add(a, a)
    assert out.parents is None and out.grad_fn is None
    out2 = ad.add(a, a)
    assert out2.parents is not None and out2.grad_fn is not None


def test_shape_mismatch_raises(rng):
    a = ad.Tensor(rng.standard_normal((2, 3)))
    b = ad.Tensor(rng.standard_normal((2, 3)))
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(a, b)
    bt = ad.Tensor(b.data.T)
    with pytest.raises(ad.ShapeMismatchError):
        ad.matmul(a, bt, bias=ad.Tensor(np.zeros((3, 1))))
    with pytest.raises(ad.ShapeMismatchError):  # a bias may not widen the product
        ad.matmul(a, bt, bias=ad.Tensor(np.zeros((2, 2, 2))))
    with pytest.raises(ValueError):
        ad.layer_norm(a, gain=ad.Tensor(np.ones((2, 1))))


def test_apply_dispatch_covers_all_ops():
    expected = {"matmul", "add", "sub", "scalar_mul", "elementwise_mul",
                "mean_over_axis", "concat", "slice_rows", "gather_rows",
                "transpose", "softmax", "layer_norm", "gelu", "relu",
                "square", "sum", "log", "cross_entropy_with_logits"}
    assert set(ad.op_kinds()) == expected
    assert ad.op_kinds() == sorted(expected)


def test_adam_first_step_oracle():
    # one step from zero moments: update = lr * g / (sqrt(g^2) + eps) after
    # bias correction, so each coordinate moves by almost exactly lr
    x = ad.Tensor(np.array([[2.0, -3.0]]), requires_grad=True)
    before = x.data.copy()
    lr = 0.05
    adam = ad.AdamState([x], lr)
    loss = ad.tensor_sum(ad.square(x))
    grads = ad.backward(loss)
    g = grads[x].copy()
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
        g = grads[x].item()
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
    assert np.all(grads[x] == 0.0)
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
    grads = {x: np.array([[3.0]]), y: np.array([[4.0]])}
    ad.clip_gradients([x, y], grads, 1.0)  # norm was 5
    assert abs(grads[x].item() - 0.6) < 1e-12
    assert abs(grads[y].item() - 0.8) < 1e-12


def test_clip_leaves_small_gradients_alone():
    x = ad.Tensor(np.array([[0.3]]), requires_grad=True)
    grads = {x: np.array([[0.3]])}
    ad.clip_gradients([x], grads, 1.0)
    assert grads[x].item() == 0.3


def test_backward_deterministic(rng):
    data = rng.standard_normal((4, 4))
    outs = []
    for _ in range(2):
        x = ad.Tensor(data.copy(), requires_grad=True)
        loss = ad.tensor_sum(ad.square(ad.softmax(ad.matmul(x, x), axis=0)))
        grads = ad.backward(loss)
        outs.append(grads[x].copy())
    assert np.array_equal(outs[0], outs[1])


# ---------------------------------------------------------------- train_step

def _step_problem(seed):
    """Two trainable matrices and a frozen input; three per-sample losses."""
    rng = np.random.default_rng(seed)
    w = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    x = ad.Tensor(rng.standard_normal((4, 3)))

    def losses():
        h = ad.gelu(ad.add(ad.matmul(w, x), b))
        return [ad.cross_entropy_with_logits(ad.slice_rows(ad.transpose(h), j, j + 1), j)
                for j in range(3)]

    return [w, b], losses


@pytest.mark.parametrize("max_norm", [1e-3, 1e3], ids=["clipped", "unclipped"])
def test_train_step_matches_hand_written_sequence(max_norm):
    hand_params, hand_losses = _step_problem(3)
    step_params, step_losses = _step_problem(3)
    hand_adam = ad.AdamState(hand_params, 0.05)
    step_adam = ad.AdamState(step_params, 0.05)
    for _ in range(4):
        losses = hand_losses()
        loss = losses[0]
        for extra in losses[1:]:
            loss = ad.add(loss, extra)
        loss = ad.scalar_mul(loss, 1.0 / len(losses))
        grads = ad.backward(loss)
        ad.clip_gradients(hand_params, grads, max_norm)
        ad.adam_step(hand_params, grads, hand_adam)
        assert ad.train_step(step_params, step_losses(), step_adam, max_norm) == loss.item()
    assert step_adam.step_count == hand_adam.step_count == 4
    for p, q in zip(hand_params, step_params):
        assert p.data.tobytes() == q.data.tobytes()
        assert (hand_adam.first_moment[p].tobytes()
                == step_adam.first_moment[q].tobytes())
        assert (hand_adam.second_moment[p].tobytes()
                == step_adam.second_moment[q].tobytes())


@pytest.mark.parametrize("scale, value", [
    (math.nan, "nan"), (math.inf, "inf"), (1e200, "gradient norm inf"),
], ids=["nan-loss", "inf-loss", "inf-gradient-norm"])
def test_train_step_non_finite_raises_leaving_state_unchanged(scale, value):
    # scale 1e200 keeps the loss finite (2.0) while each squared gradient
    # overflows, so only the pre-clip norm is infinite
    x = ad.Tensor(np.array([[1e-200], [1e-200]]) if scale == 1e200 else np.ones((2, 1)),
                  requires_grad=True)
    adam = ad.AdamState([x], 0.1)
    with np.errstate(all="ignore"):  # as the training loops run train_step
        ad.train_step([x], [ad.tensor_sum(ad.scalar_mul(x, 1.0))], adam, 1.0)
        before = x.data.tobytes()
        moments = (adam.first_moment[x].tobytes(), adam.second_moment[x].tobytes())
        with pytest.raises(ad.NonFiniteError, match=f"step 2: .*{value}"):
            ad.train_step([x], [ad.tensor_sum(ad.scalar_mul(x, scale))], adam, 1.0)
    assert x.data.tobytes() == before
    assert adam.step_count == 1
    assert (adam.first_moment[x].tobytes(),
            adam.second_moment[x].tobytes()) == moments


# ---------------------------------------------------------------- bit identity
# References written out here, so that each test holds on any CPU.


def _random_array(rng, shape, fortran):
    data = rng.standard_normal(shape) * rng.uniform(0.01, 100.0) + rng.uniform(-5.0, 5.0)
    return np.asfortranarray(data) if fortran else data


def test_layer_norm_and_mean_over_axis_equal_numpy_mean_var_bytes(rng):
    for trial in range(400):
        shape = tuple(rng.integers(1, 48, size=2))
        axis = trial % 2
        x = ad.Tensor(_random_array(rng, shape, fortran=trial % 4 >= 2), requires_grad=True)
        g = _random_array(rng, shape, fortran=trial % 3 == 0)
        inv = 1.0 / np.sqrt(x.data.var(axis=axis, keepdims=True) + 1e-5)
        y = (x.data - x.data.mean(axis=axis, keepdims=True)) * inv
        dx = inv * (g - g.mean(axis=axis, keepdims=True)
                    - y * (g * y).mean(axis=axis, keepdims=True))
        out = ad.layer_norm(x, axis=axis)
        assert out.data.tobytes() == y.tobytes()
        assert out.grad_fn(g)[0].tobytes() == dx.tobytes()
        mean = ad.mean_over_axis(x, axis)
        assert mean.data.tobytes() == x.data.mean(axis=axis, keepdims=True).tobytes()


def _chain_and_node(kind, a):
    """(one-node op, the chain of older ops it stands for) on a."""
    cols = [2, 0, 4]
    if kind == "column-gather":
        return (ad.gather_rows(a, cols, axis=1),
                ad.transpose(ad.gather_rows(ad.transpose(a), cols)))
    if kind == "row-slice-transpose":
        return ad.transpose(a, slice(1, 4)), ad.transpose(ad.slice_rows(a, 1, 4))
    # merged heads: 2 heads of N x 3 outputs, side by side then transposed
    heads = [ad.slice_rows(a, 0, 3), ad.slice_rows(a, 3, 6)]
    heads = [ad.transpose(h) for h in heads]
    return (ad.transpose(ad.concat(heads, axis=1)),
            ad.concat([ad.transpose(h) for h in heads], axis=0))


@pytest.mark.parametrize("kind", ["column-gather", "row-slice-transpose", "merged-heads"])
def test_one_node_ops_equal_their_chains_in_values_and_layout(rng, kind):
    for trial in range(10):
        a = ad.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        node, chain = _chain_and_node(kind, a)
        assert node.data.tobytes() == chain.data.tobytes()
        assert node.data.strides == chain.data.strides
        g = rng.standard_normal(node.data.shape)
        if trial % 2:
            g = np.asfortranarray(g)
        grads = [ad.backward(ad.tensor_sum(ad.elementwise_mul(out, ad.Tensor(g))))[a]
                 for out in (node, chain)]
        assert grads[0].tobytes() == grads[1].tobytes()
        assert grads[0].strides == grads[1].strides


AFFINE_LEAVES = ("x", "gain", "beta", "wq", "bq", "wk", "bk", "wv", "bv")


def _affine_block(leaves, fused):
    """A layer's start: a layer norm with gain and bias feeding three biased
    projections, so that three gradients meet at the normalized states. In
    one-node forms or as the chains those stand for."""
    t = leaves
    if fused:
        h = ad.layer_norm(t["x"], gain=t["gain"], bias=t["beta"])
        return h, [ad.matmul(t[f"w{p}"], h, bias=t[f"b{p}"]) for p in "qkv"]
    h = ad.add(ad.elementwise_mul(t["gain"], ad.layer_norm(t["x"])), t["beta"])
    return h, [ad.add(ad.matmul(t[f"w{p}"], h), t[f"b{p}"]) for p in "qkv"]


@pytest.mark.parametrize("frozen", [(), ("gain", "wk"), ("x",), ("x", "gain", "wq", "wk", "wv")],
                         ids=["all-trainable", "gain-wk-frozen", "x-frozen", "biases-only"])
def test_fused_affine_forms_equal_their_chains_in_values_layout_and_sums(rng, frozen):
    for trial in range(10):
        d, n = (int(v) for v in rng.integers(1, 9, size=2))
        shapes = {"x": (d, n), "gain": (d, 1), "beta": (d, 1)}
        shapes.update({f"{k}{p}": (d, d) if k == "w" else (d, 1) for p in "qkv" for k in "wb"})
        data = {k: _random_array(rng, shapes[k], fortran=False) for k in AFFINE_LEAVES}
        cotangents = [_random_array(rng, (d, n), fortran=trial % 2 == 1) for _ in "qkv"]
        results = []
        for fused in (True, False):
            leaves = {k: ad.Tensor(v.copy(), requires_grad=k not in frozen)
                      for k, v in data.items()}
            h, outs = _affine_block(leaves, fused)
            parts = [ad.tensor_sum(ad.elementwise_mul(o, ad.Tensor(c)))
                     for o, c in zip(outs, cotangents)]
            grads = ad.backward(ad.add(ad.add(parts[0], parts[1]), parts[2]))
            results.append(([h.data] + [o.data for o in outs],
                            {k: grads[t] for k, t in leaves.items() if t in grads}))
        (fused_out, fused_grads), (chain_out, chain_grads) = results
        for a, b in zip(fused_out, chain_out):
            assert a.tobytes() == b.tobytes() and a.strides == b.strides
        assert list(fused_grads) == list(chain_grads) == [k for k in AFFINE_LEAVES
                                                          if k not in frozen]
        for k, g in chain_grads.items():
            assert fused_grads[k].tobytes() == g.tobytes(), k
            assert fused_grads[k].strides == g.strides, k


def test_pretraining_sample_graph_has_125_nodes(monkeypatch):
    """forward (its trace included) and the cross-entropy record 124 nodes
    per sample; the loss sum adds one per sample after the first, and the
    mean's scale one more."""
    kinds = []
    make = ad._make

    def counting_make(op_kind, parents, out_data, grad_fn):
        kinds.append(op_kind)
        return make(op_kind, parents, out_data, grad_fn)

    monkeypatch.setattr(ad, "_make", counting_make)
    _pretrain_batch_graph()
    assert len(kinds) == 8 * 125


def _dfs_backward(root):
    """Reference: the depth-first walk with (tensor, expanded) stack entries,
    gradients summed into each parent in reverse post-order."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if t in seen:
            continue
        seen.add(t)
        stack.append((t, True))
        if t.parents is not None:
            stack.extend((p, False) for p in t.parents if p.requires_grad)
    grads = {root: np.ones_like(root.data)}
    for t in reversed(topo):
        g = grads.get(t)
        if g is None or t.grad_fn is None:
            continue
        for p, pg in zip(t.parents, t.grad_fn(g)):
            if pg is not None and p.requires_grad:
                grads[p] = grads[p] + pg if p in grads else pg
    return {t: g for t, g in grads.items() if t.requires_grad}


def _mean_loss(losses):
    loss = losses[0]
    for extra in losses[1:]:
        loss = ad.add(loss, extra)
    return ad.scalar_mul(loss, 1.0 / len(losses))


def _pretrain_batch_graph():
    """train_step's root over one pretraining batch, every weight trainable."""
    rng = np.random.default_rng(5)
    state = backbone.init_backbone(backbone.ModelConfig(), rng)
    corpus = tasks.make_pretrain_corpus(8, 12, rng)
    return _mean_loss([ad.cross_entropy_with_logits(backbone.forward(state, m, p)[0], t)
                       for m, t, p in backbone.mlm_samples(corpus, rng)])


def _train_pet_graph(method, kind):
    """train_step's root over one train_pet batch with the bridge running cost."""
    rng = np.random.default_rng(6)
    config = backbone.ModelConfig()
    state = backbone.freeze(backbone.init_backbone(config, rng))
    pet = build_pet(PetConfig(kind=kind), state, rng)
    mapnet = latent_map.new_mapnet(2 * config.hidden_dim + (method == "sde"), (16, 8), 4,
                                   rng, time_augmented=method == "sde")
    endpoints = latent_map.build_endpoints(state["embed"].data, r=4)
    cfg = pipeline.TrainConfig(method=method, alpha=0.3)
    losses = []
    for s in tasks.make_task_dataset(2, 10, 0.35, rng):
        logits, trace = backbone.forward(state, s.tokens, s.mask_position, pet=pet)
        losses.append(pipeline.total_loss(logits, s.label_word, trace, mapnet, endpoints,
                                          cfg, rng)[0])
    return _mean_loss(losses)


@pytest.mark.parametrize("graph", ["pretrain"] + [f"{m}-{k}" for m in ("pdf", "sde")
                                                  for k in PET_KINDS])
def test_backward_equals_depth_first_reference_bytes(graph):
    root = _pretrain_batch_graph() if graph == "pretrain" else _train_pet_graph(*graph.split("-"))
    expect = _dfs_backward(root)
    got = ad.backward(root)
    assert list(got) == list(expect)
    for t, g in expect.items():
        assert got[t].shape == g.shape
        assert got[t].tobytes() == g.tobytes()
