"""PET attachment identities, parameter budgets, and gradient isolation."""

import numpy as np
import pytest

import bridgetune.autodiff as ad
from bridgetune.backbone import (MASK_ID, ModelConfig, checksum, forward,
                                 freeze, init_backbone, param_count)
from bridgetune.pets import (PET_KINDS, AdapterParams, BitfitParams,
                             LoraParams, PetConfig, PromptLengthError,
                             PromptParams, adapter_forward, attach_prompt,
                             build_pet, load_pet, save_pet)


@pytest.fixture
def frozen():
    cfg = ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, vocab_size=16,
                      max_seq_len=12, ffn_dim=12)
    state = init_backbone(cfg, np.random.default_rng(0))
    # nonzero biases so bias-replacement effects are visible
    for name, t in state.tensors.items():
        if name.endswith(("bias", "bq", "bk", "bv", "bo", "b1", "b2")):
            t.data[...] = np.random.default_rng(hash(name) % 2**32).normal(
                0.0, 0.1, size=t.data.shape)
    return freeze(state)


def _pet(kind, state, seed=1, **kw):
    return build_pet(PetConfig(kind=kind, **kw), state, np.random.default_rng(seed))


# ------------------------------------------------------------- budgets

def test_default_parameter_budgets():
    cfg = ModelConfig()
    state = freeze(init_backbone(cfg, np.random.default_rng(0)))
    counts = {kind: _pet(kind, state).param_count() for kind in PET_KINDS}
    assert counts == {"prompt": 8 * 32,
                      "lora": 4 * 2 * (4 * 32 + 32 * 4),
                      "bitfit": 4 * (4 * 32 + 256 + 32 + 2 * 32),
                      "adapter": 4 * 2 * (8 * 32 + 32 * 8)}
    assert counts == {"prompt": 256, "lora": 2048, "bitfit": 1920,
                      "adapter": 4096}
    backbone = param_count(state)
    assert backbone == 87168
    for kind, c in counts.items():
        assert c < 0.05 * backbone


def test_config_validation():
    with pytest.raises(ValueError):
        PetConfig(kind="prefix")
    with pytest.raises(ValueError):
        PetConfig(kind="prompt", prompt_len=0)
    with pytest.raises(ValueError):
        PetConfig(kind="lora", r_lora=0)
    cfg = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, vocab_size=16,
                      max_seq_len=8, ffn_dim=8)
    state = freeze(init_backbone(cfg, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        _pet("lora", state, r_lora=8)  # rank must stay below hidden_dim


# ------------------------------------------------------------- op oracles

def _lora_forward(W, A, B, x):
    """The frozen projection plus LoraParams.qv_delta, as backbone.forward
    adds them, with A and B loaded into a one-layer LoRA."""
    d, r = B.shape
    model = ModelConfig(num_layers=1, hidden_dim=d, num_heads=1)
    pet = LoraParams(PetConfig(kind="lora", r_lora=r), model, np.random.default_rng(0))
    pet.load_tensors({"layer0.q.A": A, "layer0.q.B": B})
    x = ad.Tensor(x)
    return ad.add(ad.matmul(ad.Tensor(W), x), pet.qv_delta(0, "q", x)).data


def test_lora_forward_hand_example():
    out = _lora_forward(np.eye(2), np.array([[1.0, 0.0]]), np.array([[0.0], [1.0]]),
                        np.array([[1.0], [0.0]]))
    assert np.array_equal(out, np.array([[1.0], [1.0]]))


def test_lora_forward_zero_b_is_frozen_path():
    rng = np.random.default_rng(2)
    W = rng.standard_normal((4, 4))
    A = rng.standard_normal((2, 4))
    x = rng.standard_normal((4, 1))
    assert np.array_equal(_lora_forward(W, A, np.zeros((4, 2)), x), W @ x)


def test_lora_delta_rank_bound():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 6))
    B = rng.standard_normal((6, 2))
    assert np.linalg.matrix_rank(B @ A) <= 2


def test_adapter_forward_hand_example():
    W_d = ad.Tensor(np.eye(2))
    W_u = ad.Tensor(np.eye(2))
    h = ad.Tensor(np.array([[1.0], [-1.0]]))
    out = adapter_forward(h, W_d, W_u)
    assert np.array_equal(out.data, np.array([[2.0], [-1.0]]))


def test_adapter_zero_up_is_identity():
    rng = np.random.default_rng(4)
    W_d = ad.Tensor(rng.standard_normal((3, 5)))
    W_u = ad.Tensor(np.zeros((5, 3)))
    h = ad.Tensor(rng.standard_normal((5, 2)))
    assert np.array_equal(adapter_forward(h, W_d, W_u).data, h.data)


def test_adapter_output_in_up_span():
    rng = np.random.default_rng(5)
    W_d = ad.Tensor(rng.standard_normal((2, 6)))
    W_u = ad.Tensor(rng.standard_normal((6, 2)))
    h = ad.Tensor(rng.standard_normal((6, 1)))
    delta = adapter_forward(h, W_d, W_u).data - h.data
    # delta must be a combination of W_u's two columns
    coeffs, *_ = np.linalg.lstsq(W_u.data, delta, rcond=None)
    assert np.allclose(W_u.data @ coeffs, delta, atol=1e-10)


def test_attach_prompt_shape_and_overflow():
    P = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    h = ad.Tensor(np.zeros((3, 4)))
    out = attach_prompt(P, h, max_seq_len=6)
    assert out.data.shape == (3, 6)
    assert np.array_equal(out.data[:, 4:], P.data.T)
    assert np.array_equal(out.data[:, :4], h.data)
    with pytest.raises(PromptLengthError):
        attach_prompt(P, h, max_seq_len=5)


# --------------------------------------------------- identity at init

def test_lora_and_adapter_identity_at_init(frozen):
    tokens = [1, 2, MASK_ID, 3]
    base, base_trace = forward(frozen, tokens, 2)
    for kind in ("lora", "adapter"):
        logits, trace = forward(frozen, tokens, 2, pet=_pet(kind, frozen))
        assert np.array_equal(logits.data, base.data), kind
        for a, b in zip(trace.h_out, base_trace.h_out):
            assert np.array_equal(a.data, b.data), kind


def test_bitfit_identity_at_init(frozen):
    tokens = [1, 2, MASK_ID, 3]
    base, _ = forward(frozen, tokens, 2)
    logits, _ = forward(frozen, tokens, 2, pet=_pet("bitfit", frozen))
    assert np.array_equal(logits.data, base.data)


def test_prompt_changes_context_not_mask_embedding(frozen):
    tokens = [1, 2, MASK_ID, 3]
    _, base_trace = forward(frozen, tokens, 2)
    pet = _pet("prompt", frozen, prompt_len=4)
    _, trace = forward(frozen, tokens, 2, pet=pet)
    # layer-0 state at the mask is still the mask embedding column
    assert np.array_equal(trace.h_out[0].data, base_trace.h_out[0].data)
    # but the layer-0 context mean now includes the prompt columns
    assert not np.array_equal(trace.h_ctx[0].data, base_trace.h_ctx[0].data)


def test_prompt_overflow_through_forward(frozen):
    pet = _pet("prompt", frozen, prompt_len=4)
    with pytest.raises(PromptLengthError):
        forward(frozen, list(range(10)), 0, pet=pet)


# --------------------------------------------------- gradient isolation

@pytest.mark.parametrize("kind", PET_KINDS)
def test_only_pet_parameters_receive_gradients(frozen, kind):
    pet = _pet(kind, frozen)
    logits, _ = forward(frozen, [1, 2, MASK_ID, 3], 2, pet=pet)
    grads = ad.backward(ad.cross_entropy_with_logits(logits, 5))
    pet_leaves = set(pet.trainables())
    backbone_leaves = set(frozen.tensors.values())
    grad_leaves = set(grads) & (pet_leaves | backbone_leaves)
    assert grad_leaves <= pet_leaves
    assert not (set(grads) & backbone_leaves)
    # every trainable is actually reached (B/W_u factors included via chain)
    missing = pet_leaves - set(grads)
    assert not missing, f"{kind}: {len(missing)} trainables got no gradient"


@pytest.mark.parametrize("kind", PET_KINDS)
def test_training_leaves_backbone_untouched(frozen, kind):
    before = checksum(frozen)
    pet = _pet(kind, frozen, prompt_len=4)
    params = pet.trainables()
    adam = ad.AdamState(params, 1e-2)
    rng = np.random.default_rng(6)
    for _ in range(6):
        tokens = list(rng.integers(1, frozen.config.vocab_size, size=5))
        tokens.append(MASK_ID)
        target = int(rng.integers(1, frozen.config.vocab_size))
        logits, _ = forward(frozen, tokens, len(tokens) - 1, pet=pet)
        grads = ad.backward(ad.cross_entropy_with_logits(logits, target))
        ad.clip_gradients(params, grads, 1.0)
        ad.adam_step(params, grads, adam)
    assert checksum(frozen) == before


def test_bitfit_params_are_clones(frozen):
    table = _pet("bitfit", frozen).tensors
    assert len(table) == 8 * frozen.config.num_layers
    for name, t in table.items():
        assert t.requires_grad
        assert np.array_equal(t.data, frozen[name].data)
        t.data[...] += 1.0
        assert not np.array_equal(t.data, frozen[name].data)  # no aliasing


def test_bitfit_zero_biases_match_biasless_backbone(frozen):
    pet = _pet("bitfit", frozen)
    for t in pet.tensors.values():
        t.data[...] = 0.0
    tokens = [1, 2, MASK_ID, 3]
    with_pet, _ = forward(frozen, tokens, 2, pet=pet)
    stripped = init_backbone(frozen.config, np.random.default_rng(9))
    for name, t in frozen.tensors.items():
        stripped.tensors[name].data[...] = t.data
    for name in pet.tensors:
        stripped.tensors[name].data[...] = 0.0
    bare, _ = forward(freeze(stripped), tokens, 2)
    assert np.array_equal(with_pet.data, bare.data)


# --------------------------------------------------- persistence

@pytest.mark.parametrize("kind", PET_KINDS)
def test_save_load_round_trip(tmp_path, frozen, kind):
    pet = _pet(kind, frozen, seed=7)
    for t in pet.tensors.values():  # make values distinctive
        t.data[...] += np.random.default_rng(8).normal(size=t.data.shape)
    path = tmp_path / f"{kind}.bin"
    save_pet(path, pet)
    loaded = load_pet(path, frozen)
    assert loaded.kind == kind
    assert loaded.config == pet.config
    assert list(loaded.tensors) == list(pet.tensors)
    for name in pet.tensors:
        assert np.array_equal(loaded.tensors[name].data, pet.tensors[name].data)


def test_build_pet_deterministic(frozen):
    for kind in PET_KINDS:
        a = _pet(kind, frozen, seed=3)
        b = _pet(kind, frozen, seed=3)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].data, b.tensors[name].data)


def test_lora_b_and_adapter_up_start_at_zero(frozen):
    lora = _pet("lora", frozen)
    assert all(np.all(t.data == 0.0) for n, t in lora.tensors.items()
               if n.endswith(".B"))
    assert any(np.any(t.data != 0.0) for n, t in lora.tensors.items()
               if n.endswith(".A"))
    adapter = _pet("adapter", frozen)
    assert all(np.all(t.data == 0.0) for n, t in adapter.tensors.items()
               if n.endswith(".wu"))
