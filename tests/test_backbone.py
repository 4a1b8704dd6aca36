"""Backbone structure, trace extraction, training, and persistence."""

import numpy as np
import pytest

import bridgetune.autodiff as ad
from bridgetune.backbone import (MASK_ID, PACK_COLUMNS, ModelConfig,
                                 PretrainConfig, bias_names, check_input, checksum,
                                 forward, freeze, init_backbone, load_backbone,
                                 mask_logits, masked_accuracy, mlm_samples,
                                 pretrain_mlm, save_backbone, traces)
from bridgetune.pets import PET_KINDS, PetConfig, PromptLengthError, build_pet
from bridgetune.tasks import make_pretrain_corpus


@pytest.fixture
def tiny():
    cfg = ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, vocab_size=16,
                      max_seq_len=10, ffn_dim=12)
    return cfg, init_backbone(cfg, np.random.default_rng(0))


def test_param_count_default_config():
    cfg = ModelConfig()
    state = init_backbone(cfg, np.random.default_rng(0))
    d, dff, L, V, S = 32, 256, 4, 64, 32
    per_layer = 4 * d * d + 4 * d + 2 * d * dff + dff + d + 4 * d
    assert sum(t.data.size for t in state.tensors.values()) \
        == V * d + S * d + L * per_layer == 87168


def test_config_validates_head_divisibility():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=10, num_heads=4)


def test_check_input_refuses_what_forward_cannot_embed(tiny):
    cfg, state = tiny
    assert check_input(cfg, (1, 2, 3)) == [1, 2, 3]
    for tokens in ([1, 16], [-1], list(range(11))):
        with pytest.raises(ValueError):
            check_input(cfg, tokens)
        with pytest.raises(ValueError):
            forward(state, tokens, 0)


def test_forward_shapes_and_trace(tiny):
    cfg, state = tiny
    logits, trace = forward(state, [1, 2, MASK_ID, 3], 2)
    assert logits.data.shape == (16, 1)
    assert len(trace.h_out) == cfg.num_layers + 1
    assert len(trace.h_ctx) == cfg.num_layers + 1
    for ho, hc in zip(trace.h_out, trace.h_ctx):
        assert ho.data.shape == (8, 1)
        assert hc.data.shape == (8, 1)


def test_forward_rejects_bad_mask_position(tiny):
    _, state = tiny
    with pytest.raises(ValueError):
        forward(state, [1, 2, 3], 3)
    with pytest.raises(ValueError):
        forward(state, [1, 2, 3], -1)


def test_trace_layer0_is_embedding(tiny):
    _, state = tiny
    tokens = [5, MASK_ID, 7]
    logits, trace = forward(state, tokens, 1)
    # column j is token embedding + position embedding, transposed
    h = (state["embed"].data[tokens] + state["pos"].data[:len(tokens)]).T
    assert np.allclose(trace.h_out[0].data[:, 0], h[:, 1])
    assert np.allclose(trace.h_ctx[0].data[:, 0], h.mean(axis=1))


def test_zero_weights_make_layers_identity(tiny):
    # with every weight matrix zeroed the sublayers output only their zero
    # biases, so residual streams carry the embedding through unchanged
    cfg, state = tiny
    for name, t in state.tensors.items():
        if ".w" in name or name.endswith(("wq", "wk", "wv", "wo")):
            if "gain" not in name:
                t.data[...] = 0.0
    state.tensors["embed"].data[...] = np.random.default_rng(1).normal(
        size=state["embed"].data.shape)
    tokens = [1, 2, 3]
    logits, trace = forward(state, tokens, 0)
    for i in range(1, len(trace.h_out)):
        assert np.array_equal(trace.h_out[i].data, trace.h_out[0].data)
    expect = state["embed"].data @ trace.h_out[0].data
    assert np.allclose(logits.data, expect)


def test_tied_head_uses_embedding_matrix(tiny):
    _, state = tiny
    logits, trace = forward(state, [3, MASK_ID], 1)
    assert np.allclose(logits.data, state["embed"].data @ trace.h_out[-1].data)


def test_bias_names_cover_all_biases(tiny):
    cfg, state = tiny
    names = bias_names(cfg)
    assert len(names) == 8 * cfg.num_layers
    assert len(set(names)) == len(names)
    for name in names:
        assert name in state.tensors
        assert np.all(state[name].data == 0.0)  # biases start at zero
    # no weight matrix sneaks in
    assert all(".w" not in n.rsplit(".", 1)[-1] for n in names)


def test_freeze_and_checksum(tiny):
    _, state = tiny
    freeze(state)
    assert all(not t.requires_grad for t in state.tensors.values())
    a = checksum(state)
    assert a == checksum(state)
    state["embed"].data[0, 0] += 1.0
    assert checksum(state) != a


def test_mlm_samples_mask_and_target():
    corpus = make_pretrain_corpus(30, 9, np.random.default_rng(2))
    samples = mlm_samples(corpus, np.random.default_rng(3))
    assert len(samples) == 30
    for (tokens, target, pos), seq in zip(samples, corpus):
        assert tokens[pos] == MASK_ID
        assert target == seq[pos]
        assert tokens[:pos] == seq[:pos] and tokens[pos + 1:] == seq[pos + 1:]
    again = mlm_samples(corpus, np.random.default_rng(3))
    assert again == samples


def test_pretrain_deterministic():
    cfg = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, vocab_size=16,
                      max_seq_len=10, ffn_dim=12)
    corpus = [[1, 2, 3, 4, 5]] * 10
    a = pretrain_mlm(cfg, corpus, PretrainConfig(max_steps=15, seed=4))
    b = pretrain_mlm(cfg, corpus, PretrainConfig(max_steps=15, seed=4))
    assert checksum(a) == checksum(b)
    c = pretrain_mlm(cfg, corpus, PretrainConfig(max_steps=15, seed=5))
    assert checksum(c) != checksum(a)


def _pretrain_one_graph_per_sample(config, corpus, hyper):
    """Reference: pretrain_mlm with one forward graph per sample and the
    scalar losses summed in batch order."""
    rng = np.random.default_rng(hyper.seed)
    state = init_backbone(config, rng)
    params = list(state.tensors.values())
    adam = ad.AdamState(params, hyper.learning_rate)
    for _ in range(hyper.max_steps):
        idx = rng.integers(0, len(corpus), size=hyper.batch_size)
        with np.errstate(all="ignore"):
            losses = [ad.cross_entropy_with_logits(forward(state, masked, pos)[0], target)
                      for masked, target, pos in mlm_samples([corpus[j] for j in idx], rng)]
            ad.train_step(params, losses, adam)
    return state


SMALL = dict(num_layers=2, hidden_dim=16, num_heads=2, ffn_dim=24)


@pytest.mark.parametrize("config, corpus, hyper", [
    (ModelConfig(), make_pretrain_corpus(40, 12, np.random.default_rng(1)),
     PretrainConfig(max_steps=6, seed=2)),
    (ModelConfig(**SMALL), make_pretrain_corpus(40, 9, np.random.default_rng(1)),
     PretrainConfig(max_steps=8, batch_size=1, seed=3)),
    (ModelConfig(**SMALL), make_pretrain_corpus(40, 9, np.random.default_rng(1)),
     PretrainConfig(max_steps=8, batch_size=3, seed=4)),
    (ModelConfig(**SMALL), [[5, 9, 5, 5, 9, 5, 5]] * 3 + [[9, 9, 9, 9, 9, 9, 9]],
     PretrainConfig(max_steps=8, seed=5)),
    (ModelConfig(**SMALL), [seq for n in (1, 4, 11) for seq in
                            make_pretrain_corpus(4, n, np.random.default_rng(n))],
     PretrainConfig(max_steps=8, batch_size=5, seed=6)),
    (ModelConfig(num_layers=0, hidden_dim=16, num_heads=2),
     make_pretrain_corpus(40, 9, np.random.default_rng(1)), PretrainConfig(max_steps=8, seed=7)),
], ids=["batch-8", "batch-1", "batch-3", "repeated-tokens", "mixed-lengths", "no-layers"])
def test_stacked_pretraining_equals_one_graph_per_sample(config, corpus, hyper):
    got = pretrain_mlm(config, corpus, hyper)
    want = _pretrain_one_graph_per_sample(config, corpus, hyper)
    for name, t in want.tensors.items():
        assert got[name].data.tobytes() == t.data.tobytes(), name


def test_stacked_pretraining_step_stops_on_a_non_finite_loss(monkeypatch):
    """A NaN among a stacked batch's losses raises NonFiniteError before
    Adam, so every weight keeps the bytes of the step before."""
    seen = []
    train_step = ad.train_step

    def poisoning_step(params, losses, adam):
        seen.append((params, [p.data.copy() for p in params]))
        if len(seen) == 3:
            losses.data[1] = np.nan
        return train_step(params, losses, adam)

    monkeypatch.setattr(ad, "train_step", poisoning_step)
    with pytest.raises(ad.NonFiniteError, match="step 3: loss nan"):
        pretrain_mlm(ModelConfig(**SMALL), make_pretrain_corpus(20, 6, np.random.default_rng(1)),
                     PretrainConfig(max_steps=5, seed=8))
    assert len(seen) == 3
    params, kept = seen[-1]
    for p, data in zip(params, kept, strict=True):
        assert p.data.tobytes() == data.tobytes()


def test_pretrain_rejects_empty_corpus():
    with pytest.raises(ValueError):
        pretrain_mlm(ModelConfig(), [], PretrainConfig(max_steps=1))


def test_pretrain_zero_steps_returns_init():
    cfg = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, vocab_size=16,
                      max_seq_len=10, ffn_dim=12)
    got = pretrain_mlm(cfg, [[1, 2, 3]], PretrainConfig(max_steps=0, seed=6))
    expect = init_backbone(cfg, np.random.default_rng(6))
    assert checksum(got) == checksum(expect)


def test_pretrained_accuracy_beats_chance(world):
    # the structured corpus is learnable; require well above 5x chance
    samples = mlm_samples(make_pretrain_corpus(80, 12, np.random.default_rng(11)),
                          np.random.default_rng(12))
    acc = masked_accuracy(world.state, samples)
    assert acc > 5 * (1 / world.config.vocab_size)
    assert acc > 0.5  # regression guard for the shipped recipe


def test_save_load_round_trip(tmp_path, tiny):
    cfg, state = tiny
    freeze(state)
    path = tmp_path / "bb.bin"
    save_backbone(path, state)
    loaded = load_backbone(path)
    assert loaded.config == cfg
    assert checksum(loaded) == checksum(state)
    assert all(not t.requires_grad for t in loaded.tensors.values())


def test_forward_is_deterministic(tiny):
    _, state = tiny
    with ad.no_grad():
        a, _ = forward(state, [1, 2, 3], 1)
        b, _ = forward(state, [1, 2, 3], 1)
    assert np.array_equal(a.data, b.data)


# ------------------------------------------------------------ packed inference

# Mixed lengths; 24 tokens plus the default 8 prompt columns fill
# max_seq_len = 32, and the total spans several packs.
PACK_LENGTHS = (4, 24, 9, 13, 2, 17, 24, 6, 11, 20, 3, 15, 21, 8, 19, 12, 5, 23)


@pytest.fixture(scope="module")
def packed_world():
    """A random backbone with weights large enough that attention is far
    from uniform, and a sample of every PACK_LENGTHS length."""
    state = freeze(init_backbone(ModelConfig(), np.random.default_rng(20)))
    for t in state.tensors.values():
        t.data *= 10.0
    rng = np.random.default_rng(21)
    inputs = [(list(rng.integers(1, 64, size=n)), int(rng.integers(0, n)))
              for n in PACK_LENGTHS]
    return state, inputs


def _live_pet(kind, state):
    """A PET of kind whose every hook changes the forward (LoRA's B and the
    adapters' up-projections start at zero)."""
    if kind is None:
        return None
    pet = build_pet(PetConfig(kind=kind), state, np.random.default_rng(22))
    noise = np.random.default_rng(23)
    for t in pet.tensors.values():
        t.data += noise.normal(0.0, 0.3, size=t.data.shape)
    return pet


def _forward_logits(state, inputs, pet):
    with ad.no_grad():
        return np.hstack([forward(state, tokens, pos, pet)[0].data
                          for tokens, pos in inputs])


@pytest.mark.parametrize("kind", [None, *PET_KINDS])
def test_mask_logits_match_forward(packed_world, kind):
    state, inputs = packed_world
    pet = _live_pet(kind, state)
    prompt = pet.config.prompt_len if kind == "prompt" else 0
    assert sum(len(t) + prompt for t, _ in inputs) > 2 * PACK_COLUMNS
    got = mask_logits(state, inputs, pet)
    want = _forward_logits(state, inputs, pet)
    assert got.shape == want.shape == (64, len(inputs))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", [None, *PET_KINDS])
def test_mask_logits_keep_sequences_apart(packed_world, kind):
    state, inputs = packed_world
    pet = _live_pet(kind, state)
    base = mask_logits(state, inputs, pet)
    for j in (0, 5, len(inputs) - 1):
        tokens, pos = inputs[j]
        changed = list(inputs)
        changed[j] = ([(t % 63) + 1 for t in tokens], pos)
        got = mask_logits(state, changed, pet)
        others = [i for i in range(len(inputs)) if i != j]
        assert np.array_equal(got[:, others], base[:, others])
        assert not np.array_equal(got[:, j], base[:, j])


def test_mask_logits_reject_over_long_sequence_in_pack(packed_world):
    state, inputs = packed_world
    pet = _live_pet("prompt", state)
    too_long = (list(range(1, 26)), 3)  # 25 tokens + 8 prompt > 32
    with pytest.raises(PromptLengthError):
        mask_logits(state, [inputs[0], too_long, inputs[2]], pet)


def test_packed_forward_rejects_layout_not_covering_tokens(packed_world):
    state, inputs = packed_world
    tokens, pos = inputs[0]
    with pytest.raises(ValueError, match="layout covers"):
        forward(state, tokens + [1], [(len(tokens), pos)])


def test_mask_logits_run_every_token_through_forward(packed_world, monkeypatch):
    # Packed inference is forward's packed form, so a wrapper of forward
    # sees every token column and every pass of inference.
    import bridgetune.backbone as backbone
    state, inputs = packed_world
    seen = []
    orig = backbone.forward

    def counting(state, tokens, mask_position, pet=None):
        seen.append(len(list(tokens)))
        return orig(state, tokens, mask_position, pet)

    monkeypatch.setattr(backbone, "forward", counting)
    got = mask_logits(state, inputs)
    assert seen == [sum(len(t) for t, _ in inputs)]
    assert got.shape == (64, len(inputs))
    assert mask_logits(state, []).shape == (64, 0)


def _trace_inputs(prompt_len):
    """Shuffled samples of every length that fits beside prompt_len prompt
    columns, the longest filling max_seq_len; 9 of length 12 (a stack of
    at most 8 or, with the prompt, 4 of them fills PACK_COLUMNS)."""
    rng = np.random.default_rng(31)
    lengths = list(range(1, 33 - prompt_len)) * 2 + [12] * 7
    inputs = [(list(rng.integers(0, 64, size=n)), int(rng.integers(0, n))) for n in lengths]
    return [inputs[j] for j in rng.permutation(len(inputs))]


@pytest.mark.parametrize("kind", [None, *PET_KINDS])
def test_traces_equal_forward_bytes(packed_world, kind, monkeypatch):
    import bridgetune.backbone as backbone
    state, _ = packed_world
    pet = _live_pet(kind, state)
    prompt = pet.config.prompt_len if kind == "prompt" else 0
    inputs = _trace_inputs(prompt)
    stacks, encode = [], backbone._encode

    def recording_encode(state, h, positions, pet):
        stacks.append(h.data.shape)
        return encode(state, h, positions, pet)

    monkeypatch.setattr(backbone, "_encode", recording_encode)
    got = traces(state, inputs, pet)
    assert len(got) == len(inputs)
    # one pass per stack of one length, as many samples as fit in PACK_COLUMNS
    counts = {n: sum(len(t) == n for t, _ in inputs) for n in {len(t) for t, _ in inputs}}
    per_stack = {n: PACK_COLUMNS // (n + prompt) for n in counts}
    assert per_stack[12] < counts[12] == 9
    assert sorted(stacks) == sorted(
        (min(per_stack[n], c - lo), 32, n + prompt)
        for n, c in counts.items() for lo in range(0, c, per_stack[n]))
    with ad.no_grad():
        for (tokens, pos), trace in zip(inputs, got):
            _, want = forward(state, tokens, pos, pet)
            for a, b in zip(trace.h_out + trace.h_ctx, want.h_out + want.h_ctx, strict=True):
                assert a.data.shape == b.data.shape == (32, 1)
                assert a.data.tobytes() == b.data.tobytes()
                assert a.data.strides == b.data.strides


def test_traces_of_nothing_and_of_a_layerless_backbone():
    cfg = ModelConfig(num_layers=0, hidden_dim=8, num_heads=2, vocab_size=16, max_seq_len=10)
    state = init_backbone(cfg, np.random.default_rng(3))
    assert traces(state, []) == []
    (trace,) = traces(state, [([3, 4, 5], 1)])
    want = forward(state, [3, 4, 5], 1)[1]
    assert [t.data.tobytes() for t in trace.h_out + trace.h_ctx] == \
        [t.data.tobytes() for t in want.h_out + want.h_ctx]


@pytest.mark.parametrize("bad", [
    ([5, 99, 5], 1), ([5, 5, 5], 3), ([], 0), ([5, True, 5], 1), ([5] * 33, 0)],
    ids=["token-99", "mask-position", "empty", "bool-token", "33-tokens"])
def test_traces_check_every_pair_before_any_pass(packed_world, bad, monkeypatch):
    import bridgetune.backbone as backbone
    state, inputs = packed_world
    monkeypatch.setattr(backbone, "_encode", None)  # any pass fails with a TypeError
    with pytest.raises(ValueError):
        traces(state, inputs[:3] + [bad] + inputs[3:])


def test_traces_reject_sequence_too_long_for_the_prompt(packed_world):
    state, inputs = packed_world
    pet = _live_pet("prompt", state)
    with pytest.raises(PromptLengthError):
        traces(state, [inputs[0], (list(range(1, 26)), 3), inputs[2]], pet)  # 25 + 8 > 32


def test_masked_accuracy_matches_per_sample_argmax(world):
    samples = mlm_samples(make_pretrain_corpus(60, 12, np.random.default_rng(13)),
                          np.random.default_rng(14))
    logits = _forward_logits(world.state, [(t, pos) for t, _, pos in samples], None)
    hits = sum(int(np.argmax(logits[:, i]) == target)
               for i, (_, target, _) in enumerate(samples))
    assert masked_accuracy(world.state, samples) == hits / len(samples)
