"""Toy frozen transformer encoder: embedding, pre-LN residual layers, a tied
masked-position prediction head, and per-layer hidden trace extraction.

States flow as d x N column matrices (one column per position), or as
B x d x N stacks of B samples of one length. The trace records, for layers
0..L, the state at the output position and the mean over all positions
present at that layer. forward builds one sample's graph, or, in its packed
form, runs many samples in each no-grad pass for callers that read only the
logits (mask_logits); traces runs stacks of equal-length samples in no-grad
passes for callers that read only the traces.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .snapshot import check_records, header_config, load_kind, save_snapshot

MASK_ID = 0


def check_finite(cfg, low: float, *names, strict: bool = True) -> None:
    """Raise ValueError unless each named field of cfg is a finite real
    number above low (with strict=False, no smaller than low)."""
    for name in names:
        value = getattr(cfg, name)
        real = (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool))
        if not (real and math.isfinite(value) and (value > low if strict else value >= low)):
            bound = "above" if strict else "at least"
            raise ValueError(f"{name} must be a finite number {bound} {low}, got {value!r}")


def check_counts(cfg, **minimums) -> None:
    """Raise ValueError unless each named field of cfg is an integer (not a
    bool) no smaller than its minimum."""
    for name, low in minimums.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 4
    hidden_dim: int = 32
    num_heads: int = 2
    vocab_size: int = 64
    max_seq_len: int = 32
    ffn_dim: int = 256

    def __post_init__(self):
        check_counts(self, num_layers=0, hidden_dim=1, num_heads=1, vocab_size=1,
                     max_seq_len=1, ffn_dim=1)
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")


@dataclass
class HiddenTrace:
    """h_out[i]: d x 1 state at the output position after layer i;
    h_ctx[i]: d x 1 mean over positions. Exactly L+1 entries each, the
    input layer included."""

    h_out: list
    h_ctx: list


@dataclass
class BackboneState:
    config: ModelConfig
    tensors: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


@functools.lru_cache(maxsize=None)
def _layer_names(i: int):
    p = f"layer{i}."
    return {
        "wq": p + "attn.wq", "bq": p + "attn.bq",
        "wk": p + "attn.wk", "bk": p + "attn.bk",
        "wv": p + "attn.wv", "bv": p + "attn.bv",
        "wo": p + "attn.wo", "bo": p + "attn.bo",
        "ln1_gain": p + "ln1.gain", "ln1_bias": p + "ln1.bias",
        "w1": p + "ffn.w1", "b1": p + "ffn.b1",
        "w2": p + "ffn.w2", "b2": p + "ffn.b2",
        "ln2_gain": p + "ln2.gain", "ln2_bias": p + "ln2.bias",
    }


def bias_names(config: ModelConfig):
    """Every bias tensor name: linear biases plus layer-norm biases."""
    names = []
    for i in range(config.num_layers):
        n = _layer_names(i)
        names.extend([n["bq"], n["bk"], n["bv"], n["bo"],
                      n["b1"], n["b2"], n["ln1_bias"], n["ln2_bias"]])
    return names


def _param_specs(config: ModelConfig) -> dict:
    """name -> (shape, fill) of every backbone tensor, in creation order; a
    fill of None means N(0, 0.02^2) draws."""
    d, dff = config.hidden_dim, config.ffn_dim
    specs = {"embed": ((config.vocab_size, d), None), "pos": ((config.max_seq_len, d), None)}
    for i in range(config.num_layers):
        n = _layer_names(i)
        for key in ("wq", "wk", "wv", "wo"):
            specs[n[key]] = ((d, d), None)
        for key in ("bq", "bk", "bv", "bo"):
            specs[n[key]] = ((d, 1), 0.0)
        specs[n["w1"]] = ((dff, d), None)
        specs[n["b1"]] = ((dff, 1), 0.0)
        specs[n["w2"]] = ((d, dff), None)
        specs[n["b2"]] = ((d, 1), 0.0)
        specs[n["ln1_gain"]] = ((d, 1), 1.0)
        specs[n["ln1_bias"]] = ((d, 1), 0.0)
        specs[n["ln2_gain"]] = ((d, 1), 1.0)
        specs[n["ln2_bias"]] = ((d, 1), 0.0)
    return specs


def init_backbone(config: ModelConfig, rng: np.random.Generator) -> BackboneState:
    """Freshly drawn weights, every one taking a gradient (freeze clears that)."""
    tensors = {}
    for name, (shape, fill) in _param_specs(config).items():
        data = rng.normal(0.0, 0.02, size=shape) if fill is None else np.full(shape, fill)
        tensors[name] = Tensor(data, requires_grad=True)
    return BackboneState(config=config, tensors=tensors)


def freeze(state: BackboneState) -> BackboneState:
    for t in state.tensors.values():
        t.requires_grad = False
    return state


def checksum(state: BackboneState) -> str:
    h = hashlib.sha256()
    for name in sorted(state.tensors):
        h.update(name.encode())
        h.update(state.tensors[name].data.tobytes())
    return h.hexdigest()


def check_input(config: ModelConfig, tokens, mask_position=None) -> list:
    """tokens as a list, after checking without a forward pass that a
    backbone of config takes them: 1 to max_seq_len integer ids (not bools)
    inside the vocabulary and, when given, mask_position one of their
    positions. Raises ValueError."""
    try:
        tokens = list(tokens)
    except TypeError:
        raise ValueError(f"expected a sequence of token ids, got {tokens!r}") from None
    for t in tokens:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise ValueError(f"token id {t!r} is not an integer")
        if not 0 <= t < config.vocab_size:
            raise ValueError(f"token id {t} outside vocabulary of {config.vocab_size}")
    if not 1 <= len(tokens) <= config.max_seq_len:
        raise ValueError(f"sequence length {len(tokens)} outside 1 to {config.max_seq_len}")
    if mask_position is not None and not 0 <= mask_position < len(tokens):
        raise ValueError(f"mask position {mask_position} outside {len(tokens)} positions")
    return tokens


def _embed(state: BackboneState, ids) -> Tensor:
    """Token embedding plus positional embedding of checked token ids: the
    d x N states of one sequence, or the B x d x N stack of a B x N array of
    B sequences of one length."""
    tok = ad.gather_rows(state["embed"], ids)
    pos = ad.gather_rows(state["pos"], np.broadcast_to(np.arange(np.shape(ids)[-1]),
                                                       np.shape(ids)))
    return ad.transpose(ad.add(tok, pos))


def _columns(h: Tensor, cols) -> Tensor:
    return ad.gather_rows(h, cols, axis=1)


def _attention(state: BackboneState, i: int, x: Tensor, pet, xq: Tensor, mask) -> Tensor:
    """Keys and values from every column of x, queries from xq; mask, when
    given, is added to the scores (one row per query column)."""
    cfg = state.config
    n = _layer_names(i)
    hd = cfg.hidden_dim // cfg.num_heads

    def proj(wname, bname, which, x):
        out = ad.matmul(state[n[wname]], x, bias=state[n[bname]])
        if pet is not None and which is not None:
            delta = pet.qv_delta(i, which, x)
            if delta is not None:
                out = ad.add(out, delta)
        return out

    q = proj("wq", "bq", "q", xq)
    k = proj("wk", "bk", None, x)
    v = proj("wv", "bv", "v", x)

    # Head j's N x hd output is softmax(scale * q_j^T k_j) v_j^T, where x_j
    # is the head's hd rows of x; the outputs side by side, transposed, are
    # the d x N merged states. All heads run at once, as H x N x hd and
    # H x hd x N stacks whose slices hold the bytes of each head's operands.
    heads = cfg.num_heads
    scores = ad.scalar_mul(ad.matmul(ad.transpose(q, heads=heads),
                                     ad.slice_rows(k, heads=heads)), 1.0 / np.sqrt(hd))
    if mask is not None:
        scores = ad.add(scores, mask)
    weights = ad.softmax(scores, axis=-1)
    merged = ad.transpose(ad.matmul(weights, ad.transpose(v, heads=heads)), merge=True)

    return ad.matmul(state[n["wo"]], merged, bias=state[n["bo"]])


def _ffn(state: BackboneState, i: int, x: Tensor, product_cube=False) -> Tensor:
    n = _layer_names(i)
    hidden = ad.matmul(state[n["w1"]], x, bias=state[n["b1"]])
    # every path but packed inference calls gelu with its one argument
    hidden = ad.gelu(hidden, product_cube=True) if product_cube else ad.gelu(hidden)
    return ad.matmul(state[n["w2"]], hidden, bias=state[n["b2"]])


def _layer(state: BackboneState, i: int, h: Tensor, pet, mask=None, cols=None) -> Tensor:
    """One pre-LN residual layer over the d x N states h, or over a stack
    of them (B x d x N; only without mask and cols). With cols, the
    queries, attention output, FFN and residual run only at those columns
    (mask then has one row per column in cols) and the result is d x len(cols).
    A mask marks packed inference, whose FFN takes GELU's product cube
    (autodiff.gelu)."""
    names = _layer_names(i)
    x = ad.layer_norm(h, axis=-2, gain=state[names["ln1_gain"]], bias=state[names["ln1_bias"]])
    xq = x
    if cols is not None:
        xq, h = _columns(x, cols), _columns(h, cols)
    attn = _attention(state, i, x, pet, xq, mask)
    if pet is not None:
        attn = pet.adapt(i, "attn", attn)
    h = ad.add(h, attn)
    x = ad.layer_norm(h, axis=-2, gain=state[names["ln2_gain"]], bias=state[names["ln2_bias"]])
    ff = _ffn(state, i, x, mask is not None)
    if pet is not None:
        ff = pet.adapt(i, "ffn", ff)
    return ad.add(h, ff)


def _input_states(state: BackboneState, ids, pet) -> Tensor:
    """Embedded checked ids (_embed) with the PET's input extension attached."""
    h = _embed(state, ids)
    if pet is not None:
        h = pet.attach_input(h, state.config.max_seq_len)
    return h


def _tuned(state: BackboneState, pet) -> BackboneState:
    """The backbone as pet sees it: BitFit's biases, the only PET tensors
    named as backbone tensors (bias_names), take the place of the backbone's."""
    return state if pet is None else BackboneState(state.config, {**state.tensors, **pet.tensors})


def _encode(state: BackboneState, h: Tensor, positions, pet):
    """Run every layer over the input states h. Returns the trace's h_out
    and h_ctx lists: the states at the output positions and the means over
    positions, of h and after each layer. Of one sample's d x N states
    (positions: its mask position, in a list), these are d x 1 graph nodes;
    of a B x d x N stack under no_grad, B x d x 1 stacks, read for sample b
    at positions[b]."""
    state = _tuned(state, pet)
    h_out, h_ctx = [], []
    for i in range(state.config.num_layers + 1):
        if i:
            h = _layer(state, i - 1, h, pet)
        h_out.append(_columns(h, positions))
        h_ctx.append(ad.mean_over_axis(h, axis=-1))
    return h_out, h_ctx


def forward(state: BackboneState, tokens, mask_position, pet=None):
    """Run the encoder; returns (logits at the mask position, HiddenTrace).

    pet, when given, is consulted at the attachment hooks: input extension,
    query/value low-rank deltas and sublayer adaptation; BitFit's biases
    take the place of the backbone's (_tuned).

    Packed form, for callers that read only the logits: mask_position is a
    list of (length, mask position) pairs and tokens holds those sequences
    back to back. They then share no-grad passes of up to PACK_COLUMNS
    columns (see _pack_logits), and forward returns (V x B logits at the B
    mask positions, None); each column equals the one-sequence logits to
    rounding.
    """
    if isinstance(mask_position, (list, tuple)):
        return _packed_logits(state, list(tokens), mask_position, pet), None
    tokens = check_input(state.config, tokens, mask_position)
    h_out, h_ctx = _encode(state, _input_states(state, tokens, pet), [mask_position], pet)
    logits = ad.matmul(state["embed"], h_out[-1])
    return logits, HiddenTrace(h_out=h_out, h_ctx=h_ctx)


# Columns per packed inference pass, and at most per stacked trace pass. On a
# 2-core Xeon, with GELU's cube taken as x * x * x, packs of 96 and 128
# columns evaluated the benchmark's pool 1.14-1.35x faster than 64 (each won
# 9 or 10 of 10 interleaved pairs over three pools) and 48 was slower; the
# smaller of the two fast sizes keeps the N x N attention masks and the
# ffn_dim x N temporaries small. Stacked traces gain from the cap as well: a
# 200-sample task pool (no PET, prompt and LoRA) traced in 0.99 s with stacks
# of at most 96 columns and 1.11 s with one stack per length (medians of 5).
PACK_COLUMNS = 96


def traces(state: BackboneState, pairs, pet=None) -> list:
    """The HiddenTrace of each (tokens, mask_position) pair, in input order,
    byte for byte the one forward returns, for callers that read only the
    traces. Every pair is checked with check_input before any pass. Then
    the samples of each length run as B x d x N stacks in no-grad passes of
    at most PACK_COLUMNS columns (prompt included, one sample at least):
    samples of one length need no mask, and every matrix slice of a stacked
    op holds the bytes of the per-sample op."""
    pairs = [(check_input(state.config, tokens, pos), pos) for tokens, pos in pairs]
    by_length = {}
    for j, (tokens, _) in enumerate(pairs):
        by_length.setdefault(len(tokens), []).append(j)
    out = [None] * len(pairs)
    with ad.no_grad():
        for group in by_length.values():
            h = _input_states(state, np.array([pairs[j][0] for j in group]), pet).data
            size = max(1, PACK_COLUMNS // h.shape[-1])
            for lo in range(0, len(group), size):
                stack = group[lo:lo + size]
                h_out, h_ctx = _encode(state, Tensor(h[lo:lo + size]),
                                       [pairs[j][1] for j in stack], pet)
                for b, j in enumerate(stack):
                    out[j] = HiddenTrace(h_out=[Tensor(t.data[b]) for t in h_out],
                                         h_ctx=[Tensor(t.data[b]) for t in h_ctx])
    return out


def _pack_logits(state: BackboneState, pack, pet) -> np.ndarray:
    """V x len(pack) logits of one pack of (input states, mask position):
    the sequences side by side, attention kept inside each sequence by a
    block-diagonal -inf mask, and the last layer run at the mask columns only."""
    sizes = [h.data.shape[1] for h, _ in pack]
    cols = np.cumsum([0, *sizes[:-1]]) + [pos for _, pos in pack]
    block = np.repeat(np.arange(len(pack)), sizes)
    mask = np.where(block[:, None] == block[None, :], 0.0, -np.inf)
    h = ad.concat([h for h, _ in pack], axis=1)
    state = _tuned(state, pet)
    num_layers = state.config.num_layers
    for i in range(num_layers - 1):
        h = _layer(state, i, h, pet, Tensor(mask))
    if num_layers:
        h = _layer(state, num_layers - 1, h, pet, Tensor(mask[cols]), cols)
    else:
        h = _columns(h, cols)
    return ad.matmul(state["embed"], h).data


def _packed_logits(state: BackboneState, tokens: list, layout, pet) -> Tensor:
    """forward's packed form: consecutive sequences share a pass while their
    columns (prompt included) fit in PACK_COLUMNS."""
    if sum(n for n, _ in layout) != len(tokens):
        raise ValueError(f"layout covers {sum(n for n, _ in layout)} tokens, "
                         f"got {len(tokens)}")
    out, pack, width, start = [], [], 0, 0
    with ad.no_grad():
        for n, mask_position in layout:
            ids = check_input(state.config, tokens[start:start + n], mask_position)
            h = _input_states(state, ids, pet)
            start += n
            if pack and width + h.data.shape[1] > PACK_COLUMNS:
                out.append(_pack_logits(state, pack, pet))
                pack, width = [], 0
            pack.append((h, mask_position))
            width += h.data.shape[1]
        if pack:
            out.append(_pack_logits(state, pack, pet))
    return Tensor(np.hstack(out) if out else np.zeros((state.config.vocab_size, 0)))


def mask_logits(state: BackboneState, inputs, pet=None) -> np.ndarray:
    """Logits at the mask position of every (tokens, mask_position) input,
    as a V x n array: one call of forward's packed form."""
    tokens, layout = [], []
    for seq, mask_position in inputs:
        seq = list(seq)
        tokens.extend(seq)
        layout.append((len(seq), mask_position))
    with ad.no_grad():
        logits, _ = forward(state, tokens, layout, pet)
    return logits.data


@dataclass(frozen=True)
class PretrainConfig:
    learning_rate: float = 5e-3
    batch_size: int = 8
    max_steps: int = 2500
    seed: int = 0

    def __post_init__(self):
        check_counts(self, batch_size=1, max_steps=0, seed=0)
        check_finite(self, 0, "learning_rate")


def mlm_samples(corpus, rng: np.random.Generator):
    """Mask one random position per sequence: (masked tokens, target, position)."""
    out = []
    for seq in corpus:
        pos = int(rng.integers(0, len(seq)))
        masked = list(seq)
        target = masked[pos]
        masked[pos] = MASK_ID
        out.append((masked, target, pos))
    return out


def _mlm_losses(state: BackboneState, samples) -> Tensor:
    """The masked-token cross-entropy of each (masked tokens, target,
    position) sample, as one vector. Samples of one length run as one
    B x d x N stack; a batch of mixed lengths runs one-sample stacks in
    batch order. Only what the loss reads is recorded: no trace. The
    gradients backward gives are those of one forward graph per sample
    (autodiff.backward sums a weight's per-sample gradients in their order)."""
    for tokens, _, pos in samples:
        check_input(state.config, tokens, pos)
    if len({len(tokens) for tokens, _, _ in samples}) > 1:
        return ad.concat([_mlm_losses(state, [s]) for s in samples], axis=0)
    h = _embed(state, np.array([tokens for tokens, _, _ in samples]))
    for i in range(state.config.num_layers):
        h = _layer(state, i, h, None)
    picked = _columns(h, [pos for _, _, pos in samples])
    return ad.cross_entropy_with_logits(ad.matmul(state["embed"], picked),
                                        [target for _, target, _ in samples])


def pretrain_mlm(config: ModelConfig, corpus, hyper: PretrainConfig) -> BackboneState:
    """Masked-token training of all backbone weights on the corpus; the
    caller freezes the result. Zero steps returns the random init."""
    if not corpus:
        raise ValueError("corpus is empty")
    rng = np.random.default_rng(hyper.seed)
    state = init_backbone(config, rng)
    params = list(state.tensors.values())
    adam = ad.AdamState(params, hyper.learning_rate)
    corpus = list(corpus)
    for _ in range(hyper.max_steps):
        idx = rng.integers(0, len(corpus), size=hyper.batch_size)
        with np.errstate(all="ignore"):  # a non-finite step raises NonFiniteError
            losses = _mlm_losses(state, mlm_samples([corpus[j] for j in idx], rng))
            ad.train_step(params, losses, adam)
    return state


def masked_accuracy(state: BackboneState, samples) -> float:
    """Unrestricted argmax accuracy on (masked tokens, target, position) samples."""
    logits = mask_logits(state, [(tokens, pos) for tokens, _, pos in samples])
    hits = np.argmax(logits, axis=0) == [target for _, target, _ in samples]
    return int(hits.sum()) / len(samples)


def save_backbone(path, state: BackboneState) -> None:
    from dataclasses import asdict
    header = {"kind": "backbone", "config": asdict(state.config)}
    save_snapshot(path, header, {k: t.data for k, t in state.tensors.items()})


def load_backbone(path) -> BackboneState:
    header, tensors = load_kind(path, "backbone")
    config = header_config(path, header, ModelConfig)
    check_records(path, tensors, {name: shape for name, (shape, _) in
                                  _param_specs(config).items()})
    return BackboneState(config=config, tensors={
        name: Tensor(arr, requires_grad=False) for name, arr in tensors.items()})
