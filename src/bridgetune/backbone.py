"""Toy frozen transformer encoder: embedding, pre-LN residual layers, a tied
masked-position prediction head, and per-layer hidden trace extraction.

States flow as d x N column matrices (one column per position), or as
B x d x N stacks of B samples of one length. The trace records, for layers
0..L, the state at the output position and the mean over all positions
present at that layer. forward builds one sample's graph. Callers that read
only the traces (traces) or only the logits (mask_logits, through forward's
packed form) run stacks of equal-length samples in no-grad passes.
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


def _attention(state: BackboneState, i: int, x: Tensor, pet, xq: Tensor) -> Tensor:
    """Keys and values from every column of x, queries from xq."""
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
    weights = ad.softmax(scores, axis=-1)
    merged = ad.transpose(ad.matmul(weights, ad.transpose(v, heads=heads)), merge=True)

    return ad.matmul(state[n["wo"]], merged, bias=state[n["bo"]])


def _ffn(state: BackboneState, i: int, x: Tensor, product_cube=False) -> Tensor:
    n = _layer_names(i)
    hidden = ad.matmul(state[n["w1"]], x, bias=state[n["b1"]])
    # every path but inference calls gelu with its one argument
    hidden = ad.gelu(hidden, product_cube=True) if product_cube else ad.gelu(hidden)
    return ad.matmul(state[n["w2"]], hidden, bias=state[n["b2"]])


def _layer(state: BackboneState, i: int, h: Tensor, pet, cols=None,
           product_cube=False) -> Tensor:
    """One pre-LN residual layer over the d x N states h, or over a stack
    of them (B x d x N). With cols, one column per sample of a stack, the
    queries, attention output, FFN and residual run only at those columns
    and the result is B x d x 1. product_cube marks inference, whose FFN
    takes GELU's product cube (autodiff.gelu)."""
    names = _layer_names(i)
    x = ad.layer_norm(h, axis=-2, gain=state[names["ln1_gain"]], bias=state[names["ln1_bias"]])
    xq = x
    if cols is not None:
        xq, h = _columns(x, cols), _columns(h, cols)
    attn = _attention(state, i, x, pet, xq)
    if pet is not None:
        attn = pet.adapt(i, "attn", attn)
    h = ad.add(h, attn)
    x = ad.layer_norm(h, axis=-2, gain=state[names["ln2_gain"]], bias=state[names["ln2_bias"]])
    ff = _ffn(state, i, x, product_cube)
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
    back to back. forward then returns (V x B logits at the B mask
    positions, None), computed by _stack_logits; each column equals the
    one-sequence logits to rounding.
    """
    if isinstance(mask_position, (list, tuple)):
        tokens = list(tokens)
        starts = np.cumsum([0, *(n for n, _ in mask_position)])
        if starts[-1] != len(tokens):
            raise ValueError(f"layout covers {starts[-1]} tokens, got {len(tokens)}")
        pairs = [(tokens[lo:lo + n], pos) for lo, (n, pos) in zip(starts, mask_position)]
        return Tensor(_stack_logits(state, pairs, pet)), None
    tokens = check_input(state.config, tokens, mask_position)
    h_out, h_ctx = _encode(state, _input_states(state, tokens, pet), [mask_position], pet)
    logits = ad.matmul(state["embed"], h_out[-1])
    return logits, HiddenTrace(h_out=h_out, h_ctx=h_ctx)


# Columns at most per stacked no-grad pass, prompt included. A 200-sample
# task pool (no PET, prompt and LoRA) traced in 0.99 s with stacks of at most
# 96 columns and 1.11 s with one stack per length (medians of 5); 96 was first
# chosen for block-masked inference packs, where it beat 64 and 48.
PACK_COLUMNS = 96


def _stacked(state: BackboneState, pairs, pet, run) -> list:
    """Per (tokens, mask_position) pair, in input order, its part of what
    run(h, positions) returns for its stack. Every pair is checked with
    check_input before any pass. The samples of each length, each given the
    PET's input extension on its own, then run as B x d x N stacks h of at
    most PACK_COLUMNS columns (one sample at least) in no-grad passes: one
    length needs no mask, and each matrix slice of a stacked op holds the
    bytes of the per-sample op."""
    pairs = [(check_input(state.config, tokens, pos), pos) for tokens, pos in pairs]
    by_length = {}
    for j, (tokens, _) in enumerate(pairs):
        by_length.setdefault(len(tokens), []).append(j)
    out = [None] * len(pairs)
    with ad.no_grad():
        for group in by_length.values():
            h = np.stack([_input_states(state, pairs[j][0], pet).data for j in group])
            size = max(1, PACK_COLUMNS // h.shape[-1])
            for lo in range(0, len(group), size):
                stack = group[lo:lo + size]
                for j, part in zip(stack, run(Tensor(h[lo:lo + size]),
                                              [pairs[j][1] for j in stack])):
                    out[j] = part
    return out


def traces(state: BackboneState, pairs, pet=None) -> list:
    """The HiddenTrace of each (tokens, mask_position) pair, in input order,
    byte for byte the one forward returns, for callers that read only the
    traces: each stack of _stacked runs every layer (_encode)."""
    def run(h, positions):
        h_out, h_ctx = _encode(state, h, positions, pet)
        return [HiddenTrace(h_out=[Tensor(t.data[b]) for t in h_out],
                            h_ctx=[Tensor(t.data[b]) for t in h_ctx])
                for b in range(len(positions))]

    return _stacked(state, pairs, pet, run)


def _stack_logits(state: BackboneState, pairs, pet) -> np.ndarray:
    """V x len(pairs) logits at the mask positions of the (tokens,
    mask_position) pairs: on each stack of _stacked, layers 0 to L-2 over
    every column, the last layer at the mask columns only (all with GELU's
    product cube), then the tied head; so a column has the bytes of its
    sample alone. NonFiniteError names the first non-finite sample."""
    tuned = _tuned(state, pet)
    last = state.config.num_layers - 1

    def run(h, positions):
        for i in range(last):
            h = _layer(tuned, i, h, pet, product_cube=True)
        h = _layer(tuned, last, h, pet, positions, True) if last >= 0 else _columns(h, positions)
        return ad.matmul(tuned["embed"], h).data

    with np.errstate(all="ignore"):  # non-finite logits raise NonFiniteError below
        logits = np.hstack([np.zeros((state.config.vocab_size, 0)),
                            *_stacked(state, pairs, pet, run)])
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=0))
    if bad.size:
        raise ad.NonFiniteError(f"non-finite logits for sample {bad[0]}")
    return logits


def mask_logits(state: BackboneState, inputs, pet=None) -> np.ndarray:
    """Logits at the mask position of every (tokens, mask_position) input,
    as a V x n array: one call of forward's packed form."""
    inputs = [(list(seq), pos) for seq, pos in inputs]
    logits, _ = forward(state, [t for seq, _ in inputs for t in seq],
                        [(len(seq), pos) for seq, pos in inputs], pet)
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
