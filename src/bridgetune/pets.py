"""The four parameter-efficient tuning mechanisms on the frozen backbone.

Each PET owns the only requires_grad=True tensors during downstream training.
Three plug into backbone.forward through a hook each: attach_input (prompt),
qv_delta (LoRA), adapt (Adapter); the base class makes every hook a no-op.
BitFit overrides none: its tensors carry the backbone's bias names, and the
backbone reads them in place of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import BackboneState, ModelConfig, bias_names, check_counts
from .snapshot import (SnapshotFormatError, check_records, header_config, header_value,
                       load_kind, save_snapshot)

PET_KINDS = ("prompt", "lora", "bitfit", "adapter")


class PromptLengthError(ValueError):
    """Prompt attachment would exceed max_seq_len."""


@dataclass(frozen=True)
class PetConfig:
    kind: str
    prompt_len: int = 8
    r_lora: int = 4
    r_adapter: int = 8

    def __post_init__(self):
        if self.kind not in PET_KINDS:
            raise ValueError(f"unknown PET kind {self.kind!r}")
        check_counts(self, prompt_len=1, r_lora=1, r_adapter=1)


def attach_prompt(P: Tensor, input_states: Tensor, max_seq_len: int) -> Tensor:
    """Append the m trainable prompt vectors (rows of P) as extra columns
    after the sequence, or after each sequence of a B x d x N stack; the
    mask position index is unchanged."""
    m = P.data.shape[0]
    n = input_states.data.shape[-1]
    if n + m > max_seq_len:
        raise PromptLengthError(f"{n} positions + {m} prompt > {max_seq_len}")
    prompt = ad.transpose(P)
    lead = input_states.data.shape[:-2]
    if lead:  # one copy per sample: times 1.0 keeps every byte, and backward sums the copies
        prompt = ad.elementwise_mul(Tensor(np.ones((*lead, 1, 1))), prompt)
    return ad.concat([input_states, prompt], axis=-1)


def adapter_forward(h: Tensor, W_d: Tensor, W_u: Tensor) -> Tensor:
    """Residual bottleneck h <- W_u relu(W_d h) + h."""
    return ad.add(ad.matmul(W_u, ad.relu(ad.matmul(W_d, h))), h)


class PetParams:
    """Base attachment: all hooks are identity; tensors hold the trainables."""

    kind = "none"

    def __init__(self, config: PetConfig):
        self.config = config
        self.tensors: dict[str, Tensor] = {}
        self.label_words = None  # the sorted label words it was trained on, once known

    def attach_input(self, h: Tensor, max_seq_len: int) -> Tensor:
        return h

    def qv_delta(self, layer: int, which: str, x: Tensor):
        return None

    def adapt(self, layer: int, site: str, h: Tensor) -> Tensor:
        return h

    def trainables(self):
        return list(self.tensors.values())

    def clone_tensors(self) -> dict:
        return {k: t.data.copy() for k, t in self.tensors.items()}

    def load_tensors(self, arrays: dict) -> None:
        for k, arr in arrays.items():
            self.tensors[k].data[...] = arr


class PromptParams(PetParams):
    kind = "prompt"

    def __init__(self, config, model: ModelConfig, rng):
        super().__init__(config)
        self.tensors["P"] = Tensor(
            rng.normal(0.0, 0.02, size=(config.prompt_len, model.hidden_dim)),
            requires_grad=True)

    def attach_input(self, h, max_seq_len):
        return attach_prompt(self.tensors["P"], h, max_seq_len)


class LoraParams(PetParams):
    """Low-rank deltas on the full query and value projection matrices.
    A is Gaussian (std 0.02), B starts at zero so the attached forward is
    the vanilla forward bit-for-bit at init."""

    kind = "lora"

    def __init__(self, config, model: ModelConfig, rng):
        super().__init__(config)
        d, r = model.hidden_dim, config.r_lora
        if r >= d:
            raise ValueError("r_lora must be < hidden_dim")
        for i in range(model.num_layers):
            for which in ("q", "v"):
                self.tensors[f"layer{i}.{which}.A"] = Tensor(
                    rng.normal(0.0, 0.02, size=(r, d)), requires_grad=True)
                self.tensors[f"layer{i}.{which}.B"] = Tensor(
                    np.zeros((d, r)), requires_grad=True)

    def qv_delta(self, layer, which, x):
        A = self.tensors[f"layer{layer}.{which}.A"]
        B = self.tensors[f"layer{layer}.{which}.B"]
        return ad.matmul(B, ad.matmul(A, x))


class BitfitParams(PetParams):
    """Trainable clones of every linear and layer-norm bias, under the
    backbone's names, which the backbone reads in place of its own; the
    frozen snapshot is untouched."""

    kind = "bitfit"

    def __init__(self, config, state: BackboneState):
        super().__init__(config)
        for name in bias_names(state.config):
            self.tensors[name] = Tensor(state[name].data.copy(), requires_grad=True)


class AdapterParams(PetParams):
    """Residual bottleneck on the attention and feed-forward sublayer
    outputs, before the residual add. W_u starts at zero (identity at init)."""

    kind = "adapter"

    def __init__(self, config, model: ModelConfig, rng):
        super().__init__(config)
        d, r = model.hidden_dim, config.r_adapter
        for i in range(model.num_layers):
            for site in ("attn", "ffn"):
                self.tensors[f"layer{i}.{site}.wd"] = Tensor(
                    rng.normal(0.0, 0.02, size=(r, d)), requires_grad=True)
                self.tensors[f"layer{i}.{site}.wu"] = Tensor(
                    np.zeros((d, r)), requires_grad=True)

    def adapt(self, layer, site, h):
        wd = self.tensors[f"layer{layer}.{site}.wd"]
        wu = self.tensors[f"layer{layer}.{site}.wu"]
        return adapter_forward(h, wd, wu)


def build_pet(config: PetConfig, state: BackboneState,
              rng: np.random.Generator) -> PetParams:
    if config.kind == "prompt":
        return PromptParams(config, state.config, rng)
    if config.kind == "lora":
        return LoraParams(config, state.config, rng)
    if config.kind == "bitfit":
        return BitfitParams(config, state)
    return AdapterParams(config, state.config, rng)


def save_pet(path, pet: PetParams) -> None:
    """The PET's tensors and config and, once known, its label words."""
    from dataclasses import asdict
    header = {"kind": "pet", "pet_kind": pet.kind, "config": asdict(pet.config)}
    if pet.label_words is not None:
        header["label_words"] = list(pet.label_words)
    save_snapshot(path, header, {k: t.data for k, t in pet.tensors.items()})


def load_pet(path, state: BackboneState) -> PetParams:
    """save_pet's PET; its label_words stay None when the header has none,
    and must otherwise be sorted distinct token ids of the backbone."""
    header, tensors = load_kind(path, "pet")
    config = header_config(path, header, PetConfig)
    try:
        pet = build_pet(config, state, np.random.default_rng(0))
    except ValueError as e:  # a PET config this backbone cannot take
        raise SnapshotFormatError(f"{path}: {e}") from e
    check_records(path, tensors, {k: t.shape for k, t in pet.tensors.items()})
    pet.load_tensors(tensors)
    if "label_words" in header:
        pet.label_words = header_value(path, header, "label_words", lambda v: (
            isinstance(v, list) and v and all(
                type(w) is int and 0 <= w < state.config.vocab_size for w in v)
            and v == sorted(set(v))))
    return pet
