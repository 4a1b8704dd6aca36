"""Synthetic corpus and downstream tasks over the default 64-token vocabulary.

Pretraining sequences follow per-topic successor chains (a hidden-Markov
style rule), so masked prediction is learnable and its Bayes accuracy is
known. The downstream task asks for the majority topic of a mixed sequence;
emissions are uniform within a topic, a deliberate distribution shift from
the chain-structured pretraining corpus. Label words are the per-topic
anchor tokens, which exist in the vocabulary and therefore in the endpoint
table.

The backbone that reads a TaskSample owns the vocabulary it is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .backbone import MASK_ID, check_counts, check_finite

TOPIC_A = list(range(1, 32))
TOPIC_B = list(range(32, 63))
ANCHOR_A = TOPIC_A[0]
ANCHOR_B = TOPIC_B[0]
LABEL_WORDS = (ANCHOR_A, ANCHOR_B)
FOLLOW_PROB = 0.85


class DataError(ValueError):
    """Malformed dataset input (file, JSONL record, or split request)."""


@dataclass(frozen=True)
class TaskSample:
    tokens: tuple
    label_word: int
    mask_position: int


def make_pretrain_corpus(n_sequences: int, seq_len: int,
                         rng: np.random.Generator):
    """Chain-structured sequences: each next token follows its topic
    successor with probability FOLLOW_PROB, else is uniform in the topic."""
    corpus = []
    for _ in range(n_sequences):
        topic = TOPIC_A if rng.random() < 0.5 else TOPIC_B
        pos = int(rng.integers(0, len(topic)))
        seq = [topic[pos]]
        for _ in range(seq_len - 1):
            if rng.random() < FOLLOW_PROB:
                pos = (pos + 1) % len(topic)
            else:
                pos = int(rng.integers(0, len(topic)))
            seq.append(topic[pos])
        corpus.append(seq)
    return corpus


@dataclass(frozen=True)
class TaskConfig:
    """make_task_dataset's sizes. mix stays below 0.5, so that the label
    topic stays the majority."""
    per_class: int = 80
    seq_len: int = 12
    mix: float = 0.35

    def __post_init__(self):
        check_counts(self, per_class=1, seq_len=1)
        check_finite(self, 0, "mix", strict=False)
        if not self.mix < 0.5:
            raise ValueError(f"mix must be below 0.5, got {self.mix!r}")


def make_task_dataset(n_per_class: int, seq_len: int, mix: float,
                      rng: np.random.Generator):
    """Majority-topic classification with topic mixing: each position is
    drawn from the minority topic with probability mix, uniformly within
    the topic. The mask is appended at the end. The sizes are checked as
    TaskConfig checks them."""
    TaskConfig(n_per_class, seq_len, mix)
    samples = []
    for label_word, major, minor in ((ANCHOR_A, TOPIC_A, TOPIC_B),
                                     (ANCHOR_B, TOPIC_B, TOPIC_A)):
        for _ in range(n_per_class):
            tokens = []
            for _ in range(seq_len):
                topic = minor if rng.random() < mix else major
                tokens.append(int(topic[rng.integers(0, len(topic))]))
            tokens.append(MASK_ID)
            samples.append(TaskSample(tokens=tuple(tokens),
                                      label_word=label_word,
                                      mask_position=seq_len))
    return samples


def write_jsonl(path, samples) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(json.dumps({"tokens": list(s.tokens),
                                "label_word": s.label_word,
                                "mask_position": s.mask_position}) + "\n")


def load_jsonl(path):
    """One JSON object per line: tokens (a list of ints), label_word (an
    int), and optional mask_position (an int). Without a mask position, a
    mask token is appended and its index used. A value of another JSON type
    (float, string, bool) is refused, not coerced, as is a file without samples."""
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            tokens, label_word = obj["tokens"], obj["label_word"]
            mask_position = obj.get("mask_position", len(tokens))
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise DataError(f"{path}:{ln}: bad record ({e})") from e
        if not (isinstance(tokens, list) and all(  # an int, but not a bool
                type(v) is int for v in (*tokens, label_word, mask_position))):
            raise DataError(f"{path}:{ln}: tokens, label_word and mask_position "
                            f"must be JSON integers")
        if "mask_position" in obj:
            if not 0 <= mask_position < len(tokens):
                raise DataError(f"{path}:{ln}: mask position out of range")
        else:
            tokens = tokens + [MASK_ID]
        samples.append(TaskSample(tokens=tuple(tokens), label_word=label_word,
                                  mask_position=mask_position))
    if not samples:
        raise DataError(f"{path}: no samples")
    return samples
