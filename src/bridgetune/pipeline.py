"""Two-stage orchestration: PET training under terminal cost plus the bridge
running cost, few-shot splits, evaluation metrics, and run directories.

The regularizer never runs on the inference path, and an alpha of zero skips
it entirely so that runs with method set but alpha 0 are bit-identical to
method-free runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import BackboneState, check_counts, check_finite, forward, mask_logits, traces
from .latent_map import bridge_spec, running_cost
from .pets import PetConfig, build_pet, save_pet
from .snapshot import (SnapshotFormatError, check_records, header_value, load_kind,
                       save_snapshot)
from .tasks import DataError

METRICS = ("accuracy", "f1", "matthews")


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.0
    method: str = "none"
    learning_rate: float = 5e-3
    batch_size: int = 2
    max_steps: int = 1000
    eval_every: int = 50
    seed: int = 0
    metric: str = "accuracy"

    def __post_init__(self):
        if self.method not in ("none", "pdf", "sde"):
            raise ValueError(f"method must be none, pdf or sde, got {self.method!r}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be accuracy, f1 or matthews, got {self.metric!r}")
        check_finite(self, 0, "alpha", strict=False)
        check_finite(self, 0, "learning_rate")
        check_counts(self, batch_size=1, max_steps=1, eval_every=1, seed=0)


def total_loss(logits: Tensor, label_word: int, trace, mapnet, endpoints,
               cfg: TrainConfig, rng=None):
    """Terminal cross-entropy plus alpha times the running cost toward
    mapnet's bridge (latent_map.running_cost). Returns (loss tensor,
    terminal value, running value). alpha == 0 skips the regularizer and
    consumes no randomness.
    """
    ce = ad.cross_entropy_with_logits(logits, label_word)
    if cfg.method == "none" or cfg.alpha == 0.0:
        return ce, ce.item(), 0.0
    if mapnet is None:
        raise ValueError(f"method {cfg.method!r} needs a fitted map")
    running = running_cost(cfg, mapnet, trace, bridge_spec(mapnet, endpoints, label_word), rng)
    loss = ad.add(ce, ad.scalar_mul(running, cfg.alpha))
    return loss, ce.item(), running.item()


def fewshot_split(dataset, k: int, seed: int):
    """Per class: sample 2k without replacement; first k to train, next k
    to dev. Splits are disjoint by construction."""
    rng = np.random.default_rng(seed)
    by_label = {}
    for s in dataset:
        by_label.setdefault(s.label_word, []).append(s)
    train, dev = [], []
    for label in sorted(by_label):
        pool = by_label[label]
        if len(pool) < 2 * k:
            raise DataError(
                f"class {label} has {len(pool)} examples, needs {2 * k}")
        chosen = rng.choice(len(pool), size=2 * k, replace=False)
        train.extend(pool[i] for i in chosen[:k])
        dev.extend(pool[i] for i in chosen[k:])
    return train, dev


def predict(state: BackboneState, pet, samples, label_words):
    """Per sample, the argmax over the task's label words at the mask
    position (the first of tied words)."""
    words = list(label_words)
    logits = mask_logits(state, [(s.tokens, s.mask_position) for s in samples], pet)
    return [words[j] for j in np.argmax(logits[words], axis=0)]


def evaluate(state: BackboneState, pet, dataset, metric: str = "accuracy",
             label_words=None) -> float:
    """accuracy, f1 (binary, positive = larger label id), or matthews
    (0 when any denominator factor vanishes)."""
    if not dataset:
        raise DataError("empty evaluation set")
    if label_words is None:
        label_words = sorted({s.label_word for s in dataset})
    if metric in ("f1", "matthews") and len(label_words) != 2:
        raise DataError(f"{metric} needs binary labels, got {len(label_words)}")
    preds = predict(state, pet, dataset, label_words)
    truths = [s.label_word for s in dataset]
    if metric == "accuracy":
        return sum(p == t for p, t in zip(preds, truths)) / len(truths)
    pos = max(label_words)
    tp = sum(p == pos and t == pos for p, t in zip(preds, truths))
    fp = sum(p == pos and t != pos for p, t in zip(preds, truths))
    fn = sum(p != pos and t == pos for p, t in zip(preds, truths))
    tn = sum(p != pos and t != pos for p, t in zip(preds, truths))
    if metric == "f1":
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom else 0.0
    if metric == "matthews":
        denom2 = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        if denom2 == 0:
            return 0.0
        return (tp * tn - fp * fn) / math.sqrt(denom2)
    raise DataError(f"unknown metric {metric!r}")


def train_pet(state: BackboneState, pet_cfg: PetConfig, mapnet, endpoints,
              train_set, dev_set, cfg: TrainConfig):
    """Optimize only the PET parameters under the combined loss; dev is
    evaluated every eval_every steps and the best-on-dev parameters are
    returned together with the metric history. The running cost reads a
    frozen view of mapnet (MapNet.frozen), so backward never reaches the map."""
    rng = np.random.default_rng(cfg.seed)
    if mapnet is not None:
        mapnet = mapnet.frozen()
    pet = build_pet(pet_cfg, state, rng)
    params = pet.trainables()
    adam = ad.AdamState(params, cfg.learning_rate)
    label_words = sorted({s.label_word for s in train_set})

    history = []
    best_metric = -math.inf
    best_tensors = pet.clone_tensors()
    best_step = 0
    win_loss = win_ce = win_run = 0.0
    win_n = 0

    for step in range(1, cfg.max_steps + 1):
        idx = rng.integers(0, len(train_set), size=cfg.batch_size)
        losses = []
        ce_sum = run_sum = 0.0
        with np.errstate(all="ignore"):  # a non-finite step raises NonFiniteError
            for j in idx:
                s = train_set[j]
                logits, trace = forward(state, s.tokens, s.mask_position, pet=pet)
                loss_j, ce_j, run_j = total_loss(logits, s.label_word, trace,
                                                 mapnet, endpoints, cfg, rng)
                losses.append(loss_j)
                ce_sum += ce_j
                run_sum += run_j
            win_loss += ad.train_step(params, losses, adam)
        win_ce += ce_sum / len(losses)
        win_run += run_sum / len(losses)
        win_n += 1

        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            try:
                dev_metric = evaluate(state, pet, dev_set, cfg.metric, label_words)
            except ad.NonFiniteError as e:
                raise ad.NonFiniteError(f"dev evaluation after step {step}: {e}") from None
            history.append({
                "step": step,
                "train_loss": win_loss / win_n,
                "terminal_loss": win_ce / win_n,
                "running_cost": win_run / win_n,
                "dev_metric": dev_metric,
            })
            win_loss = win_ce = win_run = 0.0
            win_n = 0
            if dev_metric > best_metric:
                best_metric = dev_metric
                best_tensors = pet.clone_tensors()
                best_step = step

    pet.load_tensors(best_tensors)
    pet.label_words = label_words  # save_pet records them for eval
    return pet, history, {"best_dev_metric": best_metric, "best_step": best_step}


def write_csv(path, cols, rows) -> None:
    """rows are dicts keyed by cols; floats are written with repr, so they
    round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(repr(row[c]) if isinstance(row[c], float)
                             else str(row[c]) for c in cols) + "\n")


def dump_probe_traces(path, state: BackboneState, pet, dataset, meta: dict) -> None:
    """Record inference-mode hidden traces on a probe set (backbone.traces):
    per sample, the (L+1) x d matrices of output-position states and
    context means."""
    tensors = {}
    for i, trace in enumerate(traces(state, [(s.tokens, s.mask_position) for s in dataset],
                                     pet)):
        tensors[f"s{i}.h_out"] = np.hstack([t.data for t in trace.h_out]).T
        tensors[f"s{i}.h_ctx"] = np.hstack([t.data for t in trace.h_ctx]).T
    header = {"kind": "probe", "labels": [s.label_word for s in dataset]}
    header.update(meta)
    save_snapshot(path, header, tensors)


def load_probe(path):
    """A run's probe set, as run_training writes it: (alpha, labels, per
    sample its h_out and h_ctx matrices). Raises SnapshotFormatError unless
    path is a probe snapshot with a finite number alpha, a list of integer
    labels and, per label, exactly the records s<i>.h_out and s<i>.h_ctx,
    all matrices of one shape with at least one row."""
    header, tensors = load_kind(path, "probe")
    alpha = header_value(path, header, "alpha",  # finite, and no int beyond a float
                         lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
    labels = header_value(path, header, "labels", lambda v: isinstance(v, list) and all(
        type(label) is int for label in v))
    names = [(f"s{i}.h_out", f"s{i}.h_ctx") for i in range(len(labels))]
    check_records(path, tensors, {name: (None, None) for pair in names for name in pair})
    shapes = {array.shape for array in tensors.values()}
    if len(shapes) > 1 or any(rows == 0 for rows, _ in shapes):
        raise SnapshotFormatError(f"{path}: probe records of shapes {sorted(shapes)}, "
                                  f"not one shape with at least one row")
    return alpha, labels, [(tensors[out], tensors[ctx]) for out, ctx in names]


def run_training(out_dir, state: BackboneState, pet_cfg: PetConfig, mapnet,
                 endpoints, train_set, dev_set, cfg: TrainConfig):
    """One run directory: config.json, metrics.csv, best checkpoint, and the
    dev set's probe traces for later analysis. Given a map, config.json
    records its bridge's kind, q and sigma under "bridge" and, for an sde
    map, its grid under "sde_steps"."""
    pet, history, summary = train_pet(state, pet_cfg, mapnet, endpoints,
                                      train_set, dev_set, cfg)
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "train": asdict(cfg),
        "pet": asdict(pet_cfg),
        "model": asdict(state.config),
        "summary": summary,
    }
    if mapnet is not None:
        bridge = mapnet.bridge
        record["bridge"] = {"kind": bridge.kind, "q": bridge.q, "sigma": bridge.sigma}
        if mapnet.time_augmented:
            record["sde_steps"] = mapnet.sde_steps
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    write_csv(os.path.join(out_dir, "metrics.csv"),
              ("step", "train_loss", "terminal_loss", "running_cost", "dev_metric"),
              history)
    save_pet(os.path.join(out_dir, "pet.bin"), pet)
    dump_probe_traces(os.path.join(out_dir, "probe.bin"), state, pet, dev_set,
                      {"alpha": cfg.alpha, "method": cfg.method,
                       "pet_kind": pet_cfg.kind})
    return pet, history, summary
