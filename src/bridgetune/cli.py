"""Command-line surface for the bridge-regularized PET pipeline.

Subcommands: pretrain, fit-map, train-pet, eval, fewshot, sample-bridge,
analyze, make-task. Exit codes: 0 success, 1 usage error, 2 data error.

Each input is checked once, where it is owned: data against the backbone's
config, a config section by its dataclass, a snapshot by its loader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import bridges
from .analysis import (StatisticsError, bridge_distance, centroid_distance,
                       kendall_tau_b, pearson, trace_from_arrays)
from .autodiff import NonFiniteError
from .backbone import (ModelConfig, PretrainConfig, check_input, freeze,
                       load_backbone, masked_accuracy, mlm_samples, pretrain_mlm,
                       save_backbone)
from .latent_map import (FitMapConfig, bridge_spec, build_endpoints, fit_map,
                         load_mapnet, save_mapnet)
from .pets import PetConfig, build_pet, load_pet
from .pipeline import (METRICS, TrainConfig, evaluate, fewshot_split, load_probe,
                       run_training, write_csv)
from .snapshot import SnapshotFormatError
from .tasks import (DataError, TaskConfig, load_jsonl, make_pretrain_corpus,
                    make_task_dataset, write_jsonl)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dataclass_from(cls, path, sections: dict, name: str, overrides: dict, **fixed):
    """Defaults, then the config file's section name, then the overrides
    that are not None (a flag not given), then fixed (flags that always set
    their field, which the section may not). A bad section, key or value is
    a DataError naming the file and the section; the section's values are
    checked as the file gives them too, so an override does not hide one."""
    section = sections.get(name, {})
    if not isinstance(section, dict):
        raise DataError(f"{path}: section {name!r} is not a JSON object")
    keys = {f.name for f in fields(cls)}
    for key, value in section.items():
        if key in fixed:
            raise DataError(f"{path}: section {name!r} sets {key!r}, which a flag always sets")
        if key not in keys:
            raise DataError(f"{path}: section {name!r} has unknown key {key!r}")
        if value is None:
            raise DataError(f"{path}: section {name!r} sets {key!r} to null")
    given = {key: val for key, val in overrides.items() if val is not None}
    try:
        cls(**{**given, **section}, **fixed)
        return cls(**{**section, **given}, **fixed)
    except ValueError as e:
        raise DataError(f"{path}: section {name!r}: {e}") from e


def _int_at_least(low):
    """argparse type: an int no smaller than low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _float_in(low, high):
    """argparse type: a float in [low, high)."""
    def parse(text):
        value = float(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(
                f"must be at least {low} and below {high}, got {value}")
        return value
    parse.__name__ = "float"
    return parse


def _positive_float(text):
    """argparse type: a finite float above 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {value}")
    return value


def _finite_float(text):
    """argparse type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value}")
    return value


_positive_float.__name__ = _finite_float.__name__ = "float"


def _load_dataset(path, state, pet_cfg: PetConfig):
    """load_jsonl, then check that every sample fits the backbone: its token
    ids and label word inside the vocabulary, and its tokens plus the PET's
    prompt columns within max_seq_len."""
    samples = load_jsonl(path)
    if not samples:
        raise DataError(f"{path}: no samples")
    vocab, max_len = state.config.vocab_size, state.config.max_seq_len
    prompt = pet_cfg.prompt_len if pet_cfg.kind == "prompt" else 0
    for i, s in enumerate(samples):
        if not all(0 <= t < vocab for t in (*s.tokens, s.label_word)):
            raise DataError(f"{path}: sample {i}: token id outside the "
                            f"vocabulary of {vocab}")
        if len(s.tokens) + prompt > max_len:
            raise DataError(f"{path}: sample {i}: {len(s.tokens)} tokens + {prompt} "
                            f"prompt columns exceed max_seq_len {max_len}")
    return samples


def _check_map_width(map_path, mapnet, width: int, source) -> None:
    """DataError unless the map read from map_path takes the traces of
    source, whose hidden width is width: the map's input is twice that
    wide, plus the time channel of an sde map."""
    if mapnet.dims[0] != 2 * width + mapnet.time_augmented:
        fitted = (mapnet.dims[0] - mapnet.time_augmented) / 2
        raise DataError(f"{source}: hidden width {width} does not fit {map_path}, whose input "
                        f"width is {mapnet.dims[0]} (fitted on hidden width {fitted:g})")


def _load_config(path):
    """The config file's sections, {} without a file. Every command allows
    every known section, so that one file can serve them all."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            sections = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read config {path}: {e}") from e
    if not isinstance(sections, dict):
        raise DataError(f"{path}: a config is a JSON object of sections")
    for name in sections:
        if name not in ("model", "pretrain", "fitmap", "train", "pet", "task"):
            raise DataError(f"{path}: unknown section {name!r}")
    return sections


def _build_parser():
    parser = _Parser(prog="bridgetune",
                     description="Stochastic-bridge regularizers for PET training")
    config, seed, out = (_Parser(add_help=False) for _ in range(3))
    config.add_argument("--config", help="JSON config file with section overrides")
    seed.add_argument("--seed", type=_int_at_least(0), default=0)
    out.add_argument("--out", default=".", help="output directory")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pretrain", parents=[config, seed, out],
                       help="build and pretrain the frozen backbone")
    p.add_argument("--steps", type=_int_at_least(1), default=2500)
    p.add_argument("--corpus-size", type=_int_at_least(1), default=300)
    p.add_argument("--seq-len", type=_int_at_least(1), default=12)

    p = sub.add_parser("fit-map", parents=[config, seed, out],
                       help="fit the latent mapping on a frozen backbone")
    p.add_argument("--backbone", required=True)
    p.add_argument("--corpus", required=True, help="corpus JSON from pretrain")
    p.add_argument("--method", choices=["pdf", "sde"], required=True)
    p.add_argument("--bridge", choices=[bridges.BROWNIAN, bridges.OU], default=None,
                   help="bridge kind (default: the config's, else brownian)")
    p.add_argument("--steps", type=_int_at_least(1), default=None)
    p.add_argument("--eta", type=_positive_float, default=1.0)
    p.add_argument("--latent-dim", type=_int_at_least(1), default=None)

    p = sub.add_parser("train-pet", parents=[config, seed, out],
                       help="train one PET with an optional bridge regularizer")
    p.add_argument("--backbone", required=True)
    p.add_argument("--map", help="map snapshot (required unless method none)")
    p.add_argument("--pet", choices=["prompt", "lora", "bitfit", "adapter"],
                   required=True)
    p.add_argument("--alpha", type=_float_in(0.0, math.inf), default=None)
    p.add_argument("--method", choices=["none", "pdf", "sde"], default=None)
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--dev", required=True, help="dev JSONL")
    p.add_argument("--steps", type=_int_at_least(1), default=None)
    p.add_argument("--batch-size", type=_int_at_least(1), default=None)
    p.add_argument("--lr", type=_positive_float, default=None)
    p.add_argument("--eval-every", type=_int_at_least(1), default=None)
    p.add_argument("--metric", choices=METRICS, default=None)

    p = sub.add_parser("eval", help="evaluate a PET checkpoint on a dataset")
    p.add_argument("--backbone", required=True)
    p.add_argument("--pet", required=True, help="PET snapshot path")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", choices=METRICS, default="accuracy")

    p = sub.add_parser("fewshot", parents=[seed, out],
                       help="build k-shot train/dev splits over several seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--seeds", type=_int_at_least(1), default=5)

    p = sub.add_parser("sample-bridge", parents=[seed, out],
                       help="sample bridge paths to CSV")
    p.add_argument("--bridge", choices=[bridges.BROWNIAN, bridges.OU],
                   default=bridges.BROWNIAN)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=_int_at_least(2), default=100)
    p.add_argument("--paths", type=_int_at_least(1), default=3)
    p.add_argument("--q", type=_positive_float, default=1.0)
    p.add_argument("--sigma", type=_positive_float, default=1.0)

    p = sub.add_parser("analyze", parents=[out],
                       help="centroid/bridge-distance analysis over run dirs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--map", help="map snapshot for bridge distances")

    p = sub.add_parser("make-task", parents=[config, seed, out],
                       help="generate a synthetic downstream dataset")
    p.add_argument("--per-class", type=_int_at_least(1), default=None,
                   help="examples per class (default 80)")
    p.add_argument("--seq-len", type=_int_at_least(1), default=None,
                   help="sequence length before the mask (default 12)")
    p.add_argument("--mix", type=_float_in(0.0, 0.5), default=None,
                   help="minority-topic mixing rate in [0, 0.5) (default 0.35)")

    return parser


def _cmd_pretrain(args):
    cfg_file = _load_config(args.config)
    model_cfg = _dataclass_from(ModelConfig, args.config, cfg_file, "model", {})
    rng = np.random.default_rng(args.seed)
    corpus = make_pretrain_corpus(args.corpus_size, args.seq_len, rng)
    holdout = make_pretrain_corpus(60, args.seq_len, rng)
    for name, seqs in (("corpus", corpus), ("holdout", holdout)):
        _check_corpus(f"synthetic {name} (--seq-len {args.seq_len}, model config)", seqs,
                      model_cfg)
    pre_cfg = _dataclass_from(PretrainConfig, args.config, cfg_file, "pretrain", {},
                              max_steps=args.steps, seed=args.seed)
    state = freeze(pretrain_mlm(model_cfg, corpus, pre_cfg))
    os.makedirs(args.out, exist_ok=True)
    save_backbone(os.path.join(args.out, "backbone.bin"), state)
    with open(os.path.join(args.out, "corpus.json"), "w", encoding="utf-8") as f:
        json.dump(corpus, f)
    acc = masked_accuracy(state, mlm_samples(holdout, np.random.default_rng(args.seed)))
    print(f"held-out masked accuracy: {acc:.4f}")
    print(f"wrote {os.path.join(args.out, 'backbone.bin')}")
    return 0


def _check_corpus(source, corpus, config) -> None:
    """DataError naming source unless corpus is a non-empty list of
    sequences, each one that backbone.check_input accepts for config."""
    if not isinstance(corpus, list) or not corpus:
        raise DataError(f"{source}: expected a non-empty list of sequences")
    for i, seq in enumerate(corpus):
        try:
            check_input(config, seq)
        except ValueError as e:
            raise DataError(f"{source}: sequence {i}: {e}") from e


def _load_corpus(path):
    """The corpus JSON as read; _check_corpus checks it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read corpus {path}: {e}") from e


def _cmd_fit_map(args):
    cfg_file = _load_config(args.config)
    state = load_backbone(args.backbone)
    corpus = _load_corpus(args.corpus)
    _check_corpus(args.corpus, corpus, state.config)
    overrides = {"bridge_kind": args.bridge, "max_steps": args.steps,
                 "latent_dim": args.latent_dim}
    cfg = _dataclass_from(FitMapConfig, args.config, cfg_file, "fitmap", overrides,
                          method=args.method, seed=args.seed)
    if cfg.max_steps < 1:
        raise DataError(f"fitmap max_steps must be at least 1, got {cfg.max_steps}")
    try:
        endpoints = build_endpoints(state["embed"].data, cfg.latent_dim, args.eta)
    except ValueError as e:  # a latent_dim the backbone cannot take, or an eta it cannot scale to
        raise DataError(f"endpoint table of {args.backbone}: {e}") from e
    rng = np.random.default_rng(args.seed)
    samples = mlm_samples(corpus, rng)
    try:
        mapnet, history = fit_map(state, samples, cfg, endpoints)
    except NonFiniteError as e:  # the losses grow as eta squared
        raise NonFiniteError(f"--eta {args.eta!r}, latent dimension {cfg.latent_dim}: "
                             f"{e}") from e
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"map-{args.method}.bin")
    save_mapnet(path, mapnet, args.method, endpoints)
    print(f"final training loss: {history[-1][1]:.4f}")
    print(f"wrote {path}")
    return 0


def _cmd_train_pet(args):
    cfg_file = _load_config(args.config)
    state = load_backbone(args.backbone)
    overrides = {
        "alpha": args.alpha, "method": args.method,
        "learning_rate": args.lr, "batch_size": args.batch_size,
        "max_steps": args.steps, "eval_every": args.eval_every, "metric": args.metric,
    }
    mapnet = endpoints = header = None
    if args.map is not None:
        mapnet, endpoints, header = load_mapnet(args.map)
        _check_map_width(args.map, mapnet, state.config.hidden_dim, args.backbone)
    cfg = _dataclass_from(TrainConfig, args.config, cfg_file, "train", overrides, seed=args.seed)
    pet_cfg = _dataclass_from(PetConfig, args.config, cfg_file, "pet", {}, kind=args.pet)
    try:
        build_pet(pet_cfg, state, np.random.default_rng(0))
    except ValueError as e:  # a PET config this backbone cannot take
        raise DataError(f"bad PetConfig value: {e}") from e
    if header is not None and header["method"] != cfg.method:
        raise DataError(f"{args.map} was fitted for method {header['method']!r}, "
                        f"not {cfg.method!r}")
    if mapnet is None and cfg.method != "none":
        raise DataError(f"method {cfg.method!r} requires --map")
    train_set = _load_dataset(args.train, state, pet_cfg)
    dev_set = _load_dataset(args.dev, state, pet_cfg)
    _, _, summary = run_training(args.out, state, pet_cfg, mapnet, endpoints,
                                 train_set, dev_set, cfg)
    print(f"best dev {cfg.metric}: {summary['best_dev_metric']:.4f} "
          f"at step {summary['best_step']}")
    print(f"wrote {os.path.join(args.out, 'metrics.csv')}")
    return 0


def _cmd_eval(args):
    state = load_backbone(args.backbone)
    pet = load_pet(args.pet, state)
    if pet.label_words is None:  # an eval file's own labels could be one class
        raise SnapshotFormatError(f"{args.pet}: no label words in the header; "
                                  f"train-pet records them")
    data = _load_dataset(args.data, state, pet.config)
    value = evaluate(state, pet, data, args.metric, pet.label_words)
    print(f"{args.metric}: {value:.6f}")
    return 0


def _cmd_fewshot(args):
    data = load_jsonl(args.data)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.seeds):
        seed = args.seed + i
        train, dev = fewshot_split(data, args.k, seed)
        d = os.path.join(args.out, f"seed{seed}")
        os.makedirs(d, exist_ok=True)
        write_jsonl(os.path.join(d, "train.jsonl"), train)
        write_jsonl(os.path.join(d, "dev.jsonl"), dev)
        print(f"seed {seed}: {len(train)} train / {len(dev)} dev -> {d}")
    return 0


def _cmd_sample_bridge(args):
    spec = bridges.BridgeSpec(kind=args.bridge, beta=np.asarray([args.beta]),
                              horizon=1.0, q=args.q, sigma=args.sigma)
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for p in range(args.paths):
        sample = bridges.sample_path(spec, args.steps, rng)
        # --steps rows per path: the pinned terminal point is omitted
        rows += ({"path": p, "t": float(sample.times[k]), "value": float(sample.values[k, 0])}
                 for k in range(args.steps))
    path = os.path.join(args.out, "bridge_paths.csv")
    write_csv(path, ["path", "t", "value"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_analyze(args):
    mapnet = endpoints = None
    if args.map is not None:
        mapnet, endpoints, _ = load_mapnet(args.map)
        if mapnet.time_augmented:
            raise DataError(f"{args.map}: an sde map, but analyze scores traces with a pdf map")
    rows = []
    for run in args.runs:
        probe_path = os.path.join(run, "probe.bin")
        alpha, labels, samples = load_probe(probe_path)
        if mapnet is not None and samples:
            _check_map_width(args.map, mapnet, samples[0][0].shape[1], probe_path)
        by_label = {}
        dists = []
        for label, (h_out, h_ctx) in zip(labels, samples):
            by_label.setdefault(label, []).append(h_out[-1])
            if mapnet is not None:
                try:
                    spec = bridge_spec(mapnet, endpoints, label)
                except ValueError as e:
                    raise DataError(f"{probe_path}: {e}") from e
                trace = trace_from_arrays(h_out, h_ctx)
                total, per_layer = bridge_distance(trace, mapnet, spec)
                dists.append((total, per_layer))
        row = {"run": run, "alpha": alpha,
               "centroid_distance": centroid_distance(by_label)}
        if dists:
            row["bridge_distance_sum"] = sum(d[0] for d in dists) / len(dists)
            row["bridge_distance_per_layer"] = sum(d[1] for d in dists) / len(dists)
        rows.append(row)

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "analyze.csv")
    write_csv(out_path, list(rows[0]), rows)
    print(f"wrote {out_path}")

    alphas = [row["alpha"] for row in rows]
    cds = [row["centroid_distance"] for row in rows]
    for name, stat, key in (("pearson", pearson, "r"), ("kendall_tau_b", kendall_tau_b, "tau")):
        try:
            value, p = stat(alphas, cds)
            print(f"{name}(alpha, centroid_distance): {key}={value:.6f} p={p:.6f}")
        except StatisticsError as e:
            print(f"{name}(alpha, centroid_distance): not computable ({e})")
    return 0


def _cmd_make_task(args):
    flags = {"per_class": args.per_class, "seq_len": args.seq_len, "mix": args.mix}
    cfg = _dataclass_from(TaskConfig, args.config, _load_config(args.config), "task", flags)
    samples = make_task_dataset(cfg.per_class, cfg.seq_len, cfg.mix,
                                np.random.default_rng(args.seed))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "task.jsonl")
    write_jsonl(path, samples)
    print(f"wrote {path} ({len(samples)} samples)")
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "fit-map": _cmd_fit_map,
    "train-pet": _cmd_train_pet,
    "eval": _cmd_eval,
    "fewshot": _cmd_fewshot,
    "sample-bridge": _cmd_sample_bridge,
    "analyze": _cmd_analyze,
    "make-task": _cmd_make_task,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        parser.print_usage(sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help paths
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (DataError, SnapshotFormatError, StatisticsError, NonFiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())
