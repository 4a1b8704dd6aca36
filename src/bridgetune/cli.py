"""Command-line surface for the bridge-regularized PET pipeline.

Subcommands: pretrain, fit-map, train-pet, eval, fewshot, sample-bridge,
analyze. Exit codes: 0 success, 1 usage error, 2 data error.
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
                       pearson, trace_from_arrays)
from .autodiff import NonFiniteError
from .backbone import (ModelConfig, PretrainConfig, check_input, freeze,
                       load_backbone, masked_accuracy, mlm_samples, pretrain_mlm,
                       save_backbone)
from .latent_map import (EndpointTable, FitMapConfig, build_endpoints,
                         fit_map, load_mapnet, save_mapnet)
from .pets import PetConfig, build_pet, load_pet
from .pipeline import (TrainConfig, evaluate, fewshot_split, load_probe,
                       run_training, write_csv)
from .snapshot import SnapshotFormatError
from .tasks import (DataError, load_jsonl, make_pretrain_corpus,
                    make_task_dataset, write_jsonl)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dataclass_from(cls, section: dict, overrides: dict):
    """Defaults, then config-file section, then explicit CLI overrides; a
    value the dataclass rejects with ValueError is a DataError."""
    values = {}
    known = {f.name for f in fields(cls)}
    for src in (section, overrides):
        for key, val in src.items():
            if key in known and val is not None:
                values[key] = val
    try:
        return cls(**values)
    except ValueError as e:
        raise DataError(f"bad {cls.__name__} value: {e}") from e


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


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read config {path}: {e}") from e


def _build_parser():
    parser = _Parser(prog="bridgetune",
                     description="Stochastic-bridge regularizers for PET training")
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file with section overrides")
    common.add_argument("--seed", type=_int_at_least(0), default=0)
    common.add_argument("--out", default=".", help="output directory")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pretrain", parents=[common],
                       help="build and pretrain the frozen backbone")
    p.add_argument("--steps", type=_int_at_least(1), default=2500)
    p.add_argument("--corpus-size", type=_int_at_least(1), default=300)
    p.add_argument("--seq-len", type=_int_at_least(1), default=12)

    p = sub.add_parser("fit-map", parents=[common],
                       help="fit the latent mapping on a frozen backbone")
    p.add_argument("--backbone", required=True)
    p.add_argument("--corpus", required=True, help="corpus JSON from pretrain")
    p.add_argument("--method", choices=["pdf", "sde"], required=True)
    p.add_argument("--bridge", choices=[bridges.BROWNIAN, bridges.OU], default=None,
                   help="bridge kind (default: the config's, else brownian)")
    p.add_argument("--steps", type=_int_at_least(1), default=None)
    p.add_argument("--eta", type=_positive_float, default=None)
    p.add_argument("--latent-dim", type=_int_at_least(1), default=None)

    p = sub.add_parser("train-pet", parents=[common],
                       help="train one PET with an optional bridge regularizer")
    p.add_argument("--backbone", required=True)
    p.add_argument("--map", help="map snapshot (required unless method none)")
    p.add_argument("--pet", choices=["prompt", "lora", "bitfit", "adapter"],
                   required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--method", choices=["none", "pdf", "sde"], default=None)
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--dev", required=True, help="dev JSONL")
    p.add_argument("--steps", type=_int_at_least(1), default=None)
    p.add_argument("--batch-size", type=_int_at_least(1), default=None)
    p.add_argument("--lr", type=_positive_float, default=None)
    p.add_argument("--eval-every", type=_int_at_least(1), default=None)
    p.add_argument("--metric", choices=["accuracy", "f1", "matthews"], default=None)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a PET checkpoint on a dataset")
    p.add_argument("--backbone", required=True)
    p.add_argument("--pet", required=True, help="PET snapshot path")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", choices=["accuracy", "f1", "matthews"],
                   default="accuracy")

    p = sub.add_parser("fewshot", parents=[common],
                       help="build k-shot train/dev splits over several seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--seeds", type=_int_at_least(1), default=5)

    p = sub.add_parser("sample-bridge", parents=[common],
                       help="sample bridge paths to CSV")
    p.add_argument("--bridge", choices=[bridges.BROWNIAN, bridges.OU],
                   default=bridges.BROWNIAN)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=_int_at_least(2), default=100)
    p.add_argument("--paths", type=_int_at_least(1), default=3)
    p.add_argument("--q", type=_positive_float, default=1.0)
    p.add_argument("--sigma", type=_positive_float, default=1.0)

    p = sub.add_parser("analyze", parents=[common],
                       help="centroid/bridge-distance analysis over run dirs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--map", help="map snapshot for bridge distances")

    p = sub.add_parser("make-task", parents=[common],
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
    model_cfg = _dataclass_from(ModelConfig, cfg_file.get("model", {}), {})
    if args.seq_len > model_cfg.max_seq_len:
        raise DataError(f"--seq-len {args.seq_len} exceeds max_seq_len "
                        f"{model_cfg.max_seq_len}")
    rng = np.random.default_rng(args.seed)
    corpus = make_pretrain_corpus(args.corpus_size, args.seq_len, rng)
    holdout = make_pretrain_corpus(60, args.seq_len, rng)
    pre_cfg = _dataclass_from(PretrainConfig, cfg_file.get("pretrain", {}),
                              {"max_steps": args.steps, "seed": args.seed})
    state = freeze(pretrain_mlm(model_cfg, corpus, pre_cfg))
    os.makedirs(args.out, exist_ok=True)
    save_backbone(os.path.join(args.out, "backbone.bin"), state)
    with open(os.path.join(args.out, "corpus.json"), "w", encoding="utf-8") as f:
        json.dump(corpus, f)
    acc = masked_accuracy(state, mlm_samples(holdout, np.random.default_rng(args.seed)))
    print(f"held-out masked accuracy: {acc:.4f}")
    print(f"wrote {os.path.join(args.out, 'backbone.bin')}")
    return 0


def _load_corpus(path, state):
    """The corpus JSON: a non-empty list of sequences, each one that
    backbone.check_input accepts for state's config."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            corpus = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read corpus {path}: {e}") from e
    if not isinstance(corpus, list) or not corpus:
        raise DataError(f"{path}: expected a non-empty list of sequences")
    for i, seq in enumerate(corpus):
        try:
            check_input(state.config, seq)
        except ValueError as e:
            raise DataError(f"{path}: sequence {i}: {e}") from e
    return corpus


def _cmd_fit_map(args):
    cfg_file = _load_config(args.config)
    state = load_backbone(args.backbone)
    corpus = _load_corpus(args.corpus, state)
    overrides = {"method": args.method, "bridge_kind": args.bridge,
                 "max_steps": args.steps, "latent_dim": args.latent_dim,
                 "seed": args.seed}
    cfg = _dataclass_from(FitMapConfig, cfg_file.get("fitmap", {}), overrides)
    if cfg.max_steps < 1:
        raise DataError(f"fitmap max_steps must be at least 1, got {cfg.max_steps}")
    eta = args.eta if args.eta is not None else 1.0
    endpoints = build_endpoints(state["embed"].data, cfg.latent_dim, eta)
    rng = np.random.default_rng(args.seed)
    samples = mlm_samples(corpus, rng)
    mapnet, history = fit_map(state, samples, cfg, endpoints)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"map-{args.method}.bin")
    save_mapnet(path, mapnet, args.method, endpoints,
                bridge_kind=cfg.bridge_kind, q=cfg.q, sigma=cfg.sigma)
    print(f"final training loss: {history[-1][1]:.4f}")
    print(f"wrote {path}")
    return 0


def _map_bridge(header) -> dict:
    """The bridge a map was fitted under (load_mapnet checked these header
    fields), as TrainConfig fields."""
    return {key: header[key] for key in ("bridge_kind", "q", "sigma")}


def _cmd_train_pet(args):
    cfg_file = _load_config(args.config)
    section = cfg_file.get("train", {})
    state = load_backbone(args.backbone)
    overrides = {
        "alpha": args.alpha, "method": args.method,
        "learning_rate": args.lr, "batch_size": args.batch_size,
        "max_steps": args.steps, "eval_every": args.eval_every,
        "seed": args.seed, "metric": args.metric,
    }
    mapnet = endpoints = header = None
    if args.map is not None:
        mapnet, endpoints, header = load_mapnet(args.map)
        bridge = _map_bridge(header)
        clash = {k: v for k, v in bridge.items() if k in section and section[k] != v}
        if clash:
            raise DataError(f"train config {clash} contradicts the bridge of "
                            f"{args.map}: {bridge}")
        overrides.update(bridge)
    cfg = _dataclass_from(TrainConfig, section, overrides)
    pet_cfg = _dataclass_from(PetConfig, cfg_file.get("pet", {}),
                              {"kind": args.pet})
    try:
        build_pet(pet_cfg, state, np.random.default_rng(0))
    except ValueError as e:  # a PET config this backbone cannot take
        raise DataError(f"bad PetConfig value: {e}") from e
    if header is not None and header.get("method") != cfg.method:
        raise DataError(f"{args.map} was fitted for method {header.get('method')!r}, "
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
    _load_config(args.config)  # validate even though no section applies
    state = load_backbone(args.backbone)
    pet = load_pet(args.pet, state)
    data = _load_dataset(args.data, state, pet.config)
    value = evaluate(state, pet, data, args.metric)
    print(f"{args.metric}: {value:.6f}")
    return 0


def _cmd_fewshot(args):
    _load_config(args.config)
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
    _load_config(args.config)
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
    _load_config(args.config)
    mapnet = endpoints = None
    if args.map is not None:
        mapnet, endpoints, header = load_mapnet(args.map)
        if mapnet.time_augmented:
            raise DataError(f"{args.map}: an sde map, but analyze scores traces with a pdf map")
        bridge = _map_bridge(header)
    rows = []
    for run in args.runs:
        cfg_path = os.path.join(run, "config.json")
        try:
            with open(cfg_path, "r", encoding="utf-8") as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read {cfg_path}: {e}") from e
        train = cfg.get("train") if isinstance(cfg, dict) else None
        alpha = train.get("alpha") if isinstance(train, dict) else None
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise DataError(f"{cfg_path}: train.alpha missing or not a number")
        probe_path = os.path.join(run, "probe.bin")
        labels, samples = load_probe(probe_path)
        if mapnet is not None and samples and 2 * samples[0][0].shape[1] != mapnet.dims[0]:
            raise DataError(f"{probe_path}: hidden width {samples[0][0].shape[1]} does not "
                            f"fit {args.map}, whose input width is {mapnet.dims[0]}")
        by_label = {}
        dists = []
        for label, (h_out, h_ctx) in zip(labels, samples):
            by_label.setdefault(label, []).append(h_out[-1])
            if mapnet is not None:
                try:
                    beta = endpoints.row(label)
                except ValueError as e:
                    raise DataError(f"{probe_path}: {e}") from e
                trace = trace_from_arrays(h_out, h_ctx)
                spec = bridges.BridgeSpec(
                    kind=bridge["bridge_kind"], beta=beta,
                    horizon=1.0, q=bridge["q"], sigma=bridge["sigma"])
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
    try:
        r, p = pearson(alphas, cds)
        print(f"pearson(alpha, centroid_distance): r={r:.6f} p={p:.6f}")
    except StatisticsError as e:
        print(f"pearson(alpha, centroid_distance): not computable ({e})")
    return 0


def _cmd_make_task(args):
    section = _load_config(args.config).get("task", {})

    def resolve(flag, key, fallback):
        return flag if flag is not None else section.get(key, fallback)

    rng = np.random.default_rng(args.seed)
    samples = make_task_dataset(resolve(args.per_class, "per_class", 80),
                                resolve(args.seq_len, "seq_len", 12),
                                resolve(args.mix, "mix", 0.35), rng)
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
