"""Command-line surface: exit codes, file contracts, and reproducibility.

Everything goes through cli(argv) rather than a subprocess so coverage and
the session-scoped world fixture are shared.
"""

import argparse
import inspect
import json
import math
import re
import shutil
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from bridgetune import cli as cli_module
from bridgetune.backbone import ModelConfig, PretrainConfig, init_backbone, save_backbone
from bridgetune.bridges import BridgeSpec
from bridgetune.cli import cli
from bridgetune.latent_map import FitMapConfig, load_mapnet, save_mapnet
from bridgetune.pets import PetConfig, build_pet, save_pet
from bridgetune.pipeline import TrainConfig, evaluate, predict
from bridgetune.snapshot import load_snapshot, save_snapshot
from bridgetune.tasks import TaskConfig, load_jsonl, write_jsonl

# ------------------------------------------------------------------ exit codes


def test_no_subcommand_exits_1(capsys):
    assert cli([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_1(capsys):
    assert cli(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert cli(["sample-bridge", "--nope", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and "error" in err


def test_missing_required_flag_exits_1(capsys):
    assert cli(["fewshot", "--k", "4"]) == 1  # --data missing
    assert "data" in capsys.readouterr().err


def test_missing_backbone_file_exits_2(tmp_path, capsys):
    rc = cli(["eval", "--backbone", str(tmp_path / "nope.bin"),
              "--pet", str(tmp_path / "x.bin"), "--data", str(tmp_path / "d")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_corrupt_backbone_exits_2(world_dir, tmp_path, capsys):
    rc = cli(["eval", "--backbone", str(world_dir / "task.jsonl"),
              "--pet", str(tmp_path / "x.bin"),
              "--data", str(world_dir / "task.jsonl")])
    assert rc == 2


def test_train_pet_method_without_map_exits_2(world_dir, tmp_path, capsys):
    rc = cli(["train-pet", "--backbone", str(world_dir / "backbone.bin"),
              "--pet", "prompt", "--method", "pdf",
              "--train", str(world_dir / "task.jsonl"),
              "--dev", str(world_dir / "task.jsonl"),
              "--out", str(tmp_path)])
    assert rc == 2
    assert "requires --map" in capsys.readouterr().err


def test_bad_config_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    rc = cli(["make-task", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "c.json"], ["eval", "--seed", "1"], ["eval", "--out", "x"],
    ["analyze", "--config", "c.json"], ["analyze", "--seed", "1"],
    ["fewshot", "--config", "c.json"], ["sample-bridge", "--config", "c.json"],
], ids=["eval-config", "eval-seed", "eval-out", "analyze-config", "analyze-seed",
        "fewshot-config", "sample-bridge-config"])
def test_flag_a_subcommand_does_not_read_exits_1(argv, capsys):
    required = {"eval": ["--backbone", "b", "--pet", "p", "--data", "d"],
                "analyze": ["--runs", "r"], "fewshot": ["--data", "d", "--k", "1"]}
    assert cli(argv + required.get(argv[0], [])) == 1
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


@pytest.mark.parametrize("argv", [
    ["sample-bridge", "--steps", "1"],
    ["sample-bridge", "--paths", "0"],
    ["fewshot", "--k", "0"],
    ["fewshot", "--k", "2", "--seeds", "0"],
    ["train-pet", "--steps", "0"],
    ["train-pet", "--batch-size", "0"],
    ["train-pet", "--eval-every", "0"],
    ["pretrain", "--steps", "-3"],
    ["pretrain", "--corpus-size", "0"],
    ["pretrain", "--seq-len", "0"],
    ["fit-map", "--steps", "0"],
    ["fit-map", "--latent-dim", "0"],
    ["make-task", "--per-class", "0"],
    ["make-task", "--seq-len", "0"],
    ["make-task", "--mix", "1.5"],
    ["make-task", "--mix", "0.5"],
    ["make-task", "--mix", "-0.1"],
    ["train-pet", "--lr", "-0.5"],
    ["train-pet", "--lr", "0"],
    ["train-pet", "--lr", "nan"],
    ["train-pet", "--alpha", "-1"],
    ["train-pet", "--alpha", "nan"],
    ["fit-map", "--eta", "-1"],
    ["fit-map", "--eta", "0"],
    ["fit-map", "--eta", "inf"],
    ["pretrain", "--seed", "-1"],
    ["make-task", "--seed", "-1"],
    ["sample-bridge", "--seed", "-1"],
    ["sample-bridge", "--q", "0", "--bridge", "ou"],
    ["sample-bridge", "--sigma", "-1", "--bridge", "ou"],
    ["sample-bridge", "--q", "nan"],
    ["sample-bridge", "--beta", "nan"],
    ["sample-bridge", "--beta", "inf"],
], ids=["sample-bridge-steps", "sample-bridge-paths", "fewshot-k",
        "fewshot-seeds", "train-pet-steps", "train-pet-batch-size",
        "train-pet-eval-every", "pretrain-steps", "pretrain-corpus-size",
        "pretrain-seq-len", "fit-map-steps", "fit-map-latent-dim",
        "make-task-per-class", "make-task-seq-len", "make-task-mix-1.5",
        "make-task-mix-0.5", "make-task-mix-negative", "train-pet-lr-negative",
        "train-pet-lr-0", "train-pet-lr-nan", "train-pet-alpha-negative",
        "train-pet-alpha-nan", "fit-map-eta-negative", "fit-map-eta-0",
        "fit-map-eta-inf", "pretrain-seed-negative", "make-task-seed-negative",
        "sample-bridge-seed-negative", "sample-bridge-ou-q-0",
        "sample-bridge-ou-sigma-negative", "sample-bridge-q-nan", "sample-bridge-beta-nan",
        "sample-bridge-beta-inf"])
def test_count_flag_below_minimum_exits_1_writing_nothing(argv, tmp_path,
                                                          capsys):
    assert cli(["make-task", "--per-class", "4", "--out", str(tmp_path)]) == 0
    task = str(tmp_path / "task.jsonl")
    if argv[0] == "fewshot":
        argv = argv + ["--data", task]
    if argv[0] == "train-pet":  # no backbone is read before the check
        argv = argv + ["--backbone", str(tmp_path / "none.bin"), "--pet", "lora",
                       "--train", task, "--dev", task]
    if argv[0] == "fit-map":
        argv = argv + ["--backbone", str(tmp_path / "none.bin"), "--method", "pdf",
                       "--corpus", str(tmp_path / "none.json")]
    out = tmp_path / "out"
    assert cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    bound = ("must be a finite number above 0" if argv[1] in ("--lr", "--eta", "--q", "--sigma")
             else "must be a finite number" if argv[1] == "--beta" else "must be at least")
    assert "usage" in err.lower() and bound in err
    assert not out.exists()


@pytest.mark.parametrize("argv, section, message", [
    (["pretrain", "--steps", "2", "--corpus-size", "4"], {"pretrain": {"batch_size": 0}},
     "batch_size must be at least 1, got 0"),
    (["pretrain", "--steps", "2", "--corpus-size", "4"], {"model": {"num_heads": 0}},
     "num_heads must be at least 1, got 0"),
    (["pretrain", "--steps", "2", "--corpus-size", "4", "--seq-len", "33"], {},
     "synthetic corpus (--seq-len 33, model config): sequence 0: "
     "sequence length 33 outside 1 to 32"),
    (["fit-map", "--method", "pdf"], {"fitmap": {"max_steps": 0}},
     "max_steps must be at least 1, got 0"),
    (["fit-map", "--method", "sde"], {"fitmap": {"batch_size": "8"}},
     "batch_size must be an integer, got '8'"),
    (["make-task"], {"task": {"per_class": 0}}, "per_class must be at least 1, got 0"),
    (["make-task"], {"task": {"per_class": "4"}}, "per_class must be an integer, got '4'"),
    (["make-task"], {"task": {"mix": 0.5}}, "mix must be below 0.5, got 0.5"),
    (["pretrain", "--steps", "2", "--corpus-size", "4"], {"pretrain": {"learning_rate": 0}},
     "learning_rate must be a finite number above 0, got 0"),
    (["fit-map", "--method", "pdf"], {"fitmap": {"learning_rate": -1e-3}},
     "learning_rate must be a finite number above 0, got -0.001"),
    (["fit-map", "--method", "sde"], {"fitmap": {"sde_steps": 3}},
     "sde_steps must be at least 4, got 3"),
    (["train-pet", "--pet", "lora"], {"train": {"learning_rate": math.nan}},
     "learning_rate must be a finite number above 0, got nan"),
    (["train-pet", "--pet", "lora"], {"train": {"alpha": math.inf}},
     "alpha must be a finite number at least 0, got inf"),
    # the map carries its sde grid, so a train section has no sde_steps
    (["train-pet", "--pet", "lora"], {"train": {"sde_steps": 8}},
     "section 'train' has unknown key 'sde_steps'"),
    (["train-pet", "--pet", "prompt"], {"pet": {"prompt_len": 2.5}},
     "prompt_len must be an integer, got 2.5"),
    (["train-pet", "--pet", "prompt"], {"pet": {"prompt_len": True}},
     "prompt_len must be an integer, got True"),
    (["train-pet", "--pet", "lora"], {"pet": {"r_lora": 40}},
     "bad PetConfig value: r_lora must be < hidden_dim"),
    (["fit-map", "--method", "pdf"], {"fitmap": {"bridge_kind": "gauss"}},
     "bridge_kind must be brownian or ou, got 'gauss'"),
    (["fit-map", "--method", "pdf"], {"fitmap": {"q": "abc"}},
     "q must be a finite number above 0, got 'abc'"),
    (["fit-map", "--method", "sde"], {"fitmap": {"sigma": math.nan}},
     "sigma must be a finite number above 0, got nan"),
    (["fit-map", "--method", "pdf", "--bridge", "ou"], {"fitmap": {"q": -1}},
     "q must be a finite number above 0, got -1"),
    # the map carries the bridge, so a train section has no bridge fields
    (["train-pet", "--pet", "lora"], {"train": {"bridge_kind": "gauss"}},
     "section 'train' has unknown key 'bridge_kind'"),
    (["train-pet", "--pet", "lora"], {"train": {"q": -1.0}},
     "section 'train' has unknown key 'q'"),
    (["train-pet", "--pet", "lora"], {"train": {"sigma": "abc"}},
     "section 'train' has unknown key 'sigma'"),
    # an endpoint table the 32-wide, 64-token backbone cannot take
    (["fit-map", "--method", "pdf"], {"fitmap": {"latent_dim": 32}},
     "need latent dimension r < d and |V| > r, got r=32, d=32, |V|=64"),
    (["fit-map", "--method", "pdf", "--latent-dim", "40"], {},
     "need latent dimension r < d and |V| > r, got r=40, d=32, |V|=64"),
    (["fit-map", "--method", "pdf", "--eta", "1e308"], {},
     "endpoint table of {backbone}: eta 1e+308 overflows the endpoint rows"),
    # rows whose squares overflow, or which underflow to a few distinct values
    (["fit-map", "--method", "pdf", "--eta", "1e300"], {},
     "endpoint table of {backbone}: eta 1e+300 overflows the endpoint rows or underflows them"),
    (["fit-map", "--method", "pdf", "--eta", "1e-160"], {},
     "endpoint table of {backbone}: eta 1e-160 overflows the endpoint rows or underflows them"),
    (["fit-map", "--method", "pdf", "--eta", "5e-324"], {},
     "endpoint table of {backbone}: eta 5e-324 overflows the endpoint rows or underflows them"),
], ids=["pretrain-batch-size", "model-num-heads", "pretrain-seq-len-over-model",
        "fitmap-max-steps", "fitmap-batch-size", "task-per-class", "task-per-class-string",
        "task-mix", "pretrain-learning-rate", "fitmap-learning-rate", "fitmap-sde-steps",
        "train-learning-rate", "train-alpha", "train-sde-steps", "pet-prompt-len-float",
        "pet-prompt-len-bool", "pet-r-lora-over-hidden-dim", "fitmap-bridge-kind",
        "fitmap-q-string", "fitmap-sigma-nan", "fitmap-ou-q-negative", "train-bridge-kind",
        "train-q-negative", "train-sigma-string", "fitmap-latent-dim-32",
        "fit-map-latent-dim-40", "fit-map-eta-1e308", "fit-map-eta-1e300",
        "fit-map-eta-1e-160", "fit-map-eta-5e-324"])
def test_config_value_out_of_range_exits_2_writing_nothing(world_dir, tmp_path, capsys,
                                                           argv, section, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section))
    if argv[0] == "fit-map":
        argv = argv + ["--backbone", str(world_dir / "backbone.bin"),
                       "--corpus", str(world_dir / "corpus.json")]
    if argv[0] == "train-pet":
        argv = argv + ["--backbone", str(world_dir / "backbone.bin"),
                       "--train", str(world_dir / "task.jsonl"),
                       "--dev", str(world_dir / "task.jsonl")]
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert message.format(backbone=world_dir / "backbone.bin") in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["pretrain"], [1, 2], "a config is a JSON object of sections"),
    (["make-task"], [1, 2], "a config is a JSON object of sections"),
    (["make-task"], {"task": [1]}, "section 'task' is not a JSON object"),
    (["pretrain"], {"model": 5}, "section 'model' is not a JSON object"),
    (["pretrain"], {"pretrain": {"learning_rte": 1e-9}},
     "section 'pretrain' has unknown key 'learning_rte'"),
    (["make-task"], {"task": {"per_clas": 4}}, "section 'task' has unknown key 'per_clas'"),
    (["fit-map", "--method", "pdf"], {"fitmap": {"steps": 4}},
     "section 'fitmap' has unknown key 'steps'"),
    (["train-pet", "--pet", "lora", "--method", "none"], {"trian": {"alpha": 5}},
     "unknown section 'trian'"),
    (["make-task"], {"task": {}, "tasks": {"mix": 0.1}}, "unknown section 'tasks'"),
], ids=["pretrain-list", "make-task-list", "task-list", "model-number",
        "pretrain-misspelled-key", "task-misspelled-key", "fitmap-flag-name-as-key",
        "train-pet-misspelled-section", "make-task-misspelled-section"])
def test_malformed_config_file_exits_2_naming_it_and_writing_nothing(
        world_dir, tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    if argv[0] == "pretrain":
        argv = argv + ["--steps", "2", "--corpus-size", "4"]
    if argv[0] == "fit-map":
        argv = argv + ["--backbone", str(world_dir / "backbone.bin"),
                       "--corpus", str(world_dir / "corpus.json")]
    if argv[0] == "train-pet":
        argv = argv + ["--backbone", str(world_dir / "backbone.bin"),
                       "--train", str(world_dir / "task.jsonl"),
                       "--dev", str(world_dir / "task.jsonl")]
    out = tmp_path / "out"
    assert cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_sections_a_command_does_not_read_are_allowed(tmp_path):
    """One file can serve every command: make-task reads only the task
    section, and the others it holds are checked by the commands that read
    them."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": {"per_class": 2}, "train": {"alpha": 5},
                               "model": {"num_heads": 0}}))
    assert cli(["make-task", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(load_jsonl(tmp_path / "task.jsonl")) == 4


# Each config section: a command that reads it, with every flag that sets one
# of its keys given, and the dataclass whose fields, but FLAG_KEYS, are its keys.
CONFIG_SECTIONS = {
    "model": (["pretrain", "--steps", "2", "--corpus-size", "4"], ModelConfig),
    "pretrain": (["pretrain", "--steps", "2", "--corpus-size", "4"], PretrainConfig),
    "fitmap": (["fit-map", "--method", "pdf", "--bridge", "brownian", "--steps", "1",
                "--latent-dim", "8"], FitMapConfig),
    "train": (["train-pet", "--pet", "lora", "--alpha", "0", "--method", "none", "--steps", "1",
               "--batch-size", "1", "--lr", "0.1", "--eval-every", "1", "--metric", "f1"],
              TrainConfig),
    "pet": (["train-pet", "--pet", "lora"], PetConfig),
    "task": (["make-task", "--per-class", "2", "--seq-len", "3", "--mix", "0.1"], TaskConfig),
}
# The fields that a flag always sets (a default or a required flag), so that
# no section may set them.
FLAG_KEYS = {("pretrain", "max_steps"), ("pretrain", "seed"), ("fitmap", "method"),
             ("fitmap", "seed"), ("train", "seed"), ("pet", "kind")}
REMOVED_KEYS = [("pretrain", "grad_clip"), ("fitmap", "grad_clip"), ("fitmap", "warmup_ratio"),
                ("fitmap", "hidden_dims"), ("train", "grad_clip")]


def _config_key_cases():
    for section, (_, cls) in CONFIG_SECTIONS.items():
        for field in fields(cls):
            key = field.name
            yield pytest.param(section, key, None, id=f"{section}-{key}-null")
            yield pytest.param(section, key, 1 if field.type == "str" else "1",
                               id=f"{section}-{key}-wrong-type")
    for section, key in REMOVED_KEYS:
        yield pytest.param(section, key, -1, id=f"{section}-{key}-removed")


@pytest.mark.parametrize("section, key, value", _config_key_cases())
def test_every_config_key_refuses_null_and_wrong_types_writing_nothing(
        world_dir, tmp_path, capsys, section, key, value):
    """Every value a config file gives is checked, also where a flag sets
    the same key: a null, a value of the wrong JSON type, a key that was
    removed, or any value of a key that a flag always sets exits 2 before
    anything is written, naming the file and the section."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    argv = CONFIG_SECTIONS[section][0]
    if argv[0] == "fit-map":
        argv = argv + ["--backbone", str(world_dir / "backbone.bin"),
                       "--corpus", str(world_dir / "corpus.json")]
    if argv[0] == "train-pet":
        argv = argv + ["--backbone", str(world_dir / "backbone.bin"),
                       "--train", str(world_dir / "task.jsonl"),
                       "--dev", str(world_dir / "task.jsonl")]
    out = tmp_path / "out"
    assert cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if (section, key) in FLAG_KEYS:
        assert f"error: {cfg}: section {section!r} sets {key!r}, which a flag always sets" in err
    elif value is None:
        assert f"error: {cfg}: section {section!r} sets {key!r} to null" in err
    elif value == -1:
        assert f"error: {cfg}: section {section!r} has unknown key {key!r}" in err
    else:
        assert err.startswith(f"error: {cfg}: section {section!r}: {key} must be ")
    assert not out.exists()


def test_config_key_inventory():
    """The keys each section takes: its dataclass's fields but those that a
    flag always sets. A key added or dropped changes this count on purpose."""
    counts = {section: len([f for f in fields(cls) if (section, f.name) not in FLAG_KEYS])
              for section, (_, cls) in CONFIG_SECTIONS.items()}
    assert counts == {"model": 6, "pretrain": 2, "fitmap": 9, "train": 7, "pet": 3, "task": 3}


def test_every_subcommand_reads_every_flag_it_takes():
    """Each subcommand's handler reads args.<dest> for every flag its parser
    accepts, and no other; the CLI has 57 flags in all."""
    parser = cli_module._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    total = 0
    for name, sub in subparsers.choices.items():
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        handler = getattr(cli_module, "_cmd_" + name.replace("-", "_"))
        assert set(re.findall(r"\bargs\.(\w+)", inspect.getsource(handler))) == dests, name
        total += len(dests)
    assert total == 57


# --------------------------------------------------------------- sample-bridge

def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_sample_bridge_csv_contract(tmp_path, capsys):
    rc = cli(["sample-bridge", "--bridge", "brownian", "--beta", "1.0",
              "--steps", "50", "--paths", "3", "--seed", "7",
              "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "bridge_paths.csv")
    assert header == "path,t,value"
    assert len(rows) == 3 * 50
    for p in range(3):
        chunk = rows[p * 50:(p + 1) * 50]
        assert all(cells[0] == str(p) for cells in chunk)
        for k, cells in enumerate(chunk):
            assert float(cells[1]) == pytest.approx(k / 50, abs=1e-12)
        # Paths start at zero; the pinned terminal point is not emitted.
        assert float(chunk[0][2]) == 0.0
        assert float(chunk[-1][1]) < 1.0


def test_sample_bridge_deterministic(tmp_path):
    args = ["sample-bridge", "--bridge", "ou", "--beta", "0.5", "--q", "2.0",
            "--steps", "20", "--paths", "2", "--seed", "9"]
    assert cli(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "bridge_paths.csv").read_bytes()
    b = (tmp_path / "b" / "bridge_paths.csv").read_bytes()
    assert a == b
    assert cli(args[:-1] + ["8", "--out", str(tmp_path / "c")]) == 0
    c = (tmp_path / "c" / "bridge_paths.csv").read_bytes()
    assert c != a


# ------------------------------------------------------- dataset subcommands

def test_make_task_and_load(tmp_path, capsys):
    rc = cli(["make-task", "--per-class", "10", "--seq-len", "8",
              "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    samples = load_jsonl(tmp_path / "task.jsonl")
    assert len(samples) == 20
    labels = {s.label_word for s in samples}
    assert len(labels) == 2
    assert all(len(s.tokens) == 9 for s in samples)  # mask appended


def test_fewshot_writes_seed_directories(world_dir, tmp_path):
    rc = cli(["fewshot", "--data", str(world_dir / "task.jsonl"), "--k", "3",
              "--seeds", "2", "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    for seed in (5, 6):
        train = load_jsonl(tmp_path / f"seed{seed}" / "train.jsonl")
        dev = load_jsonl(tmp_path / f"seed{seed}" / "dev.jsonl")
        assert len(train) == 6 and len(dev) == 6
    a = (tmp_path / "seed5" / "train.jsonl").read_bytes()
    b = (tmp_path / "seed6" / "train.jsonl").read_bytes()
    assert a != b


def test_fewshot_non_integer_token_exits_2_writing_nothing(tmp_path, capsys):
    data = tmp_path / "task.jsonl"
    data.write_text(json.dumps({"tokens": [3.7, "5", True], "label_word": 2.9}) + "\n")
    out = tmp_path / "shots"
    assert cli(["fewshot", "--data", str(data), "--k", "1", "--out", str(out)]) == 2
    assert (f"{data}:1: tokens, label_word and mask_position must be JSON integers"
            in capsys.readouterr().err)
    assert not out.exists()


def test_fewshot_empty_dataset_exits_2_writing_nothing(tmp_path, capsys):
    data = tmp_path / "empty.jsonl"
    data.write_text("")
    out = tmp_path / "shots"
    assert cli(["fewshot", "--data", str(data), "--k", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {data}: no samples\n"
    assert not out.exists()


def test_fewshot_insufficient_pool_exits_2(tmp_path, capsys):
    assert cli(["make-task", "--per-class", "4", "--out", str(tmp_path)]) == 0
    rc = cli(["fewshot", "--data", str(tmp_path / "task.jsonl"), "--k", "5",
              "--out", str(tmp_path / "shots")])
    assert rc == 2
    assert "needs 10" in capsys.readouterr().err


# ------------------------------------------------------------- trained runs

TRAIN_STEPS = "20"
EVAL_EVERY = "10"


def _train_args(world_dir, data, out, *extra):
    return ["train-pet", "--backbone", str(world_dir / "backbone.bin"),
            "--pet", "bitfit", "--train", str(data["train"]),
            "--dev", str(data["dev"]), "--steps", TRAIN_STEPS,
            "--eval-every", EVAL_EVERY, "--seed", "3", "--out", str(out),
            *extra]


@pytest.fixture(scope="module")
def cli_run(world_dir, tmp_path_factory):
    """Shot splits plus one vanilla CLI training run, shared in this module."""
    d = tmp_path_factory.mktemp("cli")
    rc = cli(["fewshot", "--data", str(world_dir / "task.jsonl"), "--k", "8",
              "--seeds", "1", "--out", str(d / "shots")])
    assert rc == 0
    data = {"train": d / "shots" / "seed0" / "train.jsonl",
            "dev": d / "shots" / "seed0" / "dev.jsonl"}
    out = d / "run-none"
    assert cli(_train_args(world_dir, data, out, "--method", "none")) == 0
    return {"base": d, "data": data, "out": out}


def test_train_pet_writes_run_directory(cli_run):
    out = cli_run["out"]
    for name in ("config.json", "metrics.csv", "pet.bin", "probe.bin"):
        assert (out / name).exists(), name
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,train_loss,terminal_loss,running_cost,dev_metric"
    assert len(lines) == 3  # 20 steps / eval every 10


def test_train_pet_rerun_byte_identical(world_dir, cli_run, tmp_path):
    out2 = tmp_path / "rerun"
    assert cli(_train_args(world_dir, cli_run["data"], out2,
                           "--method", "none")) == 0
    for name in ("metrics.csv", "pet.bin"):
        assert ((cli_run["out"] / name).read_bytes()
                == (out2 / name).read_bytes()), name


def test_train_pet_seed_changes_metrics(world_dir, cli_run, tmp_path):
    out2 = tmp_path / "other-seed"
    args = _train_args(world_dir, cli_run["data"], out2, "--method", "none")
    args[args.index("--seed") + 1] = "4"
    assert cli(args) == 0
    assert ((cli_run["out"] / "metrics.csv").read_bytes()
            != (out2 / "metrics.csv").read_bytes())


def test_alpha_zero_spellings_match_method_none(world_dir, cli_run, tmp_path):
    # `--alpha 0`, `--method none`, and `--alpha 0 --method pdf --map ...`
    # resolve to the same training trajectory.
    base = (cli_run["out"] / "metrics.csv").read_bytes()
    out_a = tmp_path / "alpha0"
    assert cli(_train_args(world_dir, cli_run["data"], out_a,
                           "--alpha", "0")) == 0
    out_b = tmp_path / "alpha0-pdf"
    assert cli(_train_args(world_dir, cli_run["data"], out_b,
                           "--alpha", "0", "--method", "pdf",
                           "--map", str(world_dir / "map-pdf.bin"))) == 0
    assert (out_a / "metrics.csv").read_bytes() == base
    assert (out_b / "metrics.csv").read_bytes() == base
    assert (out_a / "pet.bin").read_bytes() == (out_b / "pet.bin").read_bytes()


def test_train_pet_config_file_overrides(world_dir, cli_run, tmp_path):
    # Config-file sections apply, and explicit flags win over them.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_steps": 10, "eval_every": 5},
                               "pet": {"prompt_len": 4}}))
    out = tmp_path / "cfgrun"
    args = _train_args(world_dir, cli_run["data"], out,
                       "--method", "none", "--config", str(cfg))
    # Drop the explicit --steps/--eval-every so the file values apply.
    for flag in ("--steps", "--eval-every"):
        i = args.index(flag)
        del args[i:i + 2]
    assert cli(args) == 0
    record = json.loads((out / "config.json").read_text())
    assert record["train"]["max_steps"] == 10
    assert record["train"]["eval_every"] == 5


@pytest.mark.parametrize("key", ["max_steps", "batch_size", "eval_every"])
@pytest.mark.parametrize("value, message", [
    (0, "must be at least 1, got 0"), ("4", "must be an integer, got '4'"),
], ids=["zero", "string"])
def test_train_pet_config_bad_count_exits_2(world_dir, cli_run, tmp_path,
                                            capsys, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {key: value}}))
    out = tmp_path / "run"
    args = _train_args(world_dir, cli_run["data"], out, "--method", "none",
                       "--config", str(cfg))
    for flag in ("--steps", "--eval-every"):  # let the file value apply
        i = args.index(flag)
        del args[i:i + 2]
    assert cli(args) == 2
    assert f"{key} {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_pet_map_of_other_method_exits_2(world_dir, cli_run, tmp_path,
                                               capsys):
    out = tmp_path / "run"
    rc = cli(_train_args(world_dir, cli_run["data"], out, "--method", "pdf",
                         "--alpha", "0.1", "--map", str(world_dir / "map-sde.bin")))
    assert rc == 2
    assert "fitted for method 'sde', not 'pdf'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["pdf", "sde"])
def test_train_pet_map_of_other_width_exits_2(world_dir, cli_run, tmp_path, capsys, method):
    narrow = tmp_path / "backbone-16.bin"
    save_backbone(narrow, init_backbone(ModelConfig(hidden_dim=16), np.random.default_rng(0)))
    out = tmp_path / "run"
    args = _train_args(world_dir, cli_run["data"], out, "--method", method, "--alpha", "0.1",
                       "--map", str(world_dir / f"map-{method}.bin"))
    args[args.index("--backbone") + 1] = str(narrow)
    assert cli(args) == 2
    assert (f"error: {narrow}: hidden width 16 does not fit {world_dir / f'map-{method}.bin'}, "
            f"whose input width is {64 + (method == 'sde')} (fitted on hidden width 32)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_train_pet_config_bridge_contradicting_map_exits_2(world_dir, cli_run,
                                                           tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"bridge_kind": "ou"}}))
    out = tmp_path / "run"
    rc = cli(_train_args(world_dir, cli_run["data"], out, "--method", "pdf",
                         "--alpha", "0.1", "--map", str(world_dir / "map-pdf.bin"),
                         "--config", str(cfg)))
    assert rc == 2  # the map carries the bridge: a train section has no bridge fields
    assert f"{cfg}: section 'train' has unknown key 'bridge_kind'" in capsys.readouterr().err
    assert not out.exists()


def test_train_pet_takes_bridge_from_map(world, world_dir, cli_run, tmp_path):
    ou_map = tmp_path / "map-ou.bin"
    save_mapnet(ou_map, replace(world.pdf_map, bridge=BridgeSpec(kind="ou", q=1.5, sigma=0.9)),
                "pdf", world.endpoints)
    args = _train_args(world_dir, cli_run["data"], tmp_path / "run",
                       "--method", "pdf", "--alpha", "0.1", "--map", str(ou_map))
    assert cli(args + ["--bridge", "brownian"]) == 1  # the map decides
    assert cli(args) == 0
    record = json.loads((tmp_path / "run" / "config.json").read_text())
    assert record["bridge"] == {"kind": "ou", "q": 1.5, "sigma": 0.9}
    assert "bridge_kind" not in record["train"]


EVERY_STEP = ["--steps", "5", "--eval-every", "1"]


@pytest.mark.parametrize("extra, message", [
    (["--lr", "1e300"], "non-finite training step 2: loss "),
    (["--method", "pdf", "--alpha", "1e308", "--map", "map-pdf.bin"],
     "non-finite training step 1: loss "),
    (["--pet", "lora", "--lr", "1e300", *EVERY_STEP], "non-finite training step 2: loss "),
    (["--lr", "1e300", *EVERY_STEP],
     "dev evaluation after step 1: non-finite logits for sample 0\n"),
], ids=["lr-1e300", "pdf-alpha-1e308", "lora-lr-1e300-evaluating-every-step",
        "lr-1e300-evaluating-every-step"])
def test_train_pet_non_finite_step_exits_2_writing_nothing(world_dir, cli_run, tmp_path,
                                                           capsys, extra, message):
    """Inference runs under an errstate of its own, so the error line is all
    that reaches stderr, also when a dev evaluation runs between steps."""
    extra = [str(world_dir / a) if a.endswith(".bin") else a for a in extra]
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(_train_args(world_dir, cli_run["data"], out, *extra)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["backbone", "pet", "map", "probe"])
def test_non_finite_snapshot_record_exits_2_writing_nothing(world_dir, cli_run, tmp_path,
                                                            capsys, kind):
    """A NaN in any record of any snapshot kind is refused at load, naming
    the file and the record (eval used to score a NaN pet.bin 0.5)."""
    run = tmp_path / "run"
    shutil.copytree(cli_run["out"], run)
    shutil.copy(world_dir / "backbone.bin", tmp_path / "backbone.bin")
    shutil.copy(world_dir / "map-pdf.bin", tmp_path / "map.bin")
    path = {"backbone": tmp_path / "backbone.bin", "pet": run / "pet.bin",
            "map": tmp_path / "map.bin", "probe": run / "probe.bin"}[kind]
    header, tensors = load_snapshot(path)
    name = list(tensors)[-1]
    tensors[name].flat[-1] = math.nan
    save_snapshot(path, header, tensors)
    out = tmp_path / "out"
    if kind in ("backbone", "pet"):
        argv = ["eval", "--backbone", str(tmp_path / "backbone.bin"),
                "--pet", str(run / "pet.bin"), "--data", str(cli_run["data"]["dev"])]
    else:
        argv = ["analyze", "--runs", str(run), "--map", str(tmp_path / "map.bin"),
                "--out", str(out)]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: record {name!r} holds a non-finite value\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, section", [
    (["pretrain", "--steps", "4", "--corpus-size", "8"], "pretrain"),
    (["fit-map", "--method", "pdf", "--steps", "4"], "fitmap"),
])
def test_stage1_non_finite_step_exits_2_writing_nothing(world_dir, tmp_path, capsys,
                                                        argv, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {"learning_rate": 1e300}}))
    if argv[0] == "fit-map":
        argv = argv + ["--backbone", str(world_dir / "backbone.bin"),
                       "--corpus", str(world_dir / "corpus.json")]
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "non-finite training step 2: loss " in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("method", ["pdf", "sde"])
def test_fit_map_non_finite_step_names_eta_and_latent_dim(world_dir, tmp_path, capsys, method):
    """Rows of norm 1e154 stay finite, but the losses grow as eta squared."""
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli(["fit-map", "--method", method, "--steps", "3", "--eta", "1e154",
                    "--backbone", str(world_dir / "backbone.bin"),
                    "--corpus", str(world_dir / "corpus.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eta 1e+154, latent dimension 8: "
                          "non-finite training step 1: loss inf")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def _bad_dataset(tmp_path, case):
    """One valid sample, then one with a token id outside the vocabulary of
    64 or with 26 tokens, which fit max_seq_len 32 only without a prompt."""
    tokens = [5] * 12 + [99] if case == "token" else [5] * 25
    path = tmp_path / f"{case}.jsonl"
    path.write_text(json.dumps({"tokens": [5] * 12, "label_word": 1}) + "\n"
                    + json.dumps({"tokens": tokens, "label_word": 1}) + "\n")
    return path


@pytest.mark.parametrize("case, message", [
    ("token", "sample 1: token id outside the vocabulary of 64"),
    ("length", "sample 1: 26 tokens + 8 prompt columns exceed max_seq_len 32"),
])
@pytest.mark.parametrize("command", ["train-pet", "eval"])
def test_dataset_outside_backbone_exits_2_writing_nothing(
        world, world_dir, cli_run, tmp_path, capsys, command, case, message):
    bad = _bad_dataset(tmp_path, case)
    out = tmp_path / "run"
    if command == "train-pet":
        args = _train_args(world_dir, {"train": cli_run["data"]["train"], "dev": bad},
                           out, "--method", "none")
        args[args.index("--pet") + 1] = "prompt"
    else:
        pet = tmp_path / "prompt.bin"
        params = build_pet(PetConfig(kind="prompt"), world.state, np.random.default_rng(0))
        params.label_words = sorted({s.label_word for s in world.pool})
        save_pet(pet, params)
        args = ["eval", "--backbone", str(world_dir / "backbone.bin"), "--pet", str(pet),
                "--data", str(bad)]
    assert cli(args) == 2
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_label_words_of_a_wider_vocabulary_split_train_and_score(tmp_path, capsys):
    """The backbone owns the vocabulary: label word 100 is in a 128-token
    one, and fewshot, which reads no backbone, passes it through."""
    backbone = tmp_path / "backbone.bin"
    save_backbone(backbone, init_backbone(ModelConfig(vocab_size=128),
                                          np.random.default_rng(0)))
    data = tmp_path / "task.jsonl"
    data.write_text("".join(json.dumps({"tokens": [5 + i] * 6, "label_word": word}) + "\n"
                            for i in range(4) for word in (1, 100)))
    assert cli(["fewshot", "--data", str(data), "--k", "2", "--seeds", "1",
                "--out", str(tmp_path / "shots")]) == 0
    shots, out = tmp_path / "shots" / "seed0", tmp_path / "run"
    assert cli(["train-pet", "--backbone", str(backbone), "--pet", "lora", "--steps", "2",
                "--train", str(shots / "train.jsonl"), "--dev", str(shots / "dev.jsonl"),
                "--out", str(out)]) == 0
    assert cli(["eval", "--backbone", str(backbone), "--pet", str(out / "pet.bin"),
                "--data", str(data)]) == 0
    assert load_snapshot(out / "pet.bin")[0]["label_words"] == [1, 100]


def test_eval_with_pet_snapshot_as_backbone_exits_2(cli_run, capsys):
    pet = str(cli_run["out"] / "pet.bin")
    assert cli(["eval", "--backbone", pet, "--pet", pet,
                "--data", str(cli_run["data"]["dev"])]) == 2
    assert "not a 'backbone' snapshot (header kind 'pet')" in capsys.readouterr().err


def test_eval_prints_metric(world_dir, cli_run, capsys):
    rc = cli(["eval", "--backbone", str(world_dir / "backbone.bin"),
              "--pet", str(cli_run["out"] / "pet.bin"),
              "--data", str(cli_run["data"]["dev"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy: ")
    value = float(out.split(":")[1])
    assert 0.0 <= value <= 1.0


def test_eval_scores_a_one_class_file_with_the_training_label_words(
        world, world_dir, tmp_path, capsys):
    """eval picks among the label words that train-pet recorded. Among the
    one class of a one-class file, an untrained PET would score 1.000."""
    pet = build_pet(PetConfig(kind="lora"), world.state, np.random.default_rng(0))
    pet.label_words = sorted({s.label_word for s in world.pool})
    preds = predict(world.state, pet, world.pool, pet.label_words)
    word = next(s.label_word for s, p in zip(world.pool, preds) if p != s.label_word)
    missed = [s for s, p in zip(world.pool, preds) if s.label_word == word != p]
    hit = [s for s, p in zip(world.pool, preds) if s.label_word == word == p]
    one_class = missed[:4] + hit[:8]
    data, path = tmp_path / "one-class.jsonl", tmp_path / "pet.bin"
    write_jsonl(data, one_class)
    save_pet(path, pet)
    assert cli(["eval", "--backbone", str(world_dir / "backbone.bin"), "--pet", str(path),
                "--data", str(data)]) == 0
    value = float(capsys.readouterr().out.split(":")[1])
    assert value == pytest.approx(len(hit[:8]) / len(one_class), abs=1e-6)
    assert evaluate(world.state, pet, one_class) == 1.0


@pytest.mark.parametrize("net, method", [("sde", "pdf"), ("pdf", "sde")])
def test_train_pet_map_whose_method_disagrees_with_its_network_exits_2(
        world_dir, cli_run, tmp_path, capsys, net, method):
    """The map loader checks the header's method against time_augmented, so
    an sde network under a pdf header ends in one error line, not in a
    ShapeMismatchError traceback."""
    header, tensors = load_snapshot(world_dir / f"map-{net}.bin")
    header["method"] = method  # save_mapnet refuses to write this
    bad = tmp_path / "map.bin"
    save_snapshot(bad, header, tensors)
    out = tmp_path / "run"
    assert cli(_train_args(world_dir, cli_run["data"], out, "--method", method,
                           "--alpha", "0.1", "--map", str(bad))) == 2
    assert capsys.readouterr().err == f"error: {bad}: header field 'method' missing or malformed\n"
    assert not out.exists()


def test_train_pet_takes_sde_grid_from_map(world, world_dir, cli_run, tmp_path):
    map6 = tmp_path / "map-6.bin"
    save_mapnet(map6, replace(world.sde_map, sde_steps=6), "sde", world.endpoints)
    assert cli(_train_args(world_dir, cli_run["data"], tmp_path / "run", "--method", "sde",
                           "--alpha", "0.1", "--map", str(map6))) == 0
    record = json.loads((tmp_path / "run" / "config.json").read_text())
    assert record["sde_steps"] == 6
    assert "sde_steps" not in record["train"]


def test_eval_refuses_a_pet_without_label_words(world, world_dir, tmp_path, capsys):
    path = tmp_path / "pet.bin"
    save_pet(path, build_pet(PetConfig(kind="lora"), world.state, np.random.default_rng(0)))
    assert cli(["eval", "--backbone", str(world_dir / "backbone.bin"), "--pet", str(path),
                "--data", str(world_dir / "task.jsonl")]) == 2
    assert f"{path}: no label words in the header" in capsys.readouterr().err


def test_eval_reproduces_best_dev_metric(world_dir, cli_run, capsys):
    # Best-on-dev checkpoint + dev set -> the stored summary metric.
    record = json.loads((cli_run["out"] / "config.json").read_text())
    rc = cli(["eval", "--backbone", str(world_dir / "backbone.bin"),
              "--pet", str(cli_run["out"] / "pet.bin"),
              "--data", str(cli_run["data"]["dev"])])
    assert rc == 0
    value = float(capsys.readouterr().out.split(":")[1])
    assert value == pytest.approx(record["summary"]["best_dev_metric"],
                                  abs=1e-9)


def test_fit_map_cli_round_trip(world_dir, tmp_path, capsys):
    rc = cli(["fit-map", "--backbone", str(world_dir / "backbone.bin"),
              "--corpus", str(world_dir / "corpus.json"),
              "--method", "pdf", "--steps", "10", "--latent-dim", "8",
              "--out", str(tmp_path)])
    assert rc == 0
    net, endpoints, header = load_mapnet(tmp_path / "map-pdf.bin")
    assert header["method"] == "pdf"
    assert endpoints.r == 8
    assert net.time_augmented is False


def test_fit_map_takes_bridge_from_config_unless_flag_given(world_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fitmap": {"bridge_kind": "ou", "q": 1.5, "sigma": 0.9}}))
    args = ["fit-map", "--backbone", str(world_dir / "backbone.bin"),
            "--corpus", str(world_dir / "corpus.json"), "--method", "pdf", "--steps", "1",
            "--config", str(cfg)]
    assert cli(args + ["--out", str(tmp_path / "config")]) == 0
    _, _, header = load_mapnet(tmp_path / "config" / "map-pdf.bin")
    assert (header["bridge_kind"], header["q"], header["sigma"]) == ("ou", 1.5, 0.9)
    assert cli(args + ["--bridge", "brownian", "--out", str(tmp_path / "flag")]) == 0
    _, _, header = load_mapnet(tmp_path / "flag" / "map-pdf.bin")
    assert header["bridge_kind"] == "brownian"


@pytest.mark.parametrize("corpus, index, message", [
    ([[5] * 12, [5] * 11 + [99]], 1, "token id 99 outside vocabulary of 64"),
    ([[5] * 12, [5] * 12, [5] * 39], 2, "sequence length 39 outside 1 to 32"),
    ([[5] * 12, []], 1, "sequence length 0 outside 1 to 32"),
    ([[5, "a", 5]], 0, "token id 'a' is not an integer"),
    ([1, 2], 0, "expected a sequence of token ids, got 1"),
], ids=["token-99", "39-tokens", "empty-sequence", "string-token", "flat-list"])
def test_fit_map_bad_corpus_exits_2_naming_the_sequence(world_dir, tmp_path, capsys,
                                                       corpus, index, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    out = tmp_path / "out"
    rc = cli(["fit-map", "--backbone", str(world_dir / "backbone.bin"), "--corpus", str(path),
              "--method", "pdf", "--steps", "2", "--out", str(out)])
    assert rc == 2
    assert f"error: {path}: sequence {index}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_single_run_not_computable(cli_run, tmp_path, capsys):
    rc = cli(["analyze", "--runs", str(cli_run["out"]),
              "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pearson(alpha, centroid_distance): not computable" in out
    assert "kendall_tau_b(alpha, centroid_distance): not computable" in out
    lines = (tmp_path / "analyze.csv").read_text().splitlines()
    assert lines[0] == "run,alpha,centroid_distance"
    assert len(lines) == 2


@pytest.mark.parametrize("broken, message", [
    ("probe-is-a-backbone", "probe.bin: not a 'probe' snapshot (header kind 'backbone')"),
    ("probe-without-alpha", "probe.bin: header field 'alpha' missing or malformed"),
    ("probe-alpha-nan", "probe.bin: header field 'alpha' missing or malformed"),
    ("probe-alpha-string", "probe.bin: header field 'alpha' missing or malformed"),
    ("probe-alpha-beyond-a-float", "probe.bin: header field 'alpha' missing or malformed"),
    ("probe-without-rows", "probe.bin: probe records of shapes [(0, 32)], "
                           "not one shape with at least one row"),
    ("label-outside-the-map", "probe.bin: token 99 outside the endpoint table of 64 tokens"),
    ("sde-map", "map-sde.bin: an sde map, but analyze scores traces with a pdf map"),
    ("probe-narrower-than-the-map", "probe.bin: hidden width 16 does not fit {map}, "
                                    "whose input width is 64"),
])
def test_analyze_malformed_run_exits_2_writing_nothing(world_dir, cli_run, tmp_path, capsys,
                                                       broken, message):
    run = tmp_path / "run"
    shutil.copytree(cli_run["out"], run)
    mapnet = world_dir / ("map-sde.bin" if broken == "sde-map" else "map-pdf.bin")
    if broken == "probe-is-a-backbone":
        shutil.copy(world_dir / "backbone.bin", run / "probe.bin")
    elif broken.startswith("probe-alpha") or broken == "probe-without-alpha":
        header, tensors = load_snapshot(run / "probe.bin")
        alpha = {"probe-alpha-nan": math.nan, "probe-alpha-string": "0.0",  # json carries NaN
                 "probe-alpha-beyond-a-float": 10 ** 400}.get(broken)
        if alpha is None:
            del header["alpha"]
        else:
            header["alpha"] = alpha
        save_snapshot(run / "probe.bin", header, tensors)
    elif broken != "sde-map":
        label, rows, width = {"probe-without-rows": (1, 0, 32),
                              "label-outside-the-map": (99, 5, 32),
                              "probe-narrower-than-the-map": (1, 5, 16)}[broken]
        save_snapshot(run / "probe.bin", {"kind": "probe", "alpha": 0.0, "labels": [label]},
                      {"s0.h_out": np.zeros((rows, width)), "s0.h_ctx": np.zeros((rows, width))})
    out = tmp_path / "analysis"
    assert cli(["analyze", "--runs", str(run), "--map", str(mapnet), "--out", str(out)]) == 2
    where = world_dir if broken == "sde-map" else run
    assert f"error: {where / message.format(map=mapnet)}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_with_map_reports_bridge_distance(world_dir, cli_run,
                                                  tmp_path, capsys):
    rc = cli(["analyze", "--runs", str(cli_run["out"]),
              "--map", str(world_dir / "map-pdf.bin"),
              "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "analyze.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "bridge_distance_sum" in header
    assert "bridge_distance_per_layer" in header
    row = lines[1].split(",")
    idx = header.index("bridge_distance_sum")
    assert float(row[idx]) >= 0.0


def test_analyze_reads_alpha_from_the_probe(world_dir, cli_run, tmp_path):
    """A run directory holding only probe.bin analyzes to the same bytes:
    the probe's header carries the run's alpha."""
    run = tmp_path / "run"
    shutil.copytree(cli_run["out"], run)
    args = ["analyze", "--runs", str(run), "--map", str(world_dir / "map-pdf.bin")]
    assert cli(args + ["--out", str(tmp_path / "full")]) == 0
    for path in run.iterdir():
        if path.name != "probe.bin":
            path.unlink()
    assert cli(args + ["--out", str(tmp_path / "probe-only")]) == 0
    assert ((tmp_path / "probe-only" / "analyze.csv").read_bytes()
            == (tmp_path / "full" / "analyze.csv").read_bytes())


def test_analyze_pearson_over_three_runs(world_dir, cli_run, tmp_path,
                                         capsys):
    # Three alphas so the correlation is computable; recompute it from the
    # emitted CSV with the library pearson and kendall_tau_b as oracles.
    from bridgetune.analysis import kendall_tau_b, pearson

    runs = []
    for alpha in ("0.1", "0.3", "0.5"):
        out = tmp_path / f"run-a{alpha}"
        assert cli(_train_args(world_dir, cli_run["data"], out,
                               "--alpha", alpha, "--method", "pdf",
                               "--map", str(world_dir / "map-pdf.bin"))) == 0
        runs.append(str(out))
    rc = cli(["analyze", "--runs", *runs, "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "pearson(alpha, centroid_distance): r=" in printed
    lines = (tmp_path / "analyze.csv").read_text().splitlines()
    cols = lines[0].split(",")
    alphas, cds = [], []
    for line in lines[1:]:
        cells = line.split(",")
        alphas.append(float(cells[cols.index("alpha")]))
        cds.append(float(cells[cols.index("centroid_distance")]))
    r, _ = pearson(alphas, cds)
    shown = float(printed.split("r=")[1].split()[0])
    assert shown == pytest.approx(r, abs=5e-7)
    tau, p = kendall_tau_b(alphas, cds)  # beside pearson, for the alpha grid's ties
    assert f"kendall_tau_b(alpha, centroid_distance): tau={tau:.6f} p={p:.6f}" in printed


def test_pretrain_corpus_outside_the_model_vocabulary_exits_2_writing_nothing(tmp_path,
                                                                            capsys):
    """The synthetic corpus uses ids up to 62: a 32-token model config is
    refused by the corpus check fit-map runs too, before anything is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"vocab_size": 32}}))
    out = tmp_path / "out"
    assert cli(["pretrain", "--steps", "2", "--corpus-size", "4", "--config", str(cfg),
                "--out", str(out)]) == 2
    assert re.fullmatch(r"error: synthetic (corpus|holdout) \(--seq-len 12, model config\): "
                        r"sequence \d+: token id \d+ outside vocabulary of 32\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_pretrain_cli_smoke(tmp_path, capsys):
    rc = cli(["pretrain", "--steps", "30", "--corpus-size", "30",
              "--seq-len", "8", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "held-out masked accuracy" in out
    assert (tmp_path / "backbone.bin").exists()
    corpus = json.loads((tmp_path / "corpus.json").read_text())
    assert len(corpus) == 30 and len(corpus[0]) == 8
