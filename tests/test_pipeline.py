"""Training-pipeline behavior: loss composition, few-shot splits, metrics,
best-on-dev training, and run-directory artifacts."""

import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import bridgetune.autodiff as ad
import bridgetune.pipeline as pipeline
from bridgetune import backbone, bridges, latent_map
from bridgetune.backbone import checksum, forward
from bridgetune.latent_map import goodness_pdf, goodness_sde
from bridgetune.pets import PetConfig, build_pet, load_pet
from bridgetune.pipeline import (TrainConfig, evaluate, fewshot_split,
                                 run_training, total_loss, train_pet,
                                 write_csv)
from bridgetune.snapshot import load_snapshot
from bridgetune.tasks import DataError, TaskSample, load_jsonl, make_task_dataset


def _forward_sample(world, sample):
    return forward(world.state, sample.tokens, sample.mask_position)


# ---------------------------------------------------------------- total_loss

def test_total_loss_alpha_zero_is_plain_ce(world):
    s = world.pool[0]
    logits, trace = _forward_sample(world, s)
    cfg = TrainConfig(alpha=0.0, method="pdf")
    loss, ce_val, run_val = total_loss(logits, s.label_word, trace,
                                       world.pdf_map, world.endpoints, cfg)
    expected = ad.cross_entropy_with_logits(logits, s.label_word)
    assert loss.item() == expected.item()
    assert ce_val == expected.item()
    assert run_val == 0.0


def test_total_loss_method_none_ignores_map(world):
    s = world.pool[1]
    logits, trace = _forward_sample(world, s)
    cfg = TrainConfig(alpha=0.7, method="none")
    loss, ce_val, run_val = total_loss(logits, s.label_word, trace,
                                       None, None, cfg)
    assert loss.item() == ce_val
    assert run_val == 0.0


@pytest.mark.parametrize("method", ["pdf", "sde"])
def test_total_loss_linear_in_alpha(world, method):
    # With frozen logits/trace and fixed rng, loss is affine in alpha:
    # loss(0.2) - loss(0) == 2 * (loss(0.1) - loss(0)).
    s = world.pool[2]
    logits, trace = _forward_sample(world, s)
    mapnet = world.pdf_map if method == "pdf" else world.sde_map

    def loss_at(alpha):
        cfg = TrainConfig(alpha=alpha, method=method)
        rng = np.random.default_rng(5)
        val, _, _ = total_loss(logits, s.label_word, trace, mapnet,
                               world.endpoints, cfg, rng)
        return val.item()

    base = loss_at(0.0)
    d1 = loss_at(0.1) - base
    d2 = loss_at(0.2) - base
    assert d1 != 0.0
    assert d2 == pytest.approx(2.0 * d1, rel=1e-9)


@pytest.mark.parametrize("method", ["pdf", "sde"])
def test_total_loss_scores_toward_the_bridge_of_its_map(world, method):
    s = world.pool[3]
    logits, trace = _forward_sample(world, s)
    brownian_map = world.pdf_map if method == "pdf" else world.sde_map
    ou_map = replace(brownian_map, bridge=bridges.BridgeSpec(kind=bridges.OU, q=1.5, sigma=0.9))
    cfg = TrainConfig(method=method, alpha=1.0)
    _, _, running = total_loss(logits, s.label_word, trace, ou_map, world.endpoints, cfg,
                               np.random.default_rng(5))
    beta = world.endpoints.row(s.label_word)
    costs = {}
    for kind in (bridges.OU, bridges.BROWNIAN):
        spec = bridges.BridgeSpec(kind=kind, beta=beta, q=1.5, sigma=0.9)
        costs[kind] = -goodness_pdf(brownian_map, trace, spec).item() if method == "pdf" \
            else goodness_sde(brownian_map, trace, spec, brownian_map.sde_steps,
                              np.random.default_rng(5)).item()
    assert running == costs[bridges.OU] != costs[bridges.BROWNIAN]


def test_total_loss_missing_map_raises(world):
    s = world.pool[0]
    logits, trace = _forward_sample(world, s)
    cfg = TrainConfig(alpha=0.5, method="pdf")
    with pytest.raises(ValueError, match="needs a fitted map"):
        total_loss(logits, s.label_word, trace, None, world.endpoints, cfg)


def test_running_cost_reaches_pet_parameters(world):
    # The running cost alone (terminal loss dropped) must produce gradients
    # on PET parameters: the map reads hidden states, which depend on them.
    s = world.pool[0]
    pet = build_pet(PetConfig(kind="prompt"), world.state,
                    np.random.default_rng(0))
    _, trace = forward(world.state, s.tokens, s.mask_position, pet=pet)
    spec = bridges.BridgeSpec(kind="brownian",
                              beta=world.endpoints.row(s.label_word))
    running = ad.scalar_mul(goodness_pdf(world.pdf_map, trace, spec), -1.0)
    grads = ad.backward(running)
    norms = [float(np.abs(grads[p]).sum()) for p in pet.trainables() if p in grads]
    assert norms and max(norms) > 0.0


def test_train_config_validation():
    with pytest.raises(ValueError, match="method"):
        TrainConfig(method="both")
    for bad in (-0.1, math.nan, math.inf, "0.1"):
        with pytest.raises(ValueError, match="alpha must be a finite number at least 0"):
            TrainConfig(alpha=bad, method="pdf")
    for bad in (0, 0.0, -5e-3, math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValueError, match="learning_rate must be a finite number above 0"):
            TrainConfig(learning_rate=bad)
    for key, low in (("batch_size", 1), ("max_steps", 1), ("eval_every", 1)):
        with pytest.raises(ValueError, match=f"{key} must be at least {low}"):
            TrainConfig(**{key: low - 1})
        for bad in ("4", 4.0, True):
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                TrainConfig(**{key: bad})
    for key in ("bridge_kind", "q", "sigma", "sde_steps"):  # the map carries them
        with pytest.raises(TypeError):
            TrainConfig(**{key: 1.0})


# ------------------------------------------------------------- fewshot_split

def _pool(n_per_class=40, seed=9):
    return make_task_dataset(n_per_class, 8, 0.3, np.random.default_rng(seed))


@pytest.mark.parametrize("sizes, message", [
    ((0, 8, 0.3), "per_class must be at least 1, got 0"),
    ((4, True, 0.3), "seq_len must be an integer, got True"),
    ((4, 8, 0.5), "mix must be below 0.5, got 0.5"),
    ((4, 8, -0.1), "mix must be a finite number at least 0, got -0.1"),
    ((4, 8, math.nan), "mix must be a finite number at least 0, got nan"),
])
def test_make_task_dataset_checks_its_sizes_as_task_config_does(sizes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_task_dataset(*sizes, np.random.default_rng(0))


def test_fewshot_sizes_and_disjointness():
    pool = _pool()
    train, dev = fewshot_split(pool, k=16, seed=0)
    assert len(train) == 32 and len(dev) == 32
    train_ids = {id(s) for s in train}
    dev_ids = {id(s) for s in dev}
    assert not train_ids & dev_ids
    for split in (train, dev):
        labels = [s.label_word for s in split]
        assert labels.count(labels[0]) == 16
        assert len(set(labels)) == 2


def test_fewshot_minimal_single_class():
    pool = [TaskSample(tokens=(1, 63), label_word=5, mask_position=1),
            TaskSample(tokens=(2, 63), label_word=5, mask_position=1)]
    train, dev = fewshot_split(pool, k=1, seed=0)
    assert len(train) == 1 and len(dev) == 1
    assert train[0] is not dev[0]


def test_fewshot_insufficient_class_named():
    pool = _pool(n_per_class=5)
    with pytest.raises(DataError, match=r"class 1 has 5 examples, needs 12"):
        fewshot_split(pool, k=6, seed=0)


@pytest.mark.parametrize("record", [
    {"tokens": [3.7, "5", True], "label_word": 2.9},
    {"tokens": [3, 5], "label_word": True},
    {"tokens": [3, 5], "label_word": 2, "mask_position": 1.0},
    {"tokens": "35", "label_word": 2},
], ids=["float-string-bool-tokens", "bool-label", "float-mask-position", "string-tokens"])
def test_load_jsonl_refuses_values_that_are_not_json_integers(tmp_path, record):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"tokens": [3, 5], "label_word": 2}) + "\n"
                    + json.dumps(record) + "\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:2: tokens, label_word and mask_position must be JSON integers")):
        load_jsonl(path)


def test_fewshot_deterministic_and_seed_sensitive():
    pool = _pool(n_per_class=500, seed=2)

    def key(seed):
        train, dev = fewshot_split(pool, k=16, seed=seed)
        return tuple(s.tokens for s in train), tuple(s.tokens for s in dev)

    assert key(7) == key(7)
    # Different seeds give different splits with probability ~ 1.
    diffs = [key(a) != key(b) for a, b in ((0, 1), (1, 2), (2, 3), (3, 4),
                                           (4, 5))]
    assert all(diffs)


# ------------------------------------------------------------------ evaluate

def _stub_predictions(monkeypatch, mapping):
    def fake_predict(state, pet, samples, label_words):
        return [mapping[s.tokens] for s in samples]
    monkeypatch.setattr(pipeline, "predict", fake_predict)


def _binary_set(truths):
    # Distinct token tuples so a prediction map can key on them.
    return [TaskSample(tokens=(i, 63), label_word=t, mask_position=1)
            for i, t in enumerate(truths)]


def test_evaluate_perfect_predictions(monkeypatch):
    data = _binary_set([1, 1, 32, 32])
    _stub_predictions(monkeypatch, {s.tokens: s.label_word for s in data})
    for metric, want in (("accuracy", 1.0), ("f1", 1.0), ("matthews", 1.0)):
        assert evaluate(None, None, data, metric) == pytest.approx(want)


def test_evaluate_hand_confusion(monkeypatch):
    # Positive class = larger label id (32). TP=2, FP=1, FN=1, TN=2:
    # f1 = 2*2/(2*2+1+1) = 2/3, matthews = (4-1)/sqrt(3*3*3*3) = 1/3.
    truths = [32, 32, 32, 1, 1, 1]
    preds = [32, 32, 1, 32, 1, 1]
    data = _binary_set(truths)
    _stub_predictions(monkeypatch,
                      {s.tokens: p for s, p in zip(data, preds)})
    assert evaluate(None, None, data, "accuracy") == pytest.approx(4 / 6)
    assert evaluate(None, None, data, "f1") == pytest.approx(2 / 3)
    assert evaluate(None, None, data, "matthews") == pytest.approx(1 / 3)


def test_evaluate_degenerate_denominators(monkeypatch):
    # All-positive predictions on a balanced set: matthews falls back to 0.
    data = _binary_set([32, 32, 1, 1])
    _stub_predictions(monkeypatch, {s.tokens: 32 for s in data})
    assert evaluate(None, None, data, "matthews") == 0.0
    # No positives predicted or present in f1's denominator -> 0.
    neg_only = _binary_set([1, 1, 1, 1])
    _stub_predictions(monkeypatch, {s.tokens: 1 for s in neg_only})
    assert evaluate(None, None, neg_only, "f1",
                    label_words=(1, 32)) == 0.0


def test_evaluate_errors(monkeypatch):
    with pytest.raises(DataError, match="empty"):
        evaluate(None, None, [], "accuracy")
    three = [TaskSample(tokens=(i, 63), label_word=l, mask_position=1)
             for i, l in enumerate([1, 2, 3])]
    with pytest.raises(DataError, match="binary"):
        evaluate(None, None, three, "f1")
    data = _binary_set([1, 32])
    _stub_predictions(monkeypatch, {s.tokens: 1 for s in data})
    with pytest.raises(DataError, match="unknown metric"):
        evaluate(None, None, data, "auc")


@pytest.mark.parametrize("kind", [None, "prompt", "adapter"])
def test_evaluate_matches_per_sample_argmax(world, monkeypatch, kind):
    # Packed inference gives every metric that argmax over each sample's
    # own forward logits gives.
    pet = None
    if kind is not None:
        pet = build_pet(PetConfig(kind=kind), world.state, np.random.default_rng(8))
        noise = np.random.default_rng(9)
        for t in pet.tensors.values():
            t.data += noise.normal(0.0, 0.05, size=t.data.shape)
    words = sorted({s.label_word for s in world.pool})
    per_sample = []
    with ad.no_grad():
        for s in world.pool:
            logits, _ = forward(world.state, s.tokens, s.mask_position, pet)
            per_sample.append(words[int(np.argmax(logits.data[words, 0]))])
    got = {m: evaluate(world.state, pet, world.pool, m)
           for m in ("accuracy", "f1", "matthews")}
    _stub_predictions(monkeypatch, dict(zip((s.tokens for s in world.pool), per_sample)))
    assert got == {m: evaluate(None, None, world.pool, m) for m in got}


def _gelu_cube_paths(world, path, tmp_path):
    """Run path (a name in GELU_CUBES) on the world at a small size."""
    train, dev = fewshot_split(world.pool, k=2, seed=3)
    fit = backbone.mlm_samples(world.corpus[:4], np.random.default_rng(4))
    if path == "pretrain_mlm":
        backbone.pretrain_mlm(backbone.ModelConfig(num_layers=2, hidden_dim=8, ffn_dim=12),
                              world.corpus[:4], backbone.PretrainConfig(max_steps=1,
                                                                        batch_size=2))
    elif path.startswith("train_pet"):
        method = path.split("-")[1]
        mapnet = {"none": None, "pdf": world.pdf_map, "sde": world.sde_map}[method]
        train_pet(world.state, PetConfig(kind="lora"), mapnet, world.endpoints, train, dev,
                  _short_cfg(method=method, alpha=0.0 if method == "none" else 0.1,
                             max_steps=2, eval_every=1))
    elif path.startswith("fit_map"):
        latent_map.fit_map(world.state, fit, latent_map.FitMapConfig(
            method=path.split("-")[1], max_steps=1, batch_size=2), world.endpoints, fit[:1])
    elif path == "dump_probe_traces":
        pipeline.dump_probe_traces(tmp_path / "probe.bin", world.state, None, dev, {})
    elif path == "mask_logits":
        backbone.mask_logits(world.state, [(s.tokens, s.mask_position) for s in dev])
    elif path == "evaluate":
        evaluate(world.state, build_pet(PetConfig(kind="prompt"), world.state,
                                        np.random.default_rng(5)), dev)
    else:
        backbone.masked_accuracy(world.state, fit)


# The GELU cube each path takes, as (cube, whether packed inference made the
# call): x ** 3 ("power") wherever floats are trained or stored, x * x * x
# ("product") in packed inference alone, which is read only through an argmax.
GELU_CUBES = {
    "pretrain_mlm": {("power", False)},
    **{f"train_pet-{m}": {("power", False), ("product", True)} for m in ("none", "pdf", "sde")},
    "fit_map-pdf": {("power", False)},
    "fit_map-sde": {("power", False)},
    "dump_probe_traces": {("power", False)},
    "mask_logits": {("product", True)},
    "evaluate": {("product", True)},
    "masked_accuracy": {("product", True)},
}


@pytest.mark.parametrize("path", sorted(GELU_CUBES))
def test_only_packed_inference_takes_the_product_cube(world, monkeypatch, tmp_path, path):
    # train_pet's training forwards take x ** 3 and its dev evaluations
    # x * x * x, so its trained floats do not depend on the product form.
    calls, packing = [], [False]
    gelu, pack = ad.gelu, backbone._pack_logits

    def recording_gelu(a, **kw):
        # a call with any other keywords than these two forms records them
        cube = {(): "power", (("product_cube", True),): "product"}.get(tuple(kw.items()),
                                                                      repr(kw))
        calls.append((cube, packing[0]))
        return gelu(a, **kw)

    def flagged_pack(*args):
        packing[0] = True
        try:
            return pack(*args)
        finally:
            packing[0] = False

    monkeypatch.setattr(ad, "gelu", recording_gelu)
    monkeypatch.setattr(backbone, "_pack_logits", flagged_pack)
    _gelu_cube_paths(world, path, tmp_path)
    assert set(calls) == GELU_CUBES[path]


def test_evaluate_on_real_backbone_deterministic(world):
    subset = world.pool[:20] + world.pool[-20:]
    a = evaluate(world.state, None, subset, "accuracy")
    b = evaluate(world.state, None, subset, "accuracy")
    assert a == b
    assert 0.0 <= a <= 1.0


# ----------------------------------------------------------------- train_pet

def _short_cfg(**kw):
    base = dict(alpha=0.0, method="none", max_steps=40, eval_every=20,
                batch_size=2, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def test_train_pet_backbone_untouched(world):
    before = checksum(world.state)
    train, dev = fewshot_split(world.pool, k=4, seed=1)
    cfg = _short_cfg(alpha=0.1, method="pdf")
    train_pet(world.state, PetConfig(kind="lora"), world.pdf_map,
              world.endpoints, train, dev, cfg)
    assert checksum(world.state) == before


@pytest.mark.parametrize("method", ["pdf", "sde"])
def test_train_pet_backward_never_reaches_the_map(world, monkeypatch, method):
    mapnet = world.pdf_map if method == "pdf" else world.sde_map
    before = [t.data.copy() for t in mapnet.trainables()]
    used, keys = [], set()
    cost, backward = pipeline.running_cost, ad.backward

    def recording_cost(cfg, net, trace, spec, rng):
        used.append(net)
        return cost(cfg, net, trace, spec, rng)

    def recording_backward(root):
        grads = backward(root)
        keys.update(grads)
        return grads

    monkeypatch.setattr(pipeline, "running_cost", recording_cost)
    monkeypatch.setattr(ad, "backward", recording_backward)
    train, dev = fewshot_split(world.pool, k=4, seed=5)
    train_pet(world.state, PetConfig(kind="lora"), mapnet, world.endpoints, train, dev,
              _short_cfg(method=method, alpha=0.1, max_steps=3))
    assert used and keys
    for net in used:  # a frozen view on the caller's arrays
        for view, orig in zip(net.trainables(), mapnet.trainables()):
            assert view.data is orig.data
            assert view not in keys and orig not in keys
    assert all(t.requires_grad for t in mapnet.trainables())
    for t, data in zip(mapnet.trainables(), before):
        assert np.array_equal(t.data, data)


def test_train_pet_scores_sde_on_the_grid_of_its_map(world):
    """A map fitted on a 6-step grid is scored on that grid in stage 2:
    the map carries the grid, and TrainConfig has none."""
    cfg6 = latent_map.FitMapConfig(method="sde", sde_steps=6, max_steps=1, batch_size=2)
    mapnet, _ = latent_map.fit_map(world.state, world.fit_samples[:8], cfg6, world.endpoints)
    assert mapnet.sde_steps == 6
    train, dev = fewshot_split(world.pool, k=2, seed=4)
    cfg = _short_cfg(alpha=0.1, method="sde", max_steps=1, eval_every=1, batch_size=1)
    pet_cfg = PetConfig(kind="lora")
    _, history, _ = train_pet(world.state, pet_cfg, mapnet, world.endpoints, train, dev, cfg)
    # train_pet's draws in order: the PET's init, the batch index, the sde noise
    rng = np.random.default_rng(cfg.seed)
    pet = build_pet(pet_cfg, world.state, rng)
    s = train[rng.integers(0, len(train), size=1)[0]]
    _, trace = forward(world.state, s.tokens, s.mask_position, pet=pet)
    spec = latent_map.bridge_spec(mapnet, world.endpoints, s.label_word)
    assert history[0]["running_cost"] == goodness_sde(mapnet, trace, spec, 6, rng).item()


def test_train_pet_same_seed_same_history(world):
    train, dev = fewshot_split(world.pool, k=4, seed=2)
    cfg = _short_cfg()
    _, hist_a, sum_a = train_pet(world.state, PetConfig(kind="bitfit"), None,
                                 world.endpoints, train, dev, cfg)
    _, hist_b, sum_b = train_pet(world.state, PetConfig(kind="bitfit"), None,
                                 world.endpoints, train, dev, cfg)
    assert hist_a == hist_b
    assert sum_a == sum_b


def test_train_pet_best_on_dev_reproducible(world):
    train, dev = fewshot_split(world.pool, k=4, seed=3)
    cfg = _short_cfg(max_steps=60)
    pet, history, summary = train_pet(world.state, PetConfig(kind="prompt"),
                                      None, world.endpoints, train, dev, cfg)
    # The returned PET carries the best-on-dev parameters; re-evaluating
    # reproduces the stored metric exactly.
    label_words = sorted({s.label_word for s in train})
    again = evaluate(world.state, pet, dev, cfg.metric, label_words)
    assert again == summary["best_dev_metric"]
    assert summary["best_step"] in [row["step"] for row in history]
    assert summary["best_dev_metric"] == max(r["dev_metric"] for r in history)


def test_alpha_zero_bit_identical_to_method_none(world):
    train, dev = fewshot_split(world.pool, k=4, seed=4)
    runs = {}
    for name, cfg, mapnet in (
            ("none", _short_cfg(method="none"), None),
            ("pdf0", _short_cfg(method="pdf", alpha=0.0), world.pdf_map),
            ("sde0", _short_cfg(method="sde", alpha=0.0), world.sde_map)):
        pet, history, _ = train_pet(world.state, PetConfig(kind="adapter"),
                                    mapnet, world.endpoints, train, dev, cfg)
        runs[name] = (pet.clone_tensors(), history)
    base_tensors, base_history = runs["none"]
    for name in ("pdf0", "sde0"):
        tensors, history = runs[name]
        assert history == base_history
        assert tensors.keys() == base_tensors.keys()
        for key in base_tensors:
            assert np.array_equal(tensors[key], base_tensors[key]), (name, key)


def test_regularized_run_differs_from_vanilla(world):
    train, dev = fewshot_split(world.pool, k=4, seed=5)
    cfg_none = _short_cfg()
    cfg_reg = _short_cfg(method="pdf", alpha=0.5)
    pet_a, hist_a, _ = train_pet(world.state, PetConfig(kind="prompt"), None,
                                 world.endpoints, train, dev, cfg_none)
    pet_b, hist_b, _ = train_pet(world.state, PetConfig(kind="prompt"),
                                 world.pdf_map, world.endpoints, train, dev,
                                 cfg_reg)
    assert any(r["running_cost"] != 0.0 for r in hist_b)
    assert all(r["running_cost"] == 0.0 for r in hist_a)
    diff = any(not np.array_equal(a, b) for a, b in
               zip(pet_a.clone_tensors().values(),
                   pet_b.clone_tensors().values()))
    assert diff


# ------------------------------------------------------- artifacts and files

def test_write_metrics_csv_round_trip(tmp_path):
    history = [
        {"step": 50, "train_loss": 1.25, "terminal_loss": 1.0,
         "running_cost": 0.1, "dev_metric": 0.5},
        {"step": 100, "train_loss": 0.062500000000001, "terminal_loss": 0.05,
         "running_cost": 0.0125, "dev_metric": 0.75},
    ]
    path = tmp_path / "metrics.csv"
    write_csv(path, ("step", "train_loss", "terminal_loss", "running_cost",
                     "dev_metric"), history)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,train_loss,terminal_loss,running_cost,dev_metric"
    assert len(lines) == 3
    # repr round-trips floats exactly.
    for row, line in zip(history, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row["step"]
        assert float(cells[1]) == row["train_loss"]
        assert float(cells[4]) == row["dev_metric"]


def test_run_training_artifacts(world, tmp_path):
    train, dev = fewshot_split(world.pool, k=4, seed=6)
    out = tmp_path / "run0"
    cfg = _short_cfg(alpha=0.1, method="pdf", max_steps=20, eval_every=10)
    pet_cfg = PetConfig(kind="lora")
    pet, history, summary = run_training(out, world.state, pet_cfg,
                                         world.pdf_map, world.endpoints,
                                         train, dev, cfg)
    for name in ("config.json", "metrics.csv", "pet.bin", "probe.bin"):
        assert os.path.exists(out / name), name
    with open(out / "config.json", "r", encoding="utf-8") as f:
        record = json.load(f)
    assert record["train"]["alpha"] == 0.1
    assert record["pet"]["kind"] == "lora"
    assert record["model"]["hidden_dim"] == world.config.hidden_dim
    assert record["summary"]["best_dev_metric"] == summary["best_dev_metric"]
    assert record["bridge"] == {"kind": "brownian", "q": 1.0, "sigma": 1.0}

    reloaded = load_pet(out / "pet.bin", world.state)
    for key, val in pet.clone_tensors().items():
        assert np.array_equal(reloaded.clone_tensors()[key], val)

    header, tensors = load_snapshot(out / "probe.bin")
    assert header["kind"] == "probe"
    assert header["alpha"] == 0.1 and header["method"] == "pdf"
    assert header["pet_kind"] == "lora"
    assert header["labels"] == [s.label_word for s in dev]  # the probe set is dev
    L = world.config.num_layers
    d = world.config.hidden_dim
    assert tensors["s0.h_out"].shape == (L + 1, d)
    assert tensors["s0.h_ctx"].shape == (L + 1, d)
    alpha, labels, samples = pipeline.load_probe(out / "probe.bin")
    assert alpha == 0.1 and labels == header["labels"] and len(samples) == len(dev)
    for i, (h_out, h_ctx) in enumerate(samples):
        assert np.array_equal(h_out, tensors[f"s{i}.h_out"])
        assert np.array_equal(h_ctx, tensors[f"s{i}.h_ctx"])

    csv_lines = (out / "metrics.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + len(history)


# ------------------------------------------------------ few-shot schedule

def test_fullscale_fewshot_schedule():
    # 1k steps with a dev eval every 50: 20 evaluations, the last on step 1000.
    cfg = TrainConfig()
    evals = [s for s in range(1, cfg.max_steps + 1) if s % cfg.eval_every == 0]
    assert len(evals) == 20
    assert evals[-1] == cfg.max_steps == 1000
    assert cfg.batch_size == 2


def test_default_train_config_matches_schedule():
    # The full-scale few-shot schedule: 1k steps, dev eval every 50, batch 2.
    cfg = TrainConfig()
    assert cfg.max_steps == 1000
    assert cfg.eval_every == 50
    assert cfg.batch_size == 2
