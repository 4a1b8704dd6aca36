"""The benchmark's own checks pass on this tree and fail on planted faults.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import tracer as tracing
import workloads
from bridgetune import autodiff as ad
from bridgetune import analysis, backbone, bridges, latent_map, pets, pipeline, tasks
from bridgetune.pets import PetConfig
from bridgetune.pipeline import TrainConfig

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    world, _ = workloads.small_world(3, str(tmp_path_factory.mktemp("world")))
    return world


def traces_of(world, n=4):
    state = world["state"]
    samples = backbone.mlm_samples(tasks.make_pretrain_corpus(n, 12, np.random.default_rng(5)),
                                   np.random.default_rng(6))
    return latent_map.collect_traces(state, samples)


def probe_rows(world):
    mapnet, endpoints = world["pdf"][0], world["endpoints"]
    rows, dists = [], []
    for trace, label in traces_of(world):
        h_out, h_ctx = checks.trace_arrays(trace)
        rows.append((h_out, h_ctx, label))
        dists.append(program_distance(h_out, h_ctx, mapnet, endpoints, label))
    return rows, dists


def program_distance(h_out, h_ctx, mapnet, endpoints, label):
    return analysis.bridge_distance(analysis.trace_from_arrays(h_out, h_ctx), mapnet,
                                    checks.brownian_spec(endpoints, label))


# ---------------------------------------------------------------- passes on this tree


@pytest.mark.parametrize("kind", [None, *pets.PET_KINDS])
def test_forward_matches_reference(world, kind):
    pet = world["pets"][kind] if kind else None
    assert checks.forward_error(world["state"], pet, workloads.task_pairs(world["pool"])) \
        <= checks.TOL


def test_goodness_pdf_and_bridge_distance_match_reference(world):
    assert checks.goodness_pdf_error(world["pdf"][0], world["endpoints"], traces_of(world)) \
        <= checks.TOL
    rows, dists = probe_rows(world)
    assert checks.bridge_distance_error(world["pdf"][0], world["endpoints"], rows, dists) \
        <= checks.TOL


def test_goodness_sde_values_are_finite_and_nonnegative(world):
    values = checks.goodness_sde_values(world["sde"][0], world["endpoints"], traces_of(world),
                                        8, 0)
    assert checks.all_finite(values) and min(values) >= 0.0


def test_spline_weights_reproduce_constants_and_lines():
    assert checks.spline_error(4, 8) <= checks.TOL


def test_evaluate_matches_reference_accuracy(world):
    pool = world["pool"]
    label_words = sorted({s.label_word for s in pool})
    for pet in world["pets"].values():
        assert pipeline.evaluate(world["state"], pet, pool) == \
            checks.reference_accuracy(world["state"], pet, pool, label_words)


def _restore_case(world):
    """A cell whose last dev evaluation is below its best one."""
    train, dev = pipeline.fewshot_split(
        tasks.make_task_dataset(16, 12, 0.35, np.random.default_rng(11)), 8, 0)
    for seed in range(8):
        cfg = TrainConfig(max_steps=30, eval_every=5, learning_rate=0.2, seed=seed)
        pet, history, summary = pipeline.train_pet(world["state"], PetConfig(kind="lora"),
                                                   None, world["endpoints"], train, dev, cfg)
        if history[-1]["dev_metric"] < summary["best_dev_metric"]:
            return train, dev, cfg, pet, summary
    pytest.fail("no seed gave a best step before the last evaluation")


def test_best_dev_metric_matches_reference_on_returned_pet(world):
    train, dev, _, pet, summary = _restore_case(world)
    assert checks.reference_accuracy(world["state"], pet, dev, tasks.LABEL_WORDS) == \
        summary["best_dev_metric"]


def test_workload_checks_pass_and_every_end_to_end_metric_is_measured(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(2, str(tmp_path))
        workload.setup()
        if name == "world_build":  # a shorter round, same code path
            workload.SIZES = dict(workload.SIZES, pretrain_steps=4,
                                  pdf_cfg=replace(workload.SIZES["pdf_cfg"], max_steps=4,
                                                  eval_every=2),
                                  sde_cfg=replace(workload.SIZES["sde_cfg"], max_steps=4,
                                                  eval_every=2))
        figures, out = workload.run_round()
        failed = {k: detail for k, (ok, detail) in workload.check(out).items() if not ok}
        assert not failed, (name, failed)
        # the runner adds setup_s and peak_rss_mb
        measured = {*figures, *workload.run_side(), "setup_s", "peak_rss_mb"}
        assert measured == end_to_end, name


# ---------------------------------------------------------------- planted faults


def test_forward_check_catches_gelu_constant(world, monkeypatch):
    def gelu(a):
        x = a.data
        out = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.0447 * x ** 3)))
        return ad._make("gelu", [a], out, lambda g: (g,))

    monkeypatch.setattr(ad, "gelu", gelu)
    assert checks.forward_error(world["state"], None, workloads.task_pairs(world["pool"][:2])) \
        > checks.TOL


def test_forward_check_catches_adapter_without_residual(world, monkeypatch):
    monkeypatch.setattr(pets, "adapter_forward",
                        lambda h, wd, wu: ad.matmul(wu, ad.relu(ad.matmul(wd, h))))
    pairs = workloads.task_pairs(world["pool"][:2])
    assert checks.forward_error(world["state"], world["pets"]["adapter"], pairs) > checks.TOL
    assert checks.forward_error(world["state"], world["pets"]["lora"], pairs) <= checks.TOL


def test_bridge_checks_catch_variance_t(world, monkeypatch):
    rows, _ = probe_rows(world)
    monkeypatch.setattr(bridges, "marginal_variance", lambda spec, t: t)
    assert checks.goodness_pdf_error(world["pdf"][0], world["endpoints"], traces_of(world)) \
        > checks.TOL
    dists = [program_distance(*row[:2], world["pdf"][0], world["endpoints"], row[2])
             for row in rows]
    assert checks.bridge_distance_error(world["pdf"][0], world["endpoints"], rows, dists) \
        > checks.TOL


def test_best_dev_check_catches_skipped_restore(world, monkeypatch):
    train, dev, cfg, _, _ = _restore_case(world)
    monkeypatch.setattr(pets.PetParams, "load_tensors", lambda self, arrays: None)
    pet, _, summary = pipeline.train_pet(world["state"], PetConfig(kind="lora"), None,
                                         world["endpoints"], train, dev, cfg)
    assert checks.reference_accuracy(world["state"], pet, dev, tasks.LABEL_WORDS) != \
        summary["best_dev_metric"]


def test_spline_check_catches_rows_not_summing_to_one():
    W = np.eye(3)
    W[1, 1] = 0.99
    assert max(reference.spline_weight_errors(W, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])) > checks.TOL


# ---------------------------------------------------------------- tracing and the runner


def test_tracer_reports_every_layer_metric_and_leaves_outputs_bit_identical(world):
    train, dev = pipeline.fewshot_split(
        tasks.make_task_dataset(4, 12, 0.35, np.random.default_rng(1)), 2, 0)
    cfg = TrainConfig(method="sde", alpha=0.01, max_steps=3, eval_every=3)

    def run():
        tracing.spline_cache_clear()
        pet, history, summary = pipeline.train_pet(world["state"], PetConfig(kind="prompt"),
                                                   world["sde"][0], world["endpoints"],
                                                   train, dev, cfg)
        return workloads.digest(pet.clone_tensors(), history, summary)

    originals = {name: getattr(ad, name) for name in ("matmul", "_make", "backward")}
    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run()
        metrics = tracer.take()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {name: getattr(ad, name) for name in originals} == originals
    assert pipeline.forward is backbone.forward
    assert set(metrics) == set(tracing.layer_metric_units())
    assert metrics["autodiff.backward.calls"] == 3
    forwards = 3 * cfg.batch_size + len(dev)
    assert metrics["pets.attach_input.calls"] == forwards
    assert metrics["backbone.forward.columns"] == forwards * (13 + 8)
    assert metrics["latent_map.goodness_sde.calls"] == 3 * cfg.batch_size
    assert metrics["spline.interp_weights.calls"] == 1
    assert metrics["latent_map.spline_weights.hit_ratio"] == 5 / 6
    assert len(tracer.span_name) == len(tracer.span_end) > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [*tracing.layer_metric_units(), "trace.overhead_s"]
    assert len(tracing.layer_metric_units()) == 99
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer_probe",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
