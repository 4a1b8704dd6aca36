"""The desk study: vanilla PET training against the pdf and sde running
costs, over a small alpha grid and several few-shot splits.

build_world is the one recipe for the study's world (pretrained backbone,
endpoint table, both fitted maps, task pool); run_grid trains every cell
into its own run directory; verdict reduces the cells to per-PET means.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .backbone import (BackboneState, ModelConfig, PretrainConfig, freeze,
                       mlm_samples, pretrain_mlm)
from .latent_map import EndpointTable, FitMapConfig, MapNet, build_endpoints, fit_map
from .pets import PET_KINDS, PetConfig
from .pipeline import TrainConfig, fewshot_split, run_training
from .tasks import make_pretrain_corpus, make_task_dataset

PDF_GRID = (0.1, 0.3, 1.0)
SDE_GRID = (0.001, 0.01, 0.1)


@dataclass
class World:
    config: ModelConfig
    state: BackboneState
    corpus: list
    fit_samples: list
    endpoints: EndpointTable
    pdf_map: MapNet
    sde_map: MapNet
    pool: list  # downstream task samples, both classes


def build_world(pretrain_steps: int = 2500) -> World:
    """Pretrain the backbone on a 200-sequence corpus, fit the pdf map
    (400 steps) and the sde map (200 steps, batches of 8) on its masked
    samples, and draw a 150-per-class task pool; every seed is fixed."""
    config = ModelConfig()
    corpus = make_pretrain_corpus(200, 12, np.random.default_rng(0))
    state = freeze(pretrain_mlm(config, corpus,
                                PretrainConfig(max_steps=pretrain_steps, seed=0)))
    endpoints = build_endpoints(state["embed"].data, r=8, eta=1.0)
    fit_samples = mlm_samples(corpus, np.random.default_rng(1))
    pdf_map, _ = fit_map(state, fit_samples,
                         FitMapConfig(method="pdf", max_steps=400, seed=0), endpoints)
    sde_map, _ = fit_map(state, fit_samples,
                         FitMapConfig(method="sde", max_steps=200, batch_size=8, seed=0),
                         endpoints)
    pool = make_task_dataset(150, 12, 0.35, np.random.default_rng(100))
    return World(config=config, state=state, corpus=corpus, fit_samples=fit_samples,
                 endpoints=endpoints, pdf_map=pdf_map, sde_map=sde_map, pool=pool)


def run_grid(world: World, out_dir, seeds, k: int = 16, steps: int = 200,
             pdf_grid=PDF_GRID, sde_grid=SDE_GRID):
    """Per seed s, the k-shot split of seed 1000 + s; per PET, a vanilla
    cell, one pdf cell per alpha in pdf_grid and one sde cell per alpha in
    sde_grid, each trained with seed s by run_training into
    out_dir/seed<s>/<pet>-<method>-<alpha>. Returns one row per cell, in
    training order: pet, method, alpha, seed, best_dev_metric, run."""
    rows = []
    for s in seeds:
        train, dev = fewshot_split(world.pool, k, 1000 + s)
        for pet in PET_KINDS:
            cells = [("none", 0.0, None)]
            cells += [("pdf", a, world.pdf_map) for a in pdf_grid]
            cells += [("sde", a, world.sde_map) for a in sde_grid]
            for method, alpha, mapnet in cells:
                cfg = TrainConfig(alpha=alpha, method=method, max_steps=steps,
                                  eval_every=50, batch_size=2, seed=s)
                run = os.path.join(out_dir, f"seed{s}", f"{pet}-{method}-{alpha}")
                _, _, summary = run_training(run, world.state, PetConfig(kind=pet), mapnet,
                                             world.endpoints, train, dev, cfg)
                rows.append({"pet": pet, "method": method, "alpha": alpha, "seed": s,
                             "best_dev_metric": summary["best_dev_metric"], "run": run})
    return rows


def verdict(rows):
    """Per PET, in row order: the mean best_dev_metric over seeds of the
    vanilla cell ("vanilla") and of each alpha ("pdf", "sde": alpha -> mean),
    and the best alpha's mean per method ("best_pdf", "best_sde"). Returns
    (per_pet, the number of PETs whose best pdf and best sde means are both
    at or above vanilla)."""
    metrics = {}
    for row in rows:
        metrics.setdefault((row["pet"], row["method"], row["alpha"]), []).append(
            row["best_dev_metric"])
    per_pet = {}
    for (pet, method, alpha), values in metrics.items():
        means = per_pet.setdefault(pet, {"vanilla": None, "pdf": {}, "sde": {}})
        if method == "none":
            means["vanilla"] = float(np.mean(values))
        else:
            means[method][alpha] = float(np.mean(values))
    both = 0
    for means in per_pet.values():
        means["best_pdf"] = max(means["pdf"].values())
        means["best_sde"] = max(means["sde"].values())
        both += means["best_pdf"] >= means["vanilla"] and means["best_sde"] >= means["vanilla"]
    return per_pet, both
