"""Few-shot desk study: vanilla PET training against the two bridge
regularizers, over a small alpha grid and several split seeds.

Builds the whole world from scratch (pretrained backbone, fitted maps,
task pool), runs the grid, and writes per-run rows plus a per-PET summary.
Roughly five minutes on one core with the defaults.

Usage:
    python3 scripts/run_desk_study.py --out runs/desk
    python3 scripts/run_desk_study.py --out runs/smoke --quick
"""

import argparse
import json
import os
import time

import numpy as np

from bridgetune.backbone import (ModelConfig, PretrainConfig, freeze,
                                 mlm_samples, pretrain_mlm)
from bridgetune.latent_map import FitMapConfig, build_endpoints, fit_map
from bridgetune.pets import PetConfig
from bridgetune.pipeline import TrainConfig, fewshot_split, train_pet, write_csv
from bridgetune.tasks import make_pretrain_corpus, make_task_dataset

PETS = ("prompt", "lora", "bitfit", "adapter")
PDF_GRID = (0.1, 0.3, 1.0)
SDE_GRID = (0.001, 0.01, 0.1)


def build_world(args):
    t0 = time.time()
    corpus = make_pretrain_corpus(200, 12, np.random.default_rng(0))
    state = freeze(pretrain_mlm(ModelConfig(), corpus,
                                PretrainConfig(max_steps=args.pretrain_steps,
                                               seed=0)))
    endpoints = build_endpoints(state["embed"].data, r=8, eta=1.0)
    samples = mlm_samples(corpus, np.random.default_rng(1))
    pdf_map, _ = fit_map(state, samples,
                         FitMapConfig(method="pdf", max_steps=400, seed=0),
                         endpoints)
    sde_map, _ = fit_map(state, samples,
                         FitMapConfig(method="sde", max_steps=200,
                                      batch_size=8, seed=0), endpoints)
    pool = make_task_dataset(150, 12, 0.35, np.random.default_rng(100))
    print(f"world ready in {time.time() - t0:.0f}s")
    return state, endpoints, pdf_map, sde_map, pool


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--k", type=int, default=16, help="shots per class")
    ap.add_argument("--seeds", type=int, default=5, help="number of splits")
    ap.add_argument("--steps", type=int, default=200, help="PET train steps")
    ap.add_argument("--pretrain-steps", type=int, default=2500)
    ap.add_argument("--quick", action="store_true",
                    help="2 seeds, 1 alpha per method; smoke-test sizing")
    args = ap.parse_args()

    pdf_grid, sde_grid = PDF_GRID, SDE_GRID
    n_seeds = args.seeds
    if args.quick:
        pdf_grid, sde_grid, n_seeds = (0.1,), (0.01,), 2

    state, endpoints, pdf_map, sde_map, pool = build_world(args)
    os.makedirs(args.out, exist_ok=True)

    rows = []
    results = {}
    t0 = time.time()
    for s in range(n_seeds):
        train, dev = fewshot_split(pool, args.k, 1000 + s)
        for pet in PETS:
            cells = [("none", 0.0, None)]
            cells += [("pdf", a, pdf_map) for a in pdf_grid]
            cells += [("sde", a, sde_map) for a in sde_grid]
            for method, alpha, mapnet in cells:
                cfg = TrainConfig(alpha=alpha, method=method,
                                  max_steps=args.steps, eval_every=50,
                                  batch_size=2, seed=s)
                _, _, summary = train_pet(state, PetConfig(kind=pet), mapnet,
                                          endpoints, train, dev, cfg)
                acc = summary["best_dev_metric"]
                rows.append({"pet": pet, "method": method, "alpha": alpha,
                             "seed": s, "best_dev_metric": acc})
                results.setdefault((pet, method, alpha), []).append(acc)
            print(f"seed {s} {pet} done ({time.time() - t0:.0f}s)")

    write_csv(os.path.join(args.out, "desk_study.csv"), list(rows[0]), rows)

    summary = {}
    both = 0
    for pet in PETS:
        van = float(np.mean(results[(pet, "none", 0.0)]))
        pdf = {a: float(np.mean(results[(pet, "pdf", a)])) for a in pdf_grid}
        sde = {a: float(np.mean(results[(pet, "sde", a)])) for a in sde_grid}
        wins = (max(pdf.values()) >= van, max(sde.values()) >= van)
        both += all(wins)
        summary[pet] = {"vanilla": van, "pdf": pdf, "sde": sde,
                        "pdf_win": wins[0], "sde_win": wins[1]}
        print(f"{pet:8s} vanilla {van:.4f}  best pdf {max(pdf.values()):.4f} "
              f"{'>=' if wins[0] else '< '} vanilla  best sde "
              f"{max(sde.values()):.4f} {'>=' if wins[1] else '< '} vanilla")
    print(f"{both} of {len(PETS)} PETs improved (or tied) under both methods; "
          f"grid took {time.time() - t0:.0f}s")

    with open(os.path.join(args.out, "desk_study.json"), "w",
              encoding="utf-8") as f:
        json.dump({"per_pet": summary, "k": args.k, "seeds": n_seeds,
                   "steps": args.steps, "pdf_grid": list(pdf_grid),
                   "sde_grid": list(sde_grid)}, f, indent=2)


if __name__ == "__main__":
    main()
