"""Few-shot desk study: vanilla PET training against the two bridge
regularizers, over a small alpha grid and several split seeds.

Builds the whole world from scratch (bridgetune.study.build_world), runs the
grid with every cell in its own run directory under <out>/cells/seed<s>/,
and writes per-cell rows plus a per-PET summary. Roughly seven minutes on one
core with the defaults.

Usage:
    python3 scripts/run_desk_study.py --out runs/desk
    python3 scripts/run_desk_study.py --out runs/smoke --quick
"""

import argparse
import json
import os
import time

from bridgetune.pipeline import write_csv
from bridgetune.study import PDF_GRID, SDE_GRID, build_world, run_grid, verdict


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

    t0 = time.time()
    world = build_world(args.pretrain_steps)
    print(f"world ready in {time.time() - t0:.0f}s")

    t0 = time.time()
    rows = run_grid(world, os.path.join(args.out, "cells"), range(n_seeds), args.k,
                    args.steps, pdf_grid, sde_grid)
    write_csv(os.path.join(args.out, "desk_study.csv"), list(rows[0]), rows)

    per_pet, both = verdict(rows)
    for pet, m in per_pet.items():
        print(f"{pet:8s} vanilla {m['vanilla']:.4f}  best pdf {m['best_pdf']:.4f}  "
              f"best sde {m['best_sde']:.4f}")
    print(f"{both} of {len(per_pet)} PETs improved (or tied) under both methods; "
          f"grid took {time.time() - t0:.0f}s")

    with open(os.path.join(args.out, "desk_study.json"), "w",
              encoding="utf-8") as f:
        json.dump({"per_pet": per_pet, "improved_under_both": both, "k": args.k,
                   "seeds": n_seeds, "steps": args.steps, "pdf_grid": list(pdf_grid),
                   "sde_grid": list(sde_grid)}, f, indent=2)


if __name__ == "__main__":
    main()
