"""Print sha256 digests of the floats that training, map fitting and probing
produce, one line per artefact, so that two checkouts can be compared byte
for byte: a change that keeps every float prints the same lines.

Usage, from the repository root (about a minute; --world adds the
2500-step world of bridgetune.study, a few minutes more):

    PYTHONPATH=src python3 scripts/float_digest.py [--world]

Lines:
  backbone-300         checksum of the backbone pretrained 300 steps on
                       make_pretrain_corpus(200, 12, default_rng(0)), seed 0
                       (README, Determinism)
  backbone-mixed       60 steps on a corpus of lengths 1 to 16, batches of 5
  fitmap-pdf, -sde     maps fitted on backbone-300's masked samples with a
                       holdout: weights, biases and history
  fitmap-ou-pdf, -sde  the same toward the OU bridge with q 1.5 and sigma 0.9
  pet-<kind>-<method>  train_pet's best tensors, history and summary for the
                       four PETs x {none, pdf, sde}
  pet-lora-ou-pdf, -sde  LoRA trained on the OU maps, whose bridge it takes
  probe-<kind>         the bytes of dump_probe_traces' file, without a PET
                       and under each trained PET
  world-*              with --world: build_world's backbone and both maps
"""

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

from bridgetune import backbone, latent_map, pipeline, study, tasks
from bridgetune.backbone import ModelConfig, PretrainConfig
from bridgetune.latent_map import FitMapConfig
from bridgetune.pets import PET_KINDS, PetConfig
from bridgetune.pipeline import TrainConfig

OU_BRIDGE = {"bridge_kind": "ou", "q": 1.5, "sigma": 0.9}


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, dict):
            for key in sorted(part):
                h.update(key.encode())
                h.update(digest(part[key]).encode())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def map_digest(mapnet, history):
    return digest(*(t.data for t in mapnet.trainables()), history)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--world", action="store_true",
                        help="also digest build_world(2500): backbone and both maps")
    args = parser.parse_args(argv)
    lines = []

    def emit(name, value):
        lines.append(f"{name} {value}")
        print(lines[-1], flush=True)

    corpus = tasks.make_pretrain_corpus(200, 12, np.random.default_rng(0))
    state = backbone.freeze(backbone.pretrain_mlm(ModelConfig(), corpus,
                                                  PretrainConfig(max_steps=300, seed=0)))
    emit("backbone-300", backbone.checksum(state))

    rng = np.random.default_rng(2)
    mixed = [seq for n in (1, 3, 7, 12, 16) for seq in tasks.make_pretrain_corpus(6, n, rng)]
    emit("backbone-mixed", backbone.checksum(backbone.pretrain_mlm(
        ModelConfig(), mixed, PretrainConfig(max_steps=60, batch_size=5, seed=3))))

    endpoints = latent_map.build_endpoints(state["embed"].data, r=8)
    samples = backbone.mlm_samples(corpus, np.random.default_rng(1))
    holdout = backbone.mlm_samples(tasks.make_pretrain_corpus(
        24, 12, np.random.default_rng(4)), np.random.default_rng(5))
    maps = {}
    for bridge, ou in (("", {}), ("ou-", OU_BRIDGE)):
        for method, steps, batch in (("pdf", 90, 16), ("sde", 45, 8)):
            cfg = FitMapConfig(method=method, max_steps=steps, batch_size=batch,
                               eval_every=15, seed=6, **ou)
            maps[bridge + method], history = latent_map.fit_map(state, samples, cfg,
                                                                endpoints, holdout=holdout)
            emit(f"fitmap-{bridge}{method}", map_digest(maps[bridge + method], history))

    train, dev = pipeline.fewshot_split(
        tasks.make_task_dataset(16, 12, 0.35, np.random.default_rng(7)), 8, 0)
    trained = {}
    for kind in PET_KINDS:
        for method, alpha in (("none", 0.0), ("pdf", 0.3), ("sde", 0.01)):
            cfg = TrainConfig(method=method, alpha=alpha, max_steps=30, eval_every=10,
                              seed=8)
            pet, history, summary = pipeline.train_pet(
                state, PetConfig(kind=kind), maps.get(method), endpoints, train, dev, cfg)
            emit(f"pet-{kind}-{method}", digest(pet.clone_tensors(), history, summary))
            trained[kind] = pet
    for method, alpha in (("pdf", 0.3), ("sde", 0.01)):
        cfg = TrainConfig(method=method, alpha=alpha, max_steps=30, eval_every=10, seed=8)
        pet, history, summary = pipeline.train_pet(
            state, PetConfig(kind="lora"), maps[f"ou-{method}"], endpoints, train, dev, cfg)
        emit(f"pet-lora-ou-{method}", digest(pet.clone_tensors(), history, summary))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.bin")
        for kind in (None, *PET_KINDS):
            pipeline.dump_probe_traces(path, state, trained.get(kind), dev, {"kind": str(kind)})
            with open(path, "rb") as f:
                emit(f"probe-{kind or 'none'}", hashlib.sha256(f.read()).hexdigest())

    if args.world:
        world = study.build_world(2500)
        emit("world-backbone", backbone.checksum(world.state))
        emit("world-pdf-map", map_digest(world.pdf_map, None))
        emit("world-sde-map", map_digest(world.sde_map, None))
    emit("all", digest(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
