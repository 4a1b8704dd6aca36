"""The three workloads: world_build (stage 1), tune_grid (stage 2) and
infer_probe (the eval and analyze path).

Each workload is a closed loop with one caller. ``setup()`` builds a small
world (stage 1 at small size, one PET per kind, their checkpoints and an
inference pool); it is deterministic and may be repeated. ``run_round()``
runs one whole round of the timed part and returns its figures and
outputs; ``run_side()`` runs the small passes that measure the end-to-end
metrics outside the workload's focus, so that the rounds stay focused:
pretraining runs only in world_build rounds, train_pet only in tune_grid
rounds, and no round of infer_probe builds a graph. ``check()`` compares a
round's outputs with the references and with properties the method must
have.

Input sizes are fixed, so every seed does the same amount of work; the seed
changes only the data.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import replace

import numpy as np

import checks
from bridgetune import analysis, backbone, latent_map, pets, pipeline, snapshot, tasks
from bridgetune import autodiff as ad
from bridgetune.backbone import ModelConfig, PretrainConfig
from bridgetune.latent_map import FitMapConfig
from bridgetune.pets import PetConfig
from bridgetune.pipeline import TrainConfig

clock = time.perf_counter

SEQ_LEN = 12
MIX = 0.35
LATENT_DIM = 8
PDF_ALPHA = 0.3
SDE_ALPHA = 0.01
CHECK_SAMPLES = 8
# Sequence lengths before the mask slot; the longest plus the mask slot and
# the default prompt fills max_seq_len exactly.
LENGTHS = (4, 8, 12, 16, 20,
           ModelConfig().max_seq_len - PetConfig(kind="prompt").prompt_len - 1)


def digest(*items):
    """sha256 over nested outputs; equal digests mean bit-identical outputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for v in x:
                feed(v)
        elif isinstance(x, float):
            h.update(float(x).hex().encode())
        else:
            h.update(repr(x).encode())

    for item in items:
        feed(item)
    return h.hexdigest()


def mapnet_arrays(mapnet):
    return [w.data for w in mapnet.weights] + [b.data for b in mapnet.biases]


def task_pairs(samples):
    return [(s.tokens, s.mask_position) for s in samples]


def mixed_pool(per_class_per_length, rng):
    """Task samples of every length in LENGTHS, both classes of each."""
    return [sample for n in LENGTHS
            for sample in tasks.make_task_dataset(per_class_per_length, n, MIX, rng)]


# ---------------------------------------------------------------- passes


def stage1(seed, corpus_size, holdout_size, pretrain_steps, pdf_cfg, sde_cfg, sde_holdout):
    """Corpus, pretraining of every backbone weight, endpoints, and a pdf
    and an sde map fitted with a holdout. Fit-map time includes its
    collect_traces and holdout evaluations."""
    t0 = clock()
    corpus = tasks.make_pretrain_corpus(corpus_size, SEQ_LEN, np.random.default_rng(seed))
    held_corpus = tasks.make_pretrain_corpus(holdout_size, SEQ_LEN,
                                             np.random.default_rng(seed + 2))
    t1 = clock()
    state = backbone.freeze(backbone.pretrain_mlm(
        ModelConfig(), corpus, PretrainConfig(max_steps=pretrain_steps, seed=seed)))
    t2 = clock()
    endpoints = latent_map.build_endpoints(state["embed"].data, r=LATENT_DIM)
    samples = backbone.mlm_samples(corpus, np.random.default_rng(seed + 1))
    holdout = backbone.mlm_samples(held_corpus, np.random.default_rng(seed + 3))
    t3 = clock()
    pdf = latent_map.fit_map(state, samples, replace(pdf_cfg, seed=seed), endpoints,
                             holdout=holdout)
    t4 = clock()
    sde = latent_map.fit_map(state, samples, replace(sde_cfg, seed=seed), endpoints,
                             holdout=holdout[:sde_holdout])
    t5 = clock()
    figures = {"wall_s": t5 - t0,
               "pretrain_steps_per_s": pretrain_steps / (t2 - t1),
               "fitmap_pdf_steps_per_s": pdf_cfg.max_steps / (t4 - t3),
               "fitmap_sde_steps_per_s": sde_cfg.max_steps / (t5 - t4)}
    return figures, {"corpus": corpus, "holdout": holdout, "state": state,
                     "endpoints": endpoints, "pdf": pdf, "sde": sde}


def tune(world, train, dev, cells, train_cfg, seed):
    """train_pet per (pet kind, method, alpha) cell. Rates count train_pet
    steps with its dev evaluations; an alpha-0 cell counts for no rate."""
    seconds = {"none": 0.0, "pdf": 0.0, "sde": 0.0}
    steps = {"none": 0, "pdf": 0, "sde": 0}
    maps = {"pdf": world["pdf"][0], "sde": world["sde"][0]}
    results = []
    t0 = clock()
    for kind, method, alpha in cells:
        cfg = replace(train_cfg, method=method, alpha=alpha, seed=seed)
        c0 = clock()
        results.append(pipeline.train_pet(world["state"], PetConfig(kind=kind), maps.get(method),
                                          world["endpoints"], train, dev, cfg))
        if method == "none" or alpha > 0:
            seconds[method] += clock() - c0
            steps[method] += cfg.max_steps
    figures = {"wall_s": clock() - t0}
    for method, name in (("none", "vanilla"), ("pdf", "pdf"), ("sde", "sde")):
        if steps[method]:
            figures[f"{name}_steps_per_s"] = steps[method] / seconds[method]
    return figures, results


def save_checkpoints(workdir, world, pet_by_kind):
    backbone.save_backbone(os.path.join(workdir, "backbone.bin"), world["state"])
    latent_map.save_mapnet(os.path.join(workdir, "map-pdf.bin"), world["pdf"][0], "pdf",
                           world["endpoints"])
    for kind, pet in pet_by_kind.items():
        pets.save_pet(os.path.join(workdir, f"pet-{kind}.bin"), pet)


def infer(workdir, pool):
    """What `eval` and `analyze` do, per PET kind: load the checkpoints,
    evaluate the pool, write its probe traces, read them back and measure
    each sample's bridge distance under the pdf map."""
    eval_s = probe_s = analyze_s = 0.0
    accuracy, probes, distances = {}, {}, {}
    t0 = clock()
    state = backbone.load_backbone(os.path.join(workdir, "backbone.bin"))
    t1 = clock()
    mapnet, endpoints, _ = latent_map.load_mapnet(os.path.join(workdir, "map-pdf.bin"))
    t2 = clock()
    eval_s += t1 - t0
    analyze_s += t2 - t1
    for kind in pets.PET_KINDS:
        e0 = clock()
        pet = pets.load_pet(os.path.join(workdir, f"pet-{kind}.bin"), state)
        accuracy[kind] = pipeline.evaluate(state, pet, pool)
        p0 = clock()
        probe_path = os.path.join(workdir, f"probe-{kind}.bin")
        pipeline.dump_probe_traces(probe_path, state, pet, pool, {"pet_kind": kind})
        a0 = clock()
        header, tensors = snapshot.load_snapshot(probe_path)
        rows, dists = [], []
        for i, label in enumerate(header["labels"]):
            h_out, h_ctx = tensors[f"s{i}.h_out"], tensors[f"s{i}.h_ctx"]
            trace = analysis.trace_from_arrays(h_out, h_ctx)
            dists.append(analysis.bridge_distance(trace, mapnet,
                                                  checks.brownian_spec(endpoints, label)))
            rows.append((h_out, h_ctx, label))
        a1 = clock()
        eval_s += p0 - e0
        probe_s += a0 - p0
        analyze_s += a1 - a0
        probes[kind], distances[kind] = rows, dists
    n = len(pets.PET_KINDS) * len(pool)
    figures = {"wall_s": clock() - t0, "eval_samples_per_s": n / eval_s,
               "probe_samples_per_s": n / probe_s, "analyze_samples_per_s": n / analyze_s}
    return figures, {"accuracy": accuracy, "probes": probes, "distances": distances}


# ---------------------------------------------------------------- small world

SMALL_STAGE1 = dict(
    corpus_size=100, holdout_size=8, pretrain_steps=16,
    pdf_cfg=FitMapConfig(method="pdf", max_steps=12, batch_size=16, eval_every=6),
    sde_cfg=FitMapConfig(method="sde", max_steps=6, batch_size=8, eval_every=3),
    sde_holdout=4)
SMALL_CELLS = [(kind, "none", 0.0) for kind in pets.PET_KINDS]
SMALL_TRAIN = TrainConfig(max_steps=8, eval_every=4, batch_size=2)
SMALL_K = 4
SMALL_PER_CLASS_PER_LENGTH = 3
# The side passes run the small world's stage 1 again, these train_pet
# cells on its task, and inference over its pool.
SIDE_CELLS = [(kind, method, alpha) for kind in ("lora", "adapter")
              for method, alpha in (("none", 0.0), ("pdf", PDF_ALPHA), ("sde", SDE_ALPHA))]


def small_world(seed, workdir):
    """The set-up every workload shares: stage 1 at small size, one PET per
    kind trained without a regularizer, their checkpoints and the pdf map
    written to workdir, and an inference pool of every length. Returns
    (world, digest of its outputs)."""
    _, world = stage1(seed, **SMALL_STAGE1)
    world["train"], world["dev"] = pipeline.fewshot_split(
        tasks.make_task_dataset(2 * SMALL_K, SEQ_LEN, MIX, np.random.default_rng(seed + 4)),
        SMALL_K, seed)
    _, results = tune(world, world["train"], world["dev"], SMALL_CELLS, SMALL_TRAIN, seed)
    world["pets"] = {kind: result[0] for (kind, _, _), result in zip(SMALL_CELLS, results)}
    save_checkpoints(workdir, world, world["pets"])
    world["pool"] = mixed_pool(SMALL_PER_CLASS_PER_LENGTH, np.random.default_rng(seed + 5))
    out = digest(backbone.checksum(world["state"]), mapnet_arrays(world["pdf"][0]),
                 mapnet_arrays(world["sde"][0]), [r[1] for r in results])
    return world, out


# ---------------------------------------------------------------- workloads


class Workload:
    """SIDE names the side passes that measure the end-to-end metrics
    outside the workload's focus; the runner runs them after every round."""

    SIDE = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Builds the small world; returns the digest of its outputs."""
        self.world, out = small_world(self.seed, self.workdir)
        return out

    def run_side(self):
        """The side passes named in SIDE; returns their figures."""
        w, figures = self.world, {}
        if "stage1" in self.SIDE:
            figures.update(stage1(self.seed, **SMALL_STAGE1)[0])
        if "tune" in self.SIDE:
            figures.update(tune(w, w["train"], w["dev"], SIDE_CELLS, SMALL_TRAIN, self.seed)[0])
        if "infer" in self.SIDE:
            figures.update(infer(self.workdir, w["pool"])[0])
        del figures["wall_s"]
        return figures


class WorldBuild(Workload):
    """Stage 1 from scratch: corpus, pretraining, endpoints, and the pdf and
    sde maps fitted with a holdout."""

    SIDE = ("tune", "infer")
    SIZES = dict(
        corpus_size=200, holdout_size=32, pretrain_steps=24,
        pdf_cfg=FitMapConfig(method="pdf", max_steps=24, batch_size=16, eval_every=8),
        sde_cfg=FitMapConfig(method="sde", max_steps=12, batch_size=8, eval_every=4),
        sde_holdout=16)
    ops_per_round = (SIZES["pretrain_steps"] + SIZES["pdf_cfg"].max_steps
                     + SIZES["sde_cfg"].max_steps)

    def run_round(self):
        return stage1(self.seed, **self.SIZES)

    @staticmethod
    def output_digest(out):
        return digest(backbone.checksum(out["state"]), out["endpoints"].beta,
                      out["pdf"][1], mapnet_arrays(out["pdf"][0]),
                      out["sde"][1], mapnet_arrays(out["sde"][0]))

    def check(self, out):
        state, endpoints, holdout = out["state"], out["endpoints"], out["holdout"]
        (pdf_map, pdf_hist), (sde_map, sde_hist) = out["pdf"], out["sde"]
        init = backbone.pretrain_mlm(ModelConfig(), out["corpus"],
                                     PretrainConfig(max_steps=0, seed=self.seed))
        losses = {"init": checks.reference_mlm_loss(init, holdout),
                  "trained": checks.reference_mlm_loss(state, holdout)}
        moved = backbone.checksum(init) != backbone.checksum(state)
        probe = holdout[:CHECK_SAMPLES]
        traces = latent_map.collect_traces(state, probe)
        n_steps = self.SIZES["sde_cfg"].sde_steps
        sde_values = checks.goodness_sde_values(sde_map, endpoints, traces, n_steps, self.seed)
        sde_values += [row[1] for row in sde_hist]
        pdf_err = checks.goodness_pdf_error(pdf_map, endpoints, traces)
        fwd_err = checks.forward_error(state, None, [(t, pos) for t, _, pos in probe])
        spline_err = checks.spline_error(state.config.num_layers, n_steps)
        holdout_goodness = [row[2] for row in pdf_hist + sde_hist]
        return {
            "pretrain_moves_weights_loss_finite": (
                moved and checks.all_finite(losses.values()), losses),
            "forward_matches_reference": (fwd_err <= checks.TOL, fwd_err),
            "goodness_pdf_matches_reference": (pdf_err <= checks.TOL, pdf_err),
            "goodness_sde_finite_nonnegative": (
                checks.all_finite(sde_values) and min(sde_values) >= 0.0, sde_values),
            "spline_weights_natural": (spline_err <= checks.TOL, spline_err),
            # A few dozen pretraining steps leave the masked loss on its ln(64) plateau, so
            # the traces carry no signal and neither a falling loss nor a better
            # holdout score holds on every seed at this size: they are reported,
            # and only their finiteness is checked.
            "holdout_goodness_finite": (checks.all_finite(holdout_goodness), holdout_goodness),
        }


class TuneGrid(Workload):
    """Stage 2 at reduced size on the small world: train_pet for 4 PETs x
    {none, pdf, sde}, plus a pdf cell at alpha 0 that must reproduce the
    none cell bit for bit."""

    SIDE = ("stage1", "infer")
    K = 8
    TRAIN = TrainConfig(max_steps=12, eval_every=6, batch_size=2)
    ZERO_ALPHA_PET = "lora"
    CELLS = ([(kind, method, alpha) for kind in pets.PET_KINDS
              for method, alpha in (("none", 0.0), ("pdf", PDF_ALPHA), ("sde", SDE_ALPHA))]
             + [(ZERO_ALPHA_PET, "pdf", 0.0)])
    ops_per_round = len(CELLS) * TRAIN.max_steps

    def setup(self):
        out = super().setup()
        pool = tasks.make_task_dataset(3 * self.K, SEQ_LEN, MIX,
                                       np.random.default_rng(self.seed + 6))
        self.train, self.dev = pipeline.fewshot_split(pool, self.K, self.seed)
        self.checksum = backbone.checksum(self.world["state"])
        return out

    def run_round(self):
        figures, results = tune(self.world, self.train, self.dev, self.CELLS, self.TRAIN,
                                self.seed)
        return figures, {"results": results, "checksum": backbone.checksum(self.world["state"])}

    @staticmethod
    def output_digest(out):
        return digest([(pet.clone_tensors(), history, summary)
                       for pet, history, summary in out["results"]])

    def check(self, out):
        state = self.world["state"]
        label_words = sorted({s.label_word for s in self.train})
        results = dict(zip(self.CELLS, out["results"]))
        mismatches = {}
        for (kind, method, alpha), (pet, _, summary) in results.items():
            want = checks.reference_accuracy(state, pet, self.dev, label_words)
            if want != summary["best_dev_metric"]:
                mismatches[f"{kind}/{method}/{alpha}"] = (summary["best_dev_metric"], want)
        returned = [None] + [results[(kind, "none", 0.0)][0] for kind in pets.PET_KINDS]
        fwd_err = max(checks.forward_error(state, pet, task_pairs(self.dev[:2]))
                      for pet in returned)
        none = results[(self.ZERO_ALPHA_PET, "none", 0.0)]
        zero = results[(self.ZERO_ALPHA_PET, "pdf", 0.0)]
        sde_costs = [row["running_cost"] for (_, method, _), (_, history, _) in results.items()
                     if method == "sde" for row in history]
        losses = [row[key] for _, history, _ in out["results"] for row in history
                  for key in ("train_loss", "terminal_loss", "running_cost")]
        return {
            "backbone_checksum_unchanged": (out["checksum"] == self.checksum, out["checksum"]),
            "best_dev_metric_matches_reference": (not mismatches, mismatches),
            "forward_matches_reference": (fwd_err <= checks.TOL, fwd_err),
            "alpha0_bit_identical_to_none": (
                digest(none[0].clone_tensors(), none[1], none[2])
                == digest(zero[0].clone_tensors(), zero[1], zero[2]), None),
            "goodness_sde_finite_nonnegative": (
                checks.all_finite(sde_costs) and min(sde_costs) >= 0.0, sde_costs),
            "histories_finite": (checks.all_finite(losses), None),
        }


class InferProbe(Workload):
    """The eval and analyze path over the small world's checkpoints, on a
    pool of mixed sequence lengths."""

    SIDE = ("stage1", "tune")
    PER_CLASS_PER_LENGTH = 6
    POOL = 2 * len(LENGTHS) * PER_CLASS_PER_LENGTH
    ops_per_round = 3 * len(pets.PET_KINDS) * POOL

    def setup(self):
        out = super().setup()
        self.pool = mixed_pool(self.PER_CLASS_PER_LENGTH, np.random.default_rng(self.seed + 7))
        return out

    def path(self, name):
        return os.path.join(self.workdir, name)

    def run_round(self):
        return infer(self.workdir, self.pool)

    @staticmethod
    def output_digest(out):
        return digest(out["accuracy"], out["probes"], out["distances"])

    def check(self, out):
        state, endpoints, mapnet = self.world["state"], self.world["endpoints"], self.world["pdf"][0]
        label_words = sorted({s.label_word for s in self.pool})
        # one sample of every length; with the prompt the longest fills max_seq_len
        spread = range(0, self.POOL, 2 * self.PER_CLASS_PER_LENGTH)
        fwd_err = checks.forward_error(state, None, task_pairs(self.pool[:2]))
        dist_err = 0.0
        eval_mismatch, probe_mismatch = {}, []
        loaded_map, _, _ = latent_map.load_mapnet(self.path("map-pdf.bin"))
        roundtrip = (
            backbone.checksum(backbone.load_backbone(self.path("backbone.bin")))
            == backbone.checksum(state)
            and digest(mapnet_arrays(loaded_map)) == digest(mapnet_arrays(mapnet)))
        for kind, pet in self.world["pets"].items():
            loaded = pets.load_pet(self.path(f"pet-{kind}.bin"), state)
            roundtrip &= digest(loaded.clone_tensors()) == digest(pet.clone_tensors())
            want = checks.reference_accuracy(state, pet, self.pool, label_words)
            if want != out["accuracy"][kind]:
                eval_mismatch[kind] = (out["accuracy"][kind], want)
            fwd_err = max(fwd_err, checks.forward_error(
                state, pet, task_pairs([self.pool[i] for i in spread])))
            with ad.no_grad():
                for i in spread:
                    sample = self.pool[i]
                    _, trace = backbone.forward(state, sample.tokens, sample.mask_position,
                                                pet=pet)
                    h_out, h_ctx, _ = out["probes"][kind][i]
                    want_out, want_ctx = checks.trace_arrays(trace)
                    if not (np.array_equal(h_out, want_out) and np.array_equal(h_ctx, want_ctx)):
                        probe_mismatch.append(f"{kind}/{i}")
            dist_err = max(dist_err, checks.bridge_distance_error(
                mapnet, endpoints, out["probes"][kind], out["distances"][kind]))
        return {
            "evaluate_matches_reference": (not eval_mismatch, eval_mismatch),
            "forward_matches_reference": (fwd_err <= checks.TOL, fwd_err),
            "probe_reloads_bit_exact": (not probe_mismatch, probe_mismatch),
            "checkpoints_reload_bit_exact": (roundtrip, None),
            "bridge_distance_matches_reference": (dist_err <= checks.TOL, dist_err),
        }


WORKLOADS = {"world_build": WorldBuild, "tune_grid": TuneGrid, "infer_probe": InferProbe}
