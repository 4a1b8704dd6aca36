"""Release checklist: one test per numbered acceptance item.

Each test prints a single line with the measured quantities next to the
stated tolerance, then asserts. Oracles are re-derived inline rather than
imported from the other test modules so the file reads as a standalone
contract.

Item 9b pins the worked tau-b tie example x = (1, 1, 2, 2), y = (1, 2, 1, 2)
at its enumerated value 0: of the six pairs one is concordant, one is
discordant and four are tied in x or y, so S = 0 (p-value 1).
"""

import csv
import json
import math
import re
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate

import bridgetune.autodiff as ad
from bridgetune import analysis, bridges, study
from bridgetune.autodiff import Tensor
from bridgetune.backbone import HiddenTrace, checksum, forward
from bridgetune.cli import cli
from bridgetune.latent_map import (build_endpoints, goodness_pdf,
                                   goodness_sde, new_mapnet)
from bridgetune.pets import PetConfig, build_pet
from bridgetune.pipeline import TrainConfig, fewshot_split, train_pet
from bridgetune.spline import fit_natural


def _check(label, ok, detail):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"acceptance {label}: {detail}"


# ------------------------------------------------------- 1: bridge marginals

def test_criterion_01_bridge_marginal_moments():
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.array([1.0]))
    start = time.perf_counter()
    vals = bridges.sample_paths_marginal(spec, 1000, 100_000, 500,
                                         np.random.default_rng(7))
    elapsed = time.perf_counter() - start
    mean = float(vals.mean())
    var = float(vals.var())
    ok = (abs(mean - 0.5) <= 0.02 * 0.5
          and abs(var - 0.25) <= 0.03 * 0.25
          and elapsed < 30.0)
    _check("1 bridge marginals", ok,
           f"t=0.5 mean {mean:.5f} (target 0.5 +-2%), "
           f"var {var:.5f} (target 0.25 +-3%), {elapsed:.1f}s < 30s")


# -------------------------------------------------- 2: density normalization

def test_criterion_02_density_normalization():
    worst = 0.0
    for kind in (bridges.BROWNIAN, bridges.OU):
        spec = bridges.BridgeSpec(kind=kind, beta=np.array([0.7]),
                                  q=1.3, sigma=0.9)
        for t in (0.1, 0.5, 0.9):
            m = bridges.mean_coeff(spec, t) * 0.7
            sd = math.sqrt(bridges.marginal_variance(spec, t))
            total, _ = integrate.quad(
                lambda x: math.exp(bridges.transition_logpdf(spec, t, [x])),
                m - 12 * sd, m + 12 * sd, limit=200)
            worst = max(worst, abs(total - 1.0))
    _check("2 density normalization", worst < 1e-6,
           f"worst |quadrature - 1| = {worst:.2e} over both kinds, "
           f"t in (0.1, 0.5, 0.9), tol 1e-6")


# ------------------------------------------------------------- 3: KL oracle

def test_criterion_03_kl_oracle():
    spec = bridges.BridgeSpec(kind=bridges.BROWNIAN, beta=np.array([0.5]))
    est = bridges.kl_path_estimate(
        spec, lambda t, z: bridges.drift(spec, t, z) + 1.0,
        1000, 200, np.random.default_rng(3))
    expected = 0.5 * 1.0 * (1.0 - 1.0 / 1000)  # c^2/2 * t_max
    zero = bridges.kl_path_estimate(
        spec, lambda t, z: bridges.drift(spec, t, z),
        1000, 20, np.random.default_rng(4))
    ok = abs(est - expected) <= 0.05 * expected and zero < 1e-6
    _check("3 KL oracle", ok,
           f"offset c=1 estimate {est:.6f} vs {expected:.6f} +-5%, "
           f"zero-offset {zero:.1e} < 1e-6")


# -------------------------------------------------------- 4: gradient suite

def _leaf(rng, *shape, positive=False, off_zero=False):
    x = rng.normal(size=shape)
    if positive:
        x = np.abs(x) + 0.5
    if off_zero:
        x = x + 0.25 * np.sign(x)
    t = Tensor(x)
    t.requires_grad = True
    return t


def _op_cases(rng):
    """One scalar graph per op; linear ops get a square on top so the
    finite-difference probe sees curvature."""
    sq = lambda t: ad.tensor_sum(ad.square(t))
    cases = {}

    a, b = _leaf(rng, 3, 4), _leaf(rng, 4, 2)
    cases["matmul"] = (lambda a=a, b=b: sq(ad.matmul(a, b)), [a, b])

    a, b = _leaf(rng, 3, 2), _leaf(rng, 3, 1)  # broadcast on purpose
    cases["add"] = (lambda a=a, b=b: sq(ad.add(a, b)), [a, b])

    a, b = _leaf(rng, 3, 2), _leaf(rng, 3, 1)
    cases["sub"] = (lambda a=a, b=b: sq(ad.sub(a, b)), [a, b])

    a = _leaf(rng, 3, 3)
    cases["scalar_mul"] = (lambda a=a: sq(ad.scalar_mul(a, -1.7)), [a])

    a, b = _leaf(rng, 2, 4), _leaf(rng, 2, 1)
    cases["elementwise_mul"] = (
        lambda a=a, b=b: sq(ad.elementwise_mul(a, b)), [a, b])

    a = _leaf(rng, 3, 4)
    axis = int(rng.integers(0, 2))
    cases["mean_over_axis"] = (
        lambda a=a, axis=axis: sq(ad.mean_over_axis(a, axis)), [a])

    a, b = _leaf(rng, 2, 3), _leaf(rng, 2, 2)
    cases["concat"] = (lambda a=a, b=b: sq(ad.concat([a, b], 1)), [a, b])

    a = _leaf(rng, 5, 2)
    cases["slice_rows"] = (lambda a=a: sq(ad.slice_rows(a, 1, 4)), [a])

    a = _leaf(rng, 4, 3)
    cases["gather_rows"] = (  # repeated row exercises accumulation
        lambda a=a: sq(ad.gather_rows(a, [0, 2, 2, 3])), [a])

    a, b = _leaf(rng, 3, 2), _leaf(rng, 2, 3)
    cases["transpose"] = (
        lambda a=a, b=b: sq(ad.elementwise_mul(ad.transpose(a), b)), [a, b])

    a, b = _leaf(rng, 4, 2), _leaf(rng, 4, 2)  # weighted so the grad is nonzero
    cases["softmax"] = (
        lambda a=a, b=b: ad.tensor_sum(ad.elementwise_mul(ad.softmax(a, 0), b)),
        [a, b])

    a, b = _leaf(rng, 5, 2), _leaf(rng, 5, 2)
    cases["layer_norm"] = (
        lambda a=a, b=b: ad.tensor_sum(ad.elementwise_mul(ad.layer_norm(a), b)),
        [a, b])

    a = _leaf(rng, 3, 3)
    cases["gelu"] = (lambda a=a: ad.tensor_sum(ad.gelu(a)), [a])

    a = _leaf(rng, 3, 3, off_zero=True)  # stay away from the kink
    cases["relu"] = (lambda a=a: sq(ad.relu(a)), [a])

    a = _leaf(rng, 2, 5)
    cases["square"] = (lambda a=a: ad.tensor_sum(ad.square(a)), [a])

    a = _leaf(rng, 4, 2)
    cases["sum"] = (lambda a=a: ad.square(ad.tensor_sum(a)), [a])

    a = _leaf(rng, 3, 2, positive=True)
    cases["log"] = (lambda a=a: ad.tensor_sum(ad.log(a)), [a])

    a = _leaf(rng, 6, 1)
    tgt = int(rng.integers(0, 6))
    cases["cross_entropy_with_logits"] = (
        lambda a=a, tgt=tgt: ad.cross_entropy_with_logits(a, tgt), [a])

    # one-node forms of existing kinds, drawn last so the cases above keep their data
    a, b, c = _leaf(rng, 3, 4), _leaf(rng, 4, 2), _leaf(rng, 3, 1)
    cases["matmul bias"] = (lambda a=a, b=b, c=c: sq(ad.matmul(a, b, bias=c)), [a, b, c])

    g, a, c, w = _leaf(rng, 5, 1), _leaf(rng, 5, 2), _leaf(rng, 5, 1), _leaf(rng, 5, 2)
    cases["layer_norm affine"] = (
        lambda g=g, a=a, c=c, w=w: ad.tensor_sum(
            ad.elementwise_mul(ad.layer_norm(a, gain=g, bias=c), w)), [g, a, c, w])

    return cases


def _fd_worst(fn, leaves, probe_rng, eps=1e-6):
    """Worst relative gap between backward() and a central difference over
    a few random coordinates of every leaf."""
    grads = ad.backward(fn())
    worst = 0.0
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        for idx in probe_rng.choice(flat.size, size=min(3, flat.size),
                                    replace=False):
            old = flat[idx]
            flat[idx] = old + eps
            up = fn().item()
            flat[idx] = old - eps
            dn = fn().item()
            flat[idx] = old
            fd = (up - dn) / (2 * eps)
            g = grads.get(leaf)
            an = 0.0 if g is None else g.reshape(-1)[idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return worst


def _fd_trace(rng, L=2, d=3):
    trace = HiddenTrace(
        h_out=[Tensor(rng.normal(size=(d, 1))) for _ in range(L + 1)],
        h_ctx=[Tensor(rng.normal(size=(d, 1))) for _ in range(L + 1)])
    for leaf in trace.h_out + trace.h_ctx:
        leaf.requires_grad = True
    return trace


def test_criterion_04_gradient_suite():
    worst_op = {}
    for trial in range(20):
        cases = _op_cases(np.random.default_rng(5000 + trial))
        for name, (fn, leaves) in cases.items():
            w = _fd_worst(fn, leaves, np.random.default_rng(trial))
            worst_op[name] = max(worst_op.get(name, 0.0), w)
    covered = {name.split()[0] for name in worst_op} == set(ad.op_kinds())

    worst_pdf = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        net = new_mapnet(6, (6, 5), 2, rng, time_augmented=False)
        trace = _fd_trace(rng)
        kind = bridges.BROWNIAN if trial % 2 == 0 else bridges.OU
        spec = bridges.BridgeSpec(kind=kind, beta=rng.normal(size=2),
                                  q=0.8, sigma=1.1)
        leaves = net.trainables() + trace.h_out + trace.h_ctx
        worst_pdf = max(worst_pdf, _fd_worst(
            lambda: goodness_pdf(net, trace, spec), leaves,
            np.random.default_rng(trial)))

    worst_sde = 0.0
    for trial in range(20):
        rng = np.random.default_rng(200 + trial)
        net = new_mapnet(7, (6, 5), 2, rng, time_augmented=True)
        trace = _fd_trace(rng)
        kind = bridges.BROWNIAN if trial % 2 == 0 else bridges.OU
        spec = bridges.BridgeSpec(kind=kind, beta=rng.normal(size=2),
                                  q=0.8, sigma=1.1)
        leaves = net.trainables() + trace.h_out + trace.h_ctx
        # re-seeding per call fixes the simulation noise, so the pathwise
        # derivative is a plain deterministic gradient
        worst_sde = max(worst_sde, _fd_worst(
            lambda: goodness_sde(net, trace, spec, 6,
                                 np.random.default_rng(42)),
            leaves, np.random.default_rng(trial)))

    worst = max(worst_op.values())
    ok = covered and worst < 1e-4 and worst_pdf < 1e-4 and worst_sde < 1e-3
    _check("4 gradient suite", ok,
           f"{len(ad.op_kinds())} op kinds in {len(worst_op)} cases, worst {worst:.1e} "
           f"(tol 1e-4), "
           f"pdf goodness {worst_pdf:.1e} (tol 1e-4), "
           f"sde goodness {worst_sde:.1e} (tol 1e-3), 20 trials each")


# ------------------------------------------------------------------ 5: spline

def test_criterion_05_spline():
    worst_knot = 0.0
    worst_bound = 0.0
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        xs = np.cumsum(0.3 + rng.random(8))
        ys = rng.standard_normal((8, 3))
        s = fit_natural(list(zip(xs, ys)))
        worst_knot = max(worst_knot,
                         float(np.max(np.abs(s.eval_many(xs) - ys))))
        # central second difference is exact for cubics, so any h inside
        # the boundary interval measures S'' at the end knots directly
        for x0, gap in ((xs[0], xs[1] - xs[0]), (xs[-1], xs[-1] - xs[-2])):
            h = 0.4 * gap
            fd2 = (s.eval(x0 + h) - 2.0 * s.eval(x0) + s.eval(x0 - h)) / h ** 2
            worst_bound = max(worst_bound, float(np.max(np.abs(fd2))))
    s3 = fit_natural([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    hand = float(s3.eval(0.25)[0])
    ok = (worst_knot <= 1e-10 and worst_bound <= 1e-8
          and abs(hand - 0.6875) <= 1e-12)
    _check("5 spline", ok,
           f"knot error {worst_knot:.1e} <= 1e-10, boundary S'' "
           f"{worst_bound:.1e} <= 1e-8, S(0.25) = {hand!r} vs 0.6875 +-1e-12")


# ----------------------------------------------------------- 6: PET identities

def test_criterion_06_pet_identities(world):
    state = world.state
    base_sum = checksum(state)

    identical = True
    for kind in ("lora", "adapter"):  # both start as exact zero updates
        pet = build_pet(PetConfig(kind=kind), state, np.random.default_rng(7))
        for s in world.pool[:8]:
            plain, _ = forward(state, s.tokens, s.mask_position)
            with_pet, _ = forward(state, s.tokens, s.mask_position, pet=pet)
            identical = identical and np.array_equal(plain.data, with_pet.data)

    train, dev = fewshot_split(world.pool, 4, 1234)
    invariant = True
    for kind in ("prompt", "lora", "bitfit", "adapter"):
        cfg = TrainConfig(alpha=0.1, method="pdf", max_steps=10, eval_every=5,
                          batch_size=2, seed=0)
        train_pet(state, PetConfig(kind=kind), world.pdf_map, world.endpoints,
                  train, dev, cfg)
        invariant = invariant and checksum(state) == base_sum

    cfg0 = TrainConfig(alpha=0.0, method="pdf", max_steps=40, eval_every=20,
                       batch_size=2, seed=11)
    cfgn = TrainConfig(alpha=0.0, method="none", max_steps=40, eval_every=20,
                       batch_size=2, seed=11)
    pet0, hist0, _ = train_pet(state, PetConfig(kind="adapter"), world.pdf_map,
                               world.endpoints, train, dev, cfg0)
    petn, histn, _ = train_pet(state, PetConfig(kind="adapter"), None,
                               world.endpoints, train, dev, cfgn)
    t0, tn = pet0.clone_tensors(), petn.clone_tensors()
    same = (hist0 == histn and set(t0) == set(tn)
            and all(np.array_equal(t0[k], tn[k]) for k in t0))

    ok = identical and invariant and same
    _check("6 PET identities", ok,
           f"zero-init LoRA/Adapter bit-identical: {identical}, backbone "
           f"checksum invariant over 4 PET runs: {invariant}, "
           f"alpha=0 == method none bit-identical: {same}")


# -------------------------------------------------------------- 7: endpoints

def test_criterion_07_endpoint_geometry(world):
    worst = 0.0
    for eta in (1.0, 0.5, 3.0):
        table = build_endpoints(world.state["embed"].data, r=8, eta=eta)
        norms = np.linalg.norm(table.beta, axis=1)
        worst = max(worst, float(np.max(np.abs(norms - eta))))

    V = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0]])
    signed = build_endpoints(V, r=1, eta=0.7).beta[:, 0]
    # global eigenvector sign is a convention, the +-eta pattern is not
    exact = (np.array_equal(np.abs(signed), np.full(4, 0.7))
             and signed[0] == -signed[1] == signed[2] == -signed[3])

    ok = worst <= 1e-8 and exact
    _check("7 endpoints", ok,
           f"worst row-norm deviation {worst:.1e} <= 1e-8 over eta in "
           f"(1.0, 0.5, 3.0); symmetric 2-d example exactly +-0.7: {exact}")


# --------------------------------------------- 8: desk-scale directional study

@pytest.fixture(scope="module")
def desk_study(world, tmp_path_factory):
    """Full grid: 4 PETs x 5 seeds x (vanilla + 3 pdf alphas + 3 sde alphas),
    every cell in its own run directory."""
    start = time.perf_counter()
    rows = study.run_grid(world, tmp_path_factory.mktemp("desk"), seeds=range(5))
    return {"rows": rows, "elapsed": time.perf_counter() - start}


def test_criterion_08_desk_scale_directional(desk_study):
    per_pet, both = study.verdict(desk_study["rows"])
    parts = [f"{pet} vanilla {m['vanilla']:.4f} pdf {m['best_pdf']:.4f} "
             f"sde {m['best_sde']:.4f}" for pet, m in per_pet.items()]
    elapsed = desk_study["elapsed"]
    ok = both >= 3 and elapsed < 1800.0
    _check("8 desk-scale gains", ok,
           f"{both}/4 PETs >= vanilla under both regularizers "
           f"(need 3), study {elapsed:.0f}s < 1800s; " + "; ".join(parts))


# -------------------------------------------------- 9: analysis statistics

def _ref_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    dx = [xi - mx for xi in x]
    dy = [yi - my for yi in y]
    sxy = sxx = syy = 0.0
    for a, b in zip(dx, dy):
        sxy += a * b
        sxx += a * a
        syy += b * b
    return sxy / math.sqrt(sxx * syy)


def _ref_tau_b(x, y):
    n = len(x)
    c = d = tx = ty = 0
    for i, j in combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0:
            tx += 1
        if dy == 0:
            ty += 1
        if dx != 0 and dy != 0:
            if dx == dy:
                c += 1
            else:
                d += 1
    n0 = n * (n - 1) // 2
    return (c - d) / math.sqrt((n0 - tx) * (n0 - ty))


def _nondegenerate(rng, n, integer):
    while True:
        if integer:
            x = [int(v) for v in rng.integers(0, 4, size=n)]
            y = [int(v) for v in rng.integers(0, 4, size=n)]
        else:
            x = [float(v) for v in rng.normal(size=n)]
            y = [float(v) for v in rng.normal(size=n)]
        if len(set(x)) > 1 and len(set(y)) > 1:
            return x, y


def test_criterion_09a_statistics_brute_force():
    rng = np.random.default_rng(17)
    pearson_exact = tau_exact = 0
    for i in range(100):
        # n <= 7 keeps numpy reductions in plain sequential order, so the
        # pure-python reference is a bit-for-bit oracle
        x, y = _nondegenerate(rng, 3 + i % 5, integer=False)
        r, _ = analysis.pearson(x, y)
        pearson_exact += r == _ref_pearson(x, y)
    for i in range(100):
        x, y = _nondegenerate(rng, 3 + i % 17, integer=i % 2 == 0)
        tau, _ = analysis.kendall_tau_b(x, y)
        tau_exact += tau == _ref_tau_b(x, y)
    ok = pearson_exact == 100 and tau_exact == 100
    _check("9a statistics vs brute force", ok,
           f"pearson exact on {pearson_exact}/100 inputs, "
           f"tau-b exact on {tau_exact}/100 inputs")


def test_criterion_09b_worked_tau_tie_example():
    # Hand count over the six pairs of x=(1,1,2,2), y=(1,2,1,2): (0,1) and
    # (2,3) are tied in x, (0,2) and (1,3) are tied in y, (0,3) is
    # concordant and (1,2) discordant. So S = 1 - 1 = 0 and
    # tau-b = 0 / sqrt((6-2)*(6-2)) = 0 exactly. Symmetry says the same:
    # swapping the y labels 1<->2 maps the four points onto themselves and
    # flips the sign of any rank correlation, so the value must be 0 under
    # every tie convention. With S = 0 the normal approximation has z = 0,
    # and erfc(0) == 1.0 exactly, so the p-value is 1.
    x, y = [1, 1, 2, 2], [1, 2, 1, 2]
    tau, p = analysis.kendall_tau_b(x, y)
    ref = _ref_tau_b(x, y)
    _check("9b worked tau-b tie example",
           tau == 0.0 and ref == 0.0 and p == 1.0,
           f"kendall_tau_b returned tau={tau}, p={p} (enumeration {ref}), "
           f"hand count tau=0.0, p=1.0")


def test_criterion_09c_analyze_reproduces_correlation(desk_study, tmp_path,
                                                      capsys):
    out = tmp_path / "analysis"
    runs = [row["run"] for row in desk_study["rows"] if row["pet"] == "prompt"
            and row["seed"] == 0 and row["method"] in ("none", "pdf")]
    rc = cli(["analyze", "--runs", *runs, "--out", str(out)])
    assert rc == 0
    shown = re.search(r"pearson\(alpha, centroid_distance\): r=(-?\d+\.\d+)",
                      capsys.readouterr().out)
    assert shown is not None
    shown = float(shown.group(1))

    with open(out / "analyze.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    alphas = [float(row["alpha"]) for row in rows]
    dists = [float(row["centroid_distance"]) for row in rows]
    r, _ = analysis.pearson(alphas, dists)

    ok = len(rows) == len(runs) and \
        shown == pytest.approx(r, abs=5e-7)
    sign = "positive" if r > 0 else "non-positive"
    _check("9c analyze correlation", ok,
           f"analyze printed r={shown:.6f}, recomputed {r:.6f} over "
           f"{len(rows)} runs; sign {sign} (reported, not asserted)")


# ----------------------------------------------------- 10: CLI determinism

def test_criterion_10_cli_rerun_byte_identical(world_dir, tmp_path):
    data = tmp_path / "splits"
    assert cli(["fewshot", "--data", str(world_dir / "task.jsonl"), "--k", "8",
                "--seeds", "1", "--seed", "5", "--out", str(data)]) == 0
    train = data / "seed5" / "train.jsonl"
    dev = data / "seed5" / "dev.jsonl"

    def run(out, *extra):
        args = ["train-pet", "--backbone", str(world_dir / "backbone.bin"),
                "--pet", "bitfit", "--train", str(train), "--dev", str(dev),
                "--steps", "20", "--eval-every", "10", "--seed", "3",
                "--out", str(out), *extra]
        assert cli(args) == 0
        return (out / "metrics.csv").read_bytes()

    plain = [run(tmp_path / f"none-{i}", "--method", "none") for i in range(2)]
    reg = [run(tmp_path / f"pdf-{i}", "--method", "pdf", "--alpha", "0.1",
               "--map", str(world_dir / "map-pdf.bin")) for i in range(2)]
    ok = plain[0] == plain[1] and reg[0] == reg[1] and len(plain[0]) > 0
    _check("10 CLI determinism", ok,
           "identical argv reruns byte-identical for vanilla and "
           "pdf-regularized train-pet metrics.csv")
