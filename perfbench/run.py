"""Benchmark of the bridgetune pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload tune_grid --seed 1 --seconds 30 --trace 0

Runs one workload in this process with BLAS pinned to one thread: its
set-up several times, then whole cycles of its timed part for about
--seconds, then checks of the last round's outputs. With --trace 0 a cycle
is one round of the workload followed by its side passes, which measure the
metrics outside the workload's focus, and the last line of standard output
is the JSON result with every end-to-end metric of BENCHMARK.json; with
--trace 1 a cycle is one round, traced, and the last line holds every
per-layer metric, from spans recorded around the calls into the program
after one untraced round. The line before it is the full run report, which
is also written with the spans under perfbench/out/. See README.md.
"""

import os

# Pinned before numpy loads its BLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def over_cycles(unit, values):
    """A rate over the run: its total work over its total time. Every cycle
    does the same work, so that is the harmonic mean of the per-cycle rates;
    a time is the mean per cycle. A shared host's speed drifts over seconds
    more than it stalls, so the mean over the whole run is steadier than the
    median of a handful of cycles (README.md, Reference figures)."""
    if unit.endswith("/s"):
        return statistics.harmonic_mean(values)
    return statistics.mean(values)


def run_round(workload, tracing, tracer=None):
    """One whole round; every round starts from the same cold spline cache,
    as a fresh process would."""
    tracing.spline_cache_clear()
    gc.collect()
    figures, outputs = workload.run_round()
    layers = tracer.take() if tracer is not None else None
    return figures, outputs, workload.output_digest(outputs), layers


def main(argv=None):
    ap = argparse.ArgumentParser(description="bridgetune pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "bridgetune" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {src / 'bridgetune'} or {spec_path} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, str(src))
    import numpy as np

    import bridgetune
    if Path(bridgetune.__file__).resolve().parent != (src / "bridgetune").resolve():
        print(f"error: imported bridgetune from {bridgetune.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    # so that a terminated run still removes its working directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        return _run(args, spec, workloads, tracing, workdir, out_dir, np)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, workloads, tracing, workdir, out_dir, np):
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        setup_digests.append(workload.setup())
        setup_s.append(time.perf_counter() - t0)

    tracer = None
    untraced = None
    rounds = []
    side_figures = []
    attempted = failed = 0
    error = None
    try:
        if args.trace:
            attempted += workload.ops_per_round
            untraced = run_round(workload, tracing)
            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        while True:
            attempted += workload.ops_per_round
            rounds.append(run_round(workload, tracing, tracer))
            if not args.trace:
                gc.collect()
                side_figures.append(workload.run_side())
            # stop where the measured time lands nearest --seconds: when one
            # more cycle of the mean length would overshoot by more than half
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 / len(rounds)) >= args.seconds:
                break
    except Exception:  # a round that raises counts all its operations as failed
        failed += workload.ops_per_round
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()

    checks = {"setup_bit_identical": (len(set(setup_digests)) == 1, SETUP_REPEATS)}
    if rounds:
        digests = [r[2] for r in rounds] + ([untraced[2]] if untraced else [])
        checks["rounds_bit_identical"] = (len(set(digests)) == 1, len(rounds))
        try:
            checks.update(workload.check(rounds[-1][1]))
        except Exception:
            checks["check_raised"] = (False, traceback.format_exc())
    correct = bool(rounds) and all(ok for ok, _ in checks.values())

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: statistics.median(r[3][name] for r in rounds)
                  for name in tracing.layer_metric_units()} if rounds else {}
        if rounds:
            values["trace.overhead_s"] = (statistics.median(r[0]["wall_s"] for r in rounds)
                                          - untraced[0]["wall_s"])
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        # the workload's own metrics from its rounds, the others from its
        # side passes, each over all of the run's cycles
        values = {name: over_cycles(units[name], [f[name] for f in side_figures])
                  for name in (side_figures[0] if side_figures else ())}
        for name in rounds[0][0] if rounds else ():
            values[name] = over_cycles(units[name], [r[0][name] for r in rounds])
        values["setup_s"] = statistics.median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None and set(values) != set(names):
        print(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json's "
              f"{sorted(names)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names if name in values}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(),
                    "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                    "blas_threads": BLAS_THREADS, "python": platform.python_version(),
                    "numpy": np.__version__},
        "attempted": attempted, "failed": failed, "error": error,
        "setup_s": setup_s,
        "side_figures": side_figures,
        "rounds": [r[0] for r in rounds],
        "untraced_round": untraced[0] if untraced else None,
        "checks": {name: {"ok": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        "metrics": metrics,
    }
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.npz")
        report["spans"] = len(tracer.span_name)
    line = json.dumps(report, default=repr)
    (out_dir / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
