"""Compare two checkouts on the benchmark: alternating runs, merged into
one BENCH_<tag>.json.

Usage, from the repository root, with the parent commit checked out in
another directory (a clone or a git worktree: both sides write the same file
names into their own perfbench/out/):

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload world_build --seeds 1001-1010 --tag overhead

For each seed, one pair: perfbench/run.py --trace 0 runs in each
checkout, one after the other, for the run_seconds that BENCHMARK.json sets;
the parent runs first in odd pairs and the change first in even ones, so
that the host's drift falls on both sides. After each run its report is
read back from that checkout's perfbench/out/, and its verdict (correct or
not) from the last line run.py prints. BENCH_<tag>.json then holds the
machine, its core count and BLAS thread setting, every run's correctness,
round count and metrics, and per metric of the workload: each side's
median and quartiles, the per-pair ratios
(change over parent), the change's wins (ties count for neither) and
whether the change wins at least nine pairs in ten by more than the
parent's quartile spread. An existing file keeps the entries of other
workloads, so one file can collect several invocations.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text):
    """argparse type: "a-b" (inclusive) or "a,b,c"."""
    if "-" in text.strip("-"):
        lo, hi = (int(x) for x in text.split("-", 1))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(x) for x in text.split(",")]
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("needs at least two seeds: quartiles need two runs a side")
    return seeds


def src_digest(checkout):
    """sha256 over the program's source files, naming exactly what ran."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout, workload, seed, seconds):
    """run.py's report, with "correct" set to the verdict run.py prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    report_path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    if proc.returncode != 0 or not report_path.is_file():
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["correct"] = json.loads(proc.stdout.splitlines()[-1])["correct"]
    return report


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def compare(spec, runs):
    """Per end-to-end metric: both sides' spread, per-pair ratios and wins."""
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        stats = {side: summary(values[side]) for side in SIDES}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **stats,
            "values": values,
            "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
            "ratios": ratios,
            "wins": wins,
            "pairs": len(ratios),
            "gain_clears_rule": wins >= 0.9 * len(ratios)
            and (gap if higher else -gap) > parent_iqr,
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help='"a-b" or "a,b,c"')
    ap.add_argument("--tag", required=True, help="writes BENCH_<tag>.json here")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            report = run_once(checkouts[side], args.workload, seed, seconds)
            runs[side].append(report)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {side}: correct "
                  f"{report['correct']}, failed {report['failed']}", file=sys.stderr)

    path = Path(f"BENCH_{args.tag}.json")
    bench = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    bench.update({"tag": args.tag, "machine": runs["change"][0]["machine"]})
    bench.setdefault("workloads", {})[args.workload] = {
        "command": f"perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "src_sha256": {side: src_digest(checkouts[side]) for side in SIDES},
        "seeds": args.seeds,
        "first": first,
        "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        # run.py keeps every round's outputs until its checks, so peak_rss_mb
        # grows with the round count: a faster round also fits more rounds
        "rounds": {side: [len(r["rounds"]) for r in runs[side]] for side in SIDES},
        "metrics": compare(spec, runs),
    }
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
