#!/usr/bin/env python3
"""Compare two teleport-lab checkouts with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_name.json \
        --what "what the change is and how it was measured" [--pairs 10] [--seconds 30]

For each workload in the change's BENCHMARK.json, the script runs
`python3 perfbench/run.py --workload W --seed 0 --seconds S --trace 0` in
each checkout, PAIRS times, alternating which side runs first (odd pairs
parent first). It then runs `--trace 1` at seeds 0-2 in both checkouts.
Each side runs from its own directory, so it benchmarks its own `src/`
with its own `perfbench/`.

The output JSON holds:

  what     the --what text
  parent   the parent checkout's commit (`git rev-parse --short HEAD`), if any
  summary  per workload and end-to-end metric: both sides' values, medians,
           pairs the change won, the parent's interquartile range,
           `relative_worse` (the change's median worse than the parent's, as
           a share of it; below 0 is better), the benchmark's bound, and
           `gain`: the change won at least nine tenths of the pairs and its
           median is better by more than the parent's interquartile range
  traced   per workload and side, the `--trace 1` results of seeds 0-2
  runs     per workload and side, every `--trace 0` result

Every result is the last stdout line of perfbench/run.py. A run that exits
with a code other than 0 or 1 stops the script; a run that exits 1 (its
checks failed) is kept, with `"correct": false`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

TRACED_SEEDS = (0, 1, 2)


def bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py result of `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"error: perfbench in {checkout} ({workload}, seed {seed}, trace "
                         f"{trace}) exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    shown = "trace.coverage" if trace else "wall_s"
    print(f"{os.path.basename(checkout.rstrip('/'))} {workload} seed {seed} trace {trace}: "
          f"correct {result['correct']}, {shown} {result['metrics'][shown]['value']:.4f}",
          file=sys.stderr)
    return result


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # > 0: the change is worse
    quartiles = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    iqr = quartiles[2] - quartiles[0]
    return {"parent": parent, "change": change, "parent_median": p_med,
            "change_median": c_med, "change_better_pairs": wins, "parent_iqr": iqr,
            "relative_worse": sign * (c_med - p_med) / p_med, "bound": bound,
            "gain": wins >= 0.9 * len(parent) and sign * (p_med - c_med) > iqr}


def parent_commit(checkout: str) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent checkout")
    parser.add_argument("change", help="changed checkout")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    parser.add_argument("--what", required=True, help="what is compared, and how")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    sides = {"parent": args.parent, "change": args.change}

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[workload][side].append(bench(sides[side], workload, 0, args.seconds, 0))
    traced = {w: {side: [bench(path, w, seed, args.seconds, 1) for seed in TRACED_SEEDS]
                  for side, path in sides.items()} for w in workloads}

    summary = {}
    for workload in workloads:
        metrics = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[workload][side]]
                      for side in sides}
            metrics[name] = compare(values["parent"], values["change"], metric["better"],
                                    metric["bound"])
        summary[workload] = {"pairs": args.pairs, "metrics": metrics}
    with open(args.out, "w") as fh:
        json.dump({"what": args.what, "parent": parent_commit(args.parent),
                   "summary": summary, "traced": traced, "runs": runs}, fh, indent=1)
        fh.write("\n")
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            print(f"{workload:11s} {name:12s} parent {m['parent_median']:.6g} change "
                  f"{m['change_median']:.6g} won {m['change_better_pairs']}/{args.pairs} "
                  f"relative_worse {m['relative_worse']:+.4f} gain {m['gain']}", file=sys.stderr)
        for side in sides:
            coverage = [r["metrics"]["trace.coverage"]["value"] for r in traced[workload][side]]
            correct = all(r["correct"] for r in traced[workload][side])
            print(f"{workload:11s} traced {side}: correct {correct}, coverage "
                  f"{min(coverage):.4f}-{max(coverage):.4f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
