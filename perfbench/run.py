#!/usr/bin/env python3
"""teleport-lab benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload long-path --seed 0 --seconds 30 --trace 0

The workloads are defined in `workloads.py`; why each was chosen is in
BENCHMARK.json. Before timing starts, the benchmark generates the
heavy-hex-127 device file for the seed and the ExperimentSpec file. Each
workload then runs in a fresh process (`child.py`) that imports
teleport_lab from `src/`.

--trace 0 runs the workload repeatedly, untraced, until --seconds have
passed (at least three times), plus a few set-up-only processes, and
prints the median end-to-end metrics:

  wall_s       process spawn to exit
  setup_s      process spawn until the inputs are ready (imports, device
               ingest and ExperimentSpec)
  shots_per_s  simulated shots (cells x 9 bases x shots) / (wall_s - setup_s)
  peak_rss_mb  largest process of the workload's process tree (wait4)

--trace 1 runs the workload once untraced and once traced (serially, every
layer's public functions wrapped by `spans.py`) and prints the per-layer
metrics: self times, call and work counts, pool efficiency, tracing
overhead and span coverage.

Planned cells missing from the CSV count as `failed` out of `attempted`.
The output checks (see `checks.py`) make the command exit with code 1 and
`"correct": false`. The last line of stdout is the JSON result; a readable
table, and the run manifest path, go to stderr. Work files live in
`.perfbench/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import spans
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")

MIN_REPEATS = 3  # a median that one slow repeat cannot move
SETUP_PROBES = 5  # set-up-only processes per untraced run, for a steadier setup_s
DEADLINE_S = 170.0  # every process is stopped before the 180 s limit
COVERAGE_FLOOR = 0.95

class BenchError(Exception):
    """The workload could not be run; no result is printed."""


# ---------------------------------------------------------------------------
# Processes


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(job: dict, workers: int, deadline: float) -> dict:
    """Run child.py on `job` and time it from spawn to exit."""
    out_dir = job["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    job_path = os.path.join(out_dir, "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = dict(os.environ)
    env.pop("TELEPORT_LAB_THREADS", None)
    if workers > 1:
        env["TELEPORT_LAB_THREADS"] = str(workers)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    with open(os.path.join(out_dir, "child.log"), "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, job_path], stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the workload before leaving
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers left behind by a failed child
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}; "
                         f"see {os.path.join(out_dir, 'child.log')}")
    with open(os.path.join(out_dir, "result.json")) as fh:
        marks = json.load(fh)
    return {"wall_s": end - start, "setup_s": marks["ready"] - start,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "start": start, "end": end,
            "marks": marks, "out_dir": out_dir}


# ---------------------------------------------------------------------------
# Inputs


def prepare_inputs(workload: str, seed: int, work: str) -> dict:
    """Generate the device (and spec) for a seed; returns what the child needs."""
    from teleport_lab import harness, pathfinder

    device_seed, run_seed = workloads.seeds(seed)
    device_path = os.path.join(WORK, "devices", f"seed-{seed}.json")
    os.makedirs(os.path.dirname(device_path), exist_ok=True)
    pathfinder.save_device(pathfinder.synthesize_device(workloads.TOPOLOGY, seed=device_seed),
                           device_path)
    with open(device_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    spec = harness.ExperimentSpec(**workloads.spec_payload(workload, seed))
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        fh.write(spec.to_json())
    planned = [{"mode": c.mode, "protocol": c.protocol, "hops": c.hops, "trial": c.trial,
                "path": "-".join(str(q) for q in c.path_labels), "seed": c.seed}
               for c in harness.plan_cells(pathfinder.ingest_device(device_path), spec)]
    return {"workers": workloads.WORKLOADS[workload]["workers"], "src": SRC,
            "device": device_path, "device_sha256": digest, "device_seed": device_seed,
            "run_seed": run_seed, "spec": spec_path, "qrem": spec.qrem, "planned": planned,
            "shots": len(planned) * workloads.TOMOGRAPHY_BASES * spec.shots}


def make_job(inputs: dict, out_dir: str, trace: bool, setup_only: bool, run_id: str) -> dict:
    job = {k: v for k, v in inputs.items() if k != "planned"}
    job.update(out_dir=out_dir, trace=trace, setup_only=setup_only, run_id=run_id)
    return job


# ---------------------------------------------------------------------------
# Output checks


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_outputs(inputs: dict, runs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the CSVs of every run of one workload.

    Each run attempts the planned cells and fails those missing from its CSV.
    """
    csvs = [_read(os.path.join(run["out_dir"], "results.csv")) for run in runs]
    problems = [f"results.csv differs between {runs[0]['out_dir']} and {run['out_dir']}"
                for run, csv in zip(runs[1:], csvs[1:]) if csv != csvs[0]]
    failed = 0
    for index, csv in enumerate(csvs):
        rows = checks.parse_results(csv.decode())
        missing, extra = checks.missing_cells(rows, inputs["planned"], inputs["qrem"])
        failed += missing
        problems += extra
        if index == 0:
            problems += checks.negativity_rises(rows)
    attempted = len(inputs["planned"]) * len(runs)
    if failed:
        problems.append(f"{failed} of {attempted} planned cells are missing")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(inputs: dict, runs: list[dict], probes: list[dict]) -> dict:
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs + probes), "s"),
        "shots_per_s": (statistics.median(inputs["shots"] / (r["wall_s"] - r["setup_s"])
                                          for r in runs), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def per_layer(inputs: dict, plain: dict, traced: dict) -> dict:
    with open(os.path.join(traced["out_dir"], "spans.json")) as fh:
        dump = json.load(fh)
    recorded = dump["spans"]
    own = spans.self_times(recorded)
    calls = spans.call_counts(recorded)
    out = {name: (own.get(span, 0.0), "s") for name, span in spans.LAYER_TIMES.items()}
    out.update({name: (calls.get(span, 0), "count") for name, span in spans.LAYER_CALLS.items()})
    for name in ("mitigation.qrem_entries", "protocols.shots", "protocols.distinct_outcomes",
                 "harness.cells"):
        out[name] = (dump["counts"].get(name, 0), "count")
    cells_s = traced["marks"].get("run_experiment_s", 0.0) - own.get("harness.plan_cells", 0.0)
    out["harness.pool_efficiency"] = (cells_s / (inputs["workers"] * plain["wall_s"]), "ratio")
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    ready = traced["marks"]["ready"]
    out["trace.coverage"] = (spans.top_level_covered(recorded, ready, traced["end"])
                             / (traced["end"] - ready), "ratio")
    return out


# ---------------------------------------------------------------------------
# Manifest


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    ref = _read(head).decode().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        return _read(path).decode().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        for line in _read(packed).decode().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _why(workload: str) -> str | None:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            listed = json.load(fh)["workloads"]
    except (OSError, ValueError, KeyError):
        return None
    return next((w["why"] for w in listed if w["name"] == workload), None)


def environment(loadavg: tuple) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit(),
            "loadavg_at_start": list(loadavg)}


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="teleport-lab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, inputs: dict, work: str, deadline: float) -> tuple[list, list, dict | None]:
    """Runs the workload; returns (checked runs, set-up probes, per-layer metrics or None)."""
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workers = inputs["workers"]
    if args.trace:
        plain = run_child(make_job(inputs, os.path.join(work, "plain"), False, False, run_id),
                          workers, deadline)
        traced = run_child(make_job(inputs, os.path.join(work, "traced"), True, False, run_id),
                           1, deadline)
        return [plain, traced], [], per_layer(inputs, plain, traced)
    probes = [run_child(make_job(inputs, os.path.join(work, f"setup{i}"), False, True, run_id),
                        workers, deadline) for i in range(SETUP_PROBES)]
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REPEATS or time.monotonic() - start < args.seconds:
        runs.append(run_child(make_job(inputs, os.path.join(work, f"rep{len(runs)}"), False,
                                       False, run_id), workers, deadline))
    return runs, probes, None


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + DEADLINE_S
    loadavg = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "teleport_lab", "__init__.py")):
        print(f"error: {SRC} holds no teleport_lab package; run from the root of a "
              "teleport-lab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, args.workload, f"trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = prepare_inputs(args.workload, args.seed, work)
        runs, probes, layers = measure(args, inputs, work, deadline)
        attempted, failed, problems = check_outputs(inputs, runs)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if layers is not None:
        metrics = layers
        if metrics["trace.coverage"][0] < COVERAGE_FLOOR:
            problems.append(f"traced top-level spans cover {metrics['trace.coverage'][0]:.3f} "
                            f"of the traced run, below {COVERAGE_FLOOR}")
        shown = {**end_to_end(inputs, runs[:1], []), **layers}
    else:
        metrics = end_to_end(inputs, runs, probes)
        shown = dict(metrics)
    # fail_ratio is 0 whenever the run is correct, so it is reported as failed/attempted
    shown["fail_ratio"] = (failed / attempted, "ratio")

    manifest = {
        "workload": args.workload, "why": _why(args.workload), "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "inputs": {k: v for k, v in inputs.items() if k != "planned"},
        "planned_cells": len(inputs.get("planned", ())),
        "environment": environment(loadavg),
        "runs": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "out_dir")}
                 for r in runs],
        "setup_probes_s": [p["setup_s"] for p in probes],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    with open(os.path.join(work, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)

    for name, (value, unit) in shown.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"manifest: {os.path.join(work, 'manifest.json')}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": v, "unit": u}
                                  for name, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
