"""One workload process: the unit the benchmark times from spawn to exit.

Usage: python3 child.py JOB.json

The job file names the `src` directory to import teleport_lab from, the
generated device and spec files, the output directory and whether to
trace. The process writes `result.json` (monotonic-clock marks) into
the output directory, plus `spans.json` when traced. With "setup_only"
it stops as soon as the inputs are ready.
"""
import json
import os
import sys
import time


def run_sweep(job: dict, result: dict):
    from teleport_lab import harness, pathfinder

    device = pathfinder.ingest_device(job["device"])
    with open(job["spec"]) as fh:
        spec = harness.ExperimentSpec.from_json(fh.read())
    result["ready"] = time.monotonic()
    if job["setup_only"]:
        return
    rows = harness.run_experiment(device, spec)
    result["run_experiment_s"] = time.monotonic() - result["ready"]
    harness.write_csv(rows, os.path.join(job["out_dir"], "results.csv"))


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer(job["run_id"])
        spans.instrument(tracer)
    result: dict = {}
    run_sweep(job, result)
    with open(os.path.join(job["out_dir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(os.path.join(job["out_dir"], "spans.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
