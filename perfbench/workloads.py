"""Workload definitions: the inputs each benchmark workload hands the program.

The reason each workload was chosen is its "why" in BENCHMARK.json. All
inputs follow from the benchmark seed: seed s uses device seed 7 + s and
run seed 11 + s, so seed 0 is heavy-hex-127 with device seed 7 and run
seed 11, the seeds of the ROADMAP trend spec.
"""
from __future__ import annotations

TOPOLOGY = "heavy-hex-127"
MODES = ("dynamic", "postselect", "swap")
TOMOGRAPHY_BASES = 9

WORKLOADS = {
    "long-path": {
        "workers": 1,
        "spec": {"hops": [17, 19], "protocols": ["neg"], "modes": list(MODES),
                 "paths_per_hop": 2, "trials": 1, "shots": 2048, "qrem": "both"},
    },
    "short-path": {
        "workers": 2,
        "spec": {"hops": [1, 2, 3, 4, 5], "protocols": ["neg", "gate_fid"],
                 "modes": list(MODES), "paths_per_hop": 4, "trials": 2, "shots": 1024,
                 "qrem": "both"},
    },
}


def seeds(seed: int) -> tuple[int, int]:
    """(device seed, run seed) of a benchmark seed."""
    return 7 + seed, 11 + seed


def spec_payload(workload: str, seed: int) -> dict:
    """Keyword arguments of the sweep's ExperimentSpec."""
    return {**WORKLOADS[workload]["spec"], "seed": seeds(seed)[1]}
