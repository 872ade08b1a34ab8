"""Command-line entry points for the teleportation workbench."""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from . import harness, pathfinder, svgplot
from .channels import DEFAULT_ONE_QUBIT_DEPOL, NoiseModel, check_number, confusion_matrix
from .harness import ExperimentSpec
from .mitigation import MitigationError
from .protocols import MAX_PATH_QUBITS

log = logging.getLogger("teleport_lab")

DEFAULT_READOUT_01 = 0.013
DEFAULT_READOUT_10 = 0.018
#: Most points a LO:HI:STEP delay range may expand to.
MAX_DELAY_POINTS = 10_000
#: `gen-device` noise distribution flags (argparse dest, as synthesize_device names them).
_DISTRIBUTION_FLAGS = ("gate_error_mean", "gate_error_sd", "readout_mean", "readout_sd")


def _parse_hops(text: str) -> tuple[int, ...]:
    """Accept 'A..B', 'A..B..STEP' or a comma list."""
    if ".." in text:
        parts = [int(p) for p in text.split("..")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise argparse.ArgumentTypeError(f"bad hops range {text!r}")
        hops = range(lo, hi + 1, step)
        # more distinct hop counts than this cannot all be valid; ExperimentSpec names which
        if hops[MAX_PATH_QUBITS - 2:]:
            raise argparse.ArgumentTypeError(f"hops range {text!r} holds more than "
                                             f"{MAX_PATH_QUBITS - 2} hop counts")
        return tuple(hops)
    return tuple(int(p) for p in text.split(","))


def _parse_delays(text: str) -> list[float]:
    """Accept 'LO:HI:STEP' or a comma list, in microseconds; every number must be finite."""
    ranged = ":" in text
    values = [float(p) for p in text.split(":" if ranged else ",")]
    if ranged and len(values) != 3:
        raise ValueError(f"delay range {text!r} must have the form LO:HI:STEP")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"every delay and delay step must be finite, got {text!r}")
    if ranged:
        lo, hi, step = values
        if not step > 0:
            raise ValueError(f"delay step must be positive, got {step:g}")
        out = []
        t = lo
        while t <= hi + 1e-9:
            if len(out) == MAX_DELAY_POINTS:  # also ends a range whose step is below t's ulp
                raise ValueError(f"delay range {text!r} holds more than {MAX_DELAY_POINTS} delays")
            out.append(round(t, 9))
            t += step
        if not out:
            raise ValueError(f"delay range {text!r} holds no delay")
        return out
    return values


def _check_out_paths(*paths: str | None):
    """Fail before any work when an output path names a folder or lies in a missing one."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"output directory {folder!r} does not exist")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path!r} is a directory")


def _csv_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def cmd_gen_device(args) -> int:
    _check_out_paths(args.out)
    given = {flag: getattr(args, flag) for flag in _DISTRIBUTION_FLAGS
             if getattr(args, flag) is not None}
    device = pathfinder.synthesize_device(topology=args.topology, seed=args.seed,
                                          undefined_edges=args.undefined_edges, **given)
    pathfinder.save_device(device, args.out)
    print(f"wrote {args.out}: {len(device.qubits)} qubits, {len(device.edges)} edges")
    return 0


def cmd_find_paths(args) -> int:
    _check_out_paths(args.out)
    check_number("--qubits", args.qubits, 2, MAX_PATH_QUBITS, integer=True)
    check_number("--paths", args.paths, 1, harness.MAX_PATHS_PER_HOP, integer=True)
    device = pathfinder.ingest_device(args.device)
    graph = pathfinder.edge_weights(device, args.protocol)
    paths = pathfinder.find_best_paths(graph, args.qubits, args.paths)
    complete = len(paths) == args.paths
    if not complete:
        print(f"warning: only {len(paths)} path(s) of {args.qubits} qubits exist",
              file=sys.stderr)
    for rank, p in enumerate(paths, start=1):
        labels = "-".join(str(q) for q in p.qubits)
        print(f"{rank:2d}  product={p.weight_product:.6f}  {labels}")
    if args.out:
        payload = {"protocol": args.protocol, "qubits": args.qubits, "paths": [
            {"rank": i + 1, "qubits": list(p.qubits), "weight_product": p.weight_product}
            for i, p in enumerate(paths)],
            "complete": complete}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


#: `run` sweep flags (argparse dest) and the ExperimentSpec field each sets.
_SWEEP_FLAGS = {"protocol": "protocols", "mode": "modes", "hops": "hops",
                "paths": "paths_per_hop", "trials": "trials", "shots": "shots",
                "qrem": "qrem", "noise_overrides": "noise_overrides",
                "simplified_correction": "simplified_correction"}


def _spec_from_args(args) -> ExperimentSpec:
    given = {flag: getattr(args, flag) for flag in _SWEEP_FLAGS
             if getattr(args, flag) is not None}
    if args.spec:
        if given:
            flags = ", ".join("--" + flag.replace("_", "-") for flag in given)
            raise ValueError(f"{flags} cannot be combined with --spec; put the value in "
                             "the spec file")
        with open(args.spec) as fh:
            try:
                spec = ExperimentSpec.from_json(fh.read())
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.spec}: not valid JSON ({exc})") from exc
    else:
        if "noise_overrides" in given:
            try:
                given["noise_overrides"] = json.loads(given["noise_overrides"])
            except json.JSONDecodeError as exc:
                raise ValueError(f"--noise-overrides: not valid JSON ({exc})") from exc
        spec = ExperimentSpec(**{_SWEEP_FLAGS[flag]: value for flag, value in given.items()})
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


def cmd_run(args) -> int:
    _check_out_paths(args.out)
    device = pathfinder.ingest_device(args.device)
    spec = _spec_from_args(args)
    rows = harness.run_experiment(device, spec)
    harness.write_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows")
    if rows.failed:
        print(f"error: {rows.failed} of {rows.planned} cells failed", file=sys.stderr)
        return 1
    return 0


def _decay_noise(args) -> NoiseModel:
    if args.device:
        device = pathfinder.ingest_device(args.device)
        graph = pathfinder.edge_weights(device, "gate_fid")
        best = pathfinder.find_best_paths(graph, 2, 1)
        if not best:
            raise ValueError("device has no usable edge for the decay experiment")
        return harness.path_noise_model(device, best[0].qubits)
    readout = [confusion_matrix(DEFAULT_READOUT_01, DEFAULT_READOUT_10)] * 2
    return NoiseModel(one_qubit_depol=DEFAULT_ONE_QUBIT_DEPOL,
                      two_qubit_depol=0.0075, readout=readout)


def cmd_decay(args) -> int:
    _check_out_paths(args.out, args.plot)
    if args.seed is not None and args.shots == 0:
        raise ValueError("seed takes effect only with shots above 0; shots 0 runs the "
                         "exact channel, which draws nothing")
    seed = 0 if args.seed is None else args.seed
    noise = _decay_noise(args)
    delays = _parse_delays(args.delays)
    result = harness.run_decay_experiment(delays, noise, shots=args.shots,
                                          seed=seed, qrem=args.qrem == "on")
    lines = ["# teleport-lab decay v1", "delay_us,negativity,shots,seed"]
    for t, v in zip(result.delays_us, result.negativities):
        lines.append(f"{t:.12g},{v:.12g},{args.shots},{seed}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    window = result.crossing_window_us
    print(f"wrote {args.out}: {len(delays)} delay points")
    if window is not None:
        print(f"negativity {harness.DECAY_LEVEL_START} -> {harness.DECAY_LEVEL_END} "
              f"crossing window: {window:.3f} us "
              f"(levels at {result.crossing_start:.3f} / {result.crossing_end:.3f} us)")
    else:
        print("decay curve does not bracket the reference negativity levels")
    if args.plot:
        svgplot.plot_decay(result.delays_us, result.negativities, args.plot)
        print(f"wrote {args.plot}")
    return 0


def cmd_plot(args) -> int:
    rows = harness.read_csv_rows(args.csv)
    written = svgplot.plot_results(rows, args.out_dir)
    for name in written:
        print(f"wrote {args.out_dir}/{name}")
    if not written:
        print("no plottable rows found", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="teleport-lab",
                                     description="Teleportation transport benchmarks "
                                                 "on simulated qubit paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-device", help="synthesize a calibration file",
                       description="Distribution flags left out take the synthesize_device "
                                   "defaults.")
    p.add_argument("--topology", default="heavy-hex-127",
                   help="heavy-hex-127, line:N or ring:N")
    p.add_argument("--seed", type=int, default=0)
    for flag in _DISTRIBUTION_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), type=float)
    p.add_argument("--undefined-edges", type=int, default=0,
                   help="number of edges stored with the undefined-calibration value 1.0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_device)

    p = sub.add_parser("find-paths", help="rank transport paths on a device")
    p.add_argument("--device", required=True)
    p.add_argument("--protocol", default="neg", choices=pathfinder.PROTOCOLS)
    p.add_argument("--qubits", "-n", type=int, required=True, help="path length in qubits")
    p.add_argument("--paths", "-m", type=int, default=4)
    p.add_argument("--out", help="optional JSON listing")
    p.set_defaults(func=cmd_find_paths)

    p = sub.add_parser("run", help="run a transport sweep and write CSV rows",
                       description="Sweep flags left out take the ExperimentSpec defaults.")
    p.add_argument("--device", required=True)
    p.add_argument("--spec", help="JSON ExperimentSpec file; no sweep flag may be given with "
                                  "it, only --seed, which overrides the spec's seed")
    p.add_argument("--protocol", type=_csv_list, help="comma list of weighting protocols")
    p.add_argument("--mode", type=_csv_list, help="comma list of transport modes")
    p.add_argument("--hops", type=_parse_hops, help="A..B, A..B..STEP or comma list")
    p.add_argument("--paths", type=int, help="paths per hop count")
    p.add_argument("--trials", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--qrem", choices=("on", "off", "both"))
    p.add_argument("--noise-overrides", help="JSON object of NoiseModel overrides")
    p.add_argument("--simplified-correction", action="store_true", default=None)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("decay", help="idling pair negativity versus delay")
    p.add_argument("--device", help="optional calibration file; default fitted noise")
    p.add_argument("--delays", default="0:6:0.25", help="LO:HI:STEP in us, or comma list")
    p.add_argument("--shots", type=int, default=0,
                   help="shots per tomography basis; 0 = exact channel")
    p.add_argument("--qrem", default="on", choices=("on", "off"))
    p.add_argument("--seed", type=int,
                   help="seed of the sampled route (default 0); not with --shots 0")
    p.add_argument("--out", required=True)
    p.add_argument("--plot", help="optional SVG path")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("plot", help="render SVG charts from a results CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (pathfinder.DeviceSchemaError, OSError, ValueError, MitigationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
