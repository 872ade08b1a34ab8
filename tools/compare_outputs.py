#!/usr/bin/env python3
"""Check that two teleport-lab checkouts write the same output bytes.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR [--work DIR]

Each checkout runs the same commands with its own `src/` on the Python
path, from its own folder under the work directory (a temporary one by
default, removed at the end), so that each writes its own files:

  gen-device --seed 7, 8, 9 and 10 (heavy-hex-127) and a line:6 device;
  the acceptance trend spec on device 7 (protocol neg, all three modes,
  odd hops 1..19, 4 paths, 2 trials, 2048 shots, seed 11), serially and
  with TELEPORT_LAB_THREADS=2;
  on devices 8, 9 and 10, with TELEPORT_LAB_THREADS=2, a sweep of all
  three protocols and modes at hops 1, 2, 3, 17 and 19 (2 paths, 1 trial,
  2048 shots, --qrem both);
  a dynamic sweep with --simplified-correction on device 7;
  on device 7, with TELEPORT_LAB_THREADS=2, a 2-shot postselect and swap
  sweep at hops 1, 2, 3 and 5 (protocols neg and gate_fid, 2 paths, 2
  trials, --qrem both), whose post-selected rows with no effective shot
  write empty metrics;
  decay --shots 0 and --shots 256, with QREM on and off, with the fitted
  default noise and with --device on device 7;
  a line:6 sweep with list overrides of two_qubit_depol, t1_us and t2_us
  and --qrem both;
  line:6 sweeps of protocol neg, all three modes, hops 1..3, 1 path and
  1 trial at 4096 shots, which group the nine bases 3, 2, 2 and 2, and at
  9000 shots, one basis per group;
  find-paths --out listings of 4 paths on device 7: neg at n = 21 and gate_fid
  at n = 8, and both at n = 62, the longest path the sampler runs;
  plot SVGs of the serial trend CSV.

It then prints one `identical NAME` or `differs NAME` line per file, with
files in subfolders named by their relative path, and one
`identical serial-vs-pooled SIDE` or `differs serial-vs-pooled SIDE` line
per side, which compares that side's serial and pooled trend CSVs. It
exits 1 if any file differs or is missing on one side, or if either side's
pooled run differs from its serial one. A command that exits with a status
other than 0 stops the script with exit status 2.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

TREND = ["--protocol", "neg", "--mode", "dynamic,postselect,swap", "--hops", "1..19..2",
         "--paths", "4", "--trials", "2", "--shots", "2048", "--seed", "11"]
WIDE = ["--protocol", "neg,neg_qrem,gate_fid", "--hops", "1,2,3,17,19", "--paths", "2",
        "--trials", "1", "--shots", "2048", "--qrem", "both"]
LINE6_OVERRIDES = {"two_qubit_depol": [0.01, 0.02, 0.015, 0.03, 0.012],
                   "t1_us": [40, 35, 50, 45, 38, 42], "t2_us": [30, 28, 45, 40, 25, 33]}


def commands() -> list[tuple[dict, list[str]]]:
    """(extra environment, `teleport-lab` arguments) of every run, in order."""
    runs = [({}, ["gen-device", "--seed", str(seed), "--out", f"dev{seed}.json"])
            for seed in (7, 8, 9, 10)]
    runs.append(({}, ["gen-device", "--topology", "line:6", "--seed", "8",
                      "--out", "line6.json"]))
    for threads in ("1", "2"):
        runs.append(({"TELEPORT_LAB_THREADS": threads},
                     ["run", "--device", "dev7.json", *TREND, "--out", f"trend_t{threads}.csv"]))
    for seed in (8, 9, 10):
        runs.append(({"TELEPORT_LAB_THREADS": "2"},
                     ["run", "--device", f"dev{seed}.json", *WIDE, "--out", f"wide{seed}.csv"]))
    runs.append(({}, ["run", "--device", "dev7.json", "--mode", "dynamic",
                      "--simplified-correction", "--protocol", "neg", "--hops", "1..9..2",
                      "--paths", "2", "--trials", "2", "--shots", "1024", "--seed", "5",
                      "--out", "simplified.csv"]))
    runs.append(({"TELEPORT_LAB_THREADS": "2"},
                 ["run", "--device", "dev7.json", "--protocol", "neg,gate_fid",
                  "--mode", "postselect,swap", "--hops", "1,2,3,5", "--paths", "2",
                  "--trials", "2", "--shots", "2", "--qrem", "both", "--seed", "4",
                  "--out", "empty_categories.csv"]))
    for shots in ("0", "256"):
        for qrem in ("on", "off"):
            for device in ([], ["--device", "dev7.json"]):
                name = f"decay_s{shots}_{qrem}{'_dev7' if device else ''}.csv"
                runs.append(({}, ["decay", *device, "--shots", shots, "--qrem", qrem,
                                  "--out", name]))
    runs.append(({}, ["run", "--device", "line6.json", "--hops", "1..4", "--paths", "2",
                      "--trials", "2", "--shots", "256", "--qrem", "both", "--seed", "3",
                      "--noise-overrides", json.dumps(LINE6_OVERRIDES),
                      "--out", "line6_lists.csv"]))
    for shots in ("4096", "9000"):
        runs.append(({}, ["run", "--device", "line6.json", "--protocol", "neg", "--hops", "1..3",
                          "--paths", "1", "--trials", "1", "--shots", shots,
                          "--out", f"line6_s{shots}.csv"]))
    for protocol, qubits in (("neg", "21"), ("gate_fid", "8"), ("neg", "62"), ("gate_fid", "62")):
        runs.append(({}, ["find-paths", "--device", "dev7.json", "--protocol", protocol,
                          "-n", qubits, "-m", "4", "--out", f"paths_{protocol}_n{qubits}.json"]))
    runs.append(({}, ["plot", "--csv", "trend_t1.csv", "--out-dir", "plots"]))
    return runs


def run_all(checkout: str, folder: str):
    """Run every command with `checkout`'s sources, writing into `folder`."""
    os.makedirs(folder)
    src = os.path.join(os.path.abspath(checkout), "src")
    for extra, args in commands():
        env = {**os.environ, "PYTHONPATH": src, **extra}
        proc = subprocess.run([sys.executable, "-m", "teleport_lab.cli", *args], cwd=folder,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: {' '.join(args)} in {checkout} exited {proc.returncode}:\n"
                  f"{proc.stderr}", file=sys.stderr)
            raise SystemExit(2)


def _files(folder: str) -> list[str]:
    """Paths of every file under `folder`, relative to it."""
    return [os.path.relpath(os.path.join(root, name), folder)
            for root, _, names in os.walk(folder) for name in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent checkout")
    parser.add_argument("change", help="changed checkout")
    parser.add_argument("--work", help="folder to write into, kept afterwards; it must not "
                                       "exist (default: a temporary folder)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs_")
    try:
        sides = [os.path.join(work, side) for side in ("parent", "change")]
        for checkout, folder in zip((args.parent, args.change), sides):
            run_all(checkout, folder)
        names = sorted(set(_files(sides[0])) | set(_files(sides[1])))
        differing = 0
        for name in names:
            paths = [os.path.join(folder, name) for folder in sides]
            same = all(map(os.path.isfile, paths)) and filecmp.cmp(*paths, shallow=False)
            differing += not same
            print(f"{'identical' if same else 'differs'} {name}")
        for side, folder in zip(("parent", "change"), sides):
            same = filecmp.cmp(*(os.path.join(folder, f"trend_t{threads}.csv")
                                 for threads in ("1", "2")), shallow=False)
            differing += not same
            print(f"{'identical' if same else 'differs'} serial-vs-pooled {side}")
    finally:
        if not args.work:
            shutil.rmtree(work)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
