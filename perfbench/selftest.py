#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py

They cover span self-time accounting on a synthetic nest, the output checks
on a tiny sweep, the traced child process, one full pass of every
workload at seed 1 (the checks must not be tuned to the default seed), and
the refusal to run without the program's sources. The full pass takes
about three minutes on 2 CPUs.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

import checks
import spans

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class SpanAccounting(unittest.TestCase):
    # name, start, end, parent index, run id
    NEST = [
        ["root", 0.0, 10.0, -1, "r"],
        ["child", 1.0, 4.0, 0, "r"],
        ["grandchild", 2.0, 3.0, 1, "r"],
        ["child", 5.0, 6.5, 0, "r"],
        ["other_root", 12.0, 13.0, -1, "r"],
    ]

    def test_self_time_subtracts_direct_children_only(self):
        own = spans.self_times(self.NEST)
        self.assertAlmostEqual(own["root"], 10.0 - 3.0 - 1.5)
        self.assertAlmostEqual(own["child"], (3.0 - 1.0) + 1.5)
        self.assertAlmostEqual(own["grandchild"], 1.0)
        self.assertAlmostEqual(sum(own.values()), 10.0 + 1.0)

    def test_overlapping_children_are_counted_once(self):
        nest = [["p", 0.0, 4.0, -1, "r"], ["c", 1.0, 3.0, 0, "r"], ["c", 2.0, 5.0, 0, "r"]]
        self.assertAlmostEqual(spans.self_times(nest)["p"], 1.0)

    def test_top_level_coverage_is_clipped_to_the_window(self):
        self.assertAlmostEqual(spans.top_level_covered(self.NEST, 5.0, 12.5), 5.5)
        self.assertEqual(spans.call_counts(self.NEST)["child"], 2)

    def test_tracer_records_parents_and_counts(self):
        tracer = spans.Tracer("t")
        inner = tracer.wrap("mitigation.qrem_correct", lambda v: v)
        outer = tracer.wrap("harness.plan_cells", lambda: [inner([1, 2]), inner([3])])
        outer()
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["harness.plan_cells", "mitigation.qrem_correct",
                                 "mitigation.qrem_correct"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual(tracer.counts, {"harness.cells": 2, "mitigation.qrem_entries": 3})
        self.assertTrue(all(s[1] <= s[2] for s in tracer.spans))


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from teleport_lab import harness, pathfinder

        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        cls.device_path = os.path.join(SCRATCH, "device.json")
        pathfinder.save_device(pathfinder.synthesize_device("line:6", seed=3), cls.device_path)
        cls.spec = harness.ExperimentSpec(hops=(1, 2), protocols=("gate_fid",), paths_per_hop=1,
                                          trials=2, shots=256, seed=5)
        cls.spec_path = os.path.join(SCRATCH, "spec.json")
        with open(cls.spec_path, "w") as fh:
            fh.write(cls.spec.to_json())
        device = pathfinder.ingest_device(cls.device_path)
        cls.planned = [{"mode": c.mode, "protocol": c.protocol, "hops": c.hops,
                        "trial": c.trial, "path": "-".join(map(str, c.path_labels)),
                        "seed": c.seed} for c in harness.plan_cells(device, cls.spec)]
        cls.csv = harness.rows_to_csv(harness.run_experiment(device, cls.spec))

    def test_complete_csv_passes(self):
        rows = checks.parse_results(self.csv)
        self.assertEqual(checks.missing_cells(rows, self.planned, "both"), (0, []))

    def test_dropped_row_counts_its_cell_as_missing(self):
        lines = self.csv.splitlines()
        postselect = next(i for i, line in enumerate(lines) if line.startswith("postselect,"))
        del lines[postselect]
        rows = checks.parse_results("\n".join(lines))
        self.assertEqual(checks.missing_cells(rows, self.planned, "both")[0], 1)

    def test_wrong_seed_and_foreign_rows_are_caught(self):
        rows = checks.parse_results(self.csv)
        rows[0] = {**rows[0], "seed": "1"}
        rows.append({**rows[1], "path": "9-9-9"})
        missing, problems = checks.missing_cells(rows, self.planned, "both")
        self.assertEqual(missing, 1)
        self.assertEqual(len(problems), 1)

    def test_malformed_csv_is_rejected(self):
        with self.assertRaises(ValueError):
            checks.parse_results(self.csv.replace("negativity,", "neg,", 1))

    def test_rising_negativity_is_caught(self):
        rows = [{"mode": "swap", "protocol": "neg", "qrem": "on", "hops": h,
                 "negativity": 0.3 + 0.01 * h + 0.001 * (t % 2)} for h in (1, 2, 3)
                for t in range(4)]
        problems = checks.negativity_rises(rows)
        self.assertEqual([p.split(":")[0] for p in problems], ["all", "swap/neg/on"])
        for row in rows:
            row["negativity"] = 0.5 - row["negativity"]
        self.assertEqual(checks.negativity_rises(rows), [])
        # a group with two hop counts is judged only through the whole-sweep slope
        rising = [{**row, "mode": "dynamic", "negativity": 0.1 * row["hops"]}
                  for row in rows if row["hops"] < 3]
        self.assertEqual([p.split(":")[0] for p in checks.negativity_rises(rows + rising)],
                         ["all"])

    def test_traced_child_matches_untraced_csv_and_patches_bindings(self):
        out = os.path.join(SCRATCH, "traced")
        os.makedirs(out, exist_ok=True)
        job = {"src": os.path.join(ROOT, "src"), "device": self.device_path,
               "spec": self.spec_path, "out_dir": out, "trace": True, "setup_only": False,
               "run_id": "selftest"}
        with open(os.path.join(out, "job.json"), "w") as fh:
            json.dump(job, fh)
        proc = _run([os.path.join(HERE, "child.py"), os.path.join(out, "job.json")])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(os.path.join(out, "results.csv")) as fh:
            self.assertEqual(fh.read(), self.csv)
        with open(os.path.join(out, "spans.json")) as fh:
            dump = json.load(fh)
        names = spans.call_counts(dump["spans"])
        # negativity and nearest_physical are reached through name-imported bindings
        for name in ("metrics.negativity", "metrics.nearest_physical",
                     "harness.mitigated_category_distributions", "harness.plan_cells",
                     "protocols.run_teleportation:dynamic", "protocols.run_swap_transport"):
            self.assertIn(name, names)
        self.assertEqual(dump["counts"]["harness.cells"], len(self.planned))
        self.assertEqual({s[4] for s in dump["spans"]}, {"selftest"})


class FullPass(unittest.TestCase):
    """Every workload at seed 1, plus the traced short-path comparison."""

    def _bench(self, workload, trace):
        proc = _run([os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_workloads_at_a_second_seed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        for workload in (w["name"] for w in bench["workloads"]):
            metrics = self._bench(workload, 0)
            self.assertEqual(sorted(metrics), sorted(m["name"] for m in bench["end_to_end"]))
            self.assertTrue(all(m["value"] > 0 for m in metrics.values()))
        layers = self._bench("short-path", 1)
        self.assertEqual(sorted(layers), sorted(m["name"] for m in bench["per_layer"]))

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(["perfbench/run.py", "--workload", "short-path", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], cwd=bare, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
