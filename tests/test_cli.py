"""Command-line surface and SVG rendering."""
import contextlib
import io
import json
import os
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from teleport_lab import harness, pathfinder, svgplot
from teleport_lab.cli import MAX_DELAY_POINTS, _parse_delays, _parse_hops, main
from teleport_lab.harness import ExperimentSpec, ResultRow, read_csv_rows
from teleport_lab.svgplot import Series, plot_results, render_chart


# --- argument helpers -------------------------------------------------------------


def test_parse_hops_forms():
    assert _parse_hops("1..5") == (1, 2, 3, 4, 5)
    assert _parse_hops("1..9..2") == (1, 3, 5, 7, 9)
    assert _parse_hops("2,4,8") == (2, 4, 8)


def test_parse_delays_forms():
    assert _parse_delays("0:1:0.5") == [0.0, 0.5, 1.0]
    assert _parse_delays("0,2.5") == [0.0, 2.5]


def test_parse_delays_rejects_non_positive_step(tmp_path, capsys):
    for text in ("0:1:0", "0:1:-0.5", "0:1:nan"):
        with pytest.raises(ValueError, match="step"):
            _parse_delays(text)
    assert main(["decay", "--delays", "0:1:0", "--out", str(tmp_path / "d.csv")]) == 2
    assert "delay step must be positive" in capsys.readouterr().err
    # a range without exactly three parts used to fail with "not enough values to unpack"
    for text in ("0:2", "0:2:0.5:1"):
        assert main(["decay", "--delays", text, "--out", str(tmp_path / "d.csv")]) == 2
        assert capsys.readouterr().err == (f"error: delay range {text!r} must have the form "
                                           "LO:HI:STEP\n")
    assert not (tmp_path / "d.csv").exists()


def test_decay_rejects_non_finite_delays(tmp_path, capsys):
    # `nan,0` and `inf,0` used to write a row for the bad delay and exit 0,
    # and `0:inf:1` never returned
    out = tmp_path / "d.csv"
    for text in ("nan,0", "inf,0", "0,-inf", "0:inf:1", "nan:1:0.5", "0:1:inf"):
        for shots in ("0", "64"):
            assert main(["decay", f"--delays={text}", "--shots", shots, "--out", str(out)]) == 2
            assert capsys.readouterr().err == ("error: every delay and delay step must be "
                                               f"finite, got {text!r}\n")
    assert not out.exists()


def test_decay_rejects_empty_delay_range(tmp_path, capsys):
    # a range with HI below LO used to write a header-only CSV and exit 0
    for text in ("0:-1:1", "5:4.5:0.25"):
        for shots in ("0", "64"):
            assert main(["decay", "--delays", text, "--shots", shots,
                         "--out", str(tmp_path / "d.csv")]) == 2
            assert capsys.readouterr().err == f"error: delay range {text!r} holds no delay\n"
    assert not (tmp_path / "d.csv").exists()
    # a one-point range still runs
    assert main(["decay", "--delays", "1:1:0.5", "--out", str(tmp_path / "d.csv")]) == 0
    assert len((tmp_path / "d.csv").read_text().splitlines()) == 3


def test_decay_rejects_negative_delays_before_any_delay_runs(tmp_path, capsys, monkeypatch):
    # a negative delay used to fail deep in the engine with a message that named
    # no input, and one late in the list only after the earlier delays had run
    def never(*args, **kwargs):
        raise AssertionError("a delay ran before every delay was checked")

    monkeypatch.setattr(harness.protocols, "run_idle_pair", never)
    monkeypatch.setattr(harness.channels, "exact_pair_distributions", never)
    out = tmp_path / "d.csv"
    for text, bad in (("-1,0", "-1.0"), ("0,1,-2", "-2.0"), ("-1:1:0.5", "-1.0")):
        for shots in ("0", "64"):
            assert main(["decay", f"--delays={text}", "--shots", shots, "--out", str(out)]) == 2
            assert capsys.readouterr().err == ("error: delay must be a finite number in "
                                               f"[0, inf], got {bad}\n")
    assert not out.exists()


def test_range_flags_reject_oversized_ranges_fast(tmp_path, capsys):
    # `1e20:1e20:1` never returned, as t + 1 == t there; `0:1e6:1` took seconds, and
    # `--hops 1..1000000` built a million hop counts that the spec then rejected
    out = tmp_path / "never.csv"
    for text, shots in (("1e20:1e20:1", "0"), ("0:1e6:1", "0"), ("0:1e6:1", "64")):
        start = time.perf_counter()
        assert main(["decay", "--delays", text, "--shots", shots, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (f"error: delay range {text!r} holds more than "
                                           f"{MAX_DELAY_POINTS} delays\n")
    assert len(_parse_delays(f"1:{MAX_DELAY_POINTS}:1")) == MAX_DELAY_POINTS
    for hops in ("1..1000000", "0..60", "1..10000000000000000000"):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:  # argparse rejects a bad flag value itself
            main(["run", "--device", "unused.json", "--hops", hops, "--out", str(out)])
        assert exc.value.code == 2 and time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.endswith(f"error: argument --hops: hops range {hops!r} "
                                                "holds more than 60 hop counts\n")
    assert _parse_hops("1..60")[-1] == 60
    assert not out.exists()


# --- full pipeline ----------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dev(tmp_path_factory):
    """The module's line:7 seed-4 device file, written once for every test that reads it."""
    path = tmp_path_factory.mktemp("line7") / "dev.json"
    assert main(["gen-device", "--topology", "line:7", "--seed", "4", "--out", str(path)]) == 0
    return path


def test_gen_device_and_find_paths(workdir, capsys):
    dev = workdir / "dev.json"
    assert main(["gen-device", "--topology", "line:7", "--seed", "4",
                 "--out", str(dev)]) == 0
    assert main(["find-paths", "--device", str(dev), "--protocol", "neg",
                 "-n", "3", "-m", "2", "--out", str(workdir / "paths.json")]) == 0
    out = capsys.readouterr().out
    assert "product=" in out
    listing = json.loads((workdir / "paths.json").read_text())
    assert len(listing["paths"]) == 2
    assert listing["complete"]
    # negative values used to fail with messages that named no field
    rejected = workdir / "rejected_dev.json"
    for flag, field in (("--seed", "seed"), ("--undefined-edges", "undefined_edges")):
        assert main(["gen-device", "--topology", "line:7", flag, "-1",
                     "--out", str(rejected)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1
    # line:0 and line:1 used to write a device without qubits, and ring:1 and
    # ring:2 failed on an internal edge check
    for topology, smallest in (("line:0", 2), ("line:1", 2), ("ring:1", 3), ("ring:2", 3)):
        assert main(["gen-device", "--topology", topology, "--out", str(rejected)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: topology {topology!r} needs at least {smallest} qubits\n"
    # a negative spread used to print `error: scale < 0`, a NaN mean was blamed on
    # two_qubit_depol, and more undefined edges than the topology has were capped silently
    for flags, message in ((["--gate-error-sd", "-1"],
                            "gate_error_sd must be a finite number in [0, inf], got -1.0"),
                           (["--gate-error-mean", "nan"],
                            "gate_error_mean must be a finite number in [0, 1], got nan"),
                           (["--readout-mean", "1.5"],
                            "readout_mean must be a finite number in [0, 1], got 1.5"),
                           (["--readout-sd", "inf"],
                            "readout_sd must be a finite number in [0, inf], got inf"),
                           (["--topology", "line:3", "--undefined-edges", "5"],
                            "undefined_edges must be an integer in [0, 2], got 5")):
        assert main(["gen-device", *flags, "--out", str(rejected)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not rejected.exists()
    for topology in ("line:2", "ring:3"):
        assert main(["gen-device", "--topology", topology, "--out", str(rejected)]) == 0
    assert main(["gen-device", "--topology", "line:3", "--undefined-edges", "2",
                 "--out", str(rejected)]) == 0
    payload = json.loads(rejected.read_text())
    assert [e["gate_error"] for e in payload["edges"]] == [1.0, 1.0]


@pytest.mark.parametrize("field, value, message", [
    ("id", float("inf"), "qubits[1].id must be an integer, got inf"),
    ("t1_us", float("nan"), "qubits[1].t1_us must be a number in [0, inf], got nan"),
    ("b", 2.6, "edges[0].b must be an integer, got 2.6")])
def test_find_paths_names_the_field_of_a_bad_device(tmp_path, capsys, field, value, message):
    # an id of Infinity used to end in an OverflowError traceback (exit 1), an edge
    # "b": 2.6 loaded as qubit 2 and a NaN T1 passed the T2 <= 2 T1 check
    dev = tmp_path / "dev.json"
    assert main(["gen-device", "--topology", "line:4", "--out", str(dev)]) == 0
    payload = json.loads(dev.read_text())
    payload["edges" if field == "b" else "qubits"][0 if field == "b" else 1][field] = value
    dev.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["find-paths", "--device", str(dev), "-n", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_find_paths_warns_when_too_few(dev, capsys):
    code = main(["find-paths", "--device", str(dev), "--protocol", "gate_fid",
                 "-n", "7", "-m", "10"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err


def test_find_paths_longer_than_the_device_returns_no_path_fast(tmp_path, capsys):
    # a path of more qubits than the device has used to enumerate every
    # shorter simple path first: on this 12-qubit complete graph, 12! of them
    qubits = [{"id": q, "readout_err_0to1": 0.01, "readout_err_1to0": 0.02, "t1_us": 33.0,
               "t2_us": 25.0} for q in range(12)]
    edges = [{"a": a, "b": b, "gate_error": 0.005, "neg": 0.45, "neg_qrem": 0.49}
             for a in range(12) for b in range(a + 1, 12)]
    dev, listing = tmp_path / "complete12.json", tmp_path / "paths.json"
    dev.write_text(json.dumps({"qubits": qubits, "edges": edges}))
    start = time.perf_counter()
    assert main(["find-paths", "--device", str(dev), "-n", "13", "-m", "1",
                 "--out", str(listing)]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "warning: only 0 path(s) of 13 qubits exist\n"
    payload = json.loads(listing.read_text())
    assert payload["paths"] == [] and not payload["complete"]


def test_find_paths_rejects_paths_the_sampler_cannot_run(tmp_path, capsys):
    # -n 128 and -n 90 on the 127-qubit device were still searching after 10 s
    dev = tmp_path / "hh7.json"
    assert main(["gen-device", "--seed", "7", "--out", str(dev)]) == 0
    capsys.readouterr()
    for n in ("128", "90", "63"):
        start = time.perf_counter()
        assert main(["find-paths", "--device", str(dev), "-n", n, "-m", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == ("error: --qubits must be an integer in [2, 62], "
                                           f"got {n}\n")


def test_find_paths_rejects_a_path_count_above_the_bound_before_any_work(dev, capsys,
                                                                          monkeypatch):
    # -m 200000 on a heavy-hex device printed nothing for 40 s before it was stopped
    def never(*args, **kwargs):
        raise AssertionError("work started for a path count above its bound")

    for name in ("ingest_device", "find_best_paths"):
        monkeypatch.setattr(pathfinder, name, never)
    bound = harness.MAX_PATHS_PER_HOP
    for count in (bound + 1, 10**6):
        assert main(["find-paths", "--device", str(dev), "-n", "3", "-m", str(count)]) == 2
        assert capsys.readouterr().err == (f"error: --paths must be an integer in [1, {bound}], "
                                           f"got {count}\n")


def test_gen_device_is_deterministic(workdir):
    a = workdir / "a.json"
    b = workdir / "b.json"
    main(["gen-device", "--topology", "line:5", "--seed", "9", "--out", str(a)])
    main(["gen-device", "--topology", "line:5", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_and_plot_pipeline(workdir, dev):
    csv = workdir / "rows.csv"
    assert main(["run", "--device", str(dev), "--protocol", "neg",
                 "--mode", "postselect,swap", "--hops", "1..2", "--paths", "1",
                 "--trials", "1", "--shots", "256", "--qrem", "both",
                 "--seed", "21", "--out", str(csv)]) == 0
    rows = read_csv_rows(str(csv))
    assert rows
    plots = workdir / "plots"
    assert main(["plot", "--csv", str(csv), "--out-dir", str(plots)]) == 0
    names = sorted(os.listdir(plots))
    assert any(n.startswith("negativity_modes") for n in names)
    content = (plots / names[0]).read_text()
    assert content.startswith("<?xml")
    assert "</svg>" in content


def test_run_with_spec_file(workdir, dev):
    spec = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("swap",),
                          paths_per_hop=1, trials=1, shots=128, qrem="off", seed=3)
    spec_file = workdir / "spec.json"
    spec_file.write_text(spec.to_json())
    out = workdir / "spec_rows.csv"
    assert main(["run", "--device", str(dev), "--spec", str(spec_file),
                 "--out", str(out)]) == 0
    rows = read_csv_rows(str(out))
    assert {r.mode for r in rows} == {"swap"}


def test_run_rejects_bad_spec_inputs_with_one_line_error(workdir, dev, capsys, monkeypatch):
    spec_file = workdir / "bogus_spec.json"
    spec_file.write_text('{"hops": [1], "bogus": 1}')
    out = workdir / "never.csv"
    assert main(["run", "--device", str(dev), "--spec", str(spec_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown ExperimentSpec keys: bogus\n"
    # text that is not JSON, in a spec file or in --noise-overrides, used to be
    # reported by the parser's message alone, which named neither input;
    # per-edge gate errors outside [0, 1], short per-edge or per-qubit lists and
    # negative per-qubit times used to run silently or fail every cell; a short
    # list is named with the first planned path that it does not cover
    not_json = workdir / "not_json_spec.json"
    not_json.write_text("{hops: [1]}")
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        assert main(["run", "--device", str(dev), "--spec", str(not_json),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {not_json}: not valid JSON (Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1))\n")
        assert main(["run", "--device", str(dev), "--noise-overrides", "nope",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --noise-overrides: not valid JSON "
                                           "(Expecting value: line 1 column 1 (char 0))\n")
        for field, value, message in (
                ("readout", [[[1, 0], [0, 1]]], "readout has 1 values; the path needs 3"),
                ("two_qubit_depol", [-0.5] * 8, None), ("two_qubit_depol", [1.7] * 8, None),
                ("two_qubit_depol", [0.01], "two_qubit_depol has 1 values; the path needs 2"),
                ("t1_us", [30], "t1_us has 1 values; the path needs 3"),
                ("t2_us", [20], "t2_us has 1 values; the path needs 3"),
                ("t1_us", [-30] * 8, None)):
            overrides = json.dumps({field: value})
            assert main(["run", "--device", str(dev), "--hops", "1", "--noise-overrides",
                         overrides, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and field in err and err.count("\n") == 1
            if message:
                assert re.fullmatch(rf"error: noise on path \d+-\d+-\d+: {message}\n", err)
    assert not out.exists()


def test_run_rejects_nan_noise_inputs(tmp_path, capsys):
    # NaN passes every `<` check: a NaN T1 used to write negativity 0 and exit 0
    dev = tmp_path / "line6.json"
    assert main(["gen-device", "--topology", "line:6", "--out", str(dev)]) == 0
    out = tmp_path / "never_nan.csv"
    nan, eye = float("nan"), [[1, 0], [0, 1]]
    for field, value in (("t1_us", nan), ("t2_us", nan), ("dynamic_correction_latency_us", nan),
                         ("t1_us", [30, nan, 30, 30, 30, 30]),
                         ("t2_us", [20, 20, 20, 20, 20, nan]),
                         ("readout", [eye] * 3 + [[[1, 0], [0, nan]]] + [eye] * 2)):
        overrides = json.dumps({field: value})  # NaN is written as the bare literal NaN
        assert main(["run", "--device", str(dev), "--hops", "1..4", "--shots", "64",
                     "--noise-overrides", overrides, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1
    # a device file reaches the same checks
    payload = json.loads(dev.read_text())
    payload["qubits"][2]["t1_us"] = float("nan")
    nan_dev = tmp_path / "line6_nan.json"
    nan_dev.write_text(json.dumps(payload))
    assert main(["run", "--device", str(nan_dev), "--hops", "1", "--shots", "64",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: qubits[2].t1_us must be a number in [0, inf], "
                                       "got nan\n")
    assert not out.exists()


def test_run_rejects_noise_overrides_that_are_not_an_object_of_numbers(tmp_path, capsys):
    # '[1]' used to end in a TypeError traceback (exit 1), and true ran as probability 1.0
    dev = tmp_path / "line6.json"
    assert main(["gen-device", "--topology", "line:6", "--out", str(dev)]) == 0
    out = tmp_path / "never.csv"
    base = ["run", "--device", str(dev), "--hops", "1..3", "--shots", "64", "--out", str(out)]
    for overrides, message in (("[1]", "invalid noise overrides: 'list' object is not a mapping"),
                               ('"t1_us"', "invalid noise overrides: 'str' object is not a "),
                               ('{"two_qubit_depol": true}',
                                "two_qubit_depol must be a number in [0, 1], got True"),
                               ('{"t1_us": null}', "t1_us must be a number"),
                               ('{"t2_us": [25, "25", 25, 25, 25]}', "t2_us must be a number"),
                               ('{"one_qubit_depol": "0.01"}', "one_qubit_depol must be a number"),
                               ('{"readout": null}', "readout: 'NoneType' object is not "),
                               ('{"readout": [[[true, false], [false, true]]]}',
                                "readout: confusion matrix entry must be a number in [0, 1], "
                                "got True"),
                               # np.asarray reads [[1, 0], [false, true]] as the identity
                               ('{"readout": [[[1, 0], [false, true]]]}',
                                "readout: confusion matrix entry must be a number in [0, 1], "
                                "got False")):
        assert main(base + ["--noise-overrides", overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_run_rejects_removed_per_position_keys_by_name(tmp_path, capsys):
    dev = tmp_path / "line6.json"
    assert main(["gen-device", "--topology", "line:6", "--out", str(dev)]) == 0
    out = tmp_path / "never.csv"
    for key in ("two_qubit_depol_per_edge", "t1_per_qubit_us", "t2_per_qubit_us"):
        overrides = json.dumps({key: [0.01] * 5})
        assert main(["run", "--device", str(dev), "--hops", "1..3", "--shots", "64",
                     "--noise-overrides", overrides, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid noise overrides: ") and f"'{key}'" in err
        assert err.count("\n") == 1
    assert not out.exists()


def test_run_rejects_repeated_sweep_values(workdir, dev, capsys):
    # --hops 1,1 --mode swap,swap used to run one cell four times under four seeds
    out = workdir / "never_repeated.csv"
    base = ["run", "--device", str(dev), "--paths", "1", "--trials", "1", "--qrem", "on",
            "--out", str(out)]
    for extra, field in ((["--hops", "1,1", "--mode", "swap"], "hops"),
                         (["--hops", "1", "--mode", "swap,swap"], "modes"),
                         (["--hops", "1", "--protocol", "neg,neg"], "protocols")):
        assert main(base + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must not repeat a value") and err.count("\n") == 1
    assert not out.exists()


def test_run_rejects_singular_readout_override_when_correcting(line4, capsys, monkeypatch):
    # a singular override failed every cell that corrects it and exited 1; swap and
    # dynamic cells correct only the end qubits, postselect cells every qubit
    dev, out = line4 / "dev.json", line4 / "singular_override.csv"
    eye, singular = [[1, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]]
    base = ["run", "--device", str(dev), "--hops", "1", "--paths", "1", "--trials", "1",
            "--shots", "16", "--out", str(out)]
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        for readout, mode, qubit in (([singular] * 3, "swap", 0),
                                     ([eye, singular, eye], "postselect", 1)):
            overrides = ["--noise-overrides", json.dumps({"readout": readout}), "--mode", mode]
            for qrem in ("on", "both"):
                assert main(base + overrides + ["--qrem", qrem]) == 2
                assert capsys.readouterr().err == ("error: noise on path 0-1-2: confusion "
                                                   f"matrix for qubit {qubit} is singular\n")
            assert not out.exists()
            assert main(base + overrides + ["--qrem", "off"]) == 0
            out.unlink()
    assert main(base + ["--noise-overrides", json.dumps({"readout": [eye, singular, eye]}),
                        "--mode", "dynamic,swap", "--qrem", "on"]) == 0


def test_run_checks_list_overrides_against_the_planned_paths_only(line4, caplog, monkeypatch):
    # a two-edge gate error list was rejected for the 32-qubit paths of hops 30,
    # which a line:4 device does not hold; the planned paths have two edges
    dev, out = line4 / "dev.json", line4 / "planned_paths.csv"
    base = ["run", "--device", str(dev), "--hops", "1,30", "--paths", "1", "--trials", "1",
            "--shots", "16", "--noise-overrides", json.dumps({"two_qubit_depol": [0.01, 0.02]})]
    csvs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        caplog.clear()
        assert main(base + ["--out", str(out)]) == 0
        assert "hops 30: only 0 path(s)" in caplog.text
        csvs.append(out.read_bytes())
        assert {row.hops for row in read_csv_rows(str(out))} == {1}
    assert csvs[0] == csvs[1]


def test_run_rejects_singular_device_readout_when_correcting(line4, capsys, monkeypatch):
    # a singular readout in the device file failed every cell that corrects it
    # and exited 1; swap and dynamic cells correct only the end qubits
    device = json.loads((line4 / "dev.json").read_text())
    device["qubits"][1].update(readout_err_0to1=1.0, readout_err_1to0=0.0)
    dev, out = line4 / "singular_device.json", line4 / "singular_device.csv"
    dev.write_text(json.dumps(device))
    base = ["run", "--device", str(dev), "--protocol", "neg", "--hops", "1", "--paths", "1",
            "--trials", "1", "--shots", "16", "--out", str(out)]
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        for qrem in ("on", "both"):
            assert main(base + ["--mode", "postselect", "--qrem", qrem]) == 2
            assert capsys.readouterr().err == ("error: noise on path 0-1-2: confusion matrix "
                                               "for qubit 1 is singular\n")
            assert not out.exists()
        assert main(base + ["--mode", "postselect", "--qrem", "off"]) == 0
        assert main(base + ["--mode", "dynamic,swap", "--qrem", "on"]) == 0
        out.unlink()


_ANY = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
        | st.lists(st.integers(-1, 3) | st.text(max_size=4), max_size=2))


def _mostly(valid):
    """Valid values, and about one time in ten any small JSON value."""
    return st.integers(0, 9).flatmap(lambda k: _ANY if k == 4 else valid)


_PROBABILITY = _mostly(st.floats(0.0, 1.0))
_TIME = _mostly(st.floats(0.0, 100.0) | st.integers(0, 100))
_CONFUSION = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda p: [[1 - p[0], p[1]], [p[0], 1 - p[1]]])
_SPEC_OBJECTS = st.fixed_dictionaries({
    "hops": _mostly(st.lists(st.integers(1, 2), min_size=1, max_size=2, unique=True)),
    "paths_per_hop": _mostly(st.integers(1, 2)), "trials": _mostly(st.integers(1, 2)),
    "shots": _mostly(st.integers(1, 16))}, optional={
    "protocols": _mostly(st.lists(st.sampled_from(["neg", "neg_qrem", "gate_fid"]),
                                  min_size=1, max_size=2, unique=True)),
    "modes": _mostly(st.lists(st.sampled_from(["dynamic", "postselect", "swap"]),
                              min_size=1, max_size=2, unique=True)),
    "qrem": _mostly(st.sampled_from(["on", "off", "both"])),
    "simplified_correction": _mostly(st.booleans()), "seed": _mostly(st.integers(0, 2**64)),
    "noise_overrides": _mostly(st.fixed_dictionaries({}, optional={
        "one_qubit_depol": _PROBABILITY,
        "two_qubit_depol": _PROBABILITY | st.lists(_PROBABILITY, min_size=2, max_size=3),
        "t1_us": _TIME | st.lists(_TIME, min_size=3, max_size=4), "t2_us": _TIME,
        "dynamic_correction_latency_us": _mostly(st.floats(0.0, 5.0)),
        "readout": _mostly(st.lists(_CONFUSION, min_size=3, max_size=4))}))})
# now and then a key that is no field, of the spec or of its noise overrides
_LINE4_SPECS = st.integers(0, 9).flatmap(lambda k: _SPEC_OBJECTS.map(
    lambda spec: {**spec, "bogus": 1} if k == 4 else
    {**spec, "noise_overrides": {"gate": 1}} if k == 5 else spec))
# every spec and noise field, under the names its messages use
_FIELD_NAME = re.compile(r"^error: (.* )?(hops|protocols|modes|paths_per_hop|trials|shots|qrem|"
                         r"noise|simplified_correction|seed|one_qubit_depol|two_qubit_depol|t1|t2|"
                         r"dynamic_correction_latency_us|readout|unknown ExperimentSpec keys)")


def _run_spec(dev, spec_file, payload) -> tuple[int, str]:
    spec_file.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--device", str(dev), "--spec", str(spec_file),
                     "--out", str(spec_file.with_suffix(".csv"))])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def line4(tmp_path_factory):
    folder = tmp_path_factory.mktemp("line4")
    assert main(["gen-device", "--topology", "line:4", "--out", str(folder / "dev.json")]) == 0
    return folder


@settings(max_examples=40)
@given(_LINE4_SPECS)
def test_any_spec_object_runs_or_names_its_field(line4, payload):
    code, err = _run_spec(line4 / "dev.json", line4 / "spec.json", payload)
    assert code in (0, 2), err
    lines = err.splitlines()
    if code == 2:
        assert len(lines) == 1 and _FIELD_NAME.match(lines[0]), err
    assert "Traceback" not in err


def test_spec_examples_end_the_same_way_on_two_workers(line4, monkeypatch):
    base = {"paths_per_hop": 1, "trials": 1, "shots": 8}
    for payload, exit_code in (({"hops": [1, 2], **base, "paths_per_hop": 2,
                                 "modes": ["postselect", "swap"], "qrem": "both"}, 0),
                               ({"hops": [1], **base, "protocols": "neg"}, 2),
                               ({"hops": [2], **base, "noise_overrides": {"t1_us": 5}}, 2),
                               ({"hops": [1], **base,
                                 "noise_overrides": {"readout": [[[0, 0], [1, 1]]] * 3}}, 2)):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", "1")
        serial = _run_spec(line4 / "dev.json", line4 / "serial.json", payload)
        monkeypatch.setenv("TELEPORT_LAB_THREADS", "2")
        pooled = _run_spec(line4 / "dev.json", line4 / "pooled.json", payload)
        assert serial[0] == exit_code and pooled == serial
        if exit_code == 0:
            assert (line4 / "pooled.csv").read_bytes() == (line4 / "serial.csv").read_bytes()


def test_run_rejects_infinite_latency(tmp_path, capsys):
    # JSON reads 1e400 as infinity; an infinite latency used to run and exit 0
    dev = tmp_path / "line6.json"
    assert main(["gen-device", "--topology", "line:6", "--out", str(dev)]) == 0
    out = tmp_path / "never.csv"
    assert main(["run", "--device", str(dev), "--hops", "1", "--shots", "64", "--noise-overrides",
                 '{"dynamic_correction_latency_us": 1e400}', "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: dynamic_correction_latency_us must be a finite "
                                       "number in [0, inf], got inf\n")
    assert not out.exists()


def test_run_rejects_empty_sweeps_and_bad_worker_counts(workdir, dev, capsys, monkeypatch):
    # each of these used to write a header-only CSV and exit 0
    out = workdir / "never_empty.csv"
    base = ["run", "--device", str(dev), "--out", str(out)]
    removed_key = workdir / "removed_key.json"
    removed_key.write_text('{"hops": [1], "qrem_calibration_shots": 0}')
    negative_seed = workdir / "negative_seed.json"
    negative_seed.write_text('{"hops": [1], "seed": -1}')
    for extra, field in ((["--trials", "0"], "trials"), (["--paths", "0"], "paths_per_hop"),
                         (["--hops", "5..1"], "hops"),
                         (["--spec", str(removed_key)],
                          "unknown ExperimentSpec keys: qrem_calibration_shots"),
                         (["--hops", "1", "--protocol", ""], "protocols"),
                         (["--hops", "1", "--mode", " "], "modes"),
                         (["--spec", str(negative_seed)], "seed"),
                         (["--hops", "1", "--seed", "-3"], "seed"),
                         (["--hops", "6,7"],
                          "no cell to run: the device has no path for hops 6, 7\n")):
        assert main(base + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1
    for raw in ("abc", "0", "-2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", raw)
        assert main(base + ["--hops", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: TELEPORT_LAB_THREADS") and err.count("\n") == 1
    assert not out.exists()


def test_run_rejects_inputs_that_only_mode_dynamic_reads(line4, capsys, monkeypatch):
    # protocols.schedule reads these only in mode dynamic, so without it they
    # used to run, silently ignored, and exit 0; T1 and T2 could still fail a run
    def never(*args, **kwargs):
        raise AssertionError("cells planned for an input that no mode reads")

    dev = line4 / "dev.json"
    out = line4 / "never_ignored.csv"
    spec_file = line4 / "ignored_spec.json"
    base = ["run", "--device", str(dev), "--out", str(out)]
    overrides = [(key, {key: value}) for key, value in (
        ("dynamic_correction_latency_us", 1.0), ("t1_us", 20), ("t2_us", 10),
        ("t1_us", [20, 30, 40]))]
    cases = [("simplified_correction", ["--simplified-correction"],
              {"simplified_correction": True})]
    cases += [(key, ["--noise-overrides", json.dumps(given)], {"noise_overrides": given})
              for key, given in overrides]
    with monkeypatch.context() as patched:
        patched.setattr(harness, "plan_cells", never)
        for field, flags, payload in cases:
            spec_file.write_text(json.dumps({"hops": [1], "modes": ["swap", "postselect"],
                                             **payload}))
            for workers in ("1", "2"):
                patched.setenv("TELEPORT_LAB_THREADS", workers)
                for args in (["--hops", "1", "--mode", "swap,postselect", *flags],
                             ["--spec", str(spec_file)]):
                    assert main(base + args) == 2
                    assert capsys.readouterr().err == (f"error: {field} takes effect only in "
                                                       "mode dynamic, and modes holds only "
                                                       "swap, postselect\n")
            # with dynamic among the modes each takes effect, and the spec holds it
            spec = ExperimentSpec(modes=("swap", "dynamic"), **payload)
            assert spec == ExperimentSpec.from_json(spec.to_json())
    assert not out.exists()
    # with dynamic among the modes, a run takes the times
    ran = line4 / "dynamic_times.csv"
    for _, flags, _ in (case for case in cases if case[0] in ("t1_us", "t2_us")):
        assert main(["run", "--device", str(dev), "--hops", "1", "--mode", "swap,dynamic",
                     "--protocol", "neg", "--paths", "1", "--trials", "1", "--shots", "8",
                     "--out", str(ran), *flags]) == 0
    ran.unlink()


def test_counts_above_their_bounds_exit_2_before_any_cell(line4, capsys, monkeypatch):
    # 10^9 shots used to size transport buffers of gigabytes, and 10^9 trials
    # planned cells for as long as memory lasted
    def never(*args, **kwargs):
        raise AssertionError("work started for a count above its bound")

    for module, name in ((harness, "plan_cells"), (harness.protocols, "run_idle_pair"),
                         (harness.channels, "exact_pair_distributions")):
        monkeypatch.setattr(module, name, never)
    dev = line4 / "dev.json"
    out = line4 / "never_bounded.csv"
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        for flag, field, bound in (("--shots", "shots", harness.MAX_SHOTS),
                                   ("--trials", "trials", harness.MAX_TRIALS),
                                   ("--paths", "paths_per_hop", harness.MAX_PATHS_PER_HOP)):
            assert main(["run", "--device", str(dev), "--hops", "1", flag, str(bound + 1),
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == (f"error: {field} must be an integer in "
                                               f"[1, {bound}], got {bound + 1}\n")
    for device in ([], ["--device", str(dev)]):
        assert main(["decay", *device, "--shots", str(harness.MAX_SHOTS + 1),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: shots must be an integer in "
                                           f"[0, {harness.MAX_SHOTS}], got "
                                           f"{harness.MAX_SHOTS + 1}\n")
    assert not out.exists()
    # each bound itself is accepted, on a sweep small enough for the work bound; no cell runs
    for field, bound in (("shots", harness.MAX_SHOTS), ("trials", harness.MAX_TRIALS),
                         ("paths_per_hop", harness.MAX_PATHS_PER_HOP)):
        spec = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("swap",), **{field: bound})
        assert getattr(spec, field) == bound
    assert (harness.MAX_SHOTS, harness.MAX_TRIALS, harness.MAX_PATHS_PER_HOP) == (
        1_000_000, 1_000, 1_000)


def test_work_above_its_bound_exits_2_before_any_work(line4, capsys, monkeypatch):
    # every count used to be bounded only alone, so 3 protocols x 60 hop counts x
    # 1,000 paths x 1,000 trials x 3 modes at 10^6 shots, or 10,000 delays x 10^6
    # decay shots, passed every check
    def never(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((harness, "plan_cells"), (harness.protocols, "run_idle_pair"),
                         (harness.channels, "exact_pair_distributions")):
        monkeypatch.setattr(module, name, never)
    dev = line4 / "dev.json"
    out = line4 / "never_worked.csv"
    # 20 path qubits x 1,000 paths x 9 bases x (99,670 shots + 330 per cell) is the run
    # bound itself
    sweep = ["--protocol", "neg", "--mode", "swap", "--hops", "18", "--paths", "1000",
             "--trials", "1"]
    bound = harness.MAX_RUN_WORK
    assert harness.CELL_FIXED_SHOTS == 330
    assert ExperimentSpec(hops=(18,), protocols=("neg",), modes=("swap",), paths_per_hop=1000,
                          trials=1, shots=99_670)
    # a 1-shot cell costs about as much as 330 shots, so 9,000,000 cells of one shot each
    # on 7 qubits, which would run for hours, are 7 x 3 x 1,000 x 1,000 x 3 x 9 x 331
    # trajectory-qubits
    many_cells = ["--hops", "5", "--paths", "1000", "--trials", "1000", "--shots", "1"]
    for args, work in (([*sweep, "--shots", "99671"], bound + 180_000),
                       (many_cells, 187_677_000_000)):
        for workers in ("1", "2"):
            monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
            assert main(["run", "--device", str(dev), *args, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: the sweep plans {work} trajectory-qubits (path qubits x protocols x "
                "paths_per_hop x trials x modes x 9 bases x (shots + 330 per cell), summed over "
                f"hops), above the bound of {bound}\n")
    # 1,001 delays x 999,001 shots is the decay bound plus one
    bound = harness.MAX_DECAY_WORK
    assert 1001 * 999_001 == bound + 1
    for device in ([], ["--device", str(dev)]):
        assert main(["decay", *device, "--delays", "0:1000:1", "--shots", "999001",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: decay plans {bound + 1} delay-shots "
                                           f"(delays x shots), above the bound of {bound}\n")
    assert not out.exists()
    with pytest.raises(AssertionError, match="work started"):  # the bound itself passes
        harness.run_decay_experiment([0.0] * 1000, harness.NoiseModel(), shots=1_000_000)


def test_worker_counts_above_their_bound_exit_2_before_any_work(line4, capsys, monkeypatch):
    # a fork pool starts all of its workers at once, so a count of thousands on
    # a sweep of as many paths would have forked thousands of processes
    import concurrent.futures

    def never(*args, **kwargs):
        raise AssertionError("work started for a worker count above its bound")

    monkeypatch.setattr(harness, "plan_cells", never)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
    out = line4 / "never_workers.csv"
    bound = harness.MAX_WORKERS
    for count in (bound + 1, 10**6):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", str(count))
        assert main(["run", "--device", str(line4 / "dev.json"), "--hops", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: TELEPORT_LAB_THREADS must be an integer in "
                                           f"[1, {bound}], got {count}\n")
    assert not out.exists()
    # the bound itself is accepted; no pool starts here
    monkeypatch.setenv("TELEPORT_LAB_THREADS", str(bound))
    assert harness._worker_count() == bound == 64


def test_run_rejects_path_noise_conflict_before_any_cell(workdir, dev, capsys, monkeypatch):
    # a T1 override below half the device T2 used to fail every cell and exit 1
    out = workdir / "noise_conflict.csv"
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        assert main(["run", "--device", str(dev), "--hops", "1", "--protocol", "neg",
                     "--noise-overrides", '{"t1_us": [5, 5, 5]}',
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise on path ") and err.count("\n") == 1
        assert "t2 (25.0) exceeds 2*t1 (10) at path position 0" in err
    assert not out.exists()


def test_run_rejects_mixed_form_t1_t2_conflict_before_any_cell(tmp_path, capsys):
    # a T1 number with a T2 list (or the mirror) used to fail every cell that
    # idles and exit 1, while swap cells ran; the overrides alone fix every
    # pair of such a path, so the spec rejects them
    dev = tmp_path / "line6.json"
    assert main(["gen-device", "--topology", "line:6", "--out", str(dev)]) == 0
    out = tmp_path / "mixed.csv"
    base = ["run", "--device", str(dev), "--hops", "1", "--protocol", "neg", "--paths", "1",
            "--trials", "1", "--shots", "64", "--qrem", "off", "--out", str(out)]
    for overrides in ('{"t1_us": 20, "t2_us": [50, 50, 50]}',
                      '{"t2_us": 50, "t1_us": [20, 20, 20]}'):
        for mode in ("dynamic", "postselect", "swap"):
            assert main(base + ["--mode", mode, "--noise-overrides", overrides]) == 2
            assert capsys.readouterr().err == ("error: t2 (50) exceeds 2*t1 (40) "
                                               "at path position 0\n")
    assert not out.exists()
    # mixed forms that fit still run, as does a T1 list alone that fits the device's T2
    for overrides in ('{"t1_us": 100, "t2_us": [50, 50, 50]}', '{"t1_us": [20, 20, 20]}',
                      '{"t1_us": 10, "t2_us": [15, 15, 15]}',
                      '{"t2_us": 70, "t1_us": [40, 40, 40]}'):
        assert main(base + ["--mode", "dynamic", "--noise-overrides", overrides]) == 0
        assert len(read_csv_rows(str(out))) == 1
    # a time given alone, as a list or a number, meets the device's other time
    payload = json.loads(dev.read_text())
    for qubit in payload["qubits"]:
        qubit["t2_us"] = 15.0
    dev.write_text(json.dumps(payload))
    for overrides in ('{"t1_us": [10, 10, 10]}', '{"t1_us": 10}'):
        assert main(base + ["--mode", "dynamic", "--noise-overrides", overrides]) == 0
    for overrides in ('{"t1_us": [7, 7, 7]}', '{"t1_us": 7}'):
        assert main(base + ["--mode", "dynamic", "--noise-overrides", overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise on path ") and "t2 (15.0) exceeds 2*t1 (14)" in err


def test_run_rejects_sweep_flags_with_spec(workdir, dev, capsys):
    # these flags used to be dropped without a word
    spec_file = workdir / "flag_spec.json"
    spec_file.write_text('{"hops": [1], "shots": 64}')
    out = workdir / "flag_spec.csv"
    assert main(["run", "--device", str(dev), "--spec", str(spec_file), "--shots", "9999",
                 "--trials", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: --trials, --shots cannot be combined with --spec; "
                   "put the value in the spec file\n")
    assert not out.exists()


def test_run_seed_overrides_spec(workdir, dev):
    outs = []
    for spec_seed, flag in ((3, ["--seed", "8"]), (8, [])):
        spec_file = workdir / f"seed_spec_{spec_seed}.json"
        spec_file.write_text(ExperimentSpec(hops=(1,), protocols=("neg",), modes=("swap",),
                                            paths_per_hop=1, trials=1, shots=64, qrem="off",
                                            seed=spec_seed).to_json())
        outs.append(workdir / f"seed_spec_{spec_seed}.csv")
        assert main(["run", "--device", str(dev), "--spec", str(spec_file), *flag,
                     "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_exits_1_when_cells_fail(workdir, dev, capsys, monkeypatch):
    # every cell failing used to leave a header-only CSV and exit status 0
    from teleport_lab import harness

    real = harness._cell_rows

    def flaky(noise, spec, cell):
        if cell.mode == "swap":
            raise RuntimeError("boom")
        return real(noise, spec, cell)

    monkeypatch.setattr(harness, "_cell_rows", flaky)
    summaries = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        out = workdir / f"failed_cells_{workers}.csv"
        assert main(["run", "--device", str(dev), "--hops", "1", "--protocol", "neg",
                     "--mode", "swap,postselect", "--paths", "2", "--trials", "1",
                     "--shots", "64", "--qrem", "off", "--out", str(out)]) == 1
        summaries.append(capsys.readouterr().err.splitlines()[-1])
        rows = read_csv_rows(str(out))
        assert rows and {r.mode for r in rows} == {"postselect"}
    assert summaries == ["error: 2 of 4 cells failed"] * 2


def test_run_is_byte_deterministic(workdir, dev):
    a = workdir / "det_a.csv"
    b = workdir / "det_b.csv"
    args = ["run", "--device", str(dev), "--protocol", "neg", "--mode", "swap",
            "--hops", "1", "--paths", "1", "--trials", "1", "--shots", "128",
            "--qrem", "on", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decay_command(workdir, capsys):
    out = workdir / "decay.csv"
    svg = workdir / "decay.svg"
    assert main(["decay", "--delays", "0:4:0.5", "--out", str(out),
                 "--plot", str(svg)]) == 0
    printed = capsys.readouterr().out
    assert "crossing window" in printed
    assert svg.read_text().startswith("<?xml")
    lines = out.read_text().splitlines()
    assert lines[0] == "# teleport-lab decay v1"
    assert len(lines) == 2 + 9


def test_decay_rejects_negative_shots(workdir, capsys):
    # --shots -5 used to run the exact channel and record shots=-5, and
    # --seed -1 failed with a message that named no field
    out = workdir / "negative_shots.csv"
    for flag, field in (("--shots", "shots"), ("--seed", "seed")):
        assert main(["decay", "--delays", "0,1", flag, "-5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1
    assert not out.exists()


def test_decay_rejects_a_seed_with_shots_0(workdir, capsys):
    # the exact route draws nothing: --seed 5 and --seed 9 used to write the same
    # negativities, and only the seed column differed; the seed is checked before
    # the device file, which does not exist, is read
    out, missing = workdir / "seeded_exact.csv", workdir / "missing_device.json"
    for seed in ("0", "5"):
        assert main(["decay", "--delays", "0,1", "--seed", seed, "--device", str(missing),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: seed takes effect only with shots above 0; "
                                           "shots 0 runs the exact channel, which draws "
                                           "nothing\n")
    assert not out.exists()
    # without --seed the exact route still records seed 0; a sampled run records its seed
    for flags, seed in (([], "0"), (["--shots", "64", "--seed", "5"], "5")):
        assert main(["decay", "--delays", "0,1", *flags, "--out", str(out)]) == 0
        assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[2:]] == [seed] * 2


def test_gen_device_rejects_topologies_above_the_qubit_bound(workdir, capsys, monkeypatch):
    # line:N and ring:N used to accept any N at about 1 ms per edge, so a large N
    # would build its whole edge list before anything failed
    def no_work(*args, **kwargs):
        raise AssertionError("edges were scored past the topology bound")

    monkeypatch.setattr(pathfinder, "pair_negativities", no_work)
    out = workdir / "too_large.json"
    for topology in ("line:10001", "ring:10001", "line:1000000000000"):
        assert main(["gen-device", "--topology", topology, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: topology {topology!r} exceeds the limit "
                                           f"of {pathfinder.MAX_TOPOLOGY_QUBITS} qubits\n")
    assert not out.exists()
    assert len(pathfinder._topology_edges(f"line:{pathfinder.MAX_TOPOLOGY_QUBITS}")) == 9_999


def test_schema_error_exits_nonzero(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{\"qubits\": 3}")
    assert main(["find-paths", "--device", str(bad), "-n", "3"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_device_file_exits_nonzero(workdir, capsys):
    assert main(["find-paths", "--device", str(workdir / "nope.json"), "-n", "3"]) == 2


def test_file_errors_end_early_in_one_line(workdir, dev, capsys, monkeypatch):
    # a folder given for a file used to end in an IsADirectoryError traceback and
    # exit 1, and a missing --out folder failed only after the whole sweep had run
    assert main(["find-paths", "--device", str(workdir), "-n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(harness, "run_experiment", no_work)
    monkeypatch.setattr(harness, "run_decay_experiment", no_work)
    missing = workdir / "missing_dir" / "x.csv"
    run = ["run", "--device", str(dev), "--hops", "1", "--out"]
    for argv, message in ((run + [str(missing)], f"output directory {str(missing.parent)!r} "
                                                  "does not exist"),
                          (["decay", "--out", str(missing)], "output directory"),
                          (["decay", "--out", str(workdir / "d.csv"), "--plot",
                            str(workdir / "missing_dir" / "d.svg")], "output directory"),
                          (run + [str(workdir)], f"output path {str(workdir)!r} is a directory"),
                          (["decay", "--out", str(workdir)], "output path")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not missing.parent.exists() and not (workdir / "d.csv").exists()


def test_gen_device_and_find_paths_check_out_paths_before_any_work(workdir, dev, capsys,
                                                                  monkeypatch):
    # gen-device synthesized the whole device, and find-paths printed its whole
    # ranking, before a missing --out folder ended them with exit status 2
    missing = workdir / "missing_out" / "x.json"
    for argv in (["gen-device", "--topology", "line:3", "--out"],
                 ["find-paths", "--device", str(dev), "-n", "3", "--out"]):
        for out, message in ((missing, f"output directory {str(missing.parent)!r} does not "
                                       "exist"),
                             (workdir, f"output path {str(workdir)!r} is a directory")):
            assert main(argv + [str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not missing.parent.exists()


def test_decay_rejects_a_device_without_a_usable_edge(tmp_path, capsys):
    # this used to end with exit status 1 and a bare message, raised as SystemExit
    dev, out = tmp_path / "undefined.json", tmp_path / "never.csv"
    assert main(["gen-device", "--topology", "line:3", "--undefined-edges", "2",
                 "--out", str(dev)]) == 0
    capsys.readouterr()
    assert main(["decay", "--device", str(dev), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: device has no usable edge for the decay "
                                       "experiment\n")
    assert not out.exists()


def test_singular_readout_calibration_exits_nonzero(workdir, dev, capsys):
    payload = json.loads(dev.read_text())
    for qubit in payload["qubits"]:
        qubit["readout_err_0to1"] = qubit["readout_err_1to0"] = 0.5
    singular = workdir / "singular.json"
    singular.write_text(json.dumps(payload))
    assert main(["decay", "--device", str(singular), "--delays", "0,1",
                 "--out", str(workdir / "singular.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: confusion matrix for qubit") and "singular" in err
    assert err.count("\n") == 1


# --- svg rendering -----------------------------------------------------------------


def test_render_chart_is_deterministic():
    series = [Series(name="a", points=[(1, 0.5, 0.01), (2, 0.4, 0.02)], color="#112233"),
              Series(name="b", points=[(1, 0.3, 0.0)], band=[(1, 0.2, 0.4)],
                     color="#445566", dashed=True)]
    one = render_chart(series, "t", "x", "y")
    two = render_chart(series, "t", "x", "y")
    assert one == two
    assert "polygon" in one  # shaded band
    assert "stroke-dasharray" in one
    assert one.count("<polyline") == 2


def test_render_chart_empty_series():
    svg = render_chart([], "empty", "x", "y")
    assert svg.startswith("<?xml")
    assert "</svg>" in svg


def test_plot_results_two_modes_have_distinct_colors(tmp_path):
    rows = []
    for mode in ("postselect", "swap"):
        for hops in (1, 2, 3):
            for trial in (0, 1):
                rows.append(ResultRow(mode, "neg", hops, "0-1-2", trial, "on", "",
                                      0.4 - 0.05 * hops + 0.01 * trial, 0.9, 64, 1))
    written = plot_results(rows, str(tmp_path))
    name = "negativity_modes_qrem-on.svg"
    assert name in written
    content = (tmp_path / name).read_text()
    assert svgplot.PALETTE[0] in content and svgplot.PALETTE[1] in content
    assert "polygon" in content
    assert "postselect" in content and "swap" in content


def test_plot_results_empty_rows(tmp_path):
    assert plot_results([], str(tmp_path)) == []
