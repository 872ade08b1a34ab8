"""Sweep orchestration, mitigation pipelines, CSV and decay experiment."""
import hashlib
import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleport_lab import harness, pathfinder, protocols
from teleport_lab.channels import DEFAULT_ONE_QUBIT_DEPOL, NoiseModel, confusion_matrix
from teleport_lab.harness import (ExperimentSpec, ResultRow,
                                  aggregate_by_hops, crossing_time,
                                  mitigated_category_distributions,
                                  mitigated_pair_distributions, path_noise_model,
                                  plan_cells, read_csv_rows, rows_to_csv, run_decay_experiment,
                                  run_experiment, write_csv)
from teleport_lab.metrics import negativity
from teleport_lab.mitigation import MitigationError, confusion_inverse, michelot_project
from teleport_lab.pathfinder import synthesize_device
from teleport_lab.protocols import TransportResult
from teleport_lab.tomography import BASIS_PAIRS, reconstruct

from dense_oracle import categorize, discriminator, frequencies
from scalar_reference import stacked_category_distributions

NOISELESS_OVERRIDES = {
    "one_qubit_depol": 0.0,
    "two_qubit_depol": 0.0,
    "readout": [],
    "dynamic_correction_latency_us": 0.0,
}


def small_device(n=6, seed=2):
    return synthesize_device(f"line:{n}", seed=seed)


# --- spec -----------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="hop"):
        ExperimentSpec(hops=(0,))
    with pytest.raises(ValueError, match="qrem"):
        ExperimentSpec(qrem="sometimes")
    with pytest.raises(ValueError, match="protocol"):
        ExperimentSpec(protocols=("negativity",))
    with pytest.raises(ValueError, match="mode"):
        ExperimentSpec(modes=("teleport",))


def test_spec_rejects_paths_beyond_int64_outcome_keys():
    assert ExperimentSpec(hops=(1, 60)).hops == (1, 60)
    for hops in ((61,), (1, 200)):
        with pytest.raises(ValueError, match=r"^hops must be an integer in \[1, 60\], got"):
            ExperimentSpec(hops=hops)


def test_spec_rejects_bad_noise_overrides():
    # unknown keys (here a removed field) and invalid values fail at spec time
    with pytest.raises(ValueError, match="gate_time_2q_ns"):
        ExperimentSpec(noise_overrides={"gate_time_2q_ns": 533.0})
    with pytest.raises(ValueError, match=r"one_qubit_depol must be a number in \[0, 1\]"):
        ExperimentSpec(noise_overrides={"one_qubit_depol": 1.5})
    assert ExperimentSpec(noise_overrides=NOISELESS_OVERRIDES).noise_overrides


def _rejected_before_any_cell(monkeypatch, device, spec, match):
    """run_experiment raises ValueError matching `match`, serially and on two workers,
    before any cell runs or any pool starts."""
    import concurrent.futures

    started = []
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_run_cells", lambda *args: started.append("cells"))
        patch.setattr(concurrent.futures, "ProcessPoolExecutor",
                      lambda *args, **kwargs: started.append("pool"))
        for workers in ("1", "2"):
            patch.setenv("TELEPORT_LAB_THREADS", workers)
            with pytest.raises(ValueError, match=match):
                run_experiment(device, spec)
    assert not started


#: A sweep of several three-qubit paths, so that two workers start a pool.
SHORT_SWEEP = dict(protocols=("neg",), modes=("swap",), paths_per_hop=2, trials=1, shots=16)


def test_run_rejects_readout_override_shorter_than_a_path(monkeypatch):
    # each path position reads its own confusion matrix, so a short list
    # would fail every cell of the path instead of the run
    three = [confusion_matrix(0.01, 0.02)] * 3
    device = small_device()
    assert run_experiment(device, ExperimentSpec(hops=(1,), noise_overrides={"readout": three},
                                                 **SHORT_SWEEP))
    _rejected_before_any_cell(
        monkeypatch, device, ExperimentSpec(hops=(1, 2), noise_overrides={"readout": three},
                                            **SHORT_SWEEP),
        r"^noise on path \d+(-\d+){3}: readout has 3 values; the path needs 4$")
    assert ExperimentSpec(hops=(5,), noise_overrides={"readout": []}).noise_overrides == {
        "readout": []}
    assert run_experiment(small_device(7), ExperimentSpec(
        hops=(5,), noise_overrides={"readout": []}, **SHORT_SWEEP))


@pytest.mark.parametrize("field, value, message", [
    ("two_qubit_depol", [-0.5, 0.01], r"must be a number in \[0, 1\]"),
    ("two_qubit_depol", [1.7, 0.01], r"must be a number in \[0, 1\]"),
    ("t1_us", [-30.0, 30.0, 30.0], r"must be a number in \[0, inf\]"),
    ("t2_us", [20.0, -1.0, 20.0], r"must be a number in \[0, inf\]")], ids=[
    "depol-negative", "depol-above-one", "t1-negative", "t2-negative"])
def test_spec_rejects_bad_per_position_noise_overrides(field, value, message):
    # out-of-range gate errors used to run as p = 0 or p = 1, and negative
    # times failed every cell instead of the spec
    with pytest.raises(ValueError, match=f"{field}.*{message}"):
        ExperimentSpec(hops=(1,), noise_overrides={field: value})
    with pytest.raises(ValueError, match=field):
        ExperimentSpec.from_json(json.dumps({"hops": [1], "noise_overrides": {field: value}}))
    fits = [0.01] * 2 if field == "two_qubit_depol" else [30.0] * 3
    assert ExperimentSpec(hops=(1,), noise_overrides={field: fits}).noise_overrides


@pytest.mark.parametrize("field, value, message", [
    ("two_qubit_depol", [0.01], "has 1 values"),
    ("two_qubit_depol", [], "has 0 values"),
    ("t1_us", [30.0], "has 1 values"),
    ("t2_us", [20.0], "has 1 values")], ids=["depol-short", "depol-empty", "t1-short",
                                             "t2-short"])
def test_run_rejects_per_position_noise_overrides_shorter_than_a_path(monkeypatch, field, value,
                                                                      message):
    # short lists failed every cell instead of the run; a spec knows no path,
    # so each path's model checks them, before any cell runs (T1 and T2 take
    # effect only in mode dynamic)
    device = small_device()
    need = 2 if field == "two_qubit_depol" else 3
    sweep = {**SHORT_SWEEP, "modes": ("swap", "dynamic")}
    for spec in (ExperimentSpec(hops=(1,), noise_overrides={field: value}, **sweep),
                 ExperimentSpec.from_json(json.dumps({"hops": [1], **sweep,
                                                      "noise_overrides": {field: value}}))):
        _rejected_before_any_cell(monkeypatch, device, spec,
                                  rf"^noise on path \d+-\d+-\d+: {field} {message}; "
                                  rf"the path needs {need}$")
    fits = [0.01] * 2 if field == "two_qubit_depol" else [30.0] * 3
    assert run_experiment(device, ExperimentSpec(hops=(1,), noise_overrides={field: fits},
                                                 **sweep))


@pytest.mark.parametrize("key", ["two_qubit_depol_per_edge", "t1_per_qubit_us",
                                 "t2_per_qubit_us"])
def test_spec_rejects_removed_per_position_keys(key):
    # the per-position lists now go under two_qubit_depol, t1_us and t2_us
    with pytest.raises(ValueError, match=f"invalid noise overrides: .*'{key}'"):
        ExperimentSpec(hops=(1,), noise_overrides={key: [0.01] * 3})


def test_spec_rejects_noise_overrides_that_are_not_an_object_of_numbers():
    # a list used to fail with a TypeError from dict(), and True ran as probability 1.0
    for overrides in ([1], "t1_us", None):
        with pytest.raises(ValueError, match="invalid noise overrides: .* is not a mapping"):
            ExperimentSpec(hops=(1,), noise_overrides=overrides)
    for value in (True, None, "0.01"):
        with pytest.raises(ValueError, match="two_qubit_depol must be a number"):
            ExperimentSpec(hops=(1,), noise_overrides={"two_qubit_depol": value})


def test_spec_rejects_repeated_sweep_values():
    # a repeated value used to run one cell several times under different seeds,
    # writing rows with identical keys that `plot` pooled as separate samples
    for name, values in (("hops", (1, 1)), ("protocols", ("neg", "gate_fid", "neg")),
                         ("modes", ("swap", "swap"))):
        with pytest.raises(ValueError, match=f"^{name} must not repeat a value"):
            ExperimentSpec(**{name: values})


@pytest.mark.parametrize("field, value", [("trials", 0), ("paths_per_hop", 0), ("seed", -1),
                                          ("hops", ()), ("protocols", ()), ("modes", ())])
def test_spec_rejects_empty_sweep_fields(field, value):
    # each of these used to plan no cell, or fail every cell, and exit 0
    # with a header-only CSV; a negative seed failed in plan_cells with a
    # message that named no field
    with pytest.raises(ValueError, match=field):
        ExperimentSpec(**{field: value})
    with pytest.raises(ValueError, match=field):
        ExperimentSpec.from_json(json.dumps({field: value}))
    if field not in ("hops", "protocols", "modes"):
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(**{field: -3})
        assert getattr(ExperimentSpec(**{field: 1}), field) == 1


@pytest.mark.parametrize("field, value", [("hops", [1.7]), ("shots", 2.5), ("trials", True),
                                          ("paths_per_hop", 2.0), ("seed", False),
                                          ("simplified_correction", "false"),
                                          ("simplified_correction", 0)])
def test_spec_rejects_non_integer_counts(field, value):
    # "shots": 2.5 used to fail every cell, "hops": [1.7] ran hop 1,
    # "trials": true ran one trial and "simplified_correction": "false" turned it on
    with pytest.raises(ValueError, match=field):
        ExperimentSpec(**{field: value})
    with pytest.raises(ValueError, match=field):
        ExperimentSpec.from_json(json.dumps({field: value}))


def test_worker_count_accepts_only_positive_integers(monkeypatch):
    monkeypatch.delenv("TELEPORT_LAB_THREADS", raising=False)
    assert harness._worker_count() == 1
    monkeypatch.setenv("TELEPORT_LAB_THREADS", "3")
    assert harness._worker_count() == 3
    for raw in ("abc", "0", "-2", "1.5", ""):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", raw)
        with pytest.raises(ValueError, match="TELEPORT_LAB_THREADS"):
            harness._worker_count()


def test_spec_json_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown ExperimentSpec keys: bogus, extra"):
        ExperimentSpec.from_json('{"hops": [1], "extra": 0, "bogus": 1}')
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentSpec.from_json("[1, 2]")
    # a string used to be read character by character (`unknown weighting protocol n`),
    # and a bare number failed with `'int' object is not iterable`, naming no field
    for text, message in (
            ('{"hops": 5}', "hops must be a non-empty list, got 5"),
            ('{"hops": [1], "protocols": "neg"}', "protocols must be a non-empty list, got 'neg'"),
            ('{"hops": [1], "modes": "swap"}', "modes must be a non-empty list, got 'swap'"),
            ('{"hops": [1], "modes": ["swap", 3]}',
             "modes holds 3, which is not one of dynamic, postselect, swap"),
            ('{"hops": [1], "protocols": [["neg"]]}',
             r"protocols holds \['neg'\], which is not one of neg, neg_qrem, gate_fid"),
            ('{"hops": [1], "shots": "many"}',
             r"shots must be an integer in \[1, 1000000\], got 'many'"),
            # readout calibration always takes CALIBRATION_SHOTS; the field that set it is gone
            ('{"hops": [1], "qrem_calibration_shots": 8192}',
             "unknown ExperimentSpec keys: qrem_calibration_shots")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentSpec.from_json(text)


def test_spec_json_roundtrip():
    spec = ExperimentSpec(hops=(1, 3), protocols=("neg",), modes=("swap",), shots=128,
                          seed=7, noise_overrides={"two_qubit_depol": 0.01})
    again = ExperimentSpec.from_json(spec.to_json())
    assert again.hops == (1, 3)
    assert tuple(again.modes) == ("swap",)
    assert again.noise_overrides == {"two_qubit_depol": 0.01}
    # protocols and modes used to stay JSON lists, so a spec did not equal its own
    # JSON, and numpy readout overrides made to_json raise TypeError
    assert ExperimentSpec.from_json(ExperimentSpec().to_json()) == ExperimentSpec()
    spec = ExperimentSpec(hops=[1], protocols=["neg"], modes=["swap", "dynamic"],
                          seed=np.int64(3),
                          noise_overrides={"readout": [confusion_matrix(0.01, 0.02)] * 3,
                                           "t1_us": np.float64(40.0),
                                           "two_qubit_depol": [np.float64(0.01), 0.02]})
    assert (spec.hops, spec.protocols, spec.modes) == ((1,), ("neg",), ("swap", "dynamic"))
    assert spec.noise_overrides == {"readout": [[[0.99, 0.02], [0.01, 0.98]]] * 3,
                                    "t1_us": 40.0, "two_qubit_depol": [0.01, 0.02]}
    assert ExperimentSpec.from_json(spec.to_json()) == spec


_SPEC_FIELDS = {
    "hops": st.lists(st.integers(-1, 61), max_size=3) | st.tuples(st.integers(1, 60)),
    "protocols": st.lists(st.sampled_from(pathfinder.PROTOCOLS + ("bogus",)), max_size=3),
    "modes": st.lists(st.sampled_from(protocols.MODES), max_size=3),
    "paths_per_hop": st.integers(0, 5), "trials": st.integers(0, 5),
    "shots": st.integers(0, 5) | st.just(np.int64(64)),
    "qrem": st.sampled_from(["on", "off", "both"]),
    "simplified_correction": st.booleans(), "seed": st.integers(-1, 2**70)}
_PROBABILITY = st.floats(0.0, 1.0) | st.sampled_from([0, 1, np.float64(0.25)])
_TIME = st.floats(0.0, 200.0) | st.integers(0, 200) | st.sampled_from([np.inf, np.int64(30)])
_CONFUSION = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda p: confusion_matrix(*p))
_OVERRIDES = st.fixed_dictionaries({}, optional={
    "one_qubit_depol": _PROBABILITY,
    "two_qubit_depol": _PROBABILITY | st.lists(_PROBABILITY, min_size=61, max_size=61),
    "t1_us": _TIME | st.lists(_TIME, min_size=62, max_size=62),
    "t2_us": _TIME, "dynamic_correction_latency_us": st.floats(0.0, 10.0),
    "readout": st.lists(_CONFUSION, min_size=62, max_size=62)
    | _CONFUSION.map(lambda a: np.stack([a] * 62)) | st.just([])})


@settings(max_examples=150)
@given(st.fixed_dictionaries({}, optional={**_SPEC_FIELDS, "noise_overrides": _OVERRIDES}))
def test_every_accepted_spec_round_trips_through_json(payload):
    try:
        spec = ExperimentSpec(**payload)
    except ValueError:
        return
    text = spec.to_json()
    assert ExperimentSpec.from_json(text) == spec
    assert ExperimentSpec.from_json(text).to_json() == text


def test_qrem_flags():
    assert ExperimentSpec(qrem="on").qrem_flags == (True,)
    assert ExperimentSpec(qrem="both").qrem_flags == (False, True)


# --- noise model construction -----------------------------------------------------


def test_path_noise_model_positions_follow_path():
    device = small_device()
    noise = path_noise_model(device, (3, 2, 1))
    assert noise.two_qubit_depol == [device.edge(3, 2).gate_error, device.edge(2, 1).gate_error]
    expected = confusion_matrix(device.qubit(3).readout_err_0to1,
                                device.qubit(3).readout_err_1to0)
    assert np.allclose(noise.qubit_confusion(0), expected)
    assert noise.t1_us == [device.qubit(q).t1_us for q in (3, 2, 1)]
    assert noise.t2_us == [device.qubit(q).t2_us for q in (3, 2, 1)]


def test_path_noise_model_rejects_short_and_repeated_paths():
    device = small_device()
    with pytest.raises(ValueError, match="at least 2"):
        path_noise_model(device, (1,))
    with pytest.raises(ValueError, match="distinct"):
        path_noise_model(device, (1, 2, 1))
    assert len(path_noise_model(device, (4, 3, 2)).two_qubit_depol) == 2


def test_path_noise_model_overrides():
    device = small_device()
    noise = path_noise_model(device, (0, 1, 2), NOISELESS_OVERRIDES)
    assert noise.one_qubit_depol == 0.0
    assert noise.edge_depol(0) == 0.0
    assert np.allclose(noise.qubit_confusion(1), np.eye(2))


def test_scalar_gate_error_override_replaces_edge_calibration():
    device = small_device()
    noise = path_noise_model(device, (0, 1, 2, 3), {"two_qubit_depol": 0.03})
    assert [noise.edge_depol(i) for i in range(3)] == [0.03] * 3


def _device_with_distinct_times():
    device = small_device()
    for i, q in enumerate(device.qubits):
        q.t1_us, q.t2_us = 40.0 + i, 30.0 + i
    return device


def test_scalar_t1_override_replaces_qubit_calibration():
    # a T1 override used to drop the device's T2 list too, for the fitted 25 us
    device = _device_with_distinct_times()
    noise = path_noise_model(device, (0, 1, 2), {"t1_us": 70.0})
    assert [noise.qubit_t1t2(i) for i in range(3)] == [(70.0, device.qubit(q).t2_us)
                                                       for q in (0, 1, 2)]


def test_scalar_t2_override_replaces_qubit_calibration():
    # a T2 override used to drop the device's T1 list too, for the fitted 33 us
    device = _device_with_distinct_times()
    noise = path_noise_model(device, (0, 1, 2), {"t2_us": 10.0})
    assert [noise.qubit_t1t2(i) for i in range(3)] == [(device.qubit(q).t1_us, 10.0)
                                                       for q in (0, 1, 2)]


def test_overrides_repeating_the_device_lists_change_nothing():
    # a list override under the same key as the device's calibration takes its place
    device = _device_with_distinct_times()
    spec = ExperimentSpec(hops=(4,), protocols=("neg",), paths_per_hop=1, trials=1, shots=64,
                          seed=3)
    (labels,) = {c.path_labels for c in plan_cells(device, spec)}
    calibrated = path_noise_model(device, labels)
    overrides = {"two_qubit_depol": calibrated.two_qubit_depol, "t1_us": calibrated.t1_us,
                 "t2_us": calibrated.t2_us}
    repeated = run_experiment(device, replace(spec, noise_overrides=overrides))
    assert repeated and repeated.failed == 0
    assert rows_to_csv(repeated) == rows_to_csv(run_experiment(device, spec))


# --- mitigation pipelines ----------------------------------------------------------


def test_pair_pipeline_matches_exact_distribution():
    noise = NoiseModel(dynamic_correction_latency_us=0.0)
    rng = np.random.default_rng(4)
    result = protocols.run_teleportation(4, "dynamic", noise, 8192, rng)
    probs = mitigated_pair_distributions(result, qrem=False,
                                         calibration=[np.eye(2)] * 4)
    rho = reconstruct(probs)
    assert negativity(rho) > 0.47


def test_category_pipeline_matches_manual_recomputation():
    noise = NoiseModel(dynamic_correction_latency_us=0.0)
    rng = np.random.default_rng(8)
    result = protocols.run_teleportation(4, "postselect", noise, 2048, rng)
    configs, weights, probs = mitigated_category_distributions(result, qrem=False,
                                                               calibration=[np.eye(2)] * 4)
    raw = categorize(result)
    total = 9 * 2048
    assert list(configs) == list(raw)
    for counts, weight, config_probs in zip(raw.values(), weights, probs):
        assert abs(weight - counts.sum() / total) < 1e-12
        assert np.allclose(config_probs, frequencies(counts), atol=1e-12)


def test_category_pipeline_qrem_recovers_flipped_categories():
    # heavy intermediate readout error scrambles the categorisation; the
    # full-path correction restores most of the per-category negativity
    flipper = confusion_matrix(0.25, 0.25)
    noise = NoiseModel(dynamic_correction_latency_us=0.0,
                       readout=[np.eye(2), flipper, np.eye(2), np.eye(2)])
    rng = np.random.default_rng(12)
    result = protocols.run_teleportation(4, "postselect", noise, 20_000, rng)
    calibration = [np.eye(2), flipper, np.eye(2), np.eye(2)]
    configs, _, raw = mitigated_category_distributions(result, qrem=False,
                                                       calibration=calibration)
    _, _, fixed = mitigated_category_distributions(result, qrem=True, calibration=calibration)
    config = configs.index((0, 0))
    n_raw = negativity(reconstruct(raw[config]))
    n_fixed = negativity(reconstruct(fixed[config]))
    assert n_fixed > n_raw + 0.1
    assert n_fixed > 0.42


def random_counts_result(n: int, shots: int, distinct: int,
                         rng: np.random.Generator) -> TransportResult:
    """Hand-built postselect result with random outcome keys in every basis."""
    counts_by_basis = {}
    for pair in BASIS_PAIRS:
        keys = rng.choice(1 << n, size=distinct, replace=False)
        hits = rng.multinomial(shots, rng.dirichlet(np.ones(distinct)))
        rows = np.stack([keys, hits], axis=1)[hits > 0]
        counts_by_basis[pair] = rows[np.argsort(rows[:, 0])]
    return TransportResult(n, shots, counts_by_basis)


def dense_category_oracle(result: TransportResult, qrem: bool, calibration) -> dict:
    """Full 2^n route: Kronecker-product inverse on the joint vector, then parity bins."""
    n = result.n
    joint_inverse = np.eye(1)
    if qrem:
        for a in calibration:  # qubit i is bit i, so qubit 0 is the last factor
            joint_inverse = np.kron(np.linalg.inv(a), joint_inverse)
    bins = []
    for idx in range(1 << n):
        s = [(idx >> pos) & 1 for pos in range(1, n - 1)]
        z, x = discriminator(s)
        t = (idx & 1) | (((idx >> (n - 1)) & 1) << 1)
        bins.append((z, x, t))
    configs = protocols.reachable_configurations(n - 2)
    out = {c: {"weight": 0.0, "probs": np.zeros((len(BASIS_PAIRS), 4))} for c in configs}
    for b, pair in enumerate(BASIS_PAIRS):
        joint = np.zeros(1 << n)
        for key, count in result.counts_by_basis[pair].tolist():
            joint[key] = count / result.shots_per_basis
        if qrem:
            joint = joint_inverse @ joint
        grouped = {c: np.zeros(4) for c in configs}
        for (z, x, t), p in zip(bins, joint):
            grouped[(z, x)][t] += p
        for config, vec in grouped.items():
            weight = vec.sum()
            out[config]["weight"] += weight / len(BASIS_PAIRS)
            out[config]["probs"][b] = (michelot_project(vec / weight)
                                       if weight > 1e-12 else np.full(4, 0.25))
    weights = michelot_project(np.array([payload["weight"] for payload in out.values()]))
    for payload, weight in zip(out.values(), weights):
        payload["weight"] = weight
    return out


def test_category_pipeline_matches_dense_oracle(rng):
    for n in range(3, 8):
        for _ in range(3):
            result = random_counts_result(n, shots=500, distinct=min(1 << n, 40), rng=rng)
            calibration = [confusion_matrix(*rng.uniform(0.01, 0.3, size=2)) for _ in range(n)]
            for qrem in (False, True):
                configs, weights, probs = mitigated_category_distributions(result, qrem,
                                                                           calibration)
                want = dense_category_oracle(result, qrem, calibration)
                assert list(configs) == list(want)
                for payload, weight, config_probs in zip(want.values(), weights, probs):
                    assert abs(weight - payload["weight"]) < 1e-12
                    assert np.max(np.abs(config_probs - payload["probs"])) < 1e-12


def test_category_pipeline_is_linear_in_path_length(rng):
    # a dense joint vector would need 2^50 entries per basis
    n = 50
    result = random_counts_result(n, shots=64, distinct=5, rng=rng)
    calibration = [confusion_matrix(*rng.uniform(0.01, 0.05, size=2)) for _ in range(n)]
    raw = categorize(result)
    total = len(BASIS_PAIRS) * 64
    for qrem in (False, True):
        configs, weights, probs = mitigated_category_distributions(result, qrem, calibration)
        for config, weight, config_probs in zip(configs, weights, probs):
            assert np.isfinite(weight) and weight >= 0.0
            assert np.all(np.abs(config_probs.sum(axis=-1) - 1.0) < 1e-12)
            assert config_probs.min() >= 0.0
            if not qrem:
                assert abs(weight - raw[config].sum() / total) < 1e-12


def test_category_weights_are_a_distribution(rng):
    # full-path QREM on a long path gives some configurations negative mean
    # weight; the projected weights still sum to 1 and never overstate shots
    n, shots = 50, 64
    result = random_counts_result(n, shots=shots, distinct=5, rng=rng)
    calibration = [confusion_matrix(*rng.uniform(0.01, 0.05, size=2)) for _ in range(n)]
    _, weights, _ = mitigated_category_distributions(result, True, calibration)
    assert abs(weights.sum() - 1.0) < 1e-12 and weights.min() >= 0.0
    assert all(round(w * shots) <= shots for w in weights)


def test_category_pipeline_rejects_singular_calibration(rng):
    result = random_counts_result(5, shots=100, distinct=10, rng=rng)
    calibration = [np.eye(2)] * 5
    calibration[2] = confusion_matrix(0.5, 0.5)
    with pytest.raises(MitigationError, match="qubit 2 is singular"):
        mitigated_category_distributions(result, True, calibration)
    mitigated_category_distributions(result, False, calibration)


def test_streamed_category_route_equals_stacked_reference(rng):
    # running products in position order and one bincount per bin add every
    # term in the order of the (16, keys) route, so the bits agree
    noise = NoiseModel(one_qubit_depol=0.01, two_qubit_depol=0.02,
                       readout=[confusion_matrix(0.03, 0.05)] * 11)
    sampled = protocols.run_teleportation(11, "postselect", noise, 1024, rng)
    results = [random_counts_result(n, shots=3000, distinct=min(1 << n, 300), rng=rng)
               for n in range(3, 26)] + [sampled]
    for result in results:
        calibration = [confusion_matrix(*rng.uniform(0.01, 0.3, size=2))
                       for _ in range(result.n)]
        for qrem in (False, True):
            configs, weights, probs = mitigated_category_distributions(result, qrem, calibration)
            want_configs, want_weights, want_probs = stacked_category_distributions(
                result, qrem, calibration)
            assert configs == want_configs
            assert np.array_equal(weights, want_weights)
            assert np.array_equal(probs, want_probs)


def distinct_keys_result(n: int, distinct: int, rng: np.random.Generator) -> TransportResult:
    """Hand-built postselect result: `distinct` random keys per basis, one shot each."""
    keys = rng.choice(1 << n, size=(len(BASIS_PAIRS), distinct), replace=False)
    return TransportResult(n, distinct,
                           {pair: np.stack([np.sort(row), np.ones_like(row)], axis=1)
                            for pair, row in zip(BASIS_PAIRS, keys)})


def test_category_route_memory_does_not_grow_with_path_length(rng):
    # 18,000 distinct keys: the stacked route peaked at about 19 MB at n = 20
    # and 41 MB at n = 60, the streamed one at about 2 MB at both, and the
    # chunked one at about 0.55 MB
    peaks = []
    for n in (20, 60):
        result = distinct_keys_result(n, 2000, rng)
        calibration = [confusion_matrix(0.02, 0.03)] * n
        tracemalloc.start()
        try:
            mitigated_category_distributions(result, True, calibration)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1.2 * min(peaks), peaks


def unchunked_category_distributions(result: TransportResult, qrem: bool, calibration) -> tuple:
    """The category route with all nine bases in one batch of per-key arrays."""
    n = result.n
    inverses = (np.stack([confusion_inverse(a, i) for i, a in enumerate(calibration)])
                if qrem else np.broadcast_to(np.eye(2), (n, 2, 2)))
    counts = [result.counts_by_basis[pair] for pair in BASIS_PAIRS]
    keys, hits = np.concatenate(counts).T.copy()
    freqs = hits / result.shots_per_basis
    basis = np.repeat(np.arange(len(counts)), [len(c) for c in counts])
    s_plus, s_minus = inverses[:, 0] + inverses[:, 1], inverses[:, 0] - inverses[:, 1]
    parities = []
    for positions in (range(1, n - 1, 2), range(2, n - 1, 2)):
        plus, minus = np.ones(keys.size), np.ones(keys.size)
        for pos in positions:
            bit = (keys >> pos) & 1
            plus *= s_plus[pos][bit]
            minus *= s_minus[pos][bit]
        parities.append(((plus + minus) / 2, (plus - minus) / 2))
    z, x = parities
    first, last = keys & 1, (keys >> (n - 1)) & 1
    by_basis = np.empty((len(counts), 16))
    for t in range(4):
        pair = freqs * inverses[-1][t >> 1, last] * inverses[0][t & 1, first]
        for xz in range(4):
            by_basis[:, 4 * t + xz] = np.bincount(basis, pair * (x[xz >> 1] * z[xz & 1]),
                                                  len(counts))
    configs = protocols.reachable_configurations(result.n - 2)
    vecs = by_basis[:, [[zc | (xc << 1) | (tt << 2) for tt in range(4)] for zc, xc in configs]]
    weights = vecs.sum(axis=-1)
    probs = np.full(vecs.shape, 0.25)
    seen = weights > 1e-12
    probs[seen] = michelot_project(vecs[seen] / weights[seen][:, None])
    mean_weights = michelot_project(np.ascontiguousarray(weights.T).mean(axis=-1))
    return configs, mean_weights, probs.swapaxes(0, 1)


def test_chunked_category_route_equals_one_batch_in_bounded_memory(rng):
    # all 9 x 4,096 keys in one batch peaked at 3.8 times the 9 x 1,024 keys' peak
    calibration = [confusion_matrix(0.02, 0.03)] * 20
    peaks = []
    for distinct in (1024, 4096):
        result = distinct_keys_result(20, distinct, rng)
        tracemalloc.start()
        try:
            mitigated_category_distributions(result, True, calibration)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks
    # bases of uneven sizes that straddle chunk edges, and one basis larger than a chunk
    results = [random_counts_result(n, shots=6000, distinct=int(rng.integers(300, 5000)), rng=rng)
               for n in (14, 17, 21)] + [distinct_keys_result(19, 5000, rng)]
    for result in results:
        calibration = [confusion_matrix(*rng.uniform(0.01, 0.3, size=2))
                       for _ in range(result.n)]
        for qrem in (False, True):
            configs, weights, probs = mitigated_category_distributions(result, qrem, calibration)
            want_configs, want_weights, want_probs = unchunked_category_distributions(
                result, qrem, calibration)
            assert configs == want_configs
            assert np.array_equal(weights, want_weights)
            assert np.array_equal(probs, want_probs)


# --- sweep --------------------------------------------------------------------------


def test_plan_cells_grid_and_seeds():
    device = small_device()
    spec = ExperimentSpec(hops=(1, 2), protocols=("neg",), modes=("swap", "postselect"),
                          paths_per_hop=2, trials=2, shots=64, seed=3)
    cells = plan_cells(device, spec)
    assert len(cells) == 2 * 2 * 2 * 2
    assert len({c.seed for c in cells}) == len(cells)
    again = plan_cells(device, spec)
    assert cells == again


def test_noiseless_sweep_hits_ideal_negativity():
    device = small_device()
    spec = ExperimentSpec(hops=(1, 2), protocols=("neg",),
                          modes=("dynamic", "postselect", "swap"), paths_per_hop=1,
                          trials=1, shots=4096, qrem="off",
                          noise_overrides=NOISELESS_OVERRIDES, seed=11)
    rows = run_experiment(device, spec)
    assert rows
    for row in rows:
        assert row.negativity is not None
        assert abs(row.negativity - 0.5) < 0.02
        assert row.fidelity > 0.95


def test_absent_configurations_not_reported_at_one_hop():
    device = small_device()
    spec = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("postselect",),
                          paths_per_hop=1, trials=1, shots=256, qrem="off", seed=5)
    rows = run_experiment(device, spec)
    configs = {row.configuration for row in rows}
    assert configs == {"00", "10"}


def test_configurations_with_no_effective_shot_keep_empty_metrics(monkeypatch):
    # 2 shots over four configurations leave some with none; those rows write
    # empty negativity and fidelity cells, and every other row is scored
    device = small_device()
    spec = ExperimentSpec(hops=(2, 3), protocols=("neg",), modes=("postselect",),
                          paths_per_hop=2, trials=2, shots=2, qrem="both", seed=4)
    csvs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        csvs.append(rows_to_csv(run_experiment(device, spec)))
    assert csvs[0] == csvs[1]
    header, *lines = [line.split(",") for line in csvs[0].splitlines()[1:]]
    column = {name: header.index(name) for name in ("negativity", "fidelity", "shots")}
    empty = [line for line in lines if line[column["shots"]] == "0"]
    assert 0 < len(empty) < len(lines)
    for line in lines:
        metrics = [line[column["negativity"]], line[column["fidelity"]]]
        if line[column["shots"]] == "0":
            assert metrics == ["", ""]
        else:
            neg, fid = map(float, metrics)
            assert 0.0 <= neg <= 0.5 and 0.0 <= fid <= 1.0


def test_failed_cells_are_skipped(monkeypatch, caplog):
    # serial and pooled sweeps share one policy: log the traceback, skip the cell
    device = small_device()
    spec = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("swap", "postselect"),
                          paths_per_hop=2, trials=1, shots=64, qrem="off", seed=5)

    real = harness._cell_rows

    def flaky(noise, sp, cell):
        if cell.mode == "swap":
            raise RuntimeError("boom")
        return real(noise, sp, cell)

    monkeypatch.setattr(harness, "_cell_rows", flaky)
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        caplog.clear()
        rows = run_experiment(device, spec)
        failures = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        runs.append((rows_to_csv(rows), failures))
        assert rows
        assert all(row.mode == "postselect" for row in rows)
        assert (rows.failed, rows.planned) == (2, 4)
        assert len(failures) == 2
        assert all("RuntimeError: boom" in f for f in failures)
    assert runs[0] == runs[1]


def test_failure_in_stacked_scoring_fails_only_its_cell(monkeypatch, caplog):
    # every finished row is reconstructed in one stacked call; when that
    # call raises, each cell is scored alone and only the offending one fails
    device = small_device()
    spec = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("dynamic", "postselect"),
                          paths_per_hop=2, trials=1, shots=64, qrem="both", seed=5)
    monkeypatch.delenv("TELEPORT_LAB_THREADS", raising=False)
    clean = run_experiment(device, spec)
    bad = plan_cells(device, spec)[2]
    real = harness._cell_rows

    def unphysical(noise, sp, cell):
        out = real(noise, sp, cell)
        if cell == bad:
            out.probs[-1, 1] = np.nan  # one basis of the cell's last row
        return out

    monkeypatch.setattr(harness, "_cell_rows", unphysical)
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        caplog.clear()
        rows = run_experiment(device, spec)
        failures = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        runs.append((rows_to_csv(rows), (rows.failed, rows.planned), failures))
        assert (rows.failed, rows.planned) == (1, 4)
        assert len(failures) == 1 and str(bad) in failures[0]
        assert "_score_rows" in failures[0]  # failed in the stacked stage, not in the cell
        assert rows == [row for row in clean if row.seed != bad.seed]
    assert runs[0] == runs[1]


def test_each_path_noise_model_is_built_once_in_the_main_process(monkeypatch):
    # every cell of a path runs on the one model the pre-flight check built;
    # a pool worker that built its own would fail its cells here
    device = small_device()
    spec = ExperimentSpec(hops=(1, 2), protocols=("neg",), modes=("swap", "postselect"),
                          paths_per_hop=2, trials=2, shots=64, qrem="off", seed=4)
    paths = {cell.path_labels for cell in plan_cells(device, spec)}
    main_pid = os.getpid()
    real = harness.path_noise_model
    built = []

    def counted(dev, labels, overrides=None):
        if os.getpid() != main_pid:
            raise RuntimeError("noise model built in a worker")
        built.append(labels)
        return real(dev, labels, overrides)

    monkeypatch.setattr(harness, "path_noise_model", counted)
    csvs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        built.clear()
        rows = run_experiment(device, spec)
        assert (rows.failed, rows.planned) == (0, 16)
        assert sorted(built) == sorted(paths)
        csvs.append(rows_to_csv(rows))
    assert csvs[0] == csvs[1]


def test_parallel_run_matches_serial(monkeypatch):
    # the pool has at most one worker per path, and a one-path sweep runs serially
    import concurrent.futures

    sizes = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    device = small_device()
    for paths, pool_sizes in ((2, [2]), (1, [])):
        spec = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("swap",),
                              paths_per_hop=paths, trials=2, shots=256, qrem="off", seed=9)
        monkeypatch.delenv("TELEPORT_LAB_THREADS", raising=False)
        serial = rows_to_csv(run_experiment(device, spec))
        monkeypatch.setenv("TELEPORT_LAB_THREADS", "3")
        sizes.clear()
        assert rows_to_csv(run_experiment(device, spec)) == serial
        assert sizes == pool_sizes


def test_pool_runs_one_task_per_path_most_hops_first(monkeypatch, caplog, tmp_path):
    # a pool task is one path's cells, sent out most hops first; the outcomes
    # and failures come back in plan order, as a serial run gives them
    device = small_device()
    spec = ExperimentSpec(hops=(1, 2), protocols=("neg",), modes=("swap", "postselect"),
                          paths_per_hop=2, trials=2, shots=64, qrem="both", seed=6)
    cells = plan_cells(device, spec)
    bad = [cells[5], cells[6], cells[10]]  # mid-plan, in two paths
    real = harness._cell_rows
    started = tmp_path / "started.txt"

    def flaky(noise, sp, cell):
        with open(started, "a") as fh:  # short appends from two workers do not interleave
            fh.write(f"{os.getpid()} {cell.hops} {cell.path_labels}\n")
        if cell in bad:
            raise RuntimeError("boom")
        return real(noise, sp, cell)

    monkeypatch.setattr(harness, "_cell_rows", flaky)
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TELEPORT_LAB_THREADS", workers)
        started.write_text("")
        caplog.clear()
        rows = run_experiment(device, spec)
        failures = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert (rows.failed, rows.planned) == (3, 16)
        assert len(failures) == 3 and all(str(c) in f for c, f in zip(bad, failures))
        runs.append((rows_to_csv(rows), failures))
    log = [line.split(" ", 2) for line in started.read_text().splitlines()]
    assert len(log) == 16 and log[0][1] == "2"  # the first task is a two-hop path
    workers_of = {}
    for pid, _, labels in log:
        workers_of.setdefault(labels, set()).add(pid)
    assert len(workers_of) == 4 and all(len(pids) == 1 for pids in workers_of.values())
    assert runs[0] == runs[1]


#: SHA-256 of the CSV text of `test_sweep_csv_matches_recorded_digest`, recorded
#: when calibration flip counts became binomial draws; its QREM-off rows are
#: those recorded before the post-selection bins were streamed.
SWEEP_DIGEST = "22b6e17b756529a73b4c9f9434754f6862095924de93ab423583f74561f09e90"


def test_sweep_csv_matches_recorded_digest():
    # every mode with qrem both, up to 17 hops, at 1,024 shots (the nine bases
    # in one group) and 2,048 (two groups)
    device = synthesize_device("heavy-hex-127", seed=7)
    text = "".join(rows_to_csv(run_experiment(device, ExperimentSpec(
        hops=(1, 9, 17), protocols=("neg",), paths_per_hop=1, trials=1, shots=shots,
        qrem="both", seed=3))) for shots in (1024, 2048))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGEST


# --- CSV -----------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    rows = [ResultRow("swap", "neg", 2, "0-1-2-3", 0, "on", "", 0.43215, 0.91, 512, 77),
            ResultRow("postselect", "neg", 1, "0-1-2", 1, "off", "10", None, None, 0, 78)]
    f = tmp_path / "rows.csv"
    write_csv(rows, str(f))
    text = f.read_text()
    assert text.startswith("# teleport-lab results v1\n")
    back = read_csv_rows(str(f))
    assert back == rows


def test_csv_skips_malformed_rows(tmp_path, caplog):
    f = tmp_path / "rows.csv"
    f.write_text("# teleport-lab results v1\n"
                 + ",".join(harness.CSV_COLUMNS) + "\n"
                 + "swap,neg,2,0-1,0,on,,0.4,0.9,16,1\n"
                 + "swap,neg,not-a-number,0-1,0,on,,0.4,0.9,16,1\n"
                 + "too,few,fields\n")
    rows = read_csv_rows(str(f))
    assert len(rows) == 1


def test_identical_seed_gives_identical_csv():
    device = small_device()
    spec = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("postselect",),
                          paths_per_hop=1, trials=1, shots=512, qrem="both", seed=123)
    a = rows_to_csv(run_experiment(device, spec))
    b = rows_to_csv(run_experiment(device, spec))
    assert a == b
    spec2 = ExperimentSpec(hops=(1,), protocols=("neg",), modes=("postselect",),
                           paths_per_hop=1, trials=1, shots=512, qrem="both", seed=124)
    c = rows_to_csv(run_experiment(device, spec2))
    assert a != c


# --- aggregation ----------------------------------------------------------------------


def test_aggregate_matches_manual_recomputation(rng):
    rows = []
    for hops in (1, 2, 3):
        for trial in range(6):
            rows.append(ResultRow("swap", "neg", hops, "p", trial, "on", "",
                                  float(rng.uniform(0.1, 0.5)), 0.9, 16, 1))
    agg = aggregate_by_hops(rows)
    assert [a.hops for a in agg] == [1, 2, 3]
    for point in agg:
        vals = [r.negativity for r in rows if r.hops == point.hops]
        assert abs(point.mean - np.mean(vals)) < 1e-12
        assert abs(point.stderr - np.std(vals, ddof=1) / np.sqrt(len(vals))) < 1e-12
        assert point.low == min(vals) and point.high == max(vals)
        assert point.count == len(vals)


def test_aggregate_skips_missing_values():
    rows = [ResultRow("swap", "neg", 1, "p", 0, "on", "", None, None, 0, 1),
            ResultRow("swap", "neg", 1, "p", 1, "on", "", 0.4, 0.9, 16, 1)]
    agg = aggregate_by_hops(rows)
    assert agg[0].count == 1


# --- decay -----------------------------------------------------------------------------


def test_crossing_time_interpolates():
    assert crossing_time([0, 1, 2], [0.5, 0.4, 0.3], 0.45) == pytest.approx(0.5)
    assert crossing_time([0, 1], [0.5, 0.5], 0.6) is None
    assert crossing_time([0, 1], [0.5, 0.5], 0.5) == 0.0


def test_exact_decay_monotone_and_window():
    noise = NoiseModel(one_qubit_depol=DEFAULT_ONE_QUBIT_DEPOL,
                       two_qubit_depol=0.0075,
                       readout=[confusion_matrix(0.013, 0.018)] * 2)
    delays = list(np.linspace(0.0, 5.0, 21))
    result = run_decay_experiment(delays, noise, shots=0)
    diffs = np.diff(result.negativities)
    assert np.all(diffs <= 1e-12)
    assert result.crossing_window_us is not None
    assert 1.5 <= result.crossing_window_us <= 2.5


def test_decay_rejects_empty_delay_list():
    noise = NoiseModel(readout=[confusion_matrix(0.01, 0.02)] * 2)
    for shots in (0, 64):
        with pytest.raises(ValueError, match="at least one delay"):
            run_decay_experiment([], noise, shots=shots)


def test_sampled_decay_tracks_exact():
    noise = NoiseModel(two_qubit_depol=0.005, readout=[confusion_matrix(0.01, 0.02)] * 2)
    delays = [0.0, 2.0]
    exact = run_decay_experiment(delays, noise, shots=0)
    sampled = run_decay_experiment(delays, noise, shots=4096, seed=3)
    for e, s in zip(exact.negativities, sampled.negativities):
        assert abs(e - s) < 0.03


def test_qrem_off_decay_is_lower():
    noise = NoiseModel(readout=[confusion_matrix(0.05, 0.08)] * 2)
    [with_qrem] = run_decay_experiment([0.5], noise, qrem=True).negativities
    [without] = run_decay_experiment([0.5], noise, qrem=False).negativities
    assert with_qrem > without + 0.02
