"""Noise channels: trajectory sampling by ShotBatch against the exact channel forms,
and the exact forms against their Kronecker-product definitions."""
import dataclasses
import itertools

import numpy as np
import pytest

from teleport_lab.channels import (NoiseModel, check_confusion_matrix, confusion_matrix,
                                   decay_probabilities, depolarizing_channel,
                                   exact_pair_distributions, idle_channel, per_qubit_transform)
from teleport_lab.harness import path_noise_model
from teleport_lab.metrics import density_from_state, negativity
from teleport_lab.pathfinder import synthesize_device
from teleport_lab.protocols import ShotBatch, schedule
from teleport_lab.tomography import BASIS_PAIRS

from conftest import random_density_matrix, random_state, shot_batch, trace_distance
from dense_oracle import (GATE_MATRICES, PAULI_MATRICES, PureState, apply_gates, basis_rotation,
                          embed_single, idle_kraus, kraus_oracle, op, schedule_distributions)

BELL = PureState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


# --- confusion matrices ---------------------------------------------------------


def test_confusion_matrix_layout():
    a = confusion_matrix(0.1, 0.2)
    assert np.allclose(a, [[0.9, 0.2], [0.1, 0.8]])
    assert np.allclose(a.sum(axis=0), 1.0)


def test_confusion_matrix_validation():
    with pytest.raises(ValueError, match="columns"):
        check_confusion_matrix(np.array([[0.9, 0.3], [0.2, 0.7]]))
    with pytest.raises(ValueError, match="probabilities"):
        check_confusion_matrix(np.array([[1.2, 0.0], [-0.2, 1.0]]))
    # every comparison with NaN is False, so range checks must be written to fail on it
    with pytest.raises(ValueError, match="probabilities"):
        check_confusion_matrix(np.array([[np.nan, 0.0], [1.0, 1.0]]))


def test_noise_model_validation():
    with pytest.raises(ValueError, match=r"t2 \(25.0\) exceeds 2\*t1 \(20.0\)$"):
        NoiseModel(t1_us=10.0, t2_us=25.0)
    with pytest.raises(ValueError, match=r"^one_qubit_depol must be a number in \[0, 1\], "
                                         r"got 1.5$"):
        NoiseModel(one_qubit_depol=1.5)
    assert NoiseModel(t1_us=np.inf, t2_us=25.0).qubit_t1t2(0) == (np.inf, 25.0)
    # exactly the pairs qubit_t1t2 serves: a list meets the other time's number
    NoiseModel(t1_us=10.0, t2_us=[15.0, 20.0])
    NoiseModel(t2_us=70.0, t1_us=[40.0, 35.0])
    with pytest.raises(ValueError, match=r"t2 \(25.0\) exceeds 2\*t1 \(20.0\) at path position 1"):
        NoiseModel(t1_us=10.0, t2_us=[15.0, 25.0])
    with pytest.raises(ValueError, match="at path position 0"):
        NoiseModel(t2_us=70.0, t1_us=[30.0, 40.0])
    with pytest.raises(ValueError, match="dynamic_correction_latency_us must be a finite number"):
        NoiseModel(dynamic_correction_latency_us=np.inf)
    assert NoiseModel(two_qubit_depol=[0.1, 0.2]).edge_depol(1) == 0.2
    assert NoiseModel(two_qubit_depol=0.01).edge_depol(5) == 0.01
    assert NoiseModel(t1_us=[30.0, 40.0], t2_us=20.0).qubit_t1t2(1) == (40.0, 20.0)


@pytest.mark.parametrize("field, value", [
    ("one_qubit_depol", True), ("two_qubit_depol", None), ("two_qubit_depol", [0.01, False]),
    ("t1_us", "33"), ("t2_us", [20.0, None]), ("dynamic_correction_latency_us", [2.0]),
    ("one_qubit_depol", [0.01])])
def test_noise_model_rejects_non_numbers(field, value):
    # True used to run as probability 1.0; only the three per-position fields take lists
    with pytest.raises(ValueError, match=f"^{field} must be a (finite )?number"):
        NoiseModel(**{field: value})


@pytest.mark.parametrize("value", [True, None, "eye", [[[True, False], [False, True]]],
                                   [[["1", "0"], ["0", "1"]]], [[[1, 0], [False, True]]]])
def test_noise_model_rejects_non_numeric_readout(value):
    with pytest.raises(ValueError, match="readout"):
        NoiseModel(readout=value)


NAN = float("nan")


@pytest.mark.parametrize("field, value", [
    ("t1_us", NAN), ("t2_us", NAN), ("dynamic_correction_latency_us", NAN),
    ("t1_us", [30.0, NAN]), ("t2_us", [NAN, 20.0]),
    ("readout", [np.eye(2), [[1.0, 0.0], [0.0, NAN]]])])
def test_noise_model_rejects_nan(field, value):
    # a NaN T1 used to run as gamma = 1 and a NaN latency as no latency
    with pytest.raises(ValueError, match=field):
        NoiseModel(**{field: value})


# --- depolarizing (trajectory engine) -------------------------------------------


def ensemble_density(batch: ShotBatch) -> np.ndarray:
    return np.einsum("is,js->ij", batch._amps, batch._amps.conj()) / batch.shots


def test_depolarizing_p0_is_identity(rng):
    state = random_state(3, rng)
    batch = shot_batch(state, 64, rng)
    batch.depolarize([0, 2], 0.0)
    assert np.array_equal(batch._amps, np.tile(state.amplitudes[:, None], 64))


def test_depolarizing_p1_uniform_paulis(rng):
    # p=1 on one qubit: X, Y, Z each with frequency 1/3
    shots = 30_000
    zero = shot_batch(PureState.zero(1), shots, rng)
    zero.depolarize([0], 1.0)
    x_or_y = int((np.abs(zero._amps[1]) > 0.5).sum())
    # Z is invisible on |0>; check via |+> where Z flips the relative sign
    plus = shot_batch(apply_gates(PureState.zero(1), [op("H", 0)]), shots, rng)
    plus.depolarize([0], 1.0)
    z_like = int((plus._amps[0].real * plus._amps[1].real < -1e-12).sum())
    sigma = np.sqrt(shots * (1 / 3) * (2 / 3))
    assert abs(x_or_y - 2 * shots / 3) < 5 * sigma
    assert abs(z_like - shots / 3) < 5 * sigma


def test_depolarized_bell_ensemble_matches_exact_channel(rng):
    p = 0.1
    batch = shot_batch(BELL, 100_000, rng)
    batch.depolarize([0, 1], p)
    ensemble = ensemble_density(batch)
    exact = depolarizing_channel(density_from_state(BELL.amplitudes), (0, 1), p)
    assert trace_distance(ensemble, exact) < 0.01
    assert abs(negativity(ensemble / np.trace(ensemble).real) - negativity(exact)) < 0.01


def test_two_qubit_depolarizing_channel_closed_form():
    # uniform non-identity Pauli mixing turns a Bell projector into a Werner state
    p = 0.1
    rho = density_from_state(BELL.amplitudes)
    exact = depolarizing_channel(rho, (0, 1), p)
    q = 1.0 - 16.0 * p / 15.0
    werner = q * rho + (1 - q) * np.eye(4) / 4
    assert np.max(np.abs(exact - werner)) < 1e-12
    assert abs(negativity(exact) - (3 * q - 1) / 4) < 1e-12


# --- idle decay -----------------------------------------------------------------


def test_idle_zero_duration_is_identity(rng):
    state = random_state(2, rng)
    batch = shot_batch(state, 64, rng)
    for q in (0, 1):
        batch.idle_decay(q, 0.0, 30.0, 20.0)
    assert np.array_equal(batch._amps, np.tile(state.amplitudes[:, None], 64))


def test_idle_long_duration_relaxes_to_ground(rng):
    batch = shot_batch(PureState.from_bits((1,)), 200, rng)
    batch.idle_decay(0, 1e5, 30.0, 20.0)
    assert np.all(np.abs(batch._amps[0]) > 0.999)


def test_decay_probabilities_reject_bad_t2():
    with pytest.raises(ValueError, match="t2"):
        decay_probabilities(1.0, 10.0, 25.0)


def test_decay_probabilities_reject_non_finite_durations():
    # a NaN duration used to pass the `< 0` check and run as no decay
    for duration in (NAN, np.inf, -1.0):
        with pytest.raises(ValueError, match="finite and non-negative"):
            decay_probabilities(duration, 30.0, 20.0)
    # infinite T1 and T2 mean no decay
    assert decay_probabilities(5.0, np.inf, np.inf) == (0.0, 0.0)


def test_kraus_sets_are_trace_preserving(rng):
    # the oracle's Kraus sets, and the closed-form idle channel built to match them
    rho = random_density_matrix(4, rng)
    for duration, t1, t2 in ((1.5, 30.0, 20.0), (0.0, 30.0, 20.0), (4.0, 5.0, 10.0)):
        acc = sum(k.conj().T @ k for k in idle_kraus(duration, t1, t2))
        assert np.max(np.abs(acc - np.eye(2))) < 1e-12
        out = idle_channel(rho, 1, *decay_probabilities(duration, t1, t2))
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_trajectory_matches_exact_kraus_channel(rng):
    # shot-averaged idle-decay trajectories versus the exact channel
    duration, t1, t2 = 8.0, 30.0, 20.0
    state = apply_gates(PureState.zero(2), [op("H", 0), op("CNOT", 0, 1)])
    batch = shot_batch(state, 100_000, rng)
    for q in (0, 1):
        batch.idle_decay(q, duration, t1, t2)
    exact = density_from_state(state.amplitudes)
    for q in (0, 1):
        exact = kraus_oracle(exact, idle_kraus(duration, t1, t2), q)
    assert trace_distance(ensemble_density(batch), exact) < 0.01


def test_exact_idle_decay_coherence_rate():
    # off-diagonal elements of a |+> projector decay as exp(-t/T2)
    t1, t2, t = 30.0, 20.0, 5.0
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = idle_channel(plus, 0, *decay_probabilities(t, t1, t2))
    assert abs(out[0, 1] - 0.5 * np.exp(-t / t2)) < 1e-12


# --- exact forms against Kronecker-product oracles ----------------------------------


def depolarizing_oracle(rho: np.ndarray, qubits, p: float) -> np.ndarray:
    """Sum over every non-identity Pauli string on the targets."""
    n = int(np.log2(rho.shape[0]))
    paulis = [PAULI_MATRICES[a] for a in "IXYZ"]
    n_words = 4 ** len(qubits)
    acc = np.zeros_like(rho, dtype=complex)
    for word in range(1, n_words):
        full = np.eye(rho.shape[0], dtype=complex)
        w = word
        for q in qubits:
            k = w & 3
            w >>= 2
            if k:
                full = embed_single(paulis[k], q, n) @ full
        acc += full @ rho @ full.conj().T
    return (1.0 - p) * rho + p / (n_words - 1) * acc


@pytest.mark.parametrize("num_qubits", (2, 3))
@pytest.mark.parametrize("p", (0.0, 0.3, 1.0))
def test_depolarizing_closed_form_matches_pauli_sum(num_qubits, p, rng):
    # every 1-qubit target and every ordered pair, non-adjacent and reversed included
    rho = random_density_matrix(1 << num_qubits, rng)
    targets = ([(q,) for q in range(num_qubits)]
               + list(itertools.permutations(range(num_qubits), 2)))
    for qubits in targets:
        diff = depolarizing_channel(rho, qubits, p) - depolarizing_oracle(rho, qubits, p)
        assert np.max(np.abs(diff)) < 1e-15, qubits


@pytest.mark.parametrize("num_qubits", (2, 3))
def test_reshaped_kraus_matches_embedded_operators(num_qubits, rng):
    # the closed-form idle channel on each qubit's 2x2 blocks against the
    # oracle's Kraus operators: mixed decay, pure amplitude damping (T2 = 2 T1)
    # and dominant dephasing
    rho = random_density_matrix(1 << num_qubits, rng)
    for qubit in range(num_qubits):
        for duration, t1, t2 in ((3.0, 30.0, 20.0), (4.0, 5.0, 10.0), (2.0, 50.0, 1.0)):
            diff = (idle_channel(rho, qubit, *decay_probabilities(duration, t1, t2))
                    - kraus_oracle(rho, idle_kraus(duration, t1, t2), qubit))
            assert np.max(np.abs(diff)) < 1e-15, qubit


def test_exact_pair_distributions_match_oracle_pipeline():
    # preparation, idle, noisy rotations and readout, each step through an oracle
    noise = NoiseModel(one_qubit_depol=0.01, two_qubit_depol=0.05, t1_us=[30.0, 40.0],
                       t2_us=[20.0, 50.0],
                       readout=[confusion_matrix(0.03, 0.06), confusion_matrix(0.05, 0.02)])
    delay = 4.0
    plus = np.full(4, 0.5, dtype=complex)
    rho = np.outer(plus, plus)
    for q in (0, 1):
        rho = depolarizing_oracle(rho, (q,), noise.one_qubit_depol)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    rho = depolarizing_oracle(cz @ rho @ cz, (0, 1), noise.edge_depol(0))
    for q in (0, 1):
        rho = kraus_oracle(rho, idle_kraus(delay, *noise.qubit_t1t2(q)), q)
    exact = exact_pair_distributions(noise, delay)
    assert exact.shape == (len(BASIS_PAIRS), 4)
    for got, pair in zip(exact, BASIS_PAIRS):
        rotated = rho
        for q, axis in enumerate(pair):
            for g in basis_rotation(axis):
                rotated = kraus_oracle(rotated, [GATE_MATRICES[g]], q)
                rotated = depolarizing_oracle(rotated, (q,), noise.one_qubit_depol)
        expected = per_qubit_transform(np.real(np.diag(rotated)), noise.readout)
        assert np.max(np.abs(got - expected)) < 1e-15, pair


def test_exact_pair_route_equals_dense_idle_schedule():
    # the hand-written exact route and the records of `schedule(2, "idle")`
    # describe one protocol: device edges with their gate and readout errors,
    # per-qubit T1 and T2 drawn around the device's, and random delays
    device = synthesize_device("heavy-hex-127", seed=7)
    rng = np.random.default_rng(23)
    for edge in device.edges[::12]:
        t1 = rng.uniform(15.0, 60.0, size=2)
        noise = dataclasses.replace(path_noise_model(device, (edge.a, edge.b)),
                                    t1_us=list(t1),
                                    t2_us=list(t1 * rng.uniform(0.3, 2.0, size=2)))
        for delay in (0.0, *rng.uniform(0.0, 8.0, size=3)):
            want = schedule_distributions(schedule(2, "idle", noise, delay_us=delay))
            assert np.max(np.abs(exact_pair_distributions(noise, delay) - want)) < 1e-14


# --- readout --------------------------------------------------------------------


def test_readout_identity_matrices(rng):
    bits = np.array([0, 1, 1, 0], dtype=np.int8)
    assert np.array_equal(ShotBatch([rng], bits.size, 0).readout(bits, np.eye(2)), bits)


def test_readout_flip_rates(rng):
    a = confusion_matrix(0.1, 0.2)
    shots = 100_000
    flips = int(ShotBatch([rng], shots, 0).readout(np.zeros(shots, dtype=np.int8), a).sum())
    sigma = np.sqrt(shots * 0.1 * 0.9)
    assert abs(flips - shots * 0.1) < 5 * sigma


def test_readout_joint_equals_tensor_of_marginals(rng):
    a = confusion_matrix(0.1, 0.05)
    b = confusion_matrix(0.02, 0.3)
    shots = 100_000
    batch = ShotBatch([rng], shots, 0)
    r0 = batch.readout(np.zeros(shots, dtype=np.int8), a)
    r1 = batch.readout(np.ones(shots, dtype=np.int8), b)
    counts = np.bincount(r0 + 2 * r1, minlength=4)
    # analytic joint: prepared (0, 1)
    expected = np.kron(b[:, 1], a[:, 0])
    chi2 = ((counts - shots * expected) ** 2 / (shots * expected)).sum()
    assert chi2 < 25  # 3 dof, generous bound


def test_readout_channel_matches_sampler(rng):
    a = confusion_matrix(0.08, 0.15)
    b = confusion_matrix(0.01, 0.02)
    probs = np.array([0.4, 0.1, 0.25, 0.25])
    noisy = per_qubit_transform(probs, [a, b])
    assert abs(noisy.sum() - 1.0) < 1e-12
    shots = 200_000
    outcomes = rng.choice(4, size=shots, p=probs)
    batch = ShotBatch([rng], shots, 0)
    counts = np.bincount(batch.readout(outcomes & 1, a)
                         + 2 * batch.readout(outcomes >> 1, b), minlength=4)
    for k in range(4):
        sigma = np.sqrt(shots * noisy[k] * (1 - noisy[k]))
        assert abs(counts[k] - shots * noisy[k]) < 5 * sigma


def test_seeded_streams_are_deterministic():
    state = apply_gates(PureState.zero(2), [op("H", 0), op("CNOT", 0, 1)])
    a = confusion_matrix(0.1, 0.2)

    def run(seed):
        rng = np.random.default_rng(seed)
        batch = shot_batch(state, 50, rng)
        batch.depolarize([0, 1], 0.3)
        batch.idle_decay(0, 2.0, 30.0, 20.0)
        return np.stack([batch.readout(batch.measure_z(q), a) for q in (0, 1)])

    assert np.array_equal(run(99), run(99))
    assert not np.array_equal(run(99), run(100))
