"""Dense oracle and its own gate table: gates, measurement, exact outcome distributions.

Sampled measurement lives in the trajectory engine (`ShotBatch.measure_z`);
its tests here check it against the Born rule of the dense oracle. The
engine's gate matrices have their checks in test_tomography.py.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleport_lab.tomography import H

from conftest import random_state, shot_batch
from dense_oracle import (Gate, GateOp, PureState, TwoQubitGate, TwoQubitOp, add_qubit, apply_gate,
                          apply_gates, bits_of_index, born_probabilities, index_of_bits, op,
                          postselect, remove_qubit, states_equal)

SQ2 = 1 / np.sqrt(2)


# --- construction and validation ---------------------------------------------


def test_zero_and_plus_states():
    z = PureState.zero(3)
    assert z.amplitudes[0] == 1
    p = PureState.plus(2)
    assert np.allclose(p.amplitudes, 0.5)


def test_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureState(1, np.array([1.0, 1.0]))


def test_rejects_wrong_length():
    with pytest.raises(ValueError, match="amplitudes"):
        PureState(2, np.array([1.0, 0.0]))


def test_rejects_too_many_qubits():
    with pytest.raises(ValueError, match="num_qubits"):
        PureState(25, np.zeros(2))


def test_gateop_arity_checks():
    with pytest.raises(ValueError, match="expects"):
        op(Gate.H, 0, 1)
    with pytest.raises(ValueError, match="duplicate"):
        op("CZ", 1, 1)


def test_apply_gate_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(PureState.zero(2), op("X", 5))


def test_index_of_bits_is_little_endian():
    # qubit 0 is the least significant bit of the amplitude index
    assert index_of_bits((1, 0, 0)) == 1
    assert index_of_bits((0, 0, 1)) == 4
    assert PureState.from_bits((1, 1, 0)).amplitudes[3] == 1
    for k in range(8):
        assert index_of_bits(bits_of_index(k, 3)) == k


def test_measure_underflow_reports_corrupted_state(rng):
    batch = shot_batch(PureState.zero(1), 8, rng)
    batch._amps[:, 3] = 0.0  # corrupt one trajectory in place
    with pytest.raises(RuntimeError, match="corrupted"):
        batch.measure_z(0)


# --- gate actions -------------------------------------------------------------


def test_x_flips_zero():
    state = apply_gate(PureState.zero(1), op("X", 0))
    assert states_equal(state, np.array([0, 1], dtype=complex))


def test_cz_on_plus_plus():
    state = apply_gate(PureState.plus(2), op("CZ", 0, 1))
    expected = np.array([1, 1, 1, -1], dtype=complex) / 2
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_h_squared_is_identity(rng):
    state = random_state(3, rng)
    out = apply_gates(state, [op("H", 1), op("H", 1)])
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_cnot_and_swap_basis_action():
    s = apply_gate(PureState.from_bits((1, 0)), op("CNOT", 0, 1))
    assert states_equal(s, PureState.from_bits((1, 1)))
    s = apply_gate(PureState.from_bits((1, 0)), op("SWAP", 0, 1))
    assert states_equal(s, PureState.from_bits((0, 1)))


def test_gate_algebra_conjugations(rng):
    # HXH = Z and HZH = X, checked by action on random states
    for inner, outer in ((Gate.X, Gate.Z), (Gate.Z, Gate.X)):
        state = random_state(2, rng)
        lhs = apply_gates(state, [op("H", 0), GateOp(inner, 0), op("H", 0)])
        rhs = apply_gate(state, GateOp(outer, 0))
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12


def test_swap_equals_three_cnots(rng):
    state = random_state(4, rng)
    direct = apply_gate(state, op("SWAP", 1, 3))
    chained = apply_gates(state, [op("CNOT", 1, 3), op("CNOT", 3, 1), op("CNOT", 1, 3)])
    assert np.max(np.abs(direct.amplitudes - chained.amplitudes)) < 1e-12


def test_norm_preserved_over_random_sequences(rng):
    kinds_1q = [Gate.H, Gate.X, Gate.Y, Gate.Z, Gate.SDG]
    kinds_2q = [TwoQubitGate.CZ, TwoQubitGate.CNOT, TwoQubitGate.SWAP]
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        state = random_state(n, rng)
        for _ in range(10):
            if rng.random() < 0.5:
                state = apply_gate(state, GateOp(kinds_1q[rng.integers(len(kinds_1q))],
                                                 int(rng.integers(n))))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                state = apply_gate(state, TwoQubitOp(kinds_2q[rng.integers(len(kinds_2q))],
                                                     (int(a), int(b))))
        assert abs(state.norm() - 1.0) < 1e-9


# --- measurement --------------------------------------------------------------


def test_measure_plus_in_x_is_deterministic(rng):
    # an X measurement is a Hadamard followed by a Z measurement
    batch = shot_batch(apply_gate(PureState.zero(1), op("H", 0)), 1000, rng)
    batch.apply_matrix(0, H)
    assert not batch.measure_z(0).any()


def test_measure_zero_in_z_is_deterministic(rng):
    assert not shot_batch(PureState.zero(1), 1000, rng).measure_z(0).any()


def test_remeasure_same_bit(rng):
    # measurement removes the qubit, so its value is first copied onto an
    # ancilla (position 3) with a CNOT; after the collapse the rest of the
    # shot is the dense collapse onto the recorded bit, and a Z measurement
    # of the copy reproduces that bit with certainty
    for basis in ("Z", "X"):
        state = random_state(3, rng)
        if basis == "X":
            state = apply_gate(state, op("H", 1))
        state = apply_gate(add_qubit(state), op("CNOT", 1, 3))
        batch = shot_batch(state, 1000, rng)
        bits = batch.measure_z(1)
        assert 0 < bits.sum() < bits.size
        for bit in (0, 1):
            want = remove_qubit(postselect(state, 1, "Z", bit)[0], 1).amplitudes
            assert np.max(np.abs(batch._amps[:, bits == bit] - want[:, None])) < 1e-12
        assert np.array_equal(batch.measure_z(3), bits)


def test_measure_teleports_single_qubit(rng):
    # measuring one qubit of CZ|++> in X leaves X^s H |+> = |s> on the other
    for forced in (0, 1):
        state = apply_gate(PureState.plus(2), op("CZ", 0, 1))
        post, prob = postselect(state, 1, "X", forced)
        assert abs(prob - 0.5) < 1e-12
        reduced = remove_qubit(post, 1)
        assert states_equal(reduced, PureState.from_bits((forced,)), 1e-12)


def test_measurement_statistics_match_born(rng):
    state = apply_gates(PureState.zero(2), [op("H", 0), op("CNOT", 0, 1), op("H", 1)])
    probs = born_probabilities(state, (0, 1), ("Z", "Z"))
    shots = 100_000
    batch = shot_batch(state, shots, rng)
    m0 = batch.measure_z(0)
    m1 = batch.measure_z(1)
    counts = np.bincount(m0 + 2 * m1, minlength=4)
    for k in range(4):
        sigma = np.sqrt(shots * probs[k] * (1 - probs[k]))
        assert abs(counts[k] - shots * probs[k]) < 5 * max(sigma, 1.0)


def test_postselect_zero_probability_branch():
    with pytest.raises(ValueError, match="zero probability"):
        postselect(PureState.zero(1), 0, "Z", 1)


# --- born probabilities -------------------------------------------------------


def test_born_bell_correlations():
    bell = apply_gates(PureState.zero(2), [op("H", 0), op("CNOT", 0, 1)])
    probs = born_probabilities(bell, (0, 1), ("Z", "Z"))
    assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)


def test_born_zero_state_in_x():
    probs = born_probabilities(PureState.zero(1), (0,), ("X",))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_born_path_graph_state_uniform():
    # three-qubit path graph state measured all-Z: every bitstring is 1/8
    state = PureState.plus(3)
    state = apply_gates(state, [op("CZ", 0, 1), op("CZ", 1, 2)])
    probs = born_probabilities(state, (0, 1, 2), ("Z", "Z", "Z"))
    assert np.allclose(probs, np.full(8, 0.125), atol=1e-12)


def test_born_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        born_probabilities(PureState.zero(2), (0, 0), ("Z", "Z"))


def test_born_sums_to_one(rng):
    state = random_state(4, rng)
    probs = born_probabilities(state, (0, 2, 3), ("X", "Y", "Z"))
    assert abs(probs.sum() - 1.0) < 1e-12


# --- helpers ------------------------------------------------------------------


def test_add_and_remove_qubit(rng):
    state = random_state(2, rng)
    grown = add_qubit(state, (1.0, 0.0))
    assert grown.num_qubits == 3
    back = remove_qubit(grown, 2)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_remove_entangled_qubit_rejected():
    bell = apply_gates(PureState.zero(2), [op("H", 0), op("CNOT", 0, 1)])
    with pytest.raises(ValueError, match="definite computational state"):
        remove_qubit(bell, 0)


def test_states_equal_ignores_global_phase(rng):
    state = random_state(2, rng)
    rotated = PureState(2, state.amplitudes * np.exp(1j * 0.83))
    assert states_equal(state, rotated, 1e-12)
    assert not states_equal(state, PureState.from_bits((0, 0)))


@settings(max_examples=60)
@given(st.lists(st.sampled_from(["H", "X", "Y", "Z", "SDG"]), max_size=30),
       st.integers(min_value=0, max_value=997))
def test_random_1q_sequences_preserve_norm(kinds, seed):
    state = random_state(1, np.random.default_rng(seed))
    for kind in kinds:
        state = apply_gate(state, op(kind, 0))
    assert abs(state.norm() - 1.0) < 1e-9
