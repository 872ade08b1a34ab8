"""Transport protocols: identities, categorisation, engines against oracles."""
import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from teleport_lab import protocols, tomography
from teleport_lab.channels import (NoiseModel, confusion_matrix, decay_probabilities,
                                   depolarizing_channel, exact_pair_distributions)
from teleport_lab.harness import path_noise_model
from teleport_lab.metrics import density_from_state, fidelity, negativity
from teleport_lab.pathfinder import edge_weights, find_best_paths, synthesize_device
from teleport_lab.protocols import (MAX_PATH_QUBITS, MODES, PAIR_STATES, ShotBatch,
                                    reachable_configurations, run_idle_pair, run_swap_transport,
                                    run_teleportation, schedule)
from teleport_lab.tomography import BASIS_PAIRS, reconstruct

from conftest import random_state, trace_distance
from dense_oracle import (PAULI_MATRICES, Gate, GateOp, PureState, analytic_swap,
                          analytic_teleportation, apply_gate, apply_gates, born_probabilities,
                          byproduct_sequence, categorize, configuration_unitary,
                          correction_sequence, discriminator, frequencies, idle_kraus,
                          index_of_bits, kraus_oracle, op, phi_p2, postselect,
                          prepare_path_graph_state, remove_qubit, representative_outcomes,
                          schedule_distributions, sequence_unitary, states_equal, teleport_pure,
                          tomography_rotations)

NOISELESS = NoiseModel(dynamic_correction_latency_us=0.0)
#: The engine's matrix of each oracle gate, from the tables of `tomography`.
ENGINE_MATRICES = {Gate.H: tomography.H, Gate.SDG: tomography.SDG,
                   **{Gate(axis): tomography.PAULI_MATRICES[axis] for axis in "XYZ"}}


def noiseless_unitary_states_equal(a, b):
    return states_equal(a, b, 1e-9)


# --- graph state preparation ----------------------------------------------------


def test_two_qubit_graph_state_amplitudes():
    state = prepare_path_graph_state(2)
    assert np.allclose(state.amplitudes, np.array([1, 1, 1, -1]) / 2, atol=1e-12)
    assert np.array_equal(phi_p2(), state.amplitudes)


def test_three_qubit_graph_state_signs():
    state = prepare_path_graph_state(3)
    r8 = 1 / np.sqrt(8)
    # (x0,x1,x2) amplitudes carry the parity of adjacent-ones pairs
    assert abs(state.amplitudes[index_of_bits((1, 1, 0))] + r8) < 1e-12
    assert abs(state.amplitudes[index_of_bits((0, 1, 1))] + r8) < 1e-12
    assert abs(state.amplitudes[index_of_bits((1, 1, 1))] - r8) < 1e-12


def test_graph_state_amplitudes_uniform_modulus():
    for n in (2, 4, 6):
        state = prepare_path_graph_state(n)
        assert np.allclose(np.abs(state.amplitudes), 2 ** (-n / 2), atol=1e-12)


def test_graph_state_rejects_long_paths():
    with pytest.raises(ValueError, match="cap"):
        prepare_path_graph_state(25)


# --- discriminator and corrections ----------------------------------------------


def test_discriminator_fixtures():
    assert discriminator((0, 0, 0)) == (0, 0)
    assert discriminator((1, 0, 1)) == (0, 0)
    assert discriminator((1, 1, 0, 1)) == (1, 0)


def test_reachable_configurations():
    assert reachable_configurations(1) == ((0, 0), (1, 0))
    assert len(reachable_configurations(2)) == 4
    for hops in (1, 2, 3):
        for config in reachable_configurations(hops):
            assert discriminator(representative_outcomes(config, hops)) == config
    with pytest.raises(ValueError, match="unreachable"):
        representative_outcomes((0, 1), 1)


def test_correction_single_hop_is_hadamard():
    ops = correction_sequence((0,))
    assert [o.kind for o in ops] == [Gate.H]


def test_correction_single_hop_with_flip_restores():
    # byproduct X H; applying the correction list (X then H) undoes it
    ops = correction_sequence((1,))
    assert [o.kind for o in ops] == [Gate.X, Gate.H]
    state = teleport_pure(3, (1,))
    restored = apply_gates(state, ops)
    assert noiseless_unitary_states_equal(restored, phi_p2())


def test_sequential_and_simplified_corrections_agree():
    for hops in range(1, 11):
        for s in itertools.product((0, 1), repeat=hops):
            u_full = sequence_unitary(correction_sequence(s))
            u_simple = sequence_unitary(correction_sequence(s, simplified=True))
            overlap = abs(np.trace(u_full.conj().T @ u_simple)) / 2
            assert abs(overlap - 1.0) < 1e-12


def test_byproduct_matches_configuration_unitary():
    for hops in range(1, 9):
        for s in itertools.product((0, 1), repeat=hops):
            u_seq = sequence_unitary(byproduct_sequence(s))
            u_cfg = configuration_unitary(discriminator(s), hops + 2)
            overlap = abs(np.trace(u_seq.conj().T @ u_cfg)) / 2
            assert abs(overlap - 1.0) < 1e-12


# --- teleportation identity ------------------------------------------------------


def test_teleported_state_equals_byproduct_form_exhaustive():
    for hops in range(1, 7):
        for s in itertools.product((0, 1), repeat=hops):
            got = teleport_pure(hops + 2, s)
            want = apply_gates(PureState(2, phi_p2()), byproduct_sequence(s, target=1))
            assert noiseless_unitary_states_equal(got, want)


def test_single_hop_zero_outcome_gives_bell_after_byproduct():
    # the H byproduct of a 0 outcome turns the teleported state into |Phi+>
    state = teleport_pure(3, (0,))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert noiseless_unitary_states_equal(state, PureState(2, bell))


def test_two_hop_trivial_outcomes_return_original():
    state = teleport_pure(4, (0, 0))
    assert noiseless_unitary_states_equal(state, phi_p2())


def test_discriminator_soundness():
    # equal parity pair -> identical state up to phase; different -> distinct
    for hops in range(1, 9):
        groups = {}
        for s in itertools.product((0, 1), repeat=hops):
            groups.setdefault(discriminator(s), []).append(teleport_pure(hops + 2, s))
        assert len(groups) == len(reachable_configurations(hops))
        for config, states in groups.items():
            canon = PAIR_STATES[hops % 2][config]
            for state in states:
                assert noiseless_unitary_states_equal(state, canon)
        configs = list(groups)
        for a, b in itertools.combinations(configs, 2):
            overlap = abs(np.vdot(groups[a][0].amplitudes, groups[b][0].amplitudes))
            assert overlap < 1 - 1e-6


def test_canonical_states_come_read_only_from_one_table():
    # the constant table holds the bits of (I x U_config) |phi(P2)> built with the oracle's gates
    for n in range(2, 10):
        for z, x in reachable_configurations(2):
            built = np.kron(configuration_unitary((z, x), n), np.eye(2, dtype=complex)) @ phi_p2()
            assert PAIR_STATES[n % 2][z][x].tobytes() == built.tobytes()
    assert PAIR_STATES[0][0][0].tobytes() == phi_p2().tobytes()
    assert PAIR_STATES.shape == (2, 2, 2, 4) and PAIR_STATES.dtype == complex
    assert not PAIR_STATES.flags.writeable
    with pytest.raises(ValueError):
        PAIR_STATES[0, 0, 0, 0] = 1.0


# --- analytic runs ---------------------------------------------------------------


def test_analytic_dynamic_is_exact():
    for n in (3, 5, 8):
        out = analytic_teleportation(n, "dynamic")
        rho = reconstruct(out["probs"])
        assert abs(negativity(rho) - 0.5) < 1e-6
        assert abs(fidelity(rho, density_from_state(phi_p2())) - 1.0) < 1e-6


def test_analytic_dynamic_simplified_correction():
    out = analytic_teleportation(6, "dynamic", simplified_correction=True)
    rho = reconstruct(out["probs"])
    assert abs(fidelity(rho, density_from_state(phi_p2())) - 1.0) < 1e-6


def test_analytic_postselect_categories():
    for n in (3, 4, 7):
        out = analytic_teleportation(n, "postselect")
        branches = out["configurations"]
        assert set(branches) == set(reachable_configurations(n - 2))
        for config, payload in branches.items():
            rho = reconstruct(payload["probs"])
            assert abs(negativity(rho) - 0.5) < 1e-6
            ideal = PAIR_STATES[n % 2][config]
            assert abs(fidelity(rho, density_from_state(ideal)) - 1.0) < 1e-6
            assert abs(payload["weight"] - 1.0 / len(branches)) < 1e-12


def test_analytic_swap_is_identity():
    out = analytic_swap()
    rho = reconstruct(out["probs"])
    assert abs(fidelity(rho, density_from_state(phi_p2())) - 1.0) < 1e-9


# --- batch engine against dense oracles -------------------------------------------


def _postselect_joint_oracle(n: int, pair) -> np.ndarray:
    """Exact joint distribution of all measured bits in the deferred circuit."""
    state = prepare_path_graph_state(n)
    for i in range(1, n - 1):
        state = apply_gates(state, [op("H", i)])
    state = apply_gates(state, tomography_rotations(pair, (0, n - 1)))
    return born_probabilities(state, tuple(range(n)), ("Z",) * n)


def test_batch_postselect_matches_dense_joint_distribution():
    n, shots = 4, 20_000
    rng = np.random.default_rng(42)
    result = run_teleportation(n, "postselect", NOISELESS, shots, rng)
    for pair in (("Z", "Z"), ("X", "Y"), ("Y", "X")):
        expected = _postselect_joint_oracle(n, pair)
        counts = np.zeros(1 << n)
        for outcome, c in result.counts_by_basis[pair]:
            counts[outcome] = c
        assert abs(counts.sum() - shots) < 0.5
        for k in range(1 << n):
            sigma = np.sqrt(shots * expected[k] * (1 - expected[k]))
            assert abs(counts[k] - shots * expected[k]) <= 5 * max(sigma, 1.0)


def test_batch_depolarize_matches_exact_channel():
    shots = 200_000
    rng = np.random.default_rng(7)
    batch = ShotBatch([rng], shots, 2)
    batch.add_qubit(0)
    batch.add_qubit(1)
    batch.apply_matrix(0, ENGINE_MATRICES[Gate.H])
    batch.apply_cnot(0, 1)
    before = density_from_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    batch.depolarize([0, 1], 0.2)
    ensemble = np.einsum("is,js->ij", batch._amps, batch._amps.conj()) / shots
    exact = depolarizing_channel(before, (0, 1), 0.2)
    assert trace_distance(ensemble, exact) < 0.01


def test_batch_idle_decay_matches_exact_channel():
    shots = 200_000
    rng = np.random.default_rng(11)
    batch = ShotBatch([rng], shots, 2)
    batch.add_qubit(0)
    batch.add_qubit(1)
    batch.apply_matrix(0, ENGINE_MATRICES[Gate.H])
    batch.apply_cnot(0, 1)
    before = density_from_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    duration, t1, t2 = 10.0, 30.0, 20.0
    for q in (0, 1):
        batch.idle_decay(q, duration, t1, t2)
    ensemble = np.einsum("is,js->ij", batch._amps, batch._amps.conj()) / shots
    exact = before
    for q in (0, 1):
        exact = kraus_oracle(exact, idle_kraus(duration, t1, t2), q)
    assert trace_distance(ensemble, exact) < 0.01


# A 3-qubit window whose path positions differ from their window axes, so a
# primitive that confuses the two fails; each shot holds its own random state.
WINDOW_POSITIONS = (4, 2, 7)


def _random_window(rng: np.random.Generator, shots: int = 8):
    states = [random_state(3, rng) for _ in range(shots)]
    batch = ShotBatch([rng], shots, 3)
    for pos in WINDOW_POSITIONS:
        batch.add_qubit(pos)
    batch._promote()
    batch._amps[:] = np.transpose([s.amplitudes for s in states])
    return batch, states


def _assert_shots_equal(batch: ShotBatch, states):
    want = np.transpose([s.amplitudes for s in states])
    assert batch._amps.shape == want.shape
    assert np.max(np.abs(batch._amps - want)) < 1e-12


def _on_axis(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Dense 3-qubit operator of a 1-qubit matrix on one axis (bit 0 least significant)."""
    return np.kron(np.eye(1 << (2 - axis)), np.kron(matrix, np.eye(1 << axis)))


def test_batch_gates_match_dense_simulator_on_every_axis():
    rng = np.random.default_rng(71)
    for axis, pos in enumerate(WINDOW_POSITIONS):
        for gate in (Gate.H, Gate.X, Gate.Y, Gate.Z, Gate.SDG):
            batch, states = _random_window(rng)
            batch.apply_matrix(pos, ENGINE_MATRICES[gate])
            _assert_shots_equal(batch, [apply_gate(s, GateOp(gate, axis)) for s in states])


def test_batch_two_qubit_gates_match_dense_simulator_in_both_orders():
    rng = np.random.default_rng(72)
    for a, b in itertools.permutations(range(3), 2):
        pa, pb = WINDOW_POSITIONS[a], WINDOW_POSITIONS[b]
        batch, states = _random_window(rng)
        batch.apply_cz(pa, pb)
        _assert_shots_equal(batch, [apply_gate(s, op("CZ", a, b)) for s in states])
        batch, states = _random_window(rng)
        batch.apply_cnot(pa, pb)
        _assert_shots_equal(batch, [apply_gate(s, op("CNOT", a, b)) for s in states])


def test_batch_per_shot_paulis_match_dense_operators():
    rng = np.random.default_rng(73)
    which = np.array([0, 1, 2, 3, 3, 2, 1, 0])
    for axis, pos in enumerate(WINDOW_POSITIONS):
        # every shot listed, identity letters included
        batch, states = _random_window(rng, shots=which.size)
        batch.apply_paulis([pos], np.arange(which.size), which[None])
        want = [PureState(3, _on_axis(PAULI_MATRICES["IXYZ"[w]], axis) @ s.amplitudes)
                for w, s in zip(which, states)]
        _assert_shots_equal(batch, want)
        # only some shots listed; the rest are untouched
        for letter in (1, 2, 3):
            batch, states = _random_window(rng, shots=which.size)
            listed = np.flatnonzero(which == letter)
            batch.apply_paulis([pos], listed, np.full((1, listed.size), letter))
            pauli = _on_axis(PAULI_MATRICES["IXYZ"[letter]], axis)
            want = [PureState(3, pauli @ s.amplitudes) if k in listed else s
                    for k, s in enumerate(states)]
            _assert_shots_equal(batch, want)


def _random_slabs(rng: np.random.Generator, streams: list, slab_shots: int) -> ShotBatch:
    """A batch of one slab per stream whose amplitudes are random numbers from rng."""
    batch = ShotBatch(streams, slab_shots, 3)
    for pos in WINDOW_POSITIONS:
        batch.add_qubit(pos)
    batch._promote()
    batch._amps[:] = rng.normal(size=batch._amps.shape) + 1j * rng.normal(size=batch._amps.shape)
    return batch


def _slab_copy(batch: ShotBatch, slab: int, stream: np.random.Generator) -> ShotBatch:
    """One slab of a batch as a batch of its own, drawing from the given stream."""
    width = batch.slab_shots
    alone = ShotBatch([stream], width, 3)
    for pos in WINDOW_POSITIONS:
        alone.add_qubit(pos)
    alone._promote()
    alone._amps[:] = batch._amps[:, slab * width:(slab + 1) * width]
    return alone


def test_wide_batch_gates_equal_per_slab_batches_bit_for_bit():
    # nine slabs of 1,024 shots, 9,216 columns in all, the widest group
    rng = np.random.default_rng(75)
    for pos in WINDOW_POSITIONS:
        for gate in (Gate.H, Gate.SDG, Gate.X):
            wide = _random_slabs(rng, [rng] * 9, 1024)
            alone = [_slab_copy(wide, b, rng) for b in range(9)]
            wide.apply_matrix(pos, ENGINE_MATRICES[gate])
            for b, one in enumerate(alone):
                one.apply_matrix(pos, ENGINE_MATRICES[gate])
                assert np.array_equal(wide._amps[:, b * 1024:(b + 1) * 1024], one._amps)


def test_slab_gates_and_noise_leave_other_slabs_untouched():
    # a step on some slabs equals the same step on each listed slab alone, drawing
    # from that slab's own stream, and leaves every other column as it was; the
    # listed slabs need not be evenly spaced or in order
    rng = np.random.default_rng(78)
    slabs, width = 5, 300
    for pos in WINDOW_POSITIONS:
        for chosen in ([1], [0, 3], [2, 3, 4], [4, 0, 1], None):
            seeds = np.random.SeedSequence(int(rng.integers(1 << 30))).spawn(slabs)
            wide = _random_slabs(rng, [np.random.default_rng(q) for q in seeds], width)
            before = wide._amps.copy()
            picked = range(slabs) if chosen is None else chosen
            alone = {b: _slab_copy(wide, b, np.random.default_rng(seeds[b])) for b in picked}
            wide.apply_matrix(pos, ENGINE_MATRICES[Gate.SDG], chosen)
            wide.apply_matrix(pos, ENGINE_MATRICES[Gate.H], chosen)
            wide.depolarize([pos], 0.5, slabs=chosen)
            for b in range(slabs):
                cols = slice(b * width, (b + 1) * width)
                if b in alone:
                    one = alone[b]
                    one.apply_matrix(pos, ENGINE_MATRICES[Gate.SDG])
                    one.apply_matrix(pos, ENGINE_MATRICES[Gate.H])
                    one.depolarize([pos], 0.5)
                    assert np.array_equal(wide._amps[:, cols], one._amps)
                    assert not np.array_equal(wide._amps[:, cols], before[:, cols])
                else:
                    assert np.array_equal(wide._amps[:, cols], before[:, cols])


def _every_step(batch: ShotBatch, bits: list, chosen: tuple[int, ...] | None = (1,)):
    """Each kind of engine step, the slab steps on the slabs ``chosen``, yielding after each."""
    h, sdg, confusion = tomography.H, tomography.SDG, confusion_matrix(0.1, 0.2)
    for step in (lambda: batch.add_qubit(0), lambda: batch.add_qubit(1),
                 lambda: batch.apply_matrix(0, h), lambda: batch.apply_cz(0, 1),
                 lambda: batch.add_qubit(2), lambda: batch.apply_matrix(2, h),
                 lambda: batch.apply_cnot(1, 2), lambda: batch.depolarize([1, 2], 0.3),
                 lambda: batch.apply_matrix(2, sdg, chosen),
                 lambda: batch.depolarize([2], 0.5, slabs=chosen),
                 lambda: batch.idle_decay(0, 2.0, 30.0, 25.0),
                 lambda: bits.append(batch.readout(batch.measure_z(1), confusion)),
                 lambda: batch.depolarize([0, 2], 0.4, active=bits[-1] == 1),
                 lambda: batch.apply_paulis([2], np.arange(0, batch.shots, 3),
                                            np.full((1, batch.shots // 3), 2)),
                 lambda: bits.append(batch.measure_z(0))):
        step()
        yield


def test_slabs_draw_as_batches_of_their_own_streams():
    # every drawing step of a three-slab batch, on every slab and on listed ones,
    # gives each slab the amplitudes and bits of a one-slab batch on that slab's stream
    seeds = np.random.SeedSequence(8).spawn(3)
    for chosen in ((1,), (0, 2), (2, 0), None):
        wide, wide_bits = ShotBatch([np.random.default_rng(q) for q in seeds], 300, 3), []
        for _ in _every_step(wide, wide_bits, chosen):
            pass
        for b, seed in enumerate(seeds):
            one, bits = ShotBatch([np.random.default_rng(seed)], 300, 3), []
            on_slab = None if chosen is None or b in chosen else ()
            for _ in _every_step(one, bits, on_slab):
                pass
            cols = slice(b * 300, (b + 1) * 300)
            assert np.array_equal(wide._amps[:, cols], one._amps)
            assert len(bits) == 2
            assert all(np.array_equal(w[cols], o) for w, o in zip(wide_bits, bits))


def test_batches_stepped_in_turn_equal_batches_run_alone():
    # live batches never share a buffer, and batches stepped in turn give
    # the amplitudes and bits of batches run one after the other
    alone = []
    for seed in (1, 2):
        batch, bits = ShotBatch(np.random.default_rng(seed).spawn(2), 300, 3), []
        for _ in _every_step(batch, bits):
            pass
        alone.append((batch._amps.copy(), bits))
    batches = [ShotBatch(np.random.default_rng(seed).spawn(2), 300, 3) for seed in (1, 2)]
    bits = [[], []]
    steps = [_every_step(b, out) for b, out in zip(batches, bits)]
    for _ in zip(*steps):
        assert not any(np.shares_memory(a, b)
                       for a in batches[0]._buffers for b in batches[1]._buffers)
    for batch, batch_bits, (amps, want_bits) in zip(batches, bits, alone):
        assert np.array_equal(batch._amps, amps)
        assert len(batch_bits) == 2
        assert all(np.array_equal(a, b) for a, b in zip(batch_bits, want_bits))


def test_first_sampled_run_allocates_each_buffer_once(monkeypatch):
    # a batch used to copy each buffer into a larger one every time its window
    # grew; now each batch allocates its two for its widest window, and no
    # step replaces them
    seen = {}
    buffer = ShotBatch._buffer

    def recording(self, i, rows, dtype=None):
        view = buffer(self, i, rows, dtype)
        seen.setdefault(self, {}).update((id(b), b) for b in self._buffers)
        return view

    monkeypatch.setattr(ShotBatch, "_buffer", recording)
    noise = path_noise_model(synthesize_device("line:8", seed=2), tuple(range(8)))
    # 2,048 shots run as batches of five and four bases, each taking two float64
    # entries per complex amplitude of its widest window: 3 qubits in every mode,
    # 2 for the idle pair
    for mode in ("idle", *MODES):
        seen.clear()
        if mode == "idle":
            run_idle_pair(3.0, noise, 2048, np.random.default_rng(0))
        elif mode == "swap":
            run_swap_transport(8, noise, 2048, np.random.default_rng(0))
        else:
            run_teleportation(8, mode, noise, 2048, np.random.default_rng(0))
        entries = 8 if mode == "idle" else 16
        assert [[(b.dtype, b.size) for b in buffers.values()] for buffers in seen.values()] == [
            [(np.float64, entries * bases * 2048)] * 2 for bases in (5, 4)], mode


def test_batch_drop_qubit_matches_dense_removal():
    # the fused measurement leaves each shot equal to the dense collapse onto
    # that shot's bit followed by removal of the measured qubit
    rng = np.random.default_rng(74)
    for axis, pos in enumerate(WINDOW_POSITIONS):
        batch, states = _random_window(rng, shots=16)
        bits = batch.measure_z(pos)
        assert 0 < bits.sum() < bits.size
        want = [remove_qubit(postselect(s, axis, "Z", int(bit))[0], axis)
                for s, bit in zip(states, bits)]
        _assert_shots_equal(batch, want)
        rest = [p for p in WINDOW_POSITIONS if p != pos]
        assert batch.axis_of == {p: i for i, p in enumerate(rest)}


def test_batch_measure_bits_follow_born_rule_on_every_axis():
    rng = np.random.default_rng(75)
    shots = 20_000
    state = random_state(3, rng)
    for axis, pos in enumerate(WINDOW_POSITIONS):
        batch = ShotBatch([rng], shots, 3)
        for p in WINDOW_POSITIONS:
            batch.add_qubit(p)
        batch._promote()
        batch._amps[:] = state.amplitudes[:, None]
        p1 = born_probabilities(state, (axis,), ("Z",))[1]
        ones = int(batch.measure_z(pos).sum())
        assert abs(ones - shots * p1) < 5 * np.sqrt(shots * p1 * (1 - p1))


def test_batch_measure_collapses_and_renormalizes():
    # measuring one half of a Bell pair removes it and leaves the partner,
    # renormalized, in the recorded bit, so measuring the partner repeats it
    rng = np.random.default_rng(3)
    batch = ShotBatch([rng], 1000, 2)
    batch.add_qubit(0)
    batch.add_qubit(1)
    batch.apply_matrix(0, ENGINE_MATRICES[Gate.H])
    batch.apply_cnot(0, 1)
    bits = batch.measure_z(0)
    assert set(np.unique(bits)) == {0, 1}
    assert batch.axis_of == {1: 0}
    norms = np.linalg.norm(batch._amps, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(batch._amps[bits, np.arange(bits.size)]) - 1.0)) < 1e-12
    again = batch.measure_z(1)
    assert np.array_equal(bits, again)
    assert batch.axis_of == {} and batch.dim == 1


def test_batch_two_qubit_depolarize_at_p1_applies_one_non_identity_string():
    # each shot gets exactly one of the 15 non-identity Pauli strings on the
    # two targets, identity letters leave their qubit alone, and all 15 occur
    rng = np.random.default_rng(76)
    for a, b in itertools.permutations(range(3), 2):
        batch, states = _random_window(rng, shots=240)
        batch.depolarize([WINDOW_POSITIONS[a], WINDOW_POSITIONS[b]], 1.0)
        strings = [(la, lb) for la in "IXYZ" for lb in "IXYZ" if (la, lb) != ("I", "I")]
        ops = [_on_axis(PAULI_MATRICES[la], a) @ _on_axis(PAULI_MATRICES[lb], b)
               for la, lb in strings]
        seen = set()
        for got, s in zip(batch._amps.T, states):
            match = [k for k, o in enumerate(ops)
                     if np.max(np.abs(got - o @ s.amplitudes)) < 1e-12]
            assert len(match) == 1
            seen.add(match[0])
        assert seen == set(range(len(strings)))


@pytest.mark.parametrize("strings", [3, 15, 63])
@pytest.mark.parametrize("size", [1, 299, 300, 1024])
def test_words_are_those_of_integers_on_twin_streams(strings, size):
    # each listed slab's words are integers(0, strings, size) on a twin of its
    # stream, for slabs in any order, none listed, and uniforms drawn in between
    # (an odd size leaves half of a raw output over, an even one none); words are
    # computed at the hits only, and every slab still draws for all of its shots
    seeds = np.random.SeedSequence([strings, size]).spawn(3)
    batch = ShotBatch([np.random.default_rng(seed) for seed in seeds], size, 1)
    twins = [np.random.default_rng(seed) for seed in seeds]
    for k, slabs in enumerate(([2, 0], [], [1], [0, 1, 2], [1, 2, 0], [2], [0, 2, 1])):
        want = np.concatenate([np.empty(0, np.int64),
                               *(twins[s].integers(0, strings, size=size) for s in slabs)])
        hits = np.arange(0, want.size, 1 + k % 3)
        assert np.array_equal(batch._words(strings, slabs, hits), want[hits])
        for s, twin in enumerate(twins):
            assert np.array_equal(batch.streams[s].random(s + k), twin.random(s + k))
    assert [stream.random() for stream in batch.streams] == [twin.random() for twin in twins]


class _RawStub:
    """A stream whose bit generator returns the given 64-bit outputs in turn."""

    def __init__(self, raws):
        self.raws, self.drawn = raws, 0
        self.bit_generator = self

    def random_raw(self, size):
        self.drawn += size
        assert self.drawn <= len(self.raws)
        return np.array(self.raws[self.drawn - size:self.drawn], np.uint64)


def _lemire_words(halves: list[int], start: int, strings: int, count: int):
    """`count` words in [0, strings) from halves[start:] by Lemire's method, and the next index."""
    words, i = [], start
    while len(words) < count:
        m, i = halves[i] * strings, i + 1
        if m % (1 << 32) >= (1 << 32) % strings:
            words.append(m >> 32)
    return words, i


def _halves_of(raws) -> list[int]:
    """The 32-bit halves of 64-bit outputs, low half first."""
    return [h for r in map(int, raws) for h in (r & 0xFFFFFFFF, r >> 32)]


@pytest.mark.parametrize("strings", [3, 15, 63])
def test_words_reject_the_halves_lemire_rejects(strings):
    # halves with h * strings mod 2^32 below 2^32 mod strings (h = 0 for 3 and 15
    # strings, four values for 63) are skipped for the next, in runs, at either
    # end of a draw and in the half an odd count leaves over; the batch reads the
    # words and the number of raw outputs of a pure-Python reference
    rng = np.random.default_rng(strings)
    rejected = [r * pow(strings, -1, 1 << 32) % (1 << 32) for r in range((1 << 32) % strings)]
    assert len(rejected) == (1 if strings < 63 else 4)
    # the reference draws what integers draws from the halves of a real stream
    real = _halves_of(np.random.default_rng(5).bit_generator.random_raw(8))
    assert _lemire_words(real, 0, strings, 15)[0] == list(
        np.random.default_rng(5).integers(0, strings, 15))
    halves = [[int(rng.choice(rejected)) if rng.random() < 0.4 else int(h)
               for h in rng.integers(0, 1 << 32, size=400)] for _ in range(2)]
    stubs = [_RawStub([lo | hi << 32 for lo, hi in zip(h[::2], h[1::2])]) for h in halves]
    read = [0, 0]  # halves the reference has read, per stream
    batch = ShotBatch(stubs, 5, 1)
    for slabs in ([1, 0], [0], [1], [], [0, 1], [1, 0], [0, 1], [0]):
        want = []
        for s in slabs:
            words, read[s] = _lemire_words(halves[s], read[s], strings, 5)
            want += words
        assert batch._words(strings, slabs, np.arange(5 * len(slabs))).tolist() == want
        assert [stub.drawn for stub in stubs] == [(n + 1) // 2 for n in read]
    assert any(h in rejected for h in halves[0][:read[0]])


def _where_half(v0, v1, bits, out):
    """`protocols._keep_half` as a masked select."""
    np.copyto(out, np.where(bits == 1, v1, v0))
    return out


def _signed_zeros(rng: np.random.Generator, parts: np.ndarray):
    """Set about a quarter of the entries to +0.0 and another quarter to -0.0, in place."""
    draw = rng.integers(4, size=parts.shape)
    parts[draw == 0] = 0.0
    parts[draw == 1] = -0.0


@pytest.mark.parametrize("storage", [np.float64, np.complex128])
def test_measure_blend_equals_a_masked_select_bit_for_bit(storage, monkeypatch):
    # measure_z keeps each shot's half as v1 b + v0 (1 - b); on every axis, in
    # real and in complex storage, that gives the bits of np.where(bits, v1, v0)
    # up to the sign of a zero, among amplitudes that hold zeros of both signs
    rng = np.random.default_rng(79)
    blend = protocols._keep_half
    for axis, pos in enumerate(WINDOW_POSITIONS):
        amps = rng.normal(size=(8, 512)).astype(storage)
        if storage == np.complex128:
            amps += 1j * rng.normal(size=amps.shape)
        # rows 0 and 7 stay nonzero, so each half of every axis keeps some weight
        for parts in (amps.real, amps.imag) if storage == np.complex128 else (amps,):
            _signed_zeros(rng, parts[1:7])
        amps /= np.linalg.norm(amps, axis=0)
        got = []
        for keep in (blend, _where_half):
            monkeypatch.setattr(protocols, "_keep_half", keep)
            batch = ShotBatch([np.random.default_rng(axis)], 512, 3)
            for p in WINDOW_POSITIONS:
                batch.add_qubit(p)
            if storage == np.complex128:
                batch._promote()
            batch._amps[:] = amps
            got.append((batch.measure_z(pos), batch._amps.copy()))
        (bits, kept), (want_bits, want) = got
        assert 0 < bits.sum() < bits.size
        assert np.array_equal(bits, want_bits)
        assert kept.dtype == storage and kept.shape == (4, 512)
        assert np.count_nonzero(kept == 0) > 0
        # adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is
        assert (kept + 0.0).tobytes() == (want + 0.0).tobytes()
        assert np.abs(kept).tobytes() == np.abs(want).tobytes()


def test_measure_blend_differs_from_a_masked_select_only_in_the_sign_of_zero():
    # the one difference: a kept -0.0 beside a dropped +0.0 sums to +0.0; the
    # two products go over the halves, and their sum into out
    v0, v1, out = np.array([-0.0, -0.0]), np.array([0.0, -1.0]), np.empty(2)
    assert np.where([False, False], v1, v0).tobytes() == np.array([-0.0, -0.0]).tobytes()
    kept = protocols._keep_half(v0, v1, np.array([0, 0], dtype=np.int8), out)
    assert kept is out and kept.tobytes() == np.array([0.0, -0.0]).tobytes()
    assert v1.tobytes() == np.array([0.0, -0.0]).tobytes()
    assert v0.tobytes() == np.array([-0.0, -0.0]).tobytes()


def test_real_storage_y_letter_is_minus_i_times_the_dense_y():
    # real storage drops the factor i of a Y letter, exactly: -iY = [[0, -1], [1, 0]]
    rng = np.random.default_rng(80)
    for axis, pos in enumerate(WINDOW_POSITIONS):
        amps = rng.normal(size=(8, 64))
        batch = ShotBatch([rng], 64, 3)
        for p in WINDOW_POSITIONS:
            batch.add_qubit(p)
        batch._amps[:] = amps
        batch.apply_paulis([pos], np.arange(64), np.full((1, 64), 2))
        want = -1j * (_on_axis(PAULI_MATRICES["Y"], axis) @ amps)
        assert batch._amps.dtype == np.float64
        assert np.array_equal(want.imag, np.zeros_like(amps))
        assert np.array_equal(batch._amps, want.real)


class _ScriptedUniforms:
    """Stands in for a Generator whose `random` calls fill in preset arrays."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self, out):
        draw = self._draws.pop(0)
        assert out.shape == draw.shape
        out[:] = draw


def test_batch_idle_decay_forced_branches_match_normalized_kraus_operators():
    rng = np.random.default_rng(77)
    duration, t1, t2 = 10.0, 30.0, 20.0
    gamma, p_z = decay_probabilities(duration, t1, t2)
    assert gamma > 0 and p_z > 0
    k0 = np.diag([1.0, np.sqrt(1.0 - gamma)])  # the amplitude-damping Kraus pair
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    jump = np.array([1, 0, 0, 1, 1, 0, 1, 0], dtype=bool)
    flip = np.array([0, 0, 1, 1, 0, 1, 1, 0], dtype=bool)
    for axis, pos in enumerate(WINDOW_POSITIONS):
        batch, states = _random_window(rng, shots=jump.size)
        # uniforms of 0 force a branch and uniforms of 1 forbid it
        batch.streams = [_ScriptedUniforms(np.where(jump, 0.0, 1.0), np.where(flip, 0.0, 1.0))]
        batch.idle_decay(pos, duration, t1, t2)
        want = []
        for s, j, f in zip(states, jump, flip):
            v = _on_axis(k1 if j else k0, axis) @ s.amplitudes
            v = v / np.linalg.norm(v)
            if f:
                v = _on_axis(PAULI_MATRICES["Z"], axis) @ v
            want.append(PureState(3, v))
        _assert_shots_equal(batch, want)


# --- sampled runs -----------------------------------------------------------------


def test_sampled_noiseless_dynamic_close_to_ideal():
    rng = np.random.default_rng(0)
    result = run_teleportation(5, "dynamic", NOISELESS, 4096, rng)
    rho = reconstruct(result.pair_frequencies())
    assert negativity(rho) > 0.47
    assert fidelity(rho, density_from_state(phi_p2())) > 0.97


def test_sampled_noiseless_postselect_categories():
    rng = np.random.default_rng(1)
    result = run_teleportation(4, "postselect", NOISELESS, 4096, rng)
    categories = categorize(result)
    assert set(categories) == set(reachable_configurations(2))
    for config, counts in categories.items():
        rho = reconstruct(frequencies(counts))
        assert negativity(rho) > 0.45
        ideal = PAIR_STATES[0][config]
        assert fidelity(rho, density_from_state(ideal)) > 0.95


def test_categorize_matches_manual_classification():
    rng = np.random.default_rng(5)
    result = run_teleportation(5, "postselect", NOISELESS, 512, rng)
    categories = categorize(result)
    manual = {}
    for pair, counts in result.counts_by_basis.items():
        for outcome, c in counts.tolist():
            s = tuple((outcome >> pos) & 1 for pos in (1, 2, 3))
            key = discriminator(s)
            manual[key] = manual.get(key, 0) + c
    for config, counts in categories.items():
        assert counts.sum() == manual.get(config, 0)


def test_swap_noiseless_keeps_intermediates_in_ground():
    rng = np.random.default_rng(9)
    result = run_swap_transport(5, NOISELESS, 2048, rng)
    for counts in result.counts_by_basis.values():
        for outcome in counts[:, 0].tolist():
            for pos in (1, 2, 3):
                assert (outcome >> pos) & 1 == 0
    rho = reconstruct(result.pair_frequencies())
    assert negativity(rho) > 0.47
    assert fidelity(rho, density_from_state(phi_p2())) > 0.97


def test_swap_degrades_faster_than_postselect_under_gate_noise():
    noise = NoiseModel(two_qubit_depol=0.01, dynamic_correction_latency_us=0.0)
    rng = np.random.default_rng(21)
    hops = 4
    swap = run_swap_transport(hops + 2, noise, 4096, rng)
    n_swap = negativity(reconstruct(swap.pair_frequencies()))
    post = run_teleportation(hops + 2, "postselect", noise, 4096, rng)
    negs = [negativity(reconstruct(frequencies(c))) for c in categorize(post).values()]
    assert n_swap < float(np.mean(negs))


def test_dynamic_latency_costs_negativity():
    quiet = NoiseModel(dynamic_correction_latency_us=0.0)
    slow = NoiseModel(dynamic_correction_latency_us=2.0, t1_us=33.0, t2_us=25.0)
    rng_a = np.random.default_rng(33)
    rng_b = np.random.default_rng(33)
    fast_run = run_teleportation(5, "dynamic", quiet, 2048, rng_a)
    slow_run = run_teleportation(5, "dynamic", slow, 2048, rng_b)
    n_fast = negativity(reconstruct(fast_run.pair_frequencies()))
    n_slow = negativity(reconstruct(slow_run.pair_frequencies()))
    assert n_slow < n_fast - 0.05


def test_simplified_correction_sampled_and_cheaper():
    # constant-depth correction restores the pair and pays one idle layer
    # instead of one per hop
    noise = NoiseModel(dynamic_correction_latency_us=2.0, t1_us=33.0, t2_us=25.0)
    quiet = NoiseModel(dynamic_correction_latency_us=0.0)
    rng = np.random.default_rng(44)
    exact = run_teleportation(5, "dynamic", quiet, 2048, rng,
                              simplified_correction=True)
    n_exact = negativity(reconstruct(exact.pair_frequencies()))
    assert n_exact > 0.45
    sequential = run_teleportation(5, "dynamic", noise, 2048,
                                   np.random.default_rng(45))
    simplified = run_teleportation(5, "dynamic", noise, 2048,
                                   np.random.default_rng(45), simplified_correction=True)
    n_seq = negativity(reconstruct(sequential.pair_frequencies()))
    n_simp = negativity(reconstruct(simplified.pair_frequencies()))
    assert n_simp > n_seq + 0.05


def test_flipped_intermediate_readout_swaps_categories():
    # an always-flipping readout on the first intermediate inverts the
    # recorded Z parity, so each category collects the opposite-parity state
    always_flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    noise = NoiseModel(dynamic_correction_latency_us=0.0,
                       readout=[np.eye(2), always_flip, np.eye(2), np.eye(2)])
    rng = np.random.default_rng(6)
    result = run_teleportation(4, "postselect", noise, 4096, rng)
    for config, counts in categorize(result).items():
        rho = reconstruct(frequencies(counts))
        actual = PAIR_STATES[0][config[0] ^ 1, config[1]]
        assert fidelity(rho, density_from_state(actual)) > 0.95


def test_dynamic_corrections_follow_noisy_readout():
    # strong readout error on the intermediate qubit corrupts the correction
    bad_readout = NoiseModel(dynamic_correction_latency_us=0.0,
                             readout=[np.eye(2), confusion_matrix(0.4, 0.4), np.eye(2)])
    rng = np.random.default_rng(17)
    result = run_teleportation(3, "dynamic", bad_readout, 4096, rng)
    rho = reconstruct(result.pair_frequencies())
    assert fidelity(rho, density_from_state(phi_p2())) < 0.85


def test_idle_pair_matches_exact_channel_under_noise():
    # gate depolarizing, readout flips and T1/T2 decay together: every
    # basis's counts against the exact channel applied to the same pair
    noise = NoiseModel(one_qubit_depol=0.01, two_qubit_depol=0.05, t1_us=30.0, t2_us=20.0,
                       readout=[confusion_matrix(0.03, 0.06), confusion_matrix(0.05, 0.02)])
    delay, shots = 6.0, 20_000
    result = run_idle_pair(delay, noise, shots, np.random.default_rng(19))
    exact = exact_pair_distributions(noise, delay)
    for pair, probs in zip(BASIS_PAIRS, exact):
        counts = dict(result.counts_by_basis[pair].tolist())
        assert sum(counts.values()) == shots
        for k in range(4):
            sigma = np.sqrt(shots * probs[k] * (1 - probs[k]))
            assert abs(counts.get(k, 0) - shots * probs[k]) <= 5 * max(sigma, 1.0)


def _raised_device_noise(n: int) -> NoiseModel:
    """Noise of the best n-qubit `neg` path of the seed-7 heavy-hex device, every rate raised.

    Gate errors are five times the device's (one-qubit depolarizing 0.01),
    T1 and T2 are shortened by a factor growing along the path, and readout
    flips are six times the device's, so each record of a schedule moves
    the key distributions by many standard errors.
    """
    device = synthesize_device("heavy-hex-127", seed=7)
    best = find_best_paths(edge_weights(device, "neg"), n, 1)[0]
    noise = path_noise_model(device, best.qubits)
    return dataclasses.replace(
        noise, one_qubit_depol=0.02,
        two_qubit_depol=[10 * p for p in noise.two_qubit_depol],
        t1_us=[t / (3 + q) for q, t in enumerate(noise.t1_us)],
        t2_us=[t / (3 + q) for q, t in enumerate(noise.t2_us)],
        readout=[confusion_matrix(6 * a[1, 0], 6 * a[0, 1]) for a in noise.readout])


@pytest.mark.parametrize("n, case", [(2, "idle")] + [
    (n, case) for n in (3, 4, 5)
    for case in ("dynamic", "dynamic-simplified", "postselect", "swap")])
def test_sampled_keys_match_exact_schedule_under_device_noise(n, case):
    # every key of the full outcome (intermediate reads and the pair) in
    # every basis, against the dense interpretation of the same schedule
    mode, _, simplified = case.partition("-")
    noise, shots, rng = _raised_device_noise(n), 20_000, np.random.default_rng(100 + n)
    if mode == "idle":
        result = run_idle_pair(3.0, noise, shots, rng)
    elif mode == "swap":
        result = run_swap_transport(n, noise, shots, rng)
    else:
        result = run_teleportation(n, mode, noise, shots, rng,
                                   simplified_correction=bool(simplified))
    exact = schedule_distributions(schedule(n, mode, noise, bool(simplified), delay_us=3.0))
    assert np.allclose(exact.sum(axis=1), 1.0)
    for pair, probs in zip(BASIS_PAIRS, exact):
        counts = dict(result.counts_by_basis[pair].tolist())
        assert set(counts) <= set(np.flatnonzero(probs))
        for key, prob in enumerate(probs):
            sigma = np.sqrt(shots * prob * (1 - prob))
            assert abs(counts.get(key, 0) - shots * prob) <= 5 * max(sigma, 1.0), (pair, key)


_STORAGE_CASES = [("dynamic", False), ("dynamic", True), ("postselect", False), ("swap", False),
                  ("idle", False)]


@pytest.mark.parametrize("hops", [1, 2, 3, 4, 5])
def test_real_storage_gives_the_keys_of_complex_storage(hops, monkeypatch):
    # a schedule whose first gate is a global phase i runs in complex storage from
    # its start and must give the keys of the plain schedule bit for bit, in every
    # mode under device noise; a plain schedule's batch promotes exactly once, in
    # the tomography layer, so a complex record added earlier cannot pass unseen
    noise, n = _raised_device_noise(hops + 2), hops + 2
    plain_schedule, apply_matrix, promote = schedule, ShotBatch.apply_matrix, ShotBatch._promote
    init, events, in_tomography = ShotBatch.__init__, [], [False]

    def phase_first(*args, **kwargs):
        steps = plain_schedule(*args, **kwargs)
        return (steps[0], ("gate", steps[0][1], 1j * np.eye(2)), *steps[1:])

    def recording_init(self, *args):
        events.append("batch")
        init(self, *args)

    def recording_promote(self):
        events.append("tomography" if in_tomography[0] else "promote")
        promote(self)

    def recording_apply_matrix(self, pos, matrix, slabs=None):
        # only the tomography layer lists slabs
        in_tomography[0] = slabs is not None
        try:
            apply_matrix(self, pos, matrix, slabs)
        finally:
            in_tomography[0] = False

    monkeypatch.setattr(ShotBatch, "__init__", recording_init)
    monkeypatch.setattr(ShotBatch, "_promote", recording_promote)
    monkeypatch.setattr(ShotBatch, "apply_matrix", recording_apply_matrix)
    for shots, groups in ((300, 1), (2048, 2)):
        for mode, simplified in _STORAGE_CASES:
            results = {}
            for name, steps in (("plain", plain_schedule), ("phase", phase_first)):
                monkeypatch.setattr(protocols, "schedule", steps)
                events.clear()
                results[name] = protocols._sample(n, mode, noise, shots,
                                                  np.random.default_rng(hops), simplified, 3.0)
                want = "tomography" if name == "plain" else "promote"
                assert events == ["batch", want] * groups, (mode, simplified, shots, name)
            for pair in BASIS_PAIRS:
                assert np.array_equal(results["plain"].counts_by_basis[pair],
                                      results["phase"].counts_by_basis[pair]), (mode, pair)


def test_batch_sizing_and_promotion_follow_one_rule(monkeypatch):
    # the buffers are sized by the most qubits live at once, whatever the bases;
    # apply_matrix alone reads the records for complex matrices: bases that rotate
    # no qubit into Y apply none and stay real, and one Y basis promotes once
    sized, promotions = [], []
    init, promote = ShotBatch.__init__, ShotBatch._promote

    def recording_init(self, streams, slab_shots, window):
        sized.append(window)
        init(self, streams, slab_shots, window)

    def recording_promote(self):
        promotions.append(self.dim)
        promote(self)

    monkeypatch.setattr(ShotBatch, "__init__", recording_init)
    monkeypatch.setattr(ShotBatch, "_promote", recording_promote)
    steps = schedule(4, "dynamic", _raised_device_noise(4))
    for bases, dims in (([("X", "X"), ("Z", "X"), ("Z", "Z")], []),
                        ([("X", "Z"), ("X", "Y")], [4])):
        sized.clear()
        promotions.clear()
        protocols._sample_group(steps, bases, np.random.default_rng(0).spawn(len(bases)), 64)
        assert sized == [3] and promotions == dims, bases


@pytest.mark.parametrize("mode", MODES)
def test_unevenly_spaced_bases_draw_as_one_basis_batches(mode):
    # in this order the bases rotating the last qubit into X sit in slabs 0, 1 and 3,
    # which no slice selects; each slab must still get the keys of a batch of its
    # basis alone on its own stream, under device noise
    bases = [("X", "X"), ("Y", "X"), ("Z", "Y"), ("Z", "X")]
    steps = schedule(4, mode, _raised_device_noise(4))
    keys = protocols._sample_group(steps, bases, np.random.default_rng(6).spawn(4), 256)
    for b, (pair, stream) in enumerate(zip(bases, np.random.default_rng(6).spawn(4))):
        alone = protocols._sample_group(steps, [pair], [stream], 256)
        assert np.array_equal(keys[b * 256:(b + 1) * 256], alone), pair


def test_exact_schedule_matches_pure_state_oracle_without_noise():
    # the dense interpreter against the independent pure-state route
    for n in (3, 4, 5):
        exact = schedule_distributions(schedule(n, "postselect", NOISELESS))
        for pair, probs in zip(BASIS_PAIRS, exact):
            assert np.max(np.abs(probs - _postselect_joint_oracle(n, pair))) < 1e-12


def test_idle_pair_run():
    rng = np.random.default_rng(2)
    still = run_idle_pair(0.0, NOISELESS, 2048, rng)
    rho = reconstruct(still.pair_frequencies())
    assert negativity(rho) > 0.47
    decayed = run_idle_pair(200.0, NoiseModel(t1_us=33.0, t2_us=25.0), 2048, rng)
    rho = reconstruct(decayed.pair_frequencies())
    assert negativity(rho) < 0.1


# Digests of the sorted counts recorded before the engine's storage layout
# changed; a change to the order or size of any random draw changes them.
DIGEST_NOISE = NoiseModel(one_qubit_depol=0.01, two_qubit_depol=0.03, t1_us=30.0, t2_us=20.0,
                          dynamic_correction_latency_us=1.5,
                          readout=[confusion_matrix(0.02 + 0.005 * q, 0.04 - 0.003 * q)
                                   for q in range(7)])
COUNT_DIGESTS = {
    "dynamic": "c3528f0b31e7c62301bfef53c7acb8bd6178fc65b670be614d37ca70e3423aea",
    "dynamic-simplified": "9e68bfc4e55cea718910f0104fb87d4c4a1ac88b51814922d9004192baa16291",
    "postselect": "a71899eb247cd3e44d2272f6e6505b2e49151ea14077c10a2d05a53ee4a3210f",
    "swap": "f2624dfc7a6ebd17c5450bbc7944470559bcac7246714cb593ebf3fe8c5a2e97",
    "idle": "f7a6857bba3db51938cb70a7ee7d28b1f65c1840194e32c738c6b20748faa5df",
}


# Digests at shot counts that split the nine bases into a group of five and
# one of four, recorded with one batch per basis before the bases were
# sampled in groups.
MULTI_GROUP_DIGESTS = {
    ("dynamic", 1500): "3bfa9e2d8d227d3f856440fba408828bb6b21c5d7850238da159ae600c6e4475",
    ("dynamic", 2048): "688eaeaf0fafbf4deda2697c1bec82176455e5fd1a52e4bbb0bcc05429bd977f",
    ("dynamic-simplified", 1500):
        "f793ee648c47dee289b8c678d12f0442f7226e5b57a940f68a82d342294d95ed",
    ("dynamic-simplified", 2048):
        "2808fe3ee1d107d954012a468fc71690ea685a2ae7b5d7dc2df115ed6d3a52ea",
    ("idle", 1500): "ff08d8dc7d5b4678c2d34dc4325c3c046eccc6d27dce2bf5075e9077552a593c",
    ("idle", 2048): "603493c6cbb2e2490f919f0b2071cd441476e8f017ebec14cec09d59f38f0309",
    ("postselect", 1500): "81953015fc146e97d65daa22e97b0d4444fd49168e13414c5714bc690426ec94",
    ("postselect", 2048): "d1e7c17fe148da137bd2388cc075b8f75a490e45a710f079fc101af205dfe6c2",
    ("swap", 1500): "ad3c4b35ef39f900bc23c3f46a08409cd84bee0c703c96722d66084bc1471d1d",
    ("swap", 2048): "0bccf20ebd88dd701172a248db00e552df1eaaf77f0fd1df3c1b5d983387edf6",
}


# Digests at an odd shot count, recorded while each word was drawn by
# `Generator.integers`: a draw of an odd number of words leaves half of a
# 64-bit output for the slab's next draw, which the even counts above never do.
ODD_SHOT_DIGESTS = {
    "dynamic": "6bb68c19d8c3f1d915dbd893ed05c608c16b63cc849e921dd7d35818c5e20d21",
    "dynamic-simplified": "0d365cd242baad1f0aa959e41eef2fdc33172ea8433066c4a1e437e181684956",
    "idle": "70cf5be78513fafb9a444fe80536bd9a8fb7c5dbd8b45685e9e1f6735d077918",
    "postselect": "ca4c521995b095bc6c8ace4806b009ef7f8c3cc56e83fc1b6e5259f26cc414d5",
    "swap": "bd7107d712503d72240580c7a704553833845936d73140c52f8d206f5bff9044",
}


def _sampled_for_digest(case: str, size: int, shots: int):
    rng = np.random.default_rng(1000 + size)
    if case == "idle":
        return run_idle_pair(float(size), DIGEST_NOISE, shots, rng)
    if case == "swap":
        return run_swap_transport(size, DIGEST_NOISE, shots, rng)
    mode, _, simplified = case.partition("-")
    return run_teleportation(size, mode, DIGEST_NOISE, shots, rng,
                             simplified_correction=bool(simplified))


def _counts_digest(case: str, shots: int) -> str:
    # n = 3 and 7 for the transport modes, delays of 3 and 7 us for the idle pair
    results = [_sampled_for_digest(case, size, shots) for size in (3, 7)]
    counts = [sorted((pair, [(int(key), int(hits)) for key, hits in c])
                     for pair, c in r.counts_by_basis.items())
              for r in results]
    return hashlib.sha256(repr(counts).encode()).hexdigest()


def _assert_count_rows(result: protocols.TransportResult):
    """Every basis holds int64 (key, count) rows, keys strictly ascending."""
    assert list(result.counts_by_basis) == list(BASIS_PAIRS)
    for rows in result.counts_by_basis.values():
        assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 2
        keys, counts = rows.T
        assert np.all(np.diff(keys) > 0) and keys.min() >= 0 and keys.max() < 1 << result.n
        assert counts.min() >= 1 and counts.sum() == result.shots_per_basis
        assert len(rows) == np.unique(keys).size


@pytest.mark.parametrize("case", ["dynamic", "dynamic-simplified", "postselect", "swap"])
def test_counts_are_ascending_key_rows(case):
    for hops in (1, 2, 3):
        _assert_count_rows(_sampled_for_digest(case, hops + 2, 300))
    if case == "postselect":
        # at 19 hops nearly every shot is its own outcome
        noise = NoiseModel(one_qubit_depol=0.01, two_qubit_depol=0.03)
        longest = run_teleportation(21, case, noise, 2048,
                                    np.random.default_rng(21))
        _assert_count_rows(longest)
        assert min(len(rows) for rows in longest.counts_by_basis.values()) > 2000


@pytest.mark.parametrize("case", sorted(COUNT_DIGESTS))
def test_sampled_counts_match_recorded_digest(case):
    assert _counts_digest(case, 300) == COUNT_DIGESTS[case]


@pytest.mark.parametrize("case, shots", sorted(MULTI_GROUP_DIGESTS))
def test_multi_group_counts_match_recorded_digest(case, shots):
    assert _counts_digest(case, shots) == MULTI_GROUP_DIGESTS[(case, shots)]


@pytest.mark.parametrize("case", sorted(ODD_SHOT_DIGESTS))
def test_odd_shot_counts_match_recorded_digest(case):
    assert _counts_digest(case, 301) == ODD_SHOT_DIGESTS[case]


# --- interfaces -------------------------------------------------------------------


def test_run_argument_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="shot budget"):
        run_teleportation(4, "dynamic", NOISELESS, 0, rng)
    with pytest.raises(ValueError, match="mode"):
        run_teleportation(4, "both", NOISELESS, 16, rng)
    # a path length below 3, above the longest or of no int type is rejected at the entry points
    for n, match in ((2, "intermediate"), (MAX_PATH_QUBITS + 1, "64-bit outcome keys"),
                     (True, "path length must be an integer"),
                     (3.0, "path length must be an integer")):
        with pytest.raises(ValueError, match=match):
            run_teleportation(n, "dynamic", NOISELESS, 16, rng)
        with pytest.raises(ValueError, match=match):
            run_swap_transport(n, NOISELESS, 16, rng)


def test_paths_beyond_int64_outcome_keys_are_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="64-bit outcome keys"):
        run_teleportation(70, "postselect", NOISELESS, 4, rng)
    with pytest.raises(ValueError, match="64-bit outcome keys"):
        run_swap_transport(70, NOISELESS, 4, rng)
    longest = run_teleportation(MAX_PATH_QUBITS, "postselect", NOISELESS, 4, rng)
    keys = [k for counts in longest.counts_by_basis.values() for k in counts[:, 0]]
    assert min(keys) >= 0 and max(keys) < 1 << MAX_PATH_QUBITS


def test_teleport_pure_argument_check():
    with pytest.raises(ValueError, match="outcomes"):
        teleport_pure(4, (0,))
