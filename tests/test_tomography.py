"""Basis rotations, count bookkeeping and linear-inversion reconstruction."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleport_lab.metrics import fidelity
from teleport_lab.protocols import TransportResult
from teleport_lab.tomography import (BASIS_PAIRS, H, PAULI_MATRICES, SDG, pauli_expectations,
                                     reconstruct)

from conftest import random_density_matrix, random_state, trace_distance
from dense_oracle import (GATE_MATRICES, Gate, PureState, apply_gates, basis_rotation,
                          born_probabilities, embed_single, tomography_rotations)

BELL = PureState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
#: The gate matrices of the package, by the names the oracle's `op` takes.
MATRICES = {"H": H, "SDG": SDG, **PAULI_MATRICES}


def exact_probs_from_density(rho: np.ndarray) -> np.ndarray:
    """Oracle distributions: rotate the density matrix and read the diagonal."""
    out = np.empty((len(BASIS_PAIRS), 4))
    eye = np.eye(2, dtype=complex)
    for row, pair in zip(out, BASIS_PAIRS):
        rotated = rho
        for q, axis in enumerate(pair):
            for g in basis_rotation(axis):
                u = np.kron(GATE_MATRICES[g], eye) if q == 1 else np.kron(eye, GATE_MATRICES[g])
                rotated = u @ rotated @ u.conj().T
        row[:] = np.real(np.diag(rotated))
    return out


def apply_matrix(state: PureState, matrix: np.ndarray, qubit: int) -> PureState:
    """A one-qubit matrix on one qubit of a dense state."""
    return PureState(state.num_qubits,
                     embed_single(matrix, qubit, state.num_qubits) @ state.amplitudes)


# --- gate matrices ----------------------------------------------------------------


def test_h_squared_is_identity(rng):
    state = random_state(3, rng)
    out = apply_matrix(apply_matrix(state, H, 1), H, 1)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_gate_algebra_conjugations(rng):
    # HXH = Z and HZH = X, checked by action on random states
    for inner, outer in (("X", "Z"), ("Z", "X")):
        state = random_state(2, rng)
        lhs = apply_matrix(apply_matrix(apply_matrix(state, H, 0), MATRICES[inner], 0), H, 0)
        rhs = apply_matrix(state, MATRICES[outer], 0)
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12


@settings(max_examples=60)
@given(st.lists(st.sampled_from(["H", "X", "Y", "Z", "SDG"]), max_size=30),
       st.integers(min_value=0, max_value=997))
def test_random_1q_sequences_preserve_norm(kinds, seed):
    state = random_state(1, np.random.default_rng(seed))
    for kind in kinds:
        state = apply_matrix(state, MATRICES[kind], 0)
    assert abs(state.norm() - 1.0) < 1e-9


# --- rotations ------------------------------------------------------------------


def test_zz_needs_no_rotation():
    assert tomography_rotations(("Z", "Z"), (0, 1)) == []


def test_xz_rotates_first_qubit_only():
    ops = tomography_rotations(("X", "Z"), (0, 1))
    assert len(ops) == 1
    assert ops[0].kind is Gate.H and ops[0].target == 0


def test_y_rotation_diagonalizes_y():
    # S^dagger then H maps the +i eigenstate of Y onto |0>
    u = H @ SDG
    plus_i = np.array([1, 1j]) / np.sqrt(2)
    assert abs((u @ plus_i)[0]) > 1 - 1e-12


def test_yy_on_bell_is_anticorrelated():
    rotated = apply_gates(BELL, tomography_rotations(("Y", "Y"), (0, 1)))
    probs = born_probabilities(rotated, (0, 1), ("Z", "Z"))
    assert np.allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)


def test_unknown_axis_rejected():
    with pytest.raises(ValueError, match="axis"):
        tomography_rotations(("Q", "Z"), (0, 1))


# --- reconstruction -------------------------------------------------------------


def bell_probs() -> np.ndarray:
    return np.array([born_probabilities(BELL, (0, 1), pair) for pair in BASIS_PAIRS])


def test_reconstruct_bell_exactly():
    probs = bell_probs()
    rho = reconstruct(probs)
    ideal = np.outer(BELL.amplitudes, BELL.amplitudes.conj())
    assert abs(fidelity(rho, ideal) - 1.0) < 1e-9
    assert trace_distance(rho, ideal) < 1e-9


def test_reconstruct_maximally_mixed():
    probs = np.full((len(BASIS_PAIRS), 4), 0.25)
    assert trace_distance(reconstruct(probs), np.eye(4) / 4) < 1e-9


def test_reconstruct_random_states_exactly(rng):
    for _ in range(40):
        rho = random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
        got = reconstruct(exact_probs_from_density(rho))
        assert trace_distance(got, rho) < 1e-9


def test_reconstruct_is_physical(rng):
    # sampled counts produce a PSD unit-trace matrix after projection
    counts = np.array([rng.multinomial(512, p) / 512 for p in bell_probs()])
    rho = reconstruct(counts)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs[0] > -1e-9
    assert abs(np.trace(rho).real - 1) < 1e-9


def test_finite_shot_fidelity_typical(rng):
    probs_exact = bell_probs()
    ideal = np.outer(BELL.amplitudes, BELL.amplitudes.conj())
    fids = []
    for _ in range(100):
        sampled = np.array([rng.multinomial(4096, p) / 4096 for p in probs_exact])
        fids.append(fidelity(reconstruct(sampled), ideal))
    assert min(fids) >= 0.98


def test_identity_expectation_consistency(rng):
    # <IZ> estimated from the (X,Z), (Y,Z), (Z,Z) bases agrees within shot noise
    shots = 20_000
    sampled = np.array([rng.multinomial(shots, p) / shots for p in bell_probs()])
    sign_second = np.array([1, 1, -1, -1])
    estimates = [float(sampled[BASIS_PAIRS.index((first, "Z"))] @ sign_second)
                 for first in ("X", "Y", "Z")]
    sigma = 1 / np.sqrt(shots)
    assert max(estimates) - min(estimates) < 5 * sigma


def test_pauli_expectations_reports_missing_basis():
    # one row per basis pair and four outcomes per row, or the input is rejected
    for shape in [(4,), (1, 4), (8, 4), (9, 3), (4, 9), (2, 3, 3, 4)]:
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 9, 4\)"):
            pauli_expectations(np.full(shape, 0.25))
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 9, 4\)"):
            reconstruct(np.full(shape, 0.25))


def test_expectations_of_bell():
    exp = pauli_expectations(bell_probs())
    assert abs(exp[("X", "X")] - 1.0) < 1e-12
    assert abs(exp[("Y", "Y")] + 1.0) < 1e-12
    assert abs(exp[("Z", "Z")] - 1.0) < 1e-12
    assert abs(exp[("X", "I")]) < 1e-12


# --- counts ---------------------------------------------------------------------


def test_tomography_set_accumulates():
    # outcome keys of a 3-qubit path: the pair is bits 0 and 2, bit 1 is marginalized
    counts = {pair: np.array([[0b010, 1], [0b011, 1], [0b100, 1], [0b111, 1]])
              for pair in BASIS_PAIRS}
    result = TransportResult(3, 4, counts)
    freqs = result.pair_frequencies()
    assert freqs.shape == (len(BASIS_PAIRS), 4)
    assert np.allclose(freqs[BASIS_PAIRS.index(("X", "Y"))], 0.25)
    assert freqs.sum() * result.shots_per_basis == 36
