"""Negativity, fidelity and the nearest-physical-state projection."""
import numpy as np
import pytest

from teleport_lab.metrics import (check_density_matrix, density_from_state, fidelity,
                                  hermitian_eigensystem, michelot_project, nearest_physical,
                                  negativity, partial_transpose)
from teleport_lab.tomography import reconstruct

from conftest import random_density_matrix, random_unitary
from test_acceptance import _simplex_sort_oracle

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
GRAPH2 = np.array([1, 1, 1, -1], dtype=complex) / 2


def werner(p: float) -> np.ndarray:
    return p * density_from_state(BELL) + (1 - p) * np.eye(4) / 4


# --- eigensolver (checked against the library eigensolver oracle) -------------


def test_jacobi_matches_library_eigensolver(rng):
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (m + m.conj().T) / 2
        vals, vecs = hermitian_eigensystem(h)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-10
        assert np.max(np.abs(h @ vecs - vecs * vals[None, :])) < 1e-9
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) < 1e-10


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- partial transpose ---------------------------------------------------------


def test_partial_transpose_of_maximally_mixed():
    assert np.allclose(partial_transpose(np.eye(4) / 4, 0), np.eye(4) / 4)


def test_partial_transpose_bell_eigenvalues():
    pt = partial_transpose(density_from_state(BELL), 0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_is_involution(rng):
    rho = random_density_matrix(4, rng)
    for sub in (0, 1):
        assert np.max(np.abs(partial_transpose(partial_transpose(rho, sub), sub) - rho)) < 1e-15


# --- negativity ----------------------------------------------------------------


def test_negativity_of_bell_projector():
    assert abs(negativity(density_from_state(BELL)) - 0.5) < 1e-9
    assert abs(negativity(density_from_state(GRAPH2)) - 0.5) < 1e-9


def test_negativity_of_maximally_mixed():
    assert negativity(np.eye(4) / 4) == 0.0


def test_negativity_of_werner_state():
    assert abs(negativity(werner(0.5)) - 0.125) < 1e-9
    # brute-force oracle over a p sweep
    for p in np.linspace(0, 1, 11):
        eigs = np.linalg.eigvalsh(partial_transpose(werner(p), 0))
        expected = abs(eigs[eigs < 0].sum())
        assert abs(negativity(werner(p)) - min(expected, 0.5)) < 1e-9


def test_negativity_partition_symmetric(rng):
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        eigs = np.linalg.eigvalsh(partial_transpose(rho, 1))
        other = abs(eigs[eigs < 0].sum())
        assert abs(negativity(rho) - other) < 1e-9


def test_negativity_invariant_under_local_unitaries(rng):
    for _ in range(100):
        rho = random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = u @ rho @ u.conj().T
        assert abs(negativity(rho) - negativity(rotated)) < 1e-9


def test_negativity_zero_for_product_states(rng):
    for _ in range(20):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(b / np.linalg.norm(b), a / np.linalg.norm(a))
        assert negativity(density_from_state(v)) == 0.0


def test_negativity_rejects_non_hermitian():
    bad = density_from_state(BELL).copy()
    bad[0, 1] += 0.01
    with pytest.raises(ValueError, match="Hermitian"):
        negativity(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_are_rejected(bad):
    # every comparison with NaN is False, so each range check alone would let it through
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = rho[2, 1] = bad
    for check in (check_density_matrix, hermitian_eigensystem, nearest_physical, negativity,
                  lambda r: fidelity(r, density_from_state(BELL))):
        for matrix in (rho, np.full((4, 4), bad), np.stack([np.eye(4) / 4, rho])):
            with pytest.raises(ValueError, match="non-finite"):
                check(matrix)
    probs = np.full((2, 9, 4), 0.25)
    probs[1, 4, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        reconstruct(probs)


def test_density_validator_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(4) / 2)


# --- fidelity -------------------------------------------------------------------


def test_fidelity_of_identical_pure_state():
    proj = density_from_state(GRAPH2)
    assert abs(fidelity(proj, proj) - 1.0) < 1e-9


def test_fidelity_of_maximally_mixed_vs_pure():
    assert abs(fidelity(np.eye(4) / 4, density_from_state(BELL)) - 0.25) < 1e-12


def test_fidelity_of_depolarized_bell():
    rho = 0.9 * density_from_state(BELL) + 0.1 * np.eye(4) / 4
    assert abs(fidelity(rho, density_from_state(BELL)) - 0.925) < 1e-12


def test_fidelity_rejects_mixed_ideal():
    with pytest.raises(ValueError, match="idempotent"):
        fidelity(np.eye(4) / 4, np.eye(4) / 4)


# --- nearest physical state -----------------------------------------------------


def _oracle_nearest(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    clipped = _simplex_sort_oracle(vals)
    return vecs @ np.diag(clipped.astype(complex)) @ vecs.conj().T


def test_nearest_physical_fixed_point(rng):
    rho = random_density_matrix(4, rng)
    assert np.max(np.abs(nearest_physical(rho) - rho)) < 1e-12


def test_project_eigenvalues_fixtures():
    # unit-sum spectra, as given and in the ascending order nearest_physical projects
    for spectrum, want in (([0.6, 0.5, 0.0, -0.1], [0.55, 0.45, 0.0, 0.0]),
                           ([1.2, -0.1, -0.05, -0.05], [1.0, 0.0, 0.0, 0.0])):
        assert np.allclose(michelot_project(np.array(spectrum)), want, atol=1e-12)
        assert np.allclose(michelot_project(np.sort(spectrum)), np.sort(want), atol=1e-12)


def test_nearest_physical_fixture_spectra(rng):
    u = random_unitary(4, rng)
    raw = u @ np.diag([0.6, 0.5, 0.0, -0.1]) @ u.conj().T
    fixed = nearest_physical(raw)
    assert np.allclose(np.sort(np.linalg.eigvalsh(fixed)), [0.0, 0.0, 0.45, 0.55], atol=1e-9)
    # a spectrum with two negative eigenvalues, against the sort-based oracle
    spectrum = np.array([0.7, 0.45, -0.05, -0.1])
    clipped = nearest_physical(u @ np.diag(spectrum) @ u.conj().T)
    assert np.allclose(np.linalg.eigvalsh(clipped), np.sort(_simplex_sort_oracle(spectrum)),
                       atol=1e-12)
    # eigenvectors unchanged: commutes with the original matrix
    assert np.max(np.abs(raw @ fixed - fixed @ raw)) < 1e-9


def test_nearest_physical_matches_least_squares_oracle(rng):
    for _ in range(200):
        rho = random_density_matrix(4, rng)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise = (noise + noise.conj().T) * 0.05
        noise -= np.eye(4) * np.trace(noise) / 4
        raw = rho + noise
        got = nearest_physical(raw)
        want = _oracle_nearest(raw)
        assert np.linalg.norm(got - want) < 1e-9
        assert np.linalg.eigvalsh(got)[0] > -1e-9
        assert abs(np.trace(got).real - 1) < 1e-9


def test_nearest_physical_rejects_bad_input():
    with pytest.raises(ValueError, match="Hermitian"):
        nearest_physical(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="unit trace"):
        nearest_physical(np.eye(4))
