"""Stacked tomography and metrics against their one-input forms, bit for bit.

`scalar_reference` keeps the single-matrix solver, projection and
reconstruction that the stacked functions replace. Every stack mixes the
cases that take different branches: diagonal matrices, exact-zero
off-diagonals, equal diagonal entries (the ``app == aqq`` rotation),
PSD inputs that `nearest_physical` returns early, and matrices that do
and do not converge within the sweep limit.
"""
import numpy as np
import pytest

from teleport_lab import metrics
from teleport_lab.channels import (NoiseModel, confusion_matrix, exact_pair_distributions,
                                   per_qubit_transform)
from teleport_lab.harness import mitigated_pair_distributions, run_decay_experiment
from teleport_lab.metrics import (density_from_state, fidelity, hermitian_eigensystem,
                                  nearest_physical, negativity)
from teleport_lab.mitigation import (estimate_confusion_matrices, michelot_project,
                                     mitigate_distributions)
from teleport_lab.pathfinder import pair_negativities
from teleport_lab.protocols import run_idle_pair
from teleport_lab.tomography import BASIS_PAIRS, reconstruct

import scalar_reference as ref
from conftest import random_density_matrix, random_state


def _hermitian_stack(rng, k: int, n: int) -> np.ndarray:
    m = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    h = (m + m.conj().swapaxes(1, 2)) / 2
    h[0::5] = [np.diag(rng.normal(size=n)) for _ in h[0::5]]  # nothing to rotate
    h[1::5, 0, 1] = h[1::5, 1, 0] = 0.0  # one exact-zero pair
    h[2::5, 1, 1] = h[2::5, 0, 0]  # first rotation takes the app == aqq branch
    h[3::5] = h[3::5].real  # real symmetric
    return h


def _assert_same(a, b):
    """Same shape, dtype and bytes: equal bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _eigensystem(h, sweeps: int, monkeypatch):
    """`hermitian_eigensystem` with its sweep limit set to `sweeps`."""
    with monkeypatch.context() as patched:
        patched.setattr(metrics, "JACOBI_MAX_SWEEPS", sweeps)
        return hermitian_eigensystem(h)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_eigensystem_matches_scalar_solver_bit_for_bit(rng, n, monkeypatch):
    h = _hermitian_stack(rng, 60, n)
    for sweeps in (1, 2, 60):
        vals, vecs = _eigensystem(h, sweeps, monkeypatch)
        for i, matrix in enumerate(h):
            want_vals, want_vecs = ref.hermitian_eigensystem(matrix, max_sweeps=sweeps)
            _assert_same(vals[i], want_vals)
            _assert_same(vecs[i], want_vecs)
    if n > 2:  # one rotation solves a 2x2 matrix exactly
        # two sweeps leave the diagonal matrices converged and most others not
        short, full = _eigensystem(h, 2, monkeypatch)[1], hermitian_eigensystem(h)[1]
        done = [np.array_equal(a, b) for a, b in zip(short, full)]
        assert all(done[0::5]) and not all(done)


def test_stacked_eigensystem_matches_library_eigensolver(rng):
    h = _hermitian_stack(rng, 200, 4)
    vals, vecs = hermitian_eigensystem(h)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(h))) < 1e-10
    assert np.max(np.abs(h @ vecs - vecs * vals[:, None, :])) < 1e-9
    assert np.max(np.abs(vecs.conj().swapaxes(1, 2) @ vecs - np.eye(4))) < 1e-10
    one_vals, one_vecs = hermitian_eigensystem(h[7])
    _assert_same(one_vals, vals[7])
    _assert_same(one_vecs, vecs[7])


def test_stacked_eigensystem_rejects_one_non_hermitian_matrix(rng):
    h = _hermitian_stack(rng, 10, 4)
    h[6, 0, 1] += 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(h)


def _raw_inversions(rng, k: int) -> np.ndarray:
    """Unit-trace Hermitian matrices, PSD and not, as linear inversion yields them."""
    rhos = np.array([random_density_matrix(4, rng, rank=int(rng.integers(1, 5)))
                     for _ in range(k)])
    noise = rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4))
    noise = (noise + noise.conj().swapaxes(1, 2)) * rng.choice([0.0, 0.02, 0.2], size=(k, 1, 1))
    noise -= np.trace(noise, axis1=1, axis2=2)[:, None, None] * np.eye(4) / 4
    return rhos + noise


def test_stacked_nearest_physical_and_negativity_match_scalar_forms(rng):
    raw = _raw_inversions(rng, 120)
    psd = np.linalg.eigvalsh(raw)[:, 0] >= 0
    assert psd.any() and not psd.all()  # both branches of nearest_physical
    fixed = nearest_physical(raw)
    negs = negativity(fixed)
    for i in range(len(raw)):
        _assert_same(fixed[i], ref.nearest_physical(raw[i]))
        assert negs[i] == ref.negativity(fixed[i])
    assert isinstance(negativity(fixed[3]), float) and negativity(fixed[3]) == negs[3]


def test_stacked_reconstruct_matches_scalar_reconstruct(rng):
    k = 150
    probs = rng.dirichlet(np.full(4, 0.5), size=(k, 9))  # mostly unphysical inversions
    probs[::3] = rng.dirichlet(np.full(4, 50.0), size=(len(probs[::3]), 9))
    probs[1] = 0.25  # maximally mixed: PSD, so nearest_physical returns early
    rhos = reconstruct(probs)
    negs = negativity(rhos)
    ideals = np.array([density_from_state(random_state(2, rng).amplitudes) for _ in range(k)])
    fids = fidelity(rhos, ideals)
    for i in range(k):
        one = {pair: probs[i, j] for j, pair in enumerate(BASIS_PAIRS)}
        _assert_same(rhos[i], ref.reconstruct(one))
        _assert_same(reconstruct(probs[i]), rhos[i])
        assert negs[i] == ref.negativity(rhos[i])
        assert fids[i] == ref.fidelity(rhos[i], ideals[i]) == fidelity(rhos[i], ideals[i])


@pytest.mark.parametrize("dim", [2, 3, 4, 7])
def test_stacked_michelot_matches_scalar_projection(rng, dim):
    v = rng.normal(size=(400, dim)) * rng.choice([0.1, 1.0, 10.0], size=(400, 1))
    v[0] = rng.dirichlet(np.ones(dim))  # already on the simplex
    v[1] = np.eye(dim)[0] * 2.0  # projects to a vertex
    v[2] = 1.0 / dim  # all equal
    out = michelot_project(v)
    for i in range(len(v)):
        _assert_same(out[i], ref.michelot_project(v[i]))
        _assert_same(michelot_project(v[i]), out[i])


@pytest.mark.parametrize("shape", [(50, 2), (50, 8), (50, 64), (20, 9, 4)],
                         ids=["50x2", "50x8", "50x64", "20x9x4"])
def test_stacked_per_qubit_transform_matches_rows(rng, shape):
    k = shape[-1].bit_length() - 1
    mats = [confusion_matrix(*rng.uniform(0.0, 0.2, size=2)) for _ in range(k)]
    probs = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    for matrices in (mats, [np.linalg.inv(a) for a in mats]):  # readout, and its correction
        out = per_qubit_transform(probs, matrices)
        for index in np.ndindex(shape[:-1]):
            _assert_same(out[index], ref.per_qubit_transform(probs[index], matrices))
            _assert_same(per_qubit_transform(probs[index], matrices), out[index])


DECAY_NOISE = NoiseModel(one_qubit_depol=2e-4, two_qubit_depol=0.01,
                         readout=[confusion_matrix(0.01, 0.02), confusion_matrix(0.02, 0.03)])


def _decay_one_delay_at_a_time(delays, shots, seed, qrem):
    """Each delay's negativity from a reconstruction of its own (9, 4) distributions."""
    confusion = DECAY_NOISE.readout
    out = []
    for i, delay in enumerate(delays):
        if shots == 0:
            probs = mitigate_distributions(exact_pair_distributions(DECAY_NOISE, delay), qrem,
                                           confusion)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            result = run_idle_pair(delay, DECAY_NOISE, shots, rng)
            calibration = estimate_confusion_matrices(confusion, 8192, rng)
            probs = mitigated_pair_distributions(result, qrem, calibration)
        out.append(negativity(reconstruct(probs)))
    return out


def test_stacked_edges_and_delays_match_one_at_a_time(rng):
    # gen-device reconstructs every edge, and the decay curve every delay, in one call
    errors = list(rng.uniform(1e-4, 0.2, size=6)) + [0.0]
    confusions = [[confusion_matrix(*rng.uniform(0, 0.05, size=2)) for _ in errors]
                  for _ in range(2)]
    negs, negs_qrem = pair_negativities(errors, *confusions)
    for i, eps in enumerate(errors):
        [neg], [neg_qrem] = pair_negativities([eps], [confusions[0][i]], [confusions[1][i]])
        assert (neg, neg_qrem) == (negs[i], negs_qrem[i])
    assert [len(x) for x in pair_negativities([], [], [])] == [0, 0]
    delays = [0.0, 0.5, 1.25, 4.0]
    for qrem in (False, True):
        stacked = run_decay_experiment(delays, DECAY_NOISE, shots=0, qrem=qrem).negativities
        assert stacked == _decay_one_delay_at_a_time(delays, 0, 0, qrem)


def test_sampled_decay_matches_one_delay_at_a_time():
    delays = [0.0, 1.25, 4.0]
    for qrem in (False, True):
        stacked = run_decay_experiment(delays, DECAY_NOISE, shots=64, seed=5,
                                       qrem=qrem).negativities
        assert stacked == _decay_one_delay_at_a_time(delays, 64, 5, qrem)
