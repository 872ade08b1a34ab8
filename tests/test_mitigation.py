"""Readout correction and simplex projection."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleport_lab import mitigation
from teleport_lab.channels import NoiseModel, confusion_matrix, per_qubit_transform
from teleport_lab.mitigation import (MitigationError, estimate_confusion_matrices,
                                     michelot_project, mitigate_distributions, qrem_correct)


def simplex_sort_oracle(v: np.ndarray) -> np.ndarray:
    """Non-iterative sort-based projection (independent of the active-set route)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    cond = u + (1.0 - css) / ks > 0
    k = ks[cond][-1]
    tau = (1.0 - css[k - 1]) / k
    return np.maximum(v + tau, 0.0)


def simplex_enumeration_oracle(v: np.ndarray) -> np.ndarray:
    """Exhaustive support enumeration; exact for small dimensions."""
    best, best_dist = None, np.inf
    n = len(v)
    for mask in range(1, 1 << n):
        support = [i for i in range(n) if mask >> i & 1]
        shift = (sum(v[i] for i in support) - 1.0) / len(support)
        x = np.zeros(n)
        for i in support:
            x[i] = v[i] - shift
        if np.any(x < -1e-12):
            continue
        dist = np.sum((x - v) ** 2)
        if dist < best_dist - 1e-15:
            best, best_dist = x, dist
    return best


# --- michelot -------------------------------------------------------------------


def test_michelot_fixture():
    assert np.allclose(michelot_project(np.array([0.6, 0.6, -0.2])), [0.5, 0.5, 0.0],
                       atol=1e-12)


def test_michelot_vertex_fixture():
    assert np.allclose(michelot_project(np.array([2.0, 0.0, 0.0, 0.0])), [1, 0, 0, 0],
                       atol=1e-12)


def test_michelot_fixed_point_on_distributions(rng):
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        assert np.max(np.abs(michelot_project(p) - p)) < 1e-12


def test_michelot_idempotent(rng):
    for _ in range(50):
        v = rng.normal(size=10) * 3
        once = michelot_project(v)
        assert np.max(np.abs(michelot_project(once) - once)) < 1e-12


def test_michelot_matches_sort_oracle(rng):
    for _ in range(2000):
        dim = int(rng.integers(1, 17))
        v = rng.normal(size=dim) * rng.choice([0.1, 1.0, 10.0])
        got = michelot_project(v)
        assert np.max(np.abs(got - simplex_sort_oracle(v))) < 1e-9


def test_michelot_matches_enumeration_oracle(rng):
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        v = rng.normal(size=dim) * 2
        got = michelot_project(v)
        assert np.max(np.abs(got - simplex_enumeration_oracle(v))) < 1e-9


def test_michelot_rejects_bad_input():
    with pytest.raises(ValueError, match="finite"):
        michelot_project(np.array([1.0, np.nan]))
    # one vector or a 2-d stack of them; a 2x2 array is a stack of two
    with pytest.raises(ValueError, match="1-d"):
        michelot_project(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="1-d"):
        michelot_project(np.zeros(0))


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1,
                max_size=16))
def test_michelot_output_is_a_distribution(values):
    out = michelot_project(np.array(values))
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


# --- qrem -----------------------------------------------------------------------


def test_qrem_identity_matrices():
    p = np.array([0.3, 0.2, 0.4, 0.1])
    assert np.allclose(qrem_correct(p, [np.eye(2)] * 2), p)


def test_qrem_single_qubit_fixture():
    a = np.array([[0.9, 0.2], [0.1, 0.8]])
    corrected = qrem_correct(np.array([0.76, 0.24]), [a])
    assert np.allclose(corrected, [0.8, 0.2], atol=1e-12)


def test_qrem_roundtrip_two_qubits():
    a = confusion_matrix(0.08, 0.12)
    b = confusion_matrix(0.02, 0.04)
    truth = np.array([0.55, 0.15, 0.10, 0.20])
    noisy = per_qubit_transform(truth, [a, b])
    assert np.allclose(qrem_correct(noisy, [a, b]), truth, atol=1e-9)


def test_qrem_roundtrip_many_qubits(rng):
    k = 6
    mats = [confusion_matrix(rng.uniform(0, 0.2), rng.uniform(0, 0.2)) for _ in range(k)]
    truth = rng.dirichlet(np.ones(1 << k))
    noisy = per_qubit_transform(truth, mats)
    assert np.max(np.abs(qrem_correct(noisy, mats) - truth)) < 1e-9


def test_qrem_is_linear(rng):
    mats = [confusion_matrix(0.1, 0.2), confusion_matrix(0.05, 0.15)]
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    lhs = qrem_correct(0.3 * p + 0.7 * q, mats)
    rhs = 0.3 * qrem_correct(p, mats) + 0.7 * qrem_correct(q, mats)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_qrem_rejects_singular_matrix():
    singular = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(MitigationError, match="singular"):
        qrem_correct(np.array([0.5, 0.5]), [singular])


def test_each_confusion_matrix_is_checked_and_inverted_once_per_call(monkeypatch, rng):
    # nine basis rows used to check and invert both pair matrices nine times,
    # and calibration checked each matrix twice
    mats = [confusion_matrix(0.1, 0.2), confusion_matrix(0.05, 0.15)]
    probs = rng.dirichlet(np.ones(4), size=9)
    want = np.array([per_qubit_transform(vec, [np.linalg.inv(a) for a in mats])
                     for vec in probs])
    calls = {"check": 0, "inverse": 0}
    real_check, real_inverse = mitigation.check_confusion_matrix, mitigation.confusion_inverse

    def check(a):
        calls["check"] += 1
        return real_check(a)

    def inverse(a, qubit):
        calls["inverse"] += 1
        return real_inverse(a, qubit)

    monkeypatch.setattr(mitigation, "check_confusion_matrix", check)
    monkeypatch.setattr(mitigation, "confusion_inverse", inverse)
    corrected = qrem_correct(probs, mats)
    assert calls == {"check": 2, "inverse": 2}
    assert np.allclose(corrected, want, atol=1e-12)
    assert np.array_equal(corrected, [qrem_correct(vec, mats) for vec in probs])
    assert np.array_equal(mitigate_distributions(probs, True, mats), michelot_project(corrected))
    calls.update(check=0, inverse=0)
    # calibration reads NoiseModel.qubit_confusion matrices, which the model checked once
    estimate_confusion_matrices(mats * 3, 100, rng)
    assert calls == {"check": 0, "inverse": 0}
    # each check still runs on every matrix
    with pytest.raises(MitigationError, match="qubit 1 is singular"):
        mitigate_distributions(probs, True, [mats[0], confusion_matrix(0.5, 0.5)])
    with pytest.raises(ValueError, match="probabilities"):
        NoiseModel(readout=[mats[0], np.array([[1.2, 0.0], [-0.2, 1.0]])])


def test_qrem_shape_check():
    with pytest.raises(ValueError, match="outcomes"):
        qrem_correct(np.array([0.5, 0.5]), [np.eye(2)] * 2)


# --- calibration ----------------------------------------------------------------


def test_estimated_confusion_converges(rng):
    truth = [confusion_matrix(0.1, 0.2), confusion_matrix(0.03, 0.07)]
    shots = 200_000
    est = estimate_confusion_matrices(truth, shots, rng)
    for t, e in zip(truth, est):
        for col in (0, 1):
            p = t[1, col]
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(e[1, col] - p) < 5 * max(sigma, 1e-6)
        assert np.allclose(e.sum(axis=0), 1.0, atol=1e-12)


def one_block_calibration(true_confusion, shots: int, rng: np.random.Generator) -> list:
    """The calibration drawn per shot: a (shots, k) uniform matrix per prepared register."""
    p_read1 = np.array([a[1] for a in true_confusion])
    flips0 = (rng.random((shots, len(p_read1))) < p_read1[:, 0]).sum(axis=0)
    flips1 = (rng.random((shots, len(p_read1))) >= p_read1[:, 1]).sum(axis=0)
    return [confusion_matrix(e01 / shots, e10 / shots) for e01, e10 in zip(flips0, flips1)]


def test_binomial_calibration_matches_per_shot_draws_in_distribution():
    # binomial flip counts replace per-shot uniforms: over many seeds, each
    # qubit's two flip rates keep the per-shot draws' mean and variance
    truth = [confusion_matrix(e01, e10) for e01, e10
             in ((0.0, 0.0), (0.013, 0.018), (0.1, 0.35), (0.5, 0.02), (1.0, 0.97))]
    shots, seeds = 200, 500

    def flip_rates(calibrate):  # (seeds, qubits, 2): rates of 0 -> 1 and of 1 -> 0
        return np.array([[(a[1, 0], a[0, 1]) for a in
                          calibrate(truth, shots, np.random.default_rng(seed))]
                         for seed in range(seeds)])

    got, want = flip_rates(estimate_confusion_matrices), flip_rates(one_block_calibration)

    def mean_var(x):  # sample mean and variance, with their standard errors
        var = x.var(axis=0, ddof=1)
        fourth = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
        var_se = np.sqrt(np.abs(fourth - var ** 2) / seeds)
        return x.mean(axis=0), np.sqrt(var / seeds), var, var_se

    g_mean, g_mean_se, g_var, g_var_se = mean_var(got)
    w_mean, w_mean_se, w_var, w_var_se = mean_var(want)
    assert np.all(np.abs(g_mean - w_mean) <= 5 * np.hypot(g_mean_se, w_mean_se))
    assert np.all(np.abs(g_var - w_var) <= 5 * np.hypot(g_var_se, w_var_se))
    # the sure flips of qubits 0 and 4 stay exact
    assert np.all(got[:, 0] == 0) and np.all(got[:, 4, 0] == 1)


def test_calibration_clips_entries_just_outside_the_unit_interval(rng):
    # the matrix check admits entries 1e-12 outside [0, 1]; binomial draws reject them
    eps = 1e-12
    near_identity = np.array([[1 + eps, -eps], [-eps, 1 + eps]])
    near_swap = np.array([[-eps, 1 + eps], [1 + eps, -eps]])
    est = estimate_confusion_matrices([near_identity, near_swap], 1000, rng)
    assert np.array_equal(est[0], np.eye(2))
    assert np.array_equal(est[1], [[0.0, 1.0], [1.0, 0.0]])


def test_estimated_confusion_rejects_zero_shots(rng):
    with pytest.raises(ValueError, match="positive"):
        estimate_confusion_matrices([np.eye(2)], 0, rng)
