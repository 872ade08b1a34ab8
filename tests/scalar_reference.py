"""Earlier forms of program functions, kept as bit-for-bit references.

The program's `hermitian_eigensystem`, `nearest_physical`, `negativity`,
`fidelity`, `pauli_expectations`, `reconstruct`, `michelot_project` and
`per_qubit_transform` each take a stack of inputs with a leading axis.
These are their single-input forms, so that the stacked functions can be
checked against them bit for bit. `nearest_physical` projects its
ascending spectrum with this file's own scalar `michelot_project`, as the
program's projects it with the stacked one.

`stacked_category_distributions` is the post-selection route before it
streamed its bins: it builds (positions, keys) and (16, keys) arrays, so
its memory grows with path length times distinct outcomes.
"""
from __future__ import annotations

import numpy as np

from teleport_lab import mitigation, protocols, tomography
from teleport_lab.metrics import check_density_matrix, partial_transpose
from teleport_lab.tomography import BASIS_PAIRS, PAULI_AXES

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SIGN_FIRST = np.array([1.0, -1.0, 1.0, -1.0])
_SIGN_SECOND = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_BOTH = _SIGN_FIRST * _SIGN_SECOND


def hermitian_eigensystem(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60):
    """Eigenvalues ascending and eigenvectors as columns, by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if np.max(np.abs(a - a.conj().T)) > 1e-8 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix is not Hermitian")
    a = (a + a.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    scale = max(np.max(np.abs(a)), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = abs(a[p, q])
                off = max(off, beta)
                if beta <= tol * scale:
                    continue
                phase = a[p, q] / beta
                app, aqq = a[p, p].real, a[q, q].real
                if app == aqq:
                    t = 1.0
                else:
                    tau = (app - aqq) / (2.0 * beta)
                    t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = c * a[:, p] + s * np.conj(phase) * a[:, q]
                rq = -s * phase * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rp, rq
                rp = c * a[p, :] + s * phase * a[q, :]
                rq = -s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rp, rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = c * v[:, p] + s * np.conj(phase) * v[:, q]
                vq = -s * phase * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vp, vq
        if off <= tol * scale:
            break
    eigvals = np.real(np.diag(a))
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]


def nearest_physical(rho_raw: np.ndarray) -> np.ndarray:
    rho_raw = np.asarray(rho_raw, dtype=complex)
    if np.max(np.abs(rho_raw - rho_raw.conj().T)) > 1e-6:
        raise ValueError("input must be Hermitian within 1e-6")
    if abs(np.trace(rho_raw) - 1.0) > 1e-6:
        raise ValueError("input must have unit trace within 1e-6")
    eigvals, vecs = hermitian_eigensystem(rho_raw)
    if eigvals[0] >= 0:
        return (rho_raw + rho_raw.conj().T) / 2.0
    clipped = michelot_project(eigvals).astype(complex)
    rho = vecs @ np.diag(clipped) @ vecs.conj().T
    return (rho + rho.conj().T) / 2.0


def negativity(rho: np.ndarray) -> float:
    rho = check_density_matrix(rho)
    eigvals, _ = hermitian_eigensystem(partial_transpose(rho, 0))
    neg = abs(float(eigvals[eigvals < -1e-12].sum()))
    return float(min(neg, 0.5))


def fidelity(rho: np.ndarray, ideal: np.ndarray) -> float:
    rho = check_density_matrix(rho, atol=1e-6)
    ideal = np.asarray(ideal, dtype=complex)
    if np.max(np.abs(ideal @ ideal - ideal)) > 1e-6:
        raise ValueError("ideal state must be an idempotent (pure) projector")
    value = np.trace(rho @ ideal)
    if abs(value.imag) > 1e-9:
        raise ValueError(f"fidelity has a non-real value {value}")
    return float(min(max(value.real, 0.0), 1.0))


def pauli_expectations(probs_by_basis: dict) -> dict[tuple[str, str], float]:
    exp: dict[tuple[str, str], float] = {("I", "I"): 1.0}
    for pair in BASIS_PAIRS:
        exp[pair] = float(np.asarray(probs_by_basis[pair], dtype=float) @ _SIGN_BOTH)
    for axis in PAULI_AXES:
        first = [np.asarray(probs_by_basis[(axis, other)], dtype=float) @ _SIGN_FIRST
                 for other in PAULI_AXES]
        exp[(axis, "I")] = float(np.mean(first))
        second = [np.asarray(probs_by_basis[(other, axis)], dtype=float) @ _SIGN_SECOND
                  for other in PAULI_AXES]
        exp[("I", axis)] = float(np.mean(second))
    return exp


def reconstruct(probs_by_basis: dict) -> np.ndarray:
    exp = pauli_expectations(probs_by_basis)
    rho = np.zeros((4, 4), dtype=complex)
    for first in ("I",) + PAULI_AXES:
        for second in ("I",) + PAULI_AXES:
            term = np.kron(PAULI_MATRICES[second], PAULI_MATRICES[first])
            rho += exp[(first, second)] * term
    rho /= 4.0
    return nearest_physical(rho)


def michelot_project(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    active = np.ones(v.size, dtype=bool)
    n_active = v.size
    while True:
        shift = (v[active].sum() - 1.0) / n_active
        keep = v > shift
        keep &= active
        n_keep = int(keep.sum())
        if n_keep == n_active or n_keep == 0:
            break
        active = keep
        n_active = n_keep
    return np.where(active, np.maximum(v - shift, 0.0), 0.0)


def per_qubit_transform(probs: np.ndarray, matrices) -> np.ndarray:
    k = len(matrices)
    out = np.asarray(probs, dtype=float)
    if out.shape != (1 << k,):
        raise ValueError(f"expected {1 << k} outcomes for {k} per-qubit matrices")
    for i, a in enumerate(matrices):
        out = np.einsum("ij,ajb->aib", a, out.reshape(-1, 2, 1 << i)).reshape(-1)
    return out


def stacked_category_distributions(result, qrem: bool, calibration) -> tuple:
    n = result.n
    if qrem and len(calibration) != n:
        raise ValueError(f"expected {n} confusion matrices, got {len(calibration)}")
    inverses = (np.stack([mitigation.confusion_inverse(a, i) for i, a in enumerate(calibration)])
                if qrem else np.broadcast_to(np.eye(2), (n, 2, 2)))
    counts = [result.counts_by_basis[pair] for pair in tomography.BASIS_PAIRS]
    keys = np.array([key for c in counts for key in c[:, 0]], dtype=np.int64)
    freqs = np.array([w for c in counts for w in c[:, 1]], dtype=float) / result.shots_per_basis
    basis = np.repeat(np.arange(len(counts)), [len(c) for c in counts])
    bits = (keys >> np.arange(n)[:, None]) & 1  # one row per path position
    slot = bits + np.arange(0, 2 * n, 2)[:, None]  # (position, bit) in a flat (n, 2) table
    s_plus = (inverses[:, 0] + inverses[:, 1]).reshape(-1)[slot]
    s_minus = (inverses[:, 0] - inverses[:, 1]).reshape(-1)[slot]
    z, x = (np.stack([s_plus[rows].prod(axis=0) + sign * s_minus[rows].prod(axis=0)
                      for sign in (1, -1)]) / 2 for rows in (slice(1, -1, 2), slice(2, -1, 2)))
    # bin z | x << 1 | t0 << 2 | t1 << 3 of each key, laid out as (t1, t0, x, z)
    pair = freqs * inverses[-1][:, bits[-1]][:, None] * inverses[0][:, bits[0]]
    vecs = pair.reshape(4, 1, -1) * (x[:, None] * z).reshape(1, 4, -1)
    bin_index = np.arange(16)[:, None] * len(counts) + basis
    by_basis = np.bincount(bin_index.ravel(), vecs.ravel(), 16 * len(counts)).reshape(16, -1).T

    configs = protocols.reachable_configurations(result.n - 2)
    vecs = by_basis[:, [[zc | (xc << 1) | (tt << 2) for tt in range(4)] for zc, xc in configs]]
    weights = vecs.sum(axis=-1)
    probs = np.full(vecs.shape, 0.25)
    seen = weights > 1e-12
    probs[seen] = mitigation.michelot_project(vecs[seen] / weights[seen][:, None])
    mean_weights = mitigation.michelot_project(np.ascontiguousarray(weights.T).mean(axis=-1))
    return configs, mean_weights, probs.swapaxes(0, 1)
