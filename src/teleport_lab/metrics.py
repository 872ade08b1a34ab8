"""Entanglement and quality measures on two-qubit density matrices.

Density matrices are plain 4x4 complex ndarrays indexed by the outcome-
index convention: the first qubit of the pair is the least significant
bit of the row/column index, as of a tomography outcome index. Every function here also
takes a stack of them along a leading axis and treats each on its own.
"""
from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
#: Jacobi rotations skip an entry, and a matrix stops sweeping, at or below this
#: fraction of its largest entry; a matrix still above it stops after the last sweep.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60


def check_density_matrix(rho: np.ndarray, atol: float = HERMITICITY_TOL) -> np.ndarray:
    """A 4x4 density matrix, or a stack of them, checked to be finite, Hermitian, unit-trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has a non-finite entry")
    if np.any(np.max(np.abs(rho - _dagger(rho)), axis=(-2, -1)) > atol):
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    bad = (np.abs(trace.real - 1.0) > max(atol, TRACE_TOL)) | (np.abs(trace.imag) > atol)
    if np.any(bad):
        raise ValueError(f"density matrix trace is {trace[bad].flat[0]}, expected 1")
    return rho


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def density_from_state(amplitudes: np.ndarray) -> np.ndarray:
    """Projector |v><v| of a state vector, or of each vector in a stack."""
    v = np.asarray(amplitudes, dtype=complex)
    return v[..., :, None] * v.conj()[..., None, :]  # np.outer, over the last axis


def hermitian_eigensystem(matrix: np.ndarray):
    """Eigenvalues and eigenvectors of a Hermitian matrix by cyclic Jacobi rotations.

    Takes one (n, n) matrix or a (k, n, n) stack and returns (eigenvalues
    ascending, eigenvectors as columns) with the same leading shape. Each
    matrix of a stack gets its own rotations, skips and convergence test,
    exactly as if it were solved alone. Self-contained so that library
    eigensolvers remain available as independent test oracles.
    """
    a = np.array(matrix, dtype=complex)
    single = a.ndim == 2
    if single:
        a = a[None]
    n = a.shape[-1]
    if a.ndim != 3 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has a non-finite entry")
    magnitude = np.maximum(np.max(np.abs(a), axis=(1, 2)), 1.0)
    if np.any(np.max(np.abs(a - _dagger(a)), axis=(1, 2)) > 1e-8 * magnitude):
        raise ValueError("matrix is not Hermitian")
    a += _dagger(a)
    a /= 2.0
    v = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
    threshold = JACOBI_TOL * np.maximum(np.max(np.abs(a), axis=(1, 2)), 1e-300)
    live = np.arange(len(a))  # matrices still sweeping
    for _ in range(JACOBI_MAX_SWEEPS):
        if not live.size:
            break
        off = np.zeros(live.size)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[live, p, q]
                beta = np.hypot(apq.real, apq.imag)  # bit for bit abs() of one entry
                off = np.maximum(off, beta)
                rotate = beta > threshold[live]
                if not rotate.any():
                    continue
                m = live[rotate]
                beta = beta[rotate]
                phase = apq[rotate] / beta
                app, aqq = a[m, p, p].real, a[m, q, q].real
                tau = (app - aqq) / (2.0 * beta)
                t = np.where(app == aqq, 1.0,
                             np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = t[:, None] * c
                phase = phase[:, None]
                # Plane rotation R: R[p,p]=c, R[p,q]=-s*phase, R[q,p]=s*conj(phase), R[q,q]=c
                ap, aq = a[m, :, p], a[m, :, q]
                a[m, :, p] = c * ap + s * np.conj(phase) * aq
                a[m, :, q] = -s * phase * ap + c * aq
                ap, aq = a[m, p, :], a[m, q, :]
                a[m, p, :] = c * ap + s * phase * aq
                a[m, q, :] = -s * np.conj(phase) * ap + c * aq
                a[m, p, q] = 0.0
                a[m, q, p] = 0.0
                vp, vq = v[m, :, p], v[m, :, q]
                v[m, :, p] = c * vp + s * np.conj(phase) * vq
                v[m, :, q] = -s * phase * vp + c * vq
        live = live[off > threshold[live]]
    eigvals = np.real(np.diagonal(a, axis1=1, axis2=2))
    order = np.argsort(eigvals, axis=-1, kind="stable")
    eigvals = np.take_along_axis(eigvals, order, axis=-1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=-1)
    return (eigvals[0], vecs[0]) if single else (eigvals, vecs)


def partial_transpose(rho: np.ndarray, subsystem: int = 0) -> np.ndarray:
    """Transpose the indices of one qubit of a two-qubit density matrix (or of each in a stack)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("partial_transpose expects a 4x4 matrix")
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    # last four axes: (row hi bit, row lo bit, col hi bit, col lo bit)
    t = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    t = t.swapaxes(-3, -1) if subsystem == 0 else t.swapaxes(-4, -2)  # low bit, high bit
    return t.reshape(rho.shape)


def negativity(rho: np.ndarray):
    """Absolute sum of negative eigenvalues of the partial transpose (first qubit).

    Eigenvalues within the eigensolver tolerance of zero do not count, so
    separable product states report exactly 0. A float for one matrix, an
    array for a stack.
    """
    rho = check_density_matrix(rho)
    eigvals, _ = hermitian_eigensystem(partial_transpose(rho, 0))
    # ascending, so the counted eigenvalues lead each row and the zeros trail them
    neg = np.minimum(np.abs(np.where(eigvals < -1e-12, eigvals, 0.0).sum(axis=-1)), 0.5)
    return float(neg) if neg.ndim == 0 else neg


def fidelity(rho: np.ndarray, ideal: np.ndarray):
    """Overlap tr(rho . ideal) against a pure-state projector.

    A float for one matrix, an array for a stack of them (each with its
    own projector, or one shared by all).
    """
    rho = check_density_matrix(rho, atol=1e-6)
    ideal = np.asarray(ideal, dtype=complex)
    if np.any(np.max(np.abs(ideal @ ideal - ideal), axis=(-2, -1)) > 1e-6):
        raise ValueError("ideal state must be an idempotent (pure) projector")
    value = np.trace(rho @ ideal, axis1=-2, axis2=-1)
    if np.any(np.abs(value.imag) > 1e-9):
        raise ValueError(f"fidelity has a non-real value {value}")
    overlap = np.minimum(np.maximum(value.real, 0.0), 1.0)
    return float(overlap) if overlap.ndim == 0 else overlap


def michelot_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, of one vector or of each row of a stack.

    Iteratively shifts the active entries by the common slack and drops
    the ones that fall to zero or below, until all retained entries
    exceed the shift. Each row keeps its own active set and stops on its
    own.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise ValueError("input must be a non-empty 1-d vector or a 2-d stack of them")
    if not np.all(np.isfinite(v)):
        raise ValueError("input must be finite")
    rows = v.reshape(-1, v.shape[-1])
    active = np.ones(rows.shape, dtype=bool)
    n_active = np.full(len(rows), rows.shape[-1])
    shift = np.zeros(len(rows))
    live = np.arange(len(rows))  # rows whose active set may still shrink
    while live.size:
        # masked-out entries add exact zeros, so each sum equals that of the active entries
        shift[live] = (np.where(active[live], rows[live], 0.0).sum(axis=-1) - 1.0) / n_active[live]
        keep = (rows[live] > shift[live, None]) & active[live]
        n_keep = keep.sum(axis=-1)
        shrink = (n_keep != n_active[live]) & (n_keep != 0)
        live, keep, n_keep = live[shrink], keep[shrink], n_keep[shrink]
        active[live] = keep
        n_active[live] = n_keep
    out = np.where(active, np.maximum(rows - shift[:, None], 0.0), 0.0)
    return out.reshape(v.shape)


def nearest_physical(rho_raw: np.ndarray) -> np.ndarray:
    """Closest PSD unit-trace matrix in Frobenius norm, eigenvectors unchanged.

    Takes one matrix or a stack; a matrix that is already PSD comes back
    symmetrized, the others have their spectrum projected by `michelot_project`
    (Smolin, Gambetta and Smith, PRL 108, 070502, 2012).
    """
    rho_raw = np.asarray(rho_raw, dtype=complex)
    if not np.all(np.isfinite(rho_raw)):
        raise ValueError("input has a non-finite entry")
    if np.any(np.max(np.abs(rho_raw - _dagger(rho_raw)), axis=(-2, -1)) > 1e-6):
        raise ValueError("input must be Hermitian within 1e-6")
    if np.any(np.abs(np.trace(rho_raw, axis1=-2, axis2=-1) - 1.0) > 1e-6):
        raise ValueError("input must have unit trace within 1e-6")
    eigvals, vecs = hermitian_eigensystem(rho_raw)  # ascending
    out = rho_raw.copy()
    fix = eigvals[..., 0] < 0
    if np.any(fix):
        vecs = vecs[fix]  # V diag(projected ascending spectrum) V^dagger
        out[fix] = (vecs * michelot_project(eigvals[fix])[:, None, :]) @ _dagger(vecs)
    out += _dagger(out)
    out /= 2.0
    return out
