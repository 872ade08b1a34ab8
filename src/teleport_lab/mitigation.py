"""Readout error mitigation and probability-simplex projection.

Probability vectors are indexed so that bit i of the outcome index
(weight 2^i) is the i-th measured qubit, matching the simulator and
``channels.readout_channel``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .channels import check_confusion_matrix, confusion_matrix, per_qubit_transform


#: Uniform numbers a calibration holds at once, in rows of one per qubit.
CALIBRATION_BLOCK_VALUES = 1 << 15
# The block every calibration of this process draws into. Kept, it stays faulted
# in: a 256 KB block allocated per call is mapped afresh, or taken from a heap
# top that glibc has trimmed, whenever the sizes freed before it kept glibc's
# dynamic mmap and trim thresholds low.
_BLOCK = [np.empty(0)]


class MitigationError(RuntimeError):
    """Raised when readout mitigation cannot be applied."""


def confusion_inverse(a: np.ndarray, qubit: int) -> np.ndarray:
    """Inverse of one qubit's 2x2 readout confusion matrix; MitigationError if singular."""
    a = check_confusion_matrix(a)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det) <= 1e-6:
        raise MitigationError(f"confusion matrix for qubit {qubit} is singular")
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det


def qrem_correct(p_meas: np.ndarray, confusion: Sequence[np.ndarray]) -> np.ndarray:
    """Invert per-qubit readout confusion, one tensor axis at a time.

    Corrects one outcome vector or each row of a stack of them. Each matrix
    is checked and inverted once per call, however many rows there are.
    The result keeps unit sum but may contain negative entries.
    """
    inverses = [confusion_inverse(a, i) for i, a in enumerate(confusion)]
    p_meas = np.atleast_1d(np.asarray(p_meas, dtype=float))
    rows = p_meas.reshape(-1, p_meas.shape[-1])
    return np.array([per_qubit_transform(vec, inverses) for vec in rows]).reshape(p_meas.shape)


def mitigate_distributions(probs: np.ndarray, qrem: bool,
                           confusion: Sequence[np.ndarray]) -> np.ndarray:
    """Project each row of (9, 4) distributions onto the simplex, after QREM if ``qrem`` is set.

    The projections of all bases run as one stack.
    """
    return michelot_project(qrem_correct(probs, confusion) if qrem else probs)


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


def estimate_confusion_matrices(true_confusion: Sequence[np.ndarray], shots: int,
                                rng: np.random.Generator) -> list[np.ndarray]:
    """Calibrate per-qubit confusion matrices from simulated readout shots.

    Prepares the all-zeros and all-ones registers ``shots`` times each and
    counts per-qubit flips, assuming independent qubits. The (shots, k)
    uniforms of each register are drawn in blocks of rows that hold at most
    `CALIBRATION_BLOCK_VALUES` numbers, into one block kept by the process;
    the generator fills rows in order, so the draws and the counts are
    those of one (shots, k) draw.
    """
    if shots <= 0:
        raise ValueError("calibration needs a positive shot count")
    k = len(true_confusion)
    p_read1 = np.array([check_confusion_matrix(a)[1] for a in true_confusion])  # (k, prepared)
    rows = min(shots, max(1, CALIBRATION_BLOCK_VALUES // max(k, 1)))
    if _BLOCK[0].size < rows * k:
        _BLOCK[0] = np.empty(max(rows * k, CALIBRATION_BLOCK_VALUES))
    block = _BLOCK[0][:rows * k].reshape(rows, k)
    flips = []
    for prepared in (0, 1):
        count = np.zeros(k, dtype=np.int64)
        for start in range(0, shots, len(block)):
            draws = block[:shots - start]  # the last block may be shorter
            rng.random(out=draws)
            read1 = draws < p_read1[:, prepared]
            count += (~read1 if prepared else read1).sum(axis=0)
        flips.append(count)
    return [confusion_matrix(e01 / shots, e10 / shots) for e01, e10 in zip(*flips)]
