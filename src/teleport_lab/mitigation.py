"""Readout calibration and readout error mitigation.

Calibration and correction are tensored, one 2x2 confusion matrix per
qubit, as in M3 (Nation et al., PRX Quantum 2, 040326, 2021); calibration
draws its flip counts as binomials. Correction applies the inverses with
``channels.per_qubit_transform``, and ``metrics.michelot_project``
projects the result onto the probability simplex.

Probability vectors follow the outcome-index convention: bit i of the
outcome index (weight 2^i) is the i-th measured qubit.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .channels import check_confusion_matrix, confusion_matrix, per_qubit_transform
from .metrics import michelot_project


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

    Corrects one outcome vector or each row of a stack of them, all in one
    transform. Each matrix is checked and inverted once per call. The
    result keeps unit sum but may contain negative entries.
    """
    return per_qubit_transform(p_meas, [confusion_inverse(a, i) for i, a in enumerate(confusion)])


def mitigate_distributions(probs: np.ndarray, qrem: bool,
                           confusion: Sequence[np.ndarray]) -> np.ndarray:
    """Project each row of (9, 4) distributions onto the simplex, after QREM if ``qrem`` is set.

    The projections of all bases run as one stack.
    """
    return michelot_project(qrem_correct(probs, confusion) if qrem else probs)


def estimate_confusion_matrices(true_confusion: Sequence[np.ndarray], shots: int,
                                rng: np.random.Generator) -> list[np.ndarray]:
    """Calibrate per-qubit confusion matrices from simulated readout shots.

    Prepares the all-zeros and all-ones registers ``shots`` times each and
    counts per-qubit flips, assuming independent qubits. A qubit's flip
    count over independent shots is binomial, so one ``rng.binomial`` call
    draws all 2k counts: row 0 at ``A[1, 0]``, the chance of reading 1 from
    a prepared 0, and row 1 at ``1 - A[1, 1]``. The matrices are taken as
    checked, as ``NoiseModel.qubit_confusion`` serves them; entries that
    the matrix check admits just outside [0, 1] are clipped to it.
    """
    if shots <= 0:
        raise ValueError("calibration needs a positive shot count")
    p_read1 = np.array([a[1] for a in true_confusion])  # (k, prepared)
    flip = np.clip([p_read1[:, 0], 1.0 - p_read1[:, 1]], 0.0, 1.0)
    e01, e10 = rng.binomial(shots, flip) / shots
    return [confusion_matrix(a, b) for a, b in zip(e01, e10)]
