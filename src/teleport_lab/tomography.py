"""Two-qubit state tomography: basis rotations and linear inversion.

Tomography distributions are float arrays of shape (..., 9, 4): one row
per basis pair in `BASIS_PAIRS` order, and outcome index
``b_first + 2 * b_second`` within a row. Leading axes stack independent
pairs.

The module also holds the one-qubit gate matrices, in the basis (|0>, |1>),
that the transport engine and the exact channels apply: `H`, `SDG`
(S-dagger) and the Paulis in `PAULI_MATRICES`.
"""
from __future__ import annotations

import itertools
from math import sqrt

import numpy as np

from .metrics import nearest_physical

H = np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / sqrt(2.0))
SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

PAULI_AXES = ("X", "Y", "Z")
BASIS_PAIRS: tuple[tuple[str, str], ...] = tuple(itertools.product(PAULI_AXES, PAULI_AXES))

_ROTATIONS = {"X": (H,), "Y": (SDG, H), "Z": ()}


def rotation_gates(axis: str) -> tuple[np.ndarray, ...]:
    """Matrices mapping the eigenbasis of Pauli axis X, Y or Z onto Z, in application order."""
    return _ROTATIONS[axis]


_SIGN_FIRST = np.array([1.0, -1.0, 1.0, -1.0])
_SIGN_SECOND = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_BOTH = _SIGN_FIRST * _SIGN_SECOND


def pauli_expectations(probs) -> dict[tuple[str, str], np.ndarray]:
    """All 16 two-qubit Pauli expectation values from a (..., 9, 4) distribution array.

    The expectations have the array's leading shape. Expectations
    involving an identity are averaged over every basis pair that
    marginalizes to them.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-2:] != (len(BASIS_PAIRS), 4):
        raise ValueError(f"expected tomography distributions of shape (..., 9, 4), "
                         f"got {probs.shape}")
    by_pair = dict(zip(BASIS_PAIRS, np.moveaxis(probs, -2, 0)))  # (..., 4) views
    # (p * sign).sum adds the four signed outcomes in order, as a 1-d dot product does
    exp = {("I", "I"): np.ones(probs.shape[:-2])}
    for pair in BASIS_PAIRS:
        exp[pair] = (by_pair[pair] * _SIGN_BOTH).sum(axis=-1)
    for axis in PAULI_AXES:
        first = [(by_pair[(axis, other)] * _SIGN_FIRST).sum(axis=-1) for other in PAULI_AXES]
        exp[(axis, "I")] = np.mean(first, axis=0)
        second = [(by_pair[(other, axis)] * _SIGN_SECOND).sum(axis=-1) for other in PAULI_AXES]
        exp[("I", axis)] = np.mean(second, axis=0)
    return exp


# the 16 Pauli products in the order reconstruct adds them: _TERM_MATRICES[4 f + s] is
# np.kron(P[s], P[f]) for first-qubit Pauli f and second-qubit Pauli s, in one product
_TERMS = [(first, second) for first in ("I",) + PAULI_AXES for second in ("I",) + PAULI_AXES]
_PAULIS = np.array([PAULI_MATRICES[axis] for axis in ("I",) + PAULI_AXES])
_TERM_MATRICES = (_PAULIS[None, :, :, None, :, None]
                  * _PAULIS[:, None, None, :, None, :]).reshape(16, 4, 4)


def reconstruct(probs) -> np.ndarray:
    """Linear-inversion density matrix from mitigated (..., 9, 4) distributions.

    One (9, 4) array gives one 4x4 matrix, a stack gives a stack. The raw
    inversion is projected to the nearest physical state before being
    returned.
    """
    exp = pauli_expectations(probs)
    rho = np.zeros(exp[("I", "I")].shape + (4, 4), dtype=complex)
    for term, matrix in zip(_TERMS, _TERM_MATRICES):
        rho += exp[term][..., None, None] * matrix
    rho /= 4.0
    return nearest_physical(rho)
