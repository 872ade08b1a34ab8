"""Two-qubit state tomography: basis rotations, counts, linear inversion."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .metrics import nearest_physical
from .simulator import Gate, GateOp, PAULI_MATRICES

PAULI_AXES = ("X", "Y", "Z")
BASIS_PAIRS: tuple[tuple[str, str], ...] = tuple(itertools.product(PAULI_AXES, PAULI_AXES))

_ROTATIONS = {"X": (Gate.H,), "Y": (Gate.SDG, Gate.H), "Z": ()}


def rotation_gates(axis: str) -> tuple[Gate, ...]:
    """Gates mapping one Pauli eigenbasis onto Z, in application order."""
    try:
        return _ROTATIONS[axis.upper()]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis}") from None


def tomography_rotations(basis_pair: tuple[str, str], qubits: tuple[int, int]) -> list[GateOp]:
    """Gates mapping the requested Pauli eigenbases onto Z before measurement."""
    return [GateOp(g, qubit) for axis, qubit in zip(basis_pair, qubits)
            for g in rotation_gates(axis)]


@dataclass
class TomographySet:
    """Outcome counts for each of the 9 two-qubit Pauli basis pairs.

    Count vectors are indexed by ``b_first + 2 * b_second``.
    """

    counts: dict = field(default_factory=dict)

    def frequencies(self) -> dict[tuple[str, str], np.ndarray]:
        out = {}
        for pair, vec in self.counts.items():
            total = vec.sum()
            out[pair] = vec / total if total > 0 else np.full(4, 0.25)
        return out


_SIGN_FIRST = np.array([1.0, -1.0, 1.0, -1.0])
_SIGN_SECOND = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_BOTH = _SIGN_FIRST * _SIGN_SECOND


def pauli_expectations(probs_by_basis: dict) -> dict[tuple[str, str], np.ndarray]:
    """All 16 two-qubit Pauli expectation values from 9 outcome distributions.

    Each basis maps to one distribution of 4 outcomes or a stack of them
    along a leading axis; the expectations have that leading shape.
    Expectations involving an identity are averaged over every basis pair
    that marginalizes to them.
    """
    missing = [p for p in BASIS_PAIRS if p not in probs_by_basis]
    if missing:
        raise ValueError(f"missing tomography bases: {missing}")
    probs = {pair: np.asarray(probs_by_basis[pair], dtype=float) for pair in BASIS_PAIRS}
    for pair, p in probs.items():
        if p.shape[-1:] != (4,) or p.shape != probs[BASIS_PAIRS[0]].shape:
            raise ValueError(f"basis {pair} distribution must have 4 outcomes")
    # (p * sign).sum adds the four signed outcomes in order, as a 1-d dot product does
    exp = {("I", "I"): np.ones(probs[BASIS_PAIRS[0]].shape[:-1])}
    for pair in BASIS_PAIRS:
        exp[pair] = (probs[pair] * _SIGN_BOTH).sum(axis=-1)
    for axis in PAULI_AXES:
        first = [(probs[(axis, other)] * _SIGN_FIRST).sum(axis=-1) for other in PAULI_AXES]
        exp[(axis, "I")] = np.mean(first, axis=0)
        second = [(probs[(other, axis)] * _SIGN_SECOND).sum(axis=-1) for other in PAULI_AXES]
        exp[("I", axis)] = np.mean(second, axis=0)
    return exp


# the 16 Pauli products in the order reconstruct adds them: _TERM_MATRICES[4 f + s] is
# np.kron(P[s], P[f]) for first-qubit Pauli f and second-qubit Pauli s, in one product
_TERMS = [(first, second) for first in ("I",) + PAULI_AXES for second in ("I",) + PAULI_AXES]
_PAULIS = np.array([PAULI_MATRICES[axis] for axis in ("I",) + PAULI_AXES])
_TERM_MATRICES = (_PAULIS[None, :, :, None, :, None]
                  * _PAULIS[:, None, None, :, None, :]).reshape(16, 4, 4)


def reconstruct(probs_by_basis: dict) -> np.ndarray:
    """Linear-inversion density matrix from mitigated outcome distributions.

    Each basis maps to one distribution or a stack of them (see
    `pauli_expectations`); the result is one 4x4 matrix or a stack. The
    raw inversion is projected to the nearest physical state before being
    returned.
    """
    exp = pauli_expectations(probs_by_basis)
    rho = np.zeros(exp[("I", "I")].shape + (4, 4), dtype=complex)
    for term, matrix in zip(_TERMS, _TERM_MATRICES):
        rho += exp[term][..., None, None] * matrix
    rho /= 4.0
    return nearest_physical(rho)
