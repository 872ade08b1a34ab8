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
    return [GateOp(g, (qubit,)) for axis, qubit in zip(basis_pair, qubits)
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


def pauli_expectations(probs_by_basis: dict) -> dict[tuple[str, str], float]:
    """All 16 two-qubit Pauli expectation values from 9 outcome distributions.

    Expectations involving an identity are averaged over every basis pair
    that marginalizes to them.
    """
    missing = [p for p in BASIS_PAIRS if p not in probs_by_basis]
    if missing:
        raise ValueError(f"missing tomography bases: {missing}")
    exp: dict[tuple[str, str], float] = {("I", "I"): 1.0}
    for pair in BASIS_PAIRS:
        p = np.asarray(probs_by_basis[pair], dtype=float)
        if p.shape != (4,):
            raise ValueError(f"basis {pair} distribution must have 4 outcomes")
        exp[pair] = float(p @ _SIGN_BOTH)
    for axis in PAULI_AXES:
        first = [np.asarray(probs_by_basis[(axis, other)], dtype=float) @ _SIGN_FIRST
                 for other in PAULI_AXES]
        exp[(axis, "I")] = float(np.mean(first))
        second = [np.asarray(probs_by_basis[(other, axis)], dtype=float) @ _SIGN_SECOND
                  for other in PAULI_AXES]
        exp[("I", axis)] = float(np.mean(second))
    return exp


def reconstruct(probs_by_basis: dict) -> np.ndarray:
    """Linear-inversion density matrix from mitigated outcome distributions.

    The raw inversion is projected to the nearest physical state before
    being returned.
    """
    exp = pauli_expectations(probs_by_basis)
    rho = np.zeros((4, 4), dtype=complex)
    for first in ("I",) + PAULI_AXES:
        for second in ("I",) + PAULI_AXES:
            term = np.kron(PAULI_MATRICES[second], PAULI_MATRICES[first])
            rho += exp[(first, second)] * term
    rho /= 4.0
    return nearest_physical(rho)
