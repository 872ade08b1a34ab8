"""Gate tables shared by the transport engine and tomography.

`GATE_MATRICES` holds the 2x2 matrix of every single-qubit `Gate`, in the
basis (|0>, |1>); `PAULI_MATRICES` maps I, X, Y and Z to theirs. `GateOp`
binds a gate to its target qubits, as `tomography.tomography_rotations`
lists the basis rotations.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

_SQRT2_INV = 1.0 / sqrt(2.0)


class Gate(Enum):
    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    S = "S"
    SDG = "SDG"
    CZ = "CZ"
    CNOT = "CNOT"
    SWAP = "SWAP"

    @property
    def num_targets(self) -> int:
        return 2 if self in (Gate.CZ, Gate.CNOT, Gate.SWAP) else 1


GATE_MATRICES = {
    Gate.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Gate.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    Gate.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    Gate.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
}

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": GATE_MATRICES[Gate.X],
    "Y": GATE_MATRICES[Gate.Y],
    "Z": GATE_MATRICES[Gate.Z],
}


@dataclass(frozen=True)
class GateOp:
    """A named gate bound to target qubits."""

    kind: Gate
    targets: tuple[int, ...]

    def __post_init__(self):
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) != self.kind.num_targets:
            raise ValueError(f"{self.kind.value} expects {self.kind.num_targets} targets, got {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets {targets} for {self.kind.value}")

