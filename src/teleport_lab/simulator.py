"""Gate tables shared by the transport engine and tomography.

`GATE_MATRICES` holds the 2x2 matrix of every `Gate`, all of them
single-qubit, in the basis (|0>, |1>); `PAULI_MATRICES` maps I, X, Y and Z
to theirs. The engine applies its two-qubit gates with `ShotBatch.apply_cz`
and `apply_cnot`.
"""
from __future__ import annotations

from enum import Enum
from math import sqrt

import numpy as np

_SQRT2_INV = 1.0 / sqrt(2.0)


class Gate(Enum):
    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    SDG = "SDG"


GATE_MATRICES = {
    Gate.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Gate.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    Gate.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
}

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": GATE_MATRICES[Gate.X],
    "Y": GATE_MATRICES[Gate.Y],
    "Z": GATE_MATRICES[Gate.Z],
}
