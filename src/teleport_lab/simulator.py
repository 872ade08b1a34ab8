"""Dense statevector simulator for small qubit registers.

Conventions, fixed once for the whole package:

* Qubit ``q`` is the q-th least significant bit of the amplitude index,
  so basis state ``|x_{n-1} ... x_1 x_0>`` lives at index
  ``sum(x_q << q)``.
* Global phase is never normalized away and never compared; use
  :func:`states_equal` for phase-insensitive comparison.
* Amplitudes are complex128; registers are capped at 24 qubits.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 24

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


def op(kind: Gate | str, *targets: int) -> GateOp:
    if isinstance(kind, str):
        kind = Gate(kind.upper())
    return GateOp(kind, tuple(targets))


@dataclass
class PureState:
    """Normalized amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state is not normalized (norm={norm})")
        self.amplitudes = amps

    @classmethod
    def zero(cls, num_qubits: int) -> "PureState":
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def plus(cls, num_qubits: int) -> "PureState":
        dim = 1 << num_qubits
        return cls(num_qubits, np.full(dim, 1.0 / sqrt(dim), dtype=complex))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "PureState":
        """Computational basis state; bits[q] is the value of qubit q."""
        n = len(bits)
        amps = np.zeros(1 << n, dtype=complex)
        amps[index_of_bits(bits)] = 1.0
        return cls(n, amps)

    def copy(self) -> "PureState":
        return PureState(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def index_of_bits(bits: Sequence[int]) -> int:
    """Amplitude index of the basis state with bits[q] on qubit q."""
    return sum((int(b) & 1) << q for q, b in enumerate(bits))


def bits_of_index(index: int, num_qubits: int) -> tuple[int, ...]:
    return tuple((index >> q) & 1 for q in range(num_qubits))


def _check_targets(state: PureState, targets: Iterable[int]):
    for t in targets:
        if not 0 <= t < state.num_qubits:
            raise ValueError(f"qubit {t} out of range for {state.num_qubits}-qubit state")


def _apply_single(amps: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # View as (high bits, this qubit, low bits) and contract the middle axis.
    lo = 1 << qubit
    view = amps.reshape(-1, 2, lo)
    return np.einsum("ij,ajb->aib", matrix, view).reshape(-1)


def _apply_cz(amps: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    idx = np.arange(amps.size)
    mask = ((idx >> q1) & 1).astype(bool) & ((idx >> q2) & 1).astype(bool)
    out = amps.copy()
    out[mask] *= -1
    return out


def _apply_cnot(amps: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    idx = np.arange(amps.size)
    perm = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return amps[perm]


def _apply_swap(amps: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    idx = np.arange(amps.size)
    b1 = (idx >> q1) & 1
    b2 = (idx >> q2) & 1
    perm = np.where(b1 != b2, idx ^ (1 << q1) ^ (1 << q2), idx)
    return amps[perm]


def apply_gate(state: PureState, gate_op: GateOp) -> PureState:
    """Unitary action of the named gate; all other qubits untouched."""
    _check_targets(state, gate_op.targets)
    n = state.num_qubits
    amps = state.amplitudes
    kind = gate_op.kind
    if kind.num_targets == 1:
        out = _apply_single(amps, GATE_MATRICES[kind], gate_op.targets[0], n)
    elif kind is Gate.CZ:
        out = _apply_cz(amps, *gate_op.targets, n)
    elif kind is Gate.CNOT:
        out = _apply_cnot(amps, *gate_op.targets, n)
    else:
        out = _apply_swap(amps, *gate_op.targets, n)
    return PureState(n, out)


def apply_gates(state: PureState, ops: Iterable[GateOp]) -> PureState:
    for o in ops:
        state = apply_gate(state, o)
    return state


def _marginal_probability_one(amps: np.ndarray, qubit: int) -> float:
    lo = 1 << qubit
    view = np.abs(amps.reshape(-1, 2, lo)) ** 2
    return float(view[:, 1, :].sum())


def _collapse(amps: np.ndarray, qubit: int, bit: int, prob: float) -> np.ndarray:
    lo = 1 << qubit
    out = amps.reshape(-1, 2, lo).copy()
    out[:, 1 - bit, :] = 0.0
    return (out / sqrt(prob)).reshape(-1)


def postselect(state: PureState, qubit: int, basis: str, bit: int) -> tuple[PureState, float]:
    """Force a measurement branch; returns (renormalized post-state, branch probability)."""
    basis = basis.upper()
    _check_targets(state, [qubit])
    amps = state.amplitudes
    if basis == "X":
        amps = _apply_single(amps, GATE_MATRICES[Gate.H], qubit, state.num_qubits)
    elif basis != "Z":
        raise ValueError(f"basis must be Z or X, got {basis}")
    p1 = _marginal_probability_one(amps, qubit)
    prob = p1 if bit else 1.0 - p1
    if prob < 1e-15:
        raise ValueError(f"branch (qubit={qubit}, bit={bit}) has zero probability")
    return PureState(state.num_qubits, _collapse(amps, qubit, bit, prob)), prob


_BASIS_ROTATIONS = {
    "Z": [],
    "X": [Gate.H],
    "Y": [Gate.SDG, Gate.H],
}


def born_probabilities(state: PureState, qubits: Sequence[int], bases: Sequence[str]) -> np.ndarray:
    """Exact joint outcome distribution for the listed qubits and bases.

    Outcome index k encodes bit i (for the i-th listed qubit) at weight 2^i.
    Bases may be X, Y or Z.
    """
    if len(qubits) != len(bases):
        raise ValueError("qubits and bases must have equal length")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits {qubits}")
    _check_targets(state, qubits)
    amps = state.amplitudes
    n = state.num_qubits
    for q, b in zip(qubits, bases):
        for g in _BASIS_ROTATIONS[b.upper()]:
            amps = _apply_single(amps, GATE_MATRICES[g], q, n)
    probs = np.abs(amps) ** 2
    idx = np.arange(probs.size)
    key = np.zeros(probs.size, dtype=np.int64)
    for i, q in enumerate(qubits):
        key |= ((idx >> q) & 1) << i
    out = np.bincount(key, weights=probs, minlength=1 << len(qubits))
    return out


def add_qubit(state: PureState, amplitudes=(1.0, 0.0)) -> PureState:
    """Append one qubit (as the new highest index) in the given 1-qubit state."""
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.shape != (2,):
        raise ValueError("new qubit needs exactly 2 amplitudes")
    return PureState(state.num_qubits + 1, np.kron(vec, state.amplitudes))


def remove_qubit(state: PureState, qubit: int) -> PureState:
    """Drop a qubit that is in a definite computational state (e.g. just measured)."""
    lo = 1 << qubit
    view = state.amplitudes.reshape(-1, 2, lo)
    w0 = float(np.abs(view[:, 0, :]).sum())
    w1 = float(np.abs(view[:, 1, :]).sum())
    bit = int(w1 > w0)
    if min(w0, w1) > 1e-9:
        raise ValueError(f"qubit {qubit} is not in a definite computational state")
    return PureState(state.num_qubits - 1, view[:, bit, :].reshape(-1).copy())


def states_equal(a: PureState | np.ndarray, b: PureState | np.ndarray, tol: float = 1e-9) -> bool:
    """Equality of normalized states up to global phase."""
    va = a.amplitudes if isinstance(a, PureState) else np.asarray(a)
    vb = b.amplitudes if isinstance(b, PureState) else np.asarray(b)
    if va.shape != vb.shape:
        return False
    return abs(abs(np.vdot(va, vb)) - 1.0) < tol
