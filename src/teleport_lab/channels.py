"""Noise parameters and exact noise channels.

`NoiseModel` holds the error rates that the trajectory engine
(`protocols.ShotBatch`) samples per shot; `decay_probabilities` gives the
Kraus branch weights of its idle decay. The exact channel forms at the
bottom act on density matrices of small systems: they serve the analytic
routes and are the oracles the sampled engine is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, sqrt
from typing import Sequence

import numpy as np

from .simulator import Gate, GATE_MATRICES

#: Idle-decay constants fitted so that a two-qubit graph state loses
#: negativity 0.474 -> 0.376 in about 2 us. These reproduce the observed
#: idle-decay window of the reference device; they are fitted surrogates,
#: not measured hardware T1/T2.
FITTED_T1_US = 33.0
FITTED_T2_US = 25.0
DEFAULT_LATENCY_US = 2.0


def confusion_matrix(p_flip_0to1: float, p_flip_1to0: float) -> np.ndarray:
    """2x2 column-stochastic readout matrix A[read][prepared]."""
    for p in (p_flip_0to1, p_flip_1to0):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"flip probability {p} outside [0, 1]")
    return np.array([[1.0 - p_flip_0to1, p_flip_1to0],
                     [p_flip_0to1, 1.0 - p_flip_1to0]])


def check_confusion_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("confusion matrix must be 2x2")
    if np.any(a < -1e-12) or np.any(a > 1 + 1e-12):
        raise ValueError("confusion matrix entries must be probabilities")
    if np.max(np.abs(a.sum(axis=0) - 1.0)) > 1e-12:
        raise ValueError("confusion matrix columns must sum to 1")
    return a


@dataclass
class NoiseModel:
    """Per-shot stochastic error model for one transport run.

    Scalar fields are defaults; the optional per-edge / per-qubit lists
    override them positionally along the path when a device calibration
    is in play. ``readout`` holds one confusion matrix per path qubit.
    """

    one_qubit_depol: float = 0.0
    two_qubit_depol: float = 0.0
    t1_us: float = FITTED_T1_US
    t2_us: float = FITTED_T2_US
    dynamic_correction_latency_us: float = DEFAULT_LATENCY_US
    readout: list = field(default_factory=list)
    two_qubit_depol_per_edge: list | None = None
    t1_per_qubit_us: list | None = None
    t2_per_qubit_us: list | None = None

    def __post_init__(self):
        for name in ("one_qubit_depol", "two_qubit_depol"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        for name in ("t1_us", "t2_us", "dynamic_correction_latency_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.t2_us > 2.0 * self.t1_us + 1e-12:
            raise ValueError(f"t2 ({self.t2_us}) must not exceed 2*t1 ({2 * self.t1_us})")
        if self.t1_per_qubit_us is not None and self.t2_per_qubit_us is not None:
            for t1, t2 in zip(self.t1_per_qubit_us, self.t2_per_qubit_us):
                if t2 > 2.0 * t1 + 1e-12:
                    raise ValueError(f"per-qubit t2 ({t2}) exceeds 2*t1 ({2 * t1})")
        self.readout = [check_confusion_matrix(a) for a in self.readout]

    def edge_depol(self, edge_index: int) -> float:
        if self.two_qubit_depol_per_edge is not None:
            return self.two_qubit_depol_per_edge[edge_index]
        return self.two_qubit_depol

    def qubit_t1t2(self, qubit: int) -> tuple[float, float]:
        t1 = self.t1_us if self.t1_per_qubit_us is None else self.t1_per_qubit_us[qubit]
        t2 = self.t2_us if self.t2_per_qubit_us is None else self.t2_per_qubit_us[qubit]
        return t1, t2

    def qubit_confusion(self, qubit: int) -> np.ndarray:
        if not self.readout:
            return np.eye(2)
        return self.readout[qubit]


_PAULI_GATES = (Gate.X, Gate.Y, Gate.Z)


def decay_probabilities(duration_us: float, t1_us: float, t2_us: float) -> tuple[float, float]:
    """(gamma, p_z): amplitude-damping branch weight and phase-flip probability."""
    if duration_us < 0:
        raise ValueError("duration must be non-negative")
    if t2_us > 2.0 * t1_us + 1e-12:
        raise ValueError("t2 must not exceed 2*t1")
    if duration_us == 0.0:
        return 0.0, 0.0
    gamma = 1.0 - exp(-duration_us / t1_us) if t1_us > 0 else 1.0
    # pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1)
    rate_phi = max(1.0 / t2_us - 0.5 / t1_us, 0.0) if t2_us > 0 else float("inf")
    p_z = 0.5 * (1.0 - exp(-duration_us * rate_phi))
    return gamma, p_z


# ---------------------------------------------------------------------------
# Exact channel forms, used by the analytic paths and as test oracles.

def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    return [np.array([[1.0, 0.0], [0.0, sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, sqrt(gamma)], [0.0, 0.0]], dtype=complex)]


def phase_flip_kraus(p_z: float) -> list[np.ndarray]:
    return [sqrt(1.0 - p_z) * np.eye(2, dtype=complex),
            sqrt(p_z) * GATE_MATRICES[Gate.Z]]


def idle_kraus_ops(duration_us: float, t1_us: float, t2_us: float) -> list[np.ndarray]:
    gamma, p_z = decay_probabilities(duration_us, t1_us, t2_us)
    return [kz @ ka for ka in amplitude_damping_kraus(gamma) for kz in phase_flip_kraus(p_z)]


def _embed_single(k: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for q in range(num_qubits):
        out = np.kron(k if q == qubit else np.eye(2, dtype=complex), out)
    return out


def apply_kraus_channel(rho: np.ndarray, kraus: Sequence[np.ndarray], qubit: int) -> np.ndarray:
    """Exact single-qubit Kraus channel on a multi-qubit density matrix."""
    n = int(np.log2(rho.shape[0]))
    out = np.zeros_like(rho, dtype=complex)
    for k in kraus:
        full = _embed_single(np.asarray(k, dtype=complex), qubit, n)
        out += full @ rho @ full.conj().T
    return out


def depolarizing_channel(rho: np.ndarray, qubits: Sequence[int], p: float) -> np.ndarray:
    """Exact uniform depolarizing channel over the listed qubits."""
    n = int(np.log2(rho.shape[0]))
    paulis = [np.eye(2, dtype=complex)] + [GATE_MATRICES[g] for g in _PAULI_GATES]
    n_words = 4 ** len(qubits)
    acc = np.zeros_like(rho, dtype=complex)
    for word in range(1, n_words):
        full = np.eye(rho.shape[0], dtype=complex)
        w = word
        for q in qubits:
            k = w & 3
            w >>= 2
            if k:
                full = _embed_single(paulis[k], q, n) @ full
        acc += full @ rho @ full.conj().T
    return (1.0 - p) * rho + p / (n_words - 1) * acc


def idle_decay_channel(rho: np.ndarray, qubits: Sequence[int], duration_us: float,
                       t1_us: float, t2_us: float) -> np.ndarray:
    ks = idle_kraus_ops(duration_us, t1_us, t2_us)
    for q in qubits:
        rho = apply_kraus_channel(rho, ks, q)
    return rho


def readout_channel(probs: np.ndarray, confusion: Sequence[np.ndarray]) -> np.ndarray:
    """Exact action of per-qubit readout confusion on an outcome distribution.

    Outcome index bit i (weight 2^i) belongs to the i-th confusion matrix.
    """
    k = len(confusion)
    if probs.shape != (1 << k,):
        raise ValueError("distribution length must be 2^(number of matrices)")
    out = np.asarray(probs, dtype=float)
    for i, a in enumerate(confusion):
        a = check_confusion_matrix(a)
        lo = 1 << i
        view = out.reshape(-1, 2, lo)
        out = np.einsum("ij,ajb->aib", a, view).reshape(-1)
    return out
