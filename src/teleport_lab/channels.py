"""Noise parameters and exact noise channels.

`NoiseModel` holds the error rates that the trajectory engine
(`protocols.ShotBatch`) samples per shot; `decay_probabilities` gives the
Kraus branch weights of its idle decay. The exact channel forms at the
bottom act on small density matrices by reshaping, without embedding any
operator in the full space. `exact_pair_distributions` is the one exact
two-qubit route: `gen-device` edge negativities, `decay --shots 0` and the
oracle of the sampled idle pair all come from it. `per_qubit_transform`
gives that route its readout, and `mitigation.qrem_correct` its correction.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import exp, inf, sqrt
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .tomography import BASIS_PAIRS, rotation_gates

#: Idle-decay constants fitted so that a two-qubit graph state loses
#: negativity 0.474 -> 0.376 in about 2 us. These reproduce the observed
#: idle-decay window of the reference device; they are fitted surrogates,
#: not measured hardware T1/T2.
FITTED_T1_US = 33.0
FITTED_T2_US = 25.0
DEFAULT_LATENCY_US = 2.0
#: One-qubit gate depolarizing of every device path and `gen-device` edge negativity.
DEFAULT_ONE_QUBIT_DEPOL = 2e-4
_FLOAT_MAX = sys.float_info.max


def check_number(name: str, value, low: float = -inf, high: float = inf, *,
                 integer: bool = False, finite: bool = False):
    """`value` if it is a number in [low, high], else ValueError naming `name`.

    The one check of every number read from outside. A bool is no number,
    and NaN fails every comparison, so it lies in no range. `integer` asks
    for an int; any other number must fit a float, and `finite` rules out
    the infinities too.
    """
    real = isinstance(value, Real) and not isinstance(value, bool)
    if real and low <= value <= high and (
            isinstance(value, Integral) if integer
            else abs(value) <= _FLOAT_MAX or abs(value) == inf and not finite):
        return value
    kind = "an integer" if integer else "a finite number" if finite else "a number"
    spell = str if integer else "{:g}".format  # integer bounds in full, not as 1e+06
    bounds = f" in [{spell(low)}, {spell(high)}]" if (low, high) != (-inf, inf) else ""
    raise ValueError(f"{name} must be {kind}{bounds}, got {value if real else repr(value)}")


def confusion_matrix(p_flip_0to1: float, p_flip_1to0: float) -> np.ndarray:
    """2x2 column-stochastic readout matrix A[read][prepared]."""
    for p in (p_flip_0to1, p_flip_1to0):
        check_number("flip probability", p, 0.0, 1.0)
    return np.array([[1.0 - p_flip_0to1, p_flip_1to0],
                     [p_flip_0to1, 1.0 - p_flip_1to0]])


def check_confusion_matrix(a) -> np.ndarray:
    """`a` as a float 2x2 column-stochastic matrix.

    An array is checked as a whole; any other value, such as nested lists
    read from JSON, has each entry checked by `check_number` first, since
    `np.asarray([[1, 0], [False, True]])` would read the bools as ints.
    """
    if not isinstance(a, np.ndarray):
        a = np.asarray(a, dtype=object)
        if a.shape == (2, 2):
            a = np.array([check_number("confusion matrix entry", v, 0.0, 1.0) for v in a.flat],
                         dtype=float).reshape(2, 2)
    if a.shape != (2, 2):
        raise ValueError("confusion matrix must be 2x2")
    # NaN fails both comparisons; bools, strings and None are no probabilities either
    if a.dtype.kind not in "iuf" or not np.all((a >= -1e-12) & (a <= 1 + 1e-12)):
        raise ValueError("confusion matrix entries must be probabilities")
    if np.max(np.abs(a.sum(axis=0) - 1.0)) > 1e-12:
        raise ValueError("confusion matrix columns must sum to 1")
    return a.astype(float, copy=False)


#: The NoiseModel fields that take a list with one value per path position.
_LISTED = ("two_qubit_depol", "t1_us", "t2_us")


def _at(value: float | list, position: int) -> float:
    return value[position] if isinstance(value, list) else value


@dataclass
class NoiseModel:
    """Per-shot stochastic error model for one transport run.

    ``two_qubit_depol`` (per path edge), ``t1_us`` and ``t2_us`` (per path
    qubit) each hold one number for every position or a list with one
    number per position. ``readout`` holds one confusion matrix per path
    qubit, or none for ideal readout.
    """

    one_qubit_depol: float = 0.0
    two_qubit_depol: float | list = 0.0
    t1_us: float | list = FITTED_T1_US
    t2_us: float | list = FITTED_T2_US
    dynamic_correction_latency_us: float = DEFAULT_LATENCY_US
    readout: list = field(default_factory=list)

    def __post_init__(self):
        for name, high in (("one_qubit_depol", 1.0), ("two_qubit_depol", 1.0), ("t1_us", inf),
                           ("t2_us", inf), ("dynamic_correction_latency_us", inf)):
            value = getattr(self, name)
            for v in value if name in _LISTED and isinstance(value, list) else (value,):
                check_number(name, v, 0.0, high, finite=name == "dynamic_correction_latency_us")
        # exactly the (T1, T2) pairs that qubit_t1t2 serves: one per listed position,
        # or the scalar pair when neither time is listed
        listed = [len(ts) for ts in (self.t1_us, self.t2_us) if isinstance(ts, list)]
        for pos in range(min(listed, default=1)):
            t1, t2 = self.qubit_t1t2(pos)
            if t2 > 2.0 * t1 + 1e-12:
                where = f" at path position {pos}" if listed else ""
                raise ValueError(f"t2 ({t2}) exceeds 2*t1 ({2 * t1}){where}")
        try:
            self.readout = [check_confusion_matrix(a) for a in self.readout]
        except (TypeError, ValueError) as exc:  # TypeError: not a list
            raise ValueError(f"readout: {exc}") from None

    def edge_depol(self, edge_index: int) -> float:
        return _at(self.two_qubit_depol, edge_index)

    def qubit_t1t2(self, qubit: int) -> tuple[float, float]:
        return _at(self.t1_us, qubit), _at(self.t2_us, qubit)

    def qubit_confusion(self, qubit: int) -> np.ndarray:
        if not self.readout:
            return np.eye(2)
        return self.readout[qubit]


def decay_probabilities(duration_us: float, t1_us: float, t2_us: float) -> tuple[float, float]:
    """(gamma, p_z): amplitude-damping branch weight and phase-flip probability."""
    if not 0 <= duration_us < inf:  # NaN fails too
        raise ValueError(f"duration must be finite and non-negative, got {duration_us}")
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
# Exact channel forms on density matrices. Qubit q is bit q of the matrix
# index, the outcome-index convention of the whole package.

def _split(rho: np.ndarray, qubit: int) -> np.ndarray:
    """View of a 2^n x 2^n matrix with qubit's row and column bits on axes 1 and 4."""
    n = rho.shape[0].bit_length() - 1
    hi, lo = 1 << (n - 1 - qubit), 1 << qubit
    return rho.reshape(hi, 2, lo, hi, 2, lo)


def idle_channel(rho: np.ndarray, qubit: int, gamma: float, p_z: float) -> np.ndarray:
    """Amplitude damping of branch weight gamma, then a phase flip of probability p_z.

    Written on the qubit's 2x2 blocks: the excited population decays into
    the ground one, and the coherences shrink by sqrt(1 - gamma) (1 - 2 p_z).
    """
    out = np.array(rho, dtype=complex)
    view = _split(out, qubit)
    view[:, 0, :, :, 0] += gamma * view[:, 1, :, :, 1]
    view[:, 1, :, :, 1] *= 1.0 - gamma
    coherence = sqrt(1.0 - gamma) * (1.0 - 2.0 * p_z)
    view[:, 0, :, :, 1] *= coherence
    view[:, 1, :, :, 0] *= coherence
    return out


def _twirl(rho: np.ndarray, qubit: int) -> np.ndarray:
    """(rho + X rho X + Y rho Y + Z rho Z) / 4, which is Tr_q(rho) (x) I_q / 2."""
    view = _split(rho, qubit)
    half = (view[:, 0, :, :, 0] + view[:, 1, :, :, 1]) / 2
    out = np.zeros_like(view)
    out[:, 0, :, :, 0] = out[:, 1, :, :, 1] = half
    return out.reshape(rho.shape)


def depolarizing_channel(rho: np.ndarray, qubits: Sequence[int], p: float) -> np.ndarray:
    """Exact uniform depolarizing channel over the listed qubits.

    The 4^k Pauli strings on the k targets Q sum to 4^k T, with T =
    Tr_Q(rho) (x) I_Q / 2^k, so the channel is (1 - p) rho + p / (4^k - 1) (4^k T - rho).
    """
    rho = np.asarray(rho, dtype=complex)
    twirl = rho
    for q in qubits:
        twirl = _twirl(twirl, q)
    n_words = 4 ** len(qubits)
    return (1.0 - p) * rho + p / (n_words - 1) * (n_words * twirl - rho)


def per_qubit_transform(probs: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one 2x2 matrix per measured qubit, one tensor axis at a time.

    Takes one outcome vector or a ``(..., 2^k)`` stack of them; outcome
    index bit i (weight 2^i) belongs to the i-th matrix. The matrices are
    used as given, so a caller checks them first.
    """
    k = len(matrices)
    probs = out = np.asarray(probs, dtype=float)
    if probs.shape[-1:] != (1 << k,):
        raise ValueError(f"expected {1 << k} outcomes for {k} per-qubit matrices")
    for i, a in enumerate(matrices):
        out = np.einsum("ij,ajb->aib", a, out.reshape(-1, 2, 1 << i))
    return out.reshape(probs.shape)


def exact_pair_distributions(noise: NoiseModel, delay_us: float = 0.0) -> np.ndarray:
    """Exact (9, 4) tomography distributions of `protocols.run_idle_pair`.

    Noisy CZ|++> preparation, an idle of both qubits for ``delay_us``, the
    tomography rotations with their 1-qubit depolarizing, and readout.
    """
    plus = np.full(4, 0.5, dtype=complex)
    rho = np.outer(plus, plus)
    for q in (0, 1):
        rho = depolarizing_channel(rho, (q,), noise.one_qubit_depol)
    cz_signs = np.array([1.0, 1.0, 1.0, -1.0])
    rho = depolarizing_channel(rho * np.outer(cz_signs, cz_signs), (0, 1), noise.edge_depol(0))
    for q in (0, 1):
        rho = idle_channel(rho, q, *decay_probabilities(delay_us, *noise.qubit_t1t2(q)))
    # 4x4 products: a reshaped form sums in another order, which moves
    # gen-device negativities by up to 5e-16
    eye = np.eye(2, dtype=complex)
    diagonals = np.empty((len(BASIS_PAIRS), 4))
    for row, pair in zip(diagonals, BASIS_PAIRS):
        rotated = rho
        for q, axis in enumerate(pair):
            for g in rotation_gates(axis):
                u = np.kron(g, eye) if q == 1 else np.kron(eye, g)
                rotated = depolarizing_channel(u @ rotated @ u.conj().T, (q,),
                                               noise.one_qubit_depol)
        row[:] = np.real(np.diag(rotated))
    return per_qubit_transform(diagonals, [noise.qubit_confusion(0), noise.qubit_confusion(1)])
