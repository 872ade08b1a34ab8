"""Dense statevector oracle: the independent reference of the tests.

Full-register statevectors, forced measurement branches, the byproduct
and correction algebra of the teleportation chain and exact noiseless
transport, against which the sampled engine (`protocols.ShotBatch`) and
acceptance criteria 1-3 are checked. Under noise, `schedule_distributions`
interprets the records of `protocols.schedule` on density matrices with
its own channel forms, as the exact reference of the sampler. Nothing here
samples or comes from the engine, and the oracle keeps its own gate table
(`GATE_MATRICES`, `PAULI_MATRICES`) and basis rotations (`BASIS_ROTATIONS`).
Qubit ``q`` is bit q, least significant first, of the amplitude index;
global phase is kept (compare with `states_equal`); registers are capped at
24 qubits.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from teleport_lab.protocols import reachable_configurations
from teleport_lab.tomography import BASIS_PAIRS

MAX_QUBITS = 24


class Gate(Enum):
    """One-qubit gates of the oracle."""

    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    SDG = "SDG"


GATE_MATRICES = {
    Gate.H: np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / sqrt(2.0)),
    Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Gate.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    Gate.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
}
PAULI_MATRICES = {"I": np.eye(2, dtype=complex), "X": GATE_MATRICES[Gate.X],
                  "Y": GATE_MATRICES[Gate.Y], "Z": GATE_MATRICES[Gate.Z]}
#: Gates mapping each Pauli eigenbasis onto Z, in application order.
BASIS_ROTATIONS = {"Z": (), "X": (Gate.H,), "Y": (Gate.SDG, Gate.H)}


def phi_p2() -> np.ndarray:
    """Amplitudes of the two-qubit graph state CZ|++>."""
    return np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)


def configuration_unitary(config: tuple[int, int], n: int) -> np.ndarray:
    """Single-qubit unitary H^n Z^z X^x of a configuration (z, x) for an n-qubit path."""
    z, x = config
    u = np.eye(2, dtype=complex)
    if x:
        u = GATE_MATRICES[Gate.X] @ u
    if z:
        u = GATE_MATRICES[Gate.Z] @ u
    if n % 2:
        u = GATE_MATRICES[Gate.H] @ u
    return u


def basis_rotation(axis: str) -> tuple[Gate, ...]:
    """`BASIS_ROTATIONS` of one axis, in either case."""
    try:
        return BASIS_ROTATIONS[axis.upper()]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis}") from None


@dataclass(frozen=True)
class GateOp:
    """A one-qubit gate bound to its target qubit."""

    kind: Gate
    target: int


def tomography_rotations(basis_pair: tuple[str, str], qubits: tuple[int, int]) -> list[GateOp]:
    """Gates mapping the requested Pauli eigenbases onto Z before measurement."""
    return [GateOp(g, qubit) for axis, qubit in zip(basis_pair, qubits)
            for g in basis_rotation(axis)]


class TwoQubitGate(Enum):
    """Two-qubit gates of the oracle; the engine has its own CZ and CNOT kernels."""

    CZ = "CZ"
    CNOT = "CNOT"
    SWAP = "SWAP"


@dataclass(frozen=True)
class TwoQubitOp:
    """A two-qubit gate bound to two distinct target qubits."""

    kind: TwoQubitGate
    targets: tuple[int, int]

    def __post_init__(self):
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) != 2:
            raise ValueError(f"{self.kind.value} expects 2 targets, got {targets}")
        if targets[0] == targets[1]:
            raise ValueError(f"duplicate targets {targets} for {self.kind.value}")


def op(kind: Gate | TwoQubitGate | str, *targets: int) -> GateOp | TwoQubitOp:
    """A gate bound to its targets: one for a `Gate`, two for a `TwoQubitGate`."""
    name = (kind if isinstance(kind, str) else kind.value).upper()
    if name in TwoQubitGate.__members__:
        return TwoQubitOp(TwoQubitGate(name), targets)
    if len(targets) != 1:
        raise ValueError(f"{name} expects 1 target, got {targets}")
    return GateOp(Gate(name), targets[0])


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def index_of_bits(bits: Sequence[int]) -> int:
    """Amplitude index of the basis state with bits[q] on qubit q."""
    return sum((int(b) & 1) << q for q, b in enumerate(bits))


def bits_of_index(index: int, num_qubits: int) -> tuple[int, ...]:
    return tuple((index >> q) & 1 for q in range(num_qubits))


def _check_targets(state: PureState, targets: Iterable[int]):
    for t in targets:
        if not 0 <= t < state.num_qubits:
            raise ValueError(f"qubit {t} out of range for {state.num_qubits}-qubit state")


def _apply_single(amps: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    # View as (high bits, this qubit, low bits) and contract the middle axis.
    view = amps.reshape(-1, 2, 1 << qubit)
    return np.einsum("ij,ajb->aib", matrix, view).reshape(-1)


def _apply_cz(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    idx = np.arange(amps.size)
    mask = ((idx >> q1) & 1).astype(bool) & ((idx >> q2) & 1).astype(bool)
    out = amps.copy()
    out[mask] *= -1
    return out


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    idx = np.arange(amps.size)
    perm = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return amps[perm]


def _apply_swap(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    idx = np.arange(amps.size)
    b1 = (idx >> q1) & 1
    b2 = (idx >> q2) & 1
    perm = np.where(b1 != b2, idx ^ (1 << q1) ^ (1 << q2), idx)
    return amps[perm]


_TWO_QUBIT_KERNELS = {TwoQubitGate.CZ: _apply_cz, TwoQubitGate.CNOT: _apply_cnot,
                      TwoQubitGate.SWAP: _apply_swap}


def apply_gate(state: PureState, gate_op: GateOp | TwoQubitOp) -> PureState:
    """Unitary action of the named gate; all other qubits untouched."""
    if isinstance(gate_op, GateOp):
        _check_targets(state, [gate_op.target])
        out = _apply_single(state.amplitudes, GATE_MATRICES[gate_op.kind], gate_op.target)
    else:
        _check_targets(state, gate_op.targets)
        out = _TWO_QUBIT_KERNELS[gate_op.kind](state.amplitudes, *gate_op.targets)
    return PureState(state.num_qubits, out)


def apply_gates(state: PureState, ops: Iterable[GateOp | TwoQubitOp]) -> PureState:
    for o in ops:
        state = apply_gate(state, o)
    return state


def postselect(state: PureState, qubit: int, basis: str, bit: int) -> tuple[PureState, float]:
    """Force a measurement branch; returns (renormalized post-state, branch probability)."""
    basis = basis.upper()
    _check_targets(state, [qubit])
    amps = state.amplitudes
    if basis == "X":
        amps = _apply_single(amps, GATE_MATRICES[Gate.H], qubit)
    elif basis != "Z":
        raise ValueError(f"basis must be Z or X, got {basis}")
    p1 = float((np.abs(amps.reshape(-1, 2, 1 << qubit)) ** 2)[:, 1, :].sum())
    prob = p1 if bit else 1.0 - p1
    if prob < 1e-15:
        raise ValueError(f"branch (qubit={qubit}, bit={bit}) has zero probability")
    out = amps.reshape(-1, 2, 1 << qubit).copy()
    out[:, 1 - bit, :] = 0.0
    return PureState(state.num_qubits, (out / sqrt(prob)).reshape(-1)), prob


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
    for q, b in zip(qubits, bases):
        for g in basis_rotation(b):
            amps = _apply_single(amps, GATE_MATRICES[g], q)
    probs = np.abs(amps) ** 2
    idx = np.arange(probs.size)
    key = np.zeros(probs.size, dtype=np.int64)
    for i, q in enumerate(qubits):
        key |= ((idx >> q) & 1) << i
    return np.bincount(key, weights=probs, minlength=1 << len(qubits))


def add_qubit(state: PureState, amplitudes=(1.0, 0.0)) -> PureState:
    """Append one qubit (as the new highest index) in the given 1-qubit state."""
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.shape != (2,):
        raise ValueError("new qubit needs exactly 2 amplitudes")
    return PureState(state.num_qubits + 1, np.kron(vec, state.amplitudes))


def remove_qubit(state: PureState, qubit: int) -> PureState:
    """Drop a qubit that is in a definite computational state (e.g. just measured)."""
    view = state.amplitudes.reshape(-1, 2, 1 << qubit)
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


# ---------------------------------------------------------------------------
# Byproduct algebra of the teleportation chain


def discriminator(outcomes: Sequence[int]) -> tuple[int, int]:
    """Parity pair (odd-indexed XOR, even-indexed XOR) classifying the byproduct.

    Outcome i of the sequence is the X measurement of the i-th intermediate
    qubit (1-based in the parity convention).
    """
    bits = [int(b) & 1 for b in outcomes]
    z = reduce(lambda a, b: a ^ b, bits[0::2], 0)
    x = reduce(lambda a, b: a ^ b, bits[1::2], 0)
    return z, x


def representative_outcomes(config: tuple[int, int], hops: int) -> tuple[int, ...]:
    """Smallest outcome vector mapping to the given configuration."""
    z, x = config
    if (z, x) not in reachable_configurations(hops):
        raise ValueError(f"configuration {config} is unreachable with {hops} hop(s)")
    s = [0] * hops
    if z:
        s[0] = 1
    if x:
        s[1] = 1
    return tuple(s)


def byproduct_sequence(outcomes: Sequence[int], target: int = 1) -> list[GateOp]:
    """Gates acquired by the receiving qubit, in temporal order of the hops."""
    ops = []
    for s in outcomes:
        ops.append(GateOp(Gate.H, target))
        if int(s):
            ops.append(GateOp(Gate.X, target))
    return ops


def correction_sequence(outcomes: Sequence[int], target: int = 1,
                        simplified: bool = False) -> list[GateOp]:
    """Gate list undoing the acquired byproduct, in application order.

    The default form mirrors the sequential hardware correction (one
    conditional X and one H per hop, reversed); the simplified form is the
    constant-depth equivalent derived from the discriminator.
    """
    if simplified:
        z, x = discriminator(outcomes)
        n = len(outcomes) + 2
        ops = []
        if n % 2:
            ops.append(GateOp(Gate.H, target))
        if z:
            ops.append(GateOp(Gate.Z, target))
        if x:
            ops.append(GateOp(Gate.X, target))
        return ops
    return list(reversed(byproduct_sequence(outcomes, target)))


def sequence_unitary(ops: Iterable[GateOp]) -> np.ndarray:
    """2x2 unitary of single-qubit gates applied in temporal order."""
    u = np.eye(2, dtype=complex)
    for o in ops:
        u = GATE_MATRICES[o.kind] @ u
    return u


# ---------------------------------------------------------------------------
# Exact noiseless transport


def prepare_path_graph_state(n: int) -> PureState:
    """|+...+> on an n-qubit path, entangled with CZ along consecutive positions."""
    if n > MAX_QUBITS:
        raise ValueError(f"path of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    state = PureState.plus(n)
    for i in range(n - 1):
        state = apply_gate(state, op("CZ", i, i + 1))
    return state


def teleport_pure(n: int, outcomes: Sequence[int]) -> PureState:
    """Exact teleported pair state for forced intermediate outcomes.

    Prepares the n-qubit path graph state, projects every intermediate
    qubit onto its X outcome, and returns the remaining (first, last) pair
    as a 2-qubit state, byproduct still attached.
    """
    if len(outcomes) != n - 2:
        raise ValueError(f"expected {n - 2} outcomes, got {len(outcomes)}")
    state = prepare_path_graph_state(n)
    for i in range(1, n - 1):
        state, _ = postselect(state, i, "X", int(outcomes[i - 1]))
    for i in range(n - 2, 0, -1):
        state = remove_qubit(state, i)
    return state


def _exact_probs(state: PureState) -> np.ndarray:
    return np.array([born_probabilities(state, (0, 1), pair) for pair in BASIS_PAIRS])


def analytic_teleportation(n: int, mode: str, simplified_correction: bool = False) -> dict:
    """Exact noiseless teleportation outputs on an n-qubit path.

    For ``dynamic`` the corrected pair state is outcome-independent, so the
    all-zero branch is evaluated. For ``postselect`` one representative
    branch per reachable configuration is evaluated together with its exact
    weight.
    """
    hops = n - 2
    if hops < 1:
        raise ValueError("teleportation needs at least one intermediate qubit")
    if mode == "dynamic":
        outcomes = (0,) * hops
        state = teleport_pure(n, outcomes)
        state = apply_gates(state, correction_sequence(outcomes, target=1,
                                                       simplified=simplified_correction))
        return {"state": state, "probs": _exact_probs(state)}
    if mode == "postselect":
        configs = reachable_configurations(hops)
        branches = {}
        for config in configs:
            state = teleport_pure(n, representative_outcomes(config, hops))
            branches[config] = {
                "weight": 1.0 / len(configs),
                "state": state,
                "probs": _exact_probs(state),
            }
        return {"configurations": branches}
    raise ValueError(f"mode must be dynamic or postselect, got {mode}")


def analytic_swap() -> dict:
    """Noiseless SWAP transport leaves the pair state exactly in place, on any path."""
    state = PureState(2, phi_p2())
    return {"state": state, "probs": _exact_probs(state)}


def categorize(result) -> dict[tuple[int, int], np.ndarray]:
    """(9, 4) pair counts of a transport result split by the discriminator, one key at a time."""
    n = result.n
    out = {c: np.zeros((len(BASIS_PAIRS), 4)) for c in reachable_configurations(n - 2)}
    for b, pair in enumerate(BASIS_PAIRS):
        for outcome, weight in result.counts_by_basis[pair].tolist():
            config = discriminator([(outcome >> pos) & 1 for pos in range(1, n - 1)])
            k = (outcome & 1) | (((outcome >> (n - 1)) & 1) << 1)
            out[config][b, k] += weight
    return out


def frequencies(counts: np.ndarray) -> np.ndarray:
    """Each basis's counts over its total; uniform where a basis saw no shot."""
    totals = counts.sum(axis=-1, keepdims=True)
    return np.divide(counts, totals, out=np.full(counts.shape, 0.25), where=totals > 0)


# ---------------------------------------------------------------------------
# Exact interpretation of a transport schedule under noise


def idle_kraus(duration_us: float, t1_us: float, t2_us: float) -> list[np.ndarray]:
    """Amplitude damping, then pure dephasing at rate 1/T2 - 1/(2 T1)."""
    gamma = 1.0 - np.exp(-duration_us / t1_us)
    p_z = 0.5 * (1.0 - np.exp(-duration_us * max(1.0 / t2_us - 0.5 / t1_us, 0.0)))
    damp = [np.array([[1.0, 0.0], [0.0, sqrt(1.0 - gamma)]]),
            np.array([[0.0, sqrt(gamma)], [0.0, 0.0]])]
    dephase = [sqrt(1.0 - p_z) * np.eye(2), sqrt(p_z) * np.diag([1.0, -1.0])]
    return [z @ a for a in damp for z in dephase]


def embed_single(k: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """A 1-qubit operator on one qubit of a register, as a full-space matrix."""
    out = np.array([[1.0]], dtype=complex)
    for q in range(num_qubits):
        out = np.kron(k if q == qubit else np.eye(2, dtype=complex), out)
    return out


def kraus_oracle(rho: np.ndarray, kraus, qubit: int) -> np.ndarray:
    """A 1-qubit Kraus channel on one qubit of a density matrix, through full-space operators."""
    n = int(np.log2(rho.shape[0]))
    out = np.zeros_like(rho, dtype=complex)
    for k in kraus:
        full = embed_single(np.asarray(k, dtype=complex), qubit, n)
        out += full @ rho @ full.conj().T
    return out


class _Window:
    """Unnormalized density matrices of the live qubits, one per tuple of read bits.

    ``live[q]`` is the path position on bit q of the window index (least
    significant first); ``recorded`` lists the positions of the read bits
    in the order of each branch's key.
    """

    def __init__(self):
        self.live: list[int] = []
        self.recorded: list[int] = []
        self.branches: dict[tuple[int, ...], np.ndarray] = {(): np.ones((1, 1), dtype=complex)}

    def bits(self, pos: int) -> np.ndarray:
        """Bit of ``pos`` in each window index."""
        return (np.arange(1 << len(self.live)) >> self.live.index(pos)) & 1

    def on(self, pos: int, matrix: np.ndarray) -> np.ndarray:
        """Dense window operator of a one-qubit matrix on one position."""
        axis, k = self.live.index(pos), len(self.live)
        return np.kron(np.eye(1 << (k - 1 - axis)), np.kron(matrix, np.eye(1 << axis)))

    def channel(self, kraus: Sequence[np.ndarray], keys: set | None = None):
        """A Kraus channel on every branch, or on the branches of the listed keys."""
        for key, rho in self.branches.items():
            if keys is None or key in keys:
                self.branches[key] = sum(k @ rho @ k.conj().T for k in kraus)

    def depolarize(self, positions: Sequence[int], p: float, keys: set | None = None):
        """(1 - p) rho + p / (4^k - 1) times the sum of P rho P over non-identity strings P."""
        strings = list(itertools.product("IXYZ", repeat=len(positions)))[1:]
        ops = [reduce(np.matmul, (self.on(pos, PAULI_MATRICES[letter])
                                  for pos, letter in zip(positions, word))) for word in strings]
        for key, rho in self.branches.items():
            if keys is None or key in keys:
                noisy = sum(o @ rho @ o.conj().T for o in ops) / len(strings)
                self.branches[key] = (1.0 - p) * rho + p * noisy

    def parity(self, key: tuple[int, ...], positions: Sequence[int]) -> int:
        return reduce(lambda a, b: a ^ b, (key[self.recorded.index(q)] for q in positions), 0)

    def measure(self, pos: int, confusion: np.ndarray):
        """Project onto each bit, drop the qubit, and split every branch by its read bit."""
        axis, k = self.live.index(pos), len(self.live)
        hi, lo = 1 << (k - 1 - axis), 1 << axis
        branches = {}
        for key, rho in self.branches.items():
            view = rho.reshape(hi, 2, lo, hi, 2, lo)
            for bit in (0, 1):
                part = view[:, bit, :, :, bit, :].reshape(hi * lo, hi * lo)
                for read in (0, 1):
                    branches[key + (read,)] = (branches.get(key + (read,), 0)
                                               + confusion[read, bit] * part)
        self.branches = branches
        self.live.remove(pos)
        self.recorded.append(pos)


def _interpret(steps: Sequence[tuple], pair: tuple[str, str]) -> dict[int, float]:
    """Exact distribution of the outcome key of a schedule in one basis pair."""
    w = _Window()
    for step in steps:
        match step:
            case ("add", pos):
                w.live.append(pos)
                w.branches = {key: np.kron(np.diag([1.0, 0.0]), rho)
                              for key, rho in w.branches.items()}
            case ("gate", pos, matrix):
                w.channel([w.on(pos, matrix)])
            case ("cz", a, b):
                w.channel([np.diag(1.0 - 2.0 * (w.bits(a) & w.bits(b)))])
            case ("cnot", control, target):
                flipped = np.arange(1 << len(w.live)) ^ (w.bits(control) << w.live.index(target))
                w.channel([np.eye(1 << len(w.live))[flipped]])
            case ("depolarize", positions, p):
                w.depolarize(positions, p)
            case ("measure", pos, confusion):
                w.measure(pos, confusion)
            case ("idle", pos, duration_us, t1_us, t2_us):
                w.channel([w.on(pos, k) for k in idle_kraus(duration_us, t1_us, t2_us)])
            case ("pauli_if", pos, letter, p, parity_of):
                fires = {key for key in w.branches if w.parity(key, parity_of)}
                w.channel([w.on(pos, PAULI_MATRICES["IXYZ"[letter]])], fires)
                w.depolarize([pos], p, fires)
            case ("tomography", first, last, p):
                for pos, axis in zip((first, last), pair):
                    for gate in basis_rotation(axis):
                        w.channel([w.on(pos, GATE_MATRICES[gate])])
                        w.depolarize([pos], p)
            case _:
                raise ValueError(f"unknown schedule record {step!r}")
    assert not w.live, "a schedule must measure every qubit it adds"
    return {sum(bit << pos for bit, pos in zip(key, w.recorded)): float(rho[0, 0].real)
            for key, rho in w.branches.items()}


def schedule_distributions(steps: Sequence[tuple]) -> np.ndarray:
    """Exact (9, 2^n) distributions of the full outcome key of a schedule, one row per basis.

    A density-matrix interpreter of the records of `protocols.schedule`,
    with its own dense channel forms: one branch per tuple of read bits,
    so it is meant for paths of at most five qubits.
    """
    n = 1 + max(step[1] for step in steps if step[0] == "add")
    out = np.zeros((len(BASIS_PAIRS), 1 << n))
    for row, pair in zip(out, BASIS_PAIRS):
        for key, weight in _interpret(steps, pair).items():
            row[key] += weight
    return out
