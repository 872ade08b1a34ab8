"""Transport of one qubit of an entangled pair along a qubit path.

Three modes are implemented:

* ``dynamic``      - intermediate qubits are measured in the X basis as the
  state moves, then the accumulated byproduct operators are undone on the
  receiving qubit with outcome-conditioned gates (idling cost charged per
  correction layer).
* ``postselect``   - all measurements are deferred; shots are categorised by
  the parity discriminator into four local-transformation configurations.
* ``swap``         - the pair qubit is physically moved with SWAP chains,
  three CNOTs per hop.

All three, and the idling pair of the decay experiment, exist once, as
data: `schedule` lists a run's operations as plain records that carry
their own error rates, and `_sample_group` is the one loop that applies
them to a `ShotBatch`. The trajectories are Monte-Carlo wave-function
unravellings (Dalibard, Castin and Molmer, PRL 68, 580, 1992) run by
`ShotBatch`, a sliding-window engine that keeps at most a handful of live
qubits per shot regardless of path length: a path qubit enters the window
when first entangled and leaves with the measurement that collapses it.
Measuring a qubit early is exactly equivalent to the deferred hardware
schedule because nothing acts on it afterwards.

The nine tomography bases differ only in their last rotations, so they
share one run of the schedule: `_sample` builds it once and splits the
bases into the fewest groups of about `MAX_BATCH_COLUMNS` columns (all
nine at 1,024 shots, five and four at 2,048), and each group runs as one
batch whose column slab b belongs to basis b and draws from its own child
stream of the run's generator, in the order and size a batch of that
basis alone would, so the counts do not depend on how bases are grouped.
A batch allocates its own buffers and nothing outlives it, so no run
depends on the runs before it.

`PAIR_STATES` is the constant table of the pair states the results are
scored against: the one each post-selected configuration leaves, and the
graph state CZ|++> of the other modes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from math import ceil, sqrt
from typing import Sequence

import numpy as np

from .channels import NoiseModel, check_number, decay_probabilities
from .tomography import BASIS_PAIRS, H, PAULI_AXES, rotation_gates

MODES = ("dynamic", "postselect", "swap")

#: Longest path the sampler accepts: outcome keys are int64 with one bit per
#: path position.
MAX_PATH_QUBITS = 62

#: Column budget of one sampled batch: `_sample` runs the nine bases in
#: ceil(9 * shots / MAX_BATCH_COLUMNS) groups of as near equal size as can be.
MAX_BATCH_COLUMNS = 9 * 1024


def reachable_configurations(hops: int) -> tuple[tuple[int, int], ...]:
    """With a single hop only the X-free configurations occur."""
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if hops == 1:
        return ((0, 0), (1, 0))
    return ((0, 0), (0, 1), (1, 0), (1, 1))


_R = 1.0 / sqrt(2.0)

#: Amplitudes of the pair state a post-selected configuration (z, x) leaves on an
#: n-qubit path, PAIR_STATES[n % 2][z][x] = (I x H^n Z^z X^x) CZ|++>, with the
#: second qubit as the high bit; [0][0][0] is the graph state CZ|++> itself.
PAIR_STATES = np.array([[[[0.5, 0.5, 0.5, -0.5], [0.5, -0.5, 0.5, 0.5]],
                         [[0.5, 0.5, -0.5, 0.5], [0.5, -0.5, -0.5, -0.5]]],
                        [[[_R, 0.0, 0.0, _R], [_R, 0.0, 0.0, -_R]],
                         [[0.0, _R, _R, 0.0], [0.0, -_R, _R, 0.0]]]], dtype=complex)
PAIR_STATES.setflags(write=False)


# ---------------------------------------------------------------------------
# Sampled trajectories


# Per letter (I, X, Y, Z): whether the Pauli swaps the |0> and |1> halves,
# and the phases it then puts on the |0> half (row 0) and the |1> half. Real
# storage takes Y as its real part -iY = [[0, -1], [1, 0]]: the dropped factor
# i is a global phase of the shot, which no probability sees.
_PAULI_FLIPS = np.array([False, True, True, False])
_PAULI_PHASES = np.array([[1, 1, -1j, 1], [1, 1, 1j, -1]], dtype=complex)
_REAL_PAULI_PHASES = np.array([[1, 1, -1, 1], [1, 1, 1, -1]], dtype=float)


def _is_complex(matrix: np.ndarray) -> bool:
    """Whether a matrix takes real storage to complex: it has a nonzero imaginary part."""
    return bool(np.any(np.imag(matrix)))


def _keep_half(v0: np.ndarray, v1: np.ndarray, bits: np.ndarray, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """Each shot's v1 where its bit is 1, else its v0, into out.

    Computed as v1 b + v0 (1 - b) with b exactly 0 or 1: each product is
    the amplitude or a zero and the sum adds that zero, so for finite
    amplitudes this equals ``np.where(bits == 1, v1, v0)`` up to the sign
    of a zero (a kept -0.0 beside a dropped +0.0 sums to +0.0), which no
    probability sees. On real storage it takes a quarter of the time of a
    masked copy (39 against 153 us for a 3-qubit window of 10,240 shots).
    ``scratch`` has the shape and dtype of ``out``.
    """
    b = bits.astype(float)
    np.multiply(v1, b, out=out)
    np.multiply(v0, 1.0 - b, out=scratch)
    return np.add(out, scratch, out=out)


class ShotBatch:
    """Vectorized pure-state trajectories over a sliding window of qubits.

    ``axis_of`` maps a path position to its bit in the window index (bit 0
    is least significant). Amplitudes are stored shot-minor, as a
    ``(dim, shots)`` array: row i holds every shot's amplitude of window
    basis state i in one contiguous run, so each gate, measurement and
    noise step acts on whole contiguous slabs of shots.

    The amplitudes are float64 while every step applied so far is real,
    as the transport circuit is: CZ and CNOT gates, Hadamards, X and Z
    corrections, Pauli noise with Y taken as its real part, and damping.
    The first matrix with a nonzero imaginary part (`_is_complex`), the
    tomography layer's S-dagger, promotes the live window to complex128
    once; `_sample_group` sizes the buffers by the same rule.

    Measurement removes the measured qubit: `measure_z` samples the bits,
    keeps each shot's half of the window for its bit and renormalizes it,
    which halves the window. Per-shot Paulis (depolarizing, outcome-
    conditioned corrections, dephasing) go through one sparse kernel,
    `apply_paulis`, that touches only the listed shots.

    The batch holds one column slab of ``slab_shots`` shots per stream, one
    tomography basis each, and `_random` and `_integers` fill each slab
    from its own stream, as a batch of that stream alone would. A step of
    some bases only takes the indices of their slabs, in any order.
    `apply_matrix` multiplies one (2, slab shots) block per slab and window
    index, so no product is wider than the shots of one basis.

    The storage lives in three flat float64 buffers that the batch owns:
    the live amplitudes, a spare buffer that steps write their result into
    before the two swap, and a scratch buffer for probabilities; complex
    storage is a complex128 view of them. The constructor allocates all
    three once, for ``window`` live real qubits and for ``complex_window``
    live qubits from promotion on, and no step grows them. They go with
    the batch, so no run sees memory that another run wrote.
    """

    def __init__(self, streams: Sequence[np.random.Generator], slab_shots: int,
                 window: int, complex_window: int):
        if slab_shots <= 0:
            raise ValueError("shot budget must be positive")
        self.streams = list(streams)
        self.slab_shots = slab_shots
        self.shots = len(self.streams) * slab_shots
        # a complex amplitude takes two float64 entries
        size = max(1 << window, 2 << complex_window) * self.shots
        self._buffers = [np.empty(size) for _ in range(3)]
        self._amps = self._buffer(0, 1, np.float64)
        self._amps[:] = 1.0
        self.axis_of: dict[int, int] = {}

    def _buffer(self, i: int, rows: int, dtype=None) -> np.ndarray:
        """(rows, shots) view of the start of buffer i (0 live, 1 spare, 2 scratch).

        The view has the dtype of the live amplitudes unless one is given.
        """
        dtype = self._amps.dtype if dtype is None else np.dtype(dtype)
        size = rows * self.shots * (dtype.itemsize // 8)
        return self._buffers[i][:size].view(dtype).reshape(rows, self.shots)

    def _swap(self, amps: np.ndarray):
        """Make the spare buffer, which holds ``amps``, the live one."""
        self._buffers[0], self._buffers[1] = self._buffers[1], self._buffers[0]
        self._amps = amps.reshape(-1, self.shots)

    def _promote(self):
        """Move the live amplitudes to complex storage, through the spare buffer."""
        amps = self._buffer(1, self.dim, np.complex128)
        amps[:] = self._amps
        self._swap(amps)

    def _random(self, slabs: Sequence[int] | None = None) -> np.ndarray:
        """Uniform numbers for the shots of the listed slabs, each slab from its own stream."""
        streams = self.streams if slabs is None else [self.streams[s] for s in slabs]
        out = np.empty((len(streams), self.slab_shots))
        for stream, slab in zip(streams, out):
            stream.random(out=slab)
        return out.reshape(-1)

    def _integers(self, high: int, slabs: Sequence[int] | None = None) -> np.ndarray:
        """Integers in [0, high) for the shots of the listed slabs, each slab from its own stream."""
        streams = self.streams if slabs is None else [self.streams[s] for s in slabs]
        return np.array([stream.integers(0, high, size=self.slab_shots)
                         for stream in streams], np.int64).reshape(-1)

    @property
    def dim(self) -> int:
        return self._amps.shape[0]

    def _halves(self, pos: int) -> np.ndarray:
        """View (high bits, bit of pos, low bits, shots) of the storage."""
        return self._amps.reshape(-1, 2, 1 << self.axis_of[pos], self.shots)

    def add_qubit(self, pos: int):
        """Attach one |0> qubit at the given path position."""
        if pos in self.axis_of:
            raise ValueError(f"position {pos} already live")
        self.axis_of[pos] = len(self.axis_of)
        dim = self.dim
        # the new qubit is the top bit of the window index: its |1> rows follow the old ones
        self._amps = self._buffer(0, 2 * dim)
        self._amps[dim:] = 0.0

    def apply_matrix(self, pos: int, matrix: np.ndarray, slabs: Sequence[int] | None = None):
        """The 2x2 matrix on one position of every shot of the listed slabs (None: all).

        Real storage takes a matrix's real part when its imaginary part is
        zero, and is promoted to complex storage otherwise. On every slab the
        product goes into the spare buffer, which becomes the live one; on
        listed slabs each slab's product is written back through its view.
        """
        if self._amps.dtype == np.float64:
            if _is_complex(matrix):
                self._promote()
            else:
                matrix = matrix.real
        lo = 1 << self.axis_of[pos]
        spare = self._buffer(1, self.dim)
        # (high bits, low bits, slab, bit of pos, shot of the slab) views
        view, out = (a.reshape(-1, 2, lo, len(self.streams), self.slab_shots)
                     .transpose(0, 2, 3, 1, 4) for a in (self._amps, spare))
        if slabs is None:
            np.matmul(matrix, view, out=out)
            self._swap(spare)
            return
        for s in slabs:
            view[:, :, s] = matrix @ view[:, :, s]

    def apply_cz(self, pos1: int, pos2: int):
        low, high = sorted((self.axis_of[pos1], self.axis_of[pos2]))
        view = self._amps.reshape(-1, 2, 1 << (high - low - 1), 2, (1 << low) * self.shots)
        view[:, 1, :, 1, :] *= -1.0

    def apply_cnot(self, control: int, target: int):
        bc, bt = self.axis_of[control], self.axis_of[target]
        idx = np.arange(self.dim)
        perm = np.where(((idx >> bc) & 1) == 1, idx ^ (1 << bt), idx)
        # perm is in range; mode="raise" would gather into a temporary first
        self._swap(np.take(self._amps, perm, axis=0, out=self._buffer(1, self.dim), mode="clip"))

    def apply_paulis(self, positions: Sequence[int], shots: np.ndarray, letters: np.ndarray):
        """Pauli letters[j, k] (0: none, 1: X, 2: Y, 3: Z) on positions[j] of shot shots[k].

        ``shots`` holds distinct shot indices. Only their columns are
        gathered, changed for every position in turn and written back, so
        the cost follows the number of listed shots, not the batch size.
        On real storage a Y letter applies -iY.
        """
        if not shots.size:
            return
        sub = np.take(self._amps, shots, axis=1)
        phases = _REAL_PAULI_PHASES if sub.dtype == np.float64 else _PAULI_PHASES
        for pos, letter in zip(positions, letters):
            view = sub.reshape(-1, 2, 1 << self.axis_of[pos], shots.size)
            view[:] = np.where(_PAULI_FLIPS[letter], view[:, ::-1], view)
            view[:, 0] *= phases[0, letter]
            view[:, 1] *= phases[1, letter]
        self._amps[:, shots] = sub

    def depolarize(self, positions: Sequence[int], p: float, active: np.ndarray | None = None,
                   slabs: Sequence[int] | None = None):
        """Uniform non-identity Pauli string on the targets with probability p.

        Only the shots of the listed slabs (None: all) are drawn for, from
        those slabs' streams, and hit; ``active`` masks those shots, in the
        listed order.
        """
        if p <= 0.0:
            return
        hit = self._random(slabs) < p
        if active is not None:
            hit &= active
        word = self._integers(4 ** len(positions) - 1, slabs)
        idx = np.flatnonzero(hit)
        # word + 1 is a non-identity string: its bits 2j and 2j + 1 are the letter of positions[j]
        letters = ((word[idx] + 1) >> 2 * np.arange(len(positions))[:, None]) & 3
        if slabs is not None:
            # hit index within the listed slabs -> column of the whole batch
            slab, shot = divmod(idx, self.slab_shots)
            idx = np.asarray(slabs)[slab] * self.slab_shots + shot
        self.apply_paulis(positions, idx, letters)

    def measure_z(self, pos: int) -> np.ndarray:
        """Sample a Z measurement, collapse onto it and remove the qubit.

        Returns the per-shot bits; the other live qubits keep their positions
        and move down one window axis if they sat above the removed one.
        """
        b = self.axis_of[pos]
        view = self._halves(pos)
        pr = self._buffer(2, self.dim, np.float64).reshape(view.shape)
        np.abs(view, out=pr)
        np.square(pr, out=pr)
        p1 = pr[:, 1].sum(axis=(0, 1))
        bits = (self._random() < p1).astype(np.int8)
        p_keep = np.where(bits == 1, p1, pr[:, 0].sum(axis=(0, 1)))
        if np.any(p_keep < 1e-15):
            raise RuntimeError("measurement probabilities underflow; state is corrupted")
        # the probabilities are read, so the scratch buffer takes the blend's second product
        half = view[:, 0].shape
        kept = _keep_half(view[:, 0], view[:, 1], bits,
                          self._buffer(1, self.dim // 2).reshape(half),
                          self._buffer(2, self.dim // 2).reshape(half))
        # numpy divides a complex number by a real one as a product with the
        # reciprocal, so this gives the bits of a division at a quarter of its cost
        kept *= 1.0 / np.sqrt(p_keep)
        self._swap(kept)
        del self.axis_of[pos]
        for p, axis in self.axis_of.items():
            if axis > b:
                self.axis_of[p] = axis - 1
        return bits

    def idle_decay(self, pos: int, duration_us: float, t1_us: float, t2_us: float):
        """Trajectory-sampled amplitude damping plus pure dephasing."""
        gamma, p_z = decay_probabilities(duration_us, t1_us, t2_us)
        if gamma > 0.0:
            view = self._halves(pos)
            ground, excited = view[:, 0], view[:, 1]
            pr = self._buffer(2, self.dim // 2, np.float64).reshape(excited.shape)
            np.abs(excited, out=pr)
            p1 = np.square(pr, out=pr).sum(axis=(0, 1))
            jump = np.flatnonzero(self._random() < gamma * p1)
            decayed = excited[..., jump]  # a copy, taken before the scaling below
            excited *= sqrt(1.0 - gamma)
            view *= 1.0 / np.sqrt(np.maximum(1.0 - gamma * p1, 1e-300))  # as in measure_z
            ground[..., jump] = decayed * (1.0 / np.sqrt(np.maximum(p1[jump], 1e-300)))
            excited[..., jump] = 0.0
        if p_z > 0.0:
            idx = np.flatnonzero(self._random() < p_z)
            self.apply_paulis([pos], idx, np.full((1, idx.size), 3))

    def readout(self, bits: np.ndarray, confusion: np.ndarray) -> np.ndarray:
        """Classical readout flips per the confusion matrix column."""
        p_read1 = np.where(bits == 1, confusion[1, 1], confusion[1, 0])
        return (self._random() < p_read1).astype(np.int8)


@dataclass
class TransportResult:
    """Raw per-basis outcome counts of a sampled transport run on a path of n qubits.

    ``counts_by_basis`` maps each basis pair to a ``(distinct, 2)`` int64
    array of ``(key, count)`` rows in ascending key order, so ``len()`` of
    a value is its number of distinct outcomes. Outcome keys carry one bit
    per path position (bit i = position i): intermediate positions hold
    their recorded measurement bits, positions 0 and n-1 hold the
    tomography outcomes.
    """

    n: int
    shots_per_basis: int
    counts_by_basis: dict = field(default_factory=dict)

    def pair_frequencies(self) -> np.ndarray:
        """(9, 4) outcome frequencies of the surviving pair (positions 0 and n-1)."""
        out = np.empty((len(BASIS_PAIRS), 4))
        for row, pair in zip(out, BASIS_PAIRS):
            keys, counts = self.counts_by_basis[pair].T
            k = (keys & 1) | (((keys >> (self.n - 1)) & 1) << 1)
            row[:] = np.bincount(k, counts, 4)
        return out / self.shots_per_basis


def _count(ints: np.ndarray) -> np.ndarray:
    """(distinct, 2) int64 rows of (key, count), in ascending key order."""
    return np.stack(np.unique(ints, return_counts=True), axis=1)


# ---------------------------------------------------------------------------
# The schedule. A record is a plain tuple led by its kind, and it carries all
# it needs, so no interpreter reads a NoiseModel:
#   ("add", pos)                              a |0> qubit joins the window
#   ("gate", pos, matrix), ("cz", a, b), ("cnot", control, target)
#   ("depolarize", positions, p)              a non-identity Pauli string with probability p
#   ("measure", pos, confusion)               Z measurement that drops the qubit, then its
#                                             readout; records the read bit under pos
#   ("idle", pos, duration_us, t1_us, t2_us)  amplitude damping and dephasing
#   ("pauli_if", pos, letter, p, parity_of)   Pauli letter (1: X, 3: Z) and its gate noise p
#                                             where the XOR of the bits read at parity_of is 1
#   ("tomography", first, last, p)            each basis's rotations, first qubit then last,
#                                             each gate followed by depolarizing p


def schedule(n: int, mode: str, noise: NoiseModel, simplified_correction: bool = False,
             delay_us: float = 0.0) -> tuple:
    """The operations of one run on an n-qubit path, in order, as records.

    Prepare the pair; per intermediate qubit a CZ teleport step or a
    three-CNOT swap step, then its measurement; dynamic correction,
    sequential or simplified, or for mode ``idle`` an idle of ``delay_us``;
    the tomography layer and the two last measurements.
    """
    if mode not in (*MODES, "idle"):
        raise ValueError(f"unknown transport mode {mode!r}")
    last, p1 = n - 1, noise.one_qubit_depol

    def hadamard(pos):
        return [("gate", pos, H), ("depolarize", (pos,), p1)]

    def idle(duration_us):
        return [("idle", pos, duration_us, *noise.qubit_t1t2(pos)) for pos in (0, last)]

    steps = [("add", 0), ("add", 1), *hadamard(0), *hadamard(1), ("cz", 0, 1),
             ("depolarize", (0, 1), noise.edge_depol(0))]
    for i in range(1, last):
        edge = (i, i + 1)
        steps.append(("add", i + 1))
        if mode == "swap":
            for control, target in (edge, edge[::-1], edge):
                steps += [("cnot", control, target), ("depolarize", edge, noise.edge_depol(i))]
        else:  # the last Hadamard rotates qubit i for its X-basis measurement
            steps += [*hadamard(i + 1), ("cz", *edge), ("depolarize", edge, noise.edge_depol(i)),
                      *hadamard(i)]
        steps.append(("measure", i, noise.qubit_confusion(i)))
    latency = noise.dynamic_correction_latency_us
    if mode == "idle":
        steps += idle(delay_us)
    elif mode == "dynamic" and simplified_correction:
        steps += idle(latency) + (hadamard(last) if n % 2 else [])
        steps += [("pauli_if", last, 3, p1, tuple(range(1, last, 2))),
                  ("pauli_if", last, 1, p1, tuple(range(2, last, 2)))]
    elif mode == "dynamic":
        for i in range(last - 1, 0, -1):
            steps += [*idle(latency), ("pauli_if", last, 1, p1, (i,)), *hadamard(last)]
    return (*steps, ("tomography", 0, last, p1), ("measure", 0, noise.qubit_confusion(0)),
            ("measure", last, noise.qubit_confusion(last)))


def _record_matrices(step: tuple, bases: Sequence[tuple[str, str]]) -> list[np.ndarray]:
    """The matrices a schedule record applies with `ShotBatch.apply_matrix` for these bases."""
    match step:
        case ("gate", _, matrix):
            return [matrix]
        case ("tomography", *_):
            return [gate for pair in bases for axis in pair for gate in rotation_gates(axis)]
    return []


def _sample_group(steps: Sequence[tuple], bases: Sequence[tuple[str, str]],
                  streams: Sequence[np.random.Generator], shots: int) -> np.ndarray:
    """Outcome keys of bases[b] on streams[b], slab by slab: the schedule's records in order."""
    # the most qubits live at once before and from the first record that promotes the
    # batch to complex storage, so that the batch sizes its buffers once
    live = list(accumulate({"add": 1, "measure": -1}.get(step[0], 0) for step in steps))
    first = next((i for i, step in enumerate(steps)
                  if any(map(_is_complex, _record_matrices(step, bases)))), len(steps))
    batch = ShotBatch(streams, shots, max(live[:first], default=0), max(live[first:], default=0))
    read, zero = {}, np.zeros(batch.shots, dtype=np.int8)
    for step in steps:
        match step:
            case ("add", pos):
                batch.add_qubit(pos)
            case ("gate", pos, matrix):
                batch.apply_matrix(pos, matrix)
            case ("cz", a, b):
                batch.apply_cz(a, b)
            case ("cnot", control, target):
                batch.apply_cnot(control, target)
            case ("depolarize", positions, p):
                batch.depolarize(positions, p)
            case ("measure", pos, confusion):
                read[pos] = batch.readout(batch.measure_z(pos), confusion)
            case ("idle", pos, duration_us, t1_us, t2_us):
                batch.idle_decay(pos, duration_us, t1_us, t2_us)
            case ("pauli_if", pos, letter, p, parity_of):
                cond = reduce(np.bitwise_xor, (read[q] for q in parity_of), zero) == 1
                idx = np.flatnonzero(cond)
                batch.apply_paulis([pos], idx, np.full((1, idx.size), letter))
                batch.depolarize([pos], p, active=cond)
            case ("tomography", *positions, p):
                # each slab's first, then last qubit into its basis; noise draws from its stream
                for side, pos in enumerate(positions):
                    for axis in PAULI_AXES:
                        slabs = [b for b, pair in enumerate(bases) if pair[side] == axis]
                        for gate in rotation_gates(axis) if slabs else ():
                            batch.apply_matrix(pos, gate, slabs)
                            batch.depolarize([pos], p, slabs=slabs)
            case _:
                raise ValueError(f"unknown schedule record {step!r}")
    keys = np.zeros(zero.size, dtype=np.int64)
    for pos, bits in read.items():
        keys |= bits.astype(np.int64) << pos
    return keys


def _sample(n: int, mode: str, noise: NoiseModel, shots: int, rng: np.random.Generator,
            simplified_correction: bool = False, delay_us: float = 0.0) -> TransportResult:
    """Run the tomography bases in groups, each basis on its own child stream, and count keys."""
    if shots <= 0:
        raise ValueError("shot budget must be positive")
    result = TransportResult(n, shots)
    steps = schedule(n, mode, noise, simplified_correction, delay_us)
    streams = rng.spawn(len(BASIS_PAIRS))
    n_groups = min(len(BASIS_PAIRS), ceil(len(BASIS_PAIRS) * shots / MAX_BATCH_COLUMNS))
    for group in np.array_split(np.arange(len(BASIS_PAIRS)), n_groups):
        bases = [BASIS_PAIRS[b] for b in group]
        keys = _sample_group(steps, bases, [streams[b] for b in group], shots)
        for pair, slab in zip(bases, keys.reshape(len(bases), shots)):
            result.counts_by_basis[pair] = _count(slab)
    return result


def _check_path_length(n: int):
    """Reject a transport path length that is no int, has no intermediate qubit or is too long."""
    check_number("path length", n, integer=True)
    if n < 3:
        raise ValueError(f"transport needs at least one intermediate qubit, got a path of {n}")
    if n > MAX_PATH_QUBITS:
        raise ValueError(f"path of {n} qubits exceeds the {MAX_PATH_QUBITS}-qubit "
                         "limit of 64-bit outcome keys")


def run_teleportation(n: int, mode: str, noise: NoiseModel, shots: int,
                      rng: np.random.Generator,
                      simplified_correction: bool = False) -> TransportResult:
    """Sample `shots` trajectories per tomography basis for one teleportation run on n qubits."""
    if mode not in ("dynamic", "postselect"):
        raise ValueError(f"mode must be dynamic or postselect, got {mode}")
    _check_path_length(n)
    return _sample(n, mode, noise, shots, rng, simplified_correction=simplified_correction)


def run_swap_transport(n: int, noise: NoiseModel, shots: int,
                       rng: np.random.Generator) -> TransportResult:
    """Move the pair qubit along n qubits with SWAP chains (three noisy CNOTs per hop)."""
    _check_path_length(n)
    return _sample(n, "swap", noise, shots, rng)


def run_idle_pair(delay_us: float, noise: NoiseModel, shots: int,
                  rng: np.random.Generator) -> TransportResult:
    """Prepare the two-qubit graph state, idle both qubits, then run tomography."""
    return _sample(2, "idle", noise, shots, rng, delay_us=delay_us)
