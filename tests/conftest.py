import numpy as np
import pytest
from hypothesis import settings

from teleport_lab.protocols import ShotBatch

from dense_oracle import PureState

# every property test draws the same examples on every run, with no time limit per example
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return PureState(num_qubits, amps / np.linalg.norm(amps))


def shot_batch(state: PureState, shots: int, rng: np.random.Generator) -> ShotBatch:
    """Trajectory batch of `shots` copies of a state drawing from rng; position q is qubit q.

    The batch is in complex storage, as a run's is from its first complex matrix on.
    """
    batch = ShotBatch([rng], shots, state.num_qubits)
    for q in range(state.num_qubits):
        batch.add_qubit(q)
    batch._promote()
    batch._amps[:] = state.amplitudes[:, None]  # (dim, shots) storage
    return batch


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.abs(eigs).sum())
