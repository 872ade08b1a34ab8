"""Desk-scale benchmarks of entanglement transport along qubit paths."""

from .channels import NoiseModel, confusion_matrix  # noqa: F401
from .harness import ExperimentSpec, ResultRow, run_decay_experiment, run_experiment  # noqa: F401
from .metrics import fidelity, nearest_physical, negativity, partial_transpose  # noqa: F401
from .mitigation import michelot_project, qrem_correct  # noqa: F401
from .pathfinder import DeviceModel, edge_weights, find_best_paths, ingest_device  # noqa: F401
from .protocols import run_swap_transport, run_teleportation  # noqa: F401
from .tomography import reconstruct  # noqa: F401

__version__ = "0.1.0"
