"""Experiment orchestration: sweeps over paths, modes and mitigation flags.

Reproduces the full workflow end to end: pick the best m paths per hop
count under each weighting protocol, run every transport mode for several
trials, mitigate, reconstruct the pair state and emit CSV rows.
"""
from __future__ import annotations

import json
import logging
import os
import traceback
from dataclasses import dataclass, field, fields, asdict, replace
from itertools import groupby
from math import inf, sqrt
from numbers import Integral
from typing import NamedTuple, Sequence

import numpy as np

from . import channels, mitigation, pathfinder, protocols, tomography
from .channels import NoiseModel, check_number, confusion_matrix
from .metrics import density_from_state, fidelity, negativity
from .pathfinder import DeviceModel
from .protocols import TransportResult

log = logging.getLogger("teleport_lab")

#: Readout calibration shots per prepared state, of a sweep cell and of a decay delay.
CALIBRATION_SHOTS = 8192
#: Keys per chunk of `mitigated_category_distributions`, which bounds its per-key arrays.
CATEGORY_CHUNK_KEYS = 4096
#: Count bounds of a sweep and of decay shots: a mistyped count fails before it sizes memory.
MAX_SHOTS = 1_000_000
MAX_TRIALS = 1_000
MAX_PATHS_PER_HOP = 1_000
#: Work bounds, as each count is bounded only alone: a sweep's trajectory-qubits (path
#: qubits x 9 bases x (shots + CELL_FIXED_SHOTS), as a cell's fixed cost is about that of
#: 330 shots, summed over its cells) and decay's delays x shots. On a 2-CPU machine a
#: serial sweep runs 4.2e6 (1-shot cells at hops 1) to 7.1e6 (1,024 shots at hops 17)
#: trajectory-qubits and decay about 4.5e5 delay-shots per second, so the bounds allow
#: 43 to 71 and about 37 minutes. The default spec is 1.3e9 trajectory-qubits.
MAX_RUN_WORK = 18 * 10**9
MAX_DECAY_WORK = 10**9
CELL_FIXED_SHOTS = 330
#: Most sweep workers: a fork pool starts all of its workers at once, so a mistyped
#: TELEPORT_LAB_THREADS would otherwise fork one process per path of the sweep.
MAX_WORKERS = 64
CSV_HEADER_COMMENT = "# teleport-lab results v1"
CSV_COLUMNS = ("mode", "protocol", "hops", "path", "trial", "qrem", "configuration",
               "negativity", "fidelity", "shots", "seed")


def _plain(value):
    """A checked noise override value as JSON numbers and lists."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    return int(value) if isinstance(value, Integral) else float(value)


@dataclass
class ExperimentSpec:
    """Declarative sweep configuration.

    The constructor makes every check that needs no path and keeps one plain
    form of each field: `hops`, `protocols` and `modes` as tuples, and
    `noise_overrides` as JSON numbers and lists, so that
    `from_json(spec.to_json()) == spec`.
    """

    hops: tuple[int, ...] = tuple(range(1, 20))
    protocols: tuple[str, ...] = ("neg", "neg_qrem", "gate_fid")
    modes: tuple[str, ...] = ("dynamic", "postselect", "swap")
    paths_per_hop: int = 4
    trials: int = 4
    shots: int = 4096
    qrem: str = "both"  # on | off | both
    noise_overrides: dict = field(default_factory=dict)
    simplified_correction: bool = False
    seed: int = 0

    def __post_init__(self):
        max_hops = protocols.MAX_PATH_QUBITS - 2
        for name, allowed in (("hops", None), ("protocols", pathfinder.PROTOCOLS),
                              ("modes", protocols.MODES)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{name} must be a non-empty list, got {values!r}")
            for v in values:
                if allowed is None:
                    check_number(name, v, 1, max_hops, integer=True)
                elif v not in allowed:
                    raise ValueError(f"{name} holds {v!r}, which is not one of "
                                     f"{', '.join(allowed)}")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")
            setattr(self, name, tuple(map(int if allowed is None else str, values)))
        for name, low, high in (("shots", 1, MAX_SHOTS), ("trials", 1, MAX_TRIALS),
                                ("paths_per_hop", 1, MAX_PATHS_PER_HOP), ("seed", 0, inf)):
            setattr(self, name, int(check_number(name, getattr(self, name), low, high,
                                                 integer=True)))
        work = (sum(hops + 2 for hops in self.hops) * len(self.protocols) * self.paths_per_hop
                * self.trials * len(self.modes) * len(tomography.BASIS_PAIRS)
                * (self.shots + CELL_FIXED_SHOTS))
        if work > MAX_RUN_WORK:
            raise ValueError(f"the sweep plans {work} trajectory-qubits (path qubits x protocols "
                             "x paths_per_hop x trials x modes x 9 bases x (shots + "
                             f"{CELL_FIXED_SHOTS} per cell), summed over hops), above the bound "
                             f"of {MAX_RUN_WORK}")
        if not isinstance(self.simplified_correction, bool):
            raise ValueError(f"simplified_correction must be a boolean, "
                             f"got {self.simplified_correction!r}")
        if self.qrem not in ("on", "off", "both"):
            raise ValueError("qrem must be on, off or both")
        try:
            # the values only, as each path's model checks their lengths; T1 inf and T2 0,
            # which fit any partner, stand in for a time left to the paths' devices
            NoiseModel(**{"t1_us": inf, "t2_us": 0.0, **self.noise_overrides})
        except TypeError as exc:  # an unknown key, or overrides that are no mapping
            raise ValueError(f"invalid noise overrides: {exc}") from None
        self.noise_overrides = {key: _plain(value) for key, value in self.noise_overrides.items()}
        # protocols.schedule reads these only in mode dynamic, whose corrections idle
        if "dynamic" not in self.modes:
            for name, given in (("simplified_correction", self.simplified_correction),
                                *((key, key in self.noise_overrides) for key in
                                  ("dynamic_correction_latency_us", "t1_us", "t2_us"))):
                if given:
                    raise ValueError(f"{name} takes effect only in mode dynamic, and modes "
                                     f"holds only {', '.join(self.modes)}")

    @property
    def qrem_flags(self) -> tuple[bool, ...]:
        return {"on": (True,), "off": (False,), "both": (False, True)}[self.qrem]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("an ExperimentSpec must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown ExperimentSpec keys: {', '.join(unknown)}")
        return cls(**payload)


@dataclass
class ResultRow:
    mode: str
    protocol: str
    hops: int
    path: str
    trial: int
    qrem: str
    configuration: str  # "" except for postselect categories ("zx" bits)
    negativity: float | None
    fidelity: float | None
    shots: int
    seed: int

    def __post_init__(self):
        if self.negativity is not None and not -1e-9 <= self.negativity <= 0.5 + 1e-9:
            raise ValueError(f"negativity {self.negativity} outside [0, 0.5]")
        if self.fidelity is not None and not -1e-9 <= self.fidelity <= 1 + 1e-9:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


def path_noise_model(device: DeviceModel, labels: Sequence[int],
                     overrides: dict | None = None) -> NoiseModel:
    """Noise model of a path of at least 2 distinct device qubits; position i has labels[i]'s.

    An override replaces the device's values of its own key only. A listed
    field shorter than the path needs raises ValueError: `two_qubit_depol`
    needs one value per edge, `t1_us` and `t2_us` one per qubit, and a
    non-empty `readout` one matrix per qubit.
    """
    n = len(labels)
    if n < 2:
        raise ValueError("a path needs at least 2 qubits")
    if len(set(labels)) != n:
        raise ValueError(f"path qubits must be distinct, got {tuple(labels)}")
    cals = [device.qubit(label) for label in labels]
    noise = NoiseModel(**{
        "one_qubit_depol": channels.DEFAULT_ONE_QUBIT_DEPOL,
        "readout": [confusion_matrix(c.readout_err_0to1, c.readout_err_1to0) for c in cals],
        "two_qubit_depol": [device.edge(a, b).gate_error for a, b in zip(labels, labels[1:])],
        "t1_us": [c.t1_us for c in cals],
        "t2_us": [c.t2_us for c in cals],
        **(overrides or {})})
    for name, need in (("two_qubit_depol", n - 1), ("t1_us", n), ("t2_us", n),
                       ("readout", n if noise.readout else 0)):
        values = getattr(noise, name)
        if isinstance(values, list) and len(values) < need:
            raise ValueError(f"{name} has {len(values)} values; the path needs {need}")
    return noise


def mitigated_pair_distributions(result: TransportResult, qrem: bool,
                                 calibration: Sequence[np.ndarray]) -> np.ndarray:
    """(9, 4) pair outcome distributions of dynamic / swap results.

    Intermediate bits are marginalized out first (exactly commutes with the
    per-qubit correction), then the pair readout is inverted and projected.
    """
    return mitigation.mitigate_distributions(result.pair_frequencies(), qrem,
                                             [calibration[0], calibration[-1]])


def mitigated_category_distributions(result: TransportResult, qrem: bool,
                                     calibration: Sequence[np.ndarray]) -> tuple:
    """Post-selected per-configuration distributions after full-path mitigation.

    Matrix-free, as in M3 (Nation et al., PRX Quantum 2, 040326, 2021): the
    observed keys go through the per-qubit inverse confusion matrices
    (identities without QREM) straight into the 16 (Z parity, X parity, t0,
    t1) bins, in O(distinct outcomes x n) time. A key's bin vector is the
    outer product of inv_0[:, x_0], inv_{n-1}[:, x_{n-1}] and
    (prod s+ +- prod s-) / 2 over the odd and over the even intermediate
    positions, with s+- = inv_i[0, x_i] +- inv_i[1, x_i]. The nine bases
    run in chunks of consecutive bases that hold at most
    `CATEGORY_CHUNK_KEYS` keys (or one basis, when it alone holds more), so
    its per-key arrays hold one entry per key of a chunk. The products run
    over the positions in order and each bin is summed per basis by one
    `np.bincount`, so a bin has the same bits however the bases are chunked.
    Each configuration's conditional vector per basis is then projected onto
    the simplex, which keeps shot-starved bins at long path lengths from
    being clipped away as a projection of the sparse joint would.
    Returns (configurations, weights, probs), with the (configs, 9, 4)
    distributions in the order of `protocols.reachable_configurations`.
    """
    n = result.n
    if qrem and len(calibration) != n:
        raise ValueError(f"expected {n} confusion matrices, got {len(calibration)}")
    inverses = (np.stack([mitigation.confusion_inverse(a, i) for i, a in enumerate(calibration)])
                if qrem else np.broadcast_to(np.eye(2), (n, 2, 2)))
    counts = [result.counts_by_basis[pair] for pair in tomography.BASIS_PAIRS]
    chunks, start, held = [], 0, 0  # the chunk counts[start:b] holds `held` keys
    for b, rows in enumerate(counts):
        if b > start and held + len(rows) > CATEGORY_CHUNK_KEYS:
            chunks.append(slice(start, b))
            start, held = b, 0
        held += len(rows)
    chunks.append(slice(start, len(counts)))
    by_basis = np.concatenate([_category_bins(counts[chunk], result.shots_per_basis, inverses)
                               for chunk in chunks])

    configs = protocols.reachable_configurations(result.n - 2)
    # (basis, configuration, t) bins of each configuration's four pair outcomes
    vecs = by_basis[:, [[zc | (xc << 1) | (tt << 2) for tt in range(4)] for zc, xc in configs]]
    weights = vecs.sum(axis=-1)
    probs = np.full(vecs.shape, 0.25)
    seen = weights > 1e-12
    probs[seen] = mitigation.michelot_project(vecs[seen] / weights[seen][:, None])
    # project the mean weights, like each basis vector, so they stay a distribution;
    # each configuration's mean runs over a contiguous row, as np.mean of a list does
    mean_weights = mitigation.michelot_project(np.ascontiguousarray(weights.T).mean(axis=-1))
    return configs, mean_weights, probs.swapaxes(0, 1)


def _category_bins(counts: Sequence[np.ndarray], shots: int, inverses: np.ndarray) -> np.ndarray:
    """(bases, 16) bins of the given bases' key rows, summed per basis in key order."""
    n = len(inverses)
    keys, hits = np.concatenate(counts).T
    freqs = hits / shots
    basis = np.repeat(np.arange(len(counts)), [len(c) for c in counts])
    s_plus, s_minus = inverses[:, 0] + inverses[:, 1], inverses[:, 0] - inverses[:, 1]
    # (parity 0, parity 1) factors (prod s+ +- prod s-) / 2 of the odd and the even positions
    factors = []
    for positions in (range(1, n - 1, 2), range(2, n - 1, 2)):
        plus = minus = np.ones(len(keys))
        for pos in positions:
            bit = (keys >> pos) & 1
            plus = plus * s_plus[pos][bit]
            minus = minus * s_minus[pos][bit]
        factors.append(((plus + minus) / 2, (plus - minus) / 2))
    z, x = factors
    first, last = keys & 1, (keys >> (n - 1)) & 1
    bins = np.empty((len(counts), 16))
    for t in range(4):  # bin z | x << 1 | t0 << 2 | t1 << 3, with t = t0 | t1 << 1
        pair = freqs * inverses[-1][t >> 1, last] * inverses[0][t & 1, first]
        for xz in range(4):
            bins[:, 4 * t + xz] = np.bincount(basis, pair * (x[xz >> 1] * z[xz & 1]), len(counts))
    return bins


# ---------------------------------------------------------------------------
# Sweep cells


@dataclass(frozen=True)
class _Cell:
    protocol: str
    hops: int
    path_index: int
    path_labels: tuple[int, ...]
    trial: int
    mode: str
    seed: int


class _CellRows(NamedTuple):
    """One cell's result rows before reconstruction, with what scoring them needs."""

    rows: list[ResultRow]  # negativity and fidelity still None
    probs: np.ndarray  # (rows, 9, 4) mitigated tomography distributions
    ideals: np.ndarray  # (rows, 4) ideal pair states the fidelities are taken against


def _cell_rows(noise: NoiseModel, spec: ExperimentSpec, cell: _Cell) -> _CellRows:
    """Transport, calibration and mitigation of one cell; `_score_rows` does the rest."""
    n = len(cell.path_labels)
    rng = np.random.default_rng(np.random.SeedSequence(cell.seed))
    if cell.mode == "swap":
        result = protocols.run_swap_transport(n, noise, spec.shots, rng)
    else:
        result = protocols.run_teleportation(n, cell.mode, noise, spec.shots, rng,
                                             simplified_correction=spec.simplified_correction)
    calibration = mitigation.estimate_confusion_matrices(
        [noise.qubit_confusion(i) for i in range(n)], CALIBRATION_SHOTS, rng)

    rows, probs, ideals = [], [], []
    path_label = _path_str(cell.path_labels)
    for qrem in spec.qrem_flags:
        flag = "on" if qrem else "off"
        if cell.mode == "postselect":
            configs, weights, config_probs = mitigated_category_distributions(result, qrem,
                                                                              calibration)
            for (z, x), weight, config_prob in zip(configs, weights, config_probs):
                probs.append(config_prob)
                ideals.append(protocols.PAIR_STATES[n % 2][z][x])
                rows.append(ResultRow(cell.mode, cell.protocol, cell.hops, path_label,
                                      cell.trial, flag, f"{z}{x}", None, None,
                                      int(round(weight * spec.shots)), cell.seed))
        else:
            probs.append(mitigated_pair_distributions(result, qrem, calibration))
            ideals.append(protocols.PAIR_STATES[0][0][0])
            rows.append(ResultRow(cell.mode, cell.protocol, cell.hops, path_label, cell.trial,
                                  flag, "", None, None, spec.shots, cell.seed))
    return _CellRows(rows, np.array(probs), np.array(ideals))


def _score_rows(cells: Sequence[_CellRows]) -> list[ResultRow]:
    """Reconstruct and score the rows of all given cells as one stack, in order."""
    if not cells:
        return []
    # inputs are built inside each call, so the stacks are freed before the next one
    rhos = tomography.reconstruct(np.concatenate([c.probs for c in cells]))
    negs = negativity(rhos)
    fids = fidelity(rhos, density_from_state(np.concatenate([c.ideals for c in cells])))
    # a post-selected configuration with no effective shot keeps empty metrics
    return [replace(row, negativity=float(neg), fidelity=float(fid)) if row.shots else row
            for row, neg, fid in zip((row for c in cells for row in c.rows), negs, fids)]


def _path_str(labels: Sequence[int]) -> str:
    return "-".join(map(str, labels))


def _guarded(fn, *args) -> tuple:
    """(fn(*args), None), or (None, traceback text) when it raises."""
    try:
        return fn(*args), None
    except Exception:  # noqa: BLE001 - a failed cell must not kill the sweep
        return None, traceback.format_exc()


def _run_cells(spec: ExperimentSpec, noise: NoiseModel,
               cells: Sequence[_Cell]) -> list[tuple[_CellRows | None, str | None]]:
    """Per cell of one path, in order: (rows, None) if it finished, (None, traceback) if not."""
    return [_guarded(_cell_rows, noise, spec, cell) for cell in cells]


def _worker_count() -> int:
    raw = os.environ.get("TELEPORT_LAB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = raw
    return check_number("TELEPORT_LAB_THREADS", workers, 1, MAX_WORKERS, integer=True)


def plan_cells(device: DeviceModel, spec: ExperimentSpec) -> list[_Cell]:
    """Deterministic cell grid with per-cell seeds derived from the master seed."""
    cells: list[_Cell] = []
    for protocol in spec.protocols:
        graph = pathfinder.edge_weights(device, protocol)
        for hops in spec.hops:
            found = pathfinder.find_best_paths(graph, hops + 2, spec.paths_per_hop)
            if len(found) < spec.paths_per_hop:
                log.warning("protocol %s, hops %d: only %d path(s) available",
                            protocol, hops, len(found))
            for path_index, wpath in enumerate(found):
                for trial in range(spec.trials):
                    for mode in spec.modes:
                        child = np.random.SeedSequence(entropy=spec.seed,
                                                       spawn_key=(len(cells),))
                        seed = int(child.generate_state(1, np.uint64)[0])
                        cells.append(_Cell(protocol, hops, path_index, wpath.qubits,
                                           trial, mode, seed))
    return cells


class SweepRows(list):
    """Rows of a sweep's finished cells, with the counts of cells planned and failed."""

    def __init__(self, planned: int):
        super().__init__()
        self.planned = planned
        self.failed = 0


def run_experiment(device: DeviceModel, spec: ExperimentSpec) -> SweepRows:
    """Execute the sweep; a failed cell is logged, counted and skipped, serial or pooled.

    The noise model of every planned path is built first, once, and the
    readout matrices that QREM will invert are checked, so that a noise
    conflict, a listed field shorter than the path or a singular readout
    raises ValueError before any cell runs; each cell runs on its path's
    model. A sweep that plans no cell raises ValueError too. A task is one
    path's cells, in plan order, with the spec and that path's model, so
    it carries all it reads. Tasks run most hops first, so that the longest
    paths do not finish last: serially, or in a process pool of at most one
    worker per path. Their outcomes are put back in plan order, so both
    give the same rows. The main process then reconstructs and scores the
    rows of every finished cell in one stacked call; if that raises, it
    scores each cell alone and skips the ones that fail.
    """
    workers = _worker_count()
    cells = plan_cells(device, spec)
    if not cells:
        raise ValueError(f"no cell to run: the device has no path for hops "
                         f"{', '.join(map(str, spec.hops))}")
    noise_models = {}
    for labels in dict.fromkeys(c.path_labels for c in cells):
        # a cell's QREM inverts its end qubits' matrices, and in postselect every qubit's
        corrected = range(len(labels)) if "postselect" in spec.modes else (0, len(labels) - 1)
        try:
            noise = noise_models[labels] = path_noise_model(device, labels, spec.noise_overrides)
            if spec.qrem != "off":
                for i in corrected:
                    mitigation.confusion_inverse(noise.qubit_confusion(i), labels[i])
        except (ValueError, mitigation.MitigationError) as exc:
            raise ValueError(f"noise on path {_path_str(labels)}: {exc}") from None
    paths = [list(block) for _, block in
             groupby(cells, lambda c: (c.protocol, c.hops, c.path_index))]
    order = sorted(range(len(paths)), key=lambda i: -paths[i][0].hops)
    tasks = [(spec, noise_models[paths[i][0].path_labels], paths[i]) for i in order]
    if workers > 1 and len(paths) > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(paths))) as pool:
            done = dict(zip(order, pool.map(_run_cells, *zip(*tasks))))
    else:
        done = dict(zip(order, map(_run_cells, *zip(*tasks))))
    outcomes = [outcome for i in range(len(paths)) for outcome in done[i]]
    rows = SweepRows(len(cells))

    def skip(cell, error):
        log.error("cell %s failed; skipping\n%s", cell, error.rstrip())
        rows.failed += 1

    finished = []
    for cell, (cell_rows, error) in zip(cells, outcomes):
        if error is None:
            finished.append((cell, cell_rows))
        else:
            skip(cell, error)
    scored, error = _guarded(_score_rows, [cell_rows for _, cell_rows in finished])
    if error is not None:
        scored = []
        for cell, cell_rows in finished:
            one, error = _guarded(_score_rows, [cell_rows])
            if error is None:
                scored.extend(one)
            else:
                skip(cell, error)
    rows.extend(scored)
    return rows


# ---------------------------------------------------------------------------
# Idle-decay experiment


def crossing_time(delays: Sequence[float], values: Sequence[float], level: float) -> float | None:
    """First delay at which the (piecewise-linear) curve crosses the level downward."""
    for (t0, v0), (t1, v1) in zip(zip(delays, values), zip(delays[1:], values[1:])):
        if v0 >= level >= v1:
            if v0 == v1:
                return float(t0)
            return float(t0 + (v0 - level) * (t1 - t0) / (v0 - v1))
    return None


@dataclass
class DecayResult:
    delays_us: list
    negativities: list
    crossing_start: float | None  # first crossing of DECAY_LEVEL_START
    crossing_end: float | None  # first crossing of DECAY_LEVEL_END

    @property
    def crossing_window_us(self) -> float | None:
        if self.crossing_start is None or self.crossing_end is None:
            return None
        return self.crossing_end - self.crossing_start


DECAY_LEVEL_START = 0.474
DECAY_LEVEL_END = 0.376


def run_decay_experiment(delays_us: Sequence[float], noise: NoiseModel, shots: int = 0,
                         seed: int = 0, qrem: bool = True) -> DecayResult:
    """Negativity of an idling pair versus delay; shots=0 runs the exact channel.

    Delay i samples from child stream i of ``seed``; one reconstruction scores every delay.
    """
    if len(delays_us) == 0:
        raise ValueError("delays must list at least one delay")
    check_number("shots", shots, 0, MAX_SHOTS, integer=True)
    check_number("seed", seed, 0, integer=True)
    for delay in delays_us:
        check_number("delay", delay, 0.0, finite=True)
    for a, b in zip(delays_us, delays_us[1:]):  # crossing_time walks the delays in order
        if b <= a:
            raise ValueError(f"delays must be strictly increasing, got {b:g} after {a:g}")
    work = len(delays_us) * max(shots, 1)
    if work > MAX_DECAY_WORK:
        raise ValueError(f"decay plans {work} delay-shots (delays x shots), above the bound "
                         f"of {MAX_DECAY_WORK}")
    confusion = [noise.qubit_confusion(0), noise.qubit_confusion(1)]
    probs = []
    for i, delay in enumerate(delays_us):
        if shots == 0:
            probs.append(mitigation.mitigate_distributions(
                channels.exact_pair_distributions(noise, float(delay)), qrem, confusion))
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        result = protocols.run_idle_pair(delay, noise, shots, rng)
        calibration = mitigation.estimate_confusion_matrices(confusion, CALIBRATION_SHOTS, rng)
        probs.append(mitigated_pair_distributions(result, qrem, calibration))
    values = [float(v) for v in negativity(tomography.reconstruct(np.array(probs)))]
    return DecayResult(list(delays_us), values,
                       crossing_time(delays_us, values, DECAY_LEVEL_START),
                       crossing_time(delays_us, values, DECAY_LEVEL_END))


# ---------------------------------------------------------------------------
# CSV


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    lines = [CSV_HEADER_COMMENT, ",".join(CSV_COLUMNS)]
    for row in rows:
        values = [getattr(row, col) for col in CSV_COLUMNS]
        lines.append(",".join(_format_value(v) for v in values))
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[ResultRow], path: str):
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))


def read_csv_rows(path: str) -> list[ResultRow]:
    rows = []
    with open(path) as fh:
        header_seen = False
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line.split(",") != list(CSV_COLUMNS):
                    raise ValueError(f"{path}:{line_no}: unexpected CSV columns")
                header_seen = True
                continue
            parts = line.split(",")
            # plot writes mode, protocol and qrem into SVG text and file names
            if (len(parts) != len(CSV_COLUMNS) or parts[0] not in protocols.MODES
                    or parts[1] not in pathfinder.PROTOCOLS or parts[5] not in ("on", "off")):
                log.warning("%s:%d: malformed row skipped", path, line_no)
                continue
            try:
                rows.append(ResultRow(
                    mode=parts[0], protocol=parts[1], hops=int(parts[2]), path=parts[3],
                    trial=int(parts[4]), qrem=parts[5], configuration=parts[6],
                    negativity=float(parts[7]) if parts[7] else None,
                    fidelity=float(parts[8]) if parts[8] else None,
                    shots=int(parts[9]), seed=int(parts[10])))
            except ValueError:
                log.warning("%s:%d: malformed row skipped", path, line_no)
    return rows


# ---------------------------------------------------------------------------
# Aggregation (shared by plot rendering and its tests)


@dataclass(frozen=True)
class AggregatePoint:
    hops: int
    mean: float
    stderr: float
    low: float
    high: float
    count: int


def aggregate_by_hops(rows: Sequence[ResultRow], metric: str = "negativity") -> list[AggregatePoint]:
    """Per-hop mean / standard error / range of one metric, rows pre-filtered."""
    by_hops: dict[int, list[float]] = {}
    for row in rows:
        value = getattr(row, metric)
        if value is None:
            continue
        by_hops.setdefault(row.hops, []).append(value)
    out = []
    for hops in sorted(by_hops):
        vals = np.array(by_hops[hops])
        stderr = float(vals.std(ddof=1) / sqrt(len(vals))) if len(vals) > 1 else 0.0
        out.append(AggregatePoint(hops, float(vals.mean()), stderr,
                                  float(vals.min()), float(vals.max()), len(vals)))
    return out
