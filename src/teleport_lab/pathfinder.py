"""Device calibration ingestion and top-m weighted path search.

A device is a simple undirected graph of qubits with per-edge gate errors
and optional pre-measured pair negativities. Paths are scored by the
product of edge weights under one of three protocols and searched exactly
with a pruned depth-first enumeration.
"""
from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, asdict
from math import inf
from typing import Sequence

import numpy as np

from . import channels, mitigation, tomography
from .metrics import negativity

PROTOCOLS = ("neg", "neg_qrem", "gate_fid")

#: Calibrated gate errors above this value carry no information (undefined
#: calibrations are stored as 1) and their edges are excluded from search.
GATE_ERROR_CUTOFF = 0.5

#: Most qubits of a line:N or ring:N topology; synthesizing costs about 1 ms per edge.
MAX_TOPOLOGY_QUBITS = 10_000


class DeviceSchemaError(ValueError):
    """Calibration file violates the device schema."""


@dataclass
class QubitCal:
    id: int
    readout_err_0to1: float = 0.0
    readout_err_1to0: float = 0.0
    t1_us: float = channels.FITTED_T1_US
    t2_us: float = channels.FITTED_T2_US


@dataclass
class EdgeCal:
    a: int
    b: int
    gate_error: float
    neg: float | None = None
    neg_qrem: float | None = None


@dataclass
class DeviceModel:
    qubits: list
    edges: list

    def __post_init__(self):
        """Index the qubits and edges; edges that repeat a pair merge when they agree."""
        self._qubit_by_id = {}
        for i, q in enumerate(self.qubits):
            if q.id in self._qubit_by_id:
                raise DeviceSchemaError(f"qubits[{i}].id: duplicate qubit id {q.id}")
            self._qubit_by_id[q.id] = q
        self._edge_by_key = {}
        for i, e in enumerate(self.edges):
            if e.a == e.b:
                raise DeviceSchemaError(f"edges[{i}]: self-loop on qubit {e.a}")
            if e.a not in self._qubit_by_id or e.b not in self._qubit_by_id:
                raise DeviceSchemaError(f"edges[{i}]: edge ({e.a}, {e.b}) references unknown "
                                        "qubits")
            prev = self._edge_by_key.setdefault((min(e.a, e.b), max(e.a, e.b)), e)
            if prev is not e and not all(_close(getattr(prev, f), getattr(e, f))
                                         for f in ("gate_error", "neg", "neg_qrem")):
                raise DeviceSchemaError(f"edges[{i}]: duplicate of ({prev.a}, {prev.b}) disagrees")
        self.edges = list(self._edge_by_key.values())

    def qubit(self, qubit_id: int) -> QubitCal:
        return self._qubit_by_id[qubit_id]

    def edge(self, a: int, b: int) -> EdgeCal:
        return self._edge_by_key[(min(a, b), max(a, b))]


def _close(x: float | None, y: float | None) -> bool:
    return x is None if y is None else x is not None and abs(x - y) <= 1e-9


def _require(record: dict, field_name: str, context: str, low: float = -inf, high: float = inf,
             integer: bool = False, optional: bool = False):
    """The record's number, checked by `channels.check_number`; None if optional and absent."""
    value = record.get(field_name)
    if value is None and optional:
        return None
    if value is None:
        raise DeviceSchemaError(f"{context}.{field_name}: missing value")
    try:
        return channels.check_number(f"{context}.{field_name}", value, low, high,
                                     integer=integer)
    except ValueError as exc:
        raise DeviceSchemaError(str(exc)) from None


def device_from_dict(payload: dict) -> DeviceModel:
    if not isinstance(payload, dict):
        raise DeviceSchemaError(f"top level must be an object, got {type(payload).__name__}")
    for key in ("qubits", "edges"):
        if not isinstance(payload.get(key), list):
            raise DeviceSchemaError(f"{key} must be a list")
    qubits = []
    for i, rec in enumerate(payload["qubits"]):
        ctx = f"qubits[{i}]"
        if not isinstance(rec, dict):
            raise DeviceSchemaError(f"{ctx}: expected an object")
        q = QubitCal(
            id=_require(rec, "id", ctx, integer=True),
            readout_err_0to1=float(_require(rec, "readout_err_0to1", ctx, 0.0, 1.0)),
            readout_err_1to0=float(_require(rec, "readout_err_1to0", ctx, 0.0, 1.0)),
            t1_us=float(_require(rec, "t1_us", ctx, 0.0)),
            t2_us=float(_require(rec, "t2_us", ctx, 0.0)),
        )
        if q.t2_us > 2 * q.t1_us + 1e-12:
            raise DeviceSchemaError(f"{ctx}: t2_us exceeds 2*t1_us")
        qubits.append(q)
    edges = []
    for i, rec in enumerate(payload["edges"]):
        ctx = f"edges[{i}]"
        if not isinstance(rec, dict):
            raise DeviceSchemaError(f"{ctx}: expected an object")
        edges.append(EdgeCal(
            a=_require(rec, "a", ctx, integer=True), b=_require(rec, "b", ctx, integer=True),
            gate_error=float(_require(rec, "gate_error", ctx, 0.0, 1.0)),
            neg=_require(rec, "neg", ctx, 0.0, 0.5 + 1e-9, optional=True),
            neg_qrem=_require(rec, "neg_qrem", ctx, 0.0, 0.5 + 1e-9, optional=True)))
    return DeviceModel(qubits=qubits, edges=edges)


def ingest_device(path: str) -> DeviceModel:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DeviceSchemaError(f"{path}: not valid JSON ({exc})") from exc
    return device_from_dict(payload)


def save_device(device: DeviceModel, path: str):
    payload = {
        "qubits": [asdict(q) for q in device.qubits],
        "edges": [asdict(e) for e in device.edges],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Edge weighting and path search


@dataclass(frozen=True)
class WeightedPath:
    qubits: tuple[int, ...]
    weight_product: float


def edge_weights(device: DeviceModel, protocol: str) -> dict:
    """Adjacency map {qubit: {neighbour: weight}} under a weighting protocol."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol}")
    graph: dict[int, dict[int, float]] = {q.id: {} for q in device.qubits}
    for e in device.edges:
        if protocol == "gate_fid":
            if e.gate_error >= GATE_ERROR_CUTOFF:
                continue
            w = 1.0 - 2.0 * e.gate_error
        else:
            value = e.neg if protocol == "neg" else e.neg_qrem
            if value is None:
                raise ValueError(f"edge ({e.a}, {e.b}) lacks {protocol} calibration data")
            w = 2.0 * float(value)
        graph[e.a][e.b] = w
        graph[e.b][e.a] = w
    return graph


def find_best_paths(graph: dict, n: int, m: int) -> list[WeightedPath]:
    """The m simple paths of exactly n vertices with the largest weight product.

    Exact search over non-negative weights: depth-first enumeration over
    simple paths, pruned by a non-backtracking bound in the spirit of
    Hashimoto's edge operator (Adv. Stud. Pure Math. 15, 1989).
    ``bound[k][(u, v)]`` is the best product of k further edges leaving v
    that never step straight back to u: 1 for k = 0, and for k > 0 the
    maximum over neighbours w != u of ``w(v, w) * bound[k-1][(v, w)]``.
    Every simple continuation is such a walk, so an extension whose product
    times its bound falls below the m-th best product found so far is
    skipped, as is a start vertex whose best first edge already does. The
    bound multiplies in another order than a path product, so it is scaled
    by 1 + 1e-12 and rounding never prunes a path tied with the m-th best.
    Paths are undirected; the canonical orientation starts at the smaller
    endpoint. Ties are broken by lexicographic qubit sequence, so the
    ranking does not depend on the graph's insertion order. Fewer than m
    paths come back when fewer exist.
    """
    channels.check_number("path length n", n, 2, integer=True)
    channels.check_number("path count m", m, 1, integer=True)
    if n > len(graph):
        return []
    # directed edges (u, v); arc len(arcs) is a zero-weight sentinel
    arcs = [(u, v) for u in graph for v in graph[u]]
    arc_index = {arc: e for e, arc in enumerate(arcs)}
    weights = np.array([graph[u][v] for u, v in arcs] + [0.0])
    # successors (v, w), w != u, of each arc (u, v), padded with the sentinel
    successors = [[arc_index[(v, w)] for w in graph[v] if w != u] for u, v in arcs]
    width = 1 + max(map(len, successors), default=0)
    padded = np.array([s + [len(arcs)] * (width - len(s)) for s in successors],
                      dtype=np.intp).reshape(len(arcs), width)
    out_arcs = {u: [] for u in graph}  # (neighbour, weight, arc)
    for e, (u, v) in enumerate(arcs):
        out_arcs[u].append((v, graph[u][v], e))
    bound = [np.ones(len(arcs) + 1)]  # levels 0..n-2
    for _ in range(n - 2):
        level = np.ones_like(bound[0])
        level[:-1] = (weights * bound[-1])[padded].max(axis=1)
        bound.append(level)
    slack = 1.0 + 1e-12
    # best holds (-product, qubits) sorted ascending, so best[0] is the leader
    best: list[tuple[float, tuple[int, ...]]] = []

    def consider(product: float, path: tuple[int, ...]):
        if path[0] > path[-1]:
            return  # the reversed orientation is enumerated separately
        entry = (-product, path)
        pos = bisect.bisect_left(best, entry)
        if pos < m:
            best.insert(pos, entry)
            if len(best) > m:
                best.pop()

    def threshold() -> float:
        return -best[m - 1][0] if len(best) == m else -1.0

    path: list[int] = []
    on_path: set[int] = set()

    def extend(vertex: int, product: float):
        path.append(vertex)
        on_path.add(vertex)
        if len(path) == n:
            consider(product, tuple(path))
        else:
            level = bound[n - len(path) - 1]  # edges still to add after the next one
            for nbr, w, e in out_arcs[vertex]:
                if nbr in on_path:
                    continue
                p = product * w
                if p * level[e] * slack < threshold():
                    continue
                extend(nbr, p)
        path.pop()
        on_path.remove(vertex)

    for start in out_arcs:
        first = max((w * bound[n - 2][e] for _, w, e in out_arcs[start]), default=0.0)
        if first * slack >= threshold():
            extend(start, 1.0)
    return [WeightedPath(qubits=q, weight_product=-negp) for negp, q in best]


# ---------------------------------------------------------------------------
# Synthetic devices


def heavy_hex_127_edges() -> list[tuple[int, int]]:
    """Coupling edges of a 127-qubit heavy-hex lattice (144 edges)."""
    row_starts = [0, 18, 37, 56, 75, 94, 113]
    row_lengths = [14, 15, 15, 15, 15, 15, 14]
    edges = []
    for start, length in zip(row_starts, row_lengths):
        edges.extend((q, q + 1) for q in range(start, start + length - 1))
    for r in range(6):
        first_connector = row_starts[r] + row_lengths[r]
        top_offsets = (0, 4, 8, 12) if r % 2 == 0 else (2, 6, 10, 14)
        bottom_offsets = (1, 5, 9, 13) if r == 5 else top_offsets
        for j in range(4):
            connector = first_connector + j
            edges.append((row_starts[r] + top_offsets[j], connector))
            edges.append((connector, row_starts[r + 1] + bottom_offsets[j]))
    return edges


def line_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def ring_edges(n: int) -> list[tuple[int, int]]:
    return line_edges(n) + [(n - 1, 0)]


TOPOLOGIES = {"heavy-hex-127": heavy_hex_127_edges}


def _topology_edges(topology: str) -> list[tuple[int, int]]:
    if topology in TOPOLOGIES:
        return TOPOLOGIES[topology]()
    kind, _, arg = topology.partition(":")
    smallest = {"line": 2, "ring": 3}.get(kind)
    if smallest is None or not arg.isdecimal():
        raise ValueError(f"unknown topology {topology!r}")
    if int(arg) < smallest:
        raise ValueError(f"topology {topology!r} needs at least {smallest} qubits")
    if int(arg) > MAX_TOPOLOGY_QUBITS:
        raise ValueError(f"topology {topology!r} exceeds the limit of "
                         f"{MAX_TOPOLOGY_QUBITS} qubits")
    return (line_edges if kind == "line" else ring_edges)(int(arg))


def pair_negativities(gate_errors: Sequence[float], confusions_a: Sequence[np.ndarray],
                      confusions_b: Sequence[np.ndarray]):
    """Exact (neg, neg_qrem) arrays of a noisy two-qubit graph state on each given edge.

    Mirrors the measurement pipeline: the exact tomography distributions of
    the noisily prepared pair, with the one-qubit gate noise of every device
    path, through readout confusion, reconstructed without and with readout
    correction. Takes one gate error and one confusion matrix per qubit of
    each edge, and reconstructs every edge in one stacked call.
    """
    probs = []
    for eps, a, b in zip(gate_errors, confusions_a, confusions_b):
        noise = channels.NoiseModel(one_qubit_depol=channels.DEFAULT_ONE_QUBIT_DEPOL,
                                    two_qubit_depol=float(eps), readout=[a, b])
        dists = channels.exact_pair_distributions(noise)
        probs += [mitigation.mitigate_distributions(dists, qrem, noise.readout)
                  for qrem in (False, True)]
    negs = negativity(tomography.reconstruct(np.reshape(probs, (-1, 9, 4)))).reshape(-1, 2)
    return negs[:, 0], negs[:, 1]


def synthesize_device(topology: str = "heavy-hex-127", seed: int = 0,
                      gate_error_mean: float = 0.0075, gate_error_sd: float = 0.003,
                      readout_mean: float = 0.013, readout_sd: float = 0.005,
                      undefined_edges: int = 0) -> DeviceModel:
    """Calibration with drawn noise statistics, the fitted T1/T2 and simulated negativities."""
    channels.check_number("seed", seed, 0, integer=True)
    for name, value, high in (("gate_error_mean", gate_error_mean, 1.0),
                              ("gate_error_sd", gate_error_sd, inf),
                              ("readout_mean", readout_mean, 1.0),
                              ("readout_sd", readout_sd, inf)):
        channels.check_number(name, value, 0.0, high, finite=True)
    edges_list = _topology_edges(topology)
    channels.check_number("undefined_edges", undefined_edges, 0, len(edges_list), integer=True)
    qubit_ids = sorted({q for e in edges_list for q in e})
    rng = np.random.default_rng(seed)
    qubits = []
    for qid in qubit_ids:
        e01 = float(np.clip(rng.normal(readout_mean, readout_sd), 5e-4, 0.4))
        e10 = float(np.clip(rng.normal(readout_mean * 1.4, readout_sd), 5e-4, 0.4))
        qubits.append(QubitCal(id=qid, readout_err_0to1=e01, readout_err_1to0=e10))
    undefined = set()
    if undefined_edges:
        chosen = rng.choice(len(edges_list), size=undefined_edges, replace=False)
        undefined = {int(i) for i in chosen}
    gate_errors = [1.0 if i in undefined else
                   float(np.clip(rng.normal(gate_error_mean, gate_error_sd), 1e-4, 0.45))
                   for i in range(len(edges_list))]
    defined = [i for i in range(len(edges_list)) if i not in undefined]
    confusion = {q.id: channels.confusion_matrix(q.readout_err_0to1, q.readout_err_1to0)
                 for q in qubits}
    # every defined edge in one stacked reconstruction; undefined edges read 0
    measured = dict(zip(defined, zip(*pair_negativities(
        [gate_errors[i] for i in defined], [confusion[edges_list[i][0]] for i in defined],
        [confusion[edges_list[i][1]] for i in defined]))))
    edges = []
    for i, (a, b) in enumerate(edges_list):
        neg, neg_qrem = measured.get(i, (0.0, 0.0))
        edges.append(EdgeCal(a=a, b=b, gate_error=gate_errors[i], neg=float(neg),
                             neg_qrem=float(neg_qrem)))
    return DeviceModel(qubits=qubits, edges=edges)
