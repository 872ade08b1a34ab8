"""Device ingestion, edge weighting and the top-m path search."""
import contextlib
import io
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleport_lab import pathfinder
from teleport_lab.channels import NoiseModel, confusion_matrix, exact_pair_distributions
from teleport_lab.cli import main
from teleport_lab.metrics import negativity
from teleport_lab.mitigation import mitigate_distributions
from teleport_lab.pathfinder import (DeviceModel, DeviceSchemaError, EdgeCal, QubitCal,
                                     device_from_dict, edge_weights, find_best_paths,
                                     heavy_hex_127_edges, ingest_device, pair_negativities,
                                     save_device, synthesize_device)
from teleport_lab.tomography import reconstruct


def line_device(weights=None, errors=None):
    n = 4
    qubits = [QubitCal(id=i) for i in range(n)]
    neg = weights or [0.45, 0.40, 0.35]
    eps = errors or [0.05, 0.1, 0.15]
    edges = [EdgeCal(i, i + 1, eps[i], neg=neg[i], neg_qrem=neg[i]) for i in range(n - 1)]
    return DeviceModel(qubits=qubits, edges=edges)


def exhaustive_paths(graph, n, m):
    found = []

    def extend(v, path, prod, seen):
        if len(path) == n:
            if path[0] < path[-1]:
                found.append((prod, tuple(path)))
            return
        for nb, w in graph[v].items():
            if nb not in seen:
                extend(nb, path + [nb], prod * w, seen | {nb})

    for v in graph:
        extend(v, [v], 1.0, {v})
    found.sort(key=lambda t: (-t[0], t[1]))
    return found[:m]


# --- schema ----------------------------------------------------------------------


def test_ingest_minimal_device(tmp_path):
    payload = {
        "qubits": [
            {"id": 0, "readout_err_0to1": 0.01, "readout_err_1to0": 0.02, "t1_us": 30, "t2_us": 20},
            {"id": 1, "readout_err_0to1": 0.01, "readout_err_1to0": 0.02, "t1_us": 30, "t2_us": 20},
        ],
        "edges": [{"a": 0, "b": 1, "gate_error": 0.01, "neg": None, "neg_qrem": None}],
    }
    f = tmp_path / "dev.json"
    f.write_text(json.dumps(payload))
    device = ingest_device(str(f))
    assert len(device.edges) == 1
    assert device.qubit(1).t1_us == 30


def test_ingest_reports_field_diagnostics(tmp_path):
    payload = {
        "qubits": [{"id": 0, "readout_err_0to1": 0.01, "readout_err_1to0": 0.02,
                    "t1_us": 30, "t2_us": 20}],
        "edges": [{"a": 0, "b": 1}],
    }
    f = tmp_path / "dev.json"
    f.write_text(json.dumps(payload))
    with pytest.raises(DeviceSchemaError, match=r"edges\[0\].gate_error"):
        ingest_device(str(f))


def test_ingest_merges_reverse_duplicates(tmp_path):
    payload = {
        "qubits": [
            {"id": 0, "readout_err_0to1": 0.0, "readout_err_1to0": 0.0, "t1_us": 30, "t2_us": 20},
            {"id": 1, "readout_err_0to1": 0.0, "readout_err_1to0": 0.0, "t1_us": 30, "t2_us": 20},
        ],
        "edges": [
            {"a": 0, "b": 1, "gate_error": 0.01, "neg": 0.4, "neg_qrem": 0.45},
            {"a": 1, "b": 0, "gate_error": 0.01, "neg": 0.4, "neg_qrem": 0.45},
        ],
    }
    f = tmp_path / "dev.json"
    f.write_text(json.dumps(payload))
    assert len(ingest_device(str(f)).edges) == 1
    payload["edges"][1]["gate_error"] = 0.02
    f.write_text(json.dumps(payload))
    with pytest.raises(DeviceSchemaError, match="disagrees"):
        ingest_device(str(f))


def _record(**fields):
    return {"id": 0, "readout_err_0to1": 0.01, "readout_err_1to0": 0.02, "t1_us": 30.0,
            "t2_us": 20.0, **fields}


@pytest.mark.parametrize("change, message", [
    ({"qubits": [_record(id=math.inf)]}, "qubits[0].id must be an integer, got inf"),
    ({"edges": [{"a": 0, "b": 2.6, "gate_error": 0.01}]},
     "edges[0].b must be an integer, got 2.6"),
    ({"qubits": [_record(id=0), _record(id=1, t1_us=math.nan)]},
     "qubits[1].t1_us must be a number in [0, inf], got nan"),
    ({"qubits": [_record(t2_us=10**400)]},
     "qubits[0].t2_us must be a number in [0, inf], got 1000"),
    ({"edges": [{"a": 0, "b": 1, "gate_error": True}]},
     "edges[0].gate_error must be a number in [0, 1], got True"),
    ({"qubits": [_record(), _record(readout_err_1to0="0.1")]},
     "qubits[1].readout_err_1to0 must be a number in [0, 1], got '0.1'"),
    ({"qubits": [_record(), _record()]}, "qubits[1].id: duplicate qubit id 0"),
    ({"edges": [{"a": 1, "b": 1, "gate_error": 0.01}]}, "edges[0]: self-loop on qubit 1"),
    ({"edges": "none"}, "edges must be a list")])
def test_device_errors_name_the_field(change, message):
    # an id of Infinity used to raise OverflowError, "b": 2.6 loaded as qubit 2,
    # and a NaN T1 passed the T2 <= 2 T1 check
    payload = {"qubits": [_record(id=0), _record(id=1)], "edges": [], **change}
    with pytest.raises(DeviceSchemaError) as info:
        device_from_dict(payload)
    assert str(info.value).startswith(message)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


def _mostly(valid):
    """Valid values, and one time in eight any JSON value (null stands for a missing key)."""
    return st.integers(0, 7).flatmap(lambda k: _JSON if k == 7 else valid)


_QUBIT = st.fixed_dictionaries({
    "id": _mostly(st.integers(0, 3)), "readout_err_0to1": _mostly(st.floats(0.0, 1.0)),
    "readout_err_1to0": _mostly(st.floats(0.0, 1.0)), "t1_us": _mostly(st.floats(10.0, 50.0)),
    "t2_us": _mostly(st.floats(0.0, 20.0))})
_EDGE = st.fixed_dictionaries({
    "a": _mostly(st.integers(0, 3)), "b": _mostly(st.integers(0, 3)),
    "gate_error": _mostly(st.floats(0.0, 1.0)), "neg": _mostly(st.floats(0.0, 0.5)),
    "neg_qrem": _mostly(st.floats(0.0, 0.5))})
DEVICE_PAYLOADS = _mostly(st.fixed_dictionaries({
    "qubits": _mostly(st.lists(_mostly(_QUBIT), max_size=4, unique_by=lambda q: repr(
        q.get("id") if isinstance(q, dict) else q))),
    "edges": _mostly(st.lists(_mostly(_EDGE), max_size=4))}))
_FIELD_PATH = re.compile(r"(top level|qubits|edges)(\[\d+\](\.\w+)?)?[ :]")


@settings(max_examples=250)
@given(DEVICE_PAYLOADS)
def test_any_json_device_loads_or_names_its_field(payload):
    # only a DeviceSchemaError may escape, never OverflowError, TypeError or KeyError
    try:
        device = device_from_dict(payload)
    except DeviceSchemaError as exc:
        assert _FIELD_PATH.match(str(exc)), str(exc)
    else:
        assert len(device.qubits) == len(payload["qubits"])


@pytest.fixture(scope="module")
def device_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("devices")


@settings(max_examples=30)
@given(DEVICE_PAYLOADS, st.sampled_from(["neg", "gate_fid"]))
def test_find_paths_on_any_json_device_exits_0_or_2(device_dir, payload, protocol):
    dev = device_dir / "any.json"
    dev.write_text(json.dumps(payload))  # NaN and infinities as the bare literals
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["find-paths", "--device", str(dev), "--protocol", protocol, "-n", "2"])
    lines = err.getvalue().splitlines()
    assert code in (0, 2)
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == (code == 2) and all(line.startswith(("error: ", "warning: "))
                                              for line in lines)


def test_schema_rejects_structural_problems():
    with pytest.raises(DeviceSchemaError, match="self-loop"):
        DeviceModel(qubits=[QubitCal(id=0)], edges=[EdgeCal(0, 0, 0.1)])
    with pytest.raises(DeviceSchemaError, match="unknown qubits"):
        DeviceModel(qubits=[QubitCal(id=0)], edges=[EdgeCal(0, 3, 0.1)])
    with pytest.raises(DeviceSchemaError, match="duplicate qubit"):
        DeviceModel(qubits=[QubitCal(id=0), QubitCal(id=0)], edges=[])


def test_save_and_reingest_roundtrip(tmp_path):
    device = line_device()
    f = tmp_path / "dev.json"
    save_device(device, str(f))
    back = ingest_device(str(f))
    assert [(e.a, e.b, e.gate_error) for e in back.edges] == \
        [(e.a, e.b, e.gate_error) for e in device.edges]


def test_heavy_hex_counts():
    edges = heavy_hex_127_edges()
    qubits = {q for e in edges for q in e}
    assert len(qubits) == 127
    assert len(edges) == 144
    assert max(qubits) == 126
    degs = {}
    for a, b in edges:
        degs[a] = degs.get(a, 0) + 1
        degs[b] = degs.get(b, 0) + 1
    assert max(degs.values()) == 3


def test_synthesized_heavy_hex_file_parses(tmp_path):
    device = synthesize_device("heavy-hex-127", seed=1)
    f = tmp_path / "hh.json"
    save_device(device, str(f))
    back = ingest_device(str(f))
    assert len(back.qubits) == 127
    assert len(back.edges) == 144


# --- weighting -------------------------------------------------------------------


def test_edge_weight_protocols():
    device = line_device()
    g = edge_weights(device, "gate_fid")
    assert abs(g[0][1] - 0.9) < 1e-12
    g = edge_weights(device, "neg")
    assert abs(g[0][1] - 0.9) < 1e-12
    assert abs(g[2][3] - 0.7) < 1e-12


def test_perfect_calibrations_give_unit_weight():
    device = DeviceModel(qubits=[QubitCal(id=0), QubitCal(id=1)],
                         edges=[EdgeCal(0, 1, 0.0, neg=0.5, neg_qrem=0.5)])
    assert edge_weights(device, "gate_fid")[0][1] == 1.0
    assert edge_weights(device, "neg")[0][1] == 1.0


def test_undefined_gate_error_edge_excluded():
    device = DeviceModel(
        qubits=[QubitCal(id=i) for i in range(3)],
        edges=[EdgeCal(0, 1, 1.0), EdgeCal(1, 2, 0.01)])
    g = edge_weights(device, "gate_fid")
    assert 1 not in g[0] and 0 not in g[1]
    assert 2 in g[1]


def test_missing_negativity_data_rejected():
    device = DeviceModel(qubits=[QubitCal(id=0), QubitCal(id=1)],
                         edges=[EdgeCal(0, 1, 0.01)])
    with pytest.raises(ValueError, match="lacks neg"):
        edge_weights(device, "neg")


# --- search ----------------------------------------------------------------------


def test_line_fixture_ranking():
    graph = {0: {1: 0.9}, 1: {0: 0.9, 2: 0.8}, 2: {1: 0.8, 3: 0.7}, 3: {2: 0.7}}
    res = find_best_paths(graph, 3, 2)
    assert [(p.qubits, round(p.weight_product, 12)) for p in res] == \
        [((0, 1, 2), 0.72), ((1, 2, 3), 0.56)]


def test_two_qubit_path_is_max_edge():
    graph = {0: {1: 0.5, 2: 0.9}, 1: {0: 0.5}, 2: {0: 0.9}}
    res = find_best_paths(graph, 2, 1)
    assert res[0].qubits == (0, 2)
    assert abs(res[0].weight_product - 0.9) < 1e-12


def test_twelve_node_mesh_matches_bruteforce(rng):
    edges = heavy_hex_127_edges()[:20]
    nodes = sorted({q for e in edges for q in e})
    relabel = {q: i for i, q in enumerate(nodes)}
    graph = {relabel[q]: {} for q in nodes}
    for a, b in edges:
        w = float(rng.uniform(0.5, 1.0))
        graph[relabel[a]][relabel[b]] = w
        graph[relabel[b]][relabel[a]] = w
    res = find_best_paths(graph, 5, 4)
    want = exhaustive_paths(graph, 5, 4)
    assert [(p.weight_product, p.qubits) for p in res] == want


def test_random_graphs_match_bruteforce(rng):
    for _ in range(200):
        nv = int(rng.integers(3, 11))
        graph = {v: {} for v in range(nv)}
        for a in range(nv):
            for b in range(a + 1, nv):
                if rng.random() < 0.4:
                    w = float(rng.choice([0.0, rng.random(), rng.random()]))
                    graph[a][b] = w
                    graph[b][a] = w
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        res = find_best_paths(graph, n, m)
        want = exhaustive_paths(graph, n, m)
        got = [(round(p.weight_product, 12), p.qubits) for p in res]
        assert got == [(round(w, 12), q) for w, q in want]


def test_tied_and_zero_weights_match_bruteforce(rng):
    # few distinct weights make many products tie with the m-th best, where the
    # bound's own rounding must not prune; products compare bit for bit
    for _ in range(200):
        nv = int(rng.integers(3, 10))
        graph = {v: {} for v in range(nv)}
        for a in range(nv):
            for b in range(a + 1, nv):
                if rng.random() < 0.5:
                    w = float(rng.choice([0.0, 0.3, 0.7, 0.7, 0.9, 1.0]))
                    graph[a][b] = w
                    graph[b][a] = w
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        res = find_best_paths(graph, n, m)
        assert [(p.weight_product, p.qubits) for p in res] == exhaustive_paths(graph, n, m)


@pytest.mark.parametrize("protocol", ["neg", "gate_fid"])
def test_longest_heavy_hex_search_stays_small(protocol):
    # a search pruned by the largest edge weight alone passes the cap within
    # seconds (and takes a minute or more to finish); the non-backtracking bound
    # makes 132,158 calls with neg and 89,324 with gate_fid
    graph = edge_weights(synthesize_device("heavy-hex-127", seed=7), protocol)
    calls, cap = 0, 500_000

    def count(frame, event, arg):
        nonlocal calls
        if (event == "call" and frame.f_code.co_name == "extend"
                and frame.f_code.co_filename == pathfinder.__file__):
            calls += 1
            if calls > cap:
                raise RuntimeError(f"path search passed {cap} calls")

    sys.setprofile(count)
    try:
        res = find_best_paths(graph, 62, 4)
    finally:
        sys.setprofile(None)
    assert len(res) == 4 and all(len(p.qubits) == 62 for p in res)
    assert res[0].weight_product >= res[-1].weight_product > 0.0


def test_log_space_ordering_agrees(rng):
    graph = {v: {} for v in range(8)}
    for a in range(8):
        for b in range(a + 1, 8):
            if rng.random() < 0.5:
                w = float(rng.uniform(0.1, 1.0))
                graph[a][b] = w
                graph[b][a] = w
    res = find_best_paths(graph, 4, 6)
    logs = [sum(-math.log(graph[a][b]) for a, b in zip(p.qubits, p.qubits[1:]))
            for p in res]
    assert all(l1 <= l2 + 1e-9 for l1, l2 in zip(logs, logs[1:]))


def test_longer_paths_never_beat_shorter_products(rng):
    graph = {v: {} for v in range(9)}
    for a in range(9):
        for b in range(a + 1, 9):
            if rng.random() < 0.5:
                w = float(rng.uniform(0.0, 1.0))
                graph[a][b] = w
                graph[b][a] = w
    best = {}
    for n in (2, 3, 4, 5):
        res = find_best_paths(graph, n, 1)
        if res:
            best[n] = res[0].weight_product
    for n in sorted(best)[1:]:
        if n - 1 in best:
            assert best[n] <= best[n - 1] + 1e-12


def test_fewer_paths_than_requested_flagged():
    graph = {0: {1: 0.9}, 1: {0: 0.9}}
    res = find_best_paths(graph, 2, 5)
    assert len(res) == 1
    assert find_best_paths(graph, 3, 1) == []


def test_search_argument_validation():
    with pytest.raises(ValueError, match=r"^path length n must be an integer in \[2, inf\]"):
        find_best_paths({0: {}}, 1, 1)
    with pytest.raises(ValueError, match=r"^path count m must be an integer in \[1, inf\]"):
        find_best_paths({0: {}}, 2, 0)


def test_tie_break_is_lexicographic():
    # a 4-cycle with uniform weights: all 3-qubit paths tie
    graph = {v: {} for v in range(4)}
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        graph[a][b] = 0.5
        graph[b][a] = 0.5
    res = find_best_paths(graph, 3, 4)
    assert [p.qubits for p in res] == [(0, 1, 2), (0, 3, 2), (1, 0, 3), (1, 2, 3)]


# --- synthesis -------------------------------------------------------------------


def test_pair_negativities_noiseless_are_maximal():
    # the exact route of pair_negativities, without the one-qubit gate noise it always adds
    dists = exact_pair_distributions(NoiseModel())
    for qrem in (False, True):
        probs = mitigate_distributions(dists, qrem, [np.eye(2)] * 2)
        assert abs(negativity(reconstruct(probs)) - 0.5) < 1e-9
    eye = np.eye(2)
    [neg], [neg_qrem] = pair_negativities([0.0], [eye], [eye])
    assert 0.499 < neg < 0.5 and 0.499 < neg_qrem < 0.5


def test_pair_negativities_qrem_recovers_readout():
    a = confusion_matrix(0.05, 0.08)
    [neg], [neg_qrem] = pair_negativities([0.01], [a], [a])
    assert neg < neg_qrem < 0.5
    [gate_only], _ = pair_negativities([0.01], [np.eye(2)], [np.eye(2)])
    assert abs(neg_qrem - gate_only) < 1e-6


def test_synthesize_line_device_properties():
    device = synthesize_device("line:5", seed=7)
    assert len(device.qubits) == 5
    assert len(device.edges) == 4
    for e in device.edges:
        assert 0 < e.neg <= e.neg_qrem <= 0.5
    again = synthesize_device("line:5", seed=7)
    assert [(e.a, e.b, e.gate_error) for e in again.edges] == \
        [(e.a, e.b, e.gate_error) for e in device.edges]


def test_synthesize_undefined_edges():
    device = synthesize_device("ring:6", seed=3, undefined_edges=2)
    sentinel = [e for e in device.edges if e.gate_error == 1.0]
    assert len(sentinel) == 2
    g = edge_weights(device, "gate_fid")
    present = sum(len(nbrs) for nbrs in g.values()) // 2
    assert present == len(device.edges) - 2


def test_unknown_topology_rejected():
    # a superscript digit passes str.isdigit but not int(), and was reported as
    # `invalid literal for int()`, which named no topology
    for topology in ("torus:9", "line:\u00b2"):
        with pytest.raises(ValueError, match=f"unknown topology {topology!r}"):
            synthesize_device(topology, seed=0)


def test_search_follows_a_changed_weight():
    # the search used to keep its arc table per graph content; a graph changed
    # in place must still be searched with its new weights
    graph = edge_weights(synthesize_device("heavy-hex-127", seed=7), "neg")
    best = find_best_paths(graph, 5, 4)
    a, b = best[0].qubits[:2]
    graph[a][b] = graph[b][a] = 0.0
    assert best[0] not in find_best_paths(graph, 5, 4)


@pytest.mark.parametrize("protocol", ["neg", "gate_fid"])
def test_ranking_does_not_depend_on_insertion_order(protocol):
    # the search used to sort the graph before building its arcs, which hid the
    # order in which vertices and neighbours were inserted
    graph = edge_weights(synthesize_device("heavy-hex-127", seed=7), protocol)
    order = np.random.default_rng(5)
    shuffled = {}
    for u in order.permutation(list(graph)).tolist():
        nbrs = list(graph[u].items())
        shuffled[u] = dict(nbrs[i] for i in order.permutation(len(nbrs)))
    assert list(shuffled) != list(graph)
    for n in (2, 5, 9, 21):
        assert find_best_paths(shuffled, n, 4) == find_best_paths(graph, n, 4)
