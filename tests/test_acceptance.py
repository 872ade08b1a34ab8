"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""
import itertools
import time

import numpy as np
import pytest

from teleport_lab import harness, pathfinder
from teleport_lab.channels import (DEFAULT_ONE_QUBIT_DEPOL, NoiseModel, confusion_matrix,
                                   per_qubit_transform)
from teleport_lab.harness import ExperimentSpec, aggregate_by_hops, run_decay_experiment
from teleport_lab.metrics import density_from_state, fidelity, nearest_physical, negativity
from teleport_lab.mitigation import michelot_project, qrem_correct
from teleport_lab.protocols import run_teleportation
from teleport_lab.tomography import reconstruct

from conftest import random_density_matrix, random_unitary
from dense_oracle import (PureState, analytic_swap, analytic_teleportation, apply_gates,
                          byproduct_sequence, configuration_unitary, discriminator, phi_p2,
                          sequence_unitary, states_equal, teleport_pure)

NOISELESS = NoiseModel(dynamic_correction_latency_us=0.0)


def _verdict(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# -----------------------------------------------------------------------------


def test_criterion_01_noiseless_exactness():
    start = time.time()
    # exhaustive outcome vectors, hops 1..8
    exhaustive_ok = True
    for hops in range(1, 9):
        for s in itertools.product((0, 1), repeat=hops):
            got = teleport_pure(hops + 2, s)
            want = apply_gates(PureState(2, phi_p2()), byproduct_sequence(s, target=1))
            if not states_equal(got, want, 1e-9):
                exhaustive_ok = False
    _verdict("criterion 1a: teleported state matches byproduct form (hops 1..8, all outcomes)",
             exhaustive_ok)

    # analytic reconstruction at every hop count 1..19
    worst_analytic = 0.0
    for hops in range(1, 20):
        out = analytic_teleportation(hops + 2, "dynamic")
        worst_analytic = max(worst_analytic,
                             abs(negativity(reconstruct(out["probs"])) - 0.5))
    _verdict("criterion 1b: analytic negativity 0.5 +/- 1e-6 (hops 1..19)",
             worst_analytic < 1e-6, f"worst deviation {worst_analytic:.2e}")

    # sampled reconstruction at 4096 shots
    worst_sampled = 0.0
    for hops in range(1, 20, 3):
        rng = np.random.default_rng(1000 + hops)
        result = run_teleportation(hops + 2, "dynamic", NOISELESS, 4096, rng)
        neg = negativity(reconstruct(result.pair_frequencies()))
        worst_sampled = max(worst_sampled, abs(neg - 0.5))
    elapsed = time.time() - start
    _verdict("criterion 1c: sampled negativity 0.5 +/- 0.02 (4096 shots)",
             worst_sampled < 0.02, f"worst deviation {worst_sampled:.4f}")
    _verdict("criterion 1d: runtime bound", elapsed < 120, f"{elapsed:.1f} s")


def test_criterion_02_discriminator_classes():
    ok = True
    for hops in range(1, 11):
        classes = {}
        for s in itertools.product((0, 1), repeat=hops):
            u_seq = sequence_unitary(byproduct_sequence(s))
            config = discriminator(s)
            u_cfg = configuration_unitary(config, hops + 2)
            overlap = abs(np.trace(u_seq.conj().T @ u_cfg)) / 2
            if abs(overlap - 1.0) > 1e-12:
                ok = False
            classes.setdefault(config, 0)
            classes[config] += 1
        expected = 2 if hops == 1 else 4
        if len(classes) != expected:
            ok = False
    _verdict("criterion 2: four byproduct classes match H^n Z^a X^b forms (1e-12)", ok)


def test_criterion_03_mode_equivalence():
    ideal = density_from_state(phi_p2())
    worst = 0.0
    for n in (3, 4, 5, 6):
        dyn = reconstruct(analytic_teleportation(n, "dynamic")["probs"])
        worst = max(worst, abs(fidelity(dyn, ideal) - 1.0))
        branches = analytic_teleportation(n, "postselect")["configurations"]
        for config, payload in branches.items():
            rho = reconstruct(payload["probs"])
            u = configuration_unitary(config, n)
            undo = np.kron(u.conj().T, np.eye(2))
            rotated = undo @ rho @ undo.conj().T
            worst = max(worst, abs(fidelity(rotated, ideal) - 1.0))
        swap = reconstruct(analytic_swap()["probs"])
        worst = max(worst, abs(fidelity(swap, ideal) - 1.0))
    _verdict("criterion 3: all modes reach the pair state with fidelity 1 +/- 1e-6",
             worst < 1e-6, f"worst deviation {worst:.2e}")


def _simplex_sort_oracle(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    k = ks[u + (1.0 - css) / ks > 0][-1]
    tau = (1.0 - css[k - 1]) / k
    return np.maximum(v + tau, 0.0)


def test_criterion_04_michelot_against_oracle(rng):
    worst = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(1, 17))
        v = rng.normal(size=dim) * float(rng.choice([0.2, 1.0, 5.0]))
        worst = max(worst, float(np.max(np.abs(michelot_project(v) - _simplex_sort_oracle(v)))))
    fixture = michelot_project(np.array([0.6, 0.6, -0.2]))
    fixture_ok = np.allclose(fixture, [0.5, 0.5, 0.0], atol=1e-12)
    _verdict("criterion 4: Michelot equals simplex oracle on 10^4 vectors (1e-9)",
             worst < 1e-9 and fixture_ok, f"worst deviation {worst:.2e}")


def test_criterion_05_nearest_physical_against_oracle(rng):
    worst = 0.0
    for _ in range(1000):
        rho = random_density_matrix(4, rng)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise = (noise + noise.conj().T) * float(rng.choice([0.02, 0.08]))
        noise -= np.eye(4) * np.trace(noise) / 4
        raw = rho + noise
        got = nearest_physical(raw)
        vals, vecs = np.linalg.eigh(raw)
        want = vecs @ np.diag(_simplex_sort_oracle(vals).astype(complex)) @ vecs.conj().T
        worst = max(worst, float(np.linalg.norm(got - want)))
    u = random_unitary(4, rng)
    raw = u @ np.diag([0.6, 0.5, 0.0, -0.1]) @ u.conj().T
    spectrum = np.sort(np.linalg.eigvalsh(nearest_physical(raw)))
    fixture_ok = np.allclose(spectrum, [0.0, 0.0, 0.45, 0.55], atol=1e-9)
    _verdict("criterion 5: nearest-physical equals least-squares oracle on 10^3 matrices",
             worst < 1e-9 and fixture_ok, f"worst Frobenius deviation {worst:.2e}")


def test_criterion_06_qrem_roundtrip(rng):
    mats = [confusion_matrix(0.08, 0.15), confusion_matrix(0.02, 0.05),
            confusion_matrix(0.10, 0.03)]
    worst = 0.0
    for _ in range(100):
        truth = rng.dirichlet(np.ones(8))
        worst = max(worst, float(np.max(np.abs(
            qrem_correct(per_qubit_transform(truth, mats), mats) - truth))))
    _verdict("criterion 6a: analytic forward-then-correct roundtrip exact (1e-9)",
             worst < 1e-9, f"worst deviation {worst:.2e}")

    shots = 100_000
    truth = np.array([0.5, 0.2, 0.2, 0.1])
    pair_mats = mats[:2]
    noisy = per_qubit_transform(truth, pair_mats)
    counts = rng.multinomial(shots, noisy) / shots
    corrected = qrem_correct(counts, pair_mats)
    ok = True
    for k in range(4):
        sigma = np.sqrt(noisy[k] * (1 - noisy[k]) / shots) * 2.0  # inverse amplifies noise
        if abs(corrected[k] - truth[k]) > 5 * max(sigma, 1e-6):
            ok = False
    _verdict("criterion 6b: corrected sampled distribution within 5 sigma of truth", ok)


def test_criterion_07_pathfinder_exactness(rng):
    def oracle(graph, n, m):
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
        return [(round(p, 12), q) for p, q in found[:m]]

    mismatches = 0
    for _ in range(1000):
        nv = int(rng.integers(3, 13))
        graph = {v: {} for v in range(nv)}
        for a in range(nv):
            for b in range(a + 1, nv):
                if rng.random() < 0.35:
                    w = float(rng.random())
                    graph[a][b] = w
                    graph[b][a] = w
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        got = [(round(p.weight_product, 12), p.qubits)
               for p in pathfinder.find_best_paths(graph, n, m)]
        if got != oracle(graph, n, m):
            mismatches += 1
    _verdict("criterion 7a: top-m sets equal exhaustive enumeration on 1000 graphs",
             mismatches == 0, f"{mismatches} mismatches")

    device = pathfinder.synthesize_device("heavy-hex-127", seed=7)
    graph = pathfinder.edge_weights(device, "neg")
    start = time.time()
    result = pathfinder.find_best_paths(graph, 21, 4)
    elapsed = time.time() - start
    _verdict("criterion 7b: 127-qubit heavy-hex search (n=21, m=4) under 60 s",
             elapsed < 60 and len(result) == 4, f"{elapsed:.2f} s")


@pytest.fixture(scope="module")
def trend_rows():
    device = pathfinder.synthesize_device("heavy-hex-127", seed=7)
    spec = ExperimentSpec(hops=(1, 3, 5, 7, 9, 11, 13, 15, 17, 19), protocols=("neg",),
                          modes=("dynamic", "postselect", "swap"), paths_per_hop=4,
                          trials=2, shots=2048, qrem="on", seed=11)
    return harness.run_experiment(device, spec)


def test_criterion_08_paper_trends(trend_rows):
    rows = trend_rows
    by_mode = {mode: aggregate_by_hops([r for r in rows if r.mode == mode])
               for mode in ("dynamic", "postselect", "swap")}

    # (a) negativity non-increasing in hops, 1-stderr slack
    monotone_ok = True
    for mode, agg in by_mode.items():
        for a, b in zip(agg, agg[1:]):
            if b.mean > a.mean + max(a.stderr, b.stderr):
                monotone_ok = False
    _verdict("criterion 8a: mean negativity non-increasing per mode", monotone_ok)

    # (b) postselect >= dynamic and >= swap at >= 3 hops
    ordering_ok = True
    post = {a.hops: a.mean for a in by_mode["postselect"]}
    for mode in ("dynamic", "swap"):
        for a in by_mode[mode]:
            if a.hops >= 3 and post[a.hops] < a.mean:
                ordering_ok = False
    _verdict("criterion 8b: postselect >= dynamic and >= swap beyond 2 hops", ordering_ok)

    # (c) one-hop gap between postselect and dynamic
    gap = post[1] - {a.hops: a.mean for a in by_mode["dynamic"]}[1]
    _verdict("criterion 8c: one-hop postselect-dynamic gap 0.098 +/- 0.03",
             abs(gap - 0.098) <= 0.03, f"gap {gap:.4f}")

    # (d) mitigated postselect negativity still clearly non-zero at 19 hops
    n19 = post[19]
    _verdict("criterion 8d: 19-hop mitigated postselect negativity above 0.05",
             n19 > 0.05, f"mean {n19:.4f}")


def test_criterion_09_decay_experiment():
    noise = NoiseModel(one_qubit_depol=DEFAULT_ONE_QUBIT_DEPOL,
                       two_qubit_depol=0.0075,
                       readout=[confusion_matrix(0.013, 0.018)] * 2)
    delays = list(np.linspace(0.0, 6.0, 49))
    result = run_decay_experiment(delays, noise, shots=0)
    diffs = np.diff(result.negativities)
    _verdict("criterion 9a: analytic decay strictly non-increasing",
             bool(np.all(diffs <= 1e-12)))
    window = result.crossing_window_us
    _verdict("criterion 9b: 0.474 -> 0.376 crossing inside [1.5, 2.5] us",
             window is not None and 1.5 <= window <= 2.5,
             f"window {window:.3f} us" if window else "no crossing")


def test_criterion_10_determinism(tmp_path):
    device = pathfinder.synthesize_device("line:6", seed=2)
    spec = ExperimentSpec(hops=(1, 2), protocols=("neg",), modes=("postselect", "swap"),
                          paths_per_hop=2, trials=1, shots=512, qrem="both", seed=42)
    first = harness.rows_to_csv(harness.run_experiment(device, spec))
    second = harness.rows_to_csv(harness.run_experiment(device, spec))
    _verdict("criterion 10: fixed seed reproduces byte-identical CSV", first == second)
