"""End-to-end acceptance battery.

One test per criterion, each printing a single summary line; tolerances and
runtime budgets are asserted, not just reported. Trend criteria (cutoff
sweep, embedding comparison) run the same artifact-producing code paths as
the CLI.
"""
import json
import time

import numpy as np
import pytest

import oracles
from qfilter.classifier import build_ensembles, filtered_fidelity_classify
from qfilter.cli import main
from qfilter.datasets import iris_builtin, synthetic_blobs
from qfilter.embedding import EmbeddingSpec, embed_dataset
from qfilter.featuremap import build_ansatz, kraus_from_circuit, transform_ensemble
from qfilter.quantum import hs_distance
from qfilter.selftest import (
    suite_contractivity,
    suite_kraus_completeness,
    suite_path_equivalence,
    suite_risk_identities,
)
from qfilter.training import TrainConfig, compare_conditions, train


def _iris():
    ds, (test_x, test_y) = iris_builtin()
    spec = EmbeddingSpec("angle", 1)
    samples = embed_dataset(ds.pairs(), spec)
    from qfilter.embedding import encode_point

    return samples, encode_point(test_x, spec), test_y


def test_criterion_01_cptp_contractivity():
    res = suite_contractivity(count=100)
    assert res.instances == 100
    assert res.failures == 0, res.failing_case
    assert res.max_residual <= 1e-10
    assert res.seconds < 10.0
    print(
        f"criterion 1 contractivity: PASS "
        f"({res.instances} CPTP maps dims 2-8, max growth {res.max_residual:.2e}, "
        f"{res.seconds:.2f}s)"
    )


def test_criterion_02_kraus_completeness():
    res = suite_kraus_completeness(count=1000)
    assert res.instances == 1000
    assert res.failures == 0, res.failing_case
    assert res.max_residual < 1e-10
    assert res.seconds < 10.0
    print(
        f"criterion 2 Kraus completeness: PASS "
        f"({res.instances} random circuits, max residual {res.max_residual:.2e}, "
        f"{res.seconds:.2f}s)"
    )


def test_criterion_03_risk_identities():
    res = suite_risk_identities(count=100)
    assert res.instances == 100
    assert res.failures == 0, res.failing_case
    assert res.max_residual <= 1e-10
    assert res.seconds < 30.0
    print(
        f"criterion 3 risk identities: PASS "
        f"({res.instances} datasets, baseline+filtered, max |risk+D_hs| "
        f"{res.max_residual:.2e}, {res.seconds:.2f}s)"
    )


def test_criterion_04_path_equivalence():
    values, probs = suite_path_equivalence(count=100)
    assert values.failures == 0, values.failing_case
    assert probs.failures == 0, probs.failing_case
    assert values.max_residual <= 1e-9
    assert probs.max_residual <= 1e-10
    assert values.seconds < 120.0
    print(
        f"criterion 4 path equivalence: PASS "
        f"(100 instances, value residual {values.max_residual:.2e} <= 1e-9, "
        f"probability residual {probs.max_residual:.2e} <= 1e-10, "
        f"{values.seconds:.2f}s)"
    )


def test_criterion_05_iris_baseline():
    samples, test_state, _ = _iris()
    rho, sigma = build_ensembles(samples)
    risk = -hs_distance(rho, sigma)
    out = oracles.fidelity_classify(rho, sigma, oracles.pure_to_density(test_state))

    assert risk == pytest.approx(oracles.IRIS_BASELINE_RISK, abs=1e-6)
    assert abs(risk - oracles.IRIS_REFERENCE_RISK) <= 0.06
    assert out.value == pytest.approx(oracles.IRIS_BASELINE_VALUE, abs=1e-6)
    assert abs(out.value - oracles.IRIS_REFERENCE_VALUE) <= 0.06
    assert out.decision == -1
    print(
        f"criterion 5 iris baseline: PASS "
        f"(risk {risk:.6f} = closed form {oracles.IRIS_BASELINE_RISK:.6f} +- 1e-6, "
        f"classifier {out.value:.6f}, decision -1)"
    )


# Training configuration for the trained-iris criterion. The identity start
# sits on a symmetric stationary point whose escape direction decides which
# of two degenerate optima the run falls into; this seeded wide start lands
# in the basin that keeps the test decision at -1 while nearly doubling the
# class separation. tests/test_cli.py::test_iris_starts_reach_two_optimum_families
# trains both families through the CLI.
IRIS_TRAINED_CONFIG = TrainConfig(
    learning_rate=0.05,
    epochs=200,
    init_scale=2.5,
    seed=0,
)
IRIS_TRAINED_LAYERS = 2


def test_criterion_06_iris_trained():
    t0 = time.perf_counter()
    samples, test_state, _ = _iris()
    rho, sigma = build_ensembles(samples)
    baseline_risk = -hs_distance(rho, sigma)
    test_rho = oracles.pure_to_density(test_state)
    baseline_value = oracles.fidelity_classify(rho, sigma, test_rho).value

    ansatz = build_ansatz(1, IRIS_TRAINED_LAYERS)
    res = train(IRIS_TRAINED_CONFIG, samples, ansatz)
    k = kraus_from_circuit(ansatz, res.theta_star)
    ens = transform_ensemble(k, samples)
    out = filtered_fidelity_classify(ens, k, test_state)
    dt = time.perf_counter() - t0

    assert res.report.risk < baseline_risk - 0.1
    assert abs(out.value) > abs(baseline_value)
    assert out.decision == -1
    assert 0.0 < res.report.p_succ < 1.0
    assert dt < 60.0
    print(
        f"criterion 6 iris trained: PASS "
        f"(risk {res.report.risk:.4f} < {baseline_risk:.4f} - 0.1, "
        f"classifier {out.value:.4f} vs baseline {baseline_value:.4f}, "
        f"decision -1, p_succ {res.report.p_succ:.3f}, {dt:.1f}s)"
    )


def test_criterion_07_cutoff_constraint_trend():
    t0 = time.perf_counter()
    lines = []
    for dims in (2, 3, 4, 5):
        ds = synthetic_blobs(0, 20, dims, 2.0)
        n_qubits = max(1, int(np.ceil(np.log2(dims))))
        samples = embed_dataset(ds.pairs(), EmbeddingSpec("amplitude", n_qubits))
        ansatz = build_ansatz(n_qubits, 1)
        held = train(TrainConfig(epochs=200, seed=0, cutoff=0.5, lam=1.0), samples, ansatz)
        free = train(TrainConfig(epochs=200, seed=0, cutoff=0.0, lam=1.0), samples, ansatz)
        assert held.report.p_succ > 0.5, f"dims {dims}: p_succ {held.report.p_succ}"
        assert free.report.hs_distance >= held.report.hs_distance - 1e-6, f"dims {dims}"
        lines.append(f"d={dims} p_succ {held.report.p_succ:.3f}")
    dt = time.perf_counter() - t0
    assert dt < 180.0
    print(
        f"criterion 7 cutoff constraint: PASS "
        f"(c=0.5 keeps p_succ > 0.5 and c=0 separates at least as well; "
        f"{'; '.join(lines)}; {dt:.1f}s)"
    )


def test_criterion_08_improvement_over_embedding():
    t0 = time.perf_counter()
    margins = []
    for dims in (2, 3, 4, 5):
        ds = synthetic_blobs(0, 20, dims, 2.0)
        n_qubits = max(1, int(np.ceil(np.log2(dims))))
        spec = EmbeddingSpec("amplitude", n_qubits)
        samples = embed_dataset(ds.pairs(), spec)
        test_ds = synthetic_blobs(1, 20, dims, 2.0)
        test_samples = embed_dataset(test_ds.pairs(), spec)
        ansatz = build_ansatz(n_qubits, 1)
        rows = compare_conditions(
            samples,
            test_samples,
            [None, 0.0],  # embedding-only, and a filter at cutoff 0
            ansatz,
            TrainConfig(epochs=200, seed=0),
        )
        emb, fm = rows
        assert fm["hs_distance"] >= emb["hs_distance"] - 1e-9, f"dims {dims}: {rows}"
        margins.append(f"d={dims} +{fm['hs_distance'] - emb['hs_distance']:.3f}")
    dt = time.perf_counter() - t0
    assert dt < 180.0
    print(
        f"criterion 8 improvement over embedding: PASS "
        f"(D_hs gain per dim: {'; '.join(margins)}; {dt:.1f}s)"
    )


def test_criterion_09_deterministic_artifacts(tmp_path):
    def run_twice(argv_fn):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"{argv_fn.__name__}-{tag}.json"
            assert main(argv_fn(str(out))) == 0
            texts.append(out.read_text())
        return texts

    def train_run(out):
        return ["train", "--dataset", "blobs", "--per-class", "5", "--epochs", "10",
                "--seed", "7", "--layers", "1", "--out", out]

    def classify_run(out):
        model = tmp_path / "model.json"
        if not model.exists():
            assert main(["train", "--dataset", "iris", "--epochs", "5",
                         "--out", str(model)]) == 0
        return ["classify", "--model", str(model), "--input", "0.4,0.8",
                "--path", "circuit", "--shots", "300", "--seed", "2", "--out", out]

    def compare_run(out):
        return ["compare", "--dataset", "blobs", "--per-class", "4", "--epochs", "5",
                "--dims", "2,3", "--conditions", "embedding-only,c=0",
                "--seed", "3", "--out", out]

    strip = lambda text: "\n".join(
        l for l in text.splitlines() if "wall_time" not in l
    )
    for fn in (train_run, classify_run, compare_run):
        a, b = run_twice(fn)
        assert strip(a) == strip(b), f"{fn.__name__} output differs between runs"
    print(
        "criterion 9 determinism: PASS "
        "(train, sampled classify, compare: byte-identical JSON modulo wall time)"
    )
