"""Differential and property suites behind the selftest command.

Four suites mirror the library's core guarantees: channel contractivity,
Kraus completeness, the risk/distance identities, and agreement between the
analytic and register-level paths. Instances are seed-indexed, so failures
reproduce exactly; the report serializes the failing instance.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .classifier import (
    build_ensembles,
    fidelity_classify,
    filtered_class_weights,
    filtered_fidelity_classify,
    uniform_class_weights,
    weighted_empirical_risk,
)
from .embedding import EmbeddedSample
from .featuremap import build_ansatz, kraus_from_circuit, transform_ensemble
from .protocol import run_classifier_protocol, run_risk_protocol
from .quantum import (
    apply_channel,
    hs_distance,
    pure_to_density,
    random_cptp,
    random_state,
    trace_norm,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    failures: int
    max_residual: float
    tolerance: float
    seconds: float
    failing_case: dict | None = None

    def passed(self) -> bool:
        return self.failures == 0


def worker_count() -> int:
    """QFILTER_THREADS caps the pool; 0 or unset means one per CPU."""
    raw = os.environ.get("QFILTER_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, n)


def _run_indexed(fn, count: int) -> list:
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        return list(pool.map(fn, range(count)))


def _report(name: str, results: list[tuple[float, dict]], tol: float, t0: float) -> SuiteResult:
    residuals = [r for r, _ in results]
    worst = int(np.argmax(residuals))
    failures = sum(1 for r in residuals if r > tol)
    failing = results[worst][1] if failures else None
    return SuiteResult(
        name=name,
        instances=len(results),
        failures=failures,
        max_residual=float(residuals[worst]),
        tolerance=tol,
        seconds=time.perf_counter() - t0,
        failing_case=failing,
    )


def raw_random_density(seed: int, dim: int) -> np.ndarray:
    """Wishart-style random density matrix of arbitrary (non-qubit) dimension."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def suite_contractivity(count: int = 100) -> SuiteResult:
    """trace_norm never grows under a random CPTP map, dims 2 through 8."""
    t0 = time.perf_counter()

    def one(i: int) -> tuple[float, dict]:
        dim = 2 + i % 7
        n_kraus = 1 + i % 4
        kraus = random_cptp(1000 + i, dim, n_kraus)
        rho = raw_random_density(2000 + i, dim)
        sigma = raw_random_density(3000 + i, dim)
        p1 = float(np.random.default_rng(4000 + i).uniform(0.0, 1.0))
        x = p1 * rho - (1 - p1) * sigma
        residual = trace_norm(apply_channel(kraus, x)) - trace_norm(x)
        return residual, {"seed": i, "dim": dim, "n_kraus": n_kraus, "p1": p1}

    return _report("contractivity", _run_indexed(one, count), 1e-10, t0)


def suite_kraus_completeness(count: int = 1000) -> SuiteResult:
    """K+K + K0+K0 = I across ansatz sizes and random angles."""
    t0 = time.perf_counter()

    def one(i: int) -> tuple[float, dict]:
        n_system = 1 + i % 4
        layers = 1 + i % 3
        ansatz = build_ansatz(n_system, layers)
        rng = np.random.default_rng(5000 + i)
        theta = rng.uniform(-np.pi, np.pi, ansatz.n_params)
        pair = kraus_from_circuit(ansatz, theta)
        eye = np.eye(2**n_system)
        resid = pair.keep.conj().T @ pair.keep + pair.discard.conj().T @ pair.discard - eye
        return float(np.abs(resid).max()), {
            "seed": i,
            "n_system": n_system,
            "layers": layers,
        }

    return _report("kraus-completeness", _run_indexed(one, count), 1e-10, t0)


def random_embedded_set(seed: int, m: int, n_qubits: int) -> list[EmbeddedSample]:
    """Random pure samples with both classes guaranteed present."""
    rng = np.random.default_rng(seed)
    labels = [+1, -1] + [int(rng.choice([+1, -1])) for _ in range(m - 2)]
    return [
        EmbeddedSample(random_state(seed * 10_000 + j, n_qubits), labels[j], j)
        for j in range(m)
    ]


def suite_risk_identities(count: int = 100) -> SuiteResult:
    """Weighted empirical risk equals -D_hs, unfiltered and filtered."""
    t0 = time.perf_counter()

    def one(i: int) -> tuple[float, dict]:
        m = 2 + i % 7
        n = 1 + i % 3
        samples = random_embedded_set(6000 + i, m, n)
        labels = np.array([s.label for s in samples])
        rho, sigma = build_ensembles(samples)
        base_values = np.array(
            [
                fidelity_classify(rho, sigma, pure_to_density(s.state)).value
                for s in samples
            ]
        )
        base_risk = weighted_empirical_risk(
            base_values, labels, uniform_class_weights(labels)
        )
        res = abs(base_risk - (-hs_distance(rho, sigma)))

        ansatz = build_ansatz(n, 1)
        rng = np.random.default_rng(7000 + i)
        theta = rng.uniform(-np.pi, np.pi, ansatz.n_params)
        pair = kraus_from_circuit(ansatz, theta)
        ens = transform_ensemble(pair, samples)
        filt_values = np.array(
            [
                filtered_fidelity_classify(ens, pair, pure_to_density(s.state)).value
                for s in samples
            ]
        )
        filt_risk = weighted_empirical_risk(
            filt_values, labels, filtered_class_weights(labels, ens.p_s)
        )
        res = max(res, abs(filt_risk - (-hs_distance(ens.pos, ens.neg))))
        return res, {"seed": i, "m": m, "n_qubits": n}

    return _report("risk-identities", _run_indexed(one, count), 1e-10, t0)


def suite_path_equivalence(count: int = 100) -> list[SuiteResult]:
    """Register-level circuits agree with the analytic pipeline.

    Returns two reports over one shared pass: derived classifier/distance
    values (tolerance 1e-9) and post-selection probabilities (1e-10).
    """
    t0 = time.perf_counter()

    def one(i: int) -> tuple[float, float, dict]:
        m = 2 + i % 3
        n = 1 + i % 2
        samples = random_embedded_set(8000 + i, m, n)
        test = random_state(9000 + i, n)
        ansatz = build_ansatz(n, 1)
        rng = np.random.default_rng(10_000 + i)
        theta = rng.uniform(-np.pi, np.pi, ansatz.n_params)
        pair = kraus_from_circuit(ansatz, theta)
        ens = transform_ensemble(pair, samples)

        analytic = filtered_fidelity_classify(ens, pair, pure_to_density(test))
        cls = run_classifier_protocol(samples, test, ansatz, theta)
        rsk = run_risk_protocol(samples, ansatz, theta)

        value_res = max(
            abs(cls.derived_value - analytic.value),
            abs(rsk.derived_value - hs_distance(ens.pos, ens.neg)),
        )
        prob_res = max(
            abs(cls.p_postselect - ens.p_succ * analytic.p_s_test),
            abs(rsk.p_postselect - ens.p_succ**2),
        )
        return value_res, prob_res, {"seed": i, "m": m, "n_qubits": n}

    results = _run_indexed(one, count)
    values = [(v, c) for v, _, c in results]
    probs = [(p, c) for _, p, c in results]
    return [
        _report("path-equivalence-values", values, 1e-9, t0),
        _report("path-equivalence-probs", probs, 1e-10, t0),
    ]


def run_all(inject_fault: bool = False) -> list[SuiteResult]:
    suites = [
        suite_contractivity(),
        suite_kraus_completeness(),
        suite_risk_identities(),
        *suite_path_equivalence(),
    ]
    if inject_fault:
        s = suites[0]
        suites[0] = replace(
            s,
            failures=s.failures + 1,
            max_residual=s.max_residual + 1.0,
            failing_case={"seed": -1, "note": "injected fault (negative control)"},
        )
    return suites
