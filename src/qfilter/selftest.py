"""Differential and property suites behind the selftest command.

Four suites mirror the library's core guarantees: channel contractivity,
Kraus completeness, the risk/distance identities, and agreement between the
analytic and register-level paths. Instances are seed-indexed and run in
order, so failures reproduce exactly; the report serializes the failing
instance, and an instance that raises is a failure, not a crash.
"""
from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .classifier import (
    classify_rows,
    filtered_class_weights,
    filtered_fidelity_classify,
    weighted_empirical_risk,
)
from .embedding import SampleSet
from .featuremap import (
    apply_filter,
    build_ansatz,
    kraus_from_circuit,
    kraus_with_pullback,
    transform_ensemble,
)
from .protocol import run_classifier_protocol, run_risk_protocol
from .quantum import apply_channel, hs_distance, random_cptp, random_state, trace_norm


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
    """Threads the suites run on: always 1, since the runner is a plain loop."""
    return 1


def _run(
    one: Callable[[int], tuple], count: int, suites: tuple[tuple[str, float], ...]
) -> list[SuiteResult]:
    """Run one(i) for i = 0..count-1 in order; one report per (name, tolerance).

    one(i) returns a residual per suite followed by the instance's case
    record. An instance that raises fails every suite with residual inf and
    a case holding its seed and the exception; a NaN residual fails too.
    """
    t0 = time.perf_counter()
    residuals = np.empty((count, len(suites)))
    cases = []
    for i in range(count):
        try:
            *residual, case = one(i)
        except Exception as exc:
            residual = [math.inf] * len(suites)
            case = {"seed": i, "error": f"{type(exc).__name__}: {exc}"}
        residuals[i] = residual
        cases.append(case)
    seconds = time.perf_counter() - t0
    reports = []
    for column, (name, tol) in zip(residuals.T, suites):
        worst = int(np.argmax(column))
        failures = int(np.sum(~(column <= tol)))
        reports.append(
            SuiteResult(
                name=name,
                instances=count,
                failures=failures,
                max_residual=float(column[worst]),
                tolerance=tol,
                seconds=seconds,
                failing_case=cases[worst] if failures else None,
            )
        )
    return reports


def raw_random_density(seed: int, dim: int) -> np.ndarray:
    """Wishart-style random density matrix of arbitrary (non-qubit) dimension."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def suite_contractivity(count: int = 100) -> SuiteResult:
    """trace_norm never grows under a random CPTP map, dims 2 through 8."""

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

    (report,) = _run(one, count, (("contractivity", 1e-10),))
    return report


def suite_kraus_completeness(count: int = 1000) -> SuiteResult:
    """K+K + K0+K0 = I across ansatz sizes and random angles.

    Measured as B+B = I on the block B = V(theta) P0 that training uses
    (kraus_with_pullback()): its even rows are K and its odd rows K0.
    """

    def one(i: int) -> tuple[float, dict]:
        n_system = 1 + i % 4
        layers = 1 + i % 3
        ansatz = build_ansatz(n_system, layers)
        rng = np.random.default_rng(5000 + i)
        theta = rng.uniform(-np.pi, np.pi, ansatz.n_params)
        block, _ = kraus_with_pullback(ansatz, theta)
        resid = block.conj().T @ block - np.eye(2**n_system)
        return float(np.abs(resid).max()), {
            "seed": i,
            "n_system": n_system,
            "layers": layers,
        }

    (report,) = _run(one, count, (("kraus-completeness", 1e-10),))
    return report


def random_embedded_set(seed: int, m: int, n_qubits: int) -> SampleSet:
    """Random pure samples with both classes guaranteed present."""
    rng = np.random.default_rng(seed)
    labels = [+1, -1] + [int(rng.choice([+1, -1])) for _ in range(m - 2)]
    states = [random_state(seed * 10_000 + j, n_qubits).amplitudes for j in range(m)]
    return SampleSet(np.array(states), np.array(labels))


def suite_risk_identities(count: int = 100) -> SuiteResult:
    """Weighted empirical risk equals -D_hs, for the identity filter and a random one.

    The identity filter (K = I, p_s = 1) is the unfiltered classifier.
    """

    def one(i: int) -> tuple[float, dict]:
        m = 2 + i % 7
        n = 1 + i % 3
        samples = random_embedded_set(6000 + i, m, n)
        labels = samples.labels
        ansatz = build_ansatz(n, 1)
        rng = np.random.default_rng(7000 + i)
        theta = rng.uniform(-np.pi, np.pi, ansatz.n_params)
        res = 0.0
        for k in (np.eye(2**n, dtype=complex), kraus_from_circuit(ansatz, theta)):
            states = transform_ensemble(k, samples)
            values, p_s = classify_rows(states, k, samples.amplitudes)
            risk = weighted_empirical_risk(values, labels, filtered_class_weights(labels, p_s))
            res = max(res, abs(risk - (-hs_distance(*states))))
        return res, {"seed": i, "m": m, "n_qubits": n}

    (report,) = _run(one, count, (("risk-identities", 1e-10),))
    return report


def suite_path_equivalence(count: int = 100) -> list[SuiteResult]:
    """Register-level circuits agree with the analytic pipeline.

    Returns two reports over one shared pass: derived classifier/distance
    values (tolerance 1e-9) and post-selection probabilities (1e-10).
    """

    def one(i: int) -> tuple[float, float, dict]:
        m = 2 + i % 3
        n = 1 + i % 2
        samples = random_embedded_set(8000 + i, m, n)
        test = random_state(9000 + i, n)
        ansatz = build_ansatz(n, 1)
        rng = np.random.default_rng(10_000 + i)
        theta = rng.uniform(-np.pi, np.pi, ansatz.n_params)
        k = kraus_from_circuit(ansatz, theta)
        states = transform_ensemble(k, samples)
        p_succ = float(apply_filter(k, samples.amplitudes)[1].mean())

        analytic = filtered_fidelity_classify(states, k, test)
        cls = run_classifier_protocol(samples, test, ansatz, theta)
        rsk = run_risk_protocol(samples, ansatz, theta)

        value_res = max(
            abs(cls.derived_value - analytic.value),
            abs(rsk.derived_value - hs_distance(*states)),
        )
        prob_res = max(
            abs(cls.p_postselect - p_succ * analytic.p_s_test),
            abs(rsk.p_postselect - p_succ**2),
        )
        return value_res, prob_res, {"seed": i, "m": m, "n_qubits": n}

    return _run(
        one,
        count,
        (("path-equivalence-values", 1e-9), ("path-equivalence-probs", 1e-10)),
    )


def run_all() -> list[SuiteResult]:
    return [
        suite_contractivity(),
        suite_kraus_completeness(),
        suite_risk_identities(),
        *suite_path_equivalence(),
    ]
