"""Plumbing of the verification battery (the suites themselves run in
test_acceptance at full scale)."""
import math

import numpy as np
import pytest

from qfilter import quantum, selftest
from qfilter.selftest import (
    SuiteResult,
    random_embedded_set,
    raw_random_density,
    run_all,
    suite_contractivity,
)


def test_suite_result_passed():
    ok = SuiteResult("x", 10, 0, 1e-12, 1e-10, 0.1)
    bad = SuiteResult("x", 10, 2, 1e-3, 1e-10, 0.1, failing_case={"seed": 4})
    assert ok.passed()
    assert not bad.passed()


def test_raw_random_density_is_a_state():
    for dim in (2, 3, 5, 8):
        m = raw_random_density(dim, dim)
        assert m.shape == (dim, dim)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_random_embedded_set_always_has_both_classes():
    for seed in range(5):
        samples = random_embedded_set(seed, 4, 1)
        labels = {s.label for s in samples}
        assert labels == {+1, -1}


def test_nan_residual_fails_its_suite(monkeypatch):
    monkeypatch.setattr(selftest, "trace_norm", lambda x: math.nan)
    res = suite_contractivity(count=3)
    assert res.failures == 3
    assert math.isnan(res.max_residual)
    assert res.failing_case["seed"] == 0


def test_contractivity_suite_small_run():
    res = suite_contractivity(count=8)
    assert res.instances == 8
    assert res.failures == 0
    assert res.max_residual <= res.tolerance


def test_suite_reports_failing_case_on_injected_fault(monkeypatch):
    """A non-unitary Rx fails the circuit suites, each naming a seed.

    kraus-completeness measures the unchecked block V P0, so it reports a
    finite residual on every instance; the suites that go through the
    checked unitary fail with NormError."""
    gate_array = quantum.gate_array
    monkeypatch.setattr(
        quantum, "gate_array",
        lambda kind, c, s: (1.001 if kind == "Rx" else 1) * gate_array(kind, c, s),
    )
    suites = {s.name: s for s in run_all()}
    assert suites["contractivity"].passed()
    corrupted = suites["kraus-completeness"]
    assert not corrupted.passed()
    assert corrupted.failures == corrupted.instances
    assert corrupted.tolerance < corrupted.max_residual < math.inf
    assert set(corrupted.failing_case) == {"seed", "n_system", "layers"}
    checked = suites["risk-identities"]
    assert checked.failures == checked.instances
    assert checked.failing_case == {"seed": 0, "error": "NormError: matrix is not unitary"}
