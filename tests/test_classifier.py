"""Fidelity classifier, class weights, and the risk/distance identities."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import basis_state, sample_set
from qfilter import training
from qfilter.classifier import (
    ClassifierOutput,
    RiskReport,
    build_ensembles,
    classify_rows,
    constrained_risk,
    filtered_class_weights,
    filtered_fidelity_classify,
    sentinel_report,
    sign_rule,
    weighted_empirical_risk,
)
from qfilter.embedding import SAMPLE_SET_ARRAYS, Pipeline
from qfilter.errors import ClassBalanceError, DomainError, NormError, ShapeError
from qfilter.featuremap import build_ansatz, kraus_from_circuit, transform_ensemble
from qfilter.quantum import DensityMatrix, StateVector, hs_distance, random_state
from qfilter.training import TrainConfig, train


def _samples(seed, m=4, n=1):
    rng = np.random.default_rng(seed)
    labels = [+1, -1] + [int(rng.choice([+1, -1])) for _ in range(m - 2)]
    return sample_set([random_state(seed * 1000 + j, n) for j in range(m)], labels)


def test_build_ensembles_uniform_mixture():
    samples = sample_set([basis_state(1, 0), basis_state(1, 1), basis_state(1, 0)], [+1, +1, -1])
    rho, sigma = build_ensembles(samples)
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(sigma.entries, np.diag([1.0, 0.0]), atol=1e-15)


def test_build_ensembles_requires_both_classes():
    with pytest.raises(ClassBalanceError):
        build_ensembles(sample_set([basis_state(1, 0)], [+1]))


def _identity_readout(pos, neg, state):
    """filtered_fidelity_classify() with K = I against the class states pos and neg."""
    states = DensityMatrix(pos), DensityMatrix(neg)
    return filtered_fidelity_classify(states, np.eye(2, dtype=complex), state)


def test_fidelity_classify_sign_and_value():
    up = basis_state(1, 0)
    out = _identity_readout(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), up)
    assert out.value == pytest.approx(1.0)
    assert out.decision == +1
    assert not out.tie
    out = _identity_readout(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), up)
    assert out.value == pytest.approx(-1.0)
    assert out.decision == -1


def test_fidelity_classify_tie_goes_positive_and_flags():
    out = _identity_readout(np.eye(2) / 2, np.eye(2) / 2, basis_state(1, 0))
    assert out.value == 0.0
    assert out.decision == +1
    assert out.tie


def test_classifier_output_has_no_decision_for_a_non_finite_value():
    for value in (float("nan"), float("inf"), -float("inf")):
        out = ClassifierOutput(value, 0.25)
        assert out.decision is None
        assert out.tie is False
        assert out.p_s_test == 0.25
    assert ClassifierOutput(-1e-13).decision == +1 and ClassifierOutput(-1e-13).tie
    assert ClassifierOutput(-2e-12).decision == -1 and not ClassifierOutput(-2e-12).tie
    assert ClassifierOutput(1e-12).tie and not ClassifierOutput(1.0000001e-12).tie
    assert ClassifierOutput(0.5).decision == +1 and ClassifierOutput(0.5).p_s_test == 1.0


def test_filtered_fidelity_classify_records_test_success():
    samples = _samples(3)
    ansatz = build_ansatz(1, 1)
    theta = np.random.default_rng(4).uniform(-np.pi, np.pi, ansatz.n_params)
    k = kraus_from_circuit(ansatz, theta)
    pos, neg = transform_ensemble(k, samples)
    test = random_state(99, 1)
    out = filtered_fidelity_classify((pos, neg), k, test)
    # p_s_test is the test point's own filter probability
    rho = np.outer(test.amplitudes, test.amplitudes.conj())
    want_p = float(np.real(np.trace(k.conj().T @ k @ rho)))
    assert out.p_s_test == pytest.approx(want_p, abs=1e-12)
    # classifying against the filtered test state by hand
    filt = k @ rho @ k.conj().T / want_p
    want_value = float(
        np.real(np.trace((pos.entries - neg.entries) @ filt))
    )
    assert out.value == pytest.approx(want_value, abs=1e-12)


def test_readout_refuses_a_non_unit_row():
    """Every scored row is checked for unit norm, as a state; so is the one-row case."""
    eye = np.eye(2, dtype=complex)
    ens = transform_ensemble(eye, _samples(5))
    values, _ = classify_rows(ens, eye, np.array([[0.6, 0.8]]))
    assert values[0] == pytest.approx(oracles.filtered_classify(ens, eye, [0.6, 0.8]).value)
    for bad in ([1.0, 1.0], [0.6, 0.8 + 2e-8], [math.nan, 0.0]):
        with pytest.raises(NormError, match="state norm"):
            classify_rows(ens, eye, np.array([[1.0, 0.0], bad]))
    with pytest.raises(NormError):
        filtered_fidelity_classify(ens, eye, StateVector(np.array([1.0, 1.0])))


def _trained_case():
    """A filter trained on pca:2 blobs (K != I) and its held-out draw."""
    pipe = Pipeline.fit(
        {"kind": "blobs", "dims": 4, "seed": 0, "per_class": 60, "separation": 2.0}, "pca:2"
    )
    samples, test = pipe.samples(), pipe.test_samples()
    ansatz = build_ansatz(2, 1)
    result = train(TrainConfig(epochs=20, init_scale=0.5, seed=3), samples, ansatz)
    return samples, test, kraus_from_circuit(ansatz, result.theta_star)


def _annihilating_case():
    """CRx(pi) on the ancilla, controlled by the data qubit: K|1> = 0, so every
    test row |1> is annihilated while both training classes survive."""
    ansatz = build_ansatz(1, 1)
    theta = np.zeros(ansatz.n_params)
    theta[-1] = math.pi  # the CRx(0, 1) gate
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    samples = sample_set([basis_state(1, 0), plus, random_state(41, 1)], [+1, -1, -1])
    test = sample_set(
        [basis_state(1, 1), basis_state(1, 0), plus, random_state(42, 1), basis_state(1, 1)],
        [+1, +1, -1, -1, -1],
    )
    return samples, test, kraus_from_circuit(ansatz, theta)


def _tie_case():
    """|0> against |1> with K = I: |+> and |-> sit exactly between the classes."""
    samples = sample_set([basis_state(1, 0), basis_state(1, 1)], [+1, -1])
    minus = StateVector(np.array([1.0, -1.0]) / math.sqrt(2))
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    test = sample_set([plus, minus, basis_state(1, 1), random_state(43, 1)], [-1, +1, -1, +1])
    return samples, test, np.eye(2, dtype=complex)


@pytest.mark.parametrize(
    "case", [_trained_case, _annihilating_case, _tie_case], ids=["trained", "annihilating", "tie"]
)
def test_batched_readout_matches_the_per_point_oracle(case):
    """classify_rows() and compare's scoring against the density-matrix route, point by point."""
    samples, test, k = case()
    ens = transform_ensemble(k, samples)
    values, p_s = classify_rows(ens, k, test.amplitudes)
    want = [oracles.filtered_classify(ens, k, psi) for psi in test.amplitudes]
    np.testing.assert_allclose(p_s, [w.p_s_test for w in want], rtol=0, atol=1e-15)
    np.testing.assert_allclose(values, [w.value for w in want], rtol=0, atol=1e-12)
    accuracy, mean_p = training._filtered_eval(ens, k, test)
    want_accuracy, want_p = oracles.filtered_eval(ens, k, test)
    assert accuracy == want_accuracy
    assert type(accuracy) is float  # compare's CSV writes repr(accuracy)
    assert mean_p == pytest.approx(want_p, rel=0, abs=1e-15)
    if case is _annihilating_case:
        assert np.isnan(values[[0, 4]]).all() and np.isfinite(values[1:4]).all()
    if case is _tie_case:
        assert sign_rule(values)[1].tolist() == [True, True, False, False]
        assert [ClassifierOutput(v).decision for v in values[:2]] == [+1, +1]
    if case is _trained_case:
        assert not np.allclose(k, np.eye(4))


def test_sign_rule_on_arrays_is_the_decision_of_each_value():
    values = np.array([0.5, -0.5, 1e-12, -1e-12, -2e-12, math.nan, math.inf, -math.inf])
    decisions, ties = sign_rule(values)
    assert decisions.tolist() == [1, -1, 1, 1, -1, 0, 0, 0]
    assert ties.tolist() == [False, False, True, True, False, False, False, False]
    for v, d, t in zip(values, decisions, ties):
        assert ClassifierOutput(v).decision == (int(d) or None)
        assert ClassifierOutput(v).tie == t


def test_readout_peak_within_the_counted_arrays():
    """classify_rows() on 100,000 one-qubit rows peaks within the
    SAMPLE_SET_ARRAYS amplitude-sized arrays that embed_rows() budgets."""
    blobs = {"kind": "blobs", "seed": 0, "per_class": 50_000, "dims": 2, "separation": 2.0}
    samples = Pipeline.fit(blobs, "amplitude").samples()
    ansatz = build_ansatz(1, 1)
    k = kraus_from_circuit(ansatz, np.random.default_rng(8).uniform(-1, 1, ansatz.n_params))
    ens = transform_ensemble(k, samples)
    tracemalloc.start()
    try:
        values, _ = classify_rows(ens, k, samples.amplitudes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (100_000,)
    assert peak <= SAMPLE_SET_ARRAYS * 100_000 * 2 * 16


def test_filtered_class_weights_formula():
    labels = np.array([+1, +1, -1])
    p_s = np.array([0.2, 0.6, 0.5])
    w = filtered_class_weights(labels, p_s)
    np.testing.assert_allclose(w, [3 * 0.2 / 0.8, 3 * 0.6 / 0.8, 3 * 0.5 / 0.5])
    with pytest.raises(ShapeError):
        filtered_class_weights(labels, p_s[:2])
    with pytest.raises(ClassBalanceError):
        filtered_class_weights(np.array([+1, -1]), np.array([0.0, 1.0]))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=200),
)
def test_filtered_class_weights_are_the_per_row_formula_bit_for_bit(seed, m):
    """The array form divides each M p_s(x_m) by its class's total, as the
    per-row loop does, so every weight has the same bits."""
    rng = np.random.default_rng(seed)
    labels = np.array([+1, -1] + rng.choice([+1, -1], m - 2).tolist())
    p_s = rng.uniform(0, 1, m) * rng.choice([1.0, 1e-9, 1e-300], m)
    got = filtered_class_weights(labels, p_s)
    assert got.dtype == float
    assert got.tobytes() == oracles.class_weights_loop(labels, p_s).tobytes()


def test_uniform_class_weights_balance():
    """The identity filter (p_s = 1) gives the baseline weights M / M_class."""
    labels = np.array([+1, -1, -1, -1])
    w = filtered_class_weights(labels, np.ones(4))
    np.testing.assert_allclose(w, [4.0, 4 / 3, 4 / 3, 4 / 3])
    with pytest.raises(ClassBalanceError):
        filtered_class_weights(np.array([+1, +1]), np.ones(2))


def test_weighted_empirical_risk_formula():
    values = np.array([0.5, -0.25])
    labels = np.array([+1, -1])
    weights = np.array([1.0, 2.0])
    want = -(1.0 * 0.5 * 1 + 2.0 * (-0.25) * (-1)) / 2
    assert weighted_empirical_risk(values, labels, weights) == pytest.approx(want)
    with pytest.raises(ShapeError):
        weighted_empirical_risk(values, labels, weights[:1])


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=2),
)
def test_baseline_risk_identity(seed, m, n):
    """Class-weighted empirical risk collapses to -D_hs of the ensembles."""
    samples = _samples(seed, m, n)
    labels = np.array([s.label for s in samples])
    rho, sigma = build_ensembles(samples)
    values, _ = classify_rows((rho, sigma), np.eye(2**n, dtype=complex), samples.amplitudes)
    weights = filtered_class_weights(labels, np.ones(len(labels)))
    risk = weighted_empirical_risk(values, labels, weights)
    assert risk == pytest.approx(-hs_distance(rho, sigma), abs=1e-10)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=2),
)
def test_filtered_risk_identity(seed, m, n):
    """Post-selection reweighting keeps the risk equal to -D_hs."""
    samples = _samples(seed, m, n)
    labels = np.array([s.label for s in samples])
    ansatz = build_ansatz(n, 1)
    theta = np.random.default_rng(seed + 1).uniform(-np.pi, np.pi, ansatz.n_params)
    k = kraus_from_circuit(ansatz, theta)
    ens = transform_ensemble(k, samples)
    values, p_s = classify_rows(ens, k, samples.amplitudes)
    risk = weighted_empirical_risk(values, labels, filtered_class_weights(labels, p_s))
    assert risk == pytest.approx(-hs_distance(*ens), abs=1e-10)


def test_risk_from_ensembles_matches_distance():
    samples = _samples(17)
    k = kraus_from_circuit(build_ansatz(1, 1), np.random.default_rng(18).uniform(-1, 1, 5))
    ens = transform_ensemble(k, samples)
    assert oracles.risk_from_ensembles(ens) == pytest.approx(-hs_distance(*ens), abs=1e-15)


def test_constrained_risk_hinge():
    r = constrained_risk(-1.0, 0.3, lam=2.0, cutoff=0.5)
    assert r.penalty == pytest.approx(2.0 * 0.2)
    assert r.risk == pytest.approx(-1.0 + 0.4)
    assert r.hs_distance == pytest.approx(1.0)
    assert r.p_succ == pytest.approx(0.3)
    # above the cutoff the penalty vanishes
    r = constrained_risk(-1.0, 0.8, lam=2.0, cutoff=0.5)
    assert r.penalty == 0.0
    assert r.risk == pytest.approx(-1.0)
    # lam = 0 disables the constraint entirely
    r = constrained_risk(-0.5, 0.0, lam=0.0, cutoff=0.9)
    assert r.penalty == 0.0


def test_constrained_risk_domain_checks():
    with pytest.raises(DomainError):
        constrained_risk(-1.0, 0.5, lam=-1.0, cutoff=0.5)
    with pytest.raises(DomainError):
        constrained_risk(-1.0, 0.5, lam=1.0, cutoff=1.5)
    with pytest.raises(DomainError):
        constrained_risk(-1.0, 1.7, lam=1.0, cutoff=0.5)
    # tiny negative roundoff in p_succ is clipped, not rejected
    r = constrained_risk(-1.0, -1e-12, lam=1.0, cutoff=0.0)
    assert r.p_succ == 0.0


def test_risk_report_enforces_identities():
    """A report stores what was measured or set and derives risk and penalty from it."""
    fields = [f.name for f in dataclasses.fields(RiskReport)]
    assert fields == ["hs_distance", "p_succ", "lam", "cutoff"]
    rep = RiskReport(hs_distance=1.0, p_succ=0.3, lam=2.0, cutoff=0.5)
    assert rep.penalty == 2.0 * (0.5 - 0.3)
    assert rep.risk == -1.0 + 2.0 * (0.5 - 0.3)
    assert RiskReport(hs_distance=1.0, p_succ=0.6, lam=2.0, cutoff=0.5).penalty == 0.0
    # neither derived part can be set apart from its inputs
    for name in ("risk", "penalty"):
        with pytest.raises(AttributeError):
            setattr(rep, name, 0.0)


@given(
    st.floats(0.0, 2.0),
    st.floats(-1e-9, 1.0 + 1e-9),
    st.floats(0.0, 1e6),
    st.floats(0.0, 1.0),
)
def test_constrained_risk_parts_are_bitwise_the_hinge_formula(d, p, lam, c):
    rep = constrained_risk(-d, p, lam, c)
    penalty = lam * max(0.0, c - min(max(p, 0), 1))
    assert rep.penalty.hex() == penalty.hex()
    assert rep.risk.hex() == ((-d) + penalty).hex()


def test_sentinel_report_shape():
    rep = sentinel_report(lam=2.0, cutoff=0.5)
    assert rep.risk == 2.0
    assert rep.p_succ == 0.0
    assert rep.penalty == pytest.approx(1.0)
    # the published identities still hold on the sentinel
    assert rep.risk == pytest.approx(-rep.hs_distance + rep.penalty)
    # past a penalty of about 2**54, -(penalty - 2) + penalty is no longer 2
    with pytest.raises(DomainError):
        sentinel_report(lam=1e17, cutoff=1.0)


@given(st.floats(0.0, 1e16), st.floats(0.0, 1.0))
def test_sentinel_cost_is_exactly_two(lam, cutoff):
    assert sentinel_report(lam, cutoff).risk == 2.0
