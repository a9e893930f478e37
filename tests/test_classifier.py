"""Fidelity classifier, class weights, and the risk/distance identities."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import basis_state, sample_set
from qfilter.classifier import (
    ClassifierOutput,
    RiskReport,
    build_ensembles,
    constrained_risk,
    fidelity_classify,
    filtered_class_weights,
    filtered_fidelity_classify,
    sentinel_report,
    weighted_empirical_risk,
)
from qfilter.errors import ClassBalanceError, DomainError, ShapeError
from qfilter.featuremap import build_ansatz, kraus_from_circuit, transform_ensemble
from qfilter.quantum import (
    DensityMatrix,
    hs_distance,
    pure_to_density,
    random_state,
)


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


def test_fidelity_classify_sign_and_value():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.0, 1.0]))
    up = pure_to_density(basis_state(1, 0))
    out = fidelity_classify(rho, sigma, up)
    assert out.value == pytest.approx(1.0)
    assert out.decision == +1
    assert not out.tie
    out = fidelity_classify(sigma, rho, up)
    assert out.value == pytest.approx(-1.0)
    assert out.decision == -1


def test_fidelity_classify_tie_goes_positive_and_flags():
    rho = DensityMatrix(np.eye(2) / 2)
    out = fidelity_classify(rho, rho, pure_to_density(basis_state(1, 0)))
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
    ens = transform_ensemble(k, samples)
    test = pure_to_density(random_state(99, 1))
    out = filtered_fidelity_classify(ens, k, test)
    # p_s_test is the test point's own filter probability
    want_p = float(np.real(np.trace(k.conj().T @ k @ test.entries)))
    assert out.p_s_test == pytest.approx(want_p, abs=1e-12)
    # classifying against the filtered test state by hand
    filt = k @ test.entries @ k.conj().T / want_p
    want_value = float(
        np.real(np.trace((ens.pos.entries - ens.neg.entries) @ filt))
    )
    assert out.value == pytest.approx(want_value, abs=1e-12)


def test_filtered_class_weights_formula():
    labels = np.array([+1, +1, -1])
    p_s = np.array([0.2, 0.6, 0.5])
    w = filtered_class_weights(labels, p_s)
    np.testing.assert_allclose(w, [3 * 0.2 / 0.8, 3 * 0.6 / 0.8, 3 * 0.5 / 0.5])
    with pytest.raises(ShapeError):
        filtered_class_weights(labels, p_s[:2])
    with pytest.raises(ClassBalanceError):
        filtered_class_weights(np.array([+1, -1]), np.array([0.0, 1.0]))


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
    values = np.array(
        [fidelity_classify(rho, sigma, pure_to_density(s.state)).value for s in samples]
    )
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
    values = np.array(
        [
            filtered_fidelity_classify(ens, k, pure_to_density(s.state)).value
            for s in samples
        ]
    )
    risk = weighted_empirical_risk(values, labels, filtered_class_weights(labels, ens.p_s))
    assert risk == pytest.approx(-hs_distance(ens.pos, ens.neg), abs=1e-10)


def test_risk_from_ensembles_matches_distance():
    samples = _samples(17)
    k = kraus_from_circuit(build_ansatz(1, 1), np.random.default_rng(18).uniform(-1, 1, 5))
    ens = transform_ensemble(k, samples)
    assert oracles.risk_from_ensembles(ens) == pytest.approx(
        -hs_distance(ens.pos, ens.neg), abs=1e-15
    )


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
