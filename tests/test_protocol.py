"""Register layouts, state preparation, and the swap-test circuits."""
import math

import numpy as np
import pytest

import oracles
from oracles import basis_state
from qfilter.embedding import EmbeddedSample
from qfilter.errors import ClassAnnihilated, DimError, FilterAnnihilated
from qfilter.featuremap import build_ansatz, circuit_unitary, kraus_from_circuit, transform_ensemble
from qfilter.classifier import filtered_fidelity_classify
from qfilter.protocol import (
    ProtocolOutcome,
    apply_feature_maps_postselect,
    classifier_layout,
    index_register_width,
    prepare_classifier_state,
    prepare_risk_state,
    risk_layout,
    run_classifier_protocol,
    run_risk_protocol,
    sample_outcomes,
)
from qfilter.quantum import StateVector, hs_distance, pure_to_density, random_state


def _samples(seed, m=2, n=1):
    labels = [+1, -1] + [(-1) ** j for j in range(m - 2)]
    return [
        EmbeddedSample(random_state(seed * 77 + j, n), labels[j], j)
        for j in range(m)
    ]


def test_index_register_width():
    assert [index_register_width(m) for m in (1, 2, 3, 4, 5, 8, 9)] == [
        1, 1, 2, 2, 3, 3, 4,
    ]


def test_classifier_layout_partitions_the_register():
    lay = classifier_layout(m=3, n_data=2)
    assert lay.index == (0, 1)
    assert lay.data == ((2, 3), (4, 5))
    assert lay.swap == 6
    assert lay.label == (7,)
    assert lay.filter_ancilla == (8, 9)
    assert lay.n_qubits == 10


def test_risk_layout_partitions_the_register():
    lay = risk_layout(m=2, n_data=1)
    assert lay.index == (0, 3)
    assert lay.data == ((1,), (4,))
    assert lay.label == (2, 5)
    assert lay.swap == 6
    assert lay.filter_ancilla == (7, 8)
    assert lay.n_qubits == 9


def test_register_layout_rejects_gaps():
    from qfilter.protocol import RegisterLayout

    with pytest.raises(DimError):
        RegisterLayout(index=(0,), data=((1,),), label=(3,), swap=4,
                       filter_ancilla=(5,), n_qubits=6)


def test_prepare_classifier_state_amplitudes():
    # two one-qubit samples |0>(+1) and |1>(-1), test |1>
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),
    ]
    state = prepare_classifier_state(samples, basis_state(1, 1))
    # registers: index(1) train(1) test(1) swap(1) label(1)
    assert state.n_qubits == 5
    want = np.zeros(32, dtype=complex)
    # branch m=0: |0>|0>|1>|0>|0>  -> index 0b00100
    want[0b00100] = 1 / math.sqrt(2)
    # branch m=1: |1>|1>|1>|0>|1>  -> index 0b11101
    want[0b11101] = 1 / math.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, want, atol=1e-15)


def test_prepare_classifier_state_checks_sizes():
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),
    ]
    with pytest.raises(DimError):
        prepare_classifier_state(samples[:1], basis_state(1, 0))
    with pytest.raises(DimError):
        prepare_classifier_state(samples, basis_state(2, 0))
    mixed = samples + [EmbeddedSample(basis_state(2, 0), +1, 2)]
    with pytest.raises(DimError):
        prepare_classifier_state(mixed, basis_state(1, 0))


def test_prepare_risk_state_amplitudes():
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),
    ]
    state = prepare_risk_state(samples)
    assert state.n_qubits == 3
    want = np.zeros(8, dtype=complex)
    want[0b000] = 1 / math.sqrt(2)  # |m=0>|0>|label +1 -> 0>
    want[0b111] = 1 / math.sqrt(2)  # |m=1>|1>|label -1 -> 1>
    np.testing.assert_allclose(state.amplitudes, want, atol=1e-15)


def test_prepare_state_non_power_of_two_branch_count():
    samples = _samples(5, m=3)
    state = prepare_risk_state(samples)
    # 2 index qubits, branch 3 stays empty
    assert state.n_qubits == 2 + 1 + 1
    probs = state.probabilities().reshape(4, 4).sum(axis=1)
    np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)


def test_apply_feature_maps_postselect_matches_kraus_probability():
    samples = _samples(11, m=2, n=1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(12).uniform(-np.pi, np.pi, circ.n_params)
    layout = classifier_layout(2, 1)
    base = prepare_classifier_state(samples, random_state(13, 1))
    out, p_post = apply_feature_maps_postselect(base, circ, theta, layout)
    assert out.n_qubits == base.n_qubits  # the ancillas never join the register
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    # independent dense simulation with both ancillas appended in |0>
    amps = np.kron(base.amplitudes, np.array([1, 0, 0, 0], dtype=complex))
    v = oracles.circuit_matrix(circ.gates, theta, 2)
    amps = oracles.lift(v, layout.data[0] + (layout.filter_ancilla[0],), layout.n_qubits) @ amps
    amps = oracles.lift(v, layout.data[1] + (layout.filter_ancilla[1],), layout.n_qubits) @ amps
    want_p = 1.0
    for anc in layout.filter_ancilla:
        amps, p = oracles.project_bit(amps, anc, layout.n_qubits)
        want_p *= p
    assert p_post == pytest.approx(want_p, abs=1e-12)
    # both ancillas are the last qubits and sit in |00>
    np.testing.assert_allclose(amps.reshape(-1, 4)[:, 1:], 0.0, atol=0)
    np.testing.assert_allclose(out.amplitudes, amps.reshape(-1, 4)[:, 0], atol=1e-10)


def test_apply_feature_maps_postselect_checks_the_register():
    samples = _samples(14, m=2, n=1)
    circ = build_ansatz(1, 1)
    layout = classifier_layout(2, 1)
    base = prepare_classifier_state(samples, random_state(15, 1))
    with_ancillas = StateVector(np.kron(base.amplitudes, [1, 0, 0, 0]), layout.n_qubits)
    with pytest.raises(DimError):
        apply_feature_maps_postselect(with_ancillas, circ, circ.zero_theta(), layout)
    with pytest.raises(DimError):
        apply_feature_maps_postselect(basis_state(2, 0), circ, circ.zero_theta(), layout)
    wide = build_ansatz(2, 1)
    with pytest.raises(DimError):
        apply_feature_maps_postselect(base, wide, np.zeros(wide.n_params), layout)


def test_apply_feature_maps_postselect_annihilation():
    # Rx(pi) on the ancilla takes it to -i|1> always: the keep branch has
    # probability cos(pi/2)**2, zero up to roundoff
    from qfilter.quantum import GateSpec
    from qfilter.featuremap import FeatureMapCircuit

    circ = FeatureMapCircuit(1, 1, (GateSpec("Rx", (1,), param_index=0),), 1)
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),
    ]
    with pytest.raises(FilterAnnihilated):
        run_classifier_protocol(samples, basis_state(1, 0), circ, np.array([math.pi]))


def test_classifier_protocol_against_dense_oracle():
    for seed in (0, 1, 2):
        m = 2 + seed % 2
        samples = _samples(seed, m=m, n=1)
        test = random_state(400 + seed, 1)
        circ = build_ansatz(1, 1)
        theta = np.random.default_rng(500 + seed).uniform(-np.pi, np.pi, circ.n_params)
        got = run_classifier_protocol(samples, test, circ, theta)
        v = oracles.circuit_matrix(circ.gates, theta, 2)
        p_post, p_class, cond, value = oracles.classifier_protocol_oracle(
            [s.state.amplitudes for s in samples],
            [s.label for s in samples],
            test.amplitudes,
            v,
            1,
        )
        assert got.p_postselect == pytest.approx(p_post, abs=1e-10)
        np.testing.assert_allclose(got.p_class, p_class, atol=1e-10)
        np.testing.assert_allclose(got.p_swap_given_class, cond, atol=1e-10)
        assert got.derived_value == pytest.approx(value, abs=1e-9)


def test_risk_protocol_against_dense_oracle():
    samples = _samples(21, m=2, n=1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(22).uniform(-np.pi, np.pi, circ.n_params)
    got = run_risk_protocol(samples, circ, theta)
    v = oracles.circuit_matrix(circ.gates, theta, 2)
    p_post, p_class, cond, value = oracles.risk_protocol_oracle(
        [s.state.amplitudes for s in samples],
        [s.label for s in samples],
        v,
        1,
    )
    assert got.p_postselect == pytest.approx(p_post, abs=1e-10)
    np.testing.assert_allclose(got.p_class, p_class, atol=1e-10)
    np.testing.assert_allclose(got.p_swap_given_class, cond, atol=1e-10)
    assert got.derived_value == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 5, 40])
def test_protocol_matches_analytic_path(m, n):
    samples = _samples(31, m=m, n=n)
    test = random_state(32, n)
    circ = build_ansatz(n, 1)
    theta = np.random.default_rng(33).uniform(-np.pi, np.pi, circ.n_params)
    pair = kraus_from_circuit(circ, theta)
    ens = transform_ensemble(pair, samples)
    analytic = filtered_fidelity_classify(ens, pair, pure_to_density(test))

    cls = run_classifier_protocol(samples, test, circ, theta)
    assert cls.derived_value == pytest.approx(analytic.value, abs=1e-9)
    assert cls.p_postselect == pytest.approx(ens.p_succ * analytic.p_s_test, abs=1e-10)

    rsk = run_risk_protocol(samples, circ, theta)
    assert rsk.derived_value == pytest.approx(hs_distance(ens.pos, ens.neg), abs=1e-9)
    assert rsk.p_postselect == pytest.approx(ens.p_succ**2, abs=1e-10)


def test_protocols_use_no_analytic_route(monkeypatch):
    from qfilter import featuremap, protocol, quantum

    samples = _samples(61, m=3, n=1)
    test = random_state(62, 1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(63).uniform(-np.pi, np.pi, circ.n_params)

    def forbidden(*args, **kwargs):
        raise AssertionError("the register-level twin took an analytic route")

    for module, names in (
        (featuremap, ("kraus_from_circuit", "kraus_with_pullback", "filter_moments",
                      "transform_ensemble", "apply_filter")),
        (quantum, ("pure_to_density",)),
    ):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
            if hasattr(protocol, name):
                monkeypatch.setattr(protocol, name, forbidden)
    monkeypatch.setattr(quantum.DensityMatrix, "__post_init__", forbidden)

    v = oracles.circuit_matrix(circ.gates, theta, 2)
    states = [s.state.amplitudes for s in samples]
    labels = [s.label for s in samples]
    for got, want in (
        (run_classifier_protocol(samples, test, circ, theta),
         oracles.classifier_protocol_oracle(states, labels, test.amplitudes, v, 1)),
        (run_risk_protocol(samples, circ, theta),
         oracles.risk_protocol_oracle(states, labels, v, 1)),
    ):
        p_post, p_class, cond, value = want
        assert got.p_postselect == pytest.approx(p_post, abs=1e-10)
        np.testing.assert_allclose(got.p_class, p_class, atol=1e-10)
        np.testing.assert_allclose(got.p_swap_given_class, cond, atol=1e-10)
        assert got.derived_value == pytest.approx(value, abs=1e-9)


def test_register_budget_is_checked_before_allocating(monkeypatch):
    from qfilter import protocol
    from qfilter.errors import RegisterTooLarge

    samples = _samples(71, m=2, n=1)
    test = random_state(72, 1)
    circ = build_ansatz(1, 1)
    theta = circ.zero_theta()
    # classifier register 5 qubits, risk register 6: products of 2**6 and 2**7 amplitudes
    monkeypatch.setattr(protocol, "MAX_BUFFER_BYTES", 2**6 * 16)
    run_classifier_protocol(samples, test, circ, theta)
    with pytest.raises(RegisterTooLarge, match="budget"):
        run_risk_protocol(samples, circ, theta)
    monkeypatch.setattr(protocol, "MAX_BUFFER_BYTES", 2**6 * 16 - 1)
    with pytest.raises(RegisterTooLarge):
        prepare_classifier_state(samples, test)
    base = StateVector(np.eye(32, dtype=complex)[0], 5)
    with pytest.raises(RegisterTooLarge):
        apply_feature_maps_postselect(base, circ, theta, classifier_layout(2, 1))


def test_protocol_identity_filter_postselects_with_certainty():
    samples = _samples(41, m=2, n=1)
    circ = build_ansatz(1, 1)
    out = run_classifier_protocol(samples, random_state(42, 1), circ, circ.zero_theta())
    assert out.p_postselect == pytest.approx(1.0, abs=1e-12)


def test_class_annihilation_readout():
    # -1 class sample |1> is killed before the swap test ever queries it:
    # project the data registers with a filter that zeroes |1>
    from qfilter.quantum import GateSpec
    from qfilter.featuremap import FeatureMapCircuit

    # CRx(pi) with control = data qubit rotates ancilla |0> -> -i|1> exactly
    # when the data qubit is |1>, so post-selecting ancilla 0 kills |1> data
    circ = FeatureMapCircuit(1, 1, (GateSpec("CRx", (0, 1), param_index=0),), 1)
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),
    ]
    with pytest.raises(ClassAnnihilated):
        run_classifier_protocol(samples, basis_state(1, 0), circ, np.array([math.pi]))


def test_protocol_outcome_validation():
    with pytest.raises(DimError):
        ProtocolOutcome(0.5, np.array([0.5, 0.5]), np.ones((3, 2)) / 2, 0.0)
    with pytest.raises(ValueError):
        ProtocolOutcome(0.5, np.array([0.7, 0.7]), np.ones((2, 2)) / 2, 0.0)
    with pytest.raises(ValueError):
        ProtocolOutcome(1.5, np.array([0.5, 0.5]), np.ones((2, 2)) / 2, 0.0)
    with pytest.raises(ValueError):
        ProtocolOutcome(
            0.5, np.array([0.5, 0.5]), np.array([[0.9, 0.3], [0.5, 0.5]]), 0.0
        )
    # NaN conditional rows are tolerated (unobserved sampled cells)
    out = ProtocolOutcome(
        0.5,
        np.array([1.0, 0.0]),
        np.array([[0.5, 0.5], [math.nan, math.nan]]),
        math.nan,
    )
    assert math.isnan(out.derived_value)


def test_sample_outcomes_statistics_and_determinism():
    samples = _samples(51, m=2, n=1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(52).uniform(-np.pi, np.pi, circ.n_params)
    exact = run_classifier_protocol(samples, random_state(53, 1), circ, theta)

    a = sample_outcomes(exact, shots=2000, seed=7)
    b = sample_outcomes(exact, shots=2000, seed=7)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.shots == 2000
    assert a.counts.sum() == 2000
    assert a.p_postselect == exact.p_postselect  # carried over exactly
    np.testing.assert_allclose(a.p_class, exact.p_class, atol=0.05)
    np.testing.assert_allclose(
        a.p_swap_given_class, exact.p_swap_given_class, atol=0.08
    )
    assert a.derived_value == pytest.approx(exact.derived_value, abs=0.2)


def test_sample_outcomes_nan_for_undrawn_cells():
    skewed = ProtocolOutcome(
        1.0,
        np.array([1.0 - 1e-12, 1e-12]),
        np.array([[1.0, 0.0], [0.5, 0.5]]),
        2.0,
    )
    sampled = sample_outcomes(skewed, shots=5, seed=0)
    assert math.isnan(sampled.derived_value)
    assert np.isnan(sampled.p_swap_given_class[1]).all()
    with pytest.raises(ValueError):
        sample_outcomes(skewed, shots=0, seed=0)
