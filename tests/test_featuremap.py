"""Ansatz structure, Kraus extraction, and post-selected filtering."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import basis_state
from qfilter.embedding import EmbeddedSample
from qfilter.errors import ClassAnnihilated, DimError, FilterAnnihilated, ParamShapeError
from qfilter.featuremap import (
    FeatureMapCircuit,
    KrausPair,
    apply_filter,
    build_ansatz,
    circuit_unitary,
    class_moments,
    filter_moments,
    filter_probability,
    kraus_from_circuit,
    kraus_with_pullback,
    transform_ensemble,
)
from qfilter.classifier import build_ensembles
from qfilter.training import gradient
from qfilter.quantum import (
    DensityMatrix,
    GateSpec,
    hs_distance,
    pure_to_density,
    random_state,
)


def test_build_ansatz_structure():
    for n, layers in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        circ = build_ansatz(n, layers)
        n_total = n + 1
        assert circ.n_system == n
        assert circ.n_qubits == n_total
        assert circ.n_params == layers * (2 * n_total + n)
        assert len(circ.gates) == circ.n_params
        per_layer = circ.gates[: 2 * n_total + n]
        kinds = [g.kind for g in per_layer]
        assert kinds == ["Rx"] * n_total + ["Rz"] * n_total + ["CRx"] * n
        # the CRx chain walks q -> q+1 and ends on the ancilla
        chain = [g.targets for g in per_layer if g.kind == "CRx"]
        assert chain == [(q, q + 1) for q in range(n)]
        # every parameter index is used exactly once
        assert sorted(g.param_index for g in circ.gates) == list(range(circ.n_params))


def test_build_ansatz_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        build_ansatz(0, 1)
    with pytest.raises(ValueError):
        build_ansatz(1, 0)


def test_circuit_unitary_identity_at_zero():
    circ = build_ansatz(2, 1)
    u = circuit_unitary(circ, circ.zero_theta())
    np.testing.assert_allclose(u.entries, np.eye(8), atol=1e-12)


def test_circuit_unitary_matches_dense_oracle():
    circ = build_ansatz(2, 2)
    rng = np.random.default_rng(7)
    theta = rng.uniform(-np.pi, np.pi, circ.n_params)
    got = circuit_unitary(circ, theta).entries
    want = oracles.circuit_matrix(circ.gates, theta, circ.n_qubits)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_circuit_unitary_checks_theta_shape():
    circ = build_ansatz(1, 1)
    with pytest.raises(ParamShapeError):
        circuit_unitary(circ, np.zeros(circ.n_params + 1))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10_000),
)
def test_kraus_completeness_property(n, layers, seed):
    circ = build_ansatz(n, layers)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, circ.n_params)
    pair = kraus_from_circuit(circ, theta)
    dim = 2**n
    resid = (
        pair.keep.conj().T @ pair.keep
        + pair.discard.conj().T @ pair.discard
        - np.eye(dim)
    )
    assert np.abs(resid).max() < 1e-10


def test_kraus_blocks_match_slicing_oracle():
    circ = build_ansatz(2, 1)
    theta = np.random.default_rng(11).uniform(-np.pi, np.pi, circ.n_params)
    v = circuit_unitary(circ, theta).entries
    keep, discard = oracles.kraus_blocks(v)
    pair = kraus_from_circuit(circ, theta)
    np.testing.assert_allclose(pair.keep, keep, atol=0)
    np.testing.assert_allclose(pair.discard, discard, atol=0)


def test_kraus_identity_at_zero_theta():
    circ = build_ansatz(2, 1)
    pair = kraus_from_circuit(circ, circ.zero_theta())
    np.testing.assert_allclose(pair.keep, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(pair.discard, np.zeros((4, 4)), atol=1e-12)


def test_kraus_pair_validates_completeness():
    with pytest.raises(ValueError):
        KrausPair(np.eye(2) * 0.9, np.zeros((2, 2)))
    with pytest.raises(DimError):
        KrausPair(np.eye(2), np.zeros((3, 3)))
    pair = KrausPair.identity(4)
    np.testing.assert_allclose(pair.keep, np.eye(4))


def test_filter_probability_and_apply_filter():
    # projector-style pair: keep |0><0|, discard |1><1|
    keep = np.diag([1.0, 0.0]).astype(complex)
    discard = np.diag([0.0, 1.0]).astype(complex)
    pair = KrausPair(keep, discard)
    rho = DensityMatrix(np.array([[0.25, 0.0], [0.0, 0.75]]), 1)
    assert filter_probability(pair, rho) == pytest.approx(0.25)
    out, p_s = apply_filter(pair, rho)
    assert p_s == pytest.approx(0.25)
    np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_apply_filter_matches_oracle_on_random_instances():
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, circ.n_params)
    pair = kraus_from_circuit(circ, theta)
    rho = pure_to_density(random_state(5, 1))
    got, p_s = apply_filter(pair, rho)
    want, p_want = oracles.filter_state(pair.keep, rho.entries)
    assert p_s == pytest.approx(p_want, abs=1e-12)
    np.testing.assert_allclose(got.entries, want, atol=1e-12)


def test_apply_filter_annihilation():
    pair = KrausPair(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    rho = DensityMatrix(np.diag([0.0, 1.0]), 1)
    with pytest.raises(FilterAnnihilated):
        apply_filter(pair, rho)


def test_filter_probability_dimension_check():
    pair = KrausPair.identity(2)
    with pytest.raises(DimError):
        filter_probability(pair, DensityMatrix(np.eye(4) / 4, 2))


def _two_class_samples(n_qubits=1, m=4, seed=0):
    labels = [+1, -1, +1, -1][:m]
    return [
        EmbeddedSample(random_state(seed * 100 + j, n_qubits), labels[j], j)
        for j in range(m)
    ]


def test_transform_ensemble_matches_hand_accumulation():
    for n, layers, m in [(1, 1, 4), (1, 2, 9), (2, 1, 12), (3, 2, 20)]:
        samples = [
            EmbeddedSample(random_state(1000 * n + j, n), (+1, -1)[j % 3 == 0], j)
            for j in range(m)
        ]
        circ = build_ansatz(n, layers)
        theta = np.random.default_rng(9 + m).uniform(-np.pi, np.pi, circ.n_params)
        pair = kraus_from_circuit(circ, theta)
        ens = transform_ensemble(pair, samples)
        want_pos, want_neg, ps = oracles.ensemble_loop(pair.keep, samples)
        labels = np.array([s.label for s in samples])
        np.testing.assert_allclose(ens.pos.entries, want_pos, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ens.neg.entries, want_neg, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ens.p_s, ps, rtol=0, atol=1e-15)
        assert ens.p_succ == pytest.approx(np.mean(ps), abs=1e-15)
        assert ens.p_joint == pytest.approx(np.prod(ps), abs=1e-15)
        # the class masses tr[K A K+] the training cost divides by
        _, _, mass_pos, mass_neg = filter_moments(pair, class_moments(samples))
        assert mass_pos == pytest.approx(ps[labels == 1].sum(), abs=1e-14)
        assert mass_neg == pytest.approx(ps[labels == -1].sum(), abs=1e-14)


def test_kraus_pullback_matches_finite_differences():
    """Adjoint gradient of 2 Re tr[X K(theta)] for a random cotangent X.

    The circuit holds every gate kind, and parameters 0 and 1 each drive
    two gates.
    """
    gates = (
        GateSpec("Rx", (0,), param_index=1),
        GateSpec("Ry", (0,), param_index=0),
        GateSpec("ZZ", (0, 2), param_index=1),
        GateSpec("CRx", (1, 2), param_index=0),
        GateSpec("Rz", (1,), param_index=3),
        GateSpec("Rx", (2,), param_index=2),
    )
    circ = FeatureMapCircuit(2, 1, gates, 4)
    rng = np.random.default_rng(4)
    theta = rng.uniform(-np.pi, np.pi, 4)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pair, pullback = kraus_with_pullback(circ, theta)
    np.testing.assert_allclose(pair.keep, kraus_from_circuit(circ, theta).keep, rtol=0, atol=1e-14)

    def scalar(t):
        return 2 * np.real(np.trace(x @ kraus_from_circuit(circ, t).keep))

    np.testing.assert_allclose(pullback(x), gradient(scalar, theta), rtol=0, atol=1e-8)


def test_identity_filter_reproduces_baseline_ensembles_bitwise():
    samples = _two_class_samples(m=4, seed=6)
    pair = KrausPair.identity(2)
    ens = transform_ensemble(pair, samples)
    rho, sigma = build_ensembles(samples)
    assert np.array_equal(ens.pos.entries, rho.entries)
    assert np.array_equal(ens.neg.entries, sigma.entries)
    # per-sample p_s equals the (floating point) squared norm, so it is 1
    # only up to normalization roundoff for generic states
    assert ens.p_succ == pytest.approx(1.0, abs=1e-12)
    assert hs_distance(ens.pos, ens.neg) == hs_distance(rho, sigma)


def test_identity_filter_is_exact_on_basis_samples():
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),
    ]
    ens = transform_ensemble(KrausPair.identity(2), samples)
    assert ens.p_succ == 1.0
    assert ens.p_joint == 1.0
    np.testing.assert_array_equal(ens.p_s, [1.0, 1.0])


def test_transform_ensemble_class_annihilation():
    # keep branch kills |1>; make the -1 class pure |1>
    pair = KrausPair(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    samples = [
        EmbeddedSample(random_state(1, 1), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),  # exactly |1>
    ]
    with pytest.raises(ClassAnnihilated):
        transform_ensemble(pair, samples)
    with pytest.raises(ClassAnnihilated):
        transform_ensemble(pair, [])


def test_annihilated_single_sample_is_harmless_if_class_survives():
    pair = KrausPair(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), +1, 1),  # killed, class survives
        EmbeddedSample(random_state(4, 1), -1, 2),
    ]
    ens = transform_ensemble(pair, samples)
    assert ens.p_s[1] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(ens.pos.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_build_ansatz_checks_the_gate_tape_budget(monkeypatch):
    from qfilter import featuremap
    from qfilter.errors import RegisterTooLarge

    # 1 layer: 3n + 2 gates; circuit_unitary keeps 3n + 3 matrices of 4**(n+1) x 16 B
    build_ansatz(8, 1)  # 27 x 4 MiB
    with pytest.raises(RegisterTooLarge, match="a 9-qubit, 1-layer filter needs 480 MiB"):
        build_ansatz(9, 1)
    with pytest.raises(RegisterTooLarge):
        build_ansatz(8, 3)
    monkeypatch.setattr(featuremap, "MAX_BUFFER_BYTES", 6 * 16 * 16)
    build_ansatz(1, 1)
    monkeypatch.setattr(featuremap, "MAX_BUFFER_BYTES", 6 * 16 * 16 - 1)
    with pytest.raises(RegisterTooLarge, match="budget"):
        build_ansatz(1, 1)


def test_feature_map_circuit_zero_theta_shape():
    circ = FeatureMapCircuit(1, 1, build_ansatz(1, 1).gates, 5)
    assert circ.zero_theta().shape == (5,)
    assert circ.n_qubits == 2
