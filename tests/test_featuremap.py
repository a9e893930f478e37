"""Ansatz structure, Kraus extraction, and post-selected filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import basis_state, sample_set
from qfilter.embedding import EmbeddingSpec, SampleSet, pca_layer_states
from qfilter.errors import ClassAnnihilated, DimError, FilterAnnihilated, ParamShapeError
from qfilter.featuremap import (
    ClassMoments,
    FeatureMapCircuit,
    apply_filter,
    build_ansatz,
    circuit_unitary,
    class_moments,
    filter_moments,
    kraus_from_circuit,
    kraus_with_pullback,
    transform_ensemble,
)
from qfilter.classifier import build_ensembles, filtered_fidelity_classify
from qfilter.training import gradient
from qfilter.quantum import (
    GATE_BYTES,
    DensityMatrix,
    GateSpec,
    StateVector,
    UnitaryMatrix,
    hs_distance,
    random_state,
    run_gates,
)


def test_build_ansatz_structure():
    for n, layers in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        circ = build_ansatz(n, layers)
        n_total = n + 1
        assert circ.n_system == n
        assert circ.n_qubits == n_total
        assert len(circ.gates) == layers * (2 * n_total + n)
        assert circ.n_params == len(circ.gates)
        per_layer = circ.gates[: 2 * n_total + n]
        kinds = [g.kind for g in per_layer]
        assert kinds == ["Rx"] * n_total + ["Rz"] * n_total + ["CRx"] * n
        # the CRx chain walks q -> q+1 and ends on the ancilla
        chain = [g.targets for g in per_layer if g.kind == "CRx"]
        assert chain == [(q, q + 1) for q in range(n)]
        # every layer is the first one again
        assert circ.gates == per_layer * layers


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
    keep, discard = oracles.kraus_blocks(circuit_unitary(circ, theta).entries)
    resid = keep.conj().T @ keep + discard.conj().T @ discard - np.eye(2**n)
    assert np.abs(resid).max() < 1e-10


def test_kraus_blocks_match_slicing_oracle():
    circ = build_ansatz(2, 1)
    theta = np.random.default_rng(11).uniform(-np.pi, np.pi, circ.n_params)
    v = circuit_unitary(circ, theta).entries
    keep, _ = oracles.kraus_blocks(v)
    np.testing.assert_array_equal(kraus_from_circuit(circ, theta), keep)


def test_kraus_identity_at_zero_theta():
    circ = build_ansatz(2, 1)
    np.testing.assert_allclose(kraus_from_circuit(circ, circ.zero_theta()), np.eye(4), atol=1e-12)
    _, discard = oracles.kraus_blocks(circuit_unitary(circ, circ.zero_theta()).entries)
    np.testing.assert_allclose(discard, np.zeros((4, 4)), atol=1e-12)


def test_apply_filter_success_probability_and_state():
    # projector-style filter: keep |0><0| (and discard |1><1|)
    keep = np.diag([1.0, 0.0]).astype(complex)
    rows = np.array([[0.5, np.sqrt(0.75)], [0.0, 1.0]], dtype=complex)
    kpsi, p_s = apply_filter(keep, rows)
    np.testing.assert_allclose(p_s, [0.25, 0.0], atol=1e-15)
    np.testing.assert_array_equal(kpsi, [[0.5, 0.0], [0.0, 0.0]])


def test_apply_filter_matches_oracle_on_random_instances():
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, circ.n_params)
    k = kraus_from_circuit(circ, theta)
    states = [random_state(seed, 1).amplitudes for seed in (5, 6, 7)]
    kpsi, p_s = apply_filter(k, np.array(states))
    for psi, col, p in zip(states, kpsi.T, p_s):
        want, p_want = oracles.filter_state(k, np.outer(psi, psi.conj()))
        assert p == pytest.approx(p_want, abs=1e-12)
        np.testing.assert_allclose(np.outer(col, col.conj()) / p, want, atol=1e-12)


def test_apply_filter_annihilation():
    """A row K kills has p_s = 0, and the one-row readout refuses it."""
    keep = np.diag([1.0, 0.0]).astype(complex)
    _, (p_s,) = apply_filter(keep, np.array([[0.0, 1.0]], dtype=complex))
    assert p_s == 0.0
    states = DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.eye(2) / 2)
    with pytest.raises(FilterAnnihilated):
        filtered_fidelity_classify(states, keep, basis_state(1, 1))


def test_apply_filter_dimension_check():
    with pytest.raises(DimError):
        apply_filter(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


def _filter_two_qubits(via, shape):
    """apply_filter or transform_ensemble with a K of the given shape on 2-qubit states."""
    k = np.eye(*shape, dtype=complex)
    samples = sample_set([random_state(1, 2), random_state(2, 2)], [+1, -1])
    if via == "apply_filter":
        return apply_filter(k, samples.amplitudes)
    return transform_ensemble(k, samples)


_SIZE_CASES = (
    [(f"StateVector-{n}", lambda n=n: StateVector(np.eye(2**n)[0]), n) for n in range(4)]
    + [(f"DensityMatrix-{n}", lambda n=n: DensityMatrix(np.eye(2**n) / 2**n), n) for n in range(4)]
    + [(f"UnitaryMatrix-{n}", lambda n=n: UnitaryMatrix(np.eye(2**n)), n) for n in range(4)]
    + [(f"StateVector-length-{d}", lambda d=d: StateVector(np.ones(d)), DimError) for d in (3, 6)]
    + [
        ("DensityMatrix-2x4", lambda: DensityMatrix(np.eye(2, 4)), DimError),
        ("UnitaryMatrix-2x4", lambda: UnitaryMatrix(np.eye(2, 4)), DimError),
        ("run_gates-3-rows",
         lambda: run_gates(np.ones((3, 1), complex), [GateSpec("Rx", (0,))], [0.1]), DimError),
        # 8 rows are 3 qubits, so qubit 3 is outside the register
        ("run_gates-8-rows",
         lambda: run_gates(np.eye(8, dtype=complex), [GateSpec("Rx", (3,))], [0.1]), IndexError),
    ]
    + [
        (f"{via}-K{r}x{c}", lambda v=via, shape=(r, c): _filter_two_qubits(v, shape), DimError)
        for via in ("apply_filter", "transform_ensemble")
        for r, c in ((2, 4), (4, 2))
    ]
)


@pytest.mark.parametrize(
    "build, want", [case[1:] for case in _SIZE_CASES], ids=[case[0] for case in _SIZE_CASES]
)
def test_sizes_come_from_shapes(build, want):
    """Each checked type reads n_qubits from its array alone; an array that
    is no register, or a K that does not act on the states, raises."""
    if isinstance(want, int):
        assert build().n_qubits == want
    else:
        with pytest.raises(want):
            build()


def test_apply_filter_is_filter_moments_on_one_state():
    """A state filtered as a row and as a class moment: the same p_s and state."""
    circ = build_ansatz(2, 1)
    theta = np.random.default_rng(21).uniform(-np.pi, np.pi, circ.n_params)
    k = kraus_from_circuit(circ, theta)
    rows = np.array([random_state(seed, 2).amplitudes for seed in (22, 23)])
    moments = ClassMoments(np.stack([np.outer(psi, psi.conj()) for psi in rows]), 2)
    states, masses = filter_moments(k, moments)
    kpsi, p_s = apply_filter(k, rows)
    np.testing.assert_allclose(p_s, masses, rtol=0, atol=1e-15)
    for col, p, want in zip(kpsi.T, p_s, states):
        np.testing.assert_allclose(np.outer(col, col.conj()) / p, want, rtol=0, atol=1e-15)


def _two_class_samples(n_qubits=1, m=4, seed=0):
    labels = [+1, -1, +1, -1][:m]
    return sample_set([random_state(seed * 100 + j, n_qubits) for j in range(m)], labels)


def test_transform_ensemble_matches_hand_accumulation():
    for n, layers, m in [(1, 1, 4), (1, 2, 9), (2, 1, 12), (3, 2, 20)]:
        samples = sample_set(
            [random_state(1000 * n + j, n) for j in range(m)],
            [(+1, -1)[j % 3 == 0] for j in range(m)],
        )
        circ = build_ansatz(n, layers)
        theta = np.random.default_rng(9 + m).uniform(-np.pi, np.pi, circ.n_params)
        k = kraus_from_circuit(circ, theta)
        pos, neg = transform_ensemble(k, samples)
        want_pos, want_neg, ps = oracles.ensemble_loop(k, samples)
        labels = np.array([s.label for s in samples])
        np.testing.assert_allclose(pos.entries, want_pos, rtol=0, atol=1e-12)
        np.testing.assert_allclose(neg.entries, want_neg, rtol=0, atol=1e-12)
        # the per-sample p_s that the readout and the selftest read
        np.testing.assert_allclose(apply_filter(k, samples.amplitudes)[1], ps, rtol=0, atol=1e-15)
        # the class masses tr[K A K+] the training cost divides by
        _, (mass_pos, mass_neg) = filter_moments(k, class_moments(samples))
        assert mass_pos == pytest.approx(ps[labels == 1].sum(), abs=1e-14)
        assert mass_neg == pytest.approx(ps[labels == -1].sum(), abs=1e-14)


def test_kraus_pullback_matches_finite_differences():
    """Adjoint gradient of 2 Re tr[X K(theta)] for a random cotangent X.

    The circuit holds every gate kind, each with its own angle, and the
    non-adjacent ZZ (0, 2) and CRx (2, 0).
    """
    gates = (
        GateSpec("Rx", (0,)),
        GateSpec("Ry", (0,)),
        GateSpec("ZZ", (0, 2)),
        GateSpec("CRx", (1, 2)),
        GateSpec("CRx", (2, 0)),
        GateSpec("Rz", (1,)),
        GateSpec("Rx", (2,)),
    )
    circ = FeatureMapCircuit(2, gates)
    rng = np.random.default_rng(4)
    theta = rng.uniform(-np.pi, np.pi, circ.n_params)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    block, pullback = kraus_with_pullback(circ, theta)
    keep, discard = oracles.kraus_blocks(circuit_unitary(circ, theta).entries)
    np.testing.assert_allclose(block[0::2], keep, rtol=0, atol=1e-14)
    np.testing.assert_allclose(block[1::2], discard, rtol=0, atol=1e-14)

    def scalar(t):
        return 2 * np.real(np.trace(x @ kraus_from_circuit(circ, t)))

    np.testing.assert_allclose(pullback(x), gradient(scalar, theta), rtol=0, atol=1e-8)


@pytest.mark.parametrize("seed", range(24))
def test_kraus_pullback_matches_the_shift_rule(seed):
    """The generator-form pullback of 2 Re tr[X K(theta)] on a random ansatz,
    against the shift rule G' = (G(t + pi) - G(t - pi)) / 4 and against
    finite differences. X has unit norm, so 1e-12 is a roundoff bound."""
    rng = np.random.default_rng(seed)
    circ = build_ansatz(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    theta = rng.uniform(-np.pi, np.pi, circ.n_params)
    dim = 2**circ.n_system
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x /= np.linalg.norm(x)
    _, pullback = kraus_with_pullback(circ, theta)
    got = pullback(x)
    # tr[X K] = <X+, K>, and K is the even rows of V on the ancilla-|0> columns
    y = np.zeros((2 * dim, dim), dtype=complex)
    y[0::2] = x.conj().T
    isometry = np.eye(2 * dim, dtype=complex)[:, 0::2]
    want = oracles.shift_rule_pullback(isometry, circ.gates, theta, circ.n_qubits)(y)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def scalar(t):
        return 2 * np.real(np.trace(x @ kraus_from_circuit(circ, t)))

    np.testing.assert_allclose(got, gradient(scalar, theta), rtol=0, atol=1e-8)


@pytest.mark.parametrize("n_system", [1, 2, 3, 4])
def test_kraus_block_is_the_pass_over_the_ancilla_zero_columns_of_the_identity(n_system):
    """kraus_with_pullback() builds the input columns of V P0 without an
    identity; its block and gradient are bitwise those of the same pass over
    the ancilla-|0> columns of the 2 dim x 2 dim identity."""
    dim = 2**n_system
    rng = np.random.default_rng(n_system)
    for layers in (1, 2, 3) * 5:
        circ = build_ansatz(n_system, layers)
        theta = rng.uniform(-np.pi, np.pi, circ.n_params)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        block, pullback = kraus_with_pullback(circ, theta)
        want, run_back = run_gates(np.eye(2 * dim, dtype=complex)[:, 0::2], circ.gates, theta)
        adj = np.zeros_like(want)
        adj[0::2] = x.conj().T
        assert block.tobytes() == want.tobytes()
        assert pullback(x).tobytes() == run_back(adj).tobytes()


def test_identity_filter_reproduces_baseline_ensembles_bitwise():
    samples = _two_class_samples(m=4, seed=6)
    pos, neg = transform_ensemble(np.eye(2, dtype=complex), samples)
    rho, sigma = build_ensembles(samples)
    assert np.array_equal(pos.entries, rho.entries)
    assert np.array_equal(neg.entries, sigma.entries)
    # per-sample p_s equals the (floating point) squared norm, so it is 1
    # only up to normalization roundoff for generic states
    assert apply_filter(np.eye(2), samples.amplitudes)[1].mean() == pytest.approx(1.0, abs=1e-12)
    assert hs_distance(pos, neg) == hs_distance(rho, sigma)


def test_identity_filter_is_exact_on_basis_samples():
    samples = sample_set([basis_state(1, 0), basis_state(1, 1)], [+1, -1])
    pos, neg = transform_ensemble(np.eye(2, dtype=complex), samples)
    np.testing.assert_array_equal(pos.entries, np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(neg.entries, np.diag([0.0, 1.0]))
    np.testing.assert_array_equal(apply_filter(np.eye(2), samples.amplitudes)[1], [1.0, 1.0])


def test_transform_ensemble_class_annihilation():
    # keep branch kills |1>; make the -1 class pure |1>
    keep = np.diag([1.0, 0.0]).astype(complex)
    samples = sample_set([random_state(1, 1), basis_state(1, 1)], [+1, -1])  # -1 is exactly |1>
    with pytest.raises(ClassAnnihilated):
        transform_ensemble(keep, samples)
    with pytest.raises(ClassAnnihilated):
        transform_ensemble(keep, SampleSet(np.zeros((0, 2)), np.zeros(0)))


def test_annihilated_single_sample_is_harmless_if_class_survives():
    keep = np.diag([1.0, 0.0]).astype(complex)
    # the second sample is killed, its class survives
    samples = sample_set([basis_state(1, 0), basis_state(1, 1), random_state(4, 1)], [+1, +1, -1])
    pos, _ = transform_ensemble(keep, samples)
    assert apply_filter(keep, samples.amplitudes)[1][1] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(pos.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_build_ansatz_checks_the_gate_tape_budget(monkeypatch):
    from qfilter import errors
    from qfilter.errors import RegisterTooLarge

    # 1 layer: 3n + 2 gates of GATE_BYTES and 8 arrays of 2**(n+1) x 2**n x 16 B
    build_ansatz(9, 1)  # 8 x 8 MiB
    with pytest.raises(RegisterTooLarge, match="a 10-qubit, 1-layer filter needs 256.01 MiB"):
        build_ansatz(10, 1)
    # 64 MiB of registers leave 192 MiB for 18078 layers of 29 gates
    assert len(build_ansatz(9, 18078).gates) == 18078 * 29
    with pytest.raises(RegisterTooLarge, match="a 9-qubit, 18079-layer filter"):
        build_ansatz(9, 18079)
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 8 * 4 * 2 * 16 + 5 * GATE_BYTES)
    build_ansatz(1, 1)
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 8 * 4 * 2 * 16 + 5 * GATE_BYTES - 1)
    with pytest.raises(RegisterTooLarge, match="budget"):
        build_ansatz(1, 1)


def test_build_ansatz_checks_its_budget_before_repeating_its_layer(monkeypatch):
    """10**12 layers are 5e12 gates: one layer's gate count refuses them."""
    from qfilter import featuremap
    from qfilter.errors import RegisterTooLarge

    built = []
    monkeypatch.setattr(featuremap, "GateSpec", lambda *a: built.append(a))
    with pytest.raises(RegisterTooLarge, match="a 1-qubit, 1000000000000-layer filter"):
        build_ansatz(1, 10**12)
    assert len(built) == 5  # one layer


def test_a_gate_pass_keeps_no_register_per_gate():
    """The tracemalloc peak of kraus_with_pullback() and its pullback grows
    by at most GATE_BYTES per added gate; a tape of gate outputs would add
    a 32 x 16 register, 8 KiB, per gate."""
    import tracemalloc

    peaks = []
    for layers in (20, 200):
        circ = build_ansatz(4, layers)
        theta = np.random.default_rng(layers).uniform(-np.pi, np.pi, circ.n_params)
        x = np.eye(16, dtype=complex)
        tracemalloc.start()
        try:
            _, pullback = kraus_with_pullback(circ, theta)
            pullback(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    added = (200 - 20) * (3 * 4 + 2)
    assert (peaks[1] - peaks[0]) / added <= GATE_BYTES


@pytest.mark.parametrize("kind", ["ansatz", "pca-layer-ring"])
def test_a_deep_pullback_matches_the_shift_rule(kind):
    """Over 1,000+ gates the backward pass uncomputes every gate output from
    the last one; the gradient still matches the dense shift-rule route to
    the roundoff bound of 1e-12 (unit-norm cotangent)."""
    rng = np.random.default_rng(16)
    if kind == "ansatz":
        circ = build_ansatz(2, 130)  # 1040 gates
        gates, n = circ.gates, circ.n_qubits
        cols = np.eye(8, dtype=complex)[:, 0::2]
        theta = rng.uniform(-np.pi, np.pi, circ.n_params)
        _, run_back = kraus_with_pullback(circ, theta)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x /= np.linalg.norm(x)
        y = np.zeros((8, 4), dtype=complex)
        y[0::2] = x.conj().T
        got = run_back(x)
    else:
        spec = EmbeddingSpec("pca-layer", 3, layers=170, ring=True)  # 1020 gates
        theta = rng.uniform(-np.pi, np.pi, spec.param_count())
        xs = rng.uniform(-np.pi, np.pi, (3, 3))
        cols = np.ones((1, 3), dtype=complex)
        for q in range(3):
            kets = np.stack([oracles.rx(v)[:, 0] for v in xs[:, q]], axis=1)
            cols = np.einsum("am,bm->abm", cols, kets).reshape(-1, 3)
        layer = [GateSpec("Ry", (q,)) for q in range(3)]
        layer += [GateSpec("ZZ", p) for p in ((0, 1), (1, 2), (2, 0))]
        gates, n = layer * 170, 3
        y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        y /= np.linalg.norm(y)
        _, run_back = pca_layer_states(xs, EmbeddingSpec("pca-layer", 3, tuple(theta), 170, True))
        got = run_back(y)
    want = oracles.shift_rule_pullback(cols, gates, theta, n)(y)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


_ANSATZ = build_ansatz(1, 1)  # 5 gates


@pytest.mark.parametrize("n_gates, run", [
    (5, lambda t: run_gates(np.eye(4, dtype=complex), _ANSATZ.gates, t)),
    (5, lambda t: circuit_unitary(_ANSATZ, t)),
    (5, lambda t: kraus_with_pullback(_ANSATZ, t)),
    # 2 ring layers of 3 Ry and 3 ZZ gates
    (12, lambda t: pca_layer_states(
        np.zeros((2, 3)), EmbeddingSpec("pca-layer", 3, tuple(t), layers=2, ring=True))),
], ids=["run_gates", "circuit_unitary", "kraus_with_pullback", "pca_layer_states"])
def test_a_gate_list_takes_one_angle_per_gate(n_gates, run):
    """Gate j takes theta[j]: one angle too few or too many raises ParamShapeError."""
    run(np.zeros(n_gates))
    for count in (n_gates - 1, n_gates + 1):
        with pytest.raises(ParamShapeError, match=f"{n_gates} gates take {n_gates} angles"):
            run(np.zeros(count))


def test_feature_map_circuit_zero_theta_shape():
    circ = FeatureMapCircuit(1, build_ansatz(1, 1).gates)
    assert circ.zero_theta().shape == (5,)
    assert circ.n_qubits == 2
