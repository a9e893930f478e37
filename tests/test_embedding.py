"""Encoders, dataset embedding, and the fitted rotation scaling."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import basis_state
from qfilter.embedding import (
    SAMPLE_SET_ARRAYS,
    EmbeddedSample,
    EmbeddingSpec,
    FeatureScaling,
    Pipeline,
    SampleSet,
    embed_dataset,
    embed_rows,
    encode_point,
    encode_rows,
    fit_rotation_scaling,
    pca_layer_states,
)
from qfilter.errors import (
    ClassBalanceError,
    DimError,
    DomainError,
    ParamShapeError,
    ShapeError,
    ZeroVectorError,
)
from qfilter.quantum import GateSpec
from qfilter.training import gradient


def test_amplitude_encode_normalizes_and_pads():
    s = encode_point(np.array([3.0, 4.0]), EmbeddingSpec("amplitude", 1))
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8])
    s = encode_point(np.array([1.0, 1.0, 1.0]), EmbeddingSpec("amplitude", 2))
    np.testing.assert_allclose(s.amplitudes, [1 / math.sqrt(3)] * 3 + [0.0])
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)


def test_amplitude_encode_rejects_bad_input():
    with pytest.raises(DimError):
        encode_point(np.ones(5), EmbeddingSpec("amplitude", 2))
    with pytest.raises(DimError):
        encode_point(np.ones((2, 2)), EmbeddingSpec("amplitude", 2))
    with pytest.raises(ZeroVectorError):
        encode_point(np.zeros(2), EmbeddingSpec("amplitude", 1))
    # finite entries whose norm overflows would encode as the zero vector
    with pytest.raises(DomainError, match="norm"):
        encode_point(np.array([1e308, 1e308]), EmbeddingSpec("amplitude", 1))


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_angle_encode_components(x0):
    s = encode_point(x0, EmbeddingSpec("angle", 1))
    assert s.amplitudes[0].real == pytest.approx(x0, abs=1e-15)
    assert s.amplitudes[1].real == pytest.approx(math.sqrt(1 - x0 * x0), abs=1e-15)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_angle_encode_equals_ry_rotation():
    # Ry(2 acos(x0)) |0> produces the same two real amplitudes
    x0 = 0.3
    want = oracles.ry(2 * math.acos(x0)) @ np.array([1.0, 0.0])
    got = encode_point(x0, EmbeddingSpec("angle", 1)).amplitudes
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_angle_encode_domain():
    with pytest.raises(DomainError):
        encode_point(1.2, EmbeddingSpec("angle", 1))
    with pytest.raises(DomainError):
        encode_point(-1.0001, EmbeddingSpec("angle", 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "spec",
    [EmbeddingSpec("angle", 1), EmbeddingSpec("pca-layer", 2, params=(0.0,) * 3)],
    ids=["angle", "pca-layer"],
)
def test_a_non_finite_row_is_refused_before_any_encoder(spec, bad):
    """A NaN passes angle's |x0| <= 1 test and pca-layer's cos/sin would put
    it in the state, so encode_rows() refuses the row itself."""
    with pytest.raises(DomainError, match="row 1: it holds a NaN or an infinity"):
        embed_rows(np.array([[0.1, 0.2], [bad, 0.3]]), np.array([1, -1]), spec)
    with pytest.raises(DomainError, match="row 0: it holds a NaN or an infinity"):
        encode_point(np.array([0.5, bad]), spec)


def test_embedding_spec_validation():
    with pytest.raises(ValueError):
        EmbeddingSpec("fourier", 1)
    with pytest.raises(DimError):
        EmbeddingSpec("angle", 2)
    with pytest.raises(DimError):
        EmbeddingSpec("amplitude", 0)
    # a saved model's counts and flag must have their JSON types
    for kwargs in ({"n_qubits": 2.0}, {"n_qubits": True}, {"layers": "2"}, {"layers": 2.0},
                   {"layers": True}, {"ring": "yes"}, {"ring": 1}):
        with pytest.raises(TypeError):
            EmbeddingSpec("pca-layer", **{"n_qubits": 2, **kwargs})
    with pytest.raises(ValueError, match="layers must be >= 0"):
        EmbeddingSpec("pca-layer", 2, layers=-1)


def test_pca_layer_param_count_chain_and_ring():
    assert EmbeddingSpec("amplitude", 2).param_count() == 0
    assert EmbeddingSpec("pca-layer", 1, params=(0.0,)).param_count() == 1
    # chain: n Ry + (n-1) ZZ per layer
    assert EmbeddingSpec("pca-layer", 3, params=(0.0,) * 5).param_count() == 5
    assert (
        EmbeddingSpec("pca-layer", 3, params=(0.0,) * 10, layers=2).param_count() == 10
    )
    # ring adds the wrap-around coupler only for 3+ qubits
    assert EmbeddingSpec("pca-layer", 3, ring=True).param_count() == 6
    assert EmbeddingSpec("pca-layer", 2, ring=True).param_count() == 3


def test_pca_layer_encode_matches_gate_sequence():
    spec = EmbeddingSpec("pca-layer", 2, params=(0.3, -0.4, 0.9))
    x = np.array([0.7, -1.1])
    got = encode_point(x, spec).amplitudes
    want = np.array([1, 0, 0, 0], dtype=complex)
    want = oracles.lift(oracles.rx(0.7), (0,), 2) @ want
    want = oracles.lift(oracles.rx(-1.1), (1,), 2) @ want
    want = oracles.lift(oracles.ry(0.3), (0,), 2) @ want
    want = oracles.lift(oracles.ry(-0.4), (1,), 2) @ want
    want = oracles.lift(oracles.zz(0.9), (0, 1), 2) @ want
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pca_layer_ring_closes_the_loop():
    n = 3
    spec = EmbeddingSpec("pca-layer", n, params=tuple(np.linspace(0.1, 0.6, 6)), ring=True)
    x = np.array([0.2, 0.4, 0.6])
    got = encode_point(x, spec).amplitudes
    want = np.eye(8, dtype=complex)[:, 0]
    for q in range(n):
        want = oracles.lift(oracles.rx(x[q]), (q,), n) @ want
    theta = np.linspace(0.1, 0.6, 6)
    for q in range(n):
        want = oracles.lift(oracles.ry(theta[q]), (q,), n) @ want
    for i, pair in enumerate([(0, 1), (1, 2), (2, 0)]):
        want = oracles.lift(oracles.zz(theta[n + i]), pair, n) @ want
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize(
    "k,layers,ring",
    [(1, 1, False), (2, 2, False), (2, 1, True), (3, 1, True), (3, 2, True), (4, 2, False)],
)
def test_pca_layer_encode_matches_gate_by_gate_oracle(k, layers, ring):
    """Rx loading, then per layer Ry on every qubit and the ZZ couplers."""
    rng = np.random.default_rng(10 * k + layers)
    count = EmbeddingSpec("pca-layer", k, layers=layers, ring=ring).param_count()
    theta = rng.uniform(-np.pi, np.pi, count)
    spec = EmbeddingSpec("pca-layer", k, tuple(theta), layers, ring)
    xs = rng.uniform(-np.pi, np.pi, (3, k))
    pairs = [(q, q + 1) for q in range(k - 1)] + ([(k - 1, 0)] if ring and k > 2 else [])
    gates = [("Ry", (q,)) for q in range(k)] + [("ZZ", pair) for pair in pairs]
    cols, _ = pca_layer_states(xs, spec)
    for m, x in enumerate(xs):
        want = basis_state(k, 0).amplitudes
        for q in range(k):
            want = oracles.lift(oracles.oracle_gate("Rx", x[q]), (q,), k) @ want
        for i, (kind, targets) in enumerate(gates * layers):
            want = oracles.lift(oracles.oracle_gate(kind, theta[i]), targets, k) @ want
        np.testing.assert_allclose(encode_point(x, spec).amplitudes, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cols[:, m], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k,layers", [(3, 1), (3, 2), (4, 2)])
def test_pca_layer_ring_pullback_matches_the_shift_rule(k, layers):
    """The embedding pullback with --ring's closing ZZ (k-1, 0), which takes
    the transposing path, against the shift rule and finite differences."""
    rng = np.random.default_rng(k + 10 * layers)
    count = EmbeddingSpec("pca-layer", k, layers=layers, ring=True).param_count()
    theta = rng.uniform(-np.pi, np.pi, count)
    xs = rng.uniform(-np.pi, np.pi, (3, k))

    def states(t):
        return pca_layer_states(xs, EmbeddingSpec("pca-layer", k, tuple(t), layers, True))

    y = rng.standard_normal((2**k, 3)) + 1j * rng.standard_normal((2**k, 3))
    y /= np.linalg.norm(y)
    got = states(theta)[1](y)

    loaded = np.ones((1, 3), dtype=complex)
    for q in range(k):
        kets = np.stack([oracles.rx(x)[:, 0] for x in xs[:, q]], axis=1)
        loaded = np.einsum("am,bm->abm", loaded, kets).reshape(-1, 3)
    pairs = [(q, q + 1) for q in range(k - 1)] + [(k - 1, 0)]
    layer = [("Ry", (q,)) for q in range(k)] + [("ZZ", pair) for pair in pairs]
    gates = [GateSpec(kind, t) for kind, t in layer * layers]
    want = oracles.shift_rule_pullback(loaded, gates, theta, k)(y)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def scalar(t):
        return 2 * np.real(np.vdot(y, states(t)[0]))

    np.testing.assert_allclose(got, gradient(scalar, theta), rtol=0, atol=1e-8)


def test_pca_layer_identity_at_zero_angles():
    spec = EmbeddingSpec("pca-layer", 2, params=(0.0, 0.0, 0.0))
    got = encode_point(np.zeros(2), spec)
    np.testing.assert_allclose(got.amplitudes, basis_state(2, 0).amplitudes, atol=1e-15)


def test_pca_layer_rejects_bad_shapes():
    spec = EmbeddingSpec("pca-layer", 2, params=(0.0, 0.0, 0.0))
    with pytest.raises(DimError):
        encode_point(np.zeros(3), spec)
    with pytest.raises(ParamShapeError):
        encode_point(np.zeros(2), EmbeddingSpec("pca-layer", 2, params=(0.0,)))


def test_encode_point_dispatch():
    np.testing.assert_allclose(
        encode_point(np.array([0.5, 9.9]), EmbeddingSpec("angle", 1)).amplitudes,
        [0.5, math.sqrt(0.75)],  # angle reads the first feature only
    )
    np.testing.assert_allclose(
        encode_point(np.array([1.0, 1.0]), EmbeddingSpec("amplitude", 1)).amplitudes,
        [1 / math.sqrt(2)] * 2,
    )


def test_batched_embedding_equals_the_per_point_encoding():
    """One batch gives every row the bits of its own encoding: the norm is
    the one np.linalg.norm forms, x0 and sqrt(1 - x0^2) are exact."""
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((41, 3)) * 10.0 ** rng.integers(-6, 6, (41, 1))
    data = [(x, (-1) ** m) for m, x in enumerate(xs)]
    spec = EmbeddingSpec("amplitude", 2)
    batch = embed_dataset(data, spec)
    for x, sample in zip(xs, batch):
        want = np.zeros(4, dtype=complex)
        want[:3] = x / np.linalg.norm(x)
        assert np.array_equal(sample.state.amplitudes, want)
        assert np.array_equal(encode_point(x, spec).amplitudes, want)
    x0 = rng.uniform(-1, 1, (41, 2))
    batch = embed_dataset([(x, (-1) ** m) for m, x in enumerate(x0)], EmbeddingSpec("angle", 1))
    for x, sample in zip(x0, batch):
        want = np.array([x[0], np.sqrt(1.0 - x[0] * x[0])], dtype=complex)
        assert np.array_equal(sample.state.amplitudes, want)
        assert np.array_equal(encode_point(x, EmbeddingSpec("angle", 1)).amplitudes, want)


def test_batched_embedding_raises_the_first_bad_row_error():
    spec = EmbeddingSpec("amplitude", 1)
    rows = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2), np.array([1e308, 1e308])]
    data = [(x, (-1) ** m) for m, x in enumerate(rows)]
    with pytest.raises(ZeroVectorError):
        embed_dataset(data, spec)
    with pytest.raises(DomainError, match="norm of the input is inf"):
        embed_dataset(data[:2] + data[3:] + data[2:3], spec)
    with pytest.raises(DimError):
        embed_dataset([(np.ones(3), 1), (np.ones(3), -1)], spec)
    with pytest.raises(DimError, match="one width"):
        embed_dataset([(np.ones(2), 1), (np.ones(1), -1)], spec)
    with pytest.raises(DomainError, match="got 1.5"):
        embed_dataset([(np.array([0.5]), 1), (np.array([1.5]), -1)], EmbeddingSpec("angle", 1))


def test_embed_dataset_preserves_order_and_labels():
    data = [
        (np.array([1.0, 0.0]), +1),
        (np.array([0.0, 1.0]), -1),
        (np.array([1.0, 1.0]), +1),
    ]
    samples = embed_dataset(data, EmbeddingSpec("amplitude", 1))
    assert [s.label for s in samples] == [+1, -1, +1]
    np.testing.assert_allclose(samples[2].state.amplitudes, [1, 1] / np.sqrt(2))


def test_embed_dataset_requires_both_classes():
    lonely = [(np.array([1.0, 0.0]), +1), (np.array([0.0, 1.0]), +1)]
    with pytest.raises(ClassBalanceError):
        embed_dataset(lonely, EmbeddingSpec("amplitude", 1))
    with pytest.raises(ClassBalanceError):
        embed_dataset([(np.array([1.0]), 2)], EmbeddingSpec("amplitude", 1))


def test_embedded_sample_label_validation():
    """A set's labels are +1 or -1, checked once for the whole set; one class is a set."""
    for bad in (0, 2):
        with pytest.raises(ValueError, match=f"label must be \\+1 or -1, got {bad}"):
            SampleSet(np.eye(2), np.array([+1, bad]))
    assert SampleSet(np.eye(2), np.array([-1, -1])).labels.tolist() == [-1, -1]


@pytest.mark.parametrize("amplitudes, labels, error", [
    (np.ones(2), np.array([1]), DimError),
    (np.ones((1, 2, 2)), np.array([1]), DimError),
    (np.ones((2, 3)), np.array([1, -1]), DimError),
    (np.ones((2, 0)), np.array([1, -1]), DimError),
    (np.ones((2, 2)), np.array([1, -1, 1]), ShapeError),
    (np.ones((2, 2)), np.array([[1, -1]]), ShapeError),
], ids=["1-D", "3-D", "width-3", "width-0", "more-labels", "2-D-labels"])
def test_sample_set_refuses_a_shape_that_is_not_m_rows_of_2_to_the_n(amplitudes, labels, error):
    with pytest.raises(error):
        SampleSet(amplitudes, labels)


@pytest.mark.parametrize("spec", [
    EmbeddingSpec("amplitude", 2),
    EmbeddingSpec("angle", 1),
    EmbeddingSpec("pca-layer", 2, params=(0.3, -0.2, 0.5)),
], ids=lambda spec: spec.kind)
def test_a_row_of_the_set_is_the_embedded_sample_of_its_point(spec):
    """set[m] is the EmbeddedSample of row m of the batch, the pairs route
    gives the same set, and the set's size comes from its array."""
    rng = np.random.default_rng(5)
    xs, labels = rng.uniform(-1, 1, (7, 2)), np.array([+1, -1, -1, +1, -1, +1, +1])
    samples = embed_rows(xs, labels, spec)
    pairs = embed_dataset(list(zip(xs, labels.tolist())), spec)
    assert np.array_equal(pairs.amplitudes, samples.amplitudes)
    assert np.array_equal(pairs.labels, samples.labels)
    assert (len(samples), samples.n_qubits) == (7, spec.n_qubits)
    for m, (psi, y) in enumerate(zip(encode_rows(xs, spec), labels.tolist())):
        row = samples[m]
        assert isinstance(row, EmbeddedSample) and type(row.label) is int
        assert row.label == y
        assert np.array_equal(row.state.amplitudes, psi)
    assert [s.label for s in samples] == labels.tolist()


def test_pipeline_samples_peak_within_the_counted_arrays():
    """Pipeline.samples() on 100,000 one-qubit rows peaks within the
    SAMPLE_SET_ARRAYS amplitude-sized arrays the budget counts; an object of
    a few hundred bytes per row would not fit."""
    blobs = {"kind": "blobs", "seed": 0, "per_class": 50_000, "dims": 2, "separation": 2.0}
    pipe = Pipeline.fit(blobs, "amplitude")
    tracemalloc.start()
    try:
        samples = pipe.samples()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.amplitudes.shape == (100_000, 2)
    assert peak <= SAMPLE_SET_ARRAYS * 100_000 * 2 * 16


def test_fit_rotation_scaling_maps_train_range_into_pi():
    feats = np.array([[0.0, 10.0], [2.0, 20.0], [4.0, 60.0]])
    scaling = fit_rotation_scaling(feats)
    mapped = scaling.apply(feats)
    np.testing.assert_allclose(mapped.mean(axis=0)[0], 0.0, atol=1e-12)
    assert np.abs(mapped).max() <= np.pi + 1e-12
    assert np.abs(mapped).max() == pytest.approx(np.pi)
    # the same affine map applies verbatim to unseen points
    np.testing.assert_allclose(
        scaling.apply(np.array([[6.0, 30.0]]))[0][0], (6.0 - 2.0) * np.pi / 2.0
    )


def test_fit_rotation_scaling_constant_column_guard():
    feats = np.array([[5.0, 1.0], [5.0, 3.0]])
    scaling = fit_rotation_scaling(feats)
    mapped = scaling.apply(feats)
    np.testing.assert_allclose(mapped[:, 0], [0.0, 0.0], atol=1e-12)
    assert np.all(np.isfinite(mapped))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_rotation_scaling_bounds_random_data(seed):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((6, 3)) * rng.uniform(0.1, 50)
    scaling = fit_rotation_scaling(feats)
    assert np.abs(scaling.apply(feats)).max() <= np.pi + 1e-9


def test_feature_scaling_roundtrips_tuple_fields():
    s = FeatureScaling((1.0, 2.0), (0.5, 2.0))
    np.testing.assert_allclose(s.apply(np.array([[3.0, 3.0]])), [[1.0, 2.0]])
