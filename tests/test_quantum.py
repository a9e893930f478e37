"""Gate conventions, state containers, and the dense linear-algebra helpers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import basis_state
from qfilter.errors import (
    DimError,
    HermiticityError,
    NormError,
    ShapeError,
    UnsupportedGate,
)
from qfilter.quantum import (
    DensityMatrix,
    GateSpec,
    StateVector,
    UnitaryMatrix,
    apply_channel,
    gate_array,
    hs_distance,
    overlap,
    pure_to_density,
    random_cptp,
    random_state,
    run_gates,
    trace_norm,
)
from qfilter.selftest import raw_random_density


def random_density(seed, n_qubits):
    """A validated full-rank random state from the selftest generator."""
    return DensityMatrix(raw_random_density(seed, 2**n_qubits), n_qubits)


angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False)


@given(angles)
def test_rotation_gates_match_exponential_form(theta):
    for kind in ("Rx", "Ry", "Rz", "ZZ", "CRx"):
        np.testing.assert_allclose(
            gate_array(kind, theta), oracles.oracle_gate(kind, theta), atol=1e-12
        )


def test_unitary_matrix_validates_unitarity():
    u = UnitaryMatrix(gate_array("Rx", 0.7), 1)
    assert u.n_qubits == 1
    with pytest.raises(NormError):
        UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex), 1)


def test_unknown_gate_kind_rejected():
    with pytest.raises(UnsupportedGate):
        gate_array("Toffoli", 0.0)
    with pytest.raises(UnsupportedGate):
        GateSpec("Toffoli", (0, 1, 2), param_index=0)
    # every gate is a rotation: no fixed gates
    for kind in ("H", "X"):
        with pytest.raises(UnsupportedGate):
            GateSpec(kind, (0,), param_index=0)


def _run(state, *gates, theta=()):
    """Amplitudes after running the gates on one state."""
    cols, _ = run_gates(state.amplitudes.reshape(-1, 1), gates, theta, state.n_qubits)
    return cols[:, 0]


def test_gate_spec_arity_and_angle_rules():
    with pytest.raises(ShapeError):
        GateSpec("Rx", (0, 1), param_index=0)
    with pytest.raises(ValueError):
        GateSpec("CRx", (1, 1), param_index=0)  # duplicate targets
    with pytest.raises(TypeError):
        GateSpec("Rx", (0,))  # a rotation without its parameter
    # the angle is theta[param_index]
    out = _run(basis_state(1, 0), GateSpec("Rx", (0,), param_index=2), theta=[0.0, 0.0, 0.4])
    np.testing.assert_allclose(out, oracles.rx(0.4)[:, 0], atol=1e-15)


def test_qubit_zero_is_most_significant():
    # Rx(pi) = -iX on qubit 0 of |00> lands on basis index 2, not 1
    out = _run(basis_state(2, 0), GateSpec("Rx", (0,), param_index=0), theta=[np.pi])
    np.testing.assert_allclose(out, [0, 0, -1j, 0], atol=1e-15)
    out = _run(basis_state(2, 0), GateSpec("Rx", (1,), param_index=0), theta=[np.pi])
    np.testing.assert_allclose(out, [0, -1j, 0, 0], atol=1e-15)


def test_crx_control_is_first_target():
    crx = GateSpec("CRx", (0, 1), param_index=0)
    # control |0>: nothing happens to the target
    out = _run(basis_state(2, 0), crx, theta=[np.pi])
    np.testing.assert_allclose(out, [1, 0, 0, 0], atol=1e-15)
    # control |1>: Rx(pi) flips the target up to a phase of -i
    out = _run(basis_state(2, 2), crx, theta=[np.pi])
    np.testing.assert_allclose(out, [0, 0, 0, -1j], atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["Rx", "Ry", "Rz", "ZZ", "CRx"]),
    angles,
    st.integers(min_value=0, max_value=10_000),
)
def test_run_gates_matches_dense_lift(n, kind, theta, seed):
    from qfilter.quantum import GATE_ARITY

    k = GATE_ARITY[kind]
    if k > n:
        n = k
    rng = np.random.default_rng(seed)
    targets = tuple(rng.permutation(n)[:k].tolist())
    cols = np.stack([random_state(seed, n).amplitudes, random_state(seed + 1, n).amplitudes], 1)
    spec = GateSpec(kind, targets, param_index=0)
    got, _ = run_gates(cols, [spec], [theta], n)
    want = oracles.lift(oracles.oracle_gate(kind, theta), targets, n) @ cols
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_run_gates_rejects_out_of_range_target():
    with pytest.raises(IndexError):
        _run(basis_state(1, 0), GateSpec("Ry", (1,), param_index=0), theta=[0.0])


def test_run_gates_pullback_matches_finite_differences():
    """Adjoint gradient of 2 Re <Y, run_gates(cols)> for a random cotangent Y.

    The list holds every gate kind; parameters 0 and 1 each drive two
    gates and parameter 4 none.
    """
    from qfilter.training import gradient

    gates = (
        GateSpec("Rx", (0,), param_index=1),
        GateSpec("Ry", (0,), param_index=0),
        GateSpec("ZZ", (0, 2), param_index=1),
        GateSpec("CRx", (1, 2), param_index=0),
        GateSpec("CRx", (2, 0), param_index=3),
        GateSpec("Rz", (1,), param_index=3),
        GateSpec("Rx", (2,), param_index=2),
    )
    rng = np.random.default_rng(4)
    theta = rng.uniform(-np.pi, np.pi, 5)
    cols = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    out, pullback = run_gates(cols, gates, theta, 3)
    np.testing.assert_allclose(out, oracles.circuit_matrix(gates, theta, 3) @ cols, atol=1e-12)

    def scalar(t):
        return 2 * np.real(np.vdot(y, run_gates(cols, gates, t, 3)[0]))

    got = pullback(y)
    np.testing.assert_allclose(got, gradient(scalar, theta), rtol=0, atol=1e-8)
    assert got[4] == 0.0


def test_state_vector_validation_and_helpers():
    with pytest.raises(DimError):
        StateVector(np.ones(3), 2)
    s = StateVector(np.array([3.0, 4.0]), 1)
    assert s.norm() == pytest.approx(5.0)
    np.testing.assert_allclose(s.probabilities(), [9.0, 16.0])


def test_basis_states():
    out = basis_state(3, 0b100)
    assert out.n_qubits == 3
    np.testing.assert_allclose(out.amplitudes, np.eye(8)[0b100], atol=0)
    # Rx(pi) = -iX on qubits 0 and 2 of |000> gives -|101>
    flips = _run(
        basis_state(3, 0),
        GateSpec("Rx", (0,), param_index=0),
        GateSpec("Rx", (2,), param_index=0),
        theta=[np.pi],
    )
    np.testing.assert_allclose(flips, -basis_state(3, 0b101).amplitudes, atol=1e-15)


def test_project_bit_probability_and_renormalization():
    # the post-selection reference the protocol oracles use
    # Ry(pi/2) takes |0> to (|0> + |1>) / sqrt 2, as H does
    amps = _run(basis_state(2, 0), GateSpec("Ry", (0,), param_index=0), theta=[np.pi / 2])
    kept, p = oracles.project_bit(amps, 0, 2, outcome=1)
    assert p == pytest.approx(0.5)
    np.testing.assert_allclose(kept, [0, 0, 1, 0], atol=1e-15)
    kept, p = oracles.project_bit(amps, 1, 2)
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(kept, amps, atol=0)


def test_density_matrix_validation():
    with pytest.raises(HermiticityError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), 1)
    with pytest.raises(NormError):
        DensityMatrix(np.eye(2), 1)  # trace 2
    with pytest.raises(NormError):
        DensityMatrix(np.diag([1.5, -0.5]), 1)  # negative eigenvalue
    with pytest.raises(DimError):
        DensityMatrix(np.eye(2) / 2, 2)
    rho = DensityMatrix(np.eye(2) / 2, 1)
    assert overlap(rho, rho) == pytest.approx(0.5)


def test_pure_to_density_requires_normalization():
    with pytest.raises(NormError):
        pure_to_density(StateVector(np.array([1.0, 1.0]), 1))
    rho = pure_to_density(StateVector(np.array([0.6, 0.8]), 1))
    assert overlap(rho, rho) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=5000))
@settings(deadline=None, max_examples=40)
def test_hs_distance_pure_state_closed_form(seed_a, seed_b):
    a = random_state(seed_a, 2)
    b = random_state(seed_b, 2)
    got = hs_distance(pure_to_density(a), pure_to_density(b))
    want = 2.0 * (1.0 - abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    assert got == pytest.approx(want, abs=1e-12)


def test_hs_distance_against_trace_oracle(rng):
    rho = random_density(7, 2)
    sigma = random_density(8, 2)
    assert hs_distance(rho, sigma) == pytest.approx(
        oracles.hs(rho.entries, sigma.entries), abs=1e-12
    )
    with pytest.raises(DimError):
        hs_distance(rho, random_density(9, 1))


def test_overlap_is_real_trace_of_product():
    rho = random_density(21, 2)
    sigma = random_density(22, 2)
    want = float(np.real(np.trace(rho.entries @ sigma.entries)))
    assert overlap(rho, sigma) == pytest.approx(want, abs=1e-12)
    assert overlap(rho, sigma) == pytest.approx(overlap(sigma, rho), abs=1e-12)


def test_trace_norm_known_values():
    assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0)
    # difference of orthogonal pure states has trace norm 2
    diff = np.diag([1.0, -1.0])
    assert trace_norm(diff) == pytest.approx(2.0)
    with pytest.raises(HermiticityError):
        trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimError):
        trace_norm(np.ones((2, 3)))


def test_trace_norm_pure_difference_closed_form():
    a = random_state(31, 1)
    b = random_state(32, 1)
    x = pure_to_density(a).entries - pure_to_density(b).entries
    want = 2.0 * np.sqrt(1.0 - abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    assert trace_norm(x) == pytest.approx(want, abs=1e-12)


def test_random_cptp_is_trace_preserving():
    for seed, dim, nk in [(0, 2, 1), (1, 3, 2), (2, 5, 4), (3, 8, 3)]:
        ops = random_cptp(seed, dim, nk)
        acc = sum(a.conj().T @ a for a in ops)
        np.testing.assert_allclose(acc, np.eye(dim), atol=1e-12)


def test_apply_channel_matches_kraus_sum(rng):
    ops = random_cptp(5, 4, 3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = x + x.conj().T
    want = sum(a @ x @ a.conj().T for a in ops)
    np.testing.assert_allclose(apply_channel(ops, x), want, atol=1e-12)
    # trace preserved
    assert np.trace(apply_channel(ops, x)) == pytest.approx(np.trace(x), abs=1e-10)


@given(st.integers(min_value=0, max_value=2000))
@settings(deadline=None, max_examples=50)
def test_contractivity_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    ops = random_cptp(seed, dim, int(rng.integers(1, 5)))
    p1 = float(rng.uniform())
    rho = oracles_random_density(rng, dim)
    sigma = oracles_random_density(rng, dim)
    x = p1 * rho - (1 - p1) * sigma
    assert trace_norm(apply_channel(ops, x)) <= trace_norm(x) + 1e-10


def oracles_random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_random_state_and_density_are_valid_and_seeded():
    s1 = random_state(42, 3)
    s2 = random_state(42, 3)
    np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)
    assert s1.norm() == pytest.approx(1.0)
    r1 = random_density(42, 2)
    r2 = random_density(42, 2)
    np.testing.assert_array_equal(r1.entries, r2.entries)
    assert np.trace(r1.entries).real == pytest.approx(1.0)
