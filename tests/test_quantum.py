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
from qfilter import quantum
from qfilter.quantum import (
    ATOL_INPUT,
    ATOL_INVARIANT,
    GATE_ARITY,
    DensityMatrix,
    GateSpec,
    StateVector,
    UnitaryMatrix,
    apply_channel,
    gate_array,
    hs_distance,
    random_cptp,
    random_state,
    run_gates,
    trace_norm,
)
from qfilter.selftest import raw_random_density


def random_density(seed, n_qubits):
    """A validated full-rank random state from the selftest generator."""
    return DensityMatrix(raw_random_density(seed, 2**n_qubits))


angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False)


@given(angles)
def test_rotation_gates_match_exponential_form(theta):
    for kind in ("Rx", "Ry", "Rz", "ZZ", "CRx"):
        np.testing.assert_allclose(
            gate_array(kind, np.cos(theta / 2), np.sin(theta / 2)),
            oracles.oracle_gate(kind, theta),
            atol=1e-12,
        )


def test_unitary_matrix_validates_unitarity():
    u = UnitaryMatrix(gate_array("Rx", np.cos(0.35), np.sin(0.35)))
    assert u.n_qubits == 1
    with pytest.raises(NormError):
        UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))


def test_unknown_gate_kind_rejected():
    with pytest.raises(UnsupportedGate):
        gate_array("Toffoli", 1.0, 0.0)
    with pytest.raises(UnsupportedGate):
        GateSpec("Toffoli", (0, 1, 2))
    # every gate is a rotation: no fixed gates
    for kind in ("H", "X"):
        with pytest.raises(UnsupportedGate):
            GateSpec(kind, (0,))


def _run(state, *gates, theta=()):
    """Amplitudes after running the gates on one state."""
    cols, _ = run_gates(state.amplitudes.reshape(-1, 1), gates, theta)
    return cols[:, 0]


def test_gate_spec_arity_and_angle_rules():
    with pytest.raises(ShapeError):
        GateSpec("Rx", (0, 1))
    with pytest.raises(ValueError):
        GateSpec("CRx", (1, 1))  # duplicate targets
    # gate j takes theta[j]: Rz(0) is the identity, then Rx(0.4)
    out = _run(basis_state(1, 0), GateSpec("Rz", (0,)), GateSpec("Rx", (0,)), theta=[0.0, 0.4])
    np.testing.assert_allclose(out, oracles.rx(0.4)[:, 0], atol=1e-15)


def test_qubit_zero_is_most_significant():
    # Rx(pi) = -iX on qubit 0 of |00> lands on basis index 2, not 1
    out = _run(basis_state(2, 0), GateSpec("Rx", (0,)), theta=[np.pi])
    np.testing.assert_allclose(out, [0, 0, -1j, 0], atol=1e-15)
    out = _run(basis_state(2, 0), GateSpec("Rx", (1,)), theta=[np.pi])
    np.testing.assert_allclose(out, [0, -1j, 0, 0], atol=1e-15)


def test_crx_control_is_first_target():
    crx = GateSpec("CRx", (0, 1))
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
    k = GATE_ARITY[kind]
    if k > n:
        n = k
    rng = np.random.default_rng(seed)
    targets = tuple(rng.permutation(n)[:k].tolist())
    cols = np.stack([random_state(seed, n).amplitudes, random_state(seed + 1, n).amplitudes], 1)
    spec = GateSpec(kind, targets)
    got, _ = run_gates(cols, [spec], [theta])
    want = oracles.lift(oracles.oracle_gate(kind, theta), targets, n) @ cols
    np.testing.assert_allclose(got, want, atol=1e-12)


def _count_transposes(monkeypatch):
    """Count the gates that take the transposing path (its one np.argsort call)."""
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(quantum.np, "argsort", lambda a: calls.append(1) or argsort(a))
    return calls


def test_adjacent_runs_match_the_lift_without_a_transpose(monkeypatch):
    """A gate on qubits q..q+k-1 (the last qubit included, where the ansatz
    keeps its ancilla) is one broadcast matmul and matches the lifted gate."""
    transposes = _count_transposes(monkeypatch)
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for kind in ("Rx", "Ry", "Rz", "ZZ", "CRx"):
            k = GATE_ARITY[kind]
            for q in range(n - k + 1):
                for tail in (1, 3):
                    theta = rng.uniform(-np.pi, np.pi)
                    cols = rng.standard_normal((2**n, tail)) + 1j * rng.standard_normal((2**n, tail))
                    targets = tuple(range(q, q + k))
                    got, _ = run_gates(cols, [GateSpec(kind, targets)], [theta])
                    want = oracles.lift(oracles.oracle_gate(kind, theta), targets, n) @ cols
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert transposes == []


def test_other_targets_take_the_transposing_path(monkeypatch):
    """--ring's closing ZZ (n-1, 0) and a descending CRx (q+1, q) are not
    ascending runs: each is transposed, and each matches the lifted gate."""
    transposes = _count_transposes(monkeypatch)
    rng = np.random.default_rng(6)
    cases = [(n, "ZZ", (n - 1, 0)) for n in range(3, 6)]
    cases += [(n, "CRx", (q + 1, q)) for n in range(2, 6) for q in range(n - 1)]
    for n, kind, targets in cases:
        for tail in (1, 3):
            theta = rng.uniform(-np.pi, np.pi)
            cols = rng.standard_normal((2**n, tail)) + 1j * rng.standard_normal((2**n, tail))
            got, _ = run_gates(cols, [GateSpec(kind, targets)], [theta])
            want = oracles.lift(oracles.oracle_gate(kind, theta), targets, n) @ cols
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert len(transposes) == 2 * len(cases)


def test_run_gates_rejects_out_of_range_target():
    with pytest.raises(IndexError):
        _run(basis_state(1, 0), GateSpec("Ry", (1,)), theta=[0.0])


def test_run_gates_pullback_matches_finite_differences():
    """Adjoint gradient of 2 Re <Y, run_gates(cols)> for a random cotangent Y.

    The list holds every gate kind, each with its own angle, and the
    non-adjacent ZZ (0, 2) and CRx (2, 0), which take the transposing path.
    """
    from qfilter.training import gradient

    gates = (
        GateSpec("Rx", (0,)),
        GateSpec("Ry", (0,)),
        GateSpec("ZZ", (0, 2)),
        GateSpec("CRx", (1, 2)),
        GateSpec("CRx", (2, 0)),
        GateSpec("Rz", (1,)),
        GateSpec("Rx", (2,)),
    )
    rng = np.random.default_rng(4)
    theta = rng.uniform(-np.pi, np.pi, len(gates))
    cols = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    y = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    out, pullback = run_gates(cols, gates, theta)
    np.testing.assert_allclose(out, oracles.circuit_matrix(gates, theta, 3) @ cols, atol=1e-12)

    def scalar(t):
        return 2 * np.real(np.vdot(y, run_gates(cols, gates, t)[0]))

    kept = out.copy()
    got = pullback(y)
    np.testing.assert_allclose(got, gradient(scalar, theta), rtol=0, atol=1e-8)
    # the backward pass uncomputes a copy: out is left as it was, and a
    # second call gives the same gradient
    assert np.array_equal(out, kept)
    assert np.array_equal(pullback(y), got)


def test_run_gates_backward_pass_skips_the_unused_last_product(monkeypatch):
    """Over L gates the pullback applies L generators and L - 1 adjoint gates:
    the adjoint of the first gate would feed no gradient."""
    calls = []
    apply = quantum._apply_to_columns
    monkeypatch.setattr(quantum, "_apply_to_columns", lambda *a: calls.append(1) or apply(*a))
    rng = np.random.default_rng(8)
    for gates in ([GateSpec("Rx", (0,))], [GateSpec("Ry", (1,)), GateSpec("ZZ", (0, 1))] * 3):
        theta = rng.uniform(-np.pi, np.pi, len(gates))
        _, pullback = run_gates(np.eye(4, dtype=complex)[:, :2], gates, theta)
        calls.clear()
        pullback(np.ones((4, 2), dtype=complex))
        assert len(calls) == 2 * len(gates) - 1


def test_state_vector_helpers():
    s = StateVector(np.array([3.0, 4.0]))
    assert np.linalg.norm(s.amplitudes) == pytest.approx(5.0)
    np.testing.assert_allclose(oracles.probabilities(s), [9.0, 16.0])


def test_basis_states():
    out = basis_state(3, 0b100)
    assert out.n_qubits == 3
    np.testing.assert_allclose(out.amplitudes, np.eye(8)[0b100], atol=0)
    # Rx(pi) = -iX on qubits 0 and 2 of |000> gives -|101>
    flips = _run(
        basis_state(3, 0),
        GateSpec("Rx", (0,)),
        GateSpec("Rx", (2,)),
        theta=[np.pi, np.pi],
    )
    np.testing.assert_allclose(flips, -basis_state(3, 0b101).amplitudes, atol=1e-15)


def test_project_bit_probability_and_renormalization():
    # the post-selection reference the protocol oracles use
    # Ry(pi/2) takes |0> to (|0> + |1>) / sqrt 2, as H does
    amps = _run(basis_state(2, 0), GateSpec("Ry", (0,)), theta=[np.pi / 2])
    kept, p = oracles.project_bit(amps, 0, 2, outcome=1)
    assert p == pytest.approx(0.5)
    np.testing.assert_allclose(kept, [0, 0, 1, 0], atol=1e-15)
    kept, p = oracles.project_bit(amps, 1, 2)
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(kept, amps, atol=0)


def test_density_matrix_validation():
    with pytest.raises(HermiticityError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NormError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(NormError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityMatrix(np.eye(2) / 2)
    assert oracles.overlap(rho, rho) == pytest.approx(0.5)


NON_FINITE = [np.nan, np.inf, -np.inf]


def test_density_matrix_checks_at_their_tolerances():
    """Asymmetry 2e-10 fails, asymmetry exactly ATOL_INVARIANT passes, and a
    NaN or an inf anywhere (symmetric off-diagonal pairs too) fails typed."""
    with pytest.raises(HermiticityError):
        DensityMatrix(np.array([[0.5, 2 * ATOL_INVARIANT], [0.0, 0.5]]))
    DensityMatrix(np.array([[0.5, ATOL_INVARIANT], [0.0, 0.5]]))
    for value in NON_FINITE:
        for cells in ([(0, 0)], [(0, 1)], [(0, 1), (1, 0)]):
            m = np.eye(2, dtype=complex) / 2
            for cell in cells:
                m[cell] = value
            with pytest.raises(HermiticityError):
                DensityMatrix(m)


def test_unitary_matrix_checks_at_their_tolerances():
    """U+U - I off by 2e-10 fails, off by exactly ATOL_INVARIANT passes
    (U = [[1, e], [0, 1]] gives U+U - I = [[0, e], [e, e^2]], e^2 below the
    ulp of 1), and a NaN or an inf fails typed."""
    with pytest.raises(NormError):
        UnitaryMatrix(np.array([[1.0, 2 * ATOL_INVARIANT], [0.0, 1.0]]))
    UnitaryMatrix(np.array([[1.0, ATOL_INVARIANT], [0.0, 1.0]]))
    for value in NON_FINITE:
        for cell in ((0, 0), (0, 1)):
            u = np.eye(2, dtype=complex)
            u[cell] = value
            with pytest.raises(NormError):
                UnitaryMatrix(u)


def test_trace_norm_checks_at_their_tolerances():
    """Asymmetry 2e-8 fails, asymmetry exactly ATOL_INPUT passes, and a NaN
    or an inf anywhere fails typed instead of returning NaN."""
    with pytest.raises(HermiticityError):
        trace_norm(np.array([[0.5, 2 * ATOL_INPUT], [0.0, -0.5]]))
    assert trace_norm(np.array([[0.5, ATOL_INPUT], [0.0, -0.5]])) == pytest.approx(1.0)
    for value in NON_FINITE:
        for cells in ([(0, 0)], [(0, 1)], [(0, 1), (1, 0)]):
            m = np.diag([0.5, -0.5]).astype(complex)
            for cell in cells:
                m[cell] = value
            with pytest.raises(HermiticityError):
                trace_norm(m)


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=5000))
@settings(deadline=None, max_examples=40)
def test_hs_distance_pure_state_closed_form(seed_a, seed_b):
    a = random_state(seed_a, 2)
    b = random_state(seed_b, 2)
    got = hs_distance(oracles.pure_to_density(a), oracles.pure_to_density(b))
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
    assert oracles.overlap(rho, sigma) == pytest.approx(want, abs=1e-12)
    assert oracles.overlap(rho, sigma) == pytest.approx(oracles.overlap(sigma, rho), abs=1e-12)


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
    x = oracles.pure_to_density(a).entries - oracles.pure_to_density(b).entries
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
    assert np.linalg.norm(s1.amplitudes) == pytest.approx(1.0)
    r1 = random_density(42, 2)
    r2 = random_density(42, 2)
    np.testing.assert_array_equal(r1.entries, r2.entries)
    assert np.trace(r1.entries).real == pytest.approx(1.0)
