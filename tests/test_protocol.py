"""Register layouts, state preparation, and the swap-test circuits."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import basis_state, sample_set
from qfilter import protocol
from qfilter.errors import ClassAnnihilated, DimError, NormError, ParamShapeError
from qfilter.featuremap import apply_filter, build_ansatz, kraus_from_circuit, transform_ensemble
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
from qfilter.quantum import StateVector, hs_distance, random_state


def _samples(seed, m=2, n=1):
    labels = [+1, -1] + [(-1) ** j for j in range(m - 2)]
    return sample_set([random_state(seed * 77 + j, n) for j in range(m)], labels)


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
    samples = sample_set([basis_state(1, 0), basis_state(1, 1)], [+1, -1])
    state = prepare_classifier_state(samples, basis_state(1, 1))
    # registers: index(1) train(1) label(1) test(1)
    assert state.n_qubits == 4
    want = np.zeros(16, dtype=complex)
    # branch m=0: |0>|0>|0>|1>  -> index 0b0001
    want[0b0001] = 1 / math.sqrt(2)
    # branch m=1: |1>|1>|1>|1>  -> index 0b1111
    want[0b1111] = 1 / math.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, want, atol=1e-15)


def test_prepare_classifier_state_checks_sizes():
    samples = sample_set([basis_state(1, 0), basis_state(1, 1)], [+1, -1])
    with pytest.raises(DimError):
        prepare_classifier_state(sample_set([basis_state(1, 0)], [+1]), basis_state(1, 0))
    with pytest.raises(DimError):
        prepare_classifier_state(samples, basis_state(2, 0))


@pytest.mark.parametrize("bad", [3.0, 1e200, math.nan, math.inf])
def test_a_test_state_off_unit_norm_raises_the_same_error_on_both_paths(bad):
    """The circuit path refuses the test state before it builds a register,
    with the NormError of the analytic path."""
    samples, ansatz = _samples(3), build_ansatz(1, 1)
    theta = np.linspace(0.2, 1.0, ansatz.n_params)
    k = kraus_from_circuit(ansatz, theta)
    test = StateVector(np.array([bad, 0.0]))
    with pytest.raises(NormError, match="state norm") as analytic:
        filtered_fidelity_classify(transform_ensemble(k, samples), k, test)
    with pytest.raises(NormError, match="state norm") as circuit:
        run_classifier_protocol(samples, test, ansatz, theta)
    assert str(circuit.value) == str(analytic.value)


def test_prepare_risk_state_amplitudes():
    samples = sample_set([basis_state(1, 0), basis_state(1, 1)], [+1, -1])
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
    probs = oracles.probabilities(state).reshape(4, 4).sum(axis=1)
    np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)


def test_apply_feature_maps_postselect_matches_kraus_probability():
    samples = _samples(11, m=2, n=1)
    test = random_state(13, 1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(12).uniform(-np.pi, np.pi, circ.n_params)
    half = protocol._half_columns(circ, theta)
    v = oracles.circuit_matrix(circ.gates, theta, 2)
    keep = kraus_from_circuit(circ, theta)
    # p of the training register is the mean p_s of its samples; of the test register, p_s(test)
    p_s = [np.linalg.norm(keep @ x) ** 2 for x in [s.state.amplitudes for s in samples]]
    want_p = (np.mean(p_s), np.linalg.norm(keep @ test.amplitudes) ** 2)
    state = prepare_classifier_state(samples, test)  # [index | train | label | test]
    for data, p_s_register in zip(((1,), (3,)), want_p):
        out, p = apply_feature_maps_postselect(state, half, data)
        assert out.n_qubits == state.n_qubits  # the ancilla never joins the register
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(p_s_register, abs=1e-12)
        # independent dense simulation with the ancilla appended in |0>
        n = state.n_qubits + 1
        amps = oracles.lift(v, data + (n - 1,), n) @ np.kron(state.amplitudes, [1, 0])
        amps, dense_p = oracles.project_bit(amps, n - 1, n)
        assert p == pytest.approx(dense_p, abs=1e-12)
        np.testing.assert_allclose(amps.reshape(-1, 2)[:, 1], 0.0, atol=0)
        np.testing.assert_allclose(out.amplitudes, amps.reshape(-1, 2)[:, 0], atol=1e-10)
        state = out


def test_apply_feature_maps_postselect_checks_the_register():
    samples = _samples(14, m=2, n=1)
    base = prepare_classifier_state(samples, random_state(15, 1))  # 4 qubits
    half = protocol._half_columns(build_ansatz(1, 1), build_ansatz(1, 1).zero_theta())
    for data in ((), (1, 2), (-1,), (4,)):
        with pytest.raises(DimError):
            apply_feature_maps_postselect(base, half, data)
    wide = build_ansatz(2, 1)
    wide_half = protocol._half_columns(wide, wide.zero_theta())
    for data in ((1, 3), (3, 4)):  # not a run; past the register
        with pytest.raises(DimError):
            apply_feature_maps_postselect(base, wide_half, data)
    with pytest.raises(ParamShapeError):
        protocol._half_columns(wide, np.zeros(3))


def test_apply_feature_maps_postselect_annihilation():
    # Rx(pi) on the ancilla takes it to -i|1> always: the keep branch has
    # probability cos(pi/2)**2, zero up to roundoff, so the training
    # register loses a class before the test register is read
    from qfilter.quantum import GateSpec
    from qfilter.featuremap import FeatureMapCircuit

    circ = FeatureMapCircuit(1, (GateSpec("Rx", (1,)),))
    samples = sample_set([basis_state(1, 0), basis_state(1, 1)], [+1, -1])
    with pytest.raises(ClassAnnihilated):
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
        p_post, joint, value = oracles.classifier_protocol_oracle(
            [s.state.amplitudes for s in samples],
            [s.label for s in samples],
            test.amplitudes,
            v,
            1,
        )
        assert got.p_postselect == pytest.approx(p_post, abs=1e-10)
        np.testing.assert_allclose(got.joint, joint, atol=1e-10)
        assert got.derived_value == pytest.approx(value, abs=1e-9)


def test_risk_protocol_against_dense_oracle():
    samples = _samples(21, m=2, n=1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(22).uniform(-np.pi, np.pi, circ.n_params)
    got = run_risk_protocol(samples, circ, theta)
    v = oracles.circuit_matrix(circ.gates, theta, 2)
    p_post, joint, value = oracles.risk_protocol_oracle(
        [s.state.amplitudes for s in samples],
        [s.label for s in samples],
        v,
        1,
    )
    assert got.p_postselect == pytest.approx(p_post, abs=1e-10)
    np.testing.assert_allclose(got.joint, joint, atol=1e-10)
    assert got.derived_value == pytest.approx(value, abs=1e-9)


def _filter_in_place(state, circ, theta, registers):
    """Post-select each data register of one prepared register, in place."""
    half = protocol._half_columns(circ, theta)
    p_registers = []
    for data in registers:
        state, p = apply_feature_maps_postselect(state, half, data)
        p_registers.append(p)
    return state.amplitudes, tuple(p_registers)


@pytest.mark.parametrize("m, n", [(2, 1), (5, 2), (40, 2)])
def test_classifier_protocol_equals_filtering_both_registers_in_place(m, n):
    # run_classifier_protocol filters the training copy and the test register
    # apart; post-selecting both in the prepared joint register must agree
    samples = _samples(83, m=m, n=n)
    test = random_state(84, n)
    circ = build_ansatz(n, 1)
    theta = np.random.default_rng(85).uniform(-np.pi, np.pi, circ.n_params)
    nl = index_register_width(m)
    train_q, test_q = tuple(range(nl, nl + n)), tuple(range(nl + n + 1, nl + 2 * n + 1))
    prepared = prepare_classifier_state(samples, test)  # [index | train | label | test]
    amps, p_registers = _filter_in_place(prepared, circ, theta, (train_q, test_q))
    got = run_classifier_protocol(samples, test, circ, theta)
    assert got.p_registers == pytest.approx(p_registers, abs=1e-12)
    assert got.p_postselect == pytest.approx(p_registers[0] * p_registers[1], abs=1e-12)
    want = oracles.swap_table_oracle(amps.reshape(2**nl, 2**n, 2, 2**n), 1, 3, (2,))
    np.testing.assert_allclose(got.joint, want, atol=1e-12)


@pytest.mark.parametrize("m, n", [(2, 1), (5, 2), (40, 2)])
def test_risk_protocol_equals_filtering_both_copies_in_place(m, n):
    # run_risk_protocol filters one copy and pairs it with itself;
    # post-selecting each copy of the prepared two-copy register must agree
    samples = _samples(81, m=m, n=n)
    circ = build_ansatz(n, 1)
    theta = np.random.default_rng(82).uniform(-np.pi, np.pi, circ.n_params)
    layout = risk_layout(m, n)
    one = prepare_risk_state(samples).amplitudes
    two = StateVector(np.multiply.outer(one, one).ravel())
    amps, p_registers = _filter_in_place(two, circ, theta, layout.data)
    got = run_risk_protocol(samples, circ, theta)
    assert got.p_registers == pytest.approx(p_registers, abs=1e-12)
    assert got.p_postselect == pytest.approx(p_registers[0] * p_registers[1], abs=1e-12)
    assert got.p_registers[0] == got.p_registers[1]
    nl = index_register_width(m)
    tensor = amps.reshape(2**nl, 2**n, 2, 2**nl, 2**n, 2)
    want = oracles.swap_table_oracle(tensor, 1, 4, (2, 5))
    np.testing.assert_allclose(got.joint, want, atol=1e-12)


@pytest.mark.parametrize("shape, a, b, label_axes", [
    ((2, 8, 4, 4), 2, 3, (0,)),                 # classifier pair, labels leading
    ((2, 2, 8, 4, 8, 4), 3, 5, (0, 1)),         # risk pair, labels leading
], ids=["classifier-label-major", "risk-label-major"])
def test_swap_table_matches_the_strided_sum_oracle(shape, a, b, label_axes):
    rng = np.random.default_rng(len(shape) + label_axes[0])
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t /= np.linalg.norm(t)
    want = oracles.swap_table_oracle(t, a, b, label_axes)
    for axes in ((a, b), (b, a)):
        got = protocol._swap_table(t, *axes, len(label_axes))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_risk_readout_holds_the_pair_and_one_label_cell():
    """The 18-qubit risk pair (M = 40, n = 2) peaks under 1.5 arrays of its size:
    the pair, one cell-sized swapped copy and the small filtered copy."""
    import tracemalloc

    samples = _samples(91, m=40, n=2)
    circ = build_ansatz(2, 1)
    theta = np.random.default_rng(92).uniform(-np.pi, np.pi, circ.n_params)
    pair_bytes = 2 ** (2 * (index_register_width(40) + 2 + 1)) * 16
    run_risk_protocol(samples, circ, theta)  # warm caches outside the trace
    tracemalloc.start()
    try:
        run_risk_protocol(samples, circ, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * pair_bytes, f"peak {peak / pair_bytes:.2f} pair-sized arrays"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_joint_tables_have_the_closed_form_of_the_analytic_path(m, n):
    """Both swap tables, cell by cell, from the filtered states and class shares.

    With P+- each class's share of the filtered mass, the classifier table
    is P_l (1 +- tr[rho'_l t']) / 2 and the risk table P_a P_b (1 +- tr[rho'_a rho'_b]) / 2.
    """
    samples = _samples(101 + 10 * m + n, m=m, n=n)
    test = random_state(102 + 10 * m + n, n)
    circ = build_ansatz(n, 2)
    theta = np.random.default_rng(103 + 10 * m + n).uniform(-np.pi, np.pi, circ.n_params)
    k = kraus_from_circuit(circ, theta)
    pos, neg = transform_ensemble(k, samples)
    t, _ = oracles.filter_state(k, np.outer(test.amplitudes, test.amplitudes.conj()))
    labels = np.array([s.label for s in samples])
    p_s = apply_filter(k, samples.amplitudes)[1]
    shares = np.array([p_s[labels == y].sum() for y in (+1, -1)]) / p_s.sum()
    rhos = [pos.entries, neg.entries]
    swap = np.array([1.0, -1.0])

    overlaps = np.array([np.trace(r @ t).real for r in rhos])
    want = shares[:, None] * (1 + swap * overlaps[:, None]) / 2
    got = run_classifier_protocol(samples, test, circ, theta).joint
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    overlaps = np.array([[np.trace(ra @ rb).real for rb in rhos] for ra in rhos]).ravel()
    want = np.outer(shares, shares).ravel()[:, None] * (1 + swap * overlaps[:, None]) / 2
    got = run_risk_protocol(samples, circ, theta).joint
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 5, 40])
def test_protocol_matches_analytic_path(m, n):
    samples = _samples(31, m=m, n=n)
    test = random_state(32, n)
    circ = build_ansatz(n, 1)
    theta = np.random.default_rng(33).uniform(-np.pi, np.pi, circ.n_params)
    k = kraus_from_circuit(circ, theta)
    states = transform_ensemble(k, samples)
    analytic = filtered_fidelity_classify(states, k, test)
    p_succ = apply_filter(k, samples.amplitudes)[1].mean()

    cls = run_classifier_protocol(samples, test, circ, theta)
    assert cls.derived_value == pytest.approx(analytic.value, abs=1e-9)
    assert cls.p_postselect == pytest.approx(p_succ * analytic.p_s_test, abs=1e-10)

    rsk = run_risk_protocol(samples, circ, theta)
    assert rsk.derived_value == pytest.approx(hs_distance(*states), abs=1e-9)
    assert rsk.p_postselect == pytest.approx(p_succ**2, abs=1e-10)


def test_protocols_use_no_analytic_route(monkeypatch):
    from qfilter import classifier, featuremap, protocol, quantum

    samples = _samples(61, m=3, n=1)
    test = random_state(62, 1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(63).uniform(-np.pi, np.pi, circ.n_params)

    def forbidden(*args, **kwargs):
        raise AssertionError("the register-level twin took an analytic route")

    for module, names in (
        (featuremap, ("kraus_from_circuit", "kraus_with_pullback", "filter_moments",
                      "transform_ensemble", "apply_filter")),
        (classifier, ("classify_rows",)),
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
        p_post, joint, value = want
        assert got.p_postselect == pytest.approx(p_post, abs=1e-10)
        np.testing.assert_allclose(got.joint, joint, atol=1e-10)
        assert got.derived_value == pytest.approx(value, abs=1e-9)


def test_register_budget_is_checked_before_allocating(monkeypatch):
    from qfilter import errors
    from qfilter.errors import RegisterTooLarge

    samples = _samples(71, m=2, n=1)
    test = random_state(72, 1)
    circ = build_ansatz(1, 1)
    theta = circ.zero_theta()
    half = protocol._half_columns(circ, theta)
    # classifier register 4 qubits, risk register 6: buffers of 2**5 and 2**7 amplitudes
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 2**5 * 16)
    run_classifier_protocol(samples, test, circ, theta)
    with pytest.raises(RegisterTooLarge, match="a 6-qubit register"):
        run_risk_protocol(samples, circ, theta)
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 2**5 * 16 - 1)
    with pytest.raises(RegisterTooLarge):
        prepare_classifier_state(samples, test)
    with pytest.raises(RegisterTooLarge):
        apply_feature_maps_postselect(StateVector(np.eye(16)[0]), half, (1,))

    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(protocol, "prepare_risk_state", forbidden)
    monkeypatch.setattr(protocol, "circuit_unitary", forbidden)
    with pytest.raises(RegisterTooLarge, match="a 4-qubit register"):
        run_classifier_protocol(samples, test, circ, theta)
    with pytest.raises(RegisterTooLarge, match="a 6-qubit register"):
        run_risk_protocol(samples, circ, theta)


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
    circ = FeatureMapCircuit(1, (GateSpec("CRx", (0, 1)),))
    samples = sample_set([basis_state(1, 0), basis_state(1, 1)], [+1, -1])
    with pytest.raises(ClassAnnihilated):
        run_classifier_protocol(samples, basis_state(1, 0), circ, np.array([math.pi]))


def test_protocol_outcome_validation():
    even = np.ones((2, 2)) / 4
    assert [f.name for f in dataclasses.fields(ProtocolOutcome)] == ["p_registers", "joint"]
    for shape in ((4,), (2, 3), (1, 2, 2)):
        with pytest.raises(DimError):
            ProtocolOutcome((0.5,), np.full(shape, 1 / 4))
    with pytest.raises(ValueError, match="sum to"):
        ProtocolOutcome((0.5,), np.array([[0.35, 0.35], [0.35, 0.35]]))
    for p_registers in ((1.5,), (0.5, 1.5), (-0.1, 0.5), (math.nan, 0.5), (0.5, math.inf)):
        with pytest.raises(ValueError):
            ProtocolOutcome(p_registers, even)
    for row in ([math.nan, 0.5], [math.nan, math.nan], [math.inf, 0.0]):
        with pytest.raises(ValueError):
            ProtocolOutcome((0.5,), np.array([row, [0.25, 0.25]]))
    # the range check allows the same 1e-9 of roundoff on each register
    edge = ProtocolOutcome((1 + 1e-9, -1e-9), even)
    assert edge.p_postselect == (1 + 1e-9) * -1e-9
    # a zero row is a sampled cell never drawn: its conditional is 0/0
    out = ProtocolOutcome((0.5, 0.25), np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert math.isnan(out.derived_value)
    assert out.p_postselect == 0.125


def test_protocol_outcome_checks_every_probability_range():
    """A table that sums to 1 is still rejected when an entry leaves [0, 1]."""
    with pytest.raises(ValueError, match="joint probabilities"):
        ProtocolOutcome((0.5,), np.array([[1.5, -0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="joint probabilities"):
        ProtocolOutcome((0.5,), np.array([[0.75, 0.75], [-0.25, -0.25]]))
    # each entry allows 1e-9 of roundoff, and a zero row is still an undrawn cell
    edge = ProtocolOutcome((0.5,), np.array([[1 + 1e-9, -1e-9], [0.0, 0.0]]))
    assert math.isnan(edge.derived_value)


def _swap_tables(rows):
    """A normalized joint swap table with no empty row.

    A swap test of two states never favours outcome 1, so each row's
    p(S=0) is at least its p(S=1).
    """
    joint = st.lists(st.floats(0.0, 1.0), min_size=2 * rows, max_size=2 * rows).map(
        lambda v: -np.sort(-np.array(v).reshape(rows, 2), axis=1)
    ).filter(lambda j: j.sum() > 0)
    return joint.map(lambda j: j / j.sum()).filter(lambda j: (j.sum(axis=1) > 0).all())


@given(st.sampled_from([2, 4]).flatmap(_swap_tables), st.integers(0, 3))
def test_signed_contrast_is_the_classifier_value_and_the_distance(joint, zero_row):
    """One signed swap contrast reproduces both circuits' former readouts."""
    out = ProtocolOutcome((1.0,), joint)
    cond = joint / joint.sum(axis=1)[:, None]
    if joint.shape[0] == 2:
        want = oracles.classifier_value_from_table(cond)
    else:
        want = oracles.hs_distance_from_table(cond)
    assert abs(out.derived_value - want) <= 1e-15
    undrawn = joint.copy()
    undrawn[zero_row % joint.shape[0]] = 0.0
    undrawn /= undrawn.sum()
    assert math.isnan(ProtocolOutcome((1.0,), undrawn).derived_value)


def test_sample_outcomes_statistics_and_determinism():
    samples = _samples(51, m=2, n=1)
    circ = build_ansatz(1, 1)
    theta = np.random.default_rng(52).uniform(-np.pi, np.pi, circ.n_params)
    exact = run_classifier_protocol(samples, random_state(53, 1), circ, theta)

    a = sample_outcomes(exact, shots=2000, seed=7)
    b = sample_outcomes(exact, shots=2000, seed=7)
    np.testing.assert_array_equal(a.joint, b.joint)
    assert a.joint.sum() == pytest.approx(1.0, abs=1e-12)
    counts = np.rint(a.joint * 2000)
    np.testing.assert_allclose(a.joint * 2000, counts, rtol=0, atol=1e-9)  # multiples of 1/shots
    assert counts.sum() == 2000
    assert a.p_postselect == exact.p_postselect  # carried over exactly
    np.testing.assert_allclose(a.joint, exact.joint, atol=0.05)
    assert a.derived_value == pytest.approx(exact.derived_value, abs=0.2)


def test_sample_outcomes_nan_for_undrawn_cells():
    skewed = ProtocolOutcome((1.0, 1.0), np.array([[1.0 - 1e-12, 0.0], [5e-13, 5e-13]]))
    assert skewed.derived_value == 1.0
    sampled = sample_outcomes(skewed, shots=5, seed=0)
    assert math.isnan(sampled.derived_value)
    np.testing.assert_array_equal(sampled.joint, [[1.0, 0.0], [0.0, 0.0]])
    assert sampled.p_registers == (1.0, 1.0)
    with pytest.raises(ValueError):
        sample_outcomes(skewed, shots=0, seed=0)
