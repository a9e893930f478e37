"""Register-level classification and risk circuits.

This is the differential-testing twin of the analytic pipeline: the same
quantities (filtered classifier value, Hilbert-Schmidt distance, success
probabilities) are produced here from explicit multi-qubit states, swap
tests, and ancilla post-selection, and must agree with the density-matrix
path to tight tolerance.

Register order (big-endian, qubit 0 most significant):
  classifier: [index | train data | test data | swap | label | F_T F_t]
  risk:       [index1 | data1 | label1 | index2 | data2 | label2 | swap | F1 F2]
where each F is the feature-map ancilla of one data register.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedSample
from .errors import ClassAnnihilated, DimError, FilterAnnihilated, ZeroVectorError
from .featuremap import FeatureMapCircuit, _check_theta, circuit_unitary
from .quantum import GateSpec, StateVector, _apply_to_columns, project_qubit, run_gates


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit index assignment for one protocol instance."""

    index: tuple[int, ...]
    data: tuple[tuple[int, ...], ...]   # one tuple per data register
    label: tuple[int, ...]              # one label qubit per copy
    swap: int
    filter_ancilla: tuple[int, ...]     # one per data register
    n_qubits: int

    def __post_init__(self) -> None:
        used = list(self.index) + [q for d in self.data for q in d]
        used += list(self.label) + [self.swap] + list(self.filter_ancilla)
        if sorted(used) != list(range(self.n_qubits)):
            raise DimError("register ranges must be disjoint and cover all qubits")


def index_register_width(m: int) -> int:
    return max(1, math.ceil(math.log2(m)))


def classifier_layout(m: int, n_data: int) -> RegisterLayout:
    """index, train copy, test copy, swap, label, then the two F ancillas."""
    nl = index_register_width(m)
    train = tuple(range(nl, nl + n_data))
    test = tuple(range(nl + n_data, nl + 2 * n_data))
    swap = nl + 2 * n_data
    label = swap + 1
    return RegisterLayout(
        index=tuple(range(nl)),
        data=(train, test),
        label=(label,),
        swap=swap,
        filter_ancilla=(label + 1, label + 2),
        n_qubits=label + 3,
    )


def risk_layout(m: int, n_data: int) -> RegisterLayout:
    """Two independent copies of (index, data, label), then swap and ancillas."""
    nl = index_register_width(m)
    per_copy = nl + n_data + 1
    data1 = tuple(range(nl, nl + n_data))
    data2 = tuple(range(per_copy + nl, per_copy + nl + n_data))
    swap = 2 * per_copy
    return RegisterLayout(
        index=tuple(range(nl)) + tuple(range(per_copy, per_copy + nl)),
        data=(data1, data2),
        label=(nl + n_data, per_copy + nl + n_data),
        swap=swap,
        filter_ancilla=(swap + 1, swap + 2),
        n_qubits=swap + 3,
    )


@dataclass(frozen=True)
class ProtocolOutcome:
    """Post-selection probability plus label/swap statistics.

    p_class indexes label-register outcomes (2 cells for the classifier
    circuit, 4 for the two-copy risk circuit, row-major). p_swap_given_class
    holds [cell, swap outcome]. shots = 0 means exact probabilities; sampled
    outcomes may contain NaN conditionals for cells that were never drawn.
    """

    p_postselect: float
    p_class: np.ndarray
    p_swap_given_class: np.ndarray
    derived_value: float
    shots: int = 0
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        pc = np.asarray(self.p_class, dtype=float)
        psc = np.asarray(self.p_swap_given_class, dtype=float)
        if psc.shape != pc.shape + (2,):
            raise DimError(f"conditional table {psc.shape} does not match {pc.shape}")
        if not -1e-9 <= self.p_postselect <= 1 + 1e-9:
            raise ValueError(f"p_postselect {self.p_postselect} outside [0,1]")
        if abs(pc.sum() - 1.0) > 1e-10:
            raise ValueError(f"class probabilities sum to {pc.sum()}")
        for cell in range(pc.shape[0]):
            row = psc[cell]
            if not np.any(np.isnan(row)) and abs(row.sum() - 1.0) > 1e-10:
                raise ValueError(f"conditional row {cell} sums to {row.sum()}")
        object.__setattr__(self, "p_class", pc)
        object.__setattr__(self, "p_swap_given_class", psc)


def _branch_vector(
    m_index: int, nl: int, parts: list[np.ndarray]
) -> np.ndarray:
    out = np.zeros(2**nl, dtype=complex)
    out[m_index] = 1.0
    for p in parts:
        out = np.kron(out, p)
    return out


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def _label_ket(label: int) -> np.ndarray:
    return _KET0 if label == +1 else _KET1


def _check_samples(samples: list[EmbeddedSample]) -> int:
    if len(samples) < 2:
        raise DimError("need at least two samples")
    n = samples[0].state.n_qubits
    if any(s.state.n_qubits != n for s in samples):
        raise DimError("samples must share one register size")
    return n


def prepare_classifier_state(
    samples: list[EmbeddedSample], test: StateVector
) -> StateVector:
    """(1/sqrt(M)) sum_m |m> |psi_m> |psi_test> |0>_swap |label_m>.

    Non-power-of-two M leaves the unused index branches at amplitude zero.
    The two filter ancillas are not included here; they are appended by
    apply_feature_maps_postselect.
    """
    n = _check_samples(samples)
    if test.n_qubits != n:
        raise DimError("test register size differs from the samples")
    m = len(samples)
    nl = index_register_width(m)
    dim = 2 ** (nl + 2 * n + 2)
    acc = np.zeros(dim, dtype=complex)
    for i, s in enumerate(samples):
        acc += _branch_vector(
            i, nl, [s.state.amplitudes, test.amplitudes, _KET0, _label_ket(s.label)]
        )
    return StateVector(acc / math.sqrt(m), nl + 2 * n + 2)


def prepare_risk_state(samples: list[EmbeddedSample]) -> StateVector:
    """(1/sqrt(M)) sum_m |m> |psi_m> |label_m>; one copy only."""
    n = _check_samples(samples)
    m = len(samples)
    nl = index_register_width(m)
    acc = np.zeros(2 ** (nl + n + 1), dtype=complex)
    for i, s in enumerate(samples):
        acc += _branch_vector(i, nl, [s.state.amplitudes, _label_ket(s.label)])
    return StateVector(acc / math.sqrt(m), nl + n + 1)


def apply_feature_maps_postselect(
    state: StateVector,
    circuit: FeatureMapCircuit,
    theta: np.ndarray,
    layout: RegisterLayout,
) -> tuple[StateVector, float]:
    """Run V(theta) on every (data register, ancilla) pair, keep ancillas at 0.

    Returns the renormalized surviving state and the joint probability of
    all ancilla outcomes being 0.
    """
    t = _check_theta(circuit, theta)
    v = circuit_unitary(circuit, t).entries
    psi = state.amplitudes.reshape(-1, 1)
    for data, anc in zip(layout.data, layout.filter_ancilla):
        if len(data) != circuit.n_system:
            raise DimError("data register width differs from the circuit system size")
        psi = _apply_to_columns(psi, v, data + (anc,), state.n_qubits)
    out = StateVector(psi.ravel(), state.n_qubits)
    p_post = 1.0
    for anc in layout.filter_ancilla:
        try:
            out, p = project_qubit(out, anc, 0)
        except ZeroVectorError as exc:
            raise FilterAnnihilated("post-selection probability 0") from exc
        p_post *= p
    if p_post <= 1e-12:
        raise FilterAnnihilated(f"post-selection probability {p_post:.3e}")
    return out, p_post


def _swap_test(state: StateVector, layout: RegisterLayout) -> StateVector:
    """Hadamard, pairwise controlled swaps between the two data registers, Hadamard."""
    hadamard = GateSpec("H", (layout.swap,))
    cswaps = [GateSpec("CSWAP", (layout.swap, qa, qb)) for qa, qb in zip(*layout.data)]
    cols, _ = run_gates(
        state.amplitudes.reshape(-1, 1), [hadamard, *cswaps, hadamard], (), state.n_qubits
    )
    return StateVector(cols.ravel(), state.n_qubits)


def _class_swap_table(
    state: StateVector, class_qubits: tuple[int, ...], swap_qubit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact p(class cells) and p(swap | class cell) from the final state."""
    n = state.n_qubits
    probs = state.probabilities().reshape([2] * n)
    keep = list(class_qubits) + [swap_qubit]
    drop = tuple(q for q in range(n) if q not in keep)
    joint = probs.sum(axis=drop) if drop else probs
    # surviving axes follow ascending qubit index; reorder to (class..., swap)
    dest = [keep.index(q) for q in sorted(keep)]
    joint = np.moveaxis(joint, range(len(keep)), dest)
    joint = joint.reshape(2 ** len(class_qubits), 2)
    p_class = joint.sum(axis=1)
    if np.any(p_class <= 1e-12):
        raise ClassAnnihilated("a label outcome has zero probability")
    return p_class, joint / p_class[:, None]


def _derived_value(cond: np.ndarray) -> float:
    """The derived value of a conditional swap table, by its number of rows.

    2 rows (label C): [p(S=0|C=0) - p(S=1|C=0)] - [p(S=0|C=1) - p(S=1|C=1)],
    the filtered fidelity classifier value.
    4 rows (C1, C2 row-major: 00, 01, 10, 11): each cell gives one overlap
    via 2 p(S=0|cell) - 1, combined into tr{rt^2} + tr{st^2} - 2 tr{rt st},
    the Hilbert-Schmidt distance of the filtered ensembles.
    """
    if cond.shape[0] == 2:
        return float((cond[0, 0] - cond[0, 1]) - (cond[1, 0] - cond[1, 1]))
    ov = 2.0 * cond[:, 0] - 1.0
    return float(ov[0] + ov[3] - (ov[1] + ov[2]))


def _filter_and_read(
    state: StateVector,
    layout: RegisterLayout,
    circuit: FeatureMapCircuit,
    theta: np.ndarray,
) -> ProtocolOutcome:
    """Append the remaining qubits in |0>, post-select, swap test, read the table."""
    tail = np.eye(2 ** (layout.n_qubits - state.n_qubits), dtype=complex)[0]
    full = StateVector(np.kron(state.amplitudes, tail), layout.n_qubits)
    filtered, p_post = apply_feature_maps_postselect(full, circuit, theta, layout)
    final = _swap_test(filtered, layout)
    p_class, cond = _class_swap_table(final, layout.label, layout.swap)
    return ProtocolOutcome(p_post, p_class, cond, _derived_value(cond))


def run_classifier_protocol(
    samples: list[EmbeddedSample],
    test: StateVector,
    circuit: FeatureMapCircuit,
    theta: np.ndarray,
) -> ProtocolOutcome:
    """Full filtered classification circuit with exact conditional readout."""
    layout = classifier_layout(len(samples), samples[0].state.n_qubits)
    base = prepare_classifier_state(samples, test)
    return _filter_and_read(base, layout, circuit, theta)


def run_risk_protocol(
    samples: list[EmbeddedSample],
    circuit: FeatureMapCircuit,
    theta: np.ndarray,
) -> ProtocolOutcome:
    """Two filtered risk-state copies and a swap test between their data."""
    layout = risk_layout(len(samples), samples[0].state.n_qubits)
    one = prepare_risk_state(samples)
    two = StateVector(np.kron(one.amplitudes, one.amplitudes), 2 * one.n_qubits)
    return _filter_and_read(two, layout, circuit, theta)


def sample_outcomes(outcome: ProtocolOutcome, shots: int, seed: int) -> ProtocolOutcome:
    """Multinomial shot noise over the joint (class, swap) cells.

    Shots model post-selected repetitions: p_postselect is carried over
    exactly, and only the class/swap statistics become empirical. Cells never
    drawn yield NaN conditionals; the derived value is NaN unless every class
    cell was observed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    joint = outcome.p_class[:, None] * outcome.p_swap_given_class
    counts = rng.multinomial(shots, joint.ravel()).reshape(joint.shape)
    p_class = counts.sum(axis=1) / shots
    with np.errstate(invalid="ignore"):
        cond = counts / counts.sum(axis=1, keepdims=True)
    value = float("nan") if np.any(counts.sum(axis=1) == 0) else _derived_value(cond)
    return ProtocolOutcome(outcome.p_postselect, p_class, cond, value, shots, counts)
