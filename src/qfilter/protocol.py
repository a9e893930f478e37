"""Register-level classification and risk circuits.

This is the differential-testing twin of the analytic pipeline: the same
quantities (filtered classifier value, Hilbert-Schmidt distance, success
probabilities) are produced here from explicit multi-qubit states, swap
tests, and ancilla post-selection, and must agree with the density-matrix
path to tight tolerance.

Register order of the paper's circuits (big-endian, qubit 0 most significant):
  classifier: [index | train data | test data | swap | label | F_T F_t]
  risk:       [index1 | data1 | label1 | index2 | data2 | label2 | swap | F1 F2]
where each F is the feature-map ancilla of one data register.

The twin simulates a relabelling of these qubits. Each data register meets
only its own ancilla, which enters in |0> and is measured right after its
V(theta), so post-selection factorises over registers. The training copy
[index | data | label] is filtered once and relabelled [label | index | data].
Each paired register puts its labels first: the classifier pairs the copy
with the test register, filtered on its own, as [label | index | train | test],
and the risk check pairs it with itself as
[label1 | label2 | index1 | data1 | index2 | data2]. Neither swap qubit is
simulated: the swap test is read off the paired register one label cell at
a time, each cell a contiguous block, as a sum and a difference of the cell
and its data-swapped copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import SampleSet
from .errors import DimError, check_budget
from .featuremap import FeatureMapCircuit, check_class_mass, check_success, circuit_unitary
from .quantum import StateVector, _within, check_unit_rows


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit index assignment of one of the paper's circuits, ancillas included.

    label[i] is the label qubit of data register i; the classifier's test
    register, the last data register, has none. The simulation never holds
    these registers whole; see the module docstring.
    """

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
    """What a circuit measured: post-selection and the joint label/swap table.

    p_registers holds each data register's own post-selection probability:
    (training, test) for the classifier circuit, whose test entry is p_s of
    the test point, and one mean success probability per copy for the risk
    circuit. joint holds p(label cell, swap outcome) as [cell, swap outcome],
    2 cells for the classifier circuit and 4, row-major, for the two-copy
    risk circuit: exact, or the drawn shares of a sampled run, where an
    undrawn cell's row is 0.
    """

    p_registers: tuple[float, ...]
    joint: np.ndarray

    def __post_init__(self) -> None:
        joint = np.asarray(self.joint, dtype=float)
        if joint.ndim != 2 or joint.shape[1] != 2:
            raise DimError(f"joint table {joint.shape} is not (cells, 2)")
        for name, v in (("register", np.asarray(self.p_registers, dtype=float)), ("joint", joint)):
            if not np.all((v >= -1e-9) & (v <= 1 + 1e-9)):  # both False for NaN
                raise ValueError(f"{name} probabilities {v} outside [0,1]")
        if not _within(joint.sum(), 1.0, 1e-10):
            raise ValueError(f"joint probabilities sum to {joint.sum()}")
        object.__setattr__(self, "joint", joint)

    @property
    def p_postselect(self) -> float:
        """The joint probability of every ancilla outcome 0: the product of p_registers."""
        return math.prod(self.p_registers)

    @property
    def derived_value(self) -> float:
        """sum_cell s(cell) [p(S=0|cell) - p(S=1|cell)], s = (+1, -1) per label axis.

        A cell's swap contrast is the overlap of the swapped states given its
        labels, so this is tr[rt test] - tr[st test], the filtered classifier
        value, for the classifier circuit and tr{(rt - st)^2}, the filtered
        Hilbert-Schmidt distance, for the risk circuit. Each conditional is a
        joint row over its own sum, so an undrawn cell (0/0) gives NaN.
        """
        with np.errstate(invalid="ignore"):
            cond = self.joint / self.joint.sum(axis=1, keepdims=True)
        contrast = cond[:, 0] - cond[:, 1]
        signs = [(-1) ** bin(cell).count("1") for cell in range(contrast.shape[0])]
        return float(np.dot(signs, contrast))


def _check_samples(samples: SampleSet) -> int:
    if len(samples) < 2:
        raise DimError("need at least two samples")
    return samples.n_qubits


def _check_budget(n_qubits: int) -> None:
    """Refuse a register over the budget at two arrays of its size: 2**(n_qubits + 1) amplitudes.

    A step holds the register and at most one array of its size. The swap
    readout holds the paired register and one label cell, at most half of it.
    """
    check_budget(2 ** (n_qubits + 1) * 16, f"a {n_qubits}-qubit register needs a {{}} MiB buffer")


def _check_classifier(samples: SampleSet, test: StateVector) -> None:
    """Check that test is a unit state matching the samples and that
    [index | train | label | test] fits the budget."""
    n = _check_samples(samples)
    if test.n_qubits != n:
        raise DimError("test register size differs from the samples")
    check_unit_rows(test.amplitudes[None])
    _check_budget(index_register_width(len(samples)) + 2 * n + 1)


def prepare_risk_state(samples: SampleSet) -> StateVector:
    """(1/sqrt(M)) sum_m |m> |psi_m> |label_m>: one training copy.

    Label +1 is the label qubit's |0>, -1 its |1>. Non-power-of-two M leaves
    the unused index branches at amplitude zero.
    """
    n = _check_samples(samples)
    m, nl = len(samples), index_register_width(len(samples))
    cells = np.zeros((2**nl, 2**n, 2), dtype=complex)
    cells[np.arange(m), :, (1 - samples.labels) // 2] = samples.amplitudes / math.sqrt(m)
    return StateVector(cells.ravel())


def prepare_classifier_state(
    samples: SampleSet, test: StateVector
) -> StateVector:
    """(1/sqrt(M)) sum_m |m> |psi_m> |label_m> |psi_test>, before any filter."""
    _check_classifier(samples, test)
    copy = prepare_risk_state(samples).amplitudes
    return StateVector(np.multiply.outer(copy, test.amplitudes).ravel())


def _half_columns(circuit: FeatureMapCircuit, theta: np.ndarray) -> np.ndarray:
    """Columns of V(theta) whose ancilla input is |0>; rows are (data out, ancilla out)."""
    return circuit_unitary(circuit, theta).entries[:, 0::2]


def apply_feature_maps_postselect(
    state: StateVector, half: np.ndarray, data: tuple[int, ...]
) -> tuple[StateVector, float]:
    """Run V(theta) on one data register and a fresh ancilla in |0>, keep ancilla 0.

    half is V(theta)'s half-columns, circuit_unitary(circuit, theta).entries[:, 0::2];
    data is the register, a run of consecutive qubits of state. The ancilla
    never joins the register. Returns the renormalized surviving state, on
    the qubits of state, and the probability of ancilla outcome 0. A state
    of probability 0 stays 0.
    """
    k = len(data)
    if half.shape != (2 ** (k + 1), 2**k):
        raise DimError("data register width differs from the circuit system size")
    if data != tuple(range(data[0], data[0] + k)) or data[0] < 0 or data[-1] >= state.n_qubits:
        raise DimError(f"data qubits {data} are not a run of a {state.n_qubits}-qubit register")
    _check_budget(state.n_qubits)
    psi = state.amplitudes.reshape(2 ** data[0], 2**k, -1)
    kept = np.matmul(half[0::2], psi)  # the rows of ancilla outcome 0
    p = float(np.vdot(kept, kept).real)
    kept = kept / math.sqrt(p) if p > 0 else kept
    return StateVector(kept.ravel()), p


def _filtered_copy(samples: SampleSet, half: np.ndarray) -> tuple[np.ndarray, float]:
    """The filtered training copy as a contiguous (label, index, data) tensor, and its p.

    M p(label cell) of the filtered copy is that class's filtered mass
    sum_{m in class} p_s(x_m), which check_class_mass() sees, as in the
    analytic path's filter_moments().
    """
    nl, n = index_register_width(len(samples)), samples.n_qubits
    filtered, p = apply_feature_maps_postselect(
        prepare_risk_state(samples), half, tuple(range(nl, nl + n))
    )
    t = np.ascontiguousarray(filtered.amplitudes.reshape(2**nl, 2**n, 2).transpose(2, 0, 1))
    for sign, share in zip((+1, -1), (np.abs(t) ** 2).sum(axis=(1, 2))):
        check_class_mass(sign, len(samples) * p * share)
    return t, p


def _swap_table(t: np.ndarray, a: int, b: int, n_labels: int) -> np.ndarray:
    """Exact joint p(label cell, swap outcome) of the swap test on data axes a, b.

    t is a paired register, one axis per register, its n_labels label axes
    first. With the swap qubit in |0>, H, the controlled swaps and H leave
    (t + S t)/2 on swap outcome 0 and (t - S t)/2 on outcome 1, where S
    swaps axes a and b (Buhrman, Cleve, Watrous & de Wolf, PRL 87, 167902,
    2001). S keeps every label cell c, so per cell the two masses are
    (<c|c> +- Re <c|S c>) / 2, cells in row-major label order. Each cell is
    one contiguous block, and only S c is copied.
    """
    cells = t.reshape((-1,) + t.shape[n_labels:])
    a, b = a - n_labels, b - n_labels
    joint = np.empty((cells.shape[0], 2))
    for row, cell in zip(joint, cells):
        mass = np.vdot(cell, cell).real
        overlap = np.vdot(cell, cell.swapaxes(a, b)).real  # vdot copies S c contiguous
        row[:] = (mass + overlap) / 2, (mass - overlap) / 2
    # each is a sum of |c +- S c|^2 / 4, so only roundoff takes one below 0
    return np.maximum(joint, 0.0)


def run_classifier_protocol(
    samples: SampleSet,
    test: StateVector,
    circuit: FeatureMapCircuit,
    theta: np.ndarray,
) -> ProtocolOutcome:
    """Filtered classification circuit with exact joint readout.

    Every class of the training copy is checked before the test register,
    whose post-selection probability check_success() sees.
    """
    _check_classifier(samples, test)
    half = _half_columns(circuit, theta)
    copy, p_train = _filtered_copy(samples, half)
    kept, p_test = apply_feature_maps_postselect(test, half, tuple(range(test.n_qubits)))
    check_success(p_test)
    pair = np.multiply.outer(copy, kept.amplitudes)  # (label, index, train, test)
    return ProtocolOutcome((p_train, p_test), _swap_table(pair, 2, 3, 1))


def run_risk_protocol(
    samples: SampleSet,
    circuit: FeatureMapCircuit,
    theta: np.ndarray,
) -> ProtocolOutcome:
    """Two filtered training copies and a swap test between their data."""
    n = _check_samples(samples)
    _check_budget(2 * (index_register_width(len(samples)) + n + 1))
    copy, p = _filtered_copy(samples, _half_columns(circuit, theta))
    # (label1, label2, index1, data1, index2, data2) in one product
    pair = copy[:, None, :, :, None, None] * copy[None, :, None, None, :, :]
    return ProtocolOutcome((p, p), _swap_table(pair, 3, 5, 2))


def sample_outcomes(outcome: ProtocolOutcome, shots: int, seed: int) -> ProtocolOutcome:
    """Multinomial shot noise over the joint (cell, swap) table.

    Shots model post-selected repetitions: p_registers are carried over
    exactly, and the joint table becomes the drawn shares, counts / shots.
    A cell never drawn has a zero row, so the derived value is NaN unless
    every label cell was observed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    joint = outcome.joint
    counts = np.random.default_rng(seed).multinomial(shots, joint.ravel()).reshape(joint.shape)
    return ProtocolOutcome(outcome.p_registers, counts / shots)
