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

The simulated register holds every qubit before the ancillas, as one
tensor in that order. An ancilla enters in |0> and is measured right after
its V(theta), so only its outcome-0 slice is ever kept. The risk circuit's
swap qubit never enters either: the swap test is read as a sum and a
difference of the register and its data-swapped copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedSample
from .errors import ClassAnnihilated, DimError, FilterAnnihilated, RegisterTooLarge
from .featuremap import MAX_BUFFER_BYTES, FeatureMapCircuit, _check_theta, circuit_unitary
from .quantum import StateVector


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


def _check_samples(samples: list[EmbeddedSample]) -> int:
    if len(samples) < 2:
        raise DimError("need at least two samples")
    n = samples[0].state.n_qubits
    if any(s.state.n_qubits != n for s in samples):
        raise DimError("samples must share one register size")
    return n


def _check_budget(n_qubits: int) -> None:
    """Refuse a register whose post-selection product would exceed MAX_BUFFER_BYTES.

    The largest array the simulation holds is V(theta)'s output on the
    register plus one ancilla: 2**(n_qubits + 1) amplitudes of 16 B.
    """
    need = 2 ** (n_qubits + 1) * 16
    if need > MAX_BUFFER_BYTES:
        raise RegisterTooLarge(
            f"a {n_qubits}-qubit register needs a {need / 2**20:.3g} MiB buffer, "
            f"over the {MAX_BUFFER_BYTES / 2**20:.3g} MiB budget"
        )


def _index_cells(samples: list[EmbeddedSample], nl: int, data: np.ndarray) -> np.ndarray:
    """(index, *data axes, label) tensor: data[m] / sqrt(M) in cell (m, label_m).

    Label +1 is the label qubit's |0>, -1 its |1>; index branches past M stay zero.
    """
    m = len(samples)
    cells = np.zeros((2**nl, *data.shape[1:], 2), dtype=complex)
    labels = [0 if s.label == +1 else 1 for s in samples]
    cells[np.arange(m), ..., labels] = data / math.sqrt(m)
    return cells


def prepare_classifier_state(
    samples: list[EmbeddedSample], test: StateVector
) -> StateVector:
    """(1/sqrt(M)) sum_m |m> |psi_m> |psi_test> |0>_swap |label_m>.

    Non-power-of-two M leaves the unused index branches at amplitude zero.
    The filter ancillas are never part of the register; see
    apply_feature_maps_postselect.
    """
    n = _check_samples(samples)
    if test.n_qubits != n:
        raise DimError("test register size differs from the samples")
    nl = index_register_width(len(samples))
    _check_budget(nl + 2 * n + 2)
    train = np.array([s.state.amplitudes for s in samples])
    data = np.zeros((len(samples), 2**n, 2**n, 2), dtype=complex)  # train, test, swap
    data[..., 0] = train[:, :, None] * test.amplitudes
    cells = _index_cells(samples, nl, data)
    return StateVector(cells.ravel(), nl + 2 * n + 2)


def prepare_risk_state(samples: list[EmbeddedSample]) -> StateVector:
    """(1/sqrt(M)) sum_m |m> |psi_m> |label_m>; one copy only."""
    n = _check_samples(samples)
    nl = index_register_width(len(samples))
    cells = _index_cells(samples, nl, np.array([s.state.amplitudes for s in samples]))
    return StateVector(cells.ravel(), nl + n + 1)


def apply_feature_maps_postselect(
    state: StateVector,
    circuit: FeatureMapCircuit,
    theta: np.ndarray,
    layout: RegisterLayout,
) -> tuple[StateVector, float]:
    """Run V(theta) on every (data register, ancilla in |0>) pair, keep ancilla 0.

    state holds the qubits of layout before its ancillas, which never join
    it: each ancilla's outcome-0 slice is kept right after its V(theta).
    Returns the renormalized surviving state, on the qubits of state, and
    the joint probability of all ancilla outcomes being 0.
    """
    t = _check_theta(circuit, theta)
    if any(len(data) != circuit.n_system for data in layout.data):
        raise DimError("data register width differs from the circuit system size")
    held = list(layout.index) + [q for d in layout.data for q in d] + list(layout.label)
    if not max(held) < state.n_qubits <= min(layout.filter_ancilla):
        raise DimError(
            f"a {state.n_qubits}-qubit state does not hold the registers before the ancillas"
        )
    _check_budget(state.n_qubits)
    # columns of V whose ancilla input is |0>; rows are (data out, ancilla out)
    half = circuit_unitary(circuit, t).entries[:, 0::2]
    psi, p_post = state.amplitudes, 1.0
    for data in layout.data:
        psi, p = _postselect(psi, half, data, state.n_qubits)
        p_post *= p
    if p_post <= 1e-12:
        raise FilterAnnihilated(f"post-selection probability {p_post:.3e}")
    return StateVector(psi, state.n_qubits), p_post


def _postselect(
    psi: np.ndarray, half: np.ndarray, data: tuple[int, ...], n_qubits: int
) -> tuple[np.ndarray, float]:
    """One V(theta) on data and a fresh ancilla, then the renormalized ancilla-0 slice.

    The data axes move last, so the whole register is one 2-D product with
    the half-column block of V.
    """
    k = len(data)
    last = tuple(range(n_qubits - k, n_qubits))
    moved = np.moveaxis(psi.reshape([2] * n_qubits), data, last)
    out = (moved.reshape(-1, 2**k) @ half.T).reshape(moved.shape[: n_qubits - k] + (2**k, 2))
    kept = out[..., 0]
    p = float(np.vdot(kept, kept).real)
    if p < 1e-300:
        raise FilterAnnihilated("post-selection probability 0")
    kept = np.moveaxis(kept.reshape(moved.shape), last, data) / math.sqrt(p)
    return kept.ravel(), p


def _swap_table(state: StateVector, layout: RegisterLayout) -> tuple[np.ndarray, np.ndarray]:
    """Exact p(label cell) and p(swap | label cell) of the swap test on the data.

    With the swap qubit in |0>, H, the controlled swaps and H leave
    (t + S t)/2 on swap outcome 0 and (t - S t)/2 on outcome 1, where S
    swaps the two data registers (Buhrman, Cleve, Watrous & de Wolf, PRL 87,
    167902, 2001). S keeps every label cell, so per cell the two masses are
    (sum |t|^2 +- Re sum conj(t) S t) / 2, summed over the other registers.
    """
    t = state.amplitudes.reshape([2] * state.n_qubits)
    qubits = list(range(state.n_qubits))
    if layout.swap < state.n_qubits:  # the classifier holds its swap qubit, in |0>
        t = t[(slice(None),) * layout.swap + (0,)]
        qubits.remove(layout.swap)
    swapped = qubits.copy()
    for qa, qb in zip(*layout.data):
        ia, ib = qubits.index(qa), qubits.index(qb)
        swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
    st = t.transpose([qubits.index(q) for q in swapped])
    cells = [qubits.index(q) for q in layout.label]
    drop = tuple(i for i in range(t.ndim) if i not in cells)
    order = np.argsort(np.argsort(cells))

    def per_cell(x: np.ndarray) -> np.ndarray:
        return x.sum(axis=drop).transpose(order).ravel()

    mass = per_cell(np.abs(t) ** 2)
    overlap = per_cell((t.conj() * st).real)
    # each is a sum of |t +- S t|^2 / 4, so only roundoff takes one below 0
    joint = np.maximum(np.stack([(mass + overlap) / 2, (mass - overlap) / 2], axis=1), 0.0)
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
    """Post-select the prepared register, then read the swap test's table."""
    filtered, p_post = apply_feature_maps_postselect(state, circuit, theta, layout)
    p_class, cond = _swap_table(filtered, layout)
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
    _check_budget(layout.swap)  # both copies; the swap qubit never joins them
    one = prepare_risk_state(samples).amplitudes
    two = StateVector(np.multiply.outer(one, one).ravel(), layout.swap)
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
