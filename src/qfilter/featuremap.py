"""Parameterized ancilla circuit, its kept Kraus branch, and post-selected filtering.

The trainable unitary acts on the system qubits plus a single ancilla kept
as the last (least significant) qubit. Keeping ancilla outcome 0 realizes
the operator K; outcome 1 realizes the discarded branch K0, and unitarity
of the full circuit gives K+K + K0+K0 = I.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ClassAnnihilated, DimError, FilterAnnihilated, check_budget
from .quantum import DensityMatrix, GateSpec, UnitaryMatrix, gate_pass_bytes, run_gates

if TYPE_CHECKING:  # embedding imports build_ansatz from here
    from .embedding import SampleSet

EPS_ANNIHILATION = 1e-12


@dataclass(frozen=True)
class FeatureMapCircuit:
    """Gate sequence over n_system + 1 qubits, one angle per gate; identity at theta = 0."""

    n_system: int
    gates: tuple[GateSpec, ...]

    @property
    def n_qubits(self) -> int:
        return self.n_system + 1

    @property
    def n_params(self) -> int:
        return len(self.gates)

    def zero_theta(self) -> np.ndarray:
        return np.zeros(self.n_params)


def build_ansatz(n_system: int, layers: int) -> FeatureMapCircuit:
    """Per layer: Rx and Rz sweeps over all qubits, then a CRx chain.

    The chain couples qubit q to q+1, ending on the ancilla, so every system
    qubit can influence the measured branch. All angles are trainable.
    Raises RegisterTooLarge, before the layer is repeated, when the gate
    pass over V P0 (kraus_with_pullback()) is over the memory budget;
    circuit_unitary(), over twice the columns, holds half as many arrays.
    """
    if n_system < 1 or layers < 1:
        raise ValueError("need n_system >= 1 and layers >= 1")
    n_total = n_system + 1
    layer = (
        [GateSpec("Rx", (q,)) for q in range(n_total)]
        + [GateSpec("Rz", (q,)) for q in range(n_total)]
        + [GateSpec("CRx", (q, q + 1)) for q in range(n_system)]
    )
    check_budget(
        gate_pass_bytes(len(layer) * layers, n_total, 2**n_system),
        f"a {n_system}-qubit, {layers}-layer filter needs {{}} MiB for its gate pass",
    )
    return FeatureMapCircuit(n_system, tuple(layer) * layers)


def circuit_unitary(circuit: FeatureMapCircuit, theta: np.ndarray) -> UnitaryMatrix:
    """Dense matrix of the full gate sequence, first gate applied first."""
    eye = np.eye(2**circuit.n_qubits, dtype=complex)
    return UnitaryMatrix(run_gates(eye, circuit.gates, theta)[0])


def kraus_from_circuit(circuit: FeatureMapCircuit, theta: np.ndarray) -> np.ndarray:
    """The kept branch K of V(theta) with the ancilla prepared in |0>, a (dim, dim) array.

    With the ancilla as least significant bit, K is the even rows of V's
    even columns; the odd rows are the discarded branch K0. UnitaryMatrix
    has checked V+V = I, whose ancilla-|0> block is K+K + K0+K0 = I.
    """
    return circuit_unitary(circuit, theta).entries[0::2, 0::2]


def kraus_with_pullback(
    circuit: FeatureMapCircuit, theta: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The raw block V(theta) P0 and the adjoint of the derivative of K.

    Here the gates act only on the columns of V(theta) whose ancilla input
    is |0>: the (2 dim, dim) isometry V P0, whose even rows are K (what
    kraus_from_circuit() returns) and odd rows K0. The block is not checked:
    it is a block of a product of unitary gate matrices, so
    (V P0)+ (V P0) = I by construction (the kraus-completeness selftest and
    the tests measure it), and run_gates() has checked theta's shape;
    training checks that theta is finite. The returned pullback maps a
    cotangent X (dim x dim) to the gradient of 2 Re tr[X K(theta)]: the
    backward pass of run_gates() with X+ in the even rows of its cotangent.
    """
    dim = 2**circuit.n_system
    p0 = np.zeros((2 * dim, dim), dtype=complex)  # input column j is |j>|0>, row 2j
    p0[2 * np.arange(dim), np.arange(dim)] = 1
    cols, run_back = run_gates(p0, circuit.gates, theta)

    def pullback(x: np.ndarray) -> np.ndarray:
        adj = np.zeros_like(cols)
        adj[0::2] = np.asarray(x).conj().T
        return run_back(adj)

    return cols, pullback


def check_success(p_s: float) -> None:
    """Raise FilterAnnihilated for a success probability p_s <= EPS_ANNIHILATION."""
    if p_s <= EPS_ANNIHILATION:
        raise FilterAnnihilated(f"success probability {p_s:.3e} below {EPS_ANNIHILATION:.0e}")


def _check_kraus_shape(k: np.ndarray, dim: int) -> None:
    """Raise DimError unless K is a (dim, dim) operator on states of dimension dim."""
    if k.shape != (dim, dim):
        raise DimError(f"a Kraus operator of shape {k.shape} does not act on dimension {dim}")


def apply_filter(k: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The filter step on the rows psi_m of an (M, dim) amplitude array.

    Returns K psi_m as the columns of a (dim, M) array and p_s(x_m) =
    ||K psi_m||^2 = tr[K rho_m K+] per row, undivided and unchecked.
    """
    _check_kraus_shape(k, amplitudes.shape[-1])
    kpsi = k @ amplitudes.T
    return kpsi, np.sum(kpsi.real**2 + kpsi.imag**2, axis=0)


def check_class_mass(label: int, mass: float) -> None:
    """Raise ClassAnnihilated for a class of filtered mass sum_m p_s(x_m) <= EPS_ANNIHILATION."""
    if mass <= EPS_ANNIHILATION:
        raise ClassAnnihilated(f"class {label:+d} annihilated by the filter")


@dataclass(frozen=True)
class ClassMoments:
    """Unnormalized class second moments A+- = sum_{m in +-} |psi_m><psi_m|.

    stack holds [A+, A-]. The filtered class sums are K A+- K+, so the
    training cost depends on the data only through these two matrices and
    the sample count.
    """

    stack: np.ndarray
    count: int


def column_moments(psi: np.ndarray, labels: np.ndarray) -> ClassMoments:
    """Class moments of the columns of psi, labelled +1 or -1."""
    moments = [c @ c.conj().T for c in (psi[:, labels == y] for y in (+1, -1))]
    return ClassMoments(np.stack(moments), psi.shape[1])


def class_moments(samples: SampleSet) -> ClassMoments:
    """column_moments() of the samples' amplitudes; an empty set raises ClassAnnihilated."""
    if not len(samples):
        raise ClassAnnihilated("no samples")
    return column_moments(np.ascontiguousarray(samples.amplitudes.T), samples.labels)


def filter_moments(k: np.ndarray, moments: ClassMoments) -> tuple[np.ndarray, list[float]]:
    """Filtered class states [rho+, rho-] = K A+- K+ / P+- as one array, and the masses P+-.

    Both classes go through one batched product, and P+- = tr[K A+- K+],
    which check_class_mass() sees before anything is divided by it.
    Dividing each class sum once by its mass keeps annihilated samples
    harmless as long as the class as a whole survives. The states are not
    wrapped in DensityMatrix: K A K+ / tr is PSD with unit trace by
    construction, and transform_ensemble() checks them where they leave.
    """
    total = k @ moments.stack @ k.conj().T
    masses = total.trace(axis1=1, axis2=2).real
    for label, mass in zip((+1, -1), masses.tolist()):
        check_class_mass(label, mass)
    m = total / masses[:, None, None]
    return (m + m.conj().transpose(0, 2, 1)) / 2, masses.tolist()  # scrub roundoff asymmetry


def transform_ensemble(
    k: np.ndarray, samples: SampleSet
) -> tuple[DensityMatrix, DensityMatrix]:
    """The filtered class states rho'+- = K A+- K+ / tr[K A+- K+], +1 class first.

    Each class mixture weights sample m by p_s(x_m) / p_s(class), which is
    the same as filtering the class moment: the states come from
    filter_moments(), which raises ClassAnnihilated for a class the filter
    annihilates. A K that is not (dim, dim) raises DimError before any product.
    """
    _check_kraus_shape(k, samples.amplitudes.shape[1])
    (pos, neg), _ = filter_moments(k, class_moments(samples))
    return DensityMatrix(pos), DensityMatrix(neg)
