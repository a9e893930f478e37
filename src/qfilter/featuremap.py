"""Parameterized ancilla circuit, its Kraus pair, and post-selected filtering.

The trainable unitary acts on the system qubits plus a single ancilla kept
as the last (least significant) qubit. Keeping ancilla outcome 0 realizes
the operator K; outcome 1 realizes the discarded branch K0, and unitarity
of the full circuit gives K+K + K0+K0 = I.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedSample
from .errors import (
    ClassAnnihilated,
    DimError,
    FilterAnnihilated,
    ParamShapeError,
    RegisterTooLarge,
)
from .quantum import (
    ATOL_INVARIANT,
    DensityMatrix,
    GateSpec,
    UnitaryMatrix,
    run_gates,
)

EPS_ANNIHILATION = 1e-12
# Largest working set one run may hold, on the analytic path and on the
# register-level one; a bigger model raises RegisterTooLarge before any of
# it is built.
MAX_BUFFER_BYTES = 2**28


@dataclass(frozen=True)
class FeatureMapCircuit:
    """Gate sequence over n_system + 1 qubits; identity at theta = 0."""

    n_system: int
    layers: int
    gates: tuple[GateSpec, ...]
    n_params: int

    @property
    def n_qubits(self) -> int:
        return self.n_system + 1

    def zero_theta(self) -> np.ndarray:
        return np.zeros(self.n_params)


@dataclass(frozen=True)
class KrausPair:
    """Kept and discarded branches of a single-ancilla measurement."""

    keep: np.ndarray
    discard: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.keep, dtype=complex)
        k0 = np.asarray(self.discard, dtype=complex)
        if k.shape != k0.shape or k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimError(f"mismatched Kraus shapes {k.shape} vs {k0.shape}")
        resid = k.conj().T @ k + k0.conj().T @ k0 - np.eye(k.shape[0])
        if np.abs(resid).max() > ATOL_INVARIANT:
            raise ValueError(
                f"Kraus completeness residual {np.abs(resid).max():.3e}"
            )
        object.__setattr__(self, "keep", k)
        object.__setattr__(self, "discard", k0)

    @classmethod
    def identity(cls, dim: int) -> "KrausPair":
        return cls(np.eye(dim, dtype=complex), np.zeros((dim, dim), dtype=complex))


@dataclass(frozen=True)
class TransformedEnsembles:
    """Class ensembles after filtering, with per-sample success bookkeeping.

    pos/neg are the renormalized filtered mixtures of the +1 and -1 classes.
    p_succ is the mean per-sample success probability; p_joint, the product,
    is reported for diagnostics only (it decays quickly with sample count).
    """

    pos: DensityMatrix
    neg: DensityMatrix
    p_s: np.ndarray
    p_succ: float
    p_joint: float


def build_ansatz(n_system: int, layers: int) -> FeatureMapCircuit:
    """Per layer: Rx and Rz sweeps over all qubits, then a CRx chain.

    The chain couples qubit q to q+1, ending on the ancilla, so every system
    qubit can influence the measured branch. All angles are trainable.
    Raises RegisterTooLarge when circuit_unitary()'s tape (one
    2**(n+1)-square matrix per gate, plus the output) exceeds MAX_BUFFER_BYTES.
    """
    if n_system < 1 or layers < 1:
        raise ValueError("need n_system >= 1 and layers >= 1")
    n_total = n_system + 1
    gates: list[GateSpec] = []
    p = 0
    for _ in range(layers):
        for q in range(n_total):
            gates.append(GateSpec("Rx", (q,), param_index=p))
            p += 1
        for q in range(n_total):
            gates.append(GateSpec("Rz", (q,), param_index=p))
            p += 1
        for q in range(n_total - 1):
            gates.append(GateSpec("CRx", (q, q + 1), param_index=p))
            p += 1
    need = (len(gates) + 1) * 4**n_total * 16
    if need > MAX_BUFFER_BYTES:
        raise RegisterTooLarge(
            f"a {n_system}-qubit, {layers}-layer filter needs {need / 2**20:.3g} MiB "
            f"for its gate tape, over the {MAX_BUFFER_BYTES / 2**20:.3g} MiB budget"
        )
    return FeatureMapCircuit(n_system, layers, tuple(gates), p)


def _check_theta(circuit: FeatureMapCircuit, theta: np.ndarray) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    if t.shape != (circuit.n_params,):
        raise ParamShapeError(
            f"circuit takes {circuit.n_params} parameters, got shape {t.shape}"
        )
    return t


def circuit_unitary(circuit: FeatureMapCircuit, theta: np.ndarray) -> UnitaryMatrix:
    """Dense matrix of the full gate sequence, first gate applied first."""
    t = _check_theta(circuit, theta)
    n = circuit.n_qubits
    return UnitaryMatrix(run_gates(np.eye(2**n, dtype=complex), circuit.gates, t, n)[0], n)


def kraus_from_circuit(circuit: FeatureMapCircuit, theta: np.ndarray) -> KrausPair:
    """Extract both ancilla branches of V(theta) with ancilla prepared in |0>.

    With the ancilla as least significant bit, V reshaped to
    (dim, 2, dim, 2) indexes [system_out, ancilla_out, system_in, ancilla_in],
    so keep = V[:, 0, :, 0] and discard = V[:, 1, :, 0].
    """
    v = circuit_unitary(circuit, theta).entries
    dim = 2**circuit.n_system
    blocks = v.reshape(dim, 2, dim, 2)
    return KrausPair(blocks[:, 0, :, 0], blocks[:, 1, :, 0])


def kraus_with_pullback(
    circuit: FeatureMapCircuit, theta: np.ndarray
) -> tuple[KrausPair, Callable[[np.ndarray], np.ndarray]]:
    """kraus_from_circuit() and the adjoint of its derivative.

    Here the gates act only on the columns of V(theta) whose ancilla input
    is |0>: the (2 dim, dim) isometry V P0, whose even rows are K and odd
    rows K0. The returned pullback maps a cotangent X (dim x dim) to the
    gradient of 2 Re tr[X K(theta)]: the backward pass of run_gates() with
    X+ in the even rows of its cotangent.
    """
    t = _check_theta(circuit, theta)
    dim = 2**circuit.n_system
    cols, run_back = run_gates(
        np.eye(2 * dim, dtype=complex)[:, 0::2], circuit.gates, t, circuit.n_qubits
    )

    def pullback(x: np.ndarray) -> np.ndarray:
        adj = np.zeros_like(cols)
        adj[0::2] = np.asarray(x).conj().T
        return run_back(adj)

    return KrausPair(cols[0::2], cols[1::2]), pullback


def filter_probability(pair: KrausPair, rho: DensityMatrix) -> float:
    """Success probability tr[K+K rho]."""
    k = pair.keep
    if k.shape[0] != rho.entries.shape[0]:
        raise DimError("Kraus operator and state dimensions differ")
    return float(np.real(np.trace(k.conj().T @ k @ rho.entries)))


def apply_filter(pair: KrausPair, rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Post-selected map rho -> K rho K+ / p_s with p_s = tr[K+K rho]."""
    p_s = filter_probability(pair, rho)
    if p_s <= EPS_ANNIHILATION:
        raise FilterAnnihilated(f"success probability {p_s:.3e} below {EPS_ANNIHILATION:.0e}")
    out = pair.keep @ rho.entries @ pair.keep.conj().T / p_s
    out = (out + out.conj().T) / 2  # scrub roundoff asymmetry before validation
    return DensityMatrix(out, rho.n_qubits), p_s


def _sample_columns(samples: list[EmbeddedSample]) -> tuple[np.ndarray, np.ndarray, int]:
    """Amplitudes as the columns of a (dim, M) matrix, the labels, the qubit count."""
    if not samples:
        raise ClassAnnihilated("no samples")
    psi = np.stack([s.state.amplitudes for s in samples], axis=1)
    labels = np.array([s.label for s in samples])
    return psi, labels, samples[0].state.n_qubits


@dataclass(frozen=True)
class ClassMoments:
    """Unnormalized class second moments A+- = sum_{m in +-} |psi_m><psi_m|.

    The filtered class sums are K A+- K+, so the training cost depends on
    the data only through these two matrices and the sample count.
    """

    pos: np.ndarray
    neg: np.ndarray
    count: int
    n_qubits: int


def column_moments(psi: np.ndarray, labels: np.ndarray, n: int) -> ClassMoments:
    """Class moments of the columns of psi, labelled +1 or -1."""
    pos, neg = (psi[:, labels == y] @ psi[:, labels == y].conj().T for y in (+1, -1))
    return ClassMoments(pos, neg, psi.shape[1], n)


def class_moments(samples: list[EmbeddedSample]) -> ClassMoments:
    return column_moments(*_sample_columns(samples))


def filter_moments(
    pair: KrausPair, moments: ClassMoments
) -> tuple[DensityMatrix, DensityMatrix, float, float]:
    """Filtered class states K A+- K+ / P+- and the masses P+- = tr[K A+- K+].

    Dividing each class sum once by its mass keeps annihilated samples
    harmless as long as the class as a whole survives.
    """
    k = pair.keep
    out = []
    for label, a in ((+1, moments.pos), (-1, moments.neg)):
        total = k @ a @ k.conj().T
        mass = float(np.real(np.trace(total)))
        if mass <= EPS_ANNIHILATION:
            raise ClassAnnihilated(f"class {label:+d} annihilated by the filter")
        m = total / mass
        out.append((DensityMatrix((m + m.conj().T) / 2, moments.n_qubits), mass))
    (pos, mass_pos), (neg, mass_neg) = out
    return pos, neg, mass_pos, mass_neg


def transform_ensemble(pair: KrausPair, samples: list[EmbeddedSample]) -> TransformedEnsembles:
    """Filter every sample and rebuild the two class ensembles.

    Each class mixture weights sample m by p_s(x_m) / p_s(class), which is
    the same as filtering the class moment: the states come from
    filter_moments(), which raises ClassAnnihilated for a class the filter
    annihilates. Per-sample p_s are the squared column norms of K Psi.
    """
    psi, labels, n = _sample_columns(samples)
    kpsi = pair.keep @ psi
    p_s = np.sum(kpsi.real**2 + kpsi.imag**2, axis=0)
    pos, neg, _, _ = filter_moments(pair, column_moments(psi, labels, n))
    return TransformedEnsembles(
        pos=pos,
        neg=neg,
        p_s=p_s,
        p_succ=float(p_s.mean()),
        p_joint=float(np.prod(p_s)),
    )
