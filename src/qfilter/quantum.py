"""Dense simulation primitives for small qubit registers.

Big-endian ordering throughout: qubit 0 is the most significant bit of a
basis index, so |q0 q1 ... q_{n-1}> lives at index sum_i q_i 2^(n-1-i).
Rotations follow R_a(t) = exp(-i t sigma_a / 2) and the two-qubit phase
coupling is ZZ(t) = exp(-i t Z (x) Z / 2).
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimError,
    HermiticityError,
    NormError,
    ShapeError,
    UnsupportedGate,
    ZeroVectorError,
)

# Tolerance tiers: invariants of our own constructions and user-supplied input.
ATOL_INVARIANT = 1e-10
ATOL_INPUT = 1e-8

GATE_ARITY = {
    "Rx": 1,
    "Ry": 1,
    "Rz": 1,
    "H": 1,
    "X": 1,
    "ZZ": 2,
    "CRx": 2,
    "CSWAP": 3,
}


@dataclass(frozen=True)
class GateSpec:
    """One gate instance: kind, target qubits, and where its angle comes from.

    A rotation takes its angle from entry param_index of a parameter
    vector; the other gates take none.
    """

    kind: str
    targets: tuple[int, ...]
    param_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_ARITY:
            raise UnsupportedGate(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if len(self.targets) != GATE_ARITY[self.kind]:
            raise ShapeError(
                f"{self.kind} expects {GATE_ARITY[self.kind]} targets, got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets {self.targets}")
        if (self.param_index is None) == (self.kind in _ROTATIONS):
            raise ValueError(f"{self.kind}: a rotation needs a param_index, other gates none")

    def resolve_angle(self, theta: np.ndarray) -> float:
        return 0.0 if self.param_index is None else float(theta[self.param_index])


@dataclass(frozen=True)
class StateVector:
    """Pure state on n_qubits qubits, stored as a dense complex vector."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != 2**self.n_qubits:
            raise DimError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace, PSD up to -1e-10 eigenvalue slack."""

    entries: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        d = 2**self.n_qubits
        if m.shape != (d, d):
            raise DimError(f"expected {(d, d)} matrix, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL_INVARIANT, rtol=0):
            raise HermiticityError("density matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > ATOL_INVARIANT:
            raise NormError(f"density matrix trace {tr} != 1")
        if np.linalg.eigvalsh(m).min() < -ATOL_INVARIANT:
            raise NormError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class UnitaryMatrix:
    """Unitary on n_qubits qubits; U+ U = I is checked on construction."""

    entries: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        d = 2**self.n_qubits
        if m.shape != (d, d):
            raise DimError(f"expected {(d, d)} matrix, got {m.shape}")
        if not np.allclose(m.conj().T @ m, np.eye(d), atol=ATOL_INVARIANT, rtol=0):
            raise NormError("matrix is not unitary")
        object.__setattr__(self, "entries", m)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _rx(t: float) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def _zz(t: float) -> np.ndarray:
    e_m, e_p = np.exp(-1j * t / 2), np.exp(1j * t / 2)
    return np.diag([e_m, e_p, e_p, e_m])


def _crx(t: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = _rx(t)
    return out


_CSWAP = np.eye(8, dtype=complex)
_CSWAP[[5, 6], :] = _CSWAP[[6, 5], :]


_ROTATIONS = {"Rx": _rx, "Ry": _ry, "Rz": _rz, "ZZ": _zz, "CRx": _crx}
_FIXED = {"H": _H, "X": _X, "CSWAP": _CSWAP}


def gate_array(kind: str, theta: float = 0.0) -> np.ndarray:
    """Dense matrix for a single gate, control = first target for CRx/CSWAP."""
    if kind in _ROTATIONS:
        return _ROTATIONS[kind](theta)
    if kind in _FIXED:
        return _FIXED[kind].copy()
    raise UnsupportedGate(f"unknown gate kind {kind!r}")


def _apply_to_columns(
    block: np.ndarray, local: np.ndarray, targets: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    """Apply a k-qubit gate to the given qubits of every column of block.

    block has shape (2**n_qubits, tail); tail = 1 treats it as a state.
    """
    tail = block.shape[1]
    k = len(targets)
    rest = [q for q in range(n_qubits) if q not in targets]
    perm = list(targets) + rest + [n_qubits]
    t = block.reshape([2] * n_qubits + [tail]).transpose(perm)
    t = local @ t.reshape(2**k, -1)
    t = t.reshape([2] * n_qubits + [tail]).transpose(np.argsort(perm))
    return t.reshape(2**n_qubits, tail)


def run_gates(
    cols: np.ndarray, gates: Sequence[GateSpec], theta: np.ndarray, n_qubits: int
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Apply a gate list to every column of cols (2**n_qubits x k), first gate first.

    A rotation takes its angle from theta[param_index]. Also returns the
    pullback that maps a cotangent Y to the gradient of 2 Re <Y, cols(theta)>
    in one backward pass of adjoint products (Jones & Gacon, arXiv:2009.02823),
        d/dtheta_j = 2 Re <Y, G_L ... G_{j+1} G_j' G_{j-1} ... G_1 cols>,
    with G' = (G(t + pi) - G(t - pi)) / 4 for every exp(-i t P / 2) gate;
    for that the forward pass keeps the input of every rotation.
    """
    t = np.asarray(theta, dtype=float)
    arrays, before = [], []
    for spec in gates:
        if not all(0 <= q < n_qubits for q in spec.targets):
            raise IndexError(f"targets {spec.targets} outside register of {n_qubits}")
        arrays.append(gate_array(spec.kind, spec.resolve_angle(t)))
        before.append(None if spec.param_index is None else cols)
        cols = _apply_to_columns(cols, arrays[-1], spec.targets, n_qubits)

    def pullback(adj: np.ndarray) -> np.ndarray:
        # adj holds (Y+ G_L ... G_{j+1})+ while gate j is visited
        grad = np.zeros(t.shape[0])
        for spec, g, b in zip(reversed(gates), reversed(arrays), reversed(before)):
            if b is not None:
                a = spec.resolve_angle(t)
                dg = (gate_array(spec.kind, a + np.pi) - gate_array(spec.kind, a - np.pi)) / 4
                moved = _apply_to_columns(b, dg, spec.targets, n_qubits)
                grad[spec.param_index] += 2 * np.real(np.vdot(adj, moved))
            adj = _apply_to_columns(adj, g.conj().T, spec.targets, n_qubits)
        return grad

    return cols, pullback


def project_qubit(state: StateVector, qubit: int, outcome: int) -> tuple[StateVector, float]:
    """Project one qubit onto |outcome>, renormalize, return (state, probability).

    The projected register keeps all qubits; the measured one is left in
    |outcome>. Probability zero raises ZeroVectorError.
    """
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} outside register of {state.n_qubits}")
    t = state.amplitudes.reshape([2] * state.n_qubits)
    keep = np.zeros_like(t)
    sl = [slice(None)] * state.n_qubits
    sl[qubit] = outcome
    keep[tuple(sl)] = t[tuple(sl)]
    flat = keep.ravel()
    prob = float(np.sum(np.abs(flat) ** 2))
    if prob < 1e-300:
        raise ZeroVectorError(f"outcome {outcome} on qubit {qubit} has probability 0")
    return StateVector(flat / np.sqrt(prob), state.n_qubits), prob


def pure_to_density(state: StateVector) -> DensityMatrix:
    if abs(state.norm() - 1.0) > ATOL_INPUT:
        raise NormError(f"state norm {state.norm()} != 1")
    psi = state.amplitudes
    return DensityMatrix(np.outer(psi, psi.conj()), state.n_qubits)


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr[(rho - sigma)^2]; equals the squared Frobenius norm for Hermitian args."""
    if rho.n_qubits != sigma.n_qubits:
        raise DimError("states live on different registers")
    diff = rho.entries - sigma.entries
    return float(np.sum(np.abs(diff) ** 2))


def overlap(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Re tr[rho sigma]; real by Hermiticity."""
    if rho.n_qubits != sigma.n_qubits:
        raise DimError("states live on different registers")
    return float(np.real(np.vdot(sigma.entries, rho.entries)))


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimError(f"expected a square matrix, got {m.shape}")
    if not np.allclose(m, m.conj().T, atol=ATOL_INPUT, rtol=0):
        raise HermiticityError("trace norm input is not Hermitian")
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def apply_channel(kraus_ops: list[np.ndarray], matrix: np.ndarray) -> np.ndarray:
    """sum_i A_i X A_i+ for a list of Kraus operators."""
    out = np.zeros_like(np.asarray(matrix, dtype=complex))
    for a in kraus_ops:
        out += a @ matrix @ a.conj().T
    return out


def random_cptp(seed: int, dim: int, n_kraus: int) -> list[np.ndarray]:
    """Seeded random CPTP map as n_kraus Kraus blocks of a Haar-ish isometry.

    Columns of a QR-orthonormalized complex Gaussian give an isometry
    V: C^dim -> C^(n_kraus*dim); its dim x dim blocks satisfy
    sum_i A_i+ A_i = I to machine precision.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_kraus * dim, dim)) + 1j * rng.standard_normal(
        (n_kraus * dim, dim)
    )
    q, _ = np.linalg.qr(g)
    return [q[i * dim : (i + 1) * dim] for i in range(n_kraus)]


def random_state(seed: int, n_qubits: int) -> StateVector:
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(v / np.linalg.norm(v), n_qubits)
