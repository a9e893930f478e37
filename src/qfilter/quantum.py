"""Dense simulation primitives for small qubit registers.

Big-endian ordering throughout: qubit 0 is the most significant bit of a
basis index, so |q0 q1 ... q_{n-1}> lives at index sum_i q_i 2^(n-1-i).
Every gate is a rotation exp(-i t P / 2): R_a(t) with P = sigma_a, the
phase coupling ZZ(t) with P = Z (x) Z, and CRx(t) with P = |1><1| (x) X.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimError,
    HermiticityError,
    NormError,
    ParamShapeError,
    ShapeError,
    UnsupportedGate,
)

# Tolerance tiers: invariants of our own constructions and user-supplied input.
ATOL_INVARIANT = 1e-10
ATOL_INPUT = 1e-8


def check_unit_rows(amps: np.ndarray) -> None:
    """Raise NormError for the first row whose norm is off 1 by more than ATOL_INPUT.

    A row holding a NaN or an infinity, or too large to square, has no
    such norm and raises too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(amps, axis=-1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= ATOL_INPUT))
    if bad.size:
        raise NormError(f"state norm {norms[bad[0]]} != 1")


# The generator P of each rotation exp(-i t P / 2), control = first target.
_GENERATORS = {
    "Rx": np.array([[0, 1], [1, 0]], dtype=complex),
    "Ry": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Rz": np.diag([1, -1]).astype(complex),
    "ZZ": np.diag([1, -1, -1, 1]).astype(complex),
    "CRx": np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}

GATE_ARITY = {kind: p.shape[0].bit_length() - 1 for kind, p in _GENERATORS.items()}

# Every generator has P^3 = P, so exp(-i t P / 2) = (I - P^2) + cos(t/2) P^2
# - i sin(t/2) P. Its three fixed parts are stacked along axis 1, so that
# one dot with (1, cos(t/2), sin(t/2)) sums them; every entry of a gate
# takes at most one nonzero term, so the sum is exact.
_GATE_PARTS = {
    kind: np.stack([np.eye(p.shape[0]) - p @ p, p @ p, -1j * p], axis=1)
    for kind, p in _GENERATORS.items()
}


def gate_array(kind: str, cos_half: float, sin_half: float) -> np.ndarray:
    """Dense matrix of one rotation, given cos(t/2) and sin(t/2) of its angle t.

    The control is the first target for CRx. run_gates() takes the trig of a
    whole angle vector at once and builds every gate matrix here.
    """
    if kind not in _GATE_PARTS:
        raise UnsupportedGate(f"unknown gate kind {kind!r}")
    return np.dot((1.0, cos_half, sin_half), _GATE_PARTS[kind])


@dataclass(frozen=True)
class GateSpec:
    """One rotation exp(-i t P / 2): its kind, which names P, and its target qubits.

    adjacent is derived from the targets: True for an ascending run
    q..q+k-1, which run_gates() applies as one broadcast matmul.
    """

    kind: str
    targets: tuple[int, ...]
    adjacent: bool = field(init=False, repr=False, compare=False)

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
        q = self.targets[0]
        object.__setattr__(self, "adjacent", self.targets == tuple(range(q, q + len(self.targets))))


def _within(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """max |a - b| <= atol entrywise; False when a - b holds a NaN or an inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(np.abs(a - b).max(initial=0.0) <= atol)


def _register_width(shape: tuple[int, ...], axes: int) -> int:
    """n for an array of `axes` axes of 2**n entries each; DimError for any other shape."""
    if len(shape) != axes or shape[0] != shape[-1] or not shape[0] or shape[0] & (shape[0] - 1):
        raise DimError(f"expected a {axes}-axis array of side 2**n, got shape {shape}")
    return shape[0].bit_length() - 1


@dataclass(frozen=True)
class StateVector:
    """Pure state stored as a dense complex vector; n_qubits is log2 of its length."""

    amplitudes: np.ndarray
    n_qubits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "n_qubits", _register_width(amps.shape, 1))
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace, PSD up to -1e-10 eigenvalue slack."""

    entries: np.ndarray
    n_qubits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "n_qubits", _register_width(m.shape, 2))
        if not _within(m, m.conj().T, ATOL_INVARIANT):
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
    n_qubits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "n_qubits", _register_width(m.shape, 2))
        with np.errstate(invalid="ignore"):  # an inf entry puts inf * 0 = NaN in the product
            gram = m.conj().T @ m
        if not _within(gram, np.eye(m.shape[0]), ATOL_INVARIANT):
            raise NormError("matrix is not unitary")
        object.__setattr__(self, "entries", m)


def _apply_to_columns(
    block: np.ndarray, local: np.ndarray, spec: GateSpec, n_qubits: int
) -> np.ndarray:
    """Apply a gate matrix to the targets of spec in every column of block.

    block is a register of n_qubits (2**n_qubits rows; one column is a
    state) or a stack of such registers along its rows, each of which the
    gate acts on. On an ascending run of qubits q..q+k-1 the gate is one
    broadcast matmul over the leading blocks, 2**q per register; any other
    targets are transposed to the front and back.
    """
    if spec.adjacent:
        lead = block.shape[0] >> (n_qubits - spec.targets[0])
        return np.matmul(local, block.reshape(lead, local.shape[0], -1)).reshape(block.shape)
    targets = spec.targets
    rest = [r for r in range(n_qubits) if r not in targets]
    # axis 0 counts the registers of a stack, axis n_qubits + 1 the columns
    perm = [q + 1 for q in targets] + [0] + [r + 1 for r in rest] + [n_qubits + 1]
    t = block.reshape([-1] + [2] * n_qubits + [block.shape[1]]).transpose(perm)
    t = (local @ t.reshape(local.shape[0], -1)).reshape(t.shape)
    return t.transpose(np.argsort(perm)).reshape(block.shape)


# Bytes a run_gates() pass holds per gate: its 2 x 2 or 4 x 4 matrix with
# the array header and its list slot, and the angle with its cosine and
# sine (measured: about 330 B of peak RSS per gate under `qfilter train`;
# see CHANGES.md).
GATE_BYTES = 384


def gate_pass_bytes(n_gates: int, n_qubits: int, columns: int) -> int:
    """Bytes a run_gates() pass of n_gates over 2**n_qubits x columns holds at its peak.

    Its pullback holds 8 arrays of the register's size: the output and the
    cotangent, their stack, and, while a gate acts on the stack, the
    stack's transposed copy and the product (only the product for a gate
    on adjacent qubits). Each gate adds GATE_BYTES.
    """
    return 8 * 2**n_qubits * columns * 16 + n_gates * GATE_BYTES


def run_gates(
    cols: np.ndarray, gates: Sequence[GateSpec], theta: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Apply a gate list to every column of cols (2**n_qubits x k), first gate first.

    Gate j takes the angle theta[j], so theta holds one entry per gate. Also
    returns the pullback that maps a cotangent Y to the gradient of
    2 Re <Y, cols(theta)> in one backward pass of adjoint products (Jones &
    Gacon, arXiv:2009.02823). Every gate G_j = exp(-i t P_j / 2) has
    dG_j/dt = -(i/2) P_j G_j, so
        d/dtheta_j = Im <G_{j+1}+ ... G_L+ Y, P_j out_j>,
    where out_j = G_j ... G_1 cols is the output of gate j. The forward pass
    keeps only the gate matrices: the backward pass stacks [out_L ; Y] as
    one register with an extra leading qubit, and G_j+ on that stack
    uncomputes out_{j-1} and carries the adjoint in one product.

    A pass checks the targets and takes cos and sin of theta / 2 once, and
    each gate's product takes its shape from the spec (GateSpec.adjacent),
    so nothing is re-derived per gate.
    """
    n_qubits = _register_width(cols.shape[:1], 1)
    t = np.asarray(theta, dtype=float)
    if t.shape != (len(gates),):
        raise ParamShapeError(f"{len(gates)} gates take {len(gates)} angles, got shape {t.shape}")
    if not all(0 <= q < n_qubits for spec in gates for q in spec.targets):
        bad = next(g for g in gates if not all(0 <= q < n_qubits for q in g.targets))
        raise IndexError(f"targets {bad.targets} outside register of {n_qubits}")
    arrays = []
    for spec, c, s in zip(gates, np.cos(t / 2), np.sin(t / 2)):
        arrays.append(gate_array(spec.kind, c, s))
        cols = _apply_to_columns(cols, arrays[-1], spec, n_qubits)
    out = cols

    def pullback(adj: np.ndarray) -> np.ndarray:
        # the top half holds out_j and the bottom half G_{j+1}+ ... G_L+ Y
        # while gate j is visited
        stack = np.concatenate([out, adj])
        half = out.shape[0]
        grad = np.zeros(len(gates))
        for j in reversed(range(len(gates))):
            spec = gates[j]
            top = _apply_to_columns(stack[:half], _GENERATORS[spec.kind], spec, n_qubits)
            grad[j] = np.vdot(stack[half:], top).imag
            if j:  # past the first gate neither half feeds a gradient
                stack = _apply_to_columns(stack, arrays[j].conj().T, spec, n_qubits)
        return grad

    return out, pullback


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr[(rho - sigma)^2]; equals the squared Frobenius norm for Hermitian args."""
    if rho.n_qubits != sigma.n_qubits:
        raise DimError("states live on different registers")
    diff = rho.entries - sigma.entries
    return float(np.sum(np.abs(diff) ** 2))


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimError(f"expected a square matrix, got {m.shape}")
    if not _within(m, m.conj().T, ATOL_INPUT):
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
    return StateVector(v / np.linalg.norm(v))
