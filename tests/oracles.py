"""Reference computations the suite checks the library against.

Everything here deliberately takes a different route than the package:
rotations come from scipy's expm, multi-qubit lifts from explicit bit
arithmetic on basis indices, marginals from bit masks, and the frozen
dataset constants from pen-and-paper closed forms. Keep it slow and
obvious; it only runs on tiny registers.
"""
import math

import numpy as np
from scipy.linalg import expm

from qfilter.quantum import StateVector

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def basis_state(n, index):
    """The computational basis state |index> on n qubits."""
    return StateVector(np.eye(2**n, dtype=complex)[index], n)


def rx(theta):
    return expm(-0.5j * theta * SX)


def ry(theta):
    return expm(-0.5j * theta * SY)


def rz(theta):
    return expm(-0.5j * theta * SZ)


def zz(theta):
    return expm(-0.5j * theta * np.kron(SZ, SZ))


def crx(theta):
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = rx(theta)
    return out


def cswap():
    out = np.eye(8, dtype=complex)
    # control set: |101> and |110> trade places
    out[5, 5] = out[6, 6] = 0.0
    out[5, 6] = out[6, 5] = 1.0
    return out


def oracle_gate(kind, theta=0.0):
    if kind == "Rx":
        return rx(theta)
    if kind == "Ry":
        return ry(theta)
    if kind == "Rz":
        return rz(theta)
    if kind == "ZZ":
        return zz(theta)
    if kind == "CRx":
        return crx(theta)
    raise KeyError(kind)


def lift(gate, targets, n):
    """Embed a k-qubit gate into the 2**n unitary, qubit 0 = most significant.

    Scatter amplitudes basis index by basis index; no reshaping tricks, so
    this stays independent of the implementation under test.
    """
    dim = 2**n
    k = len(targets)
    shifts = [n - 1 - q for q in targets]
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub_in = 0
        for sh in shifts:
            sub_in = (sub_in << 1) | ((col >> sh) & 1)
        base = col
        for sh in shifts:
            base &= ~(1 << sh)
        for sub_out in range(2**k):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            row = base
            for b, sh in enumerate(shifts):
                if (sub_out >> (k - 1 - b)) & 1:
                    row |= 1 << sh
            full[row, col] += amp
    return full


def circuit_matrix(gate_list, theta, n):
    """Product of lifted gates, first gate applied first."""
    u = np.eye(2**n, dtype=complex)
    for spec in gate_list:
        u = lift(oracle_gate(spec.kind, theta[spec.param_index]), spec.targets, n) @ u
    return u


def kraus_blocks(v):
    """keep/discard blocks for an ancilla prepared in |0> as the last qubit."""
    return v[0::2, 0::2], v[1::2, 0::2]


def filter_state(k, rho):
    num = k @ rho @ k.conj().T
    p = float(np.real(np.trace(num)))
    return num / p, p


def ensemble_loop(k, samples):
    """Filter sample by sample and accumulate each class, dividing once.

    Returns the filtered +1 and -1 class states and the per-sample success
    probabilities tr[K rho_m K+].
    """
    dim = k.shape[0]
    sums = {+1: np.zeros((dim, dim), dtype=complex), -1: np.zeros((dim, dim), dtype=complex)}
    mass = {+1: 0.0, -1: 0.0}
    p_s = []
    for s in samples:
        psi = s.state.amplitudes
        filtered = k @ np.outer(psi, psi.conj()) @ k.conj().T
        p = float(np.real(np.trace(filtered)))
        p_s.append(p)
        sums[s.label] += filtered
        mass[s.label] += p
    return sums[+1] / mass[+1], sums[-1] / mass[-1], np.array(p_s)


def hs(a, b):
    d = a - b
    return float(np.real(np.trace(d @ d)))


def risk_from_ensembles(ens):
    """-D_hs of the filtered class ensembles, the training objective at c = 0."""
    return -hs(ens.pos.entries, ens.neg.entries)


def project_bit(amps, qubit, n, outcome=0):
    out = amps.copy()
    for idx in range(out.shape[0]):
        if ((idx >> (n - 1 - qubit)) & 1) != outcome:
            out[idx] = 0.0
    p = float(np.sum(np.abs(out) ** 2))
    return out / math.sqrt(p), p


def marginal_joint(amps, qubits, n):
    """Probability table over the listed qubits, axes in the listed order."""
    probs = np.abs(amps) ** 2
    table = np.zeros([2] * len(qubits))
    for idx, p in enumerate(probs):
        bits = tuple((idx >> (n - 1 - q)) & 1 for q in qubits)
        table[bits] += p
    return table


def classifier_protocol_oracle(states, labels, test, v, n):
    """Dense end-to-end reference for the filtered swap-test classifier.

    Register order: index | train | test | swap | label | F_train F_test.
    Returns (p_postselect, p_class, p_swap_given_class, derived value).
    """
    m = len(states)
    nl = max(1, math.ceil(math.log2(m)))
    n_tot = nl + 2 * n + 2 + 2
    amps = np.zeros(2**n_tot, dtype=complex)
    for i, (psi, y) in enumerate(zip(states, labels)):
        ket_m = np.zeros(2**nl, dtype=complex)
        ket_m[i] = 1.0
        branch = ket_m
        for part in (psi, test, KET0, KET0 if y == +1 else KET1, KET0, KET0):
            branch = np.kron(branch, part)
        amps += branch / math.sqrt(m)
    train_q = tuple(range(nl, nl + n))
    test_q = tuple(range(nl + n, nl + 2 * n))
    swap_q = nl + 2 * n
    label_q = swap_q + 1
    f1, f2 = label_q + 1, label_q + 2

    amps = lift(v, train_q + (f1,), n_tot) @ amps
    amps = lift(v, test_q + (f2,), n_tot) @ amps
    p_post = 1.0
    for anc in (f1, f2):
        amps, p = project_bit(amps, anc, n_tot)
        p_post *= p
    amps = lift(HADAMARD, (swap_q,), n_tot) @ amps
    for qa, qb in zip(train_q, test_q):
        amps = lift(cswap(), (swap_q, qa, qb), n_tot) @ amps
    amps = lift(HADAMARD, (swap_q,), n_tot) @ amps

    joint = marginal_joint(amps, (label_q, swap_q), n_tot)
    p_class = joint.sum(axis=1)
    cond = joint / p_class[:, None]
    value = (cond[0, 0] - cond[0, 1]) - (cond[1, 0] - cond[1, 1])
    return p_post, p_class, cond, float(value)


def risk_protocol_oracle(states, labels, v, n):
    """Dense reference for the two-copy swap-test distance circuit.

    Register order: index1 | data1 | label1 | index2 | data2 | label2 |
    swap | F1 F2. Returns (p_postselect, p_class 4-vector, conditional
    table, derived value).
    """
    m = len(states)
    nl = max(1, math.ceil(math.log2(m)))
    one = np.zeros(2 ** (nl + n + 1), dtype=complex)
    for i, (psi, y) in enumerate(zip(states, labels)):
        ket_m = np.zeros(2**nl, dtype=complex)
        ket_m[i] = 1.0
        one += np.kron(np.kron(ket_m, psi), KET0 if y == +1 else KET1) / math.sqrt(m)
    per_copy = nl + n + 1
    n_tot = 2 * per_copy + 3
    amps = np.kron(np.kron(one, one), np.kron(KET0, np.kron(KET0, KET0)))

    data1 = tuple(range(nl, nl + n))
    data2 = tuple(range(per_copy + nl, per_copy + nl + n))
    label1, label2 = nl + n, per_copy + nl + n
    swap_q = 2 * per_copy
    f1, f2 = swap_q + 1, swap_q + 2

    amps = lift(v, data1 + (f1,), n_tot) @ amps
    amps = lift(v, data2 + (f2,), n_tot) @ amps
    p_post = 1.0
    for anc in (f1, f2):
        amps, p = project_bit(amps, anc, n_tot)
        p_post *= p
    amps = lift(HADAMARD, (swap_q,), n_tot) @ amps
    for qa, qb in zip(data1, data2):
        amps = lift(cswap(), (swap_q, qa, qb), n_tot) @ amps
    amps = lift(HADAMARD, (swap_q,), n_tot) @ amps

    joint = marginal_joint(amps, (label1, label2, swap_q), n_tot).reshape(4, 2)
    p_class = joint.sum(axis=1)
    cond = joint / p_class[:, None]
    ov = 2.0 * cond[:, 0] - 1.0
    value = ov[0] + ov[3] - (ov[1] + ov[2])
    return p_post, p_class, cond, float(value)


# Frozen two-flower constants. With one training point per class, angle
# encoding gives psi_A = (a, sqrt(1-a^2)), psi_B = (0, 1), and for real
# unit vectors D_hs = 2 - 2<A|B>^2 = 2 a^2. The classifier value at the
# test point t is <A|t>^2 - <B|t>^2 with both overlaps real.
IRIS_A = 0.796
IRIS_TEST = -0.557
IRIS_BASELINE_DISTANCE = 2.0 * IRIS_A**2  # 1.267232 exactly in decimal
IRIS_BASELINE_RISK = -IRIS_BASELINE_DISTANCE
_OV_AT = IRIS_A * IRIS_TEST + math.sqrt(1 - IRIS_A**2) * math.sqrt(1 - IRIS_TEST**2)
IRIS_BASELINE_VALUE = _OV_AT**2 - (1 - IRIS_TEST**2)

# Coarse external anchors for the same split; the closed forms above are
# the precise oracle, these just pin the magnitude and sign conventions.
IRIS_REFERENCE_RISK = -1.307
IRIS_REFERENCE_VALUE = -0.718
