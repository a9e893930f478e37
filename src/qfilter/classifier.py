"""Fidelity classifiers, weighted empirical risk, and the cutoff objective."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import check_labels
from .embedding import SampleSet
from .errors import ClassBalanceError, DomainError, ShapeError
from .featuremap import EPS_ANNIHILATION, apply_filter, check_success, transform_ensemble
from .quantum import DensityMatrix, StateVector, check_unit_rows

TIE_EPS = 1e-12
SENTINEL_COST = 2.0


def sign_rule(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one sign rule on an array of values: (decisions, ties).

    |value| <= TIE_EPS is a tie and decides +1; any other finite value decides
    its sign; a non-finite one (an annihilated row, unsampled shots) decides 0.
    """
    v = np.asarray(values, dtype=float)
    tie = np.abs(v) <= TIE_EPS
    return np.where(np.isfinite(v), np.where(tie | (v > 0), 1, -1), 0), tie


@dataclass(frozen=True)
class ClassifierOutput:
    """Classifier value and the test point's success probability p_s_test."""

    value: float
    p_s_test: float = 1.0

    @property
    def tie(self) -> bool:
        """|value| <= TIE_EPS; a tie decides +1."""
        return bool(sign_rule(self.value)[1])

    @property
    def decision(self) -> int | None:
        """sign_rule() on the value: +1, -1, +1 on a tie; None for a non-finite value."""
        return int(sign_rule(self.value)[0]) or None


@dataclass(frozen=True)
class RiskReport:
    """Cutoff-constrained cost: what was measured or set, and the parts it derives."""

    hs_distance: float
    p_succ: float
    lam: float
    cutoff: float

    @property
    def penalty(self) -> float:
        """lam * max(0, cutoff - p_succ)."""
        return self.lam * max(0.0, self.cutoff - self.p_succ)

    @property
    def risk(self) -> float:
        """-hs_distance + penalty."""
        return -self.hs_distance + self.penalty


def build_ensembles(samples: SampleSet) -> tuple[DensityMatrix, DensityMatrix]:
    """Uniform per-class mixtures (weights 1/M_class), +1 class first.

    These are the ensembles of the identity filter, so any filter that acts
    as the identity reproduces them bit-for-bit.
    """
    check_labels(samples.labels.tolist())
    return transform_ensemble(np.eye(2**samples.n_qubits, dtype=complex), samples)


def classify_rows(
    states: tuple[DensityMatrix, DensityMatrix], k: np.ndarray, amplitudes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values <K psi|D|K psi> / p_s and p_s = ||K psi||^2 of the rows psi of amplitudes.

    D = rho'+ - rho'- holds the filtered class states (rho'+, rho'-), as
    transform_ensemble() returns them, so a value is
    tr[D K rho K+] / p_s for rho = |psi><psi|, read without forming the
    filtered state; positive favors +1. It is NaN where check_success()
    refuses p_s. A row off unit norm by more than ATOL_INPUT raises NormError.
    """
    amps = np.ascontiguousarray(amplitudes, dtype=complex)
    check_unit_rows(amps)
    kpsi, p_s = apply_filter(k, amps)
    pos, neg = states
    d_kpsi = (pos.entries - neg.entries) @ kpsi
    # Re <K psi|D K psi> per column, on real views with (re, im) as a last axis
    parts = [z.view(float).reshape(*z.shape, 2) for z in (kpsi, d_kpsi)]
    values = np.einsum("imc,imc->m", *parts)
    kept = p_s > EPS_ANNIHILATION
    np.divide(values, p_s, out=values, where=kept)
    values[~kept] = math.nan
    return values, p_s


def filtered_fidelity_classify(
    states: tuple[DensityMatrix, DensityMatrix], k: np.ndarray, test: StateVector
) -> ClassifierOutput:
    """classify_rows() on one test state; FilterAnnihilated where its value would be NaN."""
    (value,), (p_s,) = (a.tolist() for a in classify_rows(states, k, test.amplitudes[None]))
    check_success(p_s)
    return ClassifierOutput(value, p_s)


def filtered_class_weights(labels: np.ndarray, p_s: np.ndarray) -> np.ndarray:
    """Post-selected weights M * p_s(x_m) / p_s(class of m).

    With p_s = 1 (the identity filter) they are the baseline weights M / M_class.
    """
    y = np.asarray(labels)
    p = np.asarray(p_s, dtype=float)
    if y.shape != p.shape:
        raise ShapeError(f"labels {y.shape} vs p_s {p.shape}")
    p_pos, p_neg = (float(p[y == lab].sum()) for lab in (+1, -1))
    if p_pos <= 0 or p_neg <= 0:
        raise ClassBalanceError("a class has zero total success probability")
    return y.shape[0] * p / np.where(y == 1, p_pos, p_neg)


def weighted_empirical_risk(
    values: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> float:
    """-(1/M) sum_m w_m f(x_m) y_m."""
    v = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (v.shape == y.shape == w.shape):
        raise ShapeError(f"shapes differ: {v.shape}, {y.shape}, {w.shape}")
    return float(-(w * v * y).sum() / v.shape[0])


def constrained_risk(risk: float, p_succ: float, lam: float, cutoff: float) -> RiskReport:
    """Hinge-penalized objective: risk + lam * max(0, cutoff - p_succ)."""
    if not 0 <= lam < math.inf:
        raise DomainError(f"lambda must be finite and >= 0, got {lam}")
    if not 0.0 <= cutoff <= 1.0:
        raise DomainError(f"cutoff must be in [0, 1], got {cutoff}")
    if not -1e-9 <= p_succ <= 1.0 + 1e-9:
        raise DomainError(f"p_succ must be in [0, 1], got {p_succ}")
    return RiskReport(-risk, min(max(p_succ, 0.0), 1.0), lam, cutoff)


def sentinel_report(lam: float, cutoff: float) -> RiskReport:
    """Stand-in when a filter annihilates an entire class: cost +2, p_succ 0.

    A feasible cost -hs_distance + penalty lies in [-2, lam * cutoff], so +2
    exceeds every one only while lam * cutoff < 2. hs_distance = penalty - 2
    is back-derived so that the derived risk reads exactly +2; DomainError
    where floating point cannot give that (a penalty from about 2**54 on).
    """
    penalty = lam * max(0.0, cutoff)
    report = RiskReport(penalty - SENTINEL_COST, 0.0, lam, cutoff)
    if report.risk != SENTINEL_COST:
        raise DomainError(f"a penalty of {penalty:.3e} leaves no exact +2 sentinel cost")
    return report
