"""Fidelity classifiers, weighted empirical risk, and the cutoff objective."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import check_labels
from .embedding import SampleSet
from .errors import ClassBalanceError, DomainError, ShapeError
from .featuremap import TransformedEnsembles, apply_filter, transform_ensemble
from .quantum import DensityMatrix, overlap

TIE_EPS = 1e-12
SENTINEL_COST = 2.0


@dataclass(frozen=True)
class ClassifierOutput:
    """Classifier value and the test point's success probability p_s_test."""

    value: float
    p_s_test: float = 1.0

    @property
    def tie(self) -> bool:
        """|value| <= TIE_EPS; a tie decides +1."""
        return abs(self.value) <= TIE_EPS

    @property
    def decision(self) -> int | None:
        """The one sign rule: +1, -1, +1 on a tie; None for a non-finite value (unsampled shots)."""
        if not math.isfinite(self.value):
            return None
        return +1 if self.tie or self.value > 0 else -1


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
    ens = transform_ensemble(np.eye(2**samples.n_qubits, dtype=complex), samples)
    return ens.pos, ens.neg


def fidelity_classify(
    rho: DensityMatrix, sigma: DensityMatrix, test: DensityMatrix
) -> ClassifierOutput:
    """tr[(rho - sigma) test]: positive favors the +1 class."""
    return ClassifierOutput(overlap(rho, test) - overlap(sigma, test))


def filtered_fidelity_classify(
    ens: TransformedEnsembles, k: np.ndarray, test: DensityMatrix
) -> ClassifierOutput:
    """Filter the test state with K, then classify it against the filtered ensembles."""
    test_f, p_s = apply_filter(k, test)
    return replace(fidelity_classify(ens.pos, ens.neg, test_f), p_s_test=p_s)


def filtered_class_weights(labels: np.ndarray, p_s: np.ndarray) -> np.ndarray:
    """Post-selected weights M * p_s(x_m) / p_s(class of m).

    With p_s = 1 (the identity filter) they are the baseline weights M / M_class.
    """
    y = np.asarray(labels)
    p = np.asarray(p_s, dtype=float)
    if y.shape != p.shape:
        raise ShapeError(f"labels {y.shape} vs p_s {p.shape}")
    m = y.shape[0]
    class_p = {lab: float(p[y == lab].sum()) for lab in (+1, -1)}
    if class_p[+1] <= 0 or class_p[-1] <= 0:
        raise ClassBalanceError("a class has zero total success probability")
    return np.array([m * p[i] / class_p[int(y[i])] for i in range(m)], dtype=float)


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
