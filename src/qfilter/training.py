"""Gradient training of the filter circuit on the analytic cost path."""
from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .classifier import (
    RiskReport,
    classify_rows,
    constrained_risk,
    sentinel_report,
    sign_rule,
)
from .datasets import check_labels
from .embedding import EmbeddingSpec, SampleSet, finite_rows, pca_layer_states
from .errors import ClassAnnihilated, DomainError, ShapeError, check_budget
from .featuremap import (
    ClassMoments,
    FeatureMapCircuit,
    class_moments,
    column_moments,
    filter_moments,
    kraus_from_circuit,
    kraus_with_pullback,
    transform_ensemble,
)
from .quantum import DensityMatrix, gate_pass_bytes, hs_distance

# train() kicks instead of stepping when the gradient norm is at most this:
# at a stationary point, such as the identity start, the exact gradient
# vanishes only up to roundoff
STATIONARY_GRADIENT_NORM = 1e-12
# length of that seeded kick
KICK_STEP = 1e-5
# Bytes a co-trained fit holds per embedding angle on top of the embedding's
# gate pass: the optimizer's arrays (theta, the best theta, the gradient,
# Adam's m and v and their temporaries) and the angle's share of the saved
# model, whose theta_star holds every angle (measured: about 190 B of peak
# RSS per angle; see CHANGES.md)
CO_TRAIN_ANGLE_BYTES = 256


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    lam: float = 1.0
    cutoff: float = 0.0
    init_scale: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise DomainError("learning rate must be positive")
        if self.epochs < 0:
            raise DomainError("epochs must be >= 0")
        if not 0 <= self.lam < math.inf:
            raise DomainError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.cutoff <= 1.0:
            raise DomainError("cutoff must be in [0, 1]")
        if not 0 <= self.init_scale < math.inf:
            raise DomainError(f"init_scale must be finite and >= 0, got {self.init_scale}")


@dataclass(frozen=True)
class TrainResult:
    theta_star: np.ndarray
    cost_trace: np.ndarray
    p_succ_trace: np.ndarray
    report: RiskReport
    wall_time: float


def moment_cost(
    k: np.ndarray, moments: ClassMoments, lam: float, cutoff: float
) -> tuple[RiskReport, np.ndarray, np.ndarray]:
    """Constrained risk of the filtered class moments, and its cotangents.

    With the filtered class sums N+- = K A+- K+, their masses P+- = tr N+-,
    rho+- = N+- / P+- and Delta = rho+ - rho-, the distance D = tr[Delta^2]
    changes by dD = sum_s tr[G_s dN_s], G+- = +-2 (Delta - tr[Delta rho+-]) / P+-.
    So d risk = sum_s tr[W_s dN_s] with W_s = -G_s, less lam I / M while the
    hinge on p_succ = (P+ + P-) / M is active, and X = sum_s A_s K+ W_s gives
    d risk = 2 Re tr[X dK]. Returns the report, X and [W+, W-] as one array; a class
    annihilated by the filter gives the +2 sentinel and zero cotangents.

    K and the states are plain arrays, as in the training loop: K is a block
    of an isometry by construction, and the values are those hs_distance()
    gives on the checked states (see filter_moments()).
    """
    try:
        rho, masses = filter_moments(k, moments)
    except ClassAnnihilated:
        zero = np.zeros_like(k)
        return sentinel_report(lam, cutoff), zero, np.stack([zero, zero])
    p_succ = (masses[0] + masses[1]) / moments.count
    delta = rho[0] - rho[1]
    report = constrained_risk(-float(np.sum(np.abs(delta) ** 2)), p_succ, lam, cutoff)
    k_dag = k.conj().T
    eye = np.eye(k.shape[0])
    # both classes at once: g_s = Delta - tr[Delta rho_s] I, so G_s = scale_s g_s with
    # scale = (2 / P+, -2 / P-), W_s = -G_s and X = -sum_s scale_s A_s K+ g_s
    g = delta - np.array([np.vdot(r, delta).real for r in rho])[:, None, None] * eye
    scale = np.array([2 / masses[0], -2 / masses[1]])[:, None, None]
    parts = scale * (moments.stack @ k_dag @ g)
    x = -(parts[0] + parts[1])
    w = -scale * g
    if report.penalty > 0:
        x -= (lam / moments.count) * ((moments.stack[0] + moments.stack[1]) @ k_dag)
        w = w - (lam / moments.count) * eye
    return report, x, w


def cost(
    theta: np.ndarray,
    samples: SampleSet,
    ansatz: FeatureMapCircuit,
    lam: float,
    cutoff: float,
) -> RiskReport:
    """Constrained risk at theta; +2 sentinel if the filter kills a class.

    An empty sample set has no classes to filter and raises
    ClassAnnihilated.
    """
    k = kraus_from_circuit(ansatz, theta)
    return moment_cost(k, class_moments(samples), lam, cutoff)[0]


def value_and_gradient(
    theta: np.ndarray,
    moments: ClassMoments,
    ansatz: FeatureMapCircuit,
    lam: float,
    cutoff: float,
) -> tuple[RiskReport, np.ndarray]:
    """cost() on precomputed class moments, with its exact gradient in theta.

    One forward pass over the gates gives K, one backward pass the whole
    gradient (adjoint products), whatever the number of parameters. The
    sentinel has a zero gradient.
    """
    block, pullback = kraus_with_pullback(ansatz, theta)
    report, x, _ = moment_cost(block[0::2], moments, lam, cutoff)
    return report, pullback(x)


def gradient(fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one axis at a time."""
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    t = np.asarray(theta, dtype=float)
    g = np.zeros_like(t)
    for i in range(t.shape[0]):
        step = np.zeros_like(t)
        step[i] = h
        g[i] = (fn(t + step) - fn(t - step)) / (2 * h)
    return g


def _adam_update(state: dict, g: np.ndarray, lr: float) -> np.ndarray:
    b1, b2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    state["m"] = b1 * state["m"] + (1 - b1) * g
    state["v"] = b2 * state["v"] + (1 - b2) * g * g
    m_hat = state["m"] / (1 - b1 ** state["t"])
    v_hat = state["v"] / (1 - b2 ** state["t"])
    return lr * m_hat / (np.sqrt(v_hat) + eps)


def train(
    config: TrainConfig, samples: SampleSet, ansatz: FeatureMapCircuit
) -> TrainResult:
    """Minimize the constrained risk of a fixed embedding; deterministic per seed.

    Every epoch makes one evaluation of the cost and its exact gradient on
    the class moments (value_and_gradient()). Returns the best theta seen
    and its report, so the final cost never exceeds the initial one (the
    circuit starts at the exact identity when init_scale = 0).
    """
    moments = class_moments(samples)
    return _descend(
        config,
        lambda t: value_and_gradient(t, moments, ansatz, config.lam, config.cutoff),
        np.zeros(ansatz.n_params),
    )


def co_train(
    config: TrainConfig,
    features: np.ndarray,
    labels: np.ndarray,
    spec: EmbeddingSpec,
    ansatz: FeatureMapCircuit,
) -> TrainResult:
    """train() with the trainable pca-layer angles of spec appended to theta.

    features holds the preprocessed rows and labels their +1/-1 labels; a
    row holding a NaN or an infinity is refused here, once. The rows are
    re-embedded at every evaluation, and the angles' gradient comes from
    the same backward pass as the filter's: sample m of class s has the
    state cotangent (K+ W_s K) psi_m (see moment_cost()).
    """
    if spec.param_count() == 0:
        raise DomainError("co-training needs an embedding with trainable angles")
    xs, labels = finite_rows(features), np.asarray(labels)
    if labels.shape != xs.shape[:1]:
        raise ShapeError(f"features {xs.shape} vs labels {labels.shape}")
    check_labels(labels.tolist())
    n_angles, n_ansatz, rows = spec.param_count(), ansatz.n_params, len(labels)
    # the gate pass, the states and their cotangent, and the per-angle state
    check_budget(
        gate_pass_bytes(n_angles, spec.n_qubits, rows)
        + 2 * 2**spec.n_qubits * rows * 16
        + n_angles * CO_TRAIN_ANGLE_BYTES,
        f"co-training a {spec.n_qubits}-qubit, {spec.layers}-layer embedding of {rows} rows"
        " needs {} MiB for its gate pass and optimizer state",
    )

    def evaluate(t: np.ndarray) -> tuple[RiskReport, np.ndarray]:
        psi, embed_pullback = pca_layer_states(xs, spec, t[n_ansatz:])
        block, pullback = kraus_with_pullback(ansatz, t[:n_ansatz])
        k = block[0::2]
        report, x, w = moment_cost(k, column_moments(psi, labels), config.lam, config.cutoff)
        adj = np.empty_like(psi)
        for label, w_s in zip((+1, -1), w):
            adj[:, labels == label] = k.conj().T @ w_s @ k @ psi[:, labels == label]
        return report, np.concatenate([pullback(x), embed_pullback(adj)])

    theta0 = np.concatenate([np.zeros(n_ansatz), np.asarray(spec.params, float)])
    return _descend(config, evaluate, theta0)


def _descend(
    config: TrainConfig,
    evaluate: Callable[[np.ndarray], tuple[RiskReport, np.ndarray]],
    theta0: np.ndarray,
) -> TrainResult:
    """Adam on evaluate: theta -> (report, gradient), from theta0.

    With init_scale > 0 the start moves by a seeded Gaussian offset.
    Returns the best theta seen and its report.
    """
    start = time.perf_counter()
    theta, cost_trace, p_succ_trace = theta0, [], []
    adam_state = {"t": 0, "m": np.zeros_like(theta), "v": np.zeros_like(theta)}
    # the identity start is a stationary point (the cost is even in theta
    # there), so it needs a seeded escape kick
    kick_rng = np.random.default_rng([config.seed, 0x5ADD1E])
    for epoch in range(config.epochs + 1):
        # the start offset or a step may overflow; theta itself is checked
        with np.errstate(over="ignore", invalid="ignore"):
            if epoch == 0:
                if config.init_scale > 0:
                    rng = np.random.default_rng(config.seed)
                    theta = theta + config.init_scale * rng.standard_normal(theta.shape)
            elif np.linalg.norm(g) <= STATIONARY_GRADIENT_NORM:
                direction = kick_rng.standard_normal(theta.shape)
                theta = theta + KICK_STEP * direction / np.linalg.norm(direction)
            else:
                theta = theta - _adam_update(adam_state, g, config.learning_rate)
        if not np.isfinite(theta).all():
            raise DomainError("theta overflows: init_scale or the learning rate is too large")
        current, g = evaluate(theta)
        cost_trace.append(current.risk)
        p_succ_trace.append(current.p_succ)
        if epoch == 0 or current.risk < best.risk:
            best_theta, best = theta, current
    return TrainResult(
        theta_star=best_theta,
        cost_trace=np.array(cost_trace),
        p_succ_trace=np.array(p_succ_trace),
        report=best,
        wall_time=time.perf_counter() - start,
    )


def _filtered_eval(
    states: tuple[DensityMatrix, DensityMatrix], k: np.ndarray, test_samples: SampleSet
) -> tuple[float, float]:
    """(accuracy among filter successes, mean test p_s) of K and its filtered class states.

    An annihilated row has no decision and adds to neither count nor to the
    sum of p_s; the mean divides that sum by the number of test rows.
    """
    values, p_s = classify_rows(states, k, test_samples.amplitudes)
    decisions = sign_rule(values)[0]
    success = decisions != 0
    successes = np.count_nonzero(success)
    if successes == 0:
        return float("nan"), 0.0
    hits = np.count_nonzero(decisions == test_samples.labels)
    return float(hits / successes), float(np.sum(p_s, where=success)) / len(test_samples)


def compare_conditions(
    samples: SampleSet,
    test_samples: SampleSet,
    cutoffs: list[float | None],
    ansatz: FeatureMapCircuit,
    config: TrainConfig,
) -> list[dict]:
    """Seed-matched arms sharing one dataset; rows are JSON friendly.

    An arm is its cutoff: None is the embedding-only arm, the identity
    filter K = I, and c is a filter trained with config at cutoff c. Every
    arm is scored the same way, on the ensembles its K gives.
    """
    rows = []
    for c in cutoffs:
        if c is None:
            k = np.eye(2**ansatz.n_system, dtype=complex)
        else:
            result = train(replace(config, cutoff=c), samples, ansatz)
            k = kraus_from_circuit(ansatz, result.theta_star)
        states = transform_ensemble(k, samples)
        accuracy, mean_test_p = _filtered_eval(states, k, test_samples)
        if c is None:
            row = {
                "condition": "embedding-only",
                "hs_distance": hs_distance(*states),
                "p_succ_train": 1.0,
                "p_succ_total": 1.0,
            }
        else:
            row = {
                "condition": f"feature-map-c{c:g}",
                "hs_distance": result.report.hs_distance,
                "p_succ_train": result.report.p_succ,
                "p_succ_total": result.report.p_succ * mean_test_p,
            }
        rows.append(row | {"accuracy": accuracy})
    return rows
