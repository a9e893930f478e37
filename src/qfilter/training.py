"""Gradient training of the filter circuit on the analytic cost path."""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .classifier import (
    RiskReport,
    build_ensembles,
    constrained_risk,
    fidelity_classify,
    filtered_fidelity_classify,
    sentinel_report,
)
from .datasets import check_labels
from .embedding import EmbeddedSample, EmbeddingSpec, pca_layer_states
from .errors import ClassAnnihilated, DomainError, FilterAnnihilated
from .featuremap import (
    ClassMoments,
    FeatureMapCircuit,
    KrausPair,
    class_moments,
    column_moments,
    filter_moments,
    kraus_from_circuit,
    kraus_with_pullback,
    transform_ensemble,
)
from .quantum import hs_distance, pure_to_density

# train() kicks instead of stepping when the gradient norm is at most this:
# at a stationary point, such as the identity start, the exact gradient
# vanishes only up to roundoff
STATIONARY_GRADIENT_NORM = 1e-12
# length of that seeded kick
KICK_STEP = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    optimizer: str = "adam"
    lam: float = 1.0
    cutoff: float = 0.0
    init_scale: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise DomainError("learning rate must be positive")
        if self.epochs < 0:
            raise DomainError("epochs must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise DomainError(f"unknown optimizer {self.optimizer!r}")
        if self.lam < 0:
            raise DomainError("lambda must be >= 0")
        if not 0.0 <= self.cutoff <= 1.0:
            raise DomainError("cutoff must be in [0, 1]")


@dataclass(frozen=True)
class TrainResult:
    theta_star: np.ndarray
    cost_trace: np.ndarray
    p_succ_trace: np.ndarray
    report: RiskReport
    seed: int
    wall_time: float


def moment_cost(
    pair: KrausPair, moments: ClassMoments, lam: float, cutoff: float
) -> tuple[RiskReport, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Constrained risk of the filtered class moments, and its cotangents.

    With the filtered class sums N+- = K A+- K+, their masses P+- = tr N+-,
    rho+- = N+- / P+- and Delta = rho+ - rho-, the distance D = tr[Delta^2]
    changes by dD = sum_s tr[G_s dN_s], G+- = +-2 (Delta - tr[Delta rho+-]) / P+-.
    So d risk = sum_s tr[W_s dN_s] with W_s = -G_s, less lam I / M while the
    hinge on p_succ = (P+ + P-) / M is active, and X = sum_s A_s K+ W_s gives
    d risk = 2 Re tr[X dK]. Returns the report, X and (W+, W-); a class
    annihilated by the filter gives the +2 sentinel and zero cotangents.
    """
    k = pair.keep
    try:
        pos, neg, mass_pos, mass_neg = filter_moments(pair, moments)
    except ClassAnnihilated:
        zero = np.zeros_like(k)
        return sentinel_report(lam, cutoff), zero, (zero, zero)
    p_succ = (mass_pos + mass_neg) / moments.count
    report = constrained_risk(-hs_distance(pos, neg), p_succ, lam, cutoff)
    delta = pos.entries - neg.entries
    k_dag = k.conj().T
    eye = np.eye(k.shape[0])
    x = np.zeros_like(k)
    w = []
    for sign, rho, mass, a in ((1, pos, mass_pos, moments.pos), (-1, neg, mass_neg, moments.neg)):
        g = delta - np.real(np.vdot(rho.entries, delta)) * eye
        x -= (2 * sign / mass) * (a @ k_dag @ g)
        w.append((-2 * sign / mass) * g)
    if report.penalty > 0:
        x -= (lam / moments.count) * ((moments.pos + moments.neg) @ k_dag)
        w = [w_s - (lam / moments.count) * eye for w_s in w]
    return report, x, tuple(w)


def cost(
    theta: np.ndarray,
    samples: list[EmbeddedSample],
    ansatz: FeatureMapCircuit,
    lam: float,
    cutoff: float,
) -> RiskReport:
    """Constrained risk at theta; +2 sentinel if the filter kills a class.

    An empty sample list has no classes to filter and raises
    ClassAnnihilated.
    """
    return moment_cost(kraus_from_circuit(ansatz, theta), class_moments(samples), lam, cutoff)[0]


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
    pair, pullback = kraus_with_pullback(ansatz, theta)
    report, x, _ = moment_cost(pair, moments, lam, cutoff)
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
    config: TrainConfig, samples: list[EmbeddedSample], ansatz: FeatureMapCircuit
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
    raw_data: list[tuple[np.ndarray, int]],
    spec: EmbeddingSpec,
    ansatz: FeatureMapCircuit,
) -> TrainResult:
    """train() with the trainable pca-layer angles of spec appended to theta.

    The raw rows are re-embedded at every evaluation, and the angles'
    gradient comes from the same backward pass as the filter's: sample m
    of class s has the state cotangent (K+ W_s K) psi_m (see moment_cost()).
    """
    if spec.param_count() == 0:
        raise DomainError("co-training needs an embedding with trainable angles")
    labels = np.array([y for _, y in raw_data])
    check_labels(labels.tolist())
    xs = np.array([x for x, _ in raw_data])
    n_ansatz = ansatz.n_params

    def evaluate(t: np.ndarray) -> tuple[RiskReport, np.ndarray]:
        psi, embed_pullback = pca_layer_states(xs, replace(spec, params=tuple(t[n_ansatz:])))
        pair, pullback = kraus_with_pullback(ansatz, t[:n_ansatz])
        moments = column_moments(psi, labels, spec.n_qubits)
        report, x, w = moment_cost(pair, moments, config.lam, config.cutoff)
        k = pair.keep
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
    """Adam or SGD on evaluate: theta -> (report, gradient), from theta0.

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
            elif config.optimizer == "adam":
                theta = theta - _adam_update(adam_state, g, config.learning_rate)
            else:
                theta = theta - config.learning_rate * g
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
        seed=config.seed,
        wall_time=time.perf_counter() - start,
    )


def _filtered_eval(
    ens, pair: KrausPair, test_samples: list[EmbeddedSample]
) -> tuple[float, float]:
    """(accuracy among filter successes, mean test p_s)."""
    hits = 0
    successes = 0
    p_sum = 0.0
    for s in test_samples:
        try:
            out = filtered_fidelity_classify(ens, pair, pure_to_density(s.state))
        except FilterAnnihilated:
            continue
        successes += 1
        p_sum += out.p_s_test
        if out.decision == s.label:
            hits += 1
    if successes == 0:
        return float("nan"), 0.0
    return hits / successes, p_sum / len(test_samples)


def compare_conditions(
    samples: list[EmbeddedSample],
    test_samples: list[EmbeddedSample],
    cutoffs: list[float | None],
    ansatz: FeatureMapCircuit,
    config: TrainConfig,
) -> list[dict]:
    """Seed-matched arms sharing one dataset; rows are CSV/JSON friendly.

    An arm is its cutoff: None is the embedding-only arm, without a filter,
    and c is a filter trained with config at cutoff c.
    """
    rows = []
    for c in cutoffs:
        if c is None:
            rho, sigma = build_ensembles(samples)
            hits = sum(
                fidelity_classify(rho, sigma, pure_to_density(s.state)).decision == s.label
                for s in test_samples
            )
            rows.append(
                {
                    "condition": "embedding-only",
                    "hs_distance": hs_distance(rho, sigma),
                    "p_succ_train": 1.0,
                    "p_succ_total": 1.0,
                    "accuracy": hits / len(test_samples) if test_samples else float("nan"),
                }
            )
            continue
        result = train(replace(config, cutoff=c), samples, ansatz)
        pair = kraus_from_circuit(ansatz, result.theta_star)
        ens = transform_ensemble(pair, samples)
        accuracy, mean_test_p = _filtered_eval(ens, pair, test_samples)
        rows.append(
            {
                "condition": f"feature-map-c{c:g}",
                "hs_distance": result.report.hs_distance,
                "p_succ_train": result.report.p_succ,
                "p_succ_total": result.report.p_succ * mean_test_p,
                "accuracy": accuracy,
            }
        )
    return rows
