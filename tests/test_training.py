"""Exact and finite-difference gradients, the optimizer loop, and condition comparison."""
import math
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

import oracles
from oracles import basis_state
from qfilter import training
from qfilter.classifier import build_ensembles
from qfilter.embedding import EmbeddedSample, EmbeddingSpec, embed_dataset
from qfilter.errors import ClassAnnihilated, ClassBalanceError, DomainError
from qfilter.featuremap import FeatureMapCircuit, build_ansatz, class_moments, kraus_from_circuit
from qfilter.quantum import GateSpec, hs_distance, random_state
from qfilter.training import (
    STATIONARY_GRADIENT_NORM,
    TrainConfig,
    co_train,
    compare_conditions,
    cost,
    gradient,
    train,
    value_and_gradient,
)


def test_gradient_matches_symbolic_derivative():
    x, y = sp.symbols("x y")
    expr = sp.sin(x) * sp.cos(y) + y**3
    fn = sp.lambdify((x, y), expr, "numpy")
    dx = sp.lambdify((x, y), sp.diff(expr, x), "numpy")
    dy = sp.lambdify((x, y), sp.diff(expr, y), "numpy")
    theta = np.array([0.3, -1.2])
    got = gradient(lambda t: float(fn(t[0], t[1])), theta)
    assert got[0] == pytest.approx(float(dx(*theta)), abs=1e-8)
    assert got[1] == pytest.approx(float(dy(*theta)), abs=1e-8)
    with pytest.raises(DomainError):
        gradient(lambda t: 0.0, theta, h=0.0)


def _sym_rx(t):
    return sp.Matrix([[sp.cos(t / 2), -sp.I * sp.sin(t / 2)],
                      [-sp.I * sp.sin(t / 2), sp.cos(t / 2)]])


def _sym_rz(t):
    return sp.Matrix([[sp.exp(-sp.I * t / 2), 0], [0, sp.exp(sp.I * t / 2)]])


def test_cost_gradient_against_symbolic_circuit():
    """One coordinate of the analytic-cost gradient vs an exact derivative.

    The whole chain (circuit unitary, Kraus block, filtering, distance) is
    rebuilt symbolically for the one-system-qubit ansatz, differentiated
    with sympy, and compared against the central-difference gradient.
    """
    ansatz = build_ansatz(1, 1)
    theta0 = np.array([0.4, -0.7, 1.1, 0.2, -0.5])
    psi_a = np.array([0.6, 0.8])
    psi_b = np.array([1.0, 0.0])
    samples = [
        EmbeddedSample(__import__("qfilter").StateVector(psi_a, 1), +1, 0),
        EmbeddedSample(__import__("qfilter").StateVector(psi_b, 1), -1, 1),
    ]

    t = sp.Symbol("t", real=True)
    coord = 4  # the CRx angle
    p = [sp.Float(v) for v in theta0]
    p[coord] = t
    eye2 = sp.eye(2)
    # qubit 0 = system (most significant), qubit 1 = ancilla
    v = sp.kronecker_product(_sym_rx(p[0]), eye2)
    v = sp.kronecker_product(eye2, _sym_rx(p[1])) * v
    v = sp.kronecker_product(_sym_rz(p[2]), eye2) * v
    v = sp.kronecker_product(eye2, _sym_rz(p[3])) * v
    crx = sp.eye(4)
    crx[2:, 2:] = _sym_rx(p[4])
    v = crx * v
    k = v[0::2, 0::2]  # ancilla bit 0 in and out

    def sym_filtered(psi):
        rho = sp.Matrix(np.outer(psi, psi))
        num = k * rho * k.H
        return num / sp.trace(num)

    diff = sym_filtered(psi_a) - sym_filtered(psi_b)
    d_hs = sp.trace(diff * diff)
    deriv = sp.lambdify(t, sp.diff(-d_hs, t), "numpy")
    want = complex(deriv(theta0[coord])).real

    def scalar(th):
        return cost(th, samples, ansatz, lam=1.0, cutoff=0.0).risk

    got = gradient(scalar, theta0)[coord]
    assert got == pytest.approx(want, abs=1e-7)


def _random_samples(n_qubits, m, seed):
    return [
        EmbeddedSample(random_state(seed * 1000 + j, n_qubits), (+1, -1)[j % 2], j)
        for j in range(m)
    ]


def test_exact_gradient_matches_finite_differences():
    """The adjoint gradient against gradient(), the central-difference oracle."""
    hinge = set()
    for n in (1, 2, 3):
        for layers in (1, 2):
            ansatz = build_ansatz(n, layers)
            samples = _random_samples(n, 10, n)
            moments = class_moments(samples)
            theta = np.random.default_rng(10 * n + layers).uniform(-np.pi, np.pi, ansatz.n_params)
            for c in (0.0, 0.5, 0.9):
                rep, g = value_and_gradient(theta, moments, ansatz, 1.0, c)
                want = cost(theta, samples, ansatz, 1.0, c)
                assert rep.risk == pytest.approx(want.risk, abs=1e-14)
                fd = gradient(lambda t: cost(t, samples, ansatz, 1.0, c).risk, theta)
                np.testing.assert_allclose(g, fd, rtol=0, atol=1e-8, err_msg=f"{n}, {layers}, {c}")
                hinge.add(rep.penalty > 0)
    assert hinge == {True, False}


def test_cost_matches_per_sample_oracle():
    for n, layers, c in [(1, 1, 0.0), (2, 2, 0.5), (3, 1, 0.9), (2, 1, 1.0)]:
        ansatz = build_ansatz(n, layers)
        samples = _random_samples(n, 15, 7 + n)
        theta = np.random.default_rng(n + layers).uniform(-np.pi, np.pi, ansatz.n_params)
        pos, neg, p_s = oracles.ensemble_loop(kraus_from_circuit(ansatz, theta).keep, samples)
        lam = 2.0
        want = -oracles.hs(pos, neg) + lam * max(0.0, c - p_s.mean())
        rep = cost(theta, samples, ansatz, lam, c)
        assert rep.risk == pytest.approx(want, abs=1e-12)
        assert rep.p_succ == pytest.approx(p_s.mean(), abs=1e-15)


def test_cost_is_baseline_risk_at_zero_theta():
    samples = [
        EmbeddedSample(random_state(1, 1), +1, 0),
        EmbeddedSample(random_state(2, 1), -1, 1),
    ]
    ansatz = build_ansatz(1, 1)
    rep = cost(ansatz.zero_theta(), samples, ansatz, lam=1.0, cutoff=0.0)
    rho, sigma = build_ensembles(samples)
    assert rep.risk == pytest.approx(-hs_distance(rho, sigma), abs=1e-15)
    assert rep.penalty == 0.0


def test_cost_sentinel_on_class_annihilation():
    # CRx(pi) filter kills |1>; the -1 class is exactly |1>
    circuit = FeatureMapCircuit(1, 1, (GateSpec("CRx", (0, 1), param_index=0),), 1)
    samples = [
        EmbeddedSample(basis_state(1, 0), +1, 0),
        EmbeddedSample(basis_state(1, 1), -1, 1),
    ]
    rep = cost(np.array([math.pi]), samples, circuit, lam=1.0, cutoff=0.5)
    assert rep.risk == 2.0
    assert rep.p_succ == 0.0
    assert rep.penalty == pytest.approx(0.5)
    same, g = value_and_gradient(np.array([math.pi]), class_moments(samples), circuit, 1.0, 0.5)
    assert same == rep
    np.testing.assert_array_equal(g, [0.0])


def test_cost_and_train_reject_empty_samples():
    # no sample, no class to filter: an input error, not the +2 sentinel
    ansatz = build_ansatz(1, 1)
    with pytest.raises(ClassAnnihilated, match="no samples"):
        cost(ansatz.zero_theta(), [], ansatz, lam=1.0, cutoff=0.0)
    with pytest.raises(ClassAnnihilated, match="no samples"):
        train(TrainConfig(epochs=1), [], ansatz)


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        TrainConfig(epochs=-1)
    with pytest.raises(DomainError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(DomainError):
        TrainConfig(lam=-0.1)
    with pytest.raises(DomainError):
        TrainConfig(cutoff=1.5)


def _iris_samples():
    from qfilter.datasets import iris_builtin

    ds, _ = iris_builtin()
    return embed_dataset(ds.pairs(), EmbeddingSpec("angle", 1))


def test_train_records_traces_and_never_degrades():
    samples = _iris_samples()
    ansatz = build_ansatz(1, 1)
    res = train(TrainConfig(epochs=30, seed=3, init_scale=0.5), samples, ansatz)
    assert res.cost_trace.shape == (31,)
    assert res.p_succ_trace.shape == (31,)
    # best-seen: the reported risk is the minimum of the trace, re-evaluated
    assert res.report.risk == min(res.cost_trace)
    assert res.report.risk <= res.cost_trace[0]
    assert res.theta_star.shape == (ansatz.n_params,)


def test_train_zero_epochs_returns_initial_point():
    samples = _iris_samples()
    ansatz = build_ansatz(1, 1)
    res = train(TrainConfig(epochs=0), samples, ansatz)
    np.testing.assert_array_equal(res.theta_star, np.zeros(ansatz.n_params))
    assert res.cost_trace.shape == (1,)
    rho, sigma = build_ensembles(samples)
    assert res.cost_trace[0] == pytest.approx(-hs_distance(rho, sigma), abs=1e-15)


def test_train_is_deterministic_per_seed():
    samples = _iris_samples()
    ansatz = build_ansatz(1, 1)
    cfg = TrainConfig(epochs=20, seed=11, init_scale=1.0)
    a = train(cfg, samples, ansatz)
    b = train(cfg, samples, ansatz)
    np.testing.assert_array_equal(a.theta_star, b.theta_star)
    np.testing.assert_array_equal(a.cost_trace, b.cost_trace)
    c = train(TrainConfig(epochs=20, seed=12, init_scale=1.0), samples, ansatz)
    assert not np.array_equal(a.theta_star, c.theta_star)


def test_identity_start_escapes_the_stationary_point(monkeypatch):
    """At theta = 0 the cost is even in every coordinate, so its gradient
    vanishes up to roundoff; the seeded kick must still fire and move."""
    samples = _iris_samples()
    ansatz = build_ansatz(1, 2)
    cfg = TrainConfig(epochs=60, seed=0)
    _, g0 = value_and_gradient(ansatz.zero_theta(), class_moments(samples), ansatz, 1.0, 0.0)
    assert np.linalg.norm(g0) <= STATIONARY_GRADIENT_NORM
    direction = np.random.default_rng([cfg.seed, 0x5ADD1E]).standard_normal(ansatz.n_params)
    kick = training.KICK_STEP * direction / np.linalg.norm(direction)
    kicked = cost(kick, samples, ansatz, 1.0, 0.0)

    exact = value_and_gradient

    def with_residue(*args):
        # a gradient that is tiny but not bitwise zero at the start
        report, g = exact(*args)
        return report, g + 1e-14

    for evaluate in (exact, with_residue):
        monkeypatch.setattr(training, "value_and_gradient", evaluate)
        res = train(cfg, samples, ansatz)
        assert res.cost_trace.shape == (61,)
        # the first epoch is the kick, not an optimizer step
        assert res.cost_trace[1] == pytest.approx(kicked.risk, abs=1e-14)
        # moved off the saddle and improved
        assert np.any(res.theta_star != 0.0)
        assert res.report.risk < res.cost_trace[0] - 1e-3


def test_train_sgd_also_improves():
    samples = _iris_samples()
    ansatz = build_ansatz(1, 1)
    res = train(
        TrainConfig(epochs=40, optimizer="sgd", learning_rate=0.2, seed=5, init_scale=1.0),
        samples,
        ansatz,
    )
    assert res.report.risk <= res.cost_trace[0]


def test_cutoff_penalty_keeps_success_probability_up():
    samples = _iris_samples()
    ansatz = build_ansatz(1, 2)
    free = train(TrainConfig(epochs=120, seed=0), samples, ansatz)
    held = train(TrainConfig(epochs=120, seed=0, cutoff=0.9, lam=4.0), samples, ansatz)
    assert held.report.p_succ > free.report.p_succ
    assert held.report.p_succ > 0.6


def test_co_training_extends_the_parameter_vector():
    raw = [
        (np.array([0.3]), +1),
        (np.array([-0.9]), -1),
        (np.array([0.5]), +1),
        (np.array([-0.2]), -1),
    ]
    spec = EmbeddingSpec("pca-layer", 1, params=(0.0,))
    ansatz = build_ansatz(1, 1)
    cfg = TrainConfig(epochs=5, seed=1, init_scale=0.3)
    res = co_train(cfg, raw, spec, ansatz)
    assert res.theta_star.shape == (ansatz.n_params + 1,)
    assert res.report.risk == min(res.cost_trace)


def test_overflowing_parameters_raise_a_domain_error():
    """A start offset or a step too large for a float raises, without a
    numpy warning, before the cost sees a non-finite angle."""
    samples = _iris_samples()
    ansatz = build_ansatz(1, 2)
    with pytest.raises(DomainError, match="overflow"):
        train(TrainConfig(epochs=1, init_scale=1.7e308), samples, ansatz)
    # a unit gradient and SGD at lr 1e308 overflow theta in the second step
    from qfilter.classifier import constrained_risk

    report = constrained_risk(-1.0, 1.0, 1.0, 0.0)
    sgd = TrainConfig(epochs=3, optimizer="sgd", learning_rate=1e308)
    with pytest.raises(DomainError, match="overflow"):
        training._descend(sgd, lambda t: (report, np.ones_like(t)), np.zeros(2))
    raw = [(np.array([0.3]), +1), (np.array([-0.9]), -1)]
    spec = EmbeddingSpec("pca-layer", 1, params=(0.0,))
    with pytest.raises(DomainError, match="overflow"):
        co_train(TrainConfig(epochs=1, init_scale=1.7e308), raw, spec, ansatz)


def test_co_training_never_embeds_point_by_point(monkeypatch):
    """co_train reads the labels from the raw rows and embeds them in one
    batch, so the per-point encoder is never called."""
    from qfilter import embedding

    def refuse(*args):
        raise AssertionError("encode_point called")

    monkeypatch.setattr(embedding, "encode_point", refuse)
    raw = [(np.array([0.3, -0.4]), +1), (np.array([-0.9, 0.2]), -1), (np.array([0.5, 0.1]), +1)]
    spec = EmbeddingSpec("pca-layer", 2, params=(0.0,) * 3)
    res = co_train(TrainConfig(epochs=3, seed=1, init_scale=0.3), raw, spec, build_ansatz(2, 1))
    assert len(res.cost_trace) == 4


@pytest.mark.parametrize("c", [0.0, 0.9])
@pytest.mark.parametrize("ring", [False, True])
@pytest.mark.parametrize("embed_layers", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_co_training_gradient_matches_finite_differences(k, embed_layers, ring, c):
    """One SGD step of the co-trained loop against central differences of
    the full cost, with the data re-embedded at every evaluation; at
    c = 0.9 the success-probability hinge is active."""
    rng = np.random.default_rng(10 * k + embed_layers)
    raw = [(rng.uniform(-np.pi, np.pi, k), (+1, -1)[m % 2]) for m in range(6)]
    count = EmbeddingSpec("pca-layer", k, layers=embed_layers, ring=ring).param_count()
    angles = tuple(rng.uniform(-1.0, 1.0, count))
    spec = EmbeddingSpec("pca-layer", k, params=angles, layers=embed_layers, ring=ring)
    ansatz = build_ansatz(k, 1)
    lr = 1e-3
    cfg = TrainConfig(epochs=0, optimizer="sgd", learning_rate=lr, seed=2, init_scale=1.5, cutoff=c)
    theta0 = co_train(cfg, raw, spec, ansatz).theta_star
    step = co_train(replace(cfg, epochs=1), raw, spec, ansatz)

    def full_report(t):
        smp = embed_dataset(raw, replace(spec, params=tuple(t[ansatz.n_params :])))
        return cost(t[: ansatz.n_params], smp, ansatz, cfg.lam, cfg.cutoff)

    assert (full_report(theta0).penalty > 0) == (c > 0)
    assert step.report.risk < step.cost_trace[0]
    np.testing.assert_allclose(
        (theta0 - step.theta_star) / lr,
        gradient(lambda t: full_report(t).risk, theta0),
        rtol=0,
        atol=1e-7,
    )


def test_co_training_requires_raw_data_and_trainable_embedding():
    ansatz = build_ansatz(1, 1)
    cfg = TrainConfig(epochs=1)
    raw = [(np.array([0.3]), +1), (np.array([-0.3]), -1)]
    with pytest.raises(DomainError, match="trainable angles"):
        co_train(cfg, raw, EmbeddingSpec("angle", 1), ansatz)
    # the raw rows must hold both labels, checked as embed_dataset() checks them
    one_class = [(x, +1) for x, _ in raw]
    spec = EmbeddingSpec("pca-layer", 1, params=(0.0,))
    with pytest.raises(ClassBalanceError, match=r"need both labels \+1 and -1, got \[1\]"):
        co_train(cfg, one_class, spec, ansatz)
    with pytest.raises(ClassBalanceError, match=r"got \[1\]"):
        embed_dataset(one_class, spec)


def test_compare_condition_names_and_validation():
    """An arm is named by its cutoff; a --conditions entry that is neither
    embedding-only nor c=<x> is refused."""
    from qfilter.cli import _cutoff

    assert _cutoff("embedding-only") is None
    assert _cutoff(" c=0.5 ") == 0.5
    with pytest.raises(DomainError, match="bad condition 'kernel'"):
        _cutoff("kernel")
    with pytest.raises(DomainError, match="bad cutoff"):
        _cutoff("c=x")
    samples = _iris_samples()
    rows = compare_conditions(samples, samples, [None, 0.5], build_ansatz(1, 1),
                              TrainConfig(epochs=0, seed=0))
    assert [r["condition"] for r in rows] == ["embedding-only", "feature-map-c0.5"]


def test_compare_conditions_rows():
    from qfilter.datasets import synthetic_blobs

    ds = synthetic_blobs(0, 6, 2, 2.5)
    spec = EmbeddingSpec("amplitude", 1)
    samples = embed_dataset(ds.pairs(), spec)
    test_ds = synthetic_blobs(1, 4, 2, 2.5)
    test_samples = embed_dataset(test_ds.pairs(), spec)
    ansatz = build_ansatz(1, 1)
    rows = compare_conditions(samples, test_samples, [None, 0.0], ansatz,
                              TrainConfig(epochs=15, seed=0))
    assert [r["condition"] for r in rows] == ["embedding-only", "feature-map-c0"]
    emb, fm = rows
    assert emb["p_succ_train"] == 1.0
    assert emb["p_succ_total"] == 1.0
    assert 0.0 <= emb["accuracy"] <= 1.0
    # identity start makes the trained arm at least as separated
    assert fm["hs_distance"] >= emb["hs_distance"] - 1e-9
    assert 0.0 < fm["p_succ_train"] <= 1.0 + 1e-12
    assert set(fm) == {"condition", "hs_distance", "p_succ_train", "p_succ_total", "accuracy"}
