"""Workloads, correctness gates and metrics of the qfilter benchmark.

Every workload is a closed loop with one client. It drives the library
through its public entry points only: ``qfilter.cli.main(argv)`` in-process,
and ``qfilter.protocol.run_risk_protocol`` for the register-level risk
verification. The program receives only inputs generated from the seed.

A run has three phases:

1. set-up: generate the seeded blob test set, train the classify model
   through the CLI and rebuild the model's samples for the risk gate;
2. the training-quality panel, once (``train_cost_gain``);
3. the workload's own loop, for at least ``seconds`` and ``min_units`` units,
   with a few units of the other two workloads interleaved (``Plan.reference``)
   so that every end-to-end metric is reported by every workload. The set-up
   is repeated ``setup_repeats - 1`` more times among them (``setup_s`` is
   the median of all): repeats made back to back at the start all fall in
   one phase of the machine's speed, and their medians spread over ten runs
   by 0.17, against 0.05-0.16 spread over the loop.

Single-threaded timings are scaled to a reference machine speed; see ``Recorder``.

With ``trace`` the same schedule runs under the span tracer, and the result
holds the per-layer metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracer import Probe, Tracer

WORKLOADS = ("train-sweep", "classify-stream", "selftest")

# selftest path-equivalence tolerances (values, probabilities)
TOL_VALUE = 1e-9
TOL_PROB = 1e-10
# final_cost against cost() recomputed at theta_star: same arithmetic, so
# only round-off from the JSON float round trip (none expected) is allowed
TOL_REFIT = 1e-12

SUITES = (
    "contractivity",
    "kraus-completeness",
    "risk-identities",
    "path-equivalence-values",
    "path-equivalence-probs",
)


# blob class gap, iris fit flags, classify model dimension (4 features ->
# 2 qubits) and shots of the sampled circuit requests
SEPARATION = 2.0
IRIS_LAYERS = 2
IRIS_INIT_SCALE = 2.5
MODEL_DIMS = 4
SHOTS = 4096

# init seeds of the training-quality panel: iris fits, the same in every run.
# Seeded fits cannot carry a relative bound: over ten workload seeds the mean
# gain of the fit list spreads by about its own median (interquartile range),
# and at 20 epochs the blob fits have barely left their identity start, so
# the iris fit makes nearly all of the progress.
QUALITY_SEEDS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Plan:
    """Problem sizes of one run. FULL is the benchmark; tests use a smaller one.

    reference: how many units of each workload a run of another workload
    interleaves with its own loop; min_units: the least units of its own.
    """

    epochs: int = 20
    fit_dims: tuple[int, ...] = (2, 4, 5)
    cutoffs: tuple[float, ...] = (0.0, 0.5)
    per_class: int = 20
    setup_repeats: int = 9
    min_units: int = 4
    reference: tuple[tuple[str, int], ...] = (
        ("train-sweep", 3), ("classify-stream", 4), ("selftest", 4),
    )


FULL = Plan()


# --------------------------------------------------------------------------
# recording


# reference kernel time on the 2-vCPU machine the benchmark was tuned on, so
# that scaled timings there read as wall times
REF_KERNEL_S = 1.8e-3
_KERNEL_MATRIX = np.full((8, 8), 0.5 + 0.5j)


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter and small-matrix work, no qfilter code.

    The lesser of two timed halves, so one pause (a collection, a preemption)
    does not count as a slow machine.
    """
    halves = []
    for _ in range(2):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(3000):
            acc += i * i
            table[i % 97] = acc
        for _ in range(200):
            _KERNEL_MATRIX @ _KERNEL_MATRIX
        halves.append(time.perf_counter() - start)
    return 2 * min(halves)


@dataclass
class Recorder:
    """Operation outcomes, timing samples and problem sizes of one run.

    Every timing sample is scaled to the reference speed (``timed``): its
    wall time is multiplied by REF_KERNEL_S over the mean of the reference
    kernel's times just before and just after the timed work. The machine
    the benchmark was tuned on (2 shared vCPUs) drifts in speed by +-25% over
    seconds to minutes, with all single-threaded code slowed alike;
    unscaled, the interquartile spread of such a timing over ten seeds
    reached 0.2-0.4 of its median, scaled 0.03-0.16. The kernel
    runs between timed sections, never inside them. The unscaled samples are
    kept in ``raw``; the two-threaded timings are reported from them (see
    ``end_to_end_metrics``).
    """

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    kernel_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    fit_sizes: list[dict] = field(default_factory=list)

    def timed(self, fn):
        """fn()'s result, and its wall seconds scaled and unscaled."""
        return self.timed_each([fn])[0]

    def timed_each(self, fns) -> list[tuple]:
        """``timed`` for several calls in a row, under one pair of kernel runs."""
        before = reference_kernel()
        runs = []
        for fn in fns:
            start = time.perf_counter()
            result = fn()
            runs.append((result, time.perf_counter() - start))
        after = reference_kernel()
        self.kernel_s += [before, after]
        factor = REF_KERNEL_S / ((before + after) / 2)
        return [(result, wall * factor, wall) for result, wall in runs]

    def add(self, key: str, value: float, raw: float | None = None) -> None:
        """One sample; a timing also gives its unscaled seconds."""
        self.samples.setdefault(key, []).append(value)
        if raw is not None:
            self.raw.setdefault(key, []).append(raw)

    def op(self, what: str, fn) -> bool:
        """One operation: fn() -> (ok, detail); an exception is a failure too."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:  # benchmark boundary: count it and keep going
            traceback.print_exc(file=sys.stderr)
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}")
            print(f"failed: {what}: {detail}", file=sys.stderr)
        return ok


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call: exit code and captured stdout."""
    from qfilter import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# --------------------------------------------------------------------------
# inputs


def dataset_from_manifest(descriptor: dict):
    from qfilter.datasets import iris_builtin, synthetic_blobs

    if descriptor["kind"] == "iris":
        return iris_builtin()[0]
    return synthetic_blobs(
        descriptor["seed"], descriptor["per_class"], descriptor["dims"], descriptor["separation"]
    )


def rebuild_model(model: dict):
    """Samples, ansatz and theta of a train result, from its manifest alone."""
    from qfilter.embedding import EmbeddingSpec, embed_dataset
    from qfilter.featuremap import build_ansatz

    cfg = model["manifest"]["config"]
    emb = cfg["embedding"]
    spec = EmbeddingSpec(emb["kind"], emb["n_qubits"])
    samples = embed_dataset(dataset_from_manifest(cfg["dataset"]).pairs(), spec)
    ansatz = build_ansatz(emb["n_qubits"], cfg["ansatz_layers"])
    theta = np.array(model["theta_star"], dtype=float)[: ansatz.n_params]
    return samples, ansatz, theta


def fit_list(plan: Plan, seed: int) -> list[list[str]]:
    """The blob grid of `compare` at each cutoff, then the built-in iris pair."""
    fits = []
    for d in plan.fit_dims:
        for c in plan.cutoffs:
            fits.append([
                "train", "--dataset", "blobs", "--embedding", "amplitude",
                "--dims", str(d), "--per-class", str(plan.per_class),
                "--separation", repr(SEPARATION), "--c", repr(c),
                "--epochs", str(plan.epochs), "--seed", str(seed),
            ])
    fits.append(iris_fit(plan, seed))
    return fits


def iris_fit(plan: Plan, seed: int) -> list[str]:
    return [
        "train", "--dataset", "iris", "--layers", str(IRIS_LAYERS),
        "--init-scale", repr(IRIS_INIT_SCALE),
        "--epochs", str(plan.epochs), "--seed", str(seed),
    ]


@dataclass
class Inputs:
    fits: list[list[str]]
    model_path: str
    model: dict
    points: list[str]
    risk_samples: list
    risk_ansatz: object
    risk_theta: np.ndarray


def unit_setup(plan: Plan, seed: int, workdir: str, rec: Recorder) -> Inputs:
    """One timed set-up."""
    inputs, scaled, raw = rec.timed(lambda: setup(plan, seed, workdir))
    rec.add("setup_s", scaled, raw)
    return inputs


def setup(plan: Plan, seed: int, workdir: str) -> Inputs:
    """Everything a run needs, built from the seed alone."""
    from qfilter.datasets import synthetic_blobs

    model_path = os.path.join(workdir, "model.json")
    rc, _ = run_cli([
        "train", "--dataset", "blobs", "--embedding", "amplitude",
        "--dims", str(MODEL_DIMS), "--per-class", str(plan.per_class),
        "--separation", repr(SEPARATION), "--epochs", str(plan.epochs),
        "--seed", str(seed), "--out", model_path,
    ])
    if rc != 0:
        raise RuntimeError(f"set-up training exited with {rc}")
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    ok, detail = check_fit(model)
    if not ok:
        raise RuntimeError(f"set-up model fails its gate: {detail}")
    test = synthetic_blobs(seed + 1, plan.per_class, MODEL_DIMS, SEPARATION)
    points = [",".join(repr(float(v)) for v in row) for row in test.features]
    samples, ansatz, theta = rebuild_model(model)
    return Inputs(fit_list(plan, seed), model_path, model, points, samples, ansatz, theta)


# --------------------------------------------------------------------------
# correctness gates


def check_fit(out: dict) -> tuple[bool, str]:
    """final_cost equals cost() at theta_star and does not exceed initial_cost."""
    from qfilter import training

    samples, ansatz, theta = rebuild_model(out)
    t = out["manifest"]["config"]["train"]
    again = training.cost(theta, samples, ansatz, t["lambda"], t["cutoff"]).risk
    if abs(again - out["final_cost"]) > TOL_REFIT:
        return False, f"final_cost {out['final_cost']!r} != recomputed {again!r}"
    if out["final_cost"] > out["initial_cost"]:
        return False, f"final_cost {out['final_cost']!r} > initial {out['initial_cost']!r}"
    return True, ""


def check_classify(analytic: dict, circuit: dict, shots: dict) -> tuple[bool, str]:
    """Analytic and exact-circuit answers agree; the shot run keeps the exact p_s."""
    if "error" in analytic or "error" in circuit:
        same = analytic.get("error") == circuit.get("error") == shots.get("error")
        return same, "" if same else "paths disagree on annihilation"
    dv = abs(analytic["value"] - circuit["value"])
    dp = abs(analytic["p_s_test"] - circuit["p_s_test"])
    ds = abs(analytic["p_s_test"] - shots["p_s_test"])
    if dv > TOL_VALUE or dp > TOL_PROB or ds > TOL_PROB:
        return False, f"value residual {dv:.3e}, p_s residuals {dp:.3e} / {ds:.3e}"
    return True, ""


def check_risk(outcome, model: dict) -> tuple[bool, str]:
    """Risk circuit reproduces the model's D_hs and p_post = p_succ^2."""
    dv = abs(outcome.derived_value - model["hs_distance"])
    dp = abs(outcome.p_postselect - model["p_succ"] ** 2)
    if dv > TOL_VALUE or dp > TOL_PROB:
        return False, f"D_hs residual {dv:.3e}, p_postselect residual {dp:.3e}"
    return True, ""


# --------------------------------------------------------------------------
# units of work


def gated_fit(rec: Recorder, gate, argv: list[str], fits: list[dict]) -> tuple[float, float]:
    """One `qfilter train` operation; its gated output is appended to fits.

    Returns the fit's scaled and unscaled seconds (zero if it raised).
    """
    times = [0.0, 0.0]

    def fit() -> tuple[bool, str]:
        (rc, text), times[0], times[1] = rec.timed(lambda: run_cli(argv))
        if rc != 0:
            return False, f"exit {rc}"
        out = json.loads(text)
        with gate():
            ok, detail = check_fit(out)
        fits.append(out)
        return ok, detail

    rec.op("train " + " ".join(argv[1:]), fit)
    return times[0], times[1]


def unit_fit_list(inputs: Inputs, rec: Recorder, gate) -> None:
    """Every fit once; records the list's time (the sum of its fits)."""
    fits: list[dict] = []
    scaled = raw = 0.0
    for argv in inputs.fits:
        s, r = gated_fit(rec, gate, argv, fits)
        scaled, raw = scaled + s, raw + r
    rec.add("train_s", scaled, raw)
    rec.fit_sizes = [{
        "M": out["manifest"]["dataset_fingerprint"]["rows"],
        "qubits": out["manifest"]["config"]["embedding"]["n_qubits"],
        "parameters": len(out["theta_star"]),
        "epochs": out["manifest"]["config"]["train"]["epochs"],
        "dataset": out["manifest"]["config"]["dataset"]["kind"],
        "cutoff": out["manifest"]["config"]["train"]["cutoff"],
    } for out in fits]


def quality_panel(plan: Plan, rec: Recorder) -> None:
    """Mean training gain, initial_cost - final_cost, over the fixed iris panel.

    Deterministic and the same in every run, so a change that trains worse
    (fewer epochs, a coarser gradient) moves it by its own relative size.
    """
    fits: list[dict] = []
    for seed in QUALITY_SEEDS:
        gated_fit(rec, contextlib.nullcontext, iris_fit(plan, seed), fits)
    if fits:
        rec.add("train_cost_gain",
                statistics.fmean(f["initial_cost"] - f["final_cost"] for f in fits))


def unit_classify_pass(inputs: Inputs, rec: Recorder, gate, seed: int) -> None:
    """Every test point on the three request kinds, then one risk verification.

    One operation per point: its analytic, exact-circuit and shot requests
    and the gate comparing them.
    """
    from qfilter import protocol

    def point(i: int, x: str) -> tuple[bool, str]:
        base = ["classify", "--model", inputs.model_path, f"--input={x}", "--seed", str(seed + i)]
        requests = (
            ("analytic", "classify_analytic", ["--path", "analytic"]),
            ("circuit", "classify_circuit", ["--path", "circuit"]),
            ("shots", "classify_circuit", ["--path", "circuit", "--shots", str(SHOTS)]),
        )
        runs = rec.timed_each([lambda extra=extra: run_cli(base + extra)
                               for _, _, extra in requests])
        replies = {}
        for (kind, metric, _), ((rc, text), scaled, raw) in zip(requests, runs):
            rec.add(metric, scaled, raw)
            if rc != 0:
                return False, f"{kind} request exit {rc}"
            replies[kind] = json.loads(text)
        return check_classify(replies["analytic"], replies["circuit"], replies["shots"])

    for i, x in enumerate(inputs.points):
        rec.op(f"classify point {i}", lambda: point(i, x))

    def risk() -> tuple[bool, str]:
        outcome, scaled, raw = rec.timed(lambda: protocol.run_risk_protocol(
            inputs.risk_samples, inputs.risk_ansatz, inputs.risk_theta
        ))
        rec.add("risk_circuit_s", scaled, raw)
        with gate():
            return check_risk(outcome, inputs.model)

    rec.op("risk protocol", risk)


def unit_selftest(rec: Recorder) -> None:
    def selftest() -> tuple[bool, str]:
        (rc, text), scaled, raw = rec.timed(lambda: run_cli(["selftest"]))
        rec.add("selftest_s", scaled, raw)
        out = json.loads(text)
        for suite in out["suites"]:
            rec.add(f"suite:{suite['name']}", suite["seconds"])
        return rc == 0 and out["passed"] is True, f"exit {rc}, passed={out['passed']}"

    rec.op("selftest", selftest)


# --------------------------------------------------------------------------
# tracing probes


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


PROBES = [
    Probe("qfilter.training", "train", "training.train",
          lambda a, k, r: {"epochs": _arg(a, k, 0, "config").epochs}),
    Probe("qfilter.training", "cost", "training.cost"),
    Probe("qfilter.training", "gradient", "training.gradient"),
    Probe("qfilter.classifier", "sentinel_report", "training.sentinel_report"),
    Probe("qfilter.featuremap", "circuit_unitary", "featuremap.circuit_unitary"),
    Probe("qfilter.featuremap", "kraus_from_circuit", "featuremap.kraus_from_circuit"),
    Probe("qfilter.featuremap", "transform_ensemble", "featuremap.transform_ensemble",
          lambda a, k, r: {"samples": len(_arg(a, k, 1, "samples"))}),
    Probe("qfilter.featuremap", "apply_filter", "featuremap.apply_filter"),
    Probe("qfilter.quantum:DensityMatrix", "__post_init__", "quantum.DensityMatrix.init"),
    Probe("qfilter.quantum:UnitaryMatrix", "__post_init__", "quantum.UnitaryMatrix.init"),
    Probe("qfilter.quantum", "trace_norm", "quantum.trace_norm"),
    Probe("qfilter.classifier", "filtered_fidelity_classify",
          "classifier.filtered_fidelity_classify"),
    Probe("qfilter.classifier", "build_ensembles", "classifier.build_ensembles"),
    Probe("qfilter.embedding", "embed_dataset", "embedding.embed_dataset",
          lambda a, k, r: {"samples": len(_arg(a, k, 0, "data"))}),
    Probe("qfilter.embedding", "encode_point", "embedding.encode_point"),
    Probe("qfilter.protocol", "prepare_classifier_state", "protocol.prepare_classifier_state"),
    Probe("qfilter.protocol", "prepare_risk_state", "protocol.prepare_risk_state"),
    Probe("qfilter.protocol", "apply_feature_maps_postselect",
          "protocol.apply_feature_maps_postselect",
          lambda a, k, r: {"qubits": _arg(a, k, 0, "state").n_qubits, "p_post": r[1]}),
    Probe("qfilter.protocol", "run_classifier_protocol", "protocol.run_classifier_protocol"),
    Probe("qfilter.protocol", "run_risk_protocol", "protocol.run_risk_protocol"),
    Probe("qfilter.protocol", "sample_outcomes", "protocol.sample_outcomes"),
    Probe("qfilter.cli", "main", "cli.main"),
    Probe("qfilter.datasets", "synthetic_blobs", "datasets.synthetic_blobs"),
    Probe("qfilter.selftest", "run_all", "selftest.run_all"),
]

# spans reported as calls + self_s (the sentinel probe is reported as a count)
TIMED_LAYERS = [p.name for p in PROBES if p.name != "training.sentinel_report"]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric and its unit."""
    out: dict[str, str] = {}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        if name in ("featuremap.transform_ensemble", "embedding.embed_dataset"):
            out[f"{name}.samples"] = "count"
    for name in ("training.cost_calls_per_epoch", "training.sentinel_hits",
                 "protocol.state_qubits"):
        out[name] = "count"
    out["protocol.state_mib_computed"] = "MiB"
    out["protocol.p_postselect_mean"] = "ratio"
    for suite in SUITES:
        out[f"selftest.{suite}.s"] = "s"
    out["selftest.threads"] = "count"
    out["trace.overhead_s"] = "s"
    out["trace.spans"] = "count"
    return out


def layer_metrics(tracer: Tracer, rec: Recorder, overhead_s: float) -> dict[str, float]:
    from qfilter.selftest import worker_count

    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "measured": 0, "sum": {}, "max": {}}
    row = lambda name: summary.get(name, empty)  # noqa: E731
    values: dict[str, float] = {}
    for name in TIMED_LAYERS:
        values[f"{name}.calls"] = row(name)["calls"]
        values[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("featuremap.transform_ensemble", "embedding.embed_dataset"):
        values[f"{name}.samples"] = int(row(name)["sum"].get("samples", 0))

    # each epoch of train() evaluates cost() the same number of times; the
    # two calls outside the epoch loop are the start point and the final report
    per_train = tracer.descendants_named("training.train", "training.cost")
    epochs = row("training.train")["sum"].get("epochs", 0)
    in_epochs = sum(n - 2 for n in per_train.values())
    values["training.cost_calls_per_epoch"] = in_epochs / epochs if epochs else 0.0
    values["training.sentinel_hits"] = row("training.sentinel_report")["calls"]

    post = row("protocol.apply_feature_maps_postselect")
    qubits = int(post["max"].get("qubits", 0))
    values["protocol.state_qubits"] = qubits
    values["protocol.state_mib_computed"] = 2**qubits * 16 / 2**20 if qubits else 0.0
    values["protocol.p_postselect_mean"] = (
        post["sum"]["p_post"] / post["measured"] if post["measured"] else 0.0
    )
    for suite in SUITES:
        runs = rec.samples.get(f"suite:{suite}", [])
        values[f"selftest.{suite}.s"] = statistics.median(runs) if runs else 0.0
    values["selftest.threads"] = worker_count()
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(tracer.spans)
    return values


# --------------------------------------------------------------------------
# end-to-end metrics


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_cost_gain": "cost",
    "classify_analytic_p50_ms": "ms",
    "classify_analytic_p90_ms": "ms",
    "classify_circuit_p50_ms": "ms",
    "classify_circuit_p90_ms": "ms",
    "risk_circuit_s": "s",
    "selftest_s": "s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}


def end_to_end_metrics(rec: Recorder, peak_rss_mib: float) -> dict:
    """Medians and percentiles of the scaled timing samples (Recorder.timed)."""
    s = rec.samples

    def pct(key: str, q: float) -> float:
        return float(np.percentile(np.array(s[key]) * 1e3, q))

    def unscaled(key: str) -> float:
        # selftest and the risk check run on two threads (the selftest pool,
        # BLAS), whose speed the single-threaded kernel does not track: over
        # six seeds, scaled per sample or by the run's median kernel they
        # spread by up to 0.20-0.28, unscaled by up to 0.14
        return statistics.median(rec.raw[key])

    return {
        "setup_s": statistics.median(s["setup_s"]),
        "train_s": statistics.median(s["train_s"]),
        "train_cost_gain": s["train_cost_gain"][0],
        "classify_analytic_p50_ms": pct("classify_analytic", 50),
        "classify_analytic_p90_ms": pct("classify_analytic", 90),
        "classify_circuit_p50_ms": pct("classify_circuit", 50),
        "classify_circuit_p90_ms": pct("classify_circuit", 90),
        "risk_circuit_s": unscaled("risk_circuit_s"),
        "selftest_s": unscaled("selftest_s"),
        "peak_rss_mib": peak_rss_mib,
        "success_ratio": (rec.attempted - rec.failed) / rec.attempted,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# stamps


def machine_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "platform": platform.platform(),
        "QFILTER_THREADS": os.environ.get("QFILTER_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def problem_stamp(plan: Plan, inputs: Inputs, rec: Recorder) -> dict:
    from qfilter.protocol import classifier_layout, risk_layout
    from qfilter.selftest import worker_count

    m = len(inputs.risk_samples)
    n = inputs.risk_samples[0].state.n_qubits
    return {
        "train-sweep": {"fits": rec.fit_sizes, "quality_panel_seeds": list(QUALITY_SEEDS)},
        "classify-stream": {
            "M": m, "data_qubits": n, "parameters": inputs.risk_ansatz.n_params,
            "epochs": plan.epochs, "test_points": len(inputs.points),
            "classifier_qubits": classifier_layout(m, n).n_qubits,
            "risk_qubits": risk_layout(m, n).n_qubits, "shots": SHOTS,
        },
        "selftest": {"threads": worker_count()},
    }


# --------------------------------------------------------------------------
# a whole run


def reference_slots(plan: Plan, workload: str) -> list[str]:
    """Other workloads' units and the set-up repeats, round-robin, to
    interleave with the run's own loop."""
    queues = [[kind] * n for kind, n in plan.reference if kind != workload]
    queues.append(["setup"] * (plan.setup_repeats - 1))
    slots = []
    while any(queues):
        for q in queues:
            if q:
                slots.append(q.pop())
    return slots


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        plan: Plan = FULL, spans_path: str | None = None) -> tuple[dict, dict]:
    """One benchmark run: (result line, stamp)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rec = Recorder()
    inputs = unit_setup(plan, seed, workdir, rec)
    quality_panel(plan, rec)

    tracer = Tracer(PROBES)
    gate = tracer.paused if trace else contextlib.nullcontext
    units = {
        "train-sweep": lambda: unit_fit_list(inputs, rec, gate),
        "classify-stream": lambda: unit_classify_pass(inputs, rec, gate, seed),
        "selftest": lambda: unit_selftest(rec),
        "setup": lambda: unit_setup(plan, seed, workdir, rec),
    }
    slots = reference_slots(plan, workload)

    def run_unit(kind: str) -> float:
        t0 = time.perf_counter()
        units[kind]()
        return time.perf_counter() - t0

    untraced = []
    if trace:
        # the reference for trace.overhead_s: untraced units of the run's own
        # workload, as many as the traced loop makes at least; their samples
        # (selftest suite times among them) stay out of the traced medians
        untraced = [run_unit(workload) for _ in range(plan.min_units)]
        rec.samples.clear()
        rec.raw.clear()
    counts = dict.fromkeys(units, 0)
    with tracer.installed() if trace else contextlib.nullcontext():
        main_walls = []
        start = time.perf_counter()
        done = 0
        while (len(main_walls) < plan.min_units or done < len(slots)
               or time.perf_counter() - start < seconds):
            main_walls.append(run_unit(workload))
            counts[workload] += 1
            # the other workloads' units are spread evenly over the window
            elapsed = time.perf_counter() - start
            due = len(slots) if elapsed >= seconds else math.ceil(elapsed / seconds * len(slots))
            for kind in slots[done:due]:
                run_unit(kind)
                counts[kind] += 1
            done = max(done, due)
        loop_s = time.perf_counter() - start

    if trace:
        metrics = layer_metrics(
            tracer, rec, statistics.median(main_walls) - statistics.median(untraced)
        )
        units_of = layer_metric_units()
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = end_to_end_metrics(rec, peak_rss_mib())
        units_of = END_TO_END_UNITS
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_stamp(),
        "problem": problem_stamp(plan, inputs, rec),
        "loop": {"seconds": loop_s, "units": counts},
        "samples": {k: len(v) for k, v in sorted(rec.samples.items())},
        "unscaled_median_s": {k: statistics.median(v) for k, v in sorted(rec.raw.items())},
        "reference_kernel_s": {"median": statistics.median(rec.kernel_s),
                               "min": min(rec.kernel_s), "max": max(rec.kernel_s),
                               "ref": REF_KERNEL_S},
        "failures": rec.failures[:20],
    }
    return result, stamp
