"""Tests of the benchmark itself: metric coverage, tracer fidelity, gates.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from tracer import Probe, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE = harness.Plan(
    epochs=2,
    fit_dims=(2,),
    cutoffs=(0.0,),
    per_class=4,
    setup_repeats=1,
    min_units=1,
    reference=(("train-sweep", 1), ("classify-stream", 1), ("selftest", 1)),
)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, tmp_path):
    result, stamp = harness.run(workload, 3, 0, trace, str(tmp_path), plan=SMOKE,
                                spans_path=str(tmp_path / "spans.json") if trace else None)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    if trace:
        spans = json.loads((tmp_path / "spans.json").read_text())
        assert len(spans["spans"]) == result["metrics"]["trace.spans"]["value"]
    else:
        assert stamp["problem"]["train-sweep"]["fits"]
        assert stamp["machine"]["cpus"] >= 1


def test_traced_train_output_matches_untraced():
    argv_list = [
        ["train", "--dataset", "blobs", "--dims", "4", "--per-class", "6",
         "--c", "0.5", "--epochs", "5", "--seed", "7"],
        ["train", "--layers", "2", "--init-scale", "2.5", "--epochs", "5", "--seed", "7"],
    ]
    for argv in argv_list:
        rc, plain = harness.run_cli(argv)
        tracer = Tracer(harness.PROBES)
        with tracer.installed():
            rc_t, traced = harness.run_cli(argv)
        assert rc == rc_t == 0
        a, b = json.loads(plain), json.loads(traced)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b
        assert any(s.name == "training.train" for s in tracer.spans)


def test_tracer_wraps_every_binding_and_restores_them():
    from qfilter import cli, featuremap, training

    original = featuremap.kraus_from_circuit
    tracer = Tracer([Probe("qfilter.featuremap", "kraus_from_circuit", "fm.kraus"),
                     Probe("qfilter.featuremap", "circuit_unitary", "fm.unitary")])
    with tracer.installed():
        for module in (featuremap, training, cli):
            assert module.kraus_from_circuit is not original
        ansatz = featuremap.build_ansatz(1, 1)
        training.kraus_from_circuit(ansatz, ansatz.zero_theta())
    for module in (featuremap, training, cli):
        assert module.kraus_from_circuit is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.name)
    assert (outer.name, inner.name) == ("fm.kraus", "fm.unitary")
    assert inner.parent == outer.sid
    self_t = tracer.self_times()
    assert self_t[outer.sid] == pytest.approx(outer.duration - inner.duration)
    assert self_t[inner.sid] == inner.duration


def test_risk_gate_counts_perturbed_theta_as_failure(tmp_path):
    inputs = harness.setup(SMOKE, 5, str(tmp_path))
    rec = harness.Recorder()
    harness.unit_classify_pass(inputs, rec, contextlib.nullcontext, 5)
    assert rec.failed == 0

    inputs.risk_theta = inputs.risk_theta + 0.3
    rec = harness.Recorder()
    harness.unit_classify_pass(inputs, rec, contextlib.nullcontext, 5)
    assert rec.failed == 1
    assert rec.failures[0].startswith("risk protocol")


def test_fit_gate_rejects_a_final_cost_that_cost_does_not_reproduce():
    rc, text = harness.run_cli(["train", "--epochs", "3", "--seed", "1"])
    out = json.loads(text)
    assert harness.check_fit(out) == (True, "")
    out["final_cost"] -= 1e-9
    ok, detail = harness.check_fit(out)
    assert not ok and "recomputed" in detail


def test_halving_the_epochs_moves_train_cost_gain_past_its_bound():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "train_cost_gain")
    gains = []
    for epochs in (harness.FULL.epochs, harness.FULL.epochs // 2):
        rec = harness.Recorder()
        harness.quality_panel(harness.Plan(epochs=epochs), rec)
        assert rec.failed == 0
        gains.append(rec.samples["train_cost_gain"][0])
    full, half = gains
    assert half < full * (1 - bound)


def test_command_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "selftest",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
