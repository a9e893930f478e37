"""Command-line behavior: JSON/CSV artifacts, exit codes, reproducibility."""
import csv
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfilter import embedding, errors, quantum, training
from qfilter.cli import main
from qfilter.datasets import iris_builtin
from qfilter.errors import QFilterError


def _run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code, None
    return code, capsys.readouterr().out


def _strip_wall_time(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if "wall_time" not in l)


def test_train_stdout_json_shape(capsys):
    code, out = _run(["train", "--dataset", "iris", "--epochs", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    man = payload["manifest"]
    assert man["command"] == "train"
    assert man["config"]["dataset"] == {"kind": "iris"}
    assert man["config"]["embedding"]["kind"] == "angle"  # iris default
    assert man["config"]["train"]["epochs"] == 0
    assert set(man["dataset_fingerprint"]) == {"rows", "dims", "sha256"}
    assert man["dataset_fingerprint"]["rows"] == 2
    # identity filter at epoch 0
    assert payload["initial_cost"] == payload["final_cost"]
    assert payload["p_succ"] == pytest.approx(1.0)
    assert payload["theta_star"] == [0.0] * 5
    assert len(payload["cost_trace"]) == 1


def test_train_writes_file_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["train", "--dataset", "blobs", "--per-class", "4", "--dims", "2",
            "--epochs", "8", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    a, b = out1.read_text(), out2.read_text()
    assert a != "" and a.endswith("\n")
    assert _strip_wall_time(a) == _strip_wall_time(b)


def test_train_seed_changes_the_blob_data(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["train", "--dataset", "blobs", "--per-class", "4", "--epochs", "0"]
    main(base + ["--seed", "0", "--out", str(out1)])
    main(base + ["--seed", "1", "--out", str(out2)])
    fp1 = json.loads(out1.read_text())["manifest"]["dataset_fingerprint"]["sha256"]
    fp2 = json.loads(out2.read_text())["manifest"]["dataset_fingerprint"]["sha256"]
    assert fp1 != fp2


def test_classify_analytic_matches_library(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)]) == 0
    code, out = _run(
        ["classify", "--model", str(model), "--input=-0.557,0.83"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    # identity filter: the classifier value is the baseline closed form
    import oracles

    assert payload["value"] == pytest.approx(oracles.IRIS_BASELINE_VALUE, abs=1e-12)
    assert payload["decision"] == -1
    assert payload["tie_flag"] is False
    assert payload["p_s_test"] == pytest.approx(1.0)
    assert payload["manifest"]["command"] == "classify"
    assert payload["manifest"]["input"] == [-0.557, 0.83]


def test_classify_circuit_path_agrees_with_analytic(tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", "--dataset", "iris", "--epochs", "25", "--layers", "2",
          "--init-scale", "1.0", "--seed", "4", "--out", str(model)])
    code, out = _run(
        ["classify", "--model", str(model), "--input", "0.3,0.9"], capsys
    )
    analytic = json.loads(out)
    code, out = _run(
        ["classify", "--model", str(model), "--input", "0.3,0.9", "--path", "circuit"],
        capsys,
    )
    circuit = json.loads(out)
    assert code == 0
    assert circuit["value"] == pytest.approx(analytic["value"], abs=1e-9)
    assert circuit["p_s_test"] == pytest.approx(analytic["p_s_test"], abs=1e-9)
    assert circuit["decision"] == analytic["decision"]


def test_circuit_classify_takes_no_analytic_route(tmp_path, capsys, monkeypatch):
    """The circuit path reads p_s_test from the test register's own
    post-selection, so it never builds K or the ensembles."""
    from qfilter import cli

    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--epochs", "10", "--init-scale", "1.0",
                 "--out", str(model)]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("the circuit path took the analytic route")

    monkeypatch.setattr(cli, "kraus_from_circuit", forbidden)
    monkeypatch.setattr(cli, "transform_ensemble", forbidden)
    argv = ["classify", "--model", str(model), "--input", "0.3,0.9", "--path", "circuit"]
    for extra in ([], ["--shots", "200"]):
        code, out = _run(argv + extra, capsys)
        assert code == 0
        payload = json.loads(out)
        assert "error" not in payload and 0 < payload["p_s_test"] <= 1


@pytest.mark.parametrize("train_flags, point", [
    (["--dataset", "iris", "--layers", "2", "--init-scale", "2.5"], "0.3,0.9"),
    (["--dataset", "blobs", "--dims", "4", "--init-scale", "0.8"], "0.5,-0.2,0.1,0.9"),
    (["--dataset", "blobs", "--dims", "4", "--embedding", "pca:2", "--init-scale", "0.8"],
     "0.5,-0.2,0.1,0.9"),
])
def test_circuit_p_s_test_matches_the_analytic_path(tmp_path, capsys, train_flags, point):
    model = tmp_path / "model.json"
    assert main(["train", *train_flags, "--epochs", "15", "--out", str(model)]) == 0
    argv = ["classify", "--model", str(model), "--input", point]
    _, analytic = _run(argv, capsys)
    _, circuit = _run(argv + ["--path", "circuit"], capsys)
    analytic, circuit = json.loads(analytic), json.loads(circuit)
    assert circuit["value"] == pytest.approx(analytic["value"], abs=1e-9)
    assert circuit["p_s_test"] == pytest.approx(analytic["p_s_test"], abs=1e-10)
    assert 0 < circuit["p_s_test"] < 1


@pytest.mark.parametrize("init_scale, decision, p_succ", [("0", +1, 0.2155), ("2.5", -1, 0.3185)])
def test_iris_starts_reach_two_optimum_families(tmp_path, capsys, init_scale, decision, p_succ):
    """At --layers 2 the identity start and a wide start both reach the
    largest class separation, D_hs = 2, in different optimum families: the
    first classifies the built-in test point +1, the second keeps it at -1
    with a higher post-selection rate."""
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--layers", "2", "--init-scale", init_scale,
                 "--out", str(model)]) == 0
    trained = json.loads(model.read_text())
    assert abs(trained["hs_distance"] - 2.0) <= 1e-9
    assert round(trained["p_succ"], 4) == p_succ
    _, (x, _) = iris_builtin()
    point = ",".join(map(repr, x.tolist()))
    code, out = _run(["classify", "--model", str(model), f"--input={point}"], capsys)
    assert code == 0
    assert json.loads(out)["decision"] == decision


def test_the_cached_parser_leaks_no_flag_between_calls(tmp_path, capsys):
    from qfilter.cli import build_parser

    assert build_parser() is build_parser()
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)]) == 0
    argv = ["classify", "--model", str(model), "--input", "0.3,0.9", "--path", "circuit"]
    _, first = _run(argv + ["--shots", "5"], capsys)
    _, second = _run(argv, capsys)
    assert json.loads(first)["manifest"]["shots"] == 5
    assert json.loads(second)["manifest"]["shots"] == 0
    fit = ["train", "--dataset", "blobs", "--dims", "3", "--embedding", "pca:2", "--epochs", "1"]
    _, co_trained = _run(fit + ["--co-train"], capsys)
    _, plain = _run(fit, capsys)
    assert json.loads(co_trained)["manifest"]["config"]["train"]["co_train_embedding"] is True
    assert json.loads(plain)["manifest"]["config"]["train"]["co_train_embedding"] is False


def _iris_model_with_theta(tmp_path, theta) -> str:
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    payload["theta_star"] = theta
    model.write_text(json.dumps(payload))
    return str(model)


_PATHS = (["--path", "analytic"], ["--path", "circuit"], ["--path", "circuit", "--shots", "50"])


@pytest.mark.parametrize("theta, point, lost", [
    # Rx(pi) on the ancilla: every sample and the input fail the post-selection
    ([0, math.pi, 0, 0, 0], "0.5,0.2", "+1"),
    # CRx(pi) keeps only |0>: the -1 sample |1> and the input 0,1 (|1>) fail it
    ([0, 0, 0, 0, math.pi], "0,1", "-1"),
])
def test_a_lost_class_fails_before_the_test_point_on_every_path(
    tmp_path, capsys, theta, point, lost
):
    model = _iris_model_with_theta(tmp_path, theta)
    for path in _PATHS:
        assert main(["classify", "--model", model, "--input", point, *path]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: class {lost} annihilated by the filter\n"
        assert captured.out == ""


def test_a_faint_class_that_survives_is_answered_on_every_path(tmp_path, capsys):
    # CRx(pi) keeps only |0>: the -1 row keeps p_s = 1.96e-12, over
    # EPS_ANNIHILATION, although its label cell holds a share of only 2e-13
    csv_path = tmp_path / "faint.csv"
    csv_path.write_text("a,b,label\n" + "1,0,1\n" * 10 + "1.4e-6,1,-1\n")
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", f"csv:{csv_path}", "--embedding", "amplitude",
                 "--epochs", "0", "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    payload["theta_star"] = [0, 0, 0, 0, math.pi]
    model.write_text(json.dumps(payload))
    answers = []
    for path in _PATHS:
        code, out = _run(["classify", "--model", str(model), "--input", "1,0.5", *path], capsys)
        assert code == 0
        answers.append(json.loads(out))
    analytic, circuit, shots = answers
    assert "error" not in analytic and "error" not in circuit and "error" not in shots
    assert abs(circuit["value"] - analytic["value"]) <= 1e-9
    for answer in (circuit, shots):
        assert abs(answer["p_s_test"] - analytic["p_s_test"]) <= 1e-10


def test_an_annihilated_test_point_is_an_answer_on_every_path(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "blobs", "--epochs", "0", "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    payload["theta_star"] = [0, 0, 0, 0, math.pi]  # CRx(pi): K = |0><0|
    model.write_text(json.dumps(payload))
    for point in ("0,1", "1e-7,1"):  # p_s = 0 and 1e-14
        for path in _PATHS:
            code, out = _run(["classify", "--model", str(model), "--input", point, *path],
                             capsys)
            assert code == 0
            answer = json.loads(out)
            assert answer["error"] == "filter-annihilated"
            assert (answer["value"], answer["decision"], answer["p_s_test"]) == (None, None, 0.0)


def test_classify_circuit_over_the_register_budget_exits_3(tmp_path, capsys, monkeypatch):
    from qfilter import errors

    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "blobs", "--dims", "4", "--per-class", "16",
                 "--epochs", "0", "--out", str(model)]) == 0
    # 32 samples of 2 qubits, a 10-qubit classifier register, 32768 B buffer; the
    # sample set (16,384 B) and the filter's gate pass (7168 B) fit
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 32767)
    argv = ["classify", "--model", str(model), "--input", "0.3,0.9,0.1,0.2"]
    assert main(argv + ["--path", "circuit"]) == 3
    captured = capsys.readouterr()
    assert "error: a 10-qubit register needs" in captured.err
    assert "Traceback" not in captured.err
    assert main(argv) == 0  # the analytic path allocates no register


_LIBRARY_ERRORS = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, QFilterError)),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("error", _LIBRARY_ERRORS, ids=lambda c: c.__name__)
def test_every_library_error_exits_3(error, capsys, monkeypatch):
    """One rule: whatever QFilterError a command raises is a data error, not a traceback."""
    from qfilter import cli

    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "transform_ensemble", failing)
    assert main(["train", "--dataset", "iris", "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: injected")
    assert "Traceback" not in err


def test_classify_with_shots_is_seeded(tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)])
    argv = ["classify", "--model", str(model), "--input", "0.2,0.9",
            "--path", "circuit", "--shots", "500", "--seed", "9"]
    _, out_a = _run(argv, capsys)
    _, out_b = _run(argv, capsys)
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["manifest"]["shots"] == 500
    assert payload["value"] is not None
    assert abs(payload["value"]) <= 2.0


def test_classify_pca_model_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    rng = np.random.default_rng(0)
    rows = ["f0,f1,f2,f3,label"]
    for i in range(12):
        y = 1 if i % 2 == 0 else -1
        x = rng.standard_normal(4) + (1.5 * y, 0, 0, 0)
        rows.append(",".join(f"{v:.6f}" for v in x) + f",{y}")
    csv_path.write_text("\n".join(rows) + "\n")
    model = tmp_path / "model.json"
    code = main(["train", "--dataset", f"csv:{csv_path}", "--embedding", "pca:2",
                 "--epochs", "5", "--out", str(model)])
    assert code == 0
    saved = json.loads(model.read_text())
    emb = saved["manifest"]["config"]["embedding"]
    assert emb["kind"] == "pca-layer"
    assert len(emb["pca_components"]) == 4
    code, out = _run(
        ["classify", "--model", str(model), "--input", "0.5,0.1,-0.2,0.3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] in (+1, -1)


def test_classify_input_of_the_wrong_width_exits_3(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a,b,c,label\n0.1,0.9,0.3,1\n0.8,0.1,-0.2,-1\n0.4,0.5,0.1,1\n")
    for embedding in ("pca:2", "amplitude", "angle"):
        model = tmp_path / f"{embedding.replace(':', '')}.json"
        assert main(["train", "--dataset", f"csv:{data}", "--embedding", embedding,
                     "--epochs", "1", "--out", str(model)]) == 0
        for point in ("0.5,0.1", "0.5,0.1,0.2,0.3"):
            assert main(["classify", "--model", str(model), "--input", point]) == 3
            err = capsys.readouterr().err
            assert "error: the input has" in err and "the model's data 3" in err
            assert "Traceback" not in err


def test_co_train_appends_embedding_angles(tmp_path):
    csv_path = tmp_path / "train.csv"
    rng = np.random.default_rng(1)
    rows = ["f0,f1,f2,label"]
    for i in range(8):
        y = 1 if i % 2 == 0 else -1
        x = rng.standard_normal(3) + (y, 0, 0)
        rows.append(",".join(f"{v:.6f}" for v in x) + f",{y}")
    csv_path.write_text("\n".join(rows) + "\n")
    model = tmp_path / "model.json"
    code = main(["train", "--dataset", f"csv:{csv_path}", "--embedding", "pca:2",
                 "--co-train", "--epochs", "4", "--init-scale", "0.2",
                 "--out", str(model)])
    assert code == 0
    saved = json.loads(model.read_text())
    emb = saved["manifest"]["config"]["embedding"]
    # trained embedding angles are persisted in the manifest
    assert len(emb["params"]) == 3
    ansatz_params = 8  # build_ansatz(2 qubits, 1 layer)
    assert len(saved["theta_star"]) == ansatz_params + 3


def test_co_train_embeds_the_data_once(tmp_path, monkeypatch):
    """A co-trained fit embeds the dataset only for its final ensemble,
    after training: one batch of all six rows at the trained angles."""
    calls = []
    embed = embedding.embed_rows

    def counted(features, labels, spec):
        calls.append((len(labels), spec.params))
        return embed(features, labels, spec)

    monkeypatch.setattr(embedding, "embed_rows", counted)
    csv_path = tmp_path / "train.csv"
    rows = ["f0,f1,label"] + [f"{0.1 * i:.1f},{(-1) ** i * 0.3:.1f},{(-1) ** i}" for i in range(6)]
    csv_path.write_text("\n".join(rows) + "\n")
    argv = ["train", "--dataset", f"csv:{csv_path}", "--embedding", "pca:2", "--co-train",
            "--epochs", "3", "--init-scale", "0.2", "--out", str(tmp_path / "m.json")]
    assert main(argv) == 0
    trained = tuple(json.loads((tmp_path / "m.json").read_text())
                    ["manifest"]["config"]["embedding"]["params"])
    assert calls == [(6, trained)]


def test_compare_emits_json_and_csv(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(["compare", "--dataset", "blobs", "--per-class", "4",
                 "--dim-sweep", "2,3", "--epochs", "5",
                 "--conditions", "embedding-only,c=0,c=0.5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    assert len(rows) == 6  # 3 conditions x 2 dims
    assert {r["condition"] for r in rows} == {"embedding-only", "feature-map-c0", "feature-map-c0.5"}
    assert sorted({r["d"] for r in rows}) == [2, 3]

    csv_file = tmp_path / "cmp.csv"
    with open(csv_file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["condition", "d", "hs_distance", "p_succ_train", "p_succ_total", "accuracy"]
    assert len(body) == 6
    # repr round-trip: CSV floats reparse to the JSON values exactly
    for row, ref in zip(body, rows):
        assert float(row[2]) == ref["hs_distance"]


def test_compare_csv_lands_beside_an_out_path_in_a_dotted_directory(tmp_path):
    out = tmp_path / "res.v2" / "out"
    out.parent.mkdir()
    argv = ["compare", "--dataset", "blobs", "--per-class", "4", "--epochs", "1", "--out", str(out)]
    assert main(argv) == 0
    assert (tmp_path / "res.v2" / "out.csv").exists()
    assert not (tmp_path / "res.csv").exists()


def test_compare_out_that_is_its_own_csv_path_exits_2(tmp_path, capsys, monkeypatch):
    """--out res.csv would have the CSV overwrite the JSON: refused before training."""
    from qfilter import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("trained before the usage check")

    monkeypatch.setattr(cli, "compare_conditions", forbidden)
    for out in (tmp_path / "res.csv", tmp_path / "res.v2" / "out.csv"):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--dataset", "iris", "--epochs", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "compare's CSV" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_compare_manifest_records_the_training_flags(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(["compare", "--dataset", "blobs", "--per-class", "3", "--epochs", "2",
                 "--embedding", "pca:2", "--embed-layers", "2", "--ring",
                 "--lr", "0.1", "--init-scale", "0.5", "--out", str(out)])
    assert code == 0
    config = json.loads(out.read_text())["manifest"]["config"]
    assert "optimizer" not in config
    assert config["learning_rate"] == 0.1
    assert config["init_scale"] == 0.5
    assert config["embed_layers"] == 2
    assert config["ring"] is True


TINY_CSV = (
    "f0,f1,f2,label\n0.9,0.1,0.2,1\n-0.8,0.3,0.1,-1\n0.7,-0.2,0.4,1\n"
    "-0.9,0.1,-0.3,-1\n0.6,0.2,0.1,1\n-0.7,-0.1,0.2,-1\n"
)


@pytest.mark.parametrize("dataset,scored_on", [("csv", "train"), ("blobs", "test"), ("iris", "test")])
def test_compare_manifest_says_which_rows_it_scored_on(tmp_path, dataset, scored_on):
    """CSV data is scored on its training rows, blobs and iris on held-out points."""
    if dataset == "csv":
        (tmp_path / "tiny.csv").write_text(TINY_CSV)
        dataset = f"csv:{tmp_path / 'tiny.csv'}"
    out = tmp_path / "cmp.json"
    argv = ["compare", "--dataset", dataset, "--epochs", "2", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["manifest"]["accuracy_on"] == scored_on
    # the label lives in the manifest only: the CSV header is unchanged
    with open(tmp_path / "cmp.csv", newline="") as fh:
        assert "accuracy_on" not in next(csv.reader(fh))


def test_compare_needs_two_conditions():
    code = main(["compare", "--dataset", "iris", "--conditions", "c=0", "--epochs", "1"])
    assert code == 3


def test_selftest_fault_injection_fails(monkeypatch, capsys):
    """Negative control: a non-unitary Rx fails the suites that build circuits."""
    gate_array = quantum.gate_array
    monkeypatch.setattr(
        quantum, "gate_array",
        lambda kind, c, s: (1.001 if kind == "Rx" else 1) * gate_array(kind, c, s),
    )
    code, out = _run(["selftest"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    suites = {s["name"]: s for s in payload["suites"]}
    assert list(suites) == [
        "contractivity",
        "kraus-completeness",
        "risk-identities",
        "path-equivalence-values",
        "path-equivalence-probs",
    ]
    assert suites["contractivity"]["failures"] == 0
    # the unchecked block V P0: a finite residual on every instance
    completeness = suites["kraus-completeness"]
    assert completeness["failures"] == completeness["instances"]
    assert completeness["tolerance"] < completeness["max_residual"]
    assert isinstance(completeness["failing_case"]["seed"], int)
    for name in ("risk-identities", "path-equivalence-values", "path-equivalence-probs"):
        suite = suites[name]
        assert suite["failures"] == suite["instances"]
        assert suite["max_residual"] is None  # inf, written as null
        assert suite["failing_case"]["seed"] == 0
        assert suite["failing_case"]["error"] == "NormError: matrix is not unitary"


def test_exit_code_2_on_bad_flags(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--c", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--lambda", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--model", "x.json", "--input", "1,2", "--shots", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--co-train"])  # needs a pca:<k> embedding
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--model", "m.json", "--input=a,b"],
        ["classify", "--model", "m.json", "--input="],
        ["classify", "--model", "m.json", "--input=nan,1"],
        ["classify", "--model", "m.json", "--input=1", "--seed", "-1"],
        ["train", "--layers", "0"],
        ["train", "--embedding", "pca:x"],
        ["train", "--embedding", "pca:0"],
        ["train", "--dims", "0"],
        ["train", "--per-class", "0"],
        ["train", "--separation", "nan"],
        ["train", "--seed", "-1"],
        ["train", "--epochs", "-1"],
        ["train", "--lr", "0"],
        ["train", "--lr", "inf"],
        ["train", "--init-scale", "-1"],
        ["compare", "--dim-sweep", "2,a"],
        # compare trains every arm at its own cutoff, so it takes no --c
        ["compare", "--c", "0.7", "--co-train", "--embedding", "pca:1"],
    ],
)
def test_malformed_flag_values_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err


def test_non_finite_csv_and_bad_conditions_exit_3(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("a,b,label\n1,2,1\nnan,3,-1\n")
    assert main(["train", "--dataset", f"csv:{bad}", "--epochs", "1"]) == 3
    assert "nan.csv:3: non-finite" in capsys.readouterr().err
    argv = ["compare", "--dataset", "iris", "--conditions", "embedding-only,c=x"]
    assert main(argv) == 3
    assert "error: bad cutoff" in capsys.readouterr().err
    argv = ["compare", "--dataset", "iris", "--conditions", "embedding-only,kernel"]
    assert main(argv) == 3
    assert "error: bad condition 'kernel'" in capsys.readouterr().err


def test_csv_without_a_feature_column_exits_3_naming_it(tmp_path, capsys):
    data = tmp_path / "labels.csv"
    data.write_text("label\n1\n-1\n1\n")
    for embedding in ("angle", "amplitude", "pca:1"):
        argv = ["train", "--dataset", f"csv:{data}", "--embedding", embedding, "--epochs", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"error: {data}: header has no feature column" in err
        assert "Traceback" not in err


def test_all_ones_csv_labels_are_not_remapped(tmp_path, capsys):
    data = tmp_path / "ones.csv"
    data.write_text("a,label\n1,1\n2,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert main(["train", "--dataset", f"csv:{data}", "--epochs", "1"]) == 3
    assert "need both labels +1 and -1, got [1]" in capsys.readouterr().err


def test_pca_covariance_budget_exits_3_before_allocating(capsys, monkeypatch):
    """pca:<k> refuses data whose d x d covariance is over budget."""
    from qfilter import datasets, errors

    # 2 x 4 features (64 B) fit the budget that their 4 x 4 covariance (128 B) exceeds
    argv = ["train", "--dataset", "blobs", "--dims", "4", "--per-class", "1",
            "--embedding", "pca:2", "--epochs", "0"]
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 4 * 4 * 8 - 1)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error: PCA of 4 features needs a 0.000122 MiB covariance" in err
    assert "Traceback" not in err
    # at 128 B the covariance fits; the command's larger buffers would not
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 4 * 4 * 8)
    datasets.pca_fit(datasets.synthetic_blobs(0, 1, 4, 2.0), 2)


def test_blobs_budget_exits_3_before_allocating(capsys, monkeypatch):
    """blobs refuses a feature matrix over budget before drawing it."""
    from qfilter import datasets, errors

    argv = ["train", "--dataset", "blobs", "--dims", "4", "--per-class", "3", "--epochs", "0"]
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 2 * 3 * 4 * 8 - 1)
    drawn = []
    with monkeypatch.context() as patch:
        patch.setattr(datasets.np.random, "default_rng", lambda seed: drawn.append(seed))
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error: 6 blobs of 4 features need 0.000183 MiB" in err
    assert "Traceback" not in err
    assert drawn == []
    # at 192 B the features fit; the command's filter gate pass would not
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 2 * 3 * 4 * 8)
    datasets.synthetic_blobs(0, 3, 4, 2.0)


def test_analytic_budget_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    """train, compare and classify refuse a filter whose gate pass is over budget."""
    from qfilter import errors

    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)]) == 0
    # 1 system qubit, 1 layer: 8 arrays of 4 x 2 and 5 gates, 1024 + 5 x 384 = 2944 B
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 2943)
    for argv in (
        ["train", "--dataset", "iris", "--epochs", "1"],
        ["compare", "--dataset", "iris", "--epochs", "1"],
        ["classify", "--model", str(model), "--input", "0.3,0.9"],
        ["classify", "--model", str(model), "--input", "0.3,0.9", "--path", "circuit"],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: a 1-qubit, 1-layer filter needs 0.002808 MiB" in err
        assert "over the 0.002807 MiB budget" in err
        assert "Traceback" not in err
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", 2944)
    assert main(["classify", "--model", str(model), "--input", "0.3,0.9"]) == 0


@pytest.mark.parametrize("train, argv, need, message, allocator", [
    # 200 blobs of 128 features, 204,800 B; the covariance is 131,072 B, the
    # sample set 51,200 B, the embedding's gate pass 51,584 B
    (None, ["train", "--dataset", "blobs", "--dims", "128", "--per-class", "100",
            "--embedding", "pca:1"],
     2 * 100 * 128 * 8, "200 blobs of 128 features need", ("numpy.random", "default_rng")),
    # 200 embedded 1-qubit rows, 8 arrays of 200 x 2; the features are 3200 B,
    # the filter's gate pass 2944 B
    (None, ["train", "--dataset", "blobs", "--dims", "2", "--per-class", "100"],
     200 * embedding.SAMPLE_SET_ARRAYS * 2 * 16, "200 embedded 1-qubit rows need",
     ("qfilter.embedding", "encode_rows")),
    # a 20 x 20 covariance, 3200 B, formed under np.errstate; the filter's gate
    # pass is 2944 B, the features 320 B, the embedding's gate pass 896 B
    (None, ["train", "--dataset", "blobs", "--dims", "20", "--per-class", "1",
            "--embedding", "pca:1"],
     20 * 20 * 8, "PCA of 20 features needs a", ("numpy", "errstate")),
    # 1 system qubit, 1 layer: 8 arrays of 4 x 2 and 5 gates
    (None, ["train", "--dataset", "iris"],
     8 * 4 * 2 * 16 + 5 * quantum.GATE_BYTES, "a 1-qubit, 1-layer filter needs",
     ("qfilter.featuremap", "run_gates")),
    # 32 samples of 2 qubits: a 10-qubit classifier register and one more array;
    # the sample set is 16,384 B, the filter's gate pass 7168 B
    (["--dataset", "blobs", "--dims", "4", "--per-class", "16"],
     ["classify", "--input", "0.3,0.9,0.1,0.2", "--path", "circuit"],
     2**11 * 16, "a 10-qubit register needs", ("qfilter.protocol", "_half_columns")),
    # 8 layers of 3 gates on 6 rows: 8 arrays of 4 x 6 and 24 gates; the
    # filter's gate pass is 7168 B
    (None, ["train", "--dataset", "blobs", "--dims", "2", "--per-class", "3",
            "--embedding", "pca:2", "--embed-layers", "8"],
     8 * 4 * 6 * 16 + 24 * quantum.GATE_BYTES, "a 2-qubit, 8-layer embedding of 6 rows needs",
     ("qfilter.embedding", "run_gates")),
    # co-training those 24 angles adds the states and their cotangent (2 more
    # arrays of 4 x 6) and each angle's optimizer state; the embedding's gate
    # pass alone is 12,288 B
    (None, ["train", "--dataset", "blobs", "--dims", "2", "--per-class", "3",
            "--embedding", "pca:2", "--embed-layers", "8", "--co-train"],
     10 * 4 * 6 * 16 + 24 * (quantum.GATE_BYTES + training.CO_TRAIN_ANGLE_BYTES),
     "co-training a 2-qubit, 8-layer embedding of 6 rows needs",
     ("qfilter.training", "pca_layer_states")),
], ids=["blobs", "sample-list", "pca-covariance", "filter-tape", "twin-register",
        "pca-layer-tape", "co-train-state"])
def test_a_buffer_fits_a_budget_of_its_size_and_no_less(
    tmp_path, capsys, monkeypatch, train, argv, need, message, allocator
):
    """The one budget admits each buffer at exactly its size; one byte less
    exits 3 before the buffer is allocated."""
    import importlib

    from qfilter import errors

    if train is None:
        argv = argv + ["--epochs", "0"]
    else:
        model = tmp_path / "model.json"
        assert main(["train", *train, "--epochs", "0", "--out", str(model)]) == 0
        argv = argv + ["--model", str(model)]
    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", need)
    assert main(argv) == 0
    capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(errors, "MAX_BUFFER_BYTES", need - 1)
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module(allocator[0]), allocator[1], forbidden)
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_model_without_manifest_entries_exits_3(tmp_path, capsys):
    model = tmp_path / "model.json"
    for content in ({"manifest": {}}, {}, {"manifest": {"config": {"dataset": {}}}}):
        model.write_text(json.dumps(content))
        assert main(["classify", "--model", str(model), "--input", "0.3,0.9"]) == 3
        assert "error: model has no entry" in capsys.readouterr().err


def test_malformed_model_exits_3(tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)])
    good = json.loads(model.read_text())
    for content in ([1, 2], {**good, "theta_star": ["x"]}):
        model.write_text(json.dumps(content))
        assert main(["classify", "--model", str(model), "--input", "0.3,0.9"]) == 3
        err = capsys.readouterr().err
        assert "error: malformed model" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def pca_model_text(tmp_path_factory):
    """A saved pca:2 model on TINY_CSV, as JSON text."""
    folder = tmp_path_factory.mktemp("pca_model")
    (folder / "tiny.csv").write_text(TINY_CSV)
    model = folder / "model.json"
    assert main(["train", "--dataset", f"csv:{folder / 'tiny.csv'}", "--embedding", "pca:2",
                 "--epochs", "3", "--out", str(model)]) == 0
    return model.read_text()


@pytest.mark.parametrize("path", ["analytic", "circuit"])
@pytest.mark.parametrize("number", ["null", "1e400"])
@pytest.mark.parametrize(
    "field", ["theta_star", "params", "scale_center", "scale_factor", "pca_mean", "pca_components"]
)
def test_a_non_finite_model_number_exits_3(tmp_path, capsys, pca_model_text, field, number, path):
    """A null or an overflowing number (1e400 reads as inf) in any saved
    array is a malformed model, on both classify paths."""
    content = json.loads(pca_model_text)
    holder = content if field == "theta_star" else content["manifest"]["config"]["embedding"]
    row = holder[field][0] if field == "pca_components" else holder[field]
    row[0] = "NUMBER"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(content).replace('"NUMBER"', number))
    argv = ["classify", "--model", str(model), "--input", "0.5,0.1,0.2", "--path", path]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed model: {field} holds a non-finite number")
    assert "Traceback" not in err


@pytest.mark.parametrize("path", ["analytic", "circuit"])
@pytest.mark.parametrize("field, value", [
    ("layers", "2"), ("layers", 2.0), ("n_qubits", 2.0), ("ring", "yes"),
    ("ansatz_layers", 0), ("ansatz_layers", -1), ("ansatz_layers", True),
    ("layers", 10**12),  # a gate pass over the budget, refused before any gate is built
])
def test_a_malformed_model_count_exits_3(tmp_path, capsys, pca_model_text, field, value, path):
    """A count that is not an integer in range, or a ring flag that is not a
    bool, is a malformed model on both classify paths."""
    content = json.loads(pca_model_text)
    config = content["manifest"]["config"]
    (config if field == "ansatz_layers" else config["embedding"])[field] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(content))
    argv = ["classify", "--model", str(model), "--input", "0.5,0.1,0.2", "--path", path]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("path", ["analytic", "circuit"])
@pytest.mark.parametrize("field, value, message", [
    ("kind", "pca:2", "unknown embedding kind 'pca:2'"),
    ("n_qubits", 7, "n_qubits 7 for 2-qubit data"),
])
def test_an_amplitude_model_train_never_writes_exits_3(tmp_path, capsys, field, value, message,
                                                       path):
    """restore_model() rebuilds only the kinds train writes, at the saved
    width: a kind edited to the CLI's "pca:2" would refit a PCA, and an
    edited n_qubits would be ignored."""
    (tmp_path / "tiny.csv").write_text(TINY_CSV)
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", f"csv:{tmp_path / 'tiny.csv'}", "--embedding", "amplitude",
                 "--epochs", "3", "--out", str(model)]) == 0
    argv = ["classify", "--model", str(model), "--input", "0.5,0.1,0.2", "--path", path]
    assert main(argv) == 0
    content = json.loads(model.read_text())
    content["manifest"]["config"]["embedding"][field] = value
    model.write_text(json.dumps(content))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed model: {message}")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def co_trained_model_text(tmp_path_factory):
    """The CI's co-trained pca:2 model on TINY_CSV, as JSON text."""
    folder = tmp_path_factory.mktemp("co_trained_model")
    (folder / "tiny.csv").write_text(TINY_CSV)
    model = folder / "model.json"
    assert main(["train", "--dataset", f"csv:{folder / 'tiny.csv'}", "--embedding", "pca:2",
                 "--co-train", "--init-scale", "1", "--epochs", "5", "--out", str(model)]) == 0
    return model.read_text()


def _classify_edited(tmp_path, capsys, text, edit, argv):
    """classify with a copy of the model text that edit(content) changed: (exit code, stderr)."""
    content = json.loads(text)
    edit(content)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(content))
    capsys.readouterr()
    code = main(["classify", "--model", str(model), *argv])
    return code, capsys.readouterr().err


def _embedding_of(content):
    return content["manifest"]["config"]["embedding"]


@pytest.mark.parametrize("path", ["analytic", "circuit"])
@pytest.mark.parametrize("field, edit, shape", [
    pytest.param("pca_mean", lambda e: e.update(pca_mean=e["pca_mean"][:2]), "(2,), not (3,)",
                 id="pca_mean-short"),
    pytest.param("pca_components", lambda e: e.update(pca_components=e["pca_components"][:2]),
                 "(2, 2), not (3, 2)", id="pca_components-rows"),
    pytest.param("pca_components",
                 lambda e: e.update(pca_components=[r[:1] for r in e["pca_components"]]),
                 "(3, 1), not (3, 2)", id="pca_components-columns"),
    pytest.param("scale_center", lambda e: e.update(scale_center=e["scale_center"][:1]),
                 "(1,), not (2,)", id="scale_center-short"),
    pytest.param("scale_factor", lambda e: e.update(scale_factor=e["scale_factor"] * 2),
                 "(4,), not (2,)", id="scale_factor-long"),
    pytest.param("params", lambda e: e.update(params=e["params"][:2]), "(2,), not (3,)",
                 id="params-short"),
])
def test_a_pca_model_whose_arrays_disagree_exits_3(tmp_path, capsys, co_trained_model_text,
                                                   field, edit, shape, path):
    """A pca-layer model's arrays must fit each other: pca_mean (d,),
    pca_components (d, k), scale_center and scale_factor (k,) and one angle
    per embedding gate, for the dataset's d features and k = n_qubits."""
    code, err = _classify_edited(
        tmp_path, capsys, co_trained_model_text, lambda c: edit(_embedding_of(c)),
        ["--input", "0.5,0.1,0.2", "--path", path],
    )
    assert code == 3
    assert err == f"error: malformed model: {field} has shape {shape}\n"


@pytest.mark.parametrize("path", ["analytic", "circuit"])
@pytest.mark.parametrize("case", ["extra-angles", "short", "co-trained-tail"])
def test_a_theta_star_of_the_wrong_length_exits_3(tmp_path, capsys, co_trained_model_text,
                                                  case, path):
    """theta_star holds exactly the filter's angles, or (co-trained) those and
    the embedding's, which must equal the manifest's params."""
    argv = ["--input", "0.5,0.1,0.2", "--path", path]
    if case == "co-trained-tail":
        def edit(content):
            emb = _embedding_of(content)
            emb["params"] = [0.0] * len(emb["params"])

        text = co_trained_model_text
    else:
        model = tmp_path / "iris.json"
        assert main(["train", "--dataset", "iris", "--epochs", "3", "--init-scale", "1",
                     "--out", str(model)]) == 0
        text, argv = model.read_text(), ["--input", "0.3,0.9", "--path", path]

        def edit(content):
            theta = content["theta_star"]
            content["theta_star"] = theta + [0.1] * 7 if case == "extra-angles" else theta[:4]

    code, err = _classify_edited(tmp_path, capsys, text, edit, argv)
    assert code == 3
    if case == "co-trained-tail":
        assert err == "error: malformed model: the embedding angles in theta_star are not params\n"
    else:
        held = {"extra-angles": 12, "short": 4}[case]
        assert err == f"error: malformed model: theta_star holds {held} angles, not the filter's 5\n"


def test_a_co_trained_model_restores_the_filter_angles(co_trained_model_text):
    """restore_model() splits theta_star: the filter gets its own angles, and
    the embedding angles it drops are the manifest's params."""
    saved = json.loads(co_trained_model_text)
    model = embedding.restore_model(saved)
    assert model.ansatz.n_params == 8
    assert model.theta.tolist() == saved["theta_star"][:8]
    assert list(model.pipeline.spec.params) == saved["theta_star"][8:]
    for theta in (saved["theta_star"], saved["theta_star"][:8]):
        assert embedding.restore_model({**saved, "theta_star": theta}).theta.tolist() == (
            saved["theta_star"][:8]
        )


def test_a_layer_count_past_the_budget_exits_3(tmp_path, capsys):
    """10**9 filter layers are refused from the gate count, before any gate is
    built, and 10**12 embedding layers before their angles are built."""
    (tmp_path / "tiny.csv").write_text(TINY_CSV)
    for argv, message in (
        (["--dataset", "iris", "--layers", "1000000000"],
         "a 1-qubit, 1000000000-layer filter needs"),
        (["--dataset", f"csv:{tmp_path / 'tiny.csv'}", "--embedding", "pca:2",
          "--embed-layers", str(10**12)],
         "a 2-qubit, 1000000000000-layer embedding of 6 rows needs"),
    ):
        assert main(["train", *argv, "--epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err


def test_a_need_just_over_the_budget_prints_above_it(tmp_path, capsys):
    """233015 layers of a 6-row pca:2 embedding need 268,436,352 B, 896 B over
    the 256 MiB budget; at 3 digits both would read 256 MiB."""
    (tmp_path / "tiny.csv").write_text(TINY_CSV)
    argv = ["train", "--dataset", f"csv:{tmp_path / 'tiny.csv'}", "--embedding", "pca:2",
            "--embed-layers", "233015", "--epochs", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: a 2-qubit, 233015-layer embedding of 6 rows needs 256.001 MiB for its gate"
        " pass, over the 256 MiB budget\n"
    )


@given(st.integers(1, 2**40), st.integers(1, 2**20))
def test_an_over_budget_message_never_prints_the_need_at_or_below_the_budget(budget, over):
    from unittest import mock

    from qfilter import errors

    with mock.patch.object(errors, "MAX_BUFFER_BYTES", budget):
        with pytest.raises(errors.RegisterTooLarge) as exc:
            errors.check_budget(budget + over, "needs {} MiB")
    need, cap = re.fullmatch(r"needs (\S+) MiB, over the (\S+) MiB budget", str(exc.value)).groups()
    assert float(need) > float(cap)


def test_classify_rejects_a_changed_dataset(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    rng = np.random.default_rng(2)
    rows = ["f0,f1,label"]
    for i in range(10):
        y = 1 if i % 2 == 0 else -1
        rows.append(",".join(f"{v:.6f}" for v in rng.standard_normal(2) + (y, 0)) + f",{y}")
    csv_path.write_text("\n".join(rows) + "\n")
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", f"csv:{csv_path}", "--epochs", "5",
                 "--out", str(model)]) == 0
    argv = ["classify", "--model", str(model), "--input", "0.5,0.1"]
    assert main(argv) == 0
    capsys.readouterr()
    rows[3] = "0.25" + rows[3][rows[3].index(","):]  # one cell of one row
    csv_path.write_text("\n".join(rows) + "\n")
    assert main(argv) == 3
    assert "error: the dataset differs" in capsys.readouterr().err


def test_classify_single_shot_has_no_decision(tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)])
    argv = ["classify", "--model", str(model), "--input", "0.2,0.9",
            "--path", "circuit", "--shots", "1"]
    code, out = _run(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    # one shot never observes both label outcomes, so the value is undefined
    assert payload["value"] is None
    assert payload["decision"] is None
    assert payload["tie_flag"] is False
    assert payload["p_s_test"] == pytest.approx(1.0)


def test_classify_shots_past_int64_are_a_usage_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)])
    argv = ["classify", "--model", str(model), "--input", "0.2,0.9", "--path", "circuit"]
    for shots in (2**63, 10**20):  # past what the int64 multinomial draw takes
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--shots", str(shots)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --shots" in err
        assert "Traceback" not in err
    code, out = _run(argv + ["--shots", str(2**63 - 1)], capsys)
    assert code == 0
    assert json.loads(out)["manifest"]["shots"] == 2**63 - 1


def test_classify_shots_on_the_analytic_path_are_a_usage_error(tmp_path, capsys, monkeypatch):
    """The analytic path has no outcomes to sample: --shots > 0 on it exits 2
    before any work, so no artifact records shots that were never drawn."""
    from qfilter import cli

    model = tmp_path / "model.json"
    main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)])
    out = tmp_path / "answer.json"
    argv = ["classify", "--model", str(model), "--input", "0.2,0.9", "--out", str(out)]

    def forbidden(*args, **kwargs):
        raise AssertionError("classified before the usage check")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "restore_model", forbidden)
        for path in ([], ["--path", "analytic"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + path + ["--shots", "4096"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err and "--shots" in err
            assert "Traceback" not in err
            assert not out.exists()
    assert main(argv + ["--path", "analytic", "--shots", "0"]) == 0
    assert json.loads(out.read_text())["manifest"]["shots"] == 0


def test_an_out_file_holds_the_bytes_stdout_gets(tmp_path, capsys, monkeypatch):
    """--out streams the JSON to its file; the bytes are those a stdout run
    prints. train's clock is frozen so that its wall_time_s repeats too."""
    from types import SimpleNamespace

    monkeypatch.setattr(training, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    model, answer = tmp_path / "model.json", tmp_path / "answer.json"
    train = ["train", "--dataset", "blobs", "--dims", "3", "--epochs", "3", "--init-scale", "1"]
    classify = ["classify", "--model", str(model), "--input", "0.1,0.4,-0.2"]
    for argv, path in ((train, model), (classify, answer)):
        assert main(argv + ["--out", str(path)]) == 0
        code, printed = _run(argv, capsys)
        assert code == 0
        assert path.read_bytes() == printed.encode("utf-8")
        assert printed.endswith("}\n")


def test_classify_with_shots_on_a_training_point(tmp_path, capsys):
    """A test state equal to a training state makes one swap-test outcome
    impossible; roundoff must not make its probability negative."""
    model = tmp_path / "model.json"
    main(["train", "--dataset", "iris", "--epochs", "2", "--out", str(model)])
    # x0 = 0 encodes to |1>, the -1 training state
    argv = ["classify", "--model", str(model), "--input", "0.0,0.0", "--path", "circuit"]
    assert main(argv) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main(argv + ["--shots", "50"]) == 0
    sampled = json.loads(capsys.readouterr().out)
    assert sampled["decision"] == exact["decision"] == -1


def test_overflowing_row_exits_3(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("a,b,label\n1e308,1e308,1\n0.4,0.3,1\n0.2,0.5,-1\n")
    assert main(["train", "--dataset", f"csv:{data}", "--epochs", "1"]) == 3
    assert "error: cannot amplitude-encode" in capsys.readouterr().err


def test_overflowing_pca_input_exits_3_naming_it(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("a,b,label\n1e308,-1e308,1\n0.4,0.3,1\n0.2,0.5,-1\n0.1,0.9,-1\n")
    argv = ["train", "--dataset", f"csv:{data}", "--embedding", "pca:1", "--epochs", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"error: {data}: the centred data or its covariance overflows" in err


@pytest.mark.parametrize("path", ["analytic", "circuit"])
@pytest.mark.parametrize("co_train", [False, True], ids=["fixed", "co-trained"])
def test_an_input_that_overflows_the_scaling_exits_3(tmp_path, capsys, path, co_train):
    """+-1e308 is a finite input, but a pca:2 model's scaling takes it to inf:
    encode_rows() refuses the row before either path runs, with one error
    line and no RuntimeWarning (an error under this suite's settings)."""
    data = tmp_path / "tiny.csv"
    data.write_text(TINY_CSV)
    model = tmp_path / "model.json"
    flags = ["--co-train", "--init-scale", "1"] if co_train else []
    assert main(["train", "--dataset", f"csv:{data}", "--embedding", "pca:2", *flags,
                 "--epochs", "5", "--out", str(model)]) == 0
    capsys.readouterr()
    argv = ["classify", "--model", str(model), "--path", path, "--input=1e308,-1e308,1e308"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: cannot encode row 0: it holds a NaN or an infinity\n"


def test_classify_rejects_a_non_string_csv_path(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a,b,label\n0.3,0.9,1\n0.8,0.1,-1\n")
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", f"csv:{data}", "--epochs", "0",
                 "--out", str(model)]) == 0
    trained = json.loads(model.read_text())
    trained["manifest"]["config"]["dataset"]["path"] = 0  # would be a file descriptor
    model.write_text(json.dumps(trained))
    assert main(["classify", "--model", str(model), "--input", "0.3,0.9"]) == 3
    assert "error: a CSV path must be a string" in capsys.readouterr().err


def test_exit_code_3_on_data_errors(tmp_path, capsys):
    assert main(["train", "--dataset", "csv:/does/not/exist.csv"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["train", "--dataset", f"csv:{bad}"]) == 3

    broken_model = tmp_path / "model.json"
    broken_model.write_text("{not json")
    assert main(["classify", "--model", str(broken_model), "--input", "1,2"]) == 3

    assert main(["train", "--dataset", "nonsense"]) == 3


def test_json_output_is_sorted_and_nan_free(tmp_path):
    out = tmp_path / "t.json"
    main(["train", "--dataset", "iris", "--epochs", "2", "--out", str(out)])
    text = out.read_text()
    payload = json.loads(text)
    assert "NaN" not in text and "Infinity" not in text
    assert list(payload) == sorted(payload)
    assert list(payload["manifest"]) == sorted(payload["manifest"])
