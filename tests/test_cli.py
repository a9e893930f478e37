"""Command-line behavior: JSON/CSV artifacts, exit codes, reproducibility."""
import csv
import json

import numpy as np
import pytest

from qfilter import quantum
from qfilter.cli import main


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


def test_classify_circuit_over_the_register_budget_exits_3(tmp_path, capsys, monkeypatch):
    from qfilter import protocol

    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)]) == 0
    # iris: 2 samples of 1 qubit, a 5-qubit classifier register, 1 KiB product
    monkeypatch.setattr(protocol, "MAX_BUFFER_BYTES", 512)
    argv = ["classify", "--model", str(model), "--input", "0.3,0.9"]
    assert main(argv + ["--path", "circuit"]) == 3
    captured = capsys.readouterr()
    assert "error: a 5-qubit register needs" in captured.err
    assert "Traceback" not in captured.err
    assert main(argv) == 0  # the analytic path allocates no register


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
    """A co-trained fit embeds the rows point by point only for its final
    ensemble, after training."""
    from qfilter import embedding

    calls = []
    encode = embedding.encode_point

    def counted(x, spec):
        calls.append(spec.params)
        return encode(x, spec)

    monkeypatch.setattr(embedding, "encode_point", counted)
    csv_path = tmp_path / "train.csv"
    rows = ["f0,f1,label"] + [f"{0.1 * i:.1f},{(-1) ** i * 0.3:.1f},{(-1) ** i}" for i in range(6)]
    csv_path.write_text("\n".join(rows) + "\n")
    argv = ["train", "--dataset", f"csv:{csv_path}", "--embedding", "pca:2", "--co-train",
            "--epochs", "3", "--init-scale", "0.2", "--out", str(tmp_path / "m.json")]
    assert main(argv) == 0
    trained = tuple(json.loads((tmp_path / "m.json").read_text())
                    ["manifest"]["config"]["embedding"]["params"])
    assert calls == [trained] * 6


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


def test_compare_manifest_records_the_optimizer_flags(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(["compare", "--dataset", "blobs", "--per-class", "3", "--epochs", "2",
                 "--embedding", "pca:2", "--embed-layers", "2", "--ring",
                 "--optimizer", "sgd", "--init-scale", "0.5", "--out", str(out)])
    assert code == 0
    config = json.loads(out.read_text())["manifest"]["config"]
    assert config["optimizer"] == "sgd"
    assert config["init_scale"] == 0.5
    assert config["embed_layers"] == 2
    assert config["ring"] is True


def test_compare_needs_two_conditions():
    code = main(["compare", "--dataset", "iris", "--conditions", "c=0", "--epochs", "1"])
    assert code == 3


def test_selftest_fault_injection_fails(monkeypatch, capsys):
    """Negative control: a non-unitary Rx fails the suites that build circuits."""
    rx = quantum._ROTATIONS["Rx"]
    monkeypatch.setitem(quantum._ROTATIONS, "Rx", lambda t: 1.001 * rx(t))
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
    for name in ("kraus-completeness", "path-equivalence-values", "path-equivalence-probs"):
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


def test_analytic_budget_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    """train, compare and classify refuse a filter whose gate tape is over budget."""
    from qfilter import featuremap

    model = tmp_path / "model.json"
    assert main(["train", "--dataset", "iris", "--epochs", "0", "--out", str(model)]) == 0
    # 1 system qubit, 1 layer: 5 gates, a tape of 6 matrices of 4 x 4, 1536 B
    monkeypatch.setattr(featuremap, "MAX_BUFFER_BYTES", 1535)
    for argv in (
        ["train", "--dataset", "iris", "--epochs", "1"],
        ["compare", "--dataset", "iris", "--epochs", "1"],
        ["classify", "--model", str(model), "--input", "0.3,0.9"],
        ["classify", "--model", str(model), "--input", "0.3,0.9", "--path", "circuit"],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: a 1-qubit, 1-layer filter needs 0.00146 MiB" in err
        assert "Traceback" not in err
    monkeypatch.setattr(featuremap, "MAX_BUFFER_BYTES", 1536)
    assert main(["classify", "--model", str(model), "--input", "0.3,0.9"]) == 0


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
