"""Property test of the CLI contract: exit 0, 2 or 3, and never a traceback.

Hypothesis draws argv for train, classify and compare: flag values that
mix valid, malformed and extreme text, arbitrary --input strings, and
small CSV bodies as the data (zero feature columns, NaN/inf cells, labels
0, 1 and 2). A well-formed classify point has the model's width and mixes
+-1e308, which a pca model's scaling takes to inf, into small features;
the explicit example pins one such point on the circuit path. Every
example runs in-process on one thread. Every count that sizes an
allocation (--dims, each entry of compare's --dims list, --per-class,
--epochs, --layers, --embed-layers, --shots) stays at most 4, so no
example allocates much. An uncaught exception, a RuntimeWarning (an
error under this suite's settings) or a traceback on stderr fails the
property.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qfilter.cli import main

MAX_COUNT = 4
# stands for the workdir fixture's folder in drawn argv; the test substitutes it
ROOT = "{root}"


def _small(text: str) -> bool:
    """No comma-separated piece of text parses as an integer above MAX_COUNT."""
    for piece in text.split(","):
        try:
            if int(piece) > MAX_COUNT:
                return False
        except ValueError:
            pass
    return True


junk = st.text(max_size=8)
# each flag takes a well-formed value or, in a malformed example, any text
counts = st.integers(0, MAX_COUNT).map(str)
positive = st.integers(1, MAX_COUNT).map(str)
any_count = st.one_of(st.integers(-1, MAX_COUNT).map(str), junk.filter(_small))
reals = st.one_of(
    st.floats(0, 2).map(repr), st.sampled_from(["1e308", "1.7e308", "1e-320", "0.0"])
)
any_real = st.one_of(st.floats().map(repr), st.sampled_from(["nan", "inf", "-1"]), junk)
seeds = st.integers(0, 2**64).map(str)
any_seed = st.one_of(st.integers(-1, 0).map(str), junk)
embeddings = st.sampled_from(["angle", "amplitude", "pca:1", "pca:2", "pca:3"])
any_embedding = st.one_of(st.sampled_from(["pca:0", "pca:x", "kernel"]), junk)
cell = st.one_of(
    st.floats(-10, 10).map(lambda v: f"{v:.3g}"),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "", "x"]),
)
label = st.sampled_from(["0", "1", "2", "-1", "+1", "1.0", ""])


@st.composite
def csv_bodies(draw) -> str:
    """A header with a label column and 0-3 features, then 0-6 rows."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=40))
    n_features = draw(st.integers(0, 3))
    label_at = draw(st.integers(0, n_features))
    header = [f"f{i}" for i in range(n_features)]
    header.insert(label_at, "label")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(cell) for _ in range(n_features)]
        row.insert(label_at, draw(label))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _flags(draw, table: dict, clean: bool) -> list[str]:
    """Some of the flags in table, each with a value from its (well-formed, any) pair."""
    argv = []
    for flag, (good, bad) in table.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(good if clean else st.one_of(good, bad))}")
    return argv


DATA_FLAGS = {
    "--embedding": (embeddings, any_embedding),
    "--layers": (positive, any_count),
    "--embed-layers": (counts, any_count),
    "--per-class": (positive, any_count),
    "--dims": (positive, any_count),
    "--separation": (st.floats(-1e300, 1e300).map(repr), any_real),
    "--seed": (seeds, any_seed),
}
TRAIN_FLAGS = {
    "--lambda": (reals, any_real),
    "--epochs": (counts, any_count),
    "--lr": (st.floats(1e-3, 2).map(repr), any_real),
    "--init-scale": (reals, any_real),
}
# compare's --dims is a comma list, one dataset per entry
DIM_LISTS = (
    st.lists(positive, min_size=1, max_size=3).map(",".join),
    st.lists(any_count, min_size=1, max_size=3).map(",".join),
)
CONDITIONS = st.sampled_from(["embedding-only", "c=0", "c=0.5", "c=1", "c=2", "c=nan", "c=x", "kernel"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Models to classify with, trained once: iris, blobs and a co-trained CSV fit."""
    root = tmp_path_factory.mktemp("cli-properties")
    data = root / "model-data.csv"
    data.write_text("a,b,c,label\n0.1,0.9,0.3,1\n0.8,0.1,-0.2,-1\n0.4,0.5,0.1,1\n-0.3,0.2,0.6,-1\n")
    fits = {
        "iris": ["--dataset=iris"],
        "blobs": ["--dataset=blobs", "--dims=3", "--per-class=3"],
        "co": [f"--dataset=csv:{data}", "--embedding=pca:2", "--co-train", "--init-scale=0.3"],
    }
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in fits.items():
            assert main(["train", *argv, "--epochs=2", f"--out={root / name}.json"]) == 0
    (root / "broken.json").write_text("{not json")
    (root / "list.json").write_text(json.dumps([1, 2]))
    return root


@st.composite
def invocations(draw) -> tuple[list[str], str | None]:
    """argv for one command, and the CSV body its dataset reads (if any)."""
    clean = draw(st.integers(0, 2)) > 0  # two examples in three have well-formed flags
    command = draw(st.sampled_from(["train", "compare", "classify"]))
    if command == "classify":
        widths = {"iris": 2, "blobs": 3, "co": 3, "broken": 2, "list": 2, "missing": 2}
        model = draw(st.sampled_from(list(widths)[:3] if clean else list(widths)))
        clean_features = st.one_of(st.floats(-2, 2).map(repr), st.sampled_from(["1e308", "-1e308"]))
        features = clean_features if clean else any_real
        size = widths[model] if clean else None
        point = draw(st.lists(features, min_size=size or 1, max_size=size or 4).map(",".join))
        argv = ["classify", f"--model={ROOT}/{model}.json", f"--input={point}"]
        argv += _flags(draw, {
            "--path": (st.sampled_from(["analytic", "circuit"]), st.just("quantum")),
            "--shots": (counts, any_count),
            "--seed": (seeds, any_seed),
        }, clean)
        return argv, None
    body = draw(st.one_of(st.none(), csv_bodies()))
    if body is not None:
        dataset = f"csv:{ROOT}/data.csv"
    else:
        dataset = draw(st.sampled_from(["iris", "blobs", "csv:/no/such/file.csv", ""]))
    argv = [command, f"--dataset={dataset}"]
    data_flags = DATA_FLAGS if command == "train" else DATA_FLAGS | {"--dims": DIM_LISTS}
    argv += _flags(draw, data_flags, clean) + _flags(draw, TRAIN_FLAGS, clean)
    if command == "train":
        argv += _flags(draw, {"--c": (st.floats(0, 1).map(repr), any_real)}, clean)
        pca = any(a.startswith("--embedding=pca:") for a in argv)
        if draw(st.booleans()) and (pca or not clean):
            argv.append("--co-train")
    else:
        argv += _flags(draw, {
            "--conditions": (st.lists(CONDITIONS, min_size=1, max_size=4).map(",".join), junk),
        }, clean)
    if draw(st.booleans()):
        argv.append("--ring")
    return argv + [f"--out={ROOT}/out.json"], body


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(case=(["classify", f"--model={ROOT}/co.json", "--input=1e308,-1e308,1e308",
                "--path=circuit"], None))
@given(case=invocations())
def test_cli_exits_0_2_or_3_without_a_traceback(workdir, case):
    argv, body = case
    argv = [a.replace(ROOT, str(workdir)) for a in argv]
    if body is not None:
        (workdir / "data.csv").write_text(body)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, body, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, body, err.getvalue())
