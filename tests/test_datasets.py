"""Built-in data, CSV loading, PCA, and synthetic blobs."""
import re
import tracemalloc

import numpy as np
import pytest

from qfilter.datasets import (
    PCAModel,
    RawDataset,
    iris_builtin,
    load_csv,
    load_dataset,
    pca_fit,
    pca_project,
    synthetic_blobs,
)
from qfilter.errors import ClassBalanceError, CsvError, DimError, DomainError, ShapeError


def test_raw_dataset_validation():
    with pytest.raises(ShapeError):
        RawDataset(np.ones(3), np.array([+1, -1, +1]), "bad")
    with pytest.raises(ShapeError):
        RawDataset(np.ones((3, 2)), np.array([+1, -1]), "bad")
    with pytest.raises(ClassBalanceError):
        RawDataset(np.ones((2, 2)), np.array([+1, +1]), "bad")
    ds = RawDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([+1, -1]), "ok")
    pairs = ds.pairs()
    assert len(pairs) == 2
    np.testing.assert_array_equal(pairs[1][0], [3.0, 4.0])
    assert pairs[1][1] == -1


def test_raw_dataset_checks_labels_as_given():
    """A label that is not +1 or -1 is refused before the integer cast, which
    would truncate it; exact floats +1.0 and -1.0 are cast."""
    for labels, shown in (([1.5, -1.7], "[-1.7, 1.5]"), ([0.5, -1], "[-1.0, 0.5]")):
        with pytest.raises(ClassBalanceError, match=re.escape(f"got {shown}")):
            RawDataset(np.ones((2, 1)), np.array(labels), "x")
    ds = RawDataset(np.ones((2, 1)), np.array([1.0, -1.0]), "x")
    assert ds.labels.dtype == int and ds.labels.tolist() == [1, -1]


def test_iris_builtin_values():
    train, (test_x, test_y) = iris_builtin()
    np.testing.assert_array_equal(train.features, [[0.796, 0.607], [0.0, 1.0]])
    np.testing.assert_array_equal(train.labels, [+1, -1])
    np.testing.assert_array_equal(test_x, [-0.557, 0.83])
    assert test_y == -1


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("a,b,label\n1.0,2.0,1\n3.5,-1.0,-1\n\n0.5,0.5,1\n")
    ds = load_csv(str(p))
    np.testing.assert_allclose(ds.features, [[1.0, 2.0], [3.5, -1.0], [0.5, 0.5]])
    np.testing.assert_array_equal(ds.labels, [+1, -1, +1])


def test_load_csv_label_column_position_is_free(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("label,x\n1,0.5\n-1,0.25\n")
    ds = load_csv(str(p))
    np.testing.assert_allclose(ds.features, [[0.5], [0.25]])
    np.testing.assert_array_equal(ds.labels, [+1, -1])


def test_load_csv_remaps_zero_one_labels(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x,label\n0.1,0\n0.2,1\n")
    with pytest.warns(UserWarning, match="remapped"):
        ds = load_csv(str(p))
    np.testing.assert_array_equal(ds.labels, [-1, +1])


def test_load_csv_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,label\n0.1,1\nnope,-1\n")
    with pytest.raises(CsvError, match=r"bad\.csv:3"):
        load_csv(str(p))
    p.write_text("x,label\n0.1,1\n0.2\n")
    with pytest.raises(CsvError, match=r"bad\.csv:3.*columns"):
        load_csv(str(p))


def test_load_csv_rejects_non_finite_cells(tmp_path):
    p = tmp_path / "bad.csv"
    for cell in ("nan", "inf", "-Infinity"):
        p.write_text(f"x,y,label\n0.1,0.2,1\n0.3,{cell},-1\n")
        with pytest.raises(CsvError, match=r"bad\.csv:3: non-finite"):
            load_csv(str(p))
    p.write_text("x,label\n0.1,1\n0.2,nan\n")  # the label column too
    with pytest.raises(CsvError, match=r"bad\.csv:3"):
        load_csv(str(p))


def test_load_csv_structural_errors(tmp_path):
    with pytest.raises(CsvError, match="cannot open"):
        load_csv(str(tmp_path / "missing.csv"))
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(CsvError, match="empty"):
        load_csv(str(p))
    p.write_text("a,b\n1,2\n")
    with pytest.raises(CsvError, match="label"):
        load_csv(str(p))
    p.write_text("label\n1\n-1\n")
    with pytest.raises(CsvError, match=f"{p}: header has no feature column"):
        load_csv(str(p))
    p.write_text("x,label\n")
    with pytest.raises(CsvError, match="no data rows"):
        load_csv(str(p))
    p.write_text("x,label\n1.0,3\n2.0,-1\n")
    with pytest.raises(CsvError, match="labels must be"):
        load_csv(str(p))
    p.write_text("x,label\n1.0,1\n2.0,1\n")
    with pytest.raises(ClassBalanceError):
        load_csv(str(p))


def test_load_dataset_rejects_a_non_string_csv_path():
    # open() takes an integer as a file descriptor: 0 would read stdin
    for path in (0, None, ["d.csv"]):
        with pytest.raises(CsvError, match="must be a string"):
            load_dataset({"kind": "csv", "path": path})


def _toy_dataset(seed=0, m=40, d=6):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((m, d)) * np.linspace(3.0, 0.5, d)
    labels = np.array([+1, -1] * (m // 2))
    return RawDataset(feats, labels, "toy")


def test_pca_fit_matches_svd_oracle():
    ds = _toy_dataset()
    model = pca_fit(ds, 3)
    xc = ds.features - ds.features.mean(axis=0)
    # reference decomposition through the SVD instead of eigh
    _, svals, vt = np.linalg.svd(xc, full_matrices=False)
    want_var = svals**2 / (ds.features.shape[0] - 1)
    var = np.var(pca_project(model, ds.features), axis=0, ddof=1)
    np.testing.assert_allclose(var, want_var[:3], atol=1e-10)
    for j in range(3):
        ref = vt[j]
        pivot = np.argmax(np.abs(ref))
        if ref[pivot] < 0:
            ref = -ref
        np.testing.assert_allclose(model.components[:, j], ref, atol=1e-8)


def test_pca_variances_descend_and_components_orthonormal():
    ds = _toy_dataset()
    model = pca_fit(ds, 4)
    var = np.var(pca_project(model, ds.features), axis=0, ddof=1)
    assert np.all(np.diff(var) <= 1e-12)
    gram = model.components.T @ model.components
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_pca_model_rejects_non_orthonormal_components():
    with pytest.raises(DimError):
        PCAModel(np.zeros(2), np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_pca_fit_k_bounds():
    ds = _toy_dataset(m=6, d=3)
    with pytest.raises(DimError):
        pca_fit(ds, 0)
    with pytest.raises(DimError):
        pca_fit(ds, 4)


def test_pca_fit_rejects_overflowing_data():
    # finite rows whose centred products overflow the covariance
    ds = RawDataset(np.array([[1e308, -1e308], [0.4, 0.3], [0.2, 0.5], [0.1, 0.9]]),
                    np.array([+1, +1, -1, -1]), "huge")
    with pytest.raises(DomainError, match="huge: the centred data or its covariance overflows"):
        pca_fit(ds, 1)
    # so does the mean of rows near the float limit
    ds = RawDataset(np.array([[1.7e308, 1.0], [1.7e308, 2.0]]), np.array([+1, -1]), "edge")
    with pytest.raises(DomainError, match="edge"):
        pca_fit(ds, 1)


def test_pca_project_and_transform():
    ds = _toy_dataset(seed=2)
    model = pca_fit(ds, 2)
    projected = pca_project(model, ds.features)
    assert projected.shape == (40, 2)
    # centered data: projections have zero mean too
    np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-10)
    # a new point goes through the same affine map as the fitted rows
    point = pca_project(model, ds.features[3] + 1.0)
    np.testing.assert_allclose(point, projected[3] + model.components.sum(axis=0), atol=1e-12)


def test_synthetic_blobs_shape_and_separation():
    ds = synthetic_blobs(0, 50, 3, 4.0)
    assert ds.features.shape == (100, 3)
    np.testing.assert_array_equal(ds.labels[:50], [+1] * 50)
    np.testing.assert_array_equal(ds.labels[50:], [-1] * 50)
    pos_mean = ds.features[:50, 0].mean()
    neg_mean = ds.features[50:, 0].mean()
    assert pos_mean - neg_mean == pytest.approx(4.0, abs=0.6)
    # other axes stay centered
    assert abs(ds.features[:, 1].mean()) < 0.5


def test_synthetic_blobs_hold_one_feature_matrix():
    # the budget check counts one 2 m x d matrix, so no second copy may be made
    tracemalloc.start()
    try:
        ds = synthetic_blobs(0, 500, 20, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ds.features.nbytes


def test_synthetic_blobs_determinism():
    a = synthetic_blobs(7, 10, 2, 1.0)
    b = synthetic_blobs(7, 10, 2, 1.0)
    np.testing.assert_array_equal(a.features, b.features)
    c = synthetic_blobs(8, 10, 2, 1.0)
    assert not np.array_equal(a.features, c.features)
    with pytest.raises(DimError):
        synthetic_blobs(0, 0, 2, 1.0)
