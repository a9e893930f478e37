"""Built-in data, CSV loading, PCA, synthetic blobs."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassBalanceError,
    CsvError,
    DimError,
    DomainError,
    ShapeError,
    check_budget,
)


def check_labels(labels: list[int]) -> None:
    """Raise ClassBalanceError unless the labels are +1 and -1, both present."""
    present = set(labels)
    if not present <= {+1, -1} or len(present) != 2:
        raise ClassBalanceError(f"need both labels +1 and -1, got {sorted(present)}")


@dataclass(frozen=True)
class RawDataset:
    """Feature matrix with +1/-1 labels; both classes must be present."""

    features: np.ndarray
    labels: np.ndarray
    name: str

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        if f.ndim != 2 or y.ndim != 1 or f.shape[0] != y.shape[0]:
            raise ShapeError(f"features {f.shape} vs labels {y.shape}")
        check_labels(y.tolist())  # as given: a cast would truncate 1.5 to 1
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y.astype(int, copy=False))

    def pairs(self) -> list[tuple[np.ndarray, int]]:
        return [(self.features[i], int(self.labels[i])) for i in range(len(self.labels))]


def iris_builtin() -> tuple[RawDataset, tuple[np.ndarray, int]]:
    """Two preprocessed iris training points and one test point, as printed."""
    train = RawDataset(
        features=np.array([[0.796, 0.607], [0.0, 1.0]]),
        labels=np.array([+1, -1]),
        name="iris-builtin",
    )
    test = (np.array([-0.557, 0.83]), -1)
    return train, test


def load_csv(path: str) -> RawDataset:
    """Header + float rows; `label` column in {+1,-1} or {0,1} (remapped)."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CsvError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise CsvError(f"{path}: header has no `label` column")
        if len(header) < 2:
            raise CsvError(f"{path}: header has no feature column")
        label_idx = header.index("label")
        feats: list[list[float]] = []
        labels: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise CsvError(f"{path}:{line_no}: expected {len(header)} columns")
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise CsvError(f"{path}:{line_no}: {exc}") from exc
            if not np.all(np.isfinite(values)):
                raise CsvError(f"{path}:{line_no}: non-finite value")
            labels.append(values.pop(label_idx))
            feats.append(values)
    if not feats:
        raise CsvError(f"{path}: no data rows")
    y = np.array(labels)
    if 0.0 in y and set(np.unique(y).tolist()) <= {0.0, 1.0}:
        warnings.warn(f"{path}: labels in {{0,1}} remapped to {{-1,+1}}")
        y = np.where(y == 0.0, -1.0, +1.0)
    if not set(np.unique(y).tolist()) <= {-1.0, +1.0}:
        raise CsvError(f"{path}: labels must be in {{+1,-1}} or {{0,1}}")
    return RawDataset(np.array(feats), y.astype(int), name=path)


@dataclass(frozen=True)
class PCAModel:
    """Mean plus top-k orthonormal covariance eigenvectors (columns)."""

    mean: np.ndarray
    components: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.components, dtype=float)
        gram = c.T @ c
        if not np.allclose(gram, np.eye(c.shape[1]), atol=1e-10, rtol=0):
            raise DimError("PCA components are not orthonormal")


def pca_fit(dataset: RawDataset, k: int) -> PCAModel:
    """Top-k eigenvectors of the sample covariance, deterministic signs.

    Each component is flipped so its largest-magnitude entry is positive.
    Raises RegisterTooLarge when the d x d covariance is over the memory budget.
    """
    x = dataset.features
    m, d = x.shape
    if not 1 <= k <= min(m, d):
        raise DimError(f"k={k} outside [1, min(M={m}, d={d})]")
    check_budget(d * d * 8, f"PCA of {d} features needs a {{}} MiB covariance")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        xc = x - mean
        cov = xc.T @ xc / max(m - 1, 1)
    # a non-finite centred entry leaves its covariance diagonal non-finite too
    if not np.isfinite(cov).all():
        raise DomainError(f"{dataset.name}: the centred data or its covariance overflows")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    comps = evecs[:, order]
    for j in range(k):
        pivot = np.argmax(np.abs(comps[:, j]))
        if comps[pivot, j] < 0:
            comps[:, j] = -comps[:, j]
    return PCAModel(mean, comps)


def pca_project(model: PCAModel, features: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - model.mean) @ model.components


def synthetic_blobs(seed: int, m_per_class: int, dims: int, separation: float) -> RawDataset:
    """Two unit-variance Gaussian clusters split along the first axis.

    Raises RegisterTooLarge when the 2 m_per_class x dims features are over
    the memory budget, before any is drawn.
    """
    if m_per_class < 1:
        raise DimError("need at least one sample per class")
    rows = 2 * m_per_class
    check_budget(rows * dims * 8, f"{rows} blobs of {dims} features need {{}} MiB")
    # one draw fills the +1 rows, then the -1 rows, as two draws would
    features = np.random.default_rng(seed).standard_normal((rows, dims))
    features[:m_per_class, 0] += separation / 2
    features[m_per_class:, 0] -= separation / 2
    return RawDataset(
        features,
        np.array([+1] * m_per_class + [-1] * m_per_class),
        name=f"blobs-s{seed}-m{m_per_class}-d{dims}-sep{separation:g}",
    )


def load_dataset(descriptor: dict) -> RawDataset:
    """The dataset a descriptor names: iris, blobs with their arguments, or a CSV path."""
    kind = descriptor["kind"]
    if kind == "iris":
        return iris_builtin()[0]
    if kind == "blobs":
        d = descriptor
        return synthetic_blobs(d["seed"], d["per_class"], d["dims"], d["separation"])
    if kind == "csv":
        path = descriptor["path"]
        if not isinstance(path, str):
            raise CsvError(f"a CSV path must be a string, got {path!r}")
        return load_csv(path)
    raise DomainError(f"unknown dataset kind {kind!r}")
