"""Classical-to-quantum encoders producing a labeled set of pure-state samples.

A Pipeline takes a dataset descriptor, as a train manifest records it, to
that set: it holds the dataset, the preprocessing fitted on it and the
embedding spec.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .datasets import (
    PCAModel,
    RawDataset,
    check_labels,
    iris_builtin,
    load_dataset,
    pca_fit,
    pca_project,
)
from .errors import (
    DimError,
    DomainError,
    ModelError,
    ShapeError,
    ZeroVectorError,
    check_budget,
)
from .featuremap import FeatureMapCircuit, build_ansatz
from .quantum import GateSpec, StateVector, gate_pass_bytes, run_gates

EMBEDDING_KINDS = ("amplitude", "angle", "pca-layer")


@dataclass(frozen=True)
class EmbeddingSpec:
    """Which encoder to use and, for the layered one, its trainable angles.

    kind "amplitude": input dimension at most 2**n_qubits, zero padded.
    kind "angle": single qubit, first feature only.
    kind "pca-layer": one Rx data-loading rotation per qubit followed by
    `layers` repetitions of per-qubit Ry plus nearest-neighbor ZZ couplers;
    `ring` adds the wrap-around coupler when there are 3+ qubits.
    """

    kind: str
    n_qubits: int
    params: tuple[float, ...] = ()
    layers: int = 1
    ring: bool = False

    def __post_init__(self) -> None:
        if self.kind not in EMBEDDING_KINDS:
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        for name in ("n_qubits", "layers"):  # exact types: a saved true is not a count
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if type(self.ring) is not bool:
            raise TypeError(f"ring must be true or false, got {self.ring!r}")
        if self.kind == "angle" and self.n_qubits != 1:
            raise DimError("angle embedding is single-qubit")
        if self.n_qubits < 1:
            raise DimError("need at least one qubit")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    def param_count(self) -> int:
        if self.kind != "pca-layer":
            return 0
        return self.layers * len(_pca_layer(self.n_qubits, self.ring))


@dataclass(frozen=True)
class EmbeddedSample:
    """One row of a SampleSet: its state and its label."""

    state: StateVector
    label: int


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Encoded points: row m of amplitudes is the state of point m, labels[m] its label.

    amplitudes is an (M, 2**n_qubits) complex array and labels an (M,) array
    of +1 and -1; both are checked once, here. A row's index is its
    position, and set[m] is that row as an EmbeddedSample.
    """

    amplitudes: np.ndarray
    labels: np.ndarray
    n_qubits: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amps, labels = np.asarray(self.amplitudes, dtype=complex), np.asarray(self.labels)
        d = amps.shape[-1] if amps.ndim else 0
        if amps.ndim != 2 or not d or d & (d - 1):
            raise DimError(f"expected an (M, 2**n) array of amplitude rows, got shape {amps.shape}")
        if labels.shape != amps.shape[:1]:
            raise ShapeError(f"amplitudes {amps.shape} vs labels {labels.shape}")
        bad = labels[(labels != 1) & (labels != -1)]
        if bad.size:
            raise ValueError(f"label must be +1 or -1, got {bad[0]}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels.astype(int, copy=False))
        object.__setattr__(self, "n_qubits", d.bit_length() - 1)

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    def __getitem__(self, m: int) -> EmbeddedSample:
        return EmbeddedSample(StateVector(self.amplitudes[m]), int(self.labels[m]))


def _pca_layer(n_qubits: int, ring: bool) -> list[GateSpec]:
    """One trainable pca-layer layer: an Ry on every qubit, then the ZZ couplers."""
    pairs = [(q, q + 1) for q in range(n_qubits - 1)]
    if ring and n_qubits > 2:
        pairs.append((n_qubits - 1, 0))
    return [GateSpec("Ry", (q,)) for q in range(n_qubits)] + [GateSpec("ZZ", p) for p in pairs]


def amplitude_states(xs: np.ndarray, n_qubits: int) -> np.ndarray:
    """Every row of xs normalized and zero padded to 2**n_qubits amplitudes.

    The first row that cannot be encoded raises its error.
    """
    v = np.asarray(xs, dtype=float)
    d = 2**n_qubits
    if v.ndim != 2 or v.shape[1] > d:
        raise DimError(f"input of dim {v.shape[1:]} does not fit {n_qubits} qubits")
    with np.errstate(over="ignore", invalid="ignore"):
        # row @ row for every row, the same product np.linalg.norm forms
        norms = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms >= 1e-15)))
    if bad.size:
        norm = norms[bad[0]]
        if not math.isfinite(norm):
            raise DomainError(f"cannot amplitude-encode: the norm of the input is {norm}")
        raise ZeroVectorError("cannot amplitude-encode the zero vector")
    amps = np.zeros((v.shape[0], d), dtype=complex)
    amps[:, : v.shape[1]] = v / norms[:, None]
    return amps


def angle_states(x0: np.ndarray) -> np.ndarray:
    """Ry(2 acos(x0))|0> = (x0, sqrt(1 - x0^2)) as one row per entry of x0."""
    x0 = np.asarray(x0, dtype=float)
    outside = np.flatnonzero(np.abs(x0) > 1.0)
    if outside.size:
        raise DomainError(f"angle encoding needs |x0| <= 1, got {x0[outside[0]]}")
    return np.stack([x0, np.sqrt(1.0 - x0 * x0)], axis=1).astype(complex)


def pca_layer_states(
    xs: np.ndarray, spec: EmbeddingSpec, params: np.ndarray | None = None
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """pca-layer states of the rows of xs as columns, and their pullback in the angles.

    Rx data loading makes the product state (cos(x_q/2), -i sin(x_q/2))
    over the qubits, so only the trainable layers (_pca_layer() repeated,
    gate i taking params[i]) run through run_gates(). params, an array of
    spec.param_count() angles, stands in for spec.params, so that a
    training loop need not rebuild the spec's tuple at every step.
    """
    v = np.asarray(xs, dtype=float)
    n = spec.n_qubits
    if v.ndim != 2 or v.shape[1] != n:
        raise DimError(f"inputs of shape {v.shape} do not match {n} qubits")
    cols = np.ones((1, v.shape[0]), dtype=complex)
    for q in range(n):
        ket = np.stack([np.cos(v[:, q] / 2), -1j * np.sin(v[:, q] / 2)])
        cols = (cols[:, None, :] * ket[None, :, :]).reshape(-1, v.shape[0])
    angles = spec.params if params is None else params
    return run_gates(cols, _pca_layer(n, spec.ring) * spec.layers, angles)


def _check_pass_budget(spec: EmbeddingSpec, rows: int) -> None:
    """Refuse a pca-layer spec whose run_gates() pass over rows inputs is over the budget."""
    n, layers = spec.n_qubits, spec.layers
    what = f"a {n}-qubit, {layers}-layer embedding of {rows} rows needs {{}} MiB for its gate pass"
    check_budget(gate_pass_bytes(spec.param_count(), n, rows), what)


def finite_rows(xs: np.ndarray) -> np.ndarray:
    """xs as a float array; the first row holding a NaN or an infinity raises DomainError."""
    v = np.asarray(xs, dtype=float)
    if not np.isfinite(v).all():
        row = np.flatnonzero(~np.isfinite(v.reshape(len(v), -1)).all(axis=1))[0]
        raise DomainError(f"cannot encode row {row}: it holds a NaN or an infinity")
    return v


def encode_rows(xs: np.ndarray, spec: EmbeddingSpec) -> np.ndarray:
    """The states of the rows of xs, one row of amplitudes each, in one array pass.

    Any row holding a NaN or an infinity is refused before an encoder runs.
    amplitude: a row of at most 2**n_qubits features, normalized and zero
    padded. angle: the first feature of each row. pca-layer: a row of
    n_qubits features.
    """
    v = finite_rows(xs)
    if spec.kind == "amplitude":
        return amplitude_states(v, spec.n_qubits)
    if spec.kind == "angle":
        return angle_states(v.reshape(v.shape[0], -1)[:, 0])
    return pca_layer_states(v, spec)[0].T


def encode_point(x: np.ndarray, spec: EmbeddingSpec) -> StateVector:
    """The state of one point: the one-row case of encode_rows()."""
    return StateVector(encode_rows(np.asarray(x, dtype=float)[None], spec)[0])


# Amplitude arrays a fit holds at its peak, as gate_pass_bytes() counts a
# pass: transform_ensemble() holds the set, its column copy and two copies
# of a class's columns, and classify_rows() the set, K psi and D K psi; the
# rest covers the labels, the class masks and the encoders' temporaries
# (measured peaks in CHANGES.md).
SAMPLE_SET_ARRAYS = 8


def embed_rows(features: np.ndarray, labels: np.ndarray, spec: EmbeddingSpec) -> SampleSet:
    """Encode the labelled rows of features in one batch, budgeted first; both classes required."""
    check_labels(np.asarray(labels).tolist())
    rows, n = len(labels), spec.n_qubits
    check_budget(
        SAMPLE_SET_ARRAYS * rows * 2**n * 16, f"{rows} embedded {n}-qubit rows need {{}} MiB"
    )
    return SampleSet(encode_rows(features, spec), labels)


def embed_dataset(data: list[tuple[np.ndarray, int]], spec: EmbeddingSpec) -> SampleSet:
    """embed_rows() on (x, y) pairs, preserving order; the rows must share one width."""
    rows = [np.asarray(x, dtype=float) for x, _ in data]
    if len({r.shape for r in rows}) > 1:
        raise DimError("the rows of a dataset must all have one width")
    return embed_rows(np.array(rows), np.array([y for _, y in data]), spec)


@dataclass(frozen=True)
class FeatureScaling:
    """Per-column affine map fixed on training data and reused on test data."""

    center: tuple[float, ...]
    factor: tuple[float, ...]

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - np.array(self.center)) * np.array(
            self.factor
        )


def fit_rotation_scaling(features: np.ndarray) -> FeatureScaling:
    """Center each column and scale the training range into [-pi, pi]."""
    f = np.asarray(features, dtype=float)
    center = f.mean(axis=0)
    spread = np.abs(f - center).max(axis=0)
    factor = np.where(spread > 1e-12, np.pi / np.where(spread > 1e-12, spread, 1.0), 1.0)
    return FeatureScaling(tuple(center.tolist()), tuple(factor.tolist()))


@dataclass(frozen=True)
class Pipeline:
    """Dataset, fitted preprocessing and embedding spec."""

    descriptor: dict
    dataset: RawDataset
    spec: EmbeddingSpec
    pca: PCAModel | None = None
    scaling: FeatureScaling | None = None

    @classmethod
    def fit(
        cls, descriptor: dict, embedding: str, embed_layers: int = 1, ring: bool = False
    ) -> Pipeline:
        """Load the dataset and fit what `amplitude`, `angle` or `pca:<k>` needs."""
        dataset = load_dataset(descriptor)
        if embedding == "angle":
            return cls(descriptor, dataset, EmbeddingSpec("angle", 1))
        if embedding == "amplitude":
            n_qubits = max(1, math.ceil(math.log2(max(dataset.features.shape[1], 2))))
            return cls(descriptor, dataset, EmbeddingSpec("amplitude", n_qubits))
        if not embedding.startswith("pca:"):
            raise DomainError(f"unknown embedding {embedding!r}")
        k = int(embedding[len("pca:") :])
        pca = pca_fit(dataset, k)
        scaling = fit_rotation_scaling(pca_project(pca, dataset.features))
        spec = EmbeddingSpec("pca-layer", k, layers=embed_layers, ring=ring)
        _check_pass_budget(spec, dataset.features.shape[0])
        spec = dataclasses.replace(spec, params=(0.0,) * spec.param_count())
        return cls(descriptor, dataset, spec, pca, scaling)

    def preprocess(self, features: np.ndarray) -> np.ndarray:
        """features projected and scaled as the pipeline was fitted.

        An overflow gives inf without a numpy warning; encode_rows() refuses it.
        """
        out = np.asarray(features, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.pca is not None:
                out = pca_project(self.pca, out)
            if self.scaling is not None:
                out = self.scaling.apply(out)
        return out

    def samples(self, data: RawDataset | None = None) -> SampleSet:
        """The embedded, preprocessed rows of the pipeline's dataset or of another one."""
        data = self.dataset if data is None else data
        return embed_rows(self.preprocess(data.features), data.labels, self.spec)

    def encode(self, x: np.ndarray) -> StateVector:
        """The state of one point, which must have the dataset's features."""
        x = np.asarray(x, dtype=float)
        d = self.dataset.features.shape[1]
        if x.shape != (d,):
            raise DimError(f"the input has {x.size} features, the model's data {d}")
        return encode_point(self.preprocess(x[None, :])[0], self.spec)

    @property
    def scored_on(self) -> str:
        """"train" when test_samples() are the training rows (CSV data), else "test"."""
        return "train" if self.descriptor["kind"] == "csv" else "test"

    def test_samples(self) -> SampleSet:
        """The samples compare scores on.

        Blobs drawn at seed + 1, the built-in iris test point as a one-row
        set, or (CSV data) the training rows.
        """
        d = self.descriptor
        if self.scored_on == "train":
            return self.samples()
        if d["kind"] == "blobs":
            return self.samples(data=load_dataset({**d, "seed": d["seed"] + 1}))
        _, (x, y) = iris_builtin()
        return SampleSet(self.encode(x).amplitudes[None], np.array([y]))

    def embedding_manifest(self) -> dict:
        spec = self.spec
        out = {"kind": spec.kind, "n_qubits": spec.n_qubits}
        if spec.kind == "pca-layer":
            out["layers"] = spec.layers
            out["ring"] = spec.ring
            out["params"] = list(spec.params)
            out["pca_mean"] = self.pca.mean.tolist()
            out["pca_components"] = self.pca.components.tolist()
            out["scale_center"] = list(self.scaling.center)
            out["scale_factor"] = list(self.scaling.factor)
        return out


def fingerprint(dataset: RawDataset) -> dict:
    """Row and column counts and a SHA-256 of the features and labels."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.features).tobytes())
    h.update(np.ascontiguousarray(dataset.labels).tobytes())
    return {
        "rows": int(dataset.features.shape[0]),
        "dims": int(dataset.features.shape[1]),
        "sha256": h.hexdigest(),
    }


@dataclass(frozen=True)
class TrainedModel:
    """The parts of a train result that classification reads: the filter is ansatz at theta."""

    pipeline: Pipeline
    ansatz: FeatureMapCircuit
    theta: np.ndarray
    config: dict
    fingerprint: dict


def _finite(name: str, values: list) -> np.ndarray:
    """values as a float array; a null, NaN or infinite entry raises ModelError."""
    out = np.array(values, dtype=float)
    if not np.isfinite(out).all():
        raise ModelError(f"malformed model: {name} holds a non-finite number")
    return out


# the arrays a pca-layer model saves in its embedding manifest
PCA_ARRAYS = ("params", "pca_mean", "pca_components", "scale_center", "scale_factor")


def restore_model(result: dict) -> TrainedModel:
    """Rebuild a train result; a malformed one raises ModelError.

    The embedding is rebuilt only for a kind that train writes, at the saved
    n_qubits. The PCA, the scaling and the trained embedding angles come from
    the manifest as saved, not refitted; every number in them and in
    theta_star must be finite, their shapes must fit the dataset's d
    features and the k = n_qubits components (pca_mean (d,), pca_components
    (d, k), scale_center and scale_factor (k,), one angle per embedding
    gate), and the embedding's gate pass must fit the memory budget.
    theta_star holds the filter's angles, then, for a co-trained model,
    the embedding's, which must equal params. The dataset, rebuilt from its
    descriptor, must still match the fingerprint the model was trained on.
    """
    try:
        manifest = result["manifest"]
        cfg = manifest["config"]
        d, e = cfg["dataset"], cfg["embedding"]
        if e["kind"] == "pca-layer":
            params, mean, comps, center, factor = arrays = [_finite(f, e[f]) for f in PCA_ARRAYS]
            spec = EmbeddingSpec("pca-layer", e["n_qubits"], tuple(params), e["layers"], e["ring"])
            dataset = load_dataset(d)
            width, k = dataset.features.shape[1], spec.n_qubits
            shapes = [(spec.param_count(),), (width,), (width, k), (k,), (k,)]
            for name, values, shape in zip(PCA_ARRAYS, arrays, shapes):
                if values.shape != shape:
                    what = f"{name} has shape {values.shape}, not {shape}"
                    raise ModelError(f"malformed model: {what}")
            _check_pass_budget(spec, dataset.features.shape[0])
            scaling = FeatureScaling(tuple(center.tolist()), tuple(factor.tolist()))
            pipe = Pipeline(d, dataset, spec, PCAModel(mean, comps), scaling)
        elif e["kind"] in ("amplitude", "angle"):
            pipe, n = Pipeline.fit(d, e["kind"]), e["n_qubits"]
            if type(n) is not int or n != pipe.spec.n_qubits:
                raise ModelError(f"malformed model: n_qubits {n!r} for {pipe.spec.n_qubits}-qubit data")
        else:
            raise ModelError(f"malformed model: unknown embedding kind {e['kind']!r}")
        layers, theta = cfg["ansatz_layers"], _finite("theta_star", result["theta_star"])
        if type(layers) is not int or layers < 1:
            raise ModelError(f"malformed model: ansatz_layers {layers!r} is not an integer >= 1")
        if theta.ndim != 1:
            raise ModelError("malformed model: theta_star has the wrong type")
        saved = manifest["dataset_fingerprint"]
    except KeyError as exc:
        raise ModelError(f"model has no entry {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model: {exc}") from exc
    ansatz = build_ansatz(pipe.spec.n_qubits, layers)
    n, angles = ansatz.n_params, pipe.spec.params
    if angles and theta.size == n + len(angles):
        if not np.array_equal(theta[n:], angles):
            raise ModelError("malformed model: the embedding angles in theta_star are not params")
    elif theta.size != n:
        what = f"theta_star holds {theta.size} angles, not the filter's {n}"
        raise ModelError(f"malformed model: {what}")
    if fingerprint(pipe.dataset) != saved:
        raise ModelError("the dataset differs from the one the model was trained on")
    return TrainedModel(pipe, ansatz, theta[:n], cfg, saved)
