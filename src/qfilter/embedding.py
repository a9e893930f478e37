"""Classical-to-quantum encoders producing labeled pure-state samples.

A Pipeline takes a dataset descriptor, as a train manifest records it, to
those samples: it holds the dataset, the preprocessing fitted on it and
the embedding spec.
"""
from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass

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
    ParamShapeError,
    ZeroVectorError,
)
from .quantum import GateSpec, StateVector, run_gates

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
        if self.kind == "angle" and self.n_qubits != 1:
            raise DimError("angle embedding is single-qubit")
        if self.n_qubits < 1:
            raise DimError("need at least one qubit")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    def param_count(self) -> int:
        if self.kind != "pca-layer":
            return 0
        return self.layers * (self.n_qubits + len(_coupler_pairs(self.n_qubits, self.ring)))


@dataclass(frozen=True)
class EmbeddedSample:
    """One encoded training or test point."""

    state: StateVector
    label: int
    source_index: int

    def __post_init__(self) -> None:
        if self.label not in (+1, -1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")


def _coupler_pairs(n_qubits: int, ring: bool) -> list[tuple[int, int]]:
    pairs = [(q, q + 1) for q in range(n_qubits - 1)]
    if ring and n_qubits > 2:
        pairs.append((n_qubits - 1, 0))
    return pairs


def amplitude_encode(x: np.ndarray, n_qubits: int) -> StateVector:
    """Normalize x and pad with zeros to the full register dimension."""
    v = np.asarray(x, dtype=float)
    d = 2**n_qubits
    if v.ndim != 1 or v.shape[0] > d:
        raise DimError(f"input of dim {v.shape} does not fit {n_qubits} qubits")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(v)
    if not math.isfinite(norm):
        raise DomainError(f"cannot amplitude-encode: the norm of the input is {norm}")
    if norm < 1e-15:
        raise ZeroVectorError("cannot amplitude-encode the zero vector")
    amps = np.zeros(d, dtype=complex)
    amps[: v.shape[0]] = v / norm
    return StateVector(amps, n_qubits)


def angle_encode(x0: float) -> StateVector:
    """Ry(2 acos(x0))|0> = (x0, sqrt(1 - x0^2)) on one qubit."""
    if abs(x0) > 1.0:
        raise DomainError(f"angle encoding needs |x0| <= 1, got {x0}")
    return StateVector(np.array([x0, np.sqrt(1.0 - x0 * x0)], dtype=complex), 1)


def pca_layer_states(
    xs: np.ndarray, spec: EmbeddingSpec
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """pca-layer states of the rows of xs as columns, and their pullback in spec.params.

    Rx data loading makes the product state (cos(x_q/2), -i sin(x_q/2))
    over the qubits, so only the trainable layers (an Ry on every qubit,
    then the ZZ couplers, angle i from params[i]) run through run_gates().
    """
    v = np.asarray(xs, dtype=float)
    n = spec.n_qubits
    if v.ndim != 2 or v.shape[1] != n:
        raise DimError(f"inputs of shape {v.shape} do not match {n} qubits")
    theta = np.asarray(spec.params, dtype=float)
    if theta.shape[0] != spec.param_count():
        raise ParamShapeError(
            f"expected {spec.param_count()} parameters, got {theta.shape[0]}"
        )
    cols = np.ones((1, v.shape[0]), dtype=complex)
    for q in range(n):
        ket = np.stack([np.cos(v[:, q] / 2), -1j * np.sin(v[:, q] / 2)])
        cols = (cols[:, None, :] * ket[None, :, :]).reshape(-1, v.shape[0])
    layer = [("Ry", (q,)) for q in range(n)] + [("ZZ", p) for p in _coupler_pairs(n, spec.ring)]
    gates = [GateSpec(kind, t, param_index=i) for i, (kind, t) in enumerate(layer * spec.layers)]
    return run_gates(cols, gates, theta, n)


def pca_layer_encode(x: np.ndarray, spec: EmbeddingSpec) -> StateVector:
    """Rx data loading, then alternating trainable Ry and ZZ coupler layers."""
    cols, _ = pca_layer_states(np.asarray(x, dtype=float)[None], spec)
    return StateVector(cols[:, 0], spec.n_qubits)


def encode_point(x: np.ndarray, spec: EmbeddingSpec) -> StateVector:
    if spec.kind == "amplitude":
        return amplitude_encode(x, spec.n_qubits)
    if spec.kind == "angle":
        return angle_encode(float(np.asarray(x, dtype=float).ravel()[0]))
    return pca_layer_encode(x, spec)


def embed_dataset(
    data: list[tuple[np.ndarray, int]], spec: EmbeddingSpec
) -> list[EmbeddedSample]:
    """Encode every (x, y) pair, preserving order; both classes required."""
    check_labels([y for _, y in data])
    return [
        EmbeddedSample(encode_point(x, spec), int(y), m)
        for m, (x, y) in enumerate(data)
    ]


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
        count = EmbeddingSpec("pca-layer", k, layers=embed_layers, ring=ring).param_count()
        spec = EmbeddingSpec("pca-layer", k, params=(0.0,) * count, layers=embed_layers, ring=ring)
        return cls(descriptor, dataset, spec, pca, scaling)

    def preprocess(self, features: np.ndarray) -> np.ndarray:
        out = np.asarray(features, dtype=float)
        if self.pca is not None:
            out = pca_project(self.pca, out)
        if self.scaling is not None:
            out = self.scaling.apply(out)
        return out

    def pairs(self, data: RawDataset | None = None) -> list[tuple[np.ndarray, int]]:
        """Preprocessed (x, y) rows of the pipeline's dataset or of another one."""
        data = self.dataset if data is None else data
        return list(zip(self.preprocess(data.features), data.labels.tolist()))

    def samples(
        self, spec: EmbeddingSpec | None = None, data: RawDataset | None = None
    ) -> list[EmbeddedSample]:
        return embed_dataset(self.pairs(data), spec or self.spec)

    def encode(self, x: np.ndarray) -> StateVector:
        """The state of one point, which must have the dataset's features."""
        x = np.asarray(x, dtype=float)
        d = self.dataset.features.shape[1]
        if x.shape != (d,):
            raise DimError(f"the input has {x.size} features, the model's data {d}")
        return encode_point(self.preprocess(x[None, :])[0], self.spec)

    def test_samples(self) -> list[EmbeddedSample]:
        """The samples compare scores on.

        Blobs drawn at seed + 1, the built-in iris test point, or (CSV data)
        the training rows.
        """
        d = self.descriptor
        if d["kind"] == "blobs":
            return self.samples(data=load_dataset({**d, "seed": d["seed"] + 1}))
        if d["kind"] == "iris":
            _, (x, y) = iris_builtin()
            return [EmbeddedSample(self.encode(x), y, 0)]
        return self.samples()

    def embedding_manifest(self, spec: EmbeddingSpec | None = None) -> dict:
        spec = spec or self.spec
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
    """The parts of a train result that classification reads."""

    pipeline: Pipeline
    ansatz_layers: int
    theta_star: np.ndarray
    config: dict
    fingerprint: dict


def restore_model(result: dict) -> TrainedModel:
    """Rebuild a train result; a malformed one raises ModelError.

    The PCA, the scaling and the trained embedding angles come from the
    manifest as saved, not refitted. The dataset, rebuilt from its
    descriptor, must still match the fingerprint the model was trained on.
    """
    try:
        manifest = result["manifest"]
        cfg = manifest["config"]
        d, e = cfg["dataset"], cfg["embedding"]
        if e["kind"] == "pca-layer":
            spec = EmbeddingSpec(
                "pca-layer", e["n_qubits"], tuple(e["params"]), e["layers"], e["ring"]
            )
            comps = np.array(e["pca_components"], dtype=float)
            pca = PCAModel(np.array(e["pca_mean"], dtype=float), comps, np.zeros(comps.shape[1]))
            center, factor = (tuple(map(float, e[k])) for k in ("scale_center", "scale_factor"))
            pipe = Pipeline(d, load_dataset(d), spec, pca, FeatureScaling(center, factor))
        else:
            pipe = Pipeline.fit(d, e["kind"])
        layers, theta = cfg["ansatz_layers"], np.array(result["theta_star"], dtype=float)
        if not isinstance(layers, int) or theta.ndim != 1:
            raise ModelError("malformed model: ansatz_layers or theta_star has the wrong type")
        saved = manifest["dataset_fingerprint"]
    except KeyError as exc:
        raise ModelError(f"model has no entry {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model: {exc}") from exc
    if fingerprint(pipe.dataset) != saved:
        raise ModelError("the dataset differs from the one the model was trained on")
    return TrainedModel(pipe, layers, theta, cfg, saved)
