"""Probabilistic Kraus filters for quantum-embedded data.

Pipeline: embed classical points as pure states, train a post-selected
single-ancilla filter that pushes the two class ensembles apart in
Hilbert-Schmidt distance, and classify by ensemble fidelity. A register-level
circuit path (state preparation, post-selection, swap tests) mirrors the
analytic one for differential verification.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .classifier import (
    ClassifierOutput,
    RiskReport,
    build_ensembles,
    constrained_risk,
    decide,
    fidelity_classify,
    filtered_class_weights,
    filtered_fidelity_classify,
    weighted_empirical_risk,
)
from .datasets import (
    PCAModel,
    RawDataset,
    iris_builtin,
    load_csv,
    pca_fit,
    synthetic_blobs,
)
from .embedding import (
    EmbeddedSample,
    EmbeddingSpec,
    amplitude_encode,
    angle_encode,
    embed_dataset,
    encode_point,
    pca_layer_encode,
)
from .featuremap import (
    FeatureMapCircuit,
    KrausPair,
    TransformedEnsembles,
    apply_filter,
    build_ansatz,
    circuit_unitary,
    kraus_from_circuit,
    transform_ensemble,
)
from .protocol import (
    ProtocolOutcome,
    RegisterLayout,
    apply_feature_maps_postselect,
    classifier_layout,
    prepare_classifier_state,
    prepare_risk_state,
    risk_layout,
    run_classifier_protocol,
    run_risk_protocol,
    sample_outcomes,
)
from .quantum import (
    DensityMatrix,
    GateSpec,
    StateVector,
    UnitaryMatrix,
    hs_distance,
    overlap,
    pure_to_density,
    random_cptp,
    run_gates,
    trace_norm,
)
from .training import (
    TrainConfig,
    TrainResult,
    co_train,
    compare_conditions,
    cost,
    gradient,
    train,
)
