"""Probabilistic Kraus filters for quantum-embedded data.

Pipeline: embed classical points as pure states, train a post-selected
single-ancilla filter that pushes the two class ensembles apart in
Hilbert-Schmidt distance, and classify by ensemble fidelity. A register-level
circuit path (state preparation, post-selection, swap tests) mirrors the
analytic one for differential verification.

The package re-exports nothing: import each name from its module
(qfilter.embedding, qfilter.featuremap, qfilter.training, ...).
"""
from __future__ import annotations

__version__ = "0.1.0"
