"""Exception taxonomy. Every deliberate failure mode gets its own class."""
from __future__ import annotations


class QFilterError(Exception):
    """Base class for all library errors."""


class UnsupportedGate(QFilterError):
    """Gate kind outside the supported set."""


class NormError(QFilterError):
    """State or matrix fails a normalization requirement."""


class DimError(QFilterError):
    """Operands have incompatible dimensions."""


class HermiticityError(QFilterError):
    """Matrix expected to be Hermitian is not."""


class ZeroVectorError(QFilterError):
    """Cannot normalize the zero vector."""


class DomainError(QFilterError):
    """Scalar input outside its mathematical domain."""


class ParamShapeError(QFilterError):
    """Parameter vector length does not match the circuit."""


class ClassBalanceError(QFilterError):
    """Dataset does not contain both labels."""


class FilterAnnihilated(QFilterError):
    """Post-selection succeeds with probability (numerically) zero."""


class ClassAnnihilated(QFilterError):
    """An entire class is filtered out, leaving no state to normalize."""


class RegisterTooLarge(QFilterError):
    """A simulation would exceed its memory budget."""


# Largest working set one run may hold: the PCA covariance, the analytic
# path's gate tape and the register-level twin's buffer. A bigger input
# raises RegisterTooLarge before any of it is built.
MAX_BUFFER_BYTES = 2**28


class ShapeError(QFilterError):
    """Array argument has the wrong shape."""


class CsvError(QFilterError):
    """Input CSV file is malformed."""


class ModelError(QFilterError):
    """A saved model is malformed or no longer matches its dataset."""
