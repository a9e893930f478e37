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


# Largest buffer one run may hold: the blob features, the PCA covariance,
# the embedded sample set, the filter's and the pca-layer embedding's gate
# passes (each counted as the arrays alive at its peak) and the
# register-level twin's buffer. check_budget() refuses a bigger one before it is built.
MAX_BUFFER_BYTES = 2**28


def check_budget(need_bytes: int, what: str) -> None:
    """Raise RegisterTooLarge if need_bytes exceeds MAX_BUFFER_BYTES; what has {} for its MiB."""
    if need_bytes > MAX_BUFFER_BYTES:
        # the fewest digits, at least 3, that print the need above the budget
        for digits in range(3, 18):  # 17 tell any two doubles apart
            need, budget = (f"{b / 2**20:.{digits}g}" for b in (need_bytes, MAX_BUFFER_BYTES))
            if float(need) > float(budget):
                break
        raise RegisterTooLarge(f"{what.format(need)}, over the {budget} MiB budget")


class ShapeError(QFilterError):
    """Array argument has the wrong shape."""


class CsvError(QFilterError):
    """Input CSV file is malformed."""


class ModelError(QFilterError):
    """A saved model is malformed or no longer matches its dataset."""
