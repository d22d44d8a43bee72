"""Exception hierarchy. Every error carries a stable machine-readable code
that the CLI maps onto its exit conventions. The typed reads that every
JSON reader takes its containers and integers through live here too, so
malformed input fails with CertificateError and nothing else."""


class ApproxcatError(Exception):
    code = "Error"
    exit_code = 2


class FieldMismatchError(ApproxcatError):
    code = "FieldMismatch"


class ShapeError(ApproxcatError):
    code = "ShapeMismatch"


class NonAcyclicQuiverError(ApproxcatError):
    code = "NonAcyclicQuiver"
    exit_code = 3


class SubobjectClosureError(ApproxcatError):
    code = "SubobjectClosureViolation"
    exit_code = 3


class BudgetExceededError(ApproxcatError):
    code = "BudgetExceeded"
    exit_code = 3


class RationalFieldUnsupportedError(ApproxcatError):
    code = "RationalFieldUnsupported"
    exit_code = 3


class ExtObstructionError(ApproxcatError):
    code = "ExtObstruction"
    exit_code = 3


class HypothesisViolationError(ApproxcatError):
    code = "HypothesisViolation"
    exit_code = 3


class NoFreeLoopError(ApproxcatError):
    code = "NoFreeLoop"
    exit_code = 3


class CertificateError(ApproxcatError):
    code = "CertificateInvalid"


class IsoInconclusiveError(ApproxcatError):
    code = "IsoInconclusive"
    exit_code = 3


def _typed(value, kind, what):
    """value, if it is a JSON value of kind (dict, list, str, int or bool);
    a JSON boolean does not count as an int."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise CertificateError(f"{what} must be a JSON {kind.__name__}, got {type(value).__name__}")
    return value


def _need(data, key, kind=None):
    """The entry key of the object data, of kind if one is given."""
    if not isinstance(data, dict) or key not in data:
        raise CertificateError(f"missing field {key!r}")
    return data[key] if kind is None else _typed(data[key], kind, key)
