"""Exception hierarchy.

Two top-level families matter for scripting: ``DbarDiskError`` means a real
failure (CLI exit code 1), ``Refusal`` means a mathematically vacuous or
inapplicable request, e.g. certifying a holomorphic map (CLI exit code 2).
Malformed input values raise ``ValueError`` (also exit code 1); the checks
below are shared by the parsers of configs and polynomial specs.
"""

import sys

import numpy as np


class DbarDiskError(Exception):
    """Base class for all errors raised by this package."""


class Refusal(DbarDiskError):
    """The requested certificate/diagnostic does not apply to the inputs."""


class EvaluationError(DbarDiskError):
    """Non-finite value produced while evaluating a defining function."""

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class DegenerateBoundaryError(DbarDiskError):
    """|grad rho| below tolerance at a boundary point."""


class InvalidSubspaceError(DbarDiskError):
    """k outside 1..n-1 in a k-pseudoconvexity query."""


class ResolutionError(DbarDiskError):
    """Grid or operator resolution too small for the request."""


class ConstraintViolationError(DbarDiskError):
    """Boundary image leaves the hypersurface {rho = 0}."""

    def __init__(self, message, worst_node=None, worst_value=None):
        super().__init__(message)
        self.worst_node = worst_node
        self.worst_value = worst_value


class InvalidVariationError(DbarDiskError):
    """Variation violates its stated support/boundary conditions."""


class AdmissibilityError(DbarDiskError):
    """Variation field is not tangent to the boundary within tolerance."""

    def __init__(self, message, measured_sup=None):
        super().__init__(message)
        self.measured_sup = measured_sup


class EmptyBasisError(DbarDiskError):
    """Gram assembly needs at least one variation field."""


class VacuousCertificateError(Refusal):
    """The map is holomorphic, so an instability certificate is vacuous."""


class NonFiniteValueError(DbarDiskError):
    """A report holds NaN or an infinity, which strict JSON cannot encode."""


class DegeneratePivotError(DbarDiskError):
    """All holomorphic pairings vanish identically; no pivot section."""


# ---------------------------------------------------------------------------
# input checks


def require_number(name, value, integer=False, minimum=None):
    """value as an int (integer=True: an integer of at most 64 bits) or a
    float (a finite real number), at least minimum; otherwise ValueError
    naming it. A bool is neither."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    ok = (isinstance(value, kinds) and not isinstance(value, bool)
          and abs(value) < (2**63 if integer else sys.float_info.max)
          and (minimum is None or value >= minimum))
    if not ok:
        what = "an integer" if integer else "a finite number"
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be {what}{bound}, got {value!r}")
    return int(value) if integer else float(value)


def require_objects(name, value):
    """value if it is a list of JSON objects (dicts), otherwise ValueError."""
    if not (isinstance(value, list) and all(isinstance(t, dict) for t in value)):
        raise ValueError(f"{name} must be a list of objects, got {value!r}")
    return value
