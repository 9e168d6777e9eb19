"""Exception hierarchy.

Two top-level families matter for scripting: ``DbarDiskError`` means a real
failure (CLI exit code 1), ``Refusal`` means a mathematically vacuous or
inapplicable request, e.g. certifying a holomorphic map (CLI exit code 2).
"""


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
