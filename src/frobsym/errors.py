"""Exception types shared across the toolkit.

Residual checks never raise on a failed identity: a large residual is data.
Exceptions are reserved for inputs on which the requested construction is
not defined at all (singular metrics, zero divisors, malformed specs).
"""


class FrobsymError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(FrobsymError, ValueError):
    """Operands with incompatible shapes or lengths."""


class InvalidFamily(FrobsymError, ValueError):
    """Statistics table or base weights that define no exponential family."""


class InvalidStructure(FrobsymError, ValueError):
    """Structure data that breaks a requirement of its definition: asymmetric
    constants or form coefficients, a metric or pairing that is not
    symmetric, a product structure with K^2 != I or an unequal eigen-split,
    a map that does not preserve orientation, a signature entry that is not
    +-1, an unknown block of a splitting."""


class NonFiniteValue(FrobsymError, ValueError):
    """A parameter point or computed tensor with an infinite or NaN entry."""


class ZeroDivisor(FrobsymError, ZeroDivisionError):
    """Inversion attempted on a split number with vanishing norm form."""


class DegenerateMetric(FrobsymError):
    """Metric singular (or numerically singular) at the probed point."""


class DegenerateAlgebra(FrobsymError, ValueError):
    """Algebra whose idempotents form a continuum rather than finitely many points."""


class DegenerateForm(FrobsymError):
    """Two-form singular at the probed point."""


class DegeneratePencil(FrobsymError):
    """Coordinate derivative of the metric is singular, no pencil exists."""


class NonPositivePotential(FrobsymError):
    """Potential evaluated to a non-positive value where a log is needed."""


class DomainViolation(FrobsymError):
    """A probe point left the declared domain of a field."""


class NonConvergence(FrobsymError):
    """An iterative solver exhausted its iteration budget."""


class ParseError(FrobsymError, ValueError):
    """Malformed spec text. Carries the 1-based line/column of the defect."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(FrobsymError, ValueError):
    """Well-formed spec text with an invalid field. Carries the field path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
