"""Exception types shared across the toolkit.

Residual checks never raise on a failed identity: a large residual is data.
Exceptions are reserved for inputs on which the requested construction is
not defined at all (singular metrics, zero divisors, malformed specs).

The guards every construction shares live here too, so each rule is
decided once: a matrix is symmetric (or antisymmetric) when its entries
are finite and max|m -+ m^T| <= SYMMETRY_RTOL * max(1, max|m|) over its
last two axes, and invertible when its condition number is at most
CONDITION_LIMIT.  Messages are formatted only on failure, so a passing
guard costs no repr of the point.  A guard takes a stack of matrices too,
decides each on its own, and names the offending point of the stack ``at``.
"""

import numpy as np

SYMMETRY_RTOL = 1e-12
CONDITION_LIMIT = 1e12


class FrobsymError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(FrobsymError, ValueError):
    """Operands with incompatible shapes or lengths."""


class InvalidFamily(FrobsymError, ValueError):
    """Statistics table or base weights that define no exponential family."""


class InvalidStructure(FrobsymError, ValueError):
    """Structure data that breaks a requirement of its definition: asymmetric
    constants or form coefficients, a metric or pairing that is not
    symmetric, a map that does not preserve orientation, a signature entry
    that is not +-1."""


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


def _at(at) -> str:
    return "" if at is None else f" at {np.asarray(at)}"


def _require_small(combine, m: np.ndarray, mt: np.ndarray, kind: str, what: str, at) -> None:
    # array methods, not np.max/np.abs: this runs on every metric evaluation
    scale = abs(m).max(axis=(-2, -1))
    # an inf or NaN entry (max() propagates a NaN) is caught before
    # combine(m, m^T) can compute inf - inf, which would warn
    require_finite(scale, what, at)
    over = abs(combine(m, mt)).max(axis=(-2, -1)) > SYMMETRY_RTOL * np.maximum(1.0, scale)
    if over.any():
        worst = np.unravel_index(np.argmax(over), over.shape)
        raise InvalidStructure(f"{what} not {kind}{_at_worst(at, worst)}")


def symmetric_part(m: np.ndarray, what: str, at=None) -> np.ndarray:
    """(m + m^T) / 2 over the last two axes; NonFiniteValue if a matrix has
    an infinite or NaN entry, InvalidStructure if one is not symmetric."""
    mt = m.swapaxes(-1, -2)
    _require_small(np.subtract, m, mt, "symmetric", what, at)
    return 0.5 * (m + mt)


def require_antisymmetric(m: np.ndarray, what: str, at=None) -> np.ndarray:
    """``m`` itself; NonFiniteValue if a matrix has an infinite or NaN entry,
    InvalidStructure if one is not antisymmetric in its last two axes."""
    _require_small(np.add, m, m.swapaxes(-1, -2), "antisymmetric", what, at)
    return m


def require_invertible(m: np.ndarray, error: type, what: str, at=None) -> np.ndarray:
    """``m`` itself; ``error`` if its condition number exceeds CONDITION_LIMIT,
    NonFiniteValue if it has an infinite or NaN entry.

    The message names the worst matrix of a stack.  The entries are only
    inspected once the condition number has failed, so a finite matrix
    costs nothing beyond it.
    """
    try:
        cond = np.linalg.cond(m)
    except np.linalg.LinAlgError:
        # the SVD behind cond does not converge on a NaN entry
        cond = np.full(np.shape(m)[:-2], np.inf)
    over = cond > CONDITION_LIMIT
    if over.any():
        require_finite(m, what, at)
        worst = np.unravel_index(np.argmax(np.where(over, cond, 0.0)), cond.shape)
        raise error(f"{what} singular{_at_worst(at, worst)} "
                    f"(condition number {cond[worst]:.1e})")
    return m


def require_finite(m: np.ndarray, what: str, at=None) -> np.ndarray:
    """``m`` itself, one block per point of ``at``; NonFiniteValue naming
    the first point whose block has an infinite or NaN entry."""
    finite = np.isfinite(m)
    if not finite.all():
        raise NonFiniteValue(f"{what} has a non-finite entry{_at_first_false(finite, at)}")
    return m


def require_inside(inside: np.ndarray, what: str, at) -> None:
    """DomainViolation naming the first point of ``at`` whose entry of
    ``inside``, one per point, is false."""
    if not inside.all():
        raise DomainViolation(f"point outside the declared domain of the {what}"
                              f"{_at_first_false(inside, at)}")


def _at_first_false(ok: np.ndarray, at) -> str:
    """' at <point>' for the first point of ``at`` whose block of ``ok`` is
    not all true; '' when ``at`` is None."""
    lead = 0 if at is None else np.ndim(at) - 1
    ok = ok.reshape(ok.shape[:lead] + (-1,)).all(axis=-1)
    return _at_worst(at, np.unravel_index(np.argmin(ok), ok.shape))


def _at_worst(at, worst) -> str:
    return _at(None if at is None else np.asarray(at)[worst])
