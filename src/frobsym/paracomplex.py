"""Arithmetic and structure theory of the rank-2 split (paracomplex) algebra.

Numbers z = x + e*y with e*e = +1.  Unlike the complex numbers this algebra
has zero divisors: z * conj(z) = x^2 - y^2 vanishes on the null cone
|x| = |y|.  The elements e_plus = (1+e)/2 and e_minus = (1-e)/2 are a pair
of orthogonal idempotents and multiplication is componentwise in the basis
they span, which is what most structural checks here reduce to.

Convention: Im(x + e*y) = y, so ``ParaNumber(x, y).im`` is y and
conjugation negates it.

A :class:`ParaNumber` may also hold two equal-shape float arrays, one split
number per element.  The arithmetic below is then elementwise and rounds
exactly as on scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, ZeroDivisor

# Scale-relative guard for the null cone |re^2 - im^2| = 0.
ZERO_DIVISOR_RTOL = 1e-12


@dataclass(frozen=True)
class ParaNumber:
    """Split number re + e*im with e*e = +1, or an array of them.

    Sequence components are stored as float arrays.  ``==`` and ``hash``
    are defined for scalar components only; compare array-valued instances
    component by component.
    """

    re: float | np.ndarray = 0.0
    im: float | np.ndarray = 0.0

    def __post_init__(self):
        if np.ndim(self.re) or np.ndim(self.im):  # so + adds lists, not concatenates
            object.__setattr__(self, "re", np.asarray(self.re, dtype=float))
            object.__setattr__(self, "im", np.asarray(self.im, dtype=float))
        if np.shape(self.re) != np.shape(self.im):
            raise DimensionMismatch("split number components must have equal shapes")
        if not (np.all(np.isfinite(self.re)) and np.all(np.isfinite(self.im))):
            raise NonFiniteValue("split number components must be finite")

    def __add__(self, other):
        other = _coerce(other)
        return ParaNumber(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ParaNumber(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        return para_mul(self, _coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return ParaNumber(-self.re, -self.im)

    def norm_form(self) -> float | np.ndarray:
        """The real number z * conj(z) = re^2 - im^2."""
        return self.re * self.re - self.im * self.im

    def is_zero_divisor(self) -> bool | np.ndarray:
        """Whether |re^2 - im^2| <= 1e-12 * max(1, re^2 + im^2), elementwise."""
        scale = np.maximum(1.0, self.re * self.re + self.im * self.im)
        return np.abs(self.norm_form()) <= ZERO_DIVISOR_RTOL * scale


def _coerce(value) -> ParaNumber:
    if isinstance(value, ParaNumber):
        return value
    return ParaNumber(float(value), 0.0)


ONE = ParaNumber(1.0, 0.0)
E = ParaNumber(0.0, 1.0)
E_PLUS = ParaNumber(0.5, 0.5)
E_MINUS = ParaNumber(0.5, -0.5)


@dataclass(frozen=True)
class IdempotentCoords:
    """Coordinates (plus, minus) in the idempotent basis {e_plus, e_minus}."""

    plus: float | np.ndarray
    minus: float | np.ndarray


def para_mul(a: ParaNumber, b: ParaNumber) -> ParaNumber:
    """Product in the {1, e} basis: (a.re b.re + a.im b.im, a.re b.im + a.im b.re)."""
    return ParaNumber(a.re * b.re + a.im * b.im, a.re * b.im + a.im * b.re)


def para_conj(a: ParaNumber) -> ParaNumber:
    """Conjugation x + e*y -> x - e*y; involutive and multiplicative."""
    return ParaNumber(a.re, -a.im)


def para_inverse(a: ParaNumber) -> ParaNumber:
    """Inverse conj(a) / (re^2 - im^2).

    Raises :class:`ZeroDivisor` within the scale-relative threshold
    ``|re^2 - im^2| <= 1e-12 * max(1, re^2 + im^2)`` of the null cone; for
    an array, when any element is.
    """
    if np.any(a.is_zero_divisor()):
        raise ZeroDivisor(f"{a} is on (or numerically near) the null cone")
    q = a.norm_form()
    return ParaNumber(a.re / q, -a.im / q)


def idempotent_decompose(a: ParaNumber) -> IdempotentCoords:
    """Coordinates along e_plus and e_minus: (re + im, re - im)."""
    return IdempotentCoords(a.re + a.im, a.re - a.im)


def idempotent_recompose(c: IdempotentCoords) -> ParaNumber:
    """Inverse of :func:`idempotent_decompose`."""
    return ParaNumber(0.5 * (c.plus + c.minus), 0.5 * (c.plus - c.minus))
