"""Arithmetic and structure theory of the rank-2 split (paracomplex) algebra.

Numbers z = x + e*y with e*e = +1.  Unlike the complex numbers this algebra
has zero divisors: z * conj(z) = x^2 - y^2 vanishes on the null cone
|x| = |y|.  The elements e_plus = (1+e)/2 and e_minus = (1-e)/2 are a pair
of orthogonal idempotents and multiplication is componentwise in the basis
they span, which is what most structural checks here reduce to.

Convention: Im(x + e*y) = y.  This is the choice that makes the half-Im
Poisson bracket in :mod:`frobsym.poisson` come out consistent with the
Hermitian product below.

A :class:`ParaNumber` may also hold two equal-shape float arrays, one split
number per element.  The arithmetic below is then elementwise and rounds
exactly as it does on scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidStructure, NonFiniteValue, ZeroDivisor

# Scale-relative guard for the null cone |re^2 - im^2| = 0.
ZERO_DIVISOR_RTOL = 1e-12


@dataclass(frozen=True)
class ParaNumber:
    """Split number re + e*im with e*e = +1, or an array of them.

    ``==`` and ``hash`` are defined for scalar components only; compare
    array-valued instances component by component.
    """

    re: float | np.ndarray = 0.0
    im: float | np.ndarray = 0.0

    def __post_init__(self):
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

    def conj(self) -> "ParaNumber":
        return para_conj(self)

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


def peirce_reflect(a: ParaNumber) -> ParaNumber:
    """Swap the e_plus and e_minus components.

    In the {1, e} basis the swap is exactly conjugation, so this is an
    involutive algebra automorphism (the mirror fixing the real axis).
    """
    return para_conj(a)


class ParaVector:
    """Fixed-length vector of split numbers."""

    def __init__(self, components):
        comps = tuple(_coerce(c) for c in components)
        if len(comps) < 1:
            raise DimensionMismatch("a split vector needs at least one component")
        self.components = comps

    @classmethod
    def from_arrays(cls, re, im) -> "ParaVector":
        re = np.asarray(re, dtype=float)
        im = np.asarray(im, dtype=float)
        if re.shape != im.shape or re.ndim != 1:
            raise DimensionMismatch("component arrays must be equal-length 1-d")
        return cls([ParaNumber(a, b) for a, b in zip(re, im)])

    def __len__(self):
        return len(self.components)

    def __getitem__(self, k) -> ParaNumber:
        return self.components[k]

    def __iter__(self):
        return iter(self.components)


def para_hermitian_product(g, xi: ParaVector, eta: ParaVector) -> ParaNumber:
    """Hermitian pairing sum_jk g_jk xi^j conj(eta^k) for a real symmetric g.

    Satisfies <xi, eta> = conj(<eta, xi>).  Off-diagonal terms are summed
    as (j,k)+(k,j) pairs, which makes the split part of <xi, xi> cancel
    exactly, not merely to roundoff.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    n = len(xi)
    if len(eta) != n or g.shape != (n, n):
        raise DimensionMismatch(
            f"pairing needs matching sizes, got g{g.shape}, xi[{n}], eta[{len(eta)}]"
        )
    if not np.allclose(g, g.T, atol=1e-12):
        raise InvalidStructure("the pairing matrix must be symmetric")
    total = ParaNumber()
    for j in range(n):
        total = total + g[j, j] * (xi[j] * para_conj(eta[j]))
        for k in range(j + 1, n):
            paired = (g[j, k] * (xi[j] * para_conj(eta[k]))
                      + g[k, j] * (xi[k] * para_conj(eta[j])))
            total = total + paired
    return total


class ParaStructure:
    """Product structure on a 2m-dimensional real space: K with K^2 = I.

    The +1 and -1 eigenspaces of K must have equal dimension m; instances
    validate both conditions at construction.
    """

    SQUARE_TOL = 1e-12

    def __init__(self, matrix):
        K = np.asarray(matrix, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise DimensionMismatch("K must be square")
        d = K.shape[0]
        if d % 2 != 0:
            raise DimensionMismatch("K acts on an even-dimensional space")
        resid = np.max(np.abs(K @ K - np.eye(d)))
        if resid > self.SQUARE_TOL:
            raise InvalidStructure(f"K^2 differs from the identity by {resid:.3e}")
        eigvals = np.linalg.eigvals(K)
        plus = int(np.sum(np.real(eigvals) > 0.0))
        if plus != d // 2:
            raise InvalidStructure(
                f"eigenvalue split is {plus}/{d - plus}, expected {d // 2}/{d // 2}"
            )
        self.matrix = K
        self.dim = d

    @classmethod
    def standard(cls, m: int) -> "ParaStructure":
        """Multiplication by e on (x, y) blocks: K = [[0, I], [I, 0]]."""
        z = np.zeros((m, m))
        i = np.eye(m)
        return cls(np.block([[z, i], [i, 0 * i]]))

    def square_residual(self) -> float:
        return float(np.max(np.abs(self.matrix @ self.matrix - np.eye(self.dim))))

    def trace(self) -> float:
        return float(np.trace(self.matrix))
