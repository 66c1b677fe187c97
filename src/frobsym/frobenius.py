"""Frobenius and Novikov algebra checks.

Structure constants are stored as c[..., k, i, j] = (e_i o e_j)^k, over any
stack axes; upper-index constants b^{ij}_k from first-order bracket theory
are stored as b[i, j, k].  Raising/lowering goes through the pairing.
Residuals are reported, never raised: a failed axiom is data for the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DegenerateAlgebra, DegenerateMetric, DimensionMismatch, require_finite,
                     require_invertible, symmetric_part)

if TYPE_CHECKING:
    from .geometry import MetricField, PotentialField

IDEMPOTENT_TOL = 1e-10    # bound on |a o a - a| / max(1, |a|) for a returned idempotent
IDEMPOTENT_DEDUP = 1e-7   # candidates closer than this (max norm) are one root
DOUBLE_ROOT_RTOL = 1e-12  # bound on |cubic(r)| / roundoff scale at a double root r
_SUM_LIMIT = 2.0 ** 1023  # entries below it add to a finite double


@dataclass(frozen=True)
class FrobeniusAlgebra:
    """Commutative-algebra candidates, one or a stack sharing leading axes:
    constants c[..., k, i, j], pairings [..., i, j], optional units [..., i]."""

    c: np.ndarray
    pairing: np.ndarray
    unit: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        p = np.asarray(self.pairing, dtype=float)
        n = p.shape[-1]
        if p.shape[-2:] != (n, n) or c.shape != p.shape[:-2] + (n, n, n):
            raise DimensionMismatch("constants and pairing sizes disagree")
        object.__setattr__(self, "c", c)
        # MetricField.value and replace() hand over a pairing that is already
        # its own symmetric part: bit-for-bit symmetric, with finite entries
        # below 2^1023, so (p + p^T) / 2 rounds back to p.  An inf or NaN
        # entry fails the first test and raises in symmetric_part.
        if (abs(p).max(initial=0.0) < _SUM_LIMIT
                and (p.view(np.int64) == p.swapaxes(-1, -2).view(np.int64)).all()):
            object.__setattr__(self, "pairing", p)
        else:
            object.__setattr__(self, "pairing", symmetric_part(p, "pairing"))
        if self.unit is not None:
            object.__setattr__(self, "unit", np.asarray(self.unit, dtype=float))

    @property
    def dim(self) -> int:
        return self.pairing.shape[-1]

    def multiply(self, a, b) -> np.ndarray:
        return np.einsum("...kij,...i,...j->...k", self.c, a, b)

    @property
    def riemann(self) -> np.ndarray:
        """R[..., i, j, k, l] = c^i_lm c^m_kj - c^i_km c^m_lj.  For c = -Gamma of a
        Hessian metric it is R^i_jkl, since the fourth derivatives of psi cancel
        (Totaro 2004; Shima 2007, ch. 2): the metric is flat iff c is associative."""
        return (np.einsum("...ilm,...mkj->...ijkl", self.c, self.c)
                - np.einsum("...ikm,...mlj->...ijkl", self.c, self.c))

    def curvature(self) -> float:
        """Max |R| scaled by max(1, |pairing|) per algebra."""
        return _scaled_max(self.riemann, self.pairing)


def _scaled_max(riemann: np.ndarray, metric: np.ndarray) -> float:
    """max over points p of max|R_p| / max(1, max|g_p|)."""
    riem = abs(riemann).max(axis=(-4, -3, -2, -1))
    scale = np.maximum(1.0, abs(metric).max(axis=(-2, -1)))
    return float((riem / scale).max())


def algebra_from_potential(third_tensor, g) -> FrobeniusAlgebra:
    """Constants c^k_ij = g^{kf} T_fij from a symmetric 3-tensor and metric g.

    By construction the triple product identity <a o b, c> = T(a, b, c)
    holds, which is what makes the pairing invariant whenever T is fully
    symmetric.
    """
    t = np.asarray(third_tensor, dtype=float)
    g = np.asarray(g, dtype=float)
    require_invertible(g, DegenerateMetric, "pairing")
    c = np.einsum("kf,fij->kij", np.linalg.inv(g), t)
    return FrobeniusAlgebra(c, g)


def wdvv_residual(potential: PotentialField, g, x) -> float:
    """Max |sum_ef T_abe g^ef T_fcd - sum_ef T_bce g^ef T_fad| over (a,b,c,d).

    ``g`` is a constant matrix, the pairing at every point; the even
    (commutative) sign convention is used throughout.
    """
    x = np.asarray(x, dtype=float)
    gm = np.asarray(g, dtype=float)
    if gm.shape != (potential.dim, potential.dim):
        raise DimensionMismatch(f"pairing of shape {gm.shape} for a {potential.dim}-d potential")
    require_invertible(gm, DegenerateMetric, "pairing", x)
    ginv = np.linalg.inv(gm)
    t = potential.third_tensor(x)
    # a huge T overflows quad to inf, where quad - quad^T would be inf - inf
    quad = require_finite(np.einsum("abe,ef,fcd->abcd", t, ginv, t), "WDVV products", x)
    return float(np.max(np.abs(quad - np.transpose(quad, (2, 0, 1, 3)))))


@dataclass(frozen=True)
class AlgebraAxiomReport:
    commutativity: float
    associativity: float
    pairing_invariance: float
    unit_residual: float
    unit: np.ndarray

    def worst_identity_residual(self) -> float:
        return max(self.commutativity, self.associativity, self.pairing_invariance,
                   self.unit_residual)


def frobenius_axioms(alg: FrobeniusAlgebra) -> AlgebraAxiomReport:
    """Residuals of commutativity, associativity, invariance and the unit, max over a stack.

    The unit is the declared one if present, otherwise, for one algebra, the
    least-squares solution of u o e_j = e_j, which is scored as any other: an
    algebra with no unit leaves its residual there.
    """
    c, p = alg.c, alg.pairing
    comm = float(np.max(np.abs(c - np.swapaxes(c, -2, -1))))
    left = np.einsum("...mij,...lmk->...lijk", c, c)   # (e_i o e_j) o e_k
    right = np.einsum("...mjk,...lim->...lijk", c, c)  # e_i o (e_j o e_k)
    assoc = float(np.max(np.abs(left - right)))
    inv = np.einsum("...mij,...mk->...ijk", c, p) - np.einsum("...mjk,...im->...ijk", c, p)
    invariance = float(np.max(np.abs(inv)))

    unit = alg.unit
    if unit is None:
        if c.ndim > 3:
            raise DimensionMismatch("a stack of algebras needs declared units")
        # u^i c^k_ij = delta^k_j, solved as a least-squares problem in u
        n = alg.dim
        lhs = np.swapaxes(c, 0, 1).reshape(n, n * n).T  # rows (k, j), cols i
        rhs = np.eye(n).reshape(n * n)
        unit, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    products = np.einsum("...kij,...i->...kj", c, unit)
    unit_residual = float(np.max(np.abs(products - np.eye(alg.dim))))
    return AlgebraAxiomReport(comm, assoc, invariance, unit_residual, unit)


@dataclass(frozen=True)
class NovikovReport:
    left_symmetry: float
    right_identity: float
    symmetrization: float


def novikov_residuals(b, g_field: MetricField, u) -> NovikovReport:
    """Identity residuals for upper-index constants b[i, j, k] = b^{ij}_k.

    left symmetry    a(bc) = b(ac)
    right identity   (ab)c - a(bc) = (ac)b - a(cb)
    symmetrization   b^{ij}_k + b^{ji}_k = d(g^ij)/du^k  (finite differences)
    """
    b = np.asarray(b, dtype=float)
    r = b.shape[0]
    if b.shape != (r, r, r):
        raise DimensionMismatch("constants must be a cube")
    # products of basis elements: (e^i e^j)^k = b[i, j, k]
    left = np.einsum("jkm,iml->ijkl", b, b)    # e^i (e^j e^k)
    swap = np.einsum("ikm,jml->ijkl", b, b)    # e^j (e^i e^k)
    left_sym = float(np.max(np.abs(left - swap)))

    ab_c = np.einsum("ijm,mkl->ijkl", b, b)    # (e^i e^j) e^k
    a_bc = left
    ac_b = np.einsum("ikm,mjl->ijkl", b, b)
    a_cb = np.einsum("kjm,iml->ijkl", b, b)
    right = float(np.max(np.abs((ab_c - a_bc) - (ac_b - a_cb))))

    dg = g_field.derivative(np.asarray(u, dtype=float))  # dg[k, i, j]
    c_tensor = np.einsum("kij->ijk", dg)
    sym = float(np.max(np.abs(b + np.swapaxes(b, 0, 1) - c_tensor)))
    return NovikovReport(left_sym, right, sym)


def find_idempotents_rank2(alg: FrobeniusAlgebra) -> list[np.ndarray]:
    """All real solutions of a o a = a for a 2-dimensional algebra, sorted.

    Each is a = v |v|^2 / (v . v o v) with v = (1, Re x) for a root x of the
    cubic v_1 (v o v)_0 - v_0 (v o v)_1 = 0, or v = (0, 1) when its leading
    term vanishes.  A double root comes back from np.roots as two roots (or
    a complex pair) fixed only to ~sqrt(eps); it is also a root r of the
    derivative, fixed to ~eps, which replaces both copies.  r counts as a
    double root when |cubic(r)| <= DOUBLE_ROOT_RTOL times the cubic built
    from |c| at |r|, the scale of its roundoff.  A zero cubic
    means a o a = l(a) a: l = 0 leaves only 0, else DegenerateAlgebra (a line).
    Roots are kept when |a o a - a| <= IDEMPOTENT_TOL max(1, |a|); a bound in
    |a|^2 would also keep the spurious roots at |a| ~ 1/sqrt(eps) that a
    double root next to a nilpotent direction leaves.
    """
    if alg.c.shape != (2, 2, 2):
        raise DimensionMismatch("idempotent search is implemented for one algebra of dim 2")
    c = alg.c
    cubic = np.array([c[0, 1, 1], c[0, 0, 1] + c[0, 1, 0] - c[1, 1, 1],
                      c[0, 0, 0] - c[1, 0, 1] - c[1, 1, 0], -c[1, 0, 0]])
    if not np.any(cubic):
        if np.any(c + np.swapaxes(c, 1, 2)):
            raise DegenerateAlgebra("the idempotents fill a line")
        return [np.zeros(2)]
    m = np.abs(c)
    scale = np.array([m[0, 1, 1], m[0, 0, 1] + m[0, 1, 0] + m[1, 1, 1],
                      m[0, 0, 0] + m[1, 0, 1] + m[1, 1, 0], m[1, 0, 0]])
    roots = np.roots(cubic)
    for r in np.roots(np.polyder(cubic)):
        if (r.imag == 0.0 and abs(np.polyval(cubic, r.real))
                <= DOUBLE_ROOT_RTOL * np.polyval(scale, abs(r.real))):
            nearest = np.argsort(np.abs(roots - r))[:2]
            roots = np.append(np.delete(roots, nearest), r.real)
    lines = [np.array([1.0, x.real]) for x in roots]
    if cubic[0] == 0.0:
        lines.append(np.array([0.0, 1.0]))
    found = [np.zeros(2)]
    for v in lines:
        along = v @ alg.multiply(v, v)
        if along == 0.0:
            continue  # v o v = 0: no idempotent on this line
        a = (v @ v / along) * v
        residual = np.max(np.abs(alg.multiply(a, a) - a))
        if (residual <= IDEMPOTENT_TOL * max(1.0, np.max(np.abs(a)))
                and all(np.max(np.abs(a - prev)) > IDEMPOTENT_DEDUP for prev in found)):
            found.append(a)
    found.sort(key=lambda v: (round(v[0], 9), round(v[1], 9)))
    return found
