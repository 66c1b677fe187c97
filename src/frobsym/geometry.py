"""Metric fields, curvature residuals, and Hessian (cone) geometry.

Everything is a residual computation on evaluable fields: every callback
maps a ``(..., n)`` stack of points to one value per point, and each
consumer calls it once per stack.  A Hessian metric at P points is the
stack of its tangent algebras (:func:`hessian_structure`).  Analytic
derivative callbacks are used when supplied; otherwise central finite
differences at the step fixed for that use (see :mod:`frobsym.numdiff`).
User-supplied callables must be re-entrant (they are probed from property
tests and from the battery runner).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numdiff
from .errors import (
    DegenerateMetric,
    DimensionMismatch,
    DomainViolation,
    InvalidStructure,
    NonPositivePotential,
    require_finite,
    require_inside,
    require_invertible,
    symmetric_part,
)
from .frobenius import FrobeniusAlgebra, _scaled_max
from .statmanifold import ExponentialFamily, cumulant_tensor


@dataclass(frozen=True)
class MetricField:
    """Evaluable metric: ``func`` maps a ``(..., dim)`` stack of points to
    ``(..., dim, dim)`` symmetric matrices.

    ``deriv``, when given, must return d[..., k, i, j] = d(g_ij)/dx_k, and
    ``constant`` g itself where g is the same at every point (not in ``==``).
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None = None
    constant: np.ndarray | None = field(default=None, compare=False)

    def value(self, x) -> np.ndarray:
        x = _points(self.dim, x)
        g = np.asarray(self.func(x), dtype=float)
        if g.shape != x.shape + (self.dim,):
            raise DimensionMismatch(f"metric value has shape {g.shape} for points {x.shape}")
        return symmetric_part(g, "metric", x)

    def derivative(self, x) -> np.ndarray:
        x = _points(self.dim, x)
        if self.deriv is None:
            return numdiff.jacobian(self.value, x)
        return require_finite(np.asarray(self.deriv(x), dtype=float), "metric derivative", x)

    def inverse(self, x) -> np.ndarray:
        return np.linalg.inv(require_invertible(self.value(x), DegenerateMetric, "metric", x))


@dataclass(frozen=True)
class PotentialField:
    """Evaluable scalar field with an optional positivity domain.

    ``func`` and ``domain`` map a ``(..., dim)`` stack of points to one value
    per point, the derivative callbacks to one tensor per point.  Positivity is only enforced where a log is actually taken
    (:func:`hessian_log_metric`), so the same type carries both cone
    characteristics and third-derivative potentials for algebra checks.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], np.ndarray] | None = None
    third: Callable[[np.ndarray], np.ndarray] | None = None
    log_hess: Callable[[np.ndarray], np.ndarray] | None = None
    log_third: Callable[[np.ndarray], np.ndarray] | None = None

    def value(self, x) -> np.ndarray:
        x = _points(self.dim, x)
        if self.domain is not None:
            require_inside(np.asarray(self.domain(x)), "potential", x)
        # far out or near a face a closed form overflows; the guard below rejects it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = np.asarray(self.func(x), dtype=float)
        if v.shape != x.shape[:-1]:
            raise DimensionMismatch(f"potential value has shape {v.shape} for points {x.shape}")
        return require_finite(v, "potential", x)

    def third_tensor(self, x) -> np.ndarray:
        x = _points(self.dim, x)
        if self.third is not None:
            return np.asarray(self.third(x), dtype=float)
        return numdiff.derivative_tensor(self.value, x, 3, 5e-3)


def _points(dim: int, x) -> np.ndarray:
    """One point of ``dim`` coordinates, or a non-empty ``(..., dim)`` stack of them."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != dim or x.size == 0:
        raise DimensionMismatch(f"expected a point or a stack of points with {dim} coordinates")
    return x


def _levi_civita(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., i, j, k] from g^-1 and dg[..., k, i, j] = d_k g_ij, over any
    leading axes; symmetric in (j, k) by construction, so torsion-free."""
    # 1/2 g^{il} (d_j g_lk + d_k g_jl - d_l g_jk)
    bracket = np.einsum("...jlk->...ljk", dg) + np.einsum("...kjl->...ljk", dg) - dg
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", ginv, bracket)
    return 0.5 * (gamma + np.swapaxes(gamma, -2, -1))


def christoffel(metric: MetricField, x) -> np.ndarray:
    """Levi-Civita symbols G[..., i, j, k] = Gamma^i_jk, symmetric in (j, k)."""
    return _levi_civita(metric.inverse(x), metric.derivative(x))


def riemann_tensor(connection: Callable[[np.ndarray], np.ndarray], x, gamma) -> np.ndarray:
    """R[..., i, j, k, l] = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj.

    ``gamma`` is Gamma[..., i, j, k] at ``x``.  ``connection`` maps a stack of
    points to Gamma, so one call can carry several connections on axes after
    the point axes; it is called once, on the second-order difference stack.
    """
    x = np.asarray(x, dtype=float)
    # dgamma[..., a, i, j, k] = d_a G^i_jk
    dgamma = np.moveaxis(numdiff.jacobian(connection, x, h=numdiff.SECOND_ORDER_STEP),
                         x.ndim - 1, -4)
    term1 = np.einsum("...kilj->...ijkl", dgamma)
    term2 = np.einsum("...likj->...ijkl", dgamma)
    term3 = np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
    term4 = np.einsum("...ilm,...mkj->...ijkl", gamma, gamma)
    return term1 - term2 + term3 - term4


def curvature_flatness(metric: MetricField, points) -> float:
    """Max Riemann residual over a stack of sample points, scaled by
    max(1, |g|) at each point; the connection is torsion-free by construction."""
    points = np.atleast_2d(_points(metric.dim, points))
    g = metric.value(points)
    ginv = np.linalg.inv(require_invertible(g, DegenerateMetric, "metric", points))
    gamma = _levi_civita(ginv, metric.derivative(points))
    riemann = riemann_tensor(lambda y: christoffel(metric, y), points, gamma)
    return _scaled_max(riemann, g)


def hessian_structure(metric: MetricField, points) -> FrobeniusAlgebra:
    """The tangent algebras a o b = -Gamma(a, b) of a Hessian metric at P
    points, paired by g, as one stack.

    g = d^2 psi in the affine coordinates, so d_k g_ij = T_ijk is totally
    symmetric and Gamma^i_jk = 1/2 g^il T_ljk.  The stack costs one
    ``metric.value`` and one ``metric.derivative`` call; -c is
    bit-identical to :func:`christoffel` at each point, and the curvature
    follows from c (see :attr:`FrobeniusAlgebra.riemann`).  Raises
    DimensionMismatch unless ``points`` is one point or a non-empty (P, dim)
    stack, and DegenerateMetric, naming the worst point, if any g is singular.
    """
    points = np.atleast_2d(_points(metric.dim, points))
    if points.ndim != 2:
        raise DimensionMismatch(f"expected a point or a (P, {metric.dim}) stack of points")
    g = require_invertible(metric.value(points), DegenerateMetric, "metric", points)
    dg = metric.derivative(points)
    return FrobeniusAlgebra(-_levi_civita(np.linalg.inv(g), dg), g)


def hessian_log_metric(phi: PotentialField) -> MetricField:
    """Metric g_ij = Hessian of log(phi); requires phi > 0 at probed points."""

    def log_phi(x):
        v = phi.value(x)
        if not (v > 0.0).all():
            raise NonPositivePotential(f"potential is not positive at {x}")
        return np.log(v)

    # MetricField hands both callbacks a validated stack and converts what
    # they return
    value = phi.log_hess or (lambda x: numdiff.hessian(log_phi, x))

    # keep a probe so the positivity contract is enforced in analytic mode too
    def guarded(x):
        log_phi(x)
        return value(x)

    # d_k g_ij is the fully symmetric third-derivative tensor of log(phi)
    return MetricField(phi.dim, guarded, deriv=phi.log_third)


def cone_multiply(phi: PotentialField, x, a, b) -> np.ndarray:
    """Tangent multiplication (a o b)^i = -Gamma^i_jk a^j b^k of the log-Hessian metric.

    Broadcasts over a leading point axis: each of x, a and b is one vector
    of ``phi.dim`` coordinates or a (P, dim) stack, and the structure is
    built once for all the points of x.  Stacks whose point counts do not
    broadcast raise DimensionMismatch.
    """
    x, a, b = (_points(phi.dim, v) for v in (x, a, b))
    try:
        shape = np.broadcast_shapes(x.shape, a.shape, b.shape)
    except ValueError:
        raise DimensionMismatch("x, a and b hold point counts that do not broadcast") from None
    return hessian_structure(hessian_log_metric(phi), x).multiply(a, b).reshape(shape)


def automorphism_invariance_residual(phi: PotentialField, A, points) -> float:
    """Max over points of |log phi(Ax) - log phi(x) + log det A|.

    A must be invertible with positive determinant; a point whose image
    leaves the domain (or the positivity set) raises DomainViolation.
    """
    A = np.asarray(A, dtype=float)
    det = np.linalg.det(A)
    if det <= 0.0:
        raise InvalidStructure("expected an orientation-preserving invertible matrix")
    points = _points(phi.dim, points)
    vx = phi.value(points)
    # A x for each point, rounded as the one-point product A @ x is
    vax = phi.value(np.matmul(A, points[..., None])[..., 0])
    if not ((vx > 0.0).all() and (vax > 0.0).all()):
        raise DomainViolation("potential not positive along the orbit")
    return float(abs(np.log(vax) - np.log(vx) + np.log(det)).max())


@dataclass(frozen=True)
class DualConnectionReport:
    gamma_growth: np.ndarray   # exponential-side symbols Gamma^i_jk
    gamma_mixture: np.ndarray  # mixture-side symbols
    duality_residual: float
    curvature_growth: float
    curvature_mixture: float


def dual_connections(fam: ExponentialFamily, beta) -> DualConnectionReport:
    """The +/- pair Gamma_LC -/+ (1/2) g^{-1} T with T the skewness tensor.

    Checks the defining compatibility d_k g_ij = G+_{ki,j} + G-_{kj,i}
    (indices lowered with g) by finite differences, and reports the
    curvature residual of each connection; both curvatures come from one
    difference of the stacked pair, and both checks share g, dg and the
    skewness tensor at beta.  A singular metric there raises DegenerateMetric.
    """
    beta = np.asarray(beta, dtype=float)
    metric = MetricField(fam.n, lambda b: cumulant_tensor(fam, b, 2))

    def plus_minus(b, lc, ginv):
        half = 0.5 * np.einsum("...il,...ljk->...ijk", ginv, cumulant_tensor(fam, b, 3))
        return np.stack([lc - half, lc + half], axis=-4)

    g = metric.value(beta)
    ginv = np.linalg.inv(require_invertible(g, DegenerateMetric, "metric", beta))
    dg = metric.derivative(beta)  # dg[k, i, j]
    gp, gm = gamma = plus_minus(beta, _levi_civita(ginv, dg), ginv)
    lowered_p = np.einsum("jl,lki->kij", g, gp)  # G+_{ki,j}
    lowered_m = np.einsum("il,lkj->kij", g, gm)  # G-_{kj,i}
    duality = float(np.max(np.abs(dg - lowered_p - lowered_m)))

    riemann = riemann_tensor(
        lambda b: plus_minus(b, christoffel(metric, b), np.linalg.inv(metric.value(b))),
        beta, gamma)
    curv_p, curv_m = abs(riemann).reshape(2, -1).max(axis=1).tolist()
    return DualConnectionReport(gp, gm, duality, curv_p, curv_m)
