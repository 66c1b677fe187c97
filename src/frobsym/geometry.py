"""Metric fields, curvature residuals, and Hessian (cone) geometry.

Everything is a residual computation on evaluable fields: a metric is any
callable point -> symmetric matrix, a potential any callable point -> real.
Analytic derivative callbacks are used when supplied; otherwise central
finite differences with the step policy from :mod:`frobsym.numdiff`.
User-supplied callables must be re-entrant (they are probed from property
tests and from the battery runner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import (
    DegenerateMetric,
    DegeneratePencil,
    DimensionMismatch,
    DomainViolation,
    InvalidStructure,
    NonPositivePotential,
)
from .statmanifold import ExponentialFamily, cumulant_tensor

CONDITION_LIMIT = 1e12
SYMMETRY_TOL = 1e-12
DEFAULT_CURVATURE_TOL = 1e-6


@dataclass(frozen=True)
class MetricField:
    """Evaluable metric: ``func(x)`` returns an n x n symmetric matrix.

    ``deriv``, when given, must return d[k, i, j] = d(g_ij)/dx_k.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def value(self, x) -> np.ndarray:
        x = _point(self.dim, x)
        g = np.asarray(self.func(x), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"metric value has shape {g.shape}")
        if np.max(np.abs(g - g.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(g))):
            raise InvalidStructure(f"metric not symmetric at {x}")
        return 0.5 * (g + g.T)

    def derivative(self, x, h: float | None = None) -> np.ndarray:
        x = _point(self.dim, x)
        if self.deriv is not None and h is None:
            return np.asarray(self.deriv(x), dtype=float)
        return numdiff.jacobian(self.value, x, h=h)

    def inverse(self, x) -> np.ndarray:
        g = self.value(x)
        if np.linalg.cond(g) > CONDITION_LIMIT:
            raise DegenerateMetric(f"metric singular at {np.asarray(x)}")
        return np.linalg.inv(g)


@dataclass(frozen=True)
class PotentialField:
    """Evaluable scalar field with an optional positivity domain.

    Positivity is only enforced where a log is actually taken
    (:func:`hessian_log_metric`), so the same type carries both cone
    characteristics and third-derivative potentials for algebra checks.
    """

    dim: int
    func: Callable[[np.ndarray], float]
    domain: Callable[[np.ndarray], bool] | None = None
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    third: Callable[[np.ndarray], np.ndarray] | None = None
    log_hess: Callable[[np.ndarray], np.ndarray] | None = None
    log_third: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def value(self, x) -> float:
        x = _point(self.dim, x)
        if self.domain is not None and not self.domain(x):
            raise DomainViolation(f"{x} outside the declared domain")
        return float(self.func(x))

    def third_tensor(self, x, h: float = 5e-3) -> np.ndarray:
        x = _point(self.dim, x)
        if self.third is not None:
            return np.asarray(self.third(x), dtype=float)
        # value() takes one point; the stencil hands over a stack of them
        return numdiff.derivative_tensor(
            lambda stack: np.array([self.value(row) for row in stack]), x, 3, h)


def _point(dim: int, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise DimensionMismatch(f"expected a point with {dim} coordinates")
    return x


@dataclass(frozen=True)
class CurvatureReport:
    max_riemann: float
    max_torsion: float
    tolerance: float

    @property
    def flat(self) -> bool:
        return self.max_riemann <= self.tolerance


def christoffel(metric: MetricField, x, h: float | None = None) -> np.ndarray:
    """Levi-Civita symbols G[i, j, k] = Gamma^i_jk, symmetric in (j, k)."""
    ginv = metric.inverse(x)
    dg = metric.derivative(x, h=h)  # dg[k, i, j] = d_k g_ij
    # 1/2 g^{il} (d_j g_lk + d_k g_jl - d_l g_jk)
    bracket = np.einsum("jlk->ljk", dg) + np.einsum("kjl->ljk", dg) - dg
    gamma = 0.5 * np.einsum("il,ljk->ijk", ginv, bracket)
    return 0.5 * (gamma + np.swapaxes(gamma, 1, 2))


def riemann_tensor(connection: Callable[[np.ndarray], np.ndarray], x,
                   h: float | None = None) -> np.ndarray:
    """R[i, j, k, l] = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj.

    ``connection`` maps a point to Gamma[i, j, k]; its derivative is taken
    by central differences with the second-order step.
    """
    x = np.asarray(x, dtype=float)
    step = numdiff.SECOND_ORDER_STEP if h is None else h
    dgamma = numdiff.jacobian(connection, x, h=step)  # dgamma[a, i, j, k] = d_a G^i_jk
    gamma = connection(x)
    term1 = np.einsum("kilj->ijkl", dgamma)
    term2 = np.einsum("likj->ijkl", dgamma)
    term3 = np.einsum("ikm,mlj->ijkl", gamma, gamma)
    term4 = np.einsum("ilm,mkj->ijkl", gamma, gamma)
    return term1 - term2 + term3 - term4


def curvature_flatness(metric: MetricField, points, tol: float = DEFAULT_CURVATURE_TOL,
                       h: float | None = None) -> CurvatureReport:
    """Max Riemann and torsion residuals over sample points, scaled by |g|."""
    max_r = 0.0
    max_t = 0.0
    for x in points:
        gamma_at = lambda y: christoffel(metric, y, h=h)
        riem = riemann_tensor(gamma_at, x, h=h)
        scale = max(1.0, float(np.max(np.abs(metric.value(x)))))
        max_r = max(max_r, float(np.max(np.abs(riem))) / scale)
        gamma = gamma_at(x)
        max_t = max(max_t, float(np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2)))))
    return CurvatureReport(max_r, max_t, tol)


def hessian_log_metric(phi: PotentialField, h: float | None = None) -> MetricField:
    """Metric g_ij = Hessian of log(phi); requires phi > 0 at probed points."""

    def log_phi(x):
        v = phi.value(x)
        if v <= 0.0:
            raise NonPositivePotential(f"potential is {v} at {x}")
        return np.log(v)

    if phi.log_hess is not None and h is None:
        value = lambda x: np.asarray(phi.log_hess(_point(phi.dim, x)), dtype=float)
    else:
        step = numdiff.SECOND_ORDER_STEP if h is None else h
        value = lambda x: numdiff.hessian(log_phi, _point(phi.dim, x), h=step)
    # keep a probe so the positivity contract is enforced in analytic mode too
    def guarded(x):
        log_phi(np.asarray(x, dtype=float))
        return value(x)

    deriv = None
    if phi.log_third is not None and h is None:
        # d_k g_ij is the fully symmetric third-derivative tensor of log(phi)
        deriv = lambda x: np.asarray(phi.log_third(_point(phi.dim, x)), dtype=float)
    return MetricField(phi.dim, guarded, deriv=deriv,
                       name=f"hesslog({phi.name})" if phi.name else "")


def cone_multiply(phi: PotentialField, x, a, b, h: float | None = None) -> np.ndarray:
    """Tangent multiplication (a o b)^i = -Gamma^i_jk a^j b^k of the log-Hessian metric."""
    metric = hessian_log_metric(phi, h=h)
    gamma = christoffel(metric, x)
    a = _point(phi.dim, a)
    b = _point(phi.dim, b)
    return -np.einsum("ijk,j,k->i", gamma, a, b)


def automorphism_invariance_residual(phi: PotentialField, A, points) -> float:
    """Max over points of |log phi(Ax) - log phi(x) + log det A|.

    A must be invertible with positive determinant; a point whose image
    leaves the domain (or the positivity set) raises DomainViolation.
    """
    A = np.asarray(A, dtype=float)
    det = np.linalg.det(A)
    if det <= 0.0:
        raise InvalidStructure("expected an orientation-preserving invertible matrix")
    worst = 0.0
    for x in points:
        x = _point(phi.dim, x)
        vx = phi.value(x)
        vax = phi.value(A @ x)
        if vx <= 0.0 or vax <= 0.0:
            raise DomainViolation("potential not positive along the orbit")
        worst = max(worst, abs(np.log(vax) - np.log(vx) + np.log(det)))
    return worst


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
    curvature residual of each connection.
    """
    beta = np.asarray(beta, dtype=float)
    metric = MetricField(fam.n, lambda b: cumulant_tensor(fam, b, 2).values)
    g = metric.value(beta)
    if np.linalg.cond(g) > CONDITION_LIMIT:
        raise DegenerateMetric("metric singular at the requested point")

    def plus_minus(b):
        lc = christoffel(metric, b)
        t = cumulant_tensor(fam, b, 3).values
        half = 0.5 * np.einsum("il,ljk->ijk", np.linalg.inv(metric.value(b)), t)
        return lc - half, lc + half

    gp, gm = plus_minus(beta)

    dg = metric.derivative(beta)  # dg[k, i, j]
    lowered_p = np.einsum("jl,lki->kij", g, gp)  # G+_{ki,j}
    lowered_m = np.einsum("il,lkj->kij", g, gm)  # G-_{kj,i}
    duality = float(np.max(np.abs(dg - lowered_p - lowered_m)))

    curv_p = float(np.max(np.abs(riemann_tensor(lambda b: plus_minus(b)[0], beta))))
    curv_m = float(np.max(np.abs(riemann_tensor(lambda b: plus_minus(b)[1], beta))))
    return DualConnectionReport(gp, gm, duality, curv_p, curv_m)


@dataclass(frozen=True)
class PencilReport:
    residual_base: float
    residual_derived: float
    residual_combinations: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        worst = max([self.residual_base, self.residual_derived,
                     *self.residual_combinations.values()])
        return worst <= self.tolerance


def flat_pencil_check(metric_contravariant: MetricField, direction: int = 0,
                      lambdas=(0.5, -0.3, 1.2, 2.0, -1.1), points=None,
                      tol: float = DEFAULT_CURVATURE_TOL) -> PencilReport:
    """Flatness of g, of g2 = d(g)/dx^direction, and of g + lambda*g2.

    ``metric_contravariant`` evaluates the upper-index matrix g^ij; each
    candidate is inverted pointwise before the curvature residual is taken.
    The derivative coordinate defaults to the first one; pass ``direction``
    for metrics that vary along another axis.  Raises DegeneratePencil when
    g2 is singular at a sample point.
    """
    if points is None:
        n = metric_contravariant.dim
        points = [np.ones(n) + 0.1 * np.arange(n), 1.5 * np.ones(n)]
    points = [np.asarray(p, dtype=float) for p in points]

    def upper(x):
        return metric_contravariant.value(x)

    def derived_upper(x):
        d = metric_contravariant.derivative(x)
        return d[direction]

    for x in points:
        g2 = derived_upper(x)
        if abs(np.linalg.det(g2)) < 1e-12:
            raise DegeneratePencil(
                f"derivative metric has near-zero determinant at {x}"
            )

    def flatness_of_upper(fn) -> float:
        lower = MetricField(metric_contravariant.dim,
                            lambda x: np.linalg.inv(fn(x)))
        return curvature_flatness(lower, points, tol=tol).max_riemann

    base = flatness_of_upper(upper)
    derived = flatness_of_upper(derived_upper)
    combos = {}
    for lam in lambdas:
        combos[float(lam)] = flatness_of_upper(
            lambda x, lam=lam: upper(x) + lam * derived_upper(x)
        )
    return PencilReport(base, derived, combos, tol)


def pullback_metric(metric: MetricField, diffeo: Callable, jac: Callable | None = None) -> MetricField:
    """Metric in new coordinates: h(x) = J(x)^T g(diffeo(x)) J(x)."""

    def value(x):
        x = np.asarray(x, dtype=float)
        J = np.asarray(jac(x)) if jac is not None else numdiff.jacobian(diffeo, x).T
        return J.T @ metric.value(np.asarray(diffeo(x), dtype=float)) @ J

    return MetricField(metric.dim, value, name=f"pullback({metric.name})")


def metric_compatibility_residual(metric: MetricField, x) -> float:
    """Max |d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il| at x."""
    g = metric.value(x)
    dg = metric.derivative(x)
    gamma = christoffel(metric, x)
    nabla = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    return float(np.max(np.abs(nabla)))
