"""Named built-in fields, algebras and families used by specs and demos.

Spec files refer to these by id instead of carrying an expression language;
every entry ships its closed-form derivatives so that residual targets in
the 1e-6..1e-12 range are meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError
from .geometry import MetricField, PotentialField
from .poisson import StructureConstants, so3_constants
from .statmanifold import ExponentialFamily


# ---------------------------------------------------------------------------
# exponential families


def bernoulli_family() -> ExponentialFamily:
    """One binary statistic: X = (0, 1) on two outcomes."""
    return ExponentialFamily(np.array([[0.0, 1.0]]))


def categorical_family(m: int = 3) -> ExponentialFamily:
    """m outcomes with the m-1 indicator statistics."""
    X = np.zeros((m - 1, m))
    for j in range(m - 1):
        X[j, j] = 1.0
    return ExponentialFamily(X)


# ---------------------------------------------------------------------------
# potentials


def orthant_potential(n: int) -> PotentialField:
    """Characteristic function 1 / prod(x_i) of the positive orthant.

    log phi = -sum log x_i, so the log-Hessian is diag(1/x_i^2) and its
    derivative tensor has -2/x_i^3 on the triple diagonal.  Near a face the
    log-Hessian overflows to inf without a warning, which the metric guard
    rejects before the derivative is taken.
    """

    @np.errstate(divide="ignore", over="ignore")
    def log_hess(x):
        return np.diag(1.0 / x**2)

    def log_third(x):
        t = np.zeros((n, n, n))
        for i in range(n):
            t[i, i, i] = -2.0 / x[i] ** 3
        return t

    return PotentialField(
        n,
        lambda x: 1.0 / np.prod(x),
        domain=lambda x: bool(np.all(x > 0.0)),
        log_hess=log_hess,
        log_third=log_third,
        name=f"orthant{n}",
    )


def _cubic3(x):
    return 0.5 * x[0] ** 2 * x[2] + 0.5 * x[0] * x[1] ** 2


def _cubic3_third(x):
    t = np.zeros((3, 3, 3))
    for p in ((0, 0, 2), (0, 2, 0), (2, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        t[p] = 1.0
    return t


def cubic_potential3() -> PotentialField:
    """The associativity-exact cubic (1/2)(x1^2 x3 + x1 x2^2)."""
    return PotentialField(3, _cubic3, third=_cubic3_third, name="wdvv_cubic3")


def perturbed_cubic_potential3(strength: float = 0.1) -> PotentialField:
    """The cubic plus strength * x2^2 x3^2, which obstructs associativity."""

    def func(x):
        return _cubic3(x) + strength * x[1] ** 2 * x[2] ** 2

    def third(x):
        t = _cubic3_third(x)
        for p in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
            t[p] += 4.0 * strength * x[2]
        for p in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
            t[p] += 4.0 * strength * x[1]
        return t

    return PotentialField(3, func, third=third, name="wdvv_cubic3_perturbed")


def adapted_quartic1() -> PotentialField:
    """phi(z+, z-) = (z+ z-)^2 on one adapted pair."""

    def hess(w):
        x, y = w
        return np.array([[2.0 * y * y, 4.0 * x * y], [4.0 * x * y, 2.0 * x * x]])

    return PotentialField(2, lambda w: (w[0] * w[1]) ** 2, hess=hess,
                          name="adapted_quartic1")


def adapted_mixed2() -> PotentialField:
    """Two adapted pairs, one polynomial and one trigonometric block."""

    def hess(w):
        a, b, c, d = w
        out = np.zeros((4, 4))
        out[0, 0] = 2.0 * c * c
        out[0, 2] = out[2, 0] = 4.0 * a * c
        out[2, 2] = 2.0 * a * a
        out[1, 1] = -d * d * np.sin(b * d)
        out[1, 3] = out[3, 1] = np.cos(b * d) - b * d * np.sin(b * d)
        out[3, 3] = -b * b * np.sin(b * d)
        return out

    return PotentialField(
        4,
        lambda w: (w[0] * w[2]) ** 2 + np.sin(w[1] * w[3]),
        hess=hess,
        name="adapted_mixed2",
    )


POTENTIALS = {
    "orthant2": lambda: orthant_potential(2),
    "orthant3": lambda: orthant_potential(3),
    "wdvv_cubic3": cubic_potential3,
    "wdvv_cubic3_perturbed": perturbed_cubic_potential3,
    "adapted_quartic1": adapted_quartic1,
    "adapted_mixed2": adapted_mixed2,
}


# ---------------------------------------------------------------------------
# metric fields


def euclidean_metric(n: int) -> MetricField:
    eye = np.eye(n)
    zero = np.zeros((n, n, n))
    return MetricField(n, lambda x: eye, deriv=lambda x: zero, name=f"euclidean{n}")


def round_sphere_metric() -> MetricField:
    def value(u):
        return np.diag([1.0, np.sin(u[0]) ** 2])

    def deriv(u):
        d = np.zeros((2, 2, 2))
        d[0, 1, 1] = 2.0 * np.sin(u[0]) * np.cos(u[0])
        return d

    return MetricField(2, value, deriv=deriv, name="round_sphere2")


def offdiagonal_linear_metric() -> MetricField:
    """Contravariant g^ij with u^1 on the off-diagonal; a pencil seed."""

    def value(u):
        return np.array([[0.0, u[0]], [u[0], 0.0]])

    def deriv(u):
        d = np.zeros((2, 2, 2))
        d[0, 0, 1] = 1.0
        d[0, 1, 0] = 1.0
        return d

    return MetricField(2, value, deriv=deriv, name="offdiag_linear2")


def antidiagonal_pairing(n: int = 3) -> np.ndarray:
    return np.fliplr(np.eye(n))


METRICS = {
    "euclidean1": lambda: euclidean_metric(1),
    "euclidean2": lambda: euclidean_metric(2),
    "euclidean3": lambda: euclidean_metric(3),
    "round_sphere2": round_sphere_metric,
    "offdiag_linear2": offdiagonal_linear_metric,
}

CONSTANT_MATRICES = {
    "antidiag3": lambda: antidiagonal_pairing(3),
    "identity2": lambda: np.eye(2),
    "identity3": lambda: np.eye(3),
}


# ---------------------------------------------------------------------------
# algebra structure constants (first index = output component)


def paracomplex_structure_constants() -> tuple[np.ndarray, np.ndarray]:
    """Multiplication of the split algebra in the {1, e} basis with the
    pairing <z, w> = Re(z w), which is the identity matrix."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[1, 0, 1] = 1.0
    c[1, 1, 0] = 1.0
    c[0, 1, 1] = 1.0
    return c, np.eye(2)


def dual_numbers_constants() -> tuple[np.ndarray, np.ndarray]:
    """Unital algebra with one square-zero generator."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[1, 0, 1] = 1.0
    c[1, 1, 0] = 1.0
    return c, np.eye(2)


def diagonal_constants(n: int) -> tuple[np.ndarray, np.ndarray]:
    """e_i o e_j = delta_ij e_i with the identity pairing."""
    c = np.zeros((n, n, n))
    for i in range(n):
        c[i, i, i] = 1.0
    return c, np.eye(n)


ALGEBRAS = {
    "paracomplex2": paracomplex_structure_constants,
    "dual_numbers2": dual_numbers_constants,
    "diagonal2": lambda: diagonal_constants(2),
    "diagonal3": lambda: diagonal_constants(3),
    "zero2": lambda: (np.zeros((2, 2, 2)), np.eye(2)),
}


# ---------------------------------------------------------------------------
# spin structure constants


def zero_spin_constants(m: int = 1) -> StructureConstants:
    return StructureConstants(np.zeros((m, m, m)))


def cyclic_nonjacobi_constants() -> StructureConstants:
    """Antisymmetric constants gamma^1_12 = gamma^2_23 = gamma^3_31 = 1.

    These fail the structure Jacobi identity with defect vector (1, 1, 1),
    so the extended bracket they induce is detectably non-Poisson.  (Note
    that merely deleting one antisymmetric pair from the angular-momentum
    epsilon does NOT break Jacobi: with that support pattern every product
    term vanishes on its own.)
    """
    g = np.zeros((3, 3, 3))
    for k, i, j in ((0, 0, 1), (1, 1, 2), (2, 2, 0)):
        g[k, i, j] = 1.0
        g[k, j, i] = -1.0
    return StructureConstants(g)


SPIN_CONSTANTS = {
    "so3": so3_constants,
    "spin_zero1": lambda: zero_spin_constants(1),
    "cyclic_nonjacobi": cyclic_nonjacobi_constants,
}


# ---------------------------------------------------------------------------
# lattice coefficient data


def linear_diagonal_lattice(r: int = 1):
    """g^ij(u) = delta^ij u^i with flux constants b = dC/2.

    The half-derivative flux makes the continuum operator skew-adjoint and
    the induced bracket a Poisson bracket, so the discrete Jacobi defect is
    pure discretization error.
    """

    def metric(u):
        return np.diag(u)

    def metric_deriv(u):
        d = np.zeros((r, r, r))
        for i in range(r):
            d[i, i, i] = 1.0
        return d

    b = np.zeros((r, r, r))
    for i in range(r):
        b[i, i, i] = 0.5
    return metric, metric_deriv, b


def constant_lattice(r: int = 1):
    """Constant coefficient matrix with zero flux; exactly skew operator."""

    g0 = np.eye(r) + 0.5 * np.ones((r, r))

    def metric(u):
        return g0

    def metric_deriv(u):
        return np.zeros((r, r, r))

    return metric, metric_deriv, np.zeros((r, r, r))


LATTICE_COEFFICIENTS = {
    "linear_diagonal": linear_diagonal_lattice,
    "constant": constant_lattice,
}


def lookup(table: dict, key: str, what: str, *args):
    """Build the entry ``key`` of ``table``; ``args`` go to its factory."""
    try:
        factory = table[key]
    except KeyError:
        known = ", ".join(sorted(table))
        raise SchemaError(f"unknown {what} id {key!r} (known: {known})", field=what)
    return factory(*args)
