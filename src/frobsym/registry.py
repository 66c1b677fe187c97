"""Named built-in fields, algebras and families used by specs and demos.

Spec files refer to these by id instead of carrying an expression language;
every entry ships its closed-form derivatives so that residual targets in
the 1e-6..1e-12 range are meaningful.

Every field callback maps a ``(..., n)`` stack of points to one value per
point, as array expressions over the last axis.  Where a power of one
coordinate is taken, ``np.float_power`` rounds it as the scalar ``**`` of
a one-point evaluation does; the array ``**`` can differ in the last bit.
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
    return ExponentialFamily(np.eye(m - 1, m))


# ---------------------------------------------------------------------------
# potentials


def _diagonal(v: np.ndarray, order: int = 2) -> np.ndarray:
    """The stack of order-``order`` tensors with v[..., i] at [i, ..., i]."""
    n = v.shape[-1]
    out = np.zeros(v.shape + (n,) * (order - 1))
    out[(...,) + (np.arange(n),) * order] = v
    return out


def _constant(value: np.ndarray):
    """A field that is ``value`` at every point of a stack (a read-only view)."""
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + value.shape)


def orthant_potential(n: int) -> PotentialField:
    """Characteristic function 1 / prod(x_i) of the positive orthant.

    log phi = -sum log x_i, so the log-Hessian is diag(1/x_i^2) and its
    derivative tensor has -2/x_i^3 on the triple diagonal.  Near a face or
    far out, phi and these forms overflow to inf or underflow to 0 without
    a warning; the potential, metric and derivative guards reject them.
    """

    def func(x):
        return 1.0 / np.prod(x, axis=-1)

    @np.errstate(divide="ignore", over="ignore")
    def log_hess(x):
        return _diagonal(1.0 / x**2)

    @np.errstate(divide="ignore", over="ignore")
    def log_third(x):
        return _diagonal(-2.0 / np.float_power(x, 3), 3)

    return PotentialField(
        n,
        func,
        domain=lambda x: np.all(x > 0.0, axis=-1),
        log_hess=log_hess,
        log_third=log_third,
    )


def _log_forms(func, grad, hess, third):
    """``log_hess`` and ``log_third`` of log phi from phi's derivatives.

    With u = grad phi / phi and h = hess phi / phi, the log-Hessian is
    h - u u^T and its derivative T / phi - (h_ij u_k + h_ik u_j + h_jk u_i)
    + 2 u_i u_j u_k, so no power of phi is taken.  Far out, phi overflows
    and these forms read 0 or NaN without a warning; the potential probe of
    :func:`hessian_log_metric` rejects such a point.
    """

    def ratios(x):
        phi = func(x)[..., None]
        return phi, grad(x) / phi, hess(x) / phi[..., None]

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def log_hess(x):
        _, u, h = ratios(x)
        return h - u[..., :, None] * u[..., None, :]

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def log_third(x):
        phi, u, h = ratios(x)
        ui, uj, uk = u[..., :, None, None], u[..., None, :, None], u[..., None, None, :]
        spread = h[..., :, :, None] * uk + h[..., :, None, :] * uj + h[..., None, :, :] * ui
        return third(x) / phi[..., None, None] - spread + 2.0 * ui * uj * uk

    return log_hess, log_third


def _cubic3(x):
    x1, x2, x3 = np.moveaxis(x, -1, 0)
    return 0.5 * np.float_power(x1, 2) * x3 + 0.5 * x1 * np.float_power(x2, 2)


def _cubic3_grad(x):
    x1, x2, x3 = np.moveaxis(x, -1, 0)
    return np.stack([x1 * x3 + 0.5 * (x2 * x2), x1 * x2, 0.5 * (x1 * x1)], axis=-1)


def _cubic3_hess(x):
    x1, x2, x3 = np.moveaxis(x, -1, 0)
    zero = np.zeros_like(x1)
    return np.stack([x3, x2, x1, x2, x1, zero, x1, zero, zero], axis=-1).reshape(x.shape + (3,))


def _cubic3_third(x):
    t = np.zeros(np.shape(x)[:-1] + (3, 3, 3))
    # 1 at the permutations of (0, 0, 2) and of (0, 1, 1)
    t[..., [0, 0, 2, 0, 1, 1], [0, 2, 0, 1, 0, 1], [2, 0, 0, 1, 1, 0]] = 1.0
    return t


def cubic_potential3() -> PotentialField:
    """The associativity-exact cubic (1/2)(x1^2 x3 + x1 x2^2)."""
    log_hess, log_third = _log_forms(_cubic3, _cubic3_grad, _cubic3_hess, _cubic3_third)
    return PotentialField(3, _cubic3, third=_cubic3_third, log_hess=log_hess,
                          log_third=log_third)


def perturbed_cubic_potential3(strength: float = 0.1) -> PotentialField:
    """The cubic plus strength * x2^2 x3^2, which obstructs associativity."""

    def func(x):
        return (_cubic3(x)
                + strength * np.float_power(x[..., 1], 2) * np.float_power(x[..., 2], 2))

    def grad(x):
        x2, x3 = x[..., 1], x[..., 2]
        g = _cubic3_grad(x)
        g[..., 1] += 2.0 * strength * x2 * (x3 * x3)
        g[..., 2] += 2.0 * strength * (x2 * x2) * x3
        return g

    def hess(x):
        x2, x3 = x[..., 1], x[..., 2]
        h = _cubic3_hess(x)
        h[..., 1, 1] += 2.0 * strength * (x3 * x3)
        h[..., 2, 2] += 2.0 * strength * (x2 * x2)
        h[..., [1, 2], [2, 1]] += (4.0 * strength * x2 * x3)[..., None]
        return h

    def third(x):
        t = _cubic3_third(x)
        # d^3 of x2^2 x3^2: 4 x3 at the permutations of (1, 1, 2), 4 x2 at those of (1, 2, 2)
        t[..., [1, 1, 2], [1, 2, 1], [2, 1, 1]] += (4.0 * strength * x[..., 2])[..., None]
        t[..., [1, 2, 2], [2, 1, 2], [2, 2, 1]] += (4.0 * strength * x[..., 1])[..., None]
        return t

    log_hess, log_third = _log_forms(func, grad, hess, third)
    return PotentialField(3, func, third=third, log_hess=log_hess, log_third=log_third)


POTENTIALS = {
    "orthant2": lambda: orthant_potential(2),
    "orthant3": lambda: orthant_potential(3),
    "wdvv_cubic3": cubic_potential3,
    "wdvv_cubic3_perturbed": perturbed_cubic_potential3,
}


# ---------------------------------------------------------------------------
# metric fields


def euclidean_metric(n: int) -> MetricField:
    eye = np.eye(n)
    eye.flags.writeable = False  # g itself, which the value field broadcasts
    return MetricField(n, _constant(eye), deriv=_constant(np.zeros((n, n, n))), constant=eye)


def round_sphere_metric() -> MetricField:
    def value(u):
        return _diagonal(np.stack([np.ones(np.shape(u)[:-1]),
                                   np.float_power(np.sin(u[..., 0]), 2)], axis=-1))

    def deriv(u):
        d = np.zeros(np.shape(u)[:-1] + (2, 2, 2))
        d[..., 0, 1, 1] = 2.0 * np.sin(u[..., 0]) * np.cos(u[..., 0])
        return d

    return MetricField(2, value, deriv=deriv)


def _symmetric2(a, b, c):
    """The stack of symmetric 2 x 2 matrices [[a, b], [b, c]]."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


def offdiagonal_linear_metric() -> MetricField:
    """Indefinite g_ij with u^1 off the diagonal: flat, but not Hessian in u."""
    d = np.zeros((2, 2, 2))
    d[0, 0, 1] = d[0, 1, 0] = 1.0

    def value(u):
        zero = np.zeros(np.shape(u)[:-1])
        return _symmetric2(zero, u[..., 0], zero)

    return MetricField(2, value, deriv=_constant(d))


# (value, gradient) of the potential U(z) that an explicit_metric Hamiltonian adds
SCALARS = {
    "half_square": lambda: (lambda z: 0.5 * np.sum(np.square(z), axis=-1),
                            lambda z: np.asarray(z, dtype=float)),
    "zero": lambda: (lambda z: np.zeros(np.shape(z)[:-1]),
                     lambda z: np.zeros_like(np.asarray(z, dtype=float))),
}


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
    return _diagonal(np.ones(n), 3), np.eye(n)


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
    k, i, j = np.transpose([(0, 0, 1), (1, 1, 2), (2, 2, 0)])
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
    unit = _diagonal(np.ones(r), 3)
    return _diagonal, _constant(unit), 0.5 * unit


def constant_lattice(r: int = 1):
    """Constant coefficient matrix with zero flux; exactly skew operator."""
    zero = np.zeros((r, r, r))
    return _constant(np.eye(r) + 0.5 * np.ones((r, r))), _constant(zero), zero


LATTICE_COEFFICIENTS = {
    "linear_diagonal": linear_diagonal_lattice,
    "constant": constant_lattice,
}


def lookup(table: dict, key: str, field: str, *args):
    """Build ``table[key]``, the id a spec gives as ``payload.<field>``, from ``args``."""
    try:
        factory = table[key]
    except KeyError:
        known = ", ".join(sorted(table))
        raise SchemaError(f"unknown {field} id {key!r} (known: {known})",
                          field=f"payload.{field}")
    return factory(*args)
