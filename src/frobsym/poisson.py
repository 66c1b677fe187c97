"""Poisson brackets: canonical, spin-extended, split-number, first-order
local Lie brackets, and a periodic lattice discretization of the
hydrodynamic-type bracket.

The canonical bracket is

    {A, B} = dA/dp_mu dB/dz^mu - dB/dp_mu dA/dz^mu

with exactly this sign, so {z, p} = -1.  Combined with the evolution rule
Qdot = {H, Q} this reproduces the textbook flow zdot = dH/dp,
pdot = -dH/dz; only the two intermediate signs differ from the common
convention, and they cancel.

The brackets take a point or a stacked point and give a float or one value
per row, each equal to the one-point bracket bit for bit, and
:func:`bracket_property_residuals` checks all its probe points as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import DimensionMismatch, require_antisymmetric
from .paracomplex import ParaNumber, para_hermitian_product
from .symplectic import Observable, PhasePoint

DEFAULT_NESTED_STEP = 6e-4


@dataclass(frozen=True)
class StructureConstants:
    """Spin-algebra constants gamma[k, i, j], antisymmetric in (i, j)."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 3 or len(set(g.shape)) != 1:
            raise DimensionMismatch("constants must be a cube")
        object.__setattr__(self, "gamma", require_antisymmetric(g, "constants"))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


def so3_constants() -> StructureConstants:
    """gamma^k_ij = epsilon_kij, the angular-momentum algebra."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[k, i, j] = 1.0
        eps[k, j, i] = -1.0
    return StructureConstants(eps)


def canonical_bracket(A: Observable, B: Observable, y: PhasePoint):
    """{A, B} = dA/dp dB/dz - dB/dp dA/dz contracted over the (z, p) pairs,
    a float at one point and one value per row at a stacked point.

    Each operand is differentiated once, and only the (z, p) block of its
    gradient is read.
    """
    nz, npp, _ = y.layout
    if nz != npp:
        raise DimensionMismatch("point must carry matching z and p blocks")
    a, b = A.gradient(y)[..., :nz + npp], B.gradient(y)[..., :nz + npp]
    # vecdot rounds each row as the one-point a @ b does
    values = np.vecdot(a[..., nz:], b[..., :nz]) - np.vecdot(b[..., nz:], a[..., :nz])
    return _per_point(y, values)


def extended_bracket(A: Observable, B: Observable, y: PhasePoint,
                     constants: StructureConstants):
    """Canonical part plus the spin term -lam_k gamma^k_ij dA/dlam_i dB/dlam_j,
    a float at one point and one value per row at a stacked point.

    Each operand is differentiated once, over all coordinates, and
    :func:`canonical_bracket` reads its (z, p) block of that gradient.
    """
    nz, npp, nl = y.layout
    if nl != constants.dim:
        raise DimensionMismatch("spin block does not match the structure constants")
    a, b = A.gradient(y), B.gradient(y)
    spins = slice(nz + npp, None)
    spin = -np.einsum("...k,kij,...i,...j->...", y.lam, constants.gamma, a[..., spins],
                      b[..., spins])
    canonical = canonical_bracket(Observable(A.func, lambda _: a),
                                  Observable(B.func, lambda _: b), y)
    return _per_point(y, canonical + spin)


def _per_point(y: PhasePoint, values):
    """``values`` at a stacked point, the float at one point."""
    return values if y.z.ndim > 1 else float(values)


def paracomplex_bracket(g, xi: ParaNumber, eta: ParaNumber) -> float | np.ndarray:
    """(1/2) Im <xi, eta>: a float for one split vector, one value per vector for a stack."""
    return 0.5 * para_hermitian_product(g, xi, eta).im


@dataclass(frozen=True)
class BracketResiduals:
    antisymmetry: float
    chain_rule: float
    leibniz: float
    jacobi: float

    def worst(self) -> float:
        return max(self.antisymmetry, self.chain_rule, self.leibniz, self.jacobi)


def bracket_property_residuals(bracket: Callable, observables, points) -> BracketResiduals:
    """Antisymmetry, chain rule, Leibniz and Jacobi residuals of a bracket,
    the worst over all probe points.

    ``bracket(A, B, y)`` must accept Observable arguments at a stacked point
    and return one value per row; the operands' ``func`` and ``grad`` must
    take stacked points (see :class:`~frobsym.symplectic.Observable`).  The
    probe points, which share one layout, run as one stacked point, so each
    bracket differentiates each operand in a fixed number of calls however
    many points there are.  The chain rule is probed with f(t) = t^2 and
    g(t) = sin t; Jacobi nests the bracket as a new Observable, and both
    operands of each outer bracket are differenced with the coarser
    DEFAULT_NESTED_STEP, whatever their ``grad``, to keep finite-difference
    noise below the 1e-6 residual target.
    """
    A, B, C = observables
    if len({y.layout for y in points}) != 1:
        raise DimensionMismatch("probe points must share one layout")
    y = points[0].replace_flat(np.stack([q.flat() for q in points]))
    a, b, c = A.func(y), B.func(y), C.func(y)
    ab = bracket(A, B, y)
    anti = ab + bracket(B, A, y)

    # the composite operands are built from the original operands, so an
    # FD operand still makes an FD composite, differenced as a whole
    fa = Observable(lambda q: A.func(q) ** 2, _square_grad(A))
    gb = Observable(lambda q: np.sin(B.func(q)), _sin_grad(B))
    chain = bracket(fa, gb, y) - 2.0 * a * np.cos(b) * ab

    bc_prod = Observable(lambda q: B.func(q) * C.func(q), _product_grad(B, C))
    leib = bracket(A, bc_prod, y) - b * bracket(A, C, y) - c * ab

    def jacobi_term(first, second, third):
        return bracket(_coarse(first.func), _coarse(lambda q: bracket(second, third, q)), y)

    jac = jacobi_term(A, B, C) + jacobi_term(B, C, A) + jacobi_term(C, A, B)
    return BracketResiduals(*(float(np.max(np.abs(r))) for r in (anti, chain, leib, jac)))


def _coarse(func) -> Observable:
    """``func`` as a nested Jacobi operand: its gradient is one central
    difference at DEFAULT_NESTED_STEP over every coordinate."""
    return Observable(func, lambda y: numdiff.gradient(lambda s: func(y.replace_flat(s)),
                                                       y.flat(), h=DEFAULT_NESTED_STEP))


def _square_grad(A: Observable):
    if A.grad is None:
        return None
    return lambda y: 2.0 * A.func(y)[..., None] * A.gradient(y)


def _sin_grad(B: Observable):
    if B.grad is None:
        return None
    return lambda y: np.cos(B.func(y))[..., None] * B.gradient(y)


def _product_grad(B: Observable, C: Observable):
    if B.grad is None or C.grad is None:
        return None
    return lambda y: B.func(y)[..., None] * C.gradient(y) + C.func(y)[..., None] * B.gradient(y)


# ---------------------------------------------------------------------------
# first-order local Lie bracket on a periodic grid


def _ddx(f: np.ndarray, spacing: float) -> np.ndarray:
    """Central difference (f[n+1] - f[n-1]) / 2h, periodic along the last axis."""
    if f.shape[-1] < 2:  # a lone site is both of its own neighbours
        return (f - f) / (2.0 * spacing)
    d = np.empty_like(f)
    np.subtract(f[..., 2:], f[..., :-2], out=d[..., 1:-1])
    d[..., 0] = f[..., 1] - f[..., -1]
    d[..., -1] = f[..., 0] - f[..., -2]
    d /= 2.0 * spacing
    return d


def periodic_derivative_matrix(n: int, spacing: float) -> np.ndarray:
    """Central-difference stencil D_{nm} = (delta_{m,n+1} - delta_{m,n-1}) / 2h.

    Periodic and exactly skew, which is what makes constant-coefficient
    operators below exactly antisymmetric.
    """
    return _ddx(np.eye(n), spacing).T


def local_lie_bracket(b, p, q, spacing: float) -> np.ndarray:
    """[p, q]_k = b^{ij}_k (p_i q_j' - q_i p_j') on a uniform periodic grid.

    ``p`` and ``q`` are (r, N) arrays of covector components sampled on the
    grid; derivatives use the antisymmetric central stencil.
    """
    b = np.asarray(b, dtype=float)
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = b.shape[0]
    if b.shape != (r, r, r) or p.shape != q.shape or p.shape[0] != r:
        raise DimensionMismatch("constants and sampled covectors disagree")
    return (np.einsum("ijk,in,jn->kn", b, p, _ddx(q, spacing))
            - np.einsum("ijk,in,jn->kn", b, q, _ddx(p, spacing)))


# ---------------------------------------------------------------------------
# lattice discretization of the hydrodynamic-type bracket


@dataclass(frozen=True)
class LatticeBracket:
    """Periodic lattice data for the bracket g^ij(u) d' + b^ij_k u^k_x d.

    ``metric`` maps a ``(..., r)`` stack of field values to the
    ``(..., r, r)`` coefficient matrices, so all sites of a state go in one
    call; ``metric_deriv`` optionally maps it to dC[..., i, j, k] =
    d(g^ij)/du^k.  The flux constants are stored as b[i, j, k] = b^{ij}_k.
    """

    sites: int
    field_dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    b: np.ndarray
    spacing: float = 1.0
    metric_deriv: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.sites < 4:
            raise DimensionMismatch("need at least 4 lattice sites")
        b = np.asarray(self.b, dtype=float)
        r = self.field_dim
        if b.shape != (r, r, r):
            raise DimensionMismatch("flux constants must be r x r x r")
        object.__setattr__(self, "b", b)


def lattice_hydro_bracket(lb: LatticeBracket, u) -> float:
    """B[(i,n),(j,m)] = g^ij(u_n) D_nm + b^ij_k (Du^k)_n delta_nm and max|B + B^T|.

    Flat index is i * N + n (field-major).  B + B^T vanishes outside the
    band: the pair (n, n+1) holds g(u_n) / 2h - g(u_{n+1})^T / 2h and the
    diagonal holds flux + flux^T, so the residual costs O(N) and equals
    the dense max-norm bit for bit.  :func:`lattice_jacobi_residual`
    scores the Jacobi identity, also without forming B.
    """
    u = np.array(u, dtype=float)
    g_site, flux = _site_coefficients(lb, u)
    # D[n, n+1] and D[n+1, n]: the same for every grid of at least 4 sites
    ahead, behind = periodic_derivative_matrix(4, lb.spacing)[[0, 1], [1, 0]]
    pair = g_site * ahead + np.roll(g_site, -1, axis=0).swapaxes(1, 2) * behind
    diagonal = flux + flux.swapaxes(1, 2)
    return float(np.maximum(abs(pair).max(), abs(diagonal).max()))


def smooth_test_profile(shape, sites: int, spacing: float, rng) -> np.ndarray:
    """Fourier profiles of the two lowest modes sampled on the grid, an
    ``(*shape, sites)`` array, or ``(shape, sites)`` for an int ``shape``.

    The coefficients are one ``rng.normal`` draw, which fills in C order, so
    one call gives the doubles of as many one-profile calls in turn.  The
    draw does not depend on the grid, so the same rng state samples one
    fixed continuum function at every resolution; refinement studies rely
    on this.
    """
    coeffs = rng.normal(size=(*np.atleast_1d(shape), 2, 2))
    x = spacing * np.arange(sites)
    length = spacing * sites
    out = np.zeros(coeffs.shape[:-2] + (sites,))
    for k in range(2):
        angle = 2.0 * np.pi * (k + 1) * x / length
        out += coeffs[..., k, 0, None] * np.cos(angle)
        out += coeffs[..., k, 1, None] * np.sin(angle)
    return out


def _site_coefficients(lb: LatticeBracket, u: np.ndarray):
    """Per-site metric g[n, i, j], from one call on the (N, r) stack of
    sites, and diagonal flux b^ij_k (Du^k)_n as [n, i, j]."""
    r, N = lb.field_dim, lb.sites
    if u.shape != (r, N):
        raise DimensionMismatch(f"field state must have shape {(r, N)}")
    g_site = np.asarray(lb.metric(u.T), dtype=float)
    if g_site.shape != (N, r, r):
        raise DimensionMismatch(f"lattice metric has shape {g_site.shape} for {N} sites")
    flux = np.einsum("ijk,kn->nij", lb.b, _ddx(u, lb.spacing))
    return g_site, flux


def lattice_jacobi_residual(lb: LatticeBracket, u, rng=None) -> float:
    """Relative Jacobi defect on smooth linear functionals F = sum phi_i(n) u^i_n.

    For linear F the inner bracket is phi^T B(u) psi, so the outer bracket
    only needs dB/du, analytic when ``metric_deriv`` is given and central
    differences otherwise.  The cyclic sum is reported relative to the
    magnitude of its three terms, which makes the defect O(h^2) for
    coefficient data satisfying the continuum compatibility conditions.
    The nine test profiles are one :func:`smooth_test_profile` draw from
    ``rng``.  B is applied through the periodic stencil and never formed,
    so time and memory grow as O(N) in the sites.
    """
    r, N, h = lb.field_dim, lb.sites, lb.spacing
    u = np.asarray(u, dtype=float)
    rng = np.random.default_rng(0) if rng is None else rng
    g_site, flux = _site_coefficients(lb, u)
    deriv = lb.metric_deriv or (lambda w: np.moveaxis(numdiff.jacobian(lb.metric, w), -3, -1))
    dC = np.asarray(deriv(u.T), dtype=float)  # [n, i, j, k]

    # phi[t, c] is the c-th profile of triple t; the cyclic terms pair
    # phi_a with the inner bracket {phi_b, phi_c} for (a, b, c) in
    # (0, 1, 2), (1, 2, 0), (2, 0, 1)
    phi = smooth_test_profile((3, 3, r), N, h, rng)
    first, second = phi[:, [1, 2, 0]], phi[:, [2, 0, 1]]
    # d/du^k_s of phi^T B(u) psi; the flux part uses D^T = -D
    inner = (np.einsum("tcin,nijk,tcjn->tckn", first, dC, _ddx(second, h))
             - _ddx(np.einsum("tcin,ijk,tcjn->tckn", first, lb.b, second), h))
    b_inner = (np.einsum("nij,tcjn->tcin", g_site, _ddx(inner, h))
               + np.einsum("nij,tcjn->tcin", flux, inner))
    terms = np.einsum("tcin,tcin->tc", phi, b_inner)
    scale = np.maximum(1.0, np.max(np.abs(terms), axis=1, initial=0.0))
    return float(np.max(np.abs(terms.sum(axis=1)) / scale, initial=0.0))
