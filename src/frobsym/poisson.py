"""Poisson brackets: canonical, spin-extended, split-number, first-order
local Lie brackets, and a periodic lattice discretization of the
hydrodynamic-type bracket.

The canonical bracket is

    {A, B} = dA/dp_mu dB/dz^mu - dB/dp_mu dA/dz^mu

with exactly this sign, so {z, p} = -1.  Combined with the evolution rule
Qdot = {H, Q} this reproduces the textbook flow zdot = dH/dp,
pdot = -dH/dz; only the two intermediate signs differ from the common
convention, and they cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .errors import DimensionMismatch, InvalidStructure
from .paracomplex import ParaVector, para_hermitian_product
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
        if np.max(np.abs(g + np.swapaxes(g, 1, 2))) > 1e-12 * max(1.0, np.max(np.abs(g))):
            raise InvalidStructure("constants must be antisymmetric in the lower pair")
        object.__setattr__(self, "gamma", g)

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


def canonical_bracket(A: Observable, B: Observable, y: PhasePoint,
                      h: float | None = None) -> float:
    """{A, B} = dA/dp dB/dz - dB/dp dA/dz contracted over the (z, p) pairs.

    Each operand is differentiated over the (z, p) block only.
    """
    nz, npp, _ = y.layout
    if nz != npp:
        raise DimensionMismatch("point must carry matching z and p blocks")
    block = slice(0, nz + npp)
    a, b = A.gradient(y, h=h, coords=block), B.gradient(y, h=h, coords=block)
    return float(a[nz:] @ b[:nz] - b[nz:] @ a[:nz])


def extended_bracket(A: Observable, B: Observable, y: PhasePoint,
                     constants: StructureConstants, h: float | None = None) -> float:
    """Canonical part plus the spin term -lam_k gamma^k_ij dA/dlam_i dB/dlam_j.

    Each operand is differentiated over the spin block here and over the
    (z, p) block in :func:`canonical_bracket`, so every partial is taken once.
    """
    if y.lam.size != constants.dim:
        raise DimensionMismatch("spin block does not match the structure constants")
    spins = slice(y.z.size + y.p.size, None)
    al, bl = A.gradient(y, h=h, coords=spins), B.gradient(y, h=h, coords=spins)
    spin = -float(np.einsum("k,kij,i,j->", y.lam, constants.gamma, al, bl))
    return canonical_bracket(A, B, y, h=h) + spin


def paracomplex_bracket(g, xi: ParaVector, eta: ParaVector) -> float:
    """Half the Im-part of the Hermitian pairing: (1/2) Im <xi, eta>."""
    return 0.5 * para_hermitian_product(g, xi, eta).im


def evolution_derivative(H: Observable, Q: Observable, y: PhasePoint,
                         constants: StructureConstants | None = None,
                         h: float | None = None) -> float:
    """Qdot = {H, Q} at y, optionally with a spin block."""
    if constants is not None:
        return extended_bracket(H, Q, y, constants, h=h)
    return canonical_bracket(H, Q, y, h=h)


@dataclass(frozen=True)
class BracketResiduals:
    antisymmetry: float
    chain_rule: float
    leibniz: float
    jacobi: float

    def worst(self) -> float:
        return max(self.antisymmetry, self.chain_rule, self.leibniz, self.jacobi)


def bracket_property_residuals(bracket: Callable, observables, points,
                               nested_h: float = DEFAULT_NESTED_STEP) -> BracketResiduals:
    """Antisymmetry, chain rule, Leibniz and Jacobi residuals of a bracket.

    ``bracket(A, B, y)`` must accept Observable arguments.  The chain rule
    is probed with f(t) = t^2 and g(t) = sin t; Jacobi nests the bracket as
    a new Observable, differentiated with the coarser ``nested_h`` step to
    keep finite-difference noise below the 1e-6 residual target.

    Within one probe point, an operand without an analytic gradient has its
    full gradient taken once at each point a bracket differentiates it at,
    and every bracket there shares it (see :func:`_shared_gradient`).
    """
    A0, B0, C0 = observables
    anti = chain = leib = jac = 0.0
    for y in points:
        A, B, C = (_shared_gradient(op) for op in (A0, B0, C0))
        ab = bracket(A, B, y)
        anti = max(anti, abs(ab + bracket(B, A, y)))

        # the composite operands are built from the original operands, so an
        # FD operand still makes an FD composite, differenced as a whole
        fa = Observable(lambda q: A(q) ** 2, _square_grad(A0))
        gb = Observable(lambda q: np.sin(B(q)), _sin_grad(B0))
        chain = max(chain, abs(bracket(fa, gb, y) - 2.0 * A(y) * np.cos(B(y)) * ab))

        bc_prod = Observable(lambda q: B(q) * C(q), _product_grad(B0, C0))
        leib = max(
            leib,
            abs(bracket(A, bc_prod, y) - B(y) * bracket(A, C, y) - C(y) * ab),
        )

        def nested(first, second):
            return Observable(lambda q: bracket(first, second, q))

        triple = (
            bracket(A, nested(B, C), y, h=nested_h)
            + bracket(B, nested(C, A), y, h=nested_h)
            + bracket(C, nested(A, B), y, h=nested_h)
        )
        jac = max(jac, abs(triple))
    return BracketResiduals(anti, chain, leib, jac)


def _shared_gradient(operand: Observable) -> Observable:
    """``operand`` with its full central-difference gradient as ``grad``,
    memoised by the point's flat coordinates and returned read-only, so no
    bracket can change what a later one reads.

    Every partial a bracket takes equals the matching entry of the full
    gradient bit for bit, so brackets at h=None give the same values while
    each shifted point of the nested Jacobi terms differences the operand
    once instead of once per bracket.  A difference at an explicit step h
    still differences ``func``.  An analytic operand is returned as it is.
    """
    if operand.grad is not None:
        return operand
    memo = {}

    def grad(y: PhasePoint) -> np.ndarray:
        key = y.flat().tobytes()
        g = memo.get(key)
        if g is None:
            g = operand.gradient(y)
            g.flags.writeable = False
            memo[key] = g
        return g

    return Observable(operand.func, grad)


def _square_grad(A: Observable):
    if A.grad is None:
        return None
    return lambda y: 2.0 * A(y) * A.gradient(y)


def _sin_grad(B: Observable):
    if B.grad is None:
        return None
    return lambda y: np.cos(B(y)) * B.gradient(y)


def _product_grad(B: Observable, C: Observable):
    if B.grad is None or C.grad is None:
        return None
    return lambda y: B(y) * C.gradient(y) + C(y) * B.gradient(y)


# ---------------------------------------------------------------------------
# first-order local Lie bracket on a periodic grid


def _ddx(f, spacing: float) -> np.ndarray:
    """Central difference (f[n+1] - f[n-1]) / 2h, periodic along the last axis."""
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * spacing)


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

    ``metric(u_point)`` returns the r x r coefficient matrix at one site;
    ``metric_deriv`` optionally returns dC[i, j, k] = d(g^ij)/du^k.  The
    flux constants are stored as b[i, j, k] = b^{ij}_k.
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

    def stencil(self) -> np.ndarray:
        return periodic_derivative_matrix(self.sites, self.spacing)


@dataclass(frozen=True)
class LatticeOperatorReport:
    operator: np.ndarray
    antisymmetry_residual: float


def lattice_hydro_bracket(lb: LatticeBracket, u) -> LatticeOperatorReport:
    """Assemble B[(i,n),(j,m)] = g^ij(u_n) D_nm + b^ij_k (Du^k)_n delta_nm.

    Flat index is i * N + n (field-major).  Reports the max-norm
    antisymmetry residual of B; :func:`lattice_jacobi_residual` scores the
    Jacobi identity without forming B.
    """
    u = np.asarray(u, dtype=float)
    B = _assemble_operator(lb, u)
    return LatticeOperatorReport(B, float(np.max(np.abs(B + B.T))))


def smooth_test_profile(field_dim: int, sites: int, spacing: float, rng,
                        modes: int = 2) -> np.ndarray:
    """Low-order Fourier profile sampled on the grid.

    The number of random draws is independent of the grid size, so the same
    rng state produces samples of one fixed continuum function at every
    resolution; grid-refinement studies rely on this.
    """
    coeffs = rng.normal(size=(field_dim, modes, 2))
    x = spacing * np.arange(sites)
    length = spacing * sites
    out = np.zeros((field_dim, sites))
    for k in range(modes):
        angle = 2.0 * np.pi * (k + 1) * x / length
        out += coeffs[:, k, 0][:, None] * np.cos(angle)
        out += coeffs[:, k, 1][:, None] * np.sin(angle)
    return out


def _site_coefficients(lb: LatticeBracket, u: np.ndarray):
    """Per-site metric g[n, i, j] and diagonal flux b^ij_k (Du^k)_n as [n, i, j]."""
    if u.shape != (lb.field_dim, lb.sites):
        raise DimensionMismatch(f"field state must have shape {(lb.field_dim, lb.sites)}")
    g_site = np.stack([np.asarray(lb.metric(u[:, n]), dtype=float) for n in range(lb.sites)])
    flux = np.einsum("ijk,kn->nij", lb.b, _ddx(u, lb.spacing))
    return g_site, flux


def _assemble_operator(lb: LatticeBracket, u: np.ndarray) -> np.ndarray:
    r, N = lb.field_dim, lb.sites
    g_site, flux = _site_coefficients(lb, u)
    B = np.einsum("nij,nm->injm", g_site, lb.stencil())
    sites = np.arange(N)
    B[:, sites, :, sites] += flux
    return B.reshape(r * N, r * N)


def lattice_jacobi_residual(lb: LatticeBracket, u, rng=None, triples: int = 3) -> float:
    """Relative Jacobi defect on smooth linear functionals F = sum phi_i(n) u^i_n.

    For linear F the inner bracket is phi^T B(u) psi, so the outer bracket
    only needs dB/du, analytic when ``metric_deriv`` is given and central
    differences otherwise.  The cyclic sum is reported relative to the
    magnitude of its three terms, which makes the defect O(h^2) for
    coefficient data satisfying the continuum compatibility conditions.
    B is applied through the periodic stencil and never formed, so time and
    memory grow as O(N) in the sites.
    """
    r, N, h = lb.field_dim, lb.sites, lb.spacing
    u = np.asarray(u, dtype=float)
    rng = np.random.default_rng(0) if rng is None else rng
    g_site, flux = _site_coefficients(lb, u)
    deriv = lb.metric_deriv or (lambda w: np.moveaxis(numdiff.jacobian(
        lambda v: np.asarray(lb.metric(v), float), w), 0, -1))
    dC = np.stack([np.asarray(deriv(u[:, n]), dtype=float) for n in range(N)])  # [n, i, j, k]

    # phi[t, c] is the c-th profile of triple t; the cyclic terms pair
    # phi_a with the inner bracket {phi_b, phi_c} for (a, b, c) in
    # (0, 1, 2), (1, 2, 0), (2, 0, 1)
    phi = np.array([[smooth_test_profile(r, N, h, rng) for _ in range(3)]
                   for _ in range(triples)]).reshape(triples, 3, r, N)
    first, second = phi[:, [1, 2, 0]], phi[:, [2, 0, 1]]
    # d/du^k_s of phi^T B(u) psi; the flux part uses D^T = -D
    inner = (np.einsum("tcin,nijk,tcjn->tckn", first, dC, _ddx(second, h))
             - _ddx(np.einsum("tcin,ijk,tcjn->tckn", first, lb.b, second), h))
    b_inner = (np.einsum("nij,tcjn->tcin", g_site, _ddx(inner, h))
               + np.einsum("nij,tcjn->tcin", flux, inner))
    terms = np.einsum("tcin,tcin->tc", phi, b_inner)
    scale = np.maximum(1.0, np.max(np.abs(terms), axis=1, initial=0.0))
    return float(np.max(np.abs(terms.sum(axis=1)) / scale, initial=0.0))
