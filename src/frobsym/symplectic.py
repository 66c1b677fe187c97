"""Phase-space forms, the Lorentz-signature Legendre transform, Hamiltonian
vector fields and a conservative integrator.

Sign conventions (fixed once, used everywhere):

* canonical coefficients J = [[0, I], [-I, 0]] in (x, p) ordering, so the
  pairing of (1,0) with (0,1) on a 1-dof phase space is +1;
* the Hamiltonian vector field solves form(X, .) = dH, which for the
  canonical J gives xdot = dH/dp, pdot = -dH/dx;
* realified split-coordinate forms are ordered (x^1..x^m, y^1..y^m) and the
  overall sign is normalized so that m=1, g=1 yields +dx^dy, i.e. the
  coefficient block is J = [[0, G], [-G, 0]] with G the symmetric metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numdiff
from .errors import (DegenerateForm, DimensionMismatch, InvalidStructure, NonConvergence,
                     NonFiniteValue)
from .geometry import MetricField, PotentialField

_EMPTY = np.zeros(0)


@dataclass(frozen=True)
class PhasePoint:
    """Positions z, momenta p, and an optional spin block lam.

    Realified split coordinates enter through z as 2m reals (x, y); z and p
    are scalars or 1-D, the spin block is flattened.  Instances are treated
    as immutable; helpers return new points.
    """

    z: np.ndarray
    p: np.ndarray
    lam: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if z.ndim != 1 or p.ndim != 1:
            raise DimensionMismatch(f"z and p must be 1-D, got shapes {z.shape} and {p.shape}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))

    @property
    def layout(self) -> tuple[int, int, int]:
        return self.z.size, self.p.size, self.lam.size

    def flat(self) -> np.ndarray:
        return np.concatenate([self.z, self.p, self.lam])

    def replace_flat(self, values: np.ndarray) -> "PhasePoint":
        """A point of the same layout whose blocks are views of ``values``.

        ``values`` must be 1-D with the layout's length.  The blocks are
        then already what ``__post_init__`` would make of them, so the point
        is assembled without it, and shares memory with ``values``.
        """
        nz, npp, nl = self.layout
        values = np.asarray(values, dtype=float)
        if values.shape != (nz + npp + nl,):
            raise DimensionMismatch(
                f"flat vector of shape {values.shape} does not match the layout {self.layout}")
        point = object.__new__(PhasePoint)
        object.__setattr__(point, "z", values[:nz])
        object.__setattr__(point, "p", values[nz:nz + npp])
        object.__setattr__(point, "lam", values[nz + npp:])
        return point


@dataclass(frozen=True)
class Observable:
    """Scalar function on phase space, with an optional analytic gradient.

    The gradient callback must return the concatenated layout
    (d/dz, d/dp, d/dlam).  Without it, central differences are used.
    """

    func: Callable[[PhasePoint], float]
    grad: Callable[[PhasePoint], np.ndarray] | None = None

    def __call__(self, y: PhasePoint) -> float:
        return float(self.func(y))

    def gradient(self, y: PhasePoint, h: float | None = None,
                 coords: slice = slice(None)) -> np.ndarray:
        """Partials over the flat coordinates ``coords`` of the layout.

        Central differences shift only those coordinates, two field
        evaluations each; every partial uses its own step, so it equals the
        matching entry of the full gradient bit for bit.
        """
        if self.grad is not None and h is None:
            return np.asarray(self.grad(y), dtype=float)[coords]
        flat = y.flat()

        def shifted(v):
            full = flat.copy()
            full[coords] = v
            return self.func(y.replace_flat(full))

        return numdiff.gradient(shifted, flat[coords], h=h)


@dataclass(frozen=True, init=False)
class SeparableHamiltonian(Observable):
    """H(z, p) = T(p) + V(z) given by its four parts on flat arrays.

    ``T`` and ``V`` reduce over the last axis, so each takes one point or a
    stack of points; ``dT`` and ``dV`` return dT/dp and dV/dz, and must map
    a ``(rows, n)`` stack row by row, because the leapfrog integrator steps
    every trajectory of an :func:`integrate_many` call as one row of such a
    stack.  ``func`` and ``grad`` are derived from the parts, so the object
    works wherever an Observable does; the integrator calls the parts
    directly.
    """

    T: Callable[[np.ndarray], np.ndarray]
    dT: Callable[[np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]
    dV: Callable[[np.ndarray], np.ndarray]

    def __init__(self, T, dT, V, dV):
        for name, part in (("T", T), ("dT", dT), ("V", V), ("dV", dV)):
            object.__setattr__(self, name, part)
        super().__init__(
            lambda y: T(y.p) + V(y.z),
            lambda y: np.concatenate([dV(y.z), dT(y.p), np.zeros_like(y.lam)]),
        )


@dataclass(frozen=True)
class TwoForm:
    """Evaluable 2-form: ``func(point)`` returns antisymmetric coefficients."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]

    ANTISYMMETRY_TOL = 1e-12

    def matrix(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        J = np.asarray(self.func(point), dtype=float)
        if J.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"coefficients have shape {J.shape}")
        scale = max(1.0, float(np.max(np.abs(J))))
        if np.max(np.abs(J + J.T)) > self.ANTISYMMETRY_TOL * scale:
            raise InvalidStructure(f"form coefficients not antisymmetric at {point}")
        return J

    def inverse(self, point) -> np.ndarray:
        J = self.matrix(point)
        if np.linalg.cond(J) > 1e12:
            raise DegenerateForm(f"form singular at {np.asarray(point)}")
        return np.linalg.inv(J)

    def pair(self, point, xi, eta) -> float:
        J = self.matrix(point)
        return float(np.asarray(xi, float) @ J @ np.asarray(eta, float))


def canonical_two_form(n: int) -> TwoForm:
    """Constant J = [[0, I], [-I, 0]] on a 2n-dimensional (x, p) space."""
    if n < 1:
        raise DimensionMismatch("need at least one degree of freedom")
    i = np.eye(n)
    J = np.block([[0 * i, i], [-i, 0 * i]])
    return TwoForm(2 * n, lambda point: J)


def paracomplex_two_form(g, m: int) -> TwoForm:
    """Realified split-signature form with block coefficients [[0, G], [-G, 0]].

    ``g`` is the symmetric m x m metric block: a constant matrix or a
    callable of the full real point (x^1..x^m, y^1..y^m).  The block layout
    and overall sign follow the module convention above, so m=1 with G=1 is
    exactly +dx^dy.  Symmetry of G makes the coefficients equal their own
    antisymmetrization identically.
    """
    z = np.zeros((m, m))

    def coeffs(point):
        point = np.asarray(point, dtype=float)
        if point.size != 2 * m:
            raise DimensionMismatch(f"expected {2 * m} realified coordinates")
        G = np.asarray(g(point) if callable(g) else g, dtype=float)
        if G.shape != (m, m):
            raise DimensionMismatch(f"metric block has shape {G.shape}")
        G = 0.5 * (G + G.T)
        return np.block([[z, G], [-G, z]])

    return TwoForm(2 * m, coeffs)


def dolbeault_form(phi: PotentialField, point, h: float | None = None) -> np.ndarray:
    """Mixed-partial coefficients w[a, b] = d2 phi / dz+^a dz-^b.

    ``phi`` lives on adapted coordinates ordered (z+^1..z+^m, z-^1..z-^m).
    """
    if phi.dim % 2 != 0:
        raise DimensionMismatch("adapted coordinates come in (plus, minus) pairs")
    m = phi.dim // 2
    point = np.asarray(point, dtype=float)
    if phi.hess is not None and h is None:
        full = np.asarray(phi.hess(point), dtype=float)
    else:
        step = numdiff.SECOND_ORDER_STEP if h is None else h
        full = numdiff.hessian(phi.value, point, h=step)
    return full[:m, m:]


def realified_dolbeault_two_form(phi: PotentialField) -> TwoForm:
    """The (1,1)-form of ``phi`` as a real 2-form in (x, y) coordinates.

    Adapted coordinates are z+ = x + y, z- = x - y; the wedge basis
    dz+^a ^ dz-^b expands to (dx+dy)^a ^ (dx-dy)^b.  Because the
    coefficients are mixed second partials the resulting form is exact,
    hence closed, for any twice-differentiable potential.
    """
    if phi.dim % 2 != 0:
        raise DimensionMismatch("adapted coordinates come in (plus, minus) pairs")
    m = phi.dim // 2

    def coeffs(point):
        point = np.asarray(point, dtype=float)
        x, y = point[:m], point[m:]
        adapted = np.concatenate([x + y, x - y])
        w = dolbeault_form(phi, adapted)
        # dz+^a ^ dz-^b = (dx^a + dy^a) ^ (dx^b - dy^b); each wedge term
        # c * du ^ dv contributes J[u, v] += c, J[v, u] -= c.
        J = np.zeros((2 * m, 2 * m))
        for a in range(m):
            for b in range(m):
                c = w[a, b]
                J[a, b] += c            # dx^a ^ dx^b
                J[b, a] -= c
                J[m + a, m + b] -= c    # dy^a ^ dy^b
                J[m + b, m + a] += c
                J[a, m + b] -= c        # dx^a ^ dy^b
                J[m + b, a] += c
                J[m + a, b] += c        # dy^a ^ dx^b
                J[b, m + a] -= c
        return J

    return TwoForm(2 * m, coeffs)


def exterior_derivative(form: TwoForm, point, h: float | None = None) -> np.ndarray:
    """(dW)_ijk = d_i J_jk + d_j J_ki + d_k J_ij by central differences."""
    point = np.asarray(point, dtype=float)
    dj = numdiff.jacobian(form.matrix, point, h=h)  # dj[i, j, k]
    return dj + np.transpose(dj, (1, 2, 0)) + np.transpose(dj, (2, 0, 1))


def closedness_residual(form: TwoForm, points, h: float | None = None) -> float:
    """Max |(dW)_ijk| over the sample points."""
    worst = 0.0
    for x in points:
        worst = max(worst, float(np.max(np.abs(exterior_derivative(form, x, h=h)))))
    return worst


# ---------------------------------------------------------------------------
# splitting of the differential on adapted coordinates

# On adapted coordinates (z+^1..z+^m, z-^1..z-^m) the differential splits as
# d = d' + d'' with d' collecting the plus-direction derivative components
# and d'' the minus-direction ones.  Forms of degree k are represented by a
# callable returning fully antisymmetric coefficients with k axes over the
# 2m coordinates (a scalar for k = 0).


def _antisymmetrize(t: np.ndarray) -> np.ndarray:
    from itertools import permutations

    k = t.ndim
    if k <= 1:
        return t
    acc = np.zeros_like(t)
    count = 0
    for perm in permutations(range(k)):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        acc += (-1.0) ** inversions * np.transpose(t, perm)
        count += 1
    return acc / count


def split_exterior_derivative(coeffs: Callable, degree: int, point,
                              block: str = "both", h: float = 1e-4) -> np.ndarray:
    """d, d' or d'' of a degree-``degree`` form at ``point``.

    ``block`` selects which derivative directions survive: "plus" gives d',
    "minus" gives d'', "both" the full differential.  The result carries
    degree+1 antisymmetric axes; for a 0-form and block "plus" it is the
    plus-part of the gradient (padded with zeros on the minus slots).
    """
    point = np.asarray(point, dtype=float)
    if point.size % 2 != 0:
        raise DimensionMismatch("adapted points come in (plus, minus) pairs")
    m = point.size // 2

    def wrapped(x):
        value = coeffs(x)
        arr = np.asarray(value, dtype=float)
        if arr.ndim != degree:
            raise DimensionMismatch(f"expected a degree-{degree} coefficient array")
        return arr

    full = numdiff.jacobian(wrapped, point, h=h)  # [direction, (form indices)]
    if block == "plus":
        full[m:] = 0.0
    elif block == "minus":
        full[:m] = 0.0
    elif block != "both":
        raise InvalidStructure(f"unknown block {block!r}")
    return (degree + 1) * _antisymmetrize(full)


def dbar_split_residuals(zero_forms, points, one_forms=(), h: float = 1e-4) -> dict:
    """Max residuals of (d')^2 = 0, (d'')^2 = 0 and d'd'' = -d''d'.

    Applied to the supplied 0-forms (callables of the adapted point) and
    optional 1-forms (callables returning a length-2m coefficient vector),
    at each sample point, with nested central differences of step ``h``.
    """
    worst = {"dp_dp": 0.0, "dm_dm": 0.0, "anticommute": 0.0}
    suite = [(f, 0) for f in zero_forms] + [(f, 1) for f in one_forms]
    for f, degree in suite:
        for raw in points:
            point = np.asarray(raw, dtype=float)

            def once(block):
                return lambda x: split_exterior_derivative(f, degree, x, block=block, h=h)

            pp = split_exterior_derivative(once("plus"), degree + 1, point, "plus", h=h)
            mm = split_exterior_derivative(once("minus"), degree + 1, point, "minus", h=h)
            pm = split_exterior_derivative(once("minus"), degree + 1, point, "plus", h=h)
            mp = split_exterior_derivative(once("plus"), degree + 1, point, "minus", h=h)
            worst["dp_dp"] = max(worst["dp_dp"], float(np.max(np.abs(pp))))
            worst["dm_dm"] = max(worst["dm_dm"], float(np.max(np.abs(mm))))
            worst["anticommute"] = max(worst["anticommute"], float(np.max(np.abs(pm + mp))))
    return worst


# ---------------------------------------------------------------------------
# Lagrangian mechanics with a fixed diagonal signature


@dataclass(frozen=True)
class LorentzLagrangian:
    """L = (C/2)(xi^mu xi_mu - 1) + kappa2 xi^mu A_mu - U.

    ``signature`` holds the +-1 diagonal used to lower indices,
    xi_mu = signature[mu] * xi^mu.
    """

    signature: np.ndarray
    mass_const: float = 1.0
    kappa2: float = 0.0
    gauge: Callable[[np.ndarray], np.ndarray] | None = None
    scalar: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        sig = np.asarray(self.signature, dtype=float)
        if not np.all(np.isin(sig, (-1.0, 1.0))):
            raise InvalidStructure("signature entries must be +1 or -1")
        object.__setattr__(self, "signature", sig)

    def lagrangian(self, xi, z) -> float:
        xi = np.asarray(xi, dtype=float)
        value = 0.5 * self.mass_const * (float(xi @ (self.signature * xi)) - 1.0)
        if self.kappa2 != 0.0 and self.gauge is not None:
            value += self.kappa2 * float(xi @ np.asarray(self.gauge(np.asarray(z, float))))
        if self.scalar is not None:
            value -= float(self.scalar(np.asarray(z, float)))
        return value


def legendre_hamiltonian(lag: LorentzLagrangian, xi, z) -> tuple[np.ndarray, np.ndarray, float]:
    """Momentum, force and energy of the velocity xi at base point z.

    p_mu = C xi_mu + kappa2 A_mu, f_mu = kappa2 xi^nu dA_nu/dz^mu, and
    H = xi^mu p_mu - L.  The mass constant C multiplies the kinetic
    momentum; C = 1 recovers the bare lowered velocity.
    """
    xi = np.asarray(xi, dtype=float)
    z = np.asarray(z, dtype=float)
    if xi.shape != lag.signature.shape:
        raise DimensionMismatch("velocity and signature sizes disagree")
    lowered = lag.signature * xi
    p = lag.mass_const * lowered
    if lag.kappa2 != 0.0 and lag.gauge is not None:
        p = p + lag.kappa2 * np.asarray(lag.gauge(z), dtype=float)
        dA = numdiff.jacobian(lambda w: np.asarray(lag.gauge(w), float), z)  # dA[mu, nu]
        force = lag.kappa2 * dA @ xi
    else:
        force = np.zeros_like(xi)
    energy = float(xi @ p) - lag.lagrangian(xi, z)
    return p, force, energy


# ---------------------------------------------------------------------------
# Hamiltonian vector fields and time stepping


def hamiltonian_vector_field(H: Observable, form: TwoForm, y: PhasePoint,
                             h: float | None = None) -> np.ndarray:
    """X with form(X, .) = dH at y, i.e. J_ij X^i = dH/dy^j."""
    grad = H.gradient(y, h=h)
    J = form.matrix(y.flat())
    if np.linalg.cond(J) > 1e12:
        raise DegenerateForm("form singular at the probed point")
    return np.linalg.solve(J.T, grad)


def quadratic_energy(metric: MetricField, y: PhasePoint,
                     scalar: Callable[[np.ndarray], float] | None = None) -> float:
    """Kinetic energy (1/2) g^{ij}(z) p_i p_j plus an optional scalar term."""
    ginv = metric.inverse(y.z)
    value = 0.5 * float(y.p @ ginv @ y.p)
    if scalar is not None:
        value += float(scalar(y.z))
    return value


@dataclass(frozen=True)
class Trajectory:
    """Integrator output: times, positions, momenta and energies, one row
    per step (``z`` and ``p`` have shape ``(steps + 1, n)``)."""

    times: np.ndarray
    z: np.ndarray
    p: np.ndarray
    energies: np.ndarray

    @property
    def points(self) -> list:
        """The states as PhasePoints, built on each read."""
        return [PhasePoint(z, p) for z, p in zip(self.z, self.p)]

    @property
    def max_energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))

    def records(self) -> list[dict]:
        """One dump record per step: {s, z, p, H}."""
        return [
            {"s": t, "z": z, "p": p, "H": e}
            for t, z, p, e in zip(self.times.tolist(), self.z.tolist(),
                                  self.p.tolist(), self.energies.tolist())
        ]


def integrate(H: Observable, y0: PhasePoint, dt: float, steps: int) -> Trajectory:
    """Propagate y0 for ``steps`` steps of size dt with a symplectic scheme.

    The one-pair case of :func:`integrate_many`, with the same schemes and
    the same input checks.
    """
    return integrate_many(H, y0, [dt], [steps])[0]


def integrate_many(H: Observable, y0: PhasePoint, dts, steps) -> list[Trajectory]:
    """One trajectory from y0 per ``(dt, steps)`` pair, in the given order.

    A :class:`SeparableHamiltonian` is stepped by kick-drift-kick leapfrog
    (Stormer-Verlet) on its split derivatives without building any
    PhasePoint.  All pairs advance together as the rows of one stack, so
    ``dT`` and ``dV`` see ``(rows, n)`` arrays; elementwise arithmetic
    rounds each row exactly as a lone run would.  Any other Observable is
    stepped by the implicit midpoint rule (fixed-point iteration, tolerance
    1e-12, at most 50 sweeps), one pair at a time, which stays symplectic
    and second order when H does not separate.

    ``dts`` and ``steps`` are equal-length, non-empty sequences, else
    DimensionMismatch; a step count that is not a non-negative integer is a
    DimensionMismatch too, and a non-finite step size a NonFiniteValue.
    """
    dts, counts = _schedule(dts, steps)
    if y0.lam.size:
        raise DimensionMismatch("time stepping expects a plain (z, p) point")
    if isinstance(H, SeparableHamiltonian):
        runs = _leapfrog(H, y0.z, y0.p, dts, counts)
        energies = [np.asarray(H.T(ps) + H.V(zs), dtype=float) for zs, ps in runs]
    else:
        runs = [_midpoint(H, y0.z, y0.p, dt, n) for dt, n in zip(dts, counts)]
        energies = [np.array([H(PhasePoint(z, p)) for z, p in zip(zs, ps)])
                    for zs, ps in runs]
    return [Trajectory(dt * np.arange(n + 1), zs, ps, e)
            for dt, n, (zs, ps), e in zip(dts, counts, runs, energies)]


def _schedule(dts, steps) -> tuple[np.ndarray, list[int]]:
    """Checked step sizes and step counts of an integrate_many call."""
    dts = np.asarray(dts, dtype=float)
    if dts.ndim != 1 or np.ndim(steps) != 1 or dts.size == 0 or len(steps) != dts.size:
        raise DimensionMismatch("dts and steps must be equal-length, non-empty sequences")
    if not np.all(np.isfinite(dts)):
        raise NonFiniteValue(f"step sizes must be finite, got {dts.tolist()}")
    for n in steps:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise DimensionMismatch(f"step counts must be non-negative integers, got {n!r}")
    return dts, [int(n) for n in steps]


def _leapfrog(H: SeparableHamiltonian, z0: np.ndarray, p0: np.ndarray,
              dts: np.ndarray, counts: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Kick-drift-kick for every pair at once; (zs, ps) per pair, in order.

    The pairs are sorted by descending step count, so the rows still
    running are always a prefix of the stack.  Between two retirements the
    steps go into one segment buffer, copied at the segment's end into each
    row's own ``(steps + 1, n)`` arrays.
    """
    order = sorted(range(len(counts)), key=lambda j: -counts[j])
    zs = [np.empty((n + 1, z0.size)) for n in counts]
    ps = [np.empty((n + 1, p0.size)) for n in counts]
    for z_rows, p_rows in zip(zs, ps):
        z_rows[0], p_rows[0] = z0, p0
    dt = dts[order, None]
    half = 0.5 * dt
    z, p = np.tile(z0, (len(order), 1)), np.tile(p0, (len(order), 1))
    # the end-of-step force is reused as the next kick
    f = H.dV(z)
    done = 0
    for live in range(len(order), 0, -1):
        end = counts[order[live - 1]]
        if end == done:
            continue
        z, p, f, dt, half = z[:live], p[:live], f[:live], dt[:live], half[:live]
        segment = slice(done + 1, end + 1)
        if live == 1:
            # the last row writes straight into its own arrays
            z_buf, p_buf = zs[order[0]][segment, None], ps[order[0]][segment, None]
        else:
            z_buf = np.empty((end - done, live, z0.size))
            p_buf = np.empty((end - done, live, p0.size))
        for i in range(end - done):
            p_half = p - half * f
            z = np.add(z, dt * H.dT(p_half), out=z_buf[i])
            f = H.dV(z)
            p = np.subtract(p_half, half * f, out=p_buf[i])
        if live > 1:
            for row, j in enumerate(order[:live]):
                zs[j][segment], ps[j][segment] = z_buf[:, row], p_buf[:, row]
        done = end
    return list(zip(zs, ps))


def _midpoint(H: Observable, z0: np.ndarray, p0: np.ndarray, dt: float, steps: int):
    """``steps`` implicit midpoint steps from (z0, p0); (zs, ps) arrays."""
    zs = np.empty((steps + 1, z0.size))
    ps = np.empty((steps + 1, p0.size))
    zs[0], ps[0] = z0, p0
    for i in range(1, steps + 1):
        zs[i], ps[i] = _midpoint_step(H, zs[i - 1], ps[i - 1], dt)
    return zs, ps


def _midpoint_step(H: Observable, z: np.ndarray, p: np.ndarray, dt: float,
                   tol: float = 1e-12, max_iter: int = 50):
    """One implicit midpoint step of zdot = dH/dp, pdot = -dH/dz."""
    n = z.size
    current = np.concatenate([z, p])
    guess = current
    for _ in range(max_iter):
        mid = 0.5 * (current + guess)
        grad = H.gradient(PhasePoint(mid[:n], mid[n:]))
        updated = current + dt * np.concatenate([grad[n:], -grad[:n]])
        if np.max(np.abs(updated - guess)) < tol:
            return updated[:n], updated[n:]
        guess = updated
    raise NonConvergence("implicit midpoint iteration stalled")
