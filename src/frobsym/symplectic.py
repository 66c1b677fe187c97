"""Phase-space forms, the Legendre transform of the free Lorentz-signature
Lagrangian, and two conservative integrators.

Sign conventions (fixed once, used everywhere):

* canonical coefficients J = [[0, I], [-I, 0]] in (x, p) ordering, which is
  ``paracomplex_two_form(np.eye(n), n)``, so J_xp = +1 on a 1-dof phase
  space;
* the Hamiltonian flow X solves J(X, .) = dH, so the integrators step
  xdot = dH/dp, pdot = -dH/dx;
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
                     NonFiniteValue, require_antisymmetric, require_invertible, symmetric_part)

_EMPTY = np.zeros(0)


@dataclass(frozen=True)
class PhasePoint:
    """Positions z, momenta p, and an optional spin block lam.

    Realified split coordinates enter through z as 2m reals (x, y); z and p
    are scalars or 1-D, the spin block is flattened.  Instances are treated
    as immutable; helpers return new points.  :meth:`replace_flat` also
    builds stacked points, whose blocks hold one row per point; ``layout``
    and ``flat`` work on the last axis.
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
        return self.z.shape[-1], self.p.shape[-1], self.lam.shape[-1]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.z, self.p, self.lam], axis=-1)

    def replace_flat(self, values: np.ndarray) -> "PhasePoint":
        """A point of the same layout whose blocks are views of ``values``.

        ``values`` is one flat vector of the layout's length, or a
        ``(..., length)`` stack of them; a stack gives a stacked point
        whose blocks are ``(..., .)`` views, one row per point.  The blocks
        are then already what ``__post_init__`` would make of a 1-D vector,
        so the point is assembled without it, and shares memory with
        ``values``.
        """
        nz, npp, nl = self.layout
        values = np.asarray(values, dtype=float)
        if values.ndim == 0 or values.shape[-1] != nz + npp + nl:
            raise DimensionMismatch(
                f"flat values of shape {values.shape} do not match the layout {self.layout}")
        point = object.__new__(PhasePoint)
        object.__setattr__(point, "z", values[..., :nz])
        object.__setattr__(point, "p", values[..., nz:nz + npp])
        object.__setattr__(point, "lam", values[..., nz + npp:])
        return point


@dataclass(frozen=True)
class Observable:
    """Scalar function on phase space, with an optional analytic gradient.

    ``func`` maps a point to a float, and a stacked point (see
    :meth:`PhasePoint.replace_flat`) to one value per row, each the value
    it gives that row alone, so it indexes blocks as ``y.z[..., i]`` and
    reduces over the last axis.  The gradient callback maps a point or a
    stacked point to the concatenated layout (d/dz, d/dp, d/dlam) on the
    last axis.  Without it, central differences are used.
    """

    func: Callable[[PhasePoint], float]
    grad: Callable[[PhasePoint], np.ndarray] | None = None

    def __call__(self, y: PhasePoint) -> float:
        return float(self.func(y))

    def gradient(self, y: PhasePoint) -> np.ndarray:
        """Partials over every flat coordinate of the layout, on the last
        axis, at one point or at every row of a stacked point.

        Without ``grad``, central differences at the first-order step hand
        every shifted point of every row to ``func`` as one stacked point;
        every partial uses its own step, so a slice of the result is bit
        for bit what differencing only those coordinates would give.
        """
        if self.grad is not None:
            return np.asarray(self.grad(y), dtype=float)
        return numdiff.gradient(lambda stack: self.func(y.replace_flat(stack)), y.flat())


@dataclass(frozen=True, init=False)
class SeparableHamiltonian(Observable):
    """H(z, p) = T(p) + V(z) given by its four parts on flat arrays.

    ``T`` and ``V`` reduce over the last axis, so each takes one point or a
    stack of points; ``dT`` and ``dV`` return dT/dp and dV/dz, and must map
    a ``(rows, n)`` stack row by row to a ``(rows, n)`` stack (another shape
    is DimensionMismatch), because the leapfrog integrator steps
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
            lambda y: np.concatenate([dV(y.z), dT(y.p), np.zeros_like(y.lam)], axis=-1),
        )


@dataclass(frozen=True)
class TwoForm:
    """Evaluable 2-form: ``func`` maps a ``(..., dim)`` stack of points to
    ``(..., dim, dim)`` antisymmetric coefficients."""

    dim: int
    func: Callable[[np.ndarray], np.ndarray]

    def matrix(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        J = np.asarray(self.func(point), dtype=float)
        if J.shape != point.shape[:-1] + (self.dim, self.dim):
            raise DimensionMismatch(f"coefficients have shape {J.shape} for points {point.shape}")
        return require_antisymmetric(J, "form coefficients", point)

    def inverse(self, point) -> np.ndarray:
        J = self.matrix(point)
        require_invertible(J, DegenerateForm, "form", point)
        return np.linalg.inv(J)


def paracomplex_two_form(g, m: int) -> TwoForm:
    """Realified split-signature form with block coefficients [[0, G], [-G, 0]].

    ``g`` is the symmetric m x m metric block: a constant matrix or a
    callable mapping a stack of full real points (x^1..x^m, y^1..y^m) to
    the stack of blocks.  The block layout
    and overall sign follow the module convention above, so m=1 with G=1 is
    exactly +dx^dy.  A G that is not symmetric raises InvalidStructure; its
    symmetric part is used, so the coefficients equal their own
    antisymmetrization identically.

    With G = g(x), a metric of the base read off the x half of each point,
    this is the form omega = g_ab dx^a ^ dy^b on the tangent bundle, which
    is closed iff d_c g_ab = d_a g_cb, i.e. iff g is a Hessian metric in x
    (Dombrowski 1962; Shima 2007, ch. 2).
    """
    def coeffs(point):
        point = np.asarray(point, dtype=float)
        if point.shape[-1:] != (2 * m,):
            raise DimensionMismatch(f"expected {2 * m} realified coordinates")
        G = np.asarray(g(point) if callable(g) else g, dtype=float)
        G = np.broadcast_to(G, point.shape[:-1] + G.shape[-2:])
        if G.shape[-2:] != (m, m):
            raise DimensionMismatch(f"metric block has shape {G.shape}")
        G = symmetric_part(G, "metric block", point)
        z = np.zeros_like(G)
        return np.block([[z, G], [-G, z]])

    return TwoForm(2 * m, coeffs)


def exterior_derivative(form: TwoForm, point) -> np.ndarray:
    """(dW)_ijk = d_i J_jk + d_j J_ki + d_k J_ij by central differences."""
    point = np.asarray(point, dtype=float)
    dj = numdiff.jacobian(form.matrix, point)  # dj[..., i, j, k]
    return dj + np.einsum("...kij->...ijk", dj) + np.einsum("...jki->...ijk", dj)


def closedness_residual(form: TwoForm, points) -> float:
    """Max |(dW)_ijk| over a stack of sample points, differenced in one call."""
    return float(np.max(np.abs(exterior_derivative(form, points))))


# ---------------------------------------------------------------------------
# Lagrangian mechanics with a fixed diagonal signature


@dataclass(frozen=True)
class LorentzLagrangian:
    """L = (xi^mu xi_mu - 1) / 2.

    ``signature`` holds the +-1 diagonal used to lower indices,
    xi_mu = signature[mu] * xi^mu.
    """

    signature: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.signature, dtype=float)
        if not np.all(np.isin(sig, (-1.0, 1.0))):
            raise InvalidStructure("signature entries must be +1 or -1")
        object.__setattr__(self, "signature", sig)

    def lagrangian(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        return 0.5 * (float(xi @ (self.signature * xi)) - 1.0)


def legendre_hamiltonian(lag: LorentzLagrangian, xi) -> tuple[np.ndarray, float]:
    """Momentum p_mu = xi_mu and energy H = xi^mu p_mu - L of the velocity xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != lag.signature.shape:
        raise DimensionMismatch("velocity and signature sizes disagree")
    p = lag.signature * xi
    return p, float(xi @ p) - lag.lagrangian(xi)


# ---------------------------------------------------------------------------
# time stepping


@dataclass(frozen=True)
class Trajectory:
    """Integrator output: times, positions, momenta and energies, one row
    per step (``z`` and ``p`` have shape ``(steps + 1, n)``)."""

    times: np.ndarray
    z: np.ndarray
    p: np.ndarray
    energies: np.ndarray

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
    ``dT`` and ``dV`` see ``(rows, n)`` arrays and must return that shape,
    else DimensionMismatch; elementwise arithmetic rounds each row exactly
    as a lone run would, so each trajectory is bit-identical to its lone
    :func:`integrate` call, and a run's first ``k + 1`` states are those of
    the same pair with ``k`` steps.  The stack makes one ``dV`` call per
    step of the longest pair, plus one to start.  Any other Observable is
    stepped by the implicit midpoint rule (fixed-point iteration, tolerance
    1e-12, at most 50 sweeps), one pair at a time, which stays symplectic
    and second order when H does not separate.  Either way a pair's states
    fill one ``(steps + 1, 2n)`` array, ``z`` and ``p`` are views of it, and
    its energies are one ``H.func`` call on it as a stacked point.

    ``dts`` and ``steps`` are equal-length, non-empty sequences, else
    DimensionMismatch; a step count that is not a non-negative integer is a
    DimensionMismatch too, and a non-finite step size a NonFiniteValue.
    """
    dts, counts = _schedule(dts, steps)
    if y0.lam.size:
        raise DimensionMismatch("time stepping expects a plain (z, p) point")
    if isinstance(H, SeparableHamiltonian):
        runs = _leapfrog(H, y0, dts, counts)
    else:
        runs = [_midpoint(H, y0, dt, n) for dt, n in zip(dts, counts)]
    n = y0.z.size
    return [Trajectory(dt * np.arange(k + 1), states[:, :n], states[:, n:],
                       np.asarray(H.func(y0.replace_flat(states)), dtype=float))
            for dt, k, states in zip(dts, counts, runs)]


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


def _leapfrog(H: SeparableHamiltonian, y0: PhasePoint, dts: np.ndarray,
              counts: list[int]) -> list[np.ndarray]:
    """Kick-drift-kick for every pair at once from y0; one ``(steps + 1,
    2n)`` state array per pair, in order.

    The pairs are sorted by descending step count, so the rows still
    running are always a prefix of the stack.  Between two retirements the
    steps go into one segment buffer, copied at the segment's end into each
    row's own state array.  ``dT`` and ``dV`` are called once on the full
    stack before the step loop, and a result whose shape is not its
    input's is DimensionMismatch: broadcast, it would mix the rows.  The
    loop itself checks nothing; each step is the same five ufuncs on the
    same operands and ``out`` buffers, with the callbacks and ufuncs bound
    to locals.
    """
    n = y0.z.size
    order = sorted(range(len(counts)), key=lambda j: -counts[j])
    states = [np.empty((k + 1, n + y0.p.size)) for k in counts]
    for rows in states:
        rows[0] = y0.flat()
    dt = dts[order, None]
    half = 0.5 * dt
    z, p = np.tile(y0.z, (len(order), 1)), np.tile(y0.p, (len(order), 1))
    dT, dV = H.dT, H.dV
    add, subtract, multiply = np.add, np.subtract, np.multiply
    force = dV(z)
    for name, stack, result in (("dV", z, force), ("dT", p, dT(p))):
        if np.shape(result) != stack.shape:
            raise DimensionMismatch(f"{name} maps a stack of shape {stack.shape} "
                                    f"to shape {np.shape(result)}; it must keep the shape")
    # the end-of-step kick half * dV(z) also starts the next step; the
    # temporaries live in buffers of their own, never in what dT or dV return
    kick, p_half, drift = multiply(half, force), np.empty_like(p), np.empty_like(z)
    done = 0
    for live in range(len(order), 0, -1):
        end = counts[order[live - 1]]
        if end == done:
            continue
        z, p, dt, half = z[:live], p[:live], dt[:live], half[:live]
        kick, p_half, drift = kick[:live], p_half[:live], drift[:live]
        segment = slice(done + 1, end + 1)
        if live == 1:
            # the last row writes straight into its own state array
            z_buf = states[order[0]][segment, None, :n]
            p_buf = states[order[0]][segment, None, n:]
        else:
            z_buf = np.empty((end - done, live, n))
            p_buf = np.empty((end - done, live, y0.p.size))
        for z_out, p_out in zip(z_buf, p_buf):
            subtract(p, kick, p_half)
            z = add(z, multiply(dt, dT(p_half), drift), z_out)
            multiply(half, dV(z), kick)
            p = subtract(p_half, kick, p_out)
        if live > 1:
            for row, j in enumerate(order[:live]):
                states[j][segment, :n], states[j][segment, n:] = z_buf[:, row], p_buf[:, row]
        done = end
    return states


def _midpoint(H: Observable, y0: PhasePoint, dt: float, steps: int) -> np.ndarray:
    """``steps`` implicit midpoint steps of zdot = dH/dp, pdot = -dH/dz from
    y0; the ``(steps + 1, 2n)`` state array.

    Each step iterates to 1e-12 in at most 50 sweeps, else NonConvergence.
    Each sweep takes the gradient at its midpoint as a point of views
    (:meth:`PhasePoint.replace_flat`), so H's own checks run on every sweep.
    """
    n = y0.z.size
    states = np.empty((steps + 1, n + y0.p.size))
    states[0] = y0.flat()
    for i in range(1, steps + 1):
        current = guess = states[i - 1]
        for _ in range(50):
            grad = H.gradient(y0.replace_flat(0.5 * (current + guess)))
            updated = current + dt * np.concatenate([grad[n:], -grad[:n]])
            if np.max(np.abs(updated - guess)) < 1e-12:
                break
            guess = updated
        else:
            raise NonConvergence("implicit midpoint iteration stalled")
        states[i] = updated
    return states
