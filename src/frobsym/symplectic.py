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

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable

import numpy as np

from . import numdiff
from .errors import (DegenerateForm, DimensionMismatch, InvalidStructure, NonConvergence,
                     NonFiniteValue, require_antisymmetric, require_invertible, symmetric_part)

_EMPTY = np.zeros(0)
# steps per block of the integrators and of Trajectory.records
_BLOCK = 1024


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
        return _stacked_point(values[..., :nz], values[..., nz:nz + npp], values[..., nz + npp:])


def _stacked_point(z: np.ndarray, p: np.ndarray, lam: np.ndarray) -> PhasePoint:
    """A point whose blocks are ``z``, ``p`` and ``lam`` themselves: float
    arrays with the block on the last axis, which ``__post_init__`` would
    reject once stacked, so the point is assembled without it."""
    point = object.__new__(PhasePoint)
    for name, block in (("z", z), ("p", p), ("lam", lam)):
        object.__setattr__(point, name, block)
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
    stack of points; ``dT`` and ``dV`` return dT/dp and dV/dz, and map a
    ``(rows, n)`` stack row by row to a ``(rows, n)`` stack.  The leapfrog
    integrator steps each trajectory on its own ``(1, n)`` row, and a result
    of another shape is DimensionMismatch; a 1-dof row is stepped in Python
    floats with the same bits and one ``dV`` call per step.  The array that
    ``dT`` or ``dV`` is given is reused for the next step, so they must not
    write into it.  ``func`` and ``grad`` are derived from the parts, so the
    object works wherever an Observable does; the integrator calls the
    parts directly.
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

    def records(self) -> Iterator[dict]:
        """One dump record per step, {s, z, p, H}, in step order.

        A generator: it converts ``_BLOCK`` steps at a time to Python
        floats and lists, so at most one block of per-step objects is alive
        at once; ``list(traj.records())`` holds the whole dump.
        """
        for start in range(0, len(self.times), _BLOCK):
            block = slice(start, start + _BLOCK)
            yield from ({"s": t, "z": z, "p": p, "H": e}
                        for t, z, p, e in zip(self.times[block].tolist(), self.z[block].tolist(),
                                              self.p[block].tolist(),
                                              self.energies[block].tolist()))


def integrate(H: Observable, y0: PhasePoint, dt: float, steps: int) -> Trajectory:
    """Propagate y0 for ``steps`` steps of size dt with a symplectic scheme.

    The one-pair case of :func:`integrate_many`, with the same schemes and
    the same input checks.
    """
    return integrate_many(H, y0, [dt], [steps])[0]


def integrate_many(H: Observable, y0: PhasePoint, dts, steps) -> list[Trajectory]:
    """One trajectory from y0 per ``(dt, steps)`` pair, in the given order.

    The collector of :func:`integrate_blocks`, with its schemes and its
    input checks: it copies each pair's pieces into one ``(steps + 1, 2n)``
    state array, of which ``z`` and ``p`` are views, and one energy array.
    When every run fits in one block, its pieces are the trajectories.
    Each pair is stepped on its own, so its trajectory is bit-identical to
    its lone :func:`integrate` call, and a run's first ``k + 1`` states are
    those of the same pair with ``k`` steps.
    """
    dts, counts = _schedule(y0, dts, steps)
    blocks = _blocks(H, y0, dts, counts)
    if max(counts) <= _BLOCK:
        return next(blocks)
    n = y0.z.size
    states = [np.empty((k + 1, n + y0.p.size)) for k in counts]
    energies = [np.empty(k + 1) for k in counts]
    filled = [0] * len(counts)
    for pieces in blocks:
        for j, piece in enumerate(pieces):
            rows = slice(filled[j], filled[j] + len(piece.times))
            states[j][rows, :n], states[j][rows, n:] = piece.z, piece.p
            energies[j][rows] = piece.energies
            filled[j] = rows.stop
    return [Trajectory(dt * np.arange(k + 1), rows[:, :n], rows[:, n:], energy)
            for dt, k, rows, energy in zip(dts, counts, states, energies)]


def integrate_blocks(H: Observable, y0: PhasePoint, dts, steps) -> Iterator[list[Trajectory]]:
    """The trajectories of :func:`integrate_many`, ``_BLOCK`` steps at a time.

    The input is checked when this is called, and a bad input raises here
    as in :func:`integrate_many`; the steps are taken as the returned
    iterator is read.  Its item ``b`` holds one piece per ``(dt, steps)``
    pair, in the given order: the pair's steps ``b * _BLOCK + 1`` to
    ``(b + 1) * _BLOCK``, the first piece with step 0 before them, and a
    pair that has ended gives an empty piece.  Joining a pair's pieces
    gives its :func:`integrate_many` trajectory bit for bit.  A piece's
    arrays are views of a state array made for its block alone, so they
    share memory with no other piece, and stepping on never writes into
    them.

    Each pair is stepped on its own.  A :class:`SeparableHamiltonian` is
    stepped by kick-drift-kick leapfrog (Stormer-Verlet) on its split
    derivatives without building any PhasePoint: ``dT`` and ``dV`` see
    ``(1, n)`` arrays and must return that shape, else DimensionMismatch,
    and a pair makes one ``dV`` call to start, at the call, and one per
    step.  A 1-dof pair is stepped in Python floats, whose operations round
    exactly as the ufuncs do.  Any other Observable is stepped by the
    implicit midpoint rule (fixed-point iteration, tolerance 1e-12, at most
    50 sweeps), which stays symplectic and second order when H does not
    separate.  Either way a pair's energies come from one ``H.func`` call
    per block, on its states as a stacked point.

    ``dts`` and ``steps`` are equal-length, non-empty sequences, else
    DimensionMismatch; a step count that is not a non-negative integer is a
    DimensionMismatch too, and a non-finite step size a NonFiniteValue.
    """
    dts, counts = _schedule(y0, dts, steps)
    return _blocks(H, y0, dts, counts)


def _schedule(y0: PhasePoint, dts, steps) -> tuple[np.ndarray, list[int]]:
    """Checked step sizes and step counts of an integrate_many call from y0."""
    dts = np.asarray(dts, dtype=float)
    if dts.ndim != 1 or np.ndim(steps) != 1 or dts.size == 0 or len(steps) != dts.size:
        raise DimensionMismatch("dts and steps must be equal-length, non-empty sequences")
    if not np.all(np.isfinite(dts)):
        raise NonFiniteValue(f"step sizes must be finite, got {dts.tolist()}")
    for n in steps:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise DimensionMismatch(f"step counts must be non-negative integers, got {n!r}")
    if y0.lam.size:
        raise DimensionMismatch("time stepping expects a plain (z, p) point")
    return dts, [int(n) for n in steps]


def _blocks(H: Observable, y0: PhasePoint, dts: np.ndarray,
            counts: list[int]) -> Iterator[list[Trajectory]]:
    """The block iterator of :func:`integrate_blocks` on a checked schedule."""
    scheme = _leapfrog if isinstance(H, SeparableHamiltonian) else _midpoint
    runs = [scheme(H, y0, dt, k) for dt, k in zip(dts, counts)]
    return ([_empty_piece(y0, dt) if piece is None else piece for dt, piece in zip(dts, pieces)]
            for pieces in zip_longest(*runs))


def _piece(dt: float, first: int, z: np.ndarray, p: np.ndarray,
           energies: np.ndarray) -> Trajectory:
    """The piece of a run with step size dt whose states begin at step ``first``."""
    return Trajectory(dt * np.arange(first, first + len(energies)), z, p, energies)


def _empty_piece(y0: PhasePoint, dt: float) -> Trajectory:
    """The piece of a run from y0 that has ended."""
    return _piece(dt, 0, np.empty((0, y0.z.size)), np.empty((0, y0.p.size)), np.empty(0))


def _leapfrog(H: SeparableHamiltonian, y0: PhasePoint, dt: float,
              steps: int) -> Iterator[Trajectory]:
    """``steps`` kick-drift-kick steps from y0, as the pieces of one pair of
    :func:`integrate_blocks`.

    ``dT`` and ``dV`` are called once on y0's ``(1, n)`` rows here, before
    any step, and a result whose shape is not its input's is
    DimensionMismatch; the steps are then taken as the returned generator
    is read, by :func:`_leapfrog_steps`.
    """
    z, p = y0.z[None], y0.p[None]
    force = H.dV(z)
    for name, stack, result in (("dV", z, force), ("dT", p, H.dT(p))):
        if np.shape(result) != stack.shape:
            raise DimensionMismatch(f"{name} maps a stack of shape {stack.shape} "
                                    f"to shape {np.shape(result)}; it must keep the shape")
    return _leapfrog_steps(H, y0, dt, steps, force)


def _leapfrog_steps(H: SeparableHamiltonian, y0: PhasePoint, dt: float, steps: int,
                    force: np.ndarray) -> Iterator[Trajectory]:
    """The steps of :func:`_leapfrog` from y0, on whose ``(1, n)`` rows dV
    is ``force``.

    Each block's states go into a fresh ``(rows, 2, 1, n)`` array, a step's
    ``z`` row, then its ``p`` row; the block's piece is a view of it, and
    one ``H.func`` call on it gives the piece's energies.  With n > 1, each step is
    the same five ufuncs on ``(1, n)`` operands, ``dt`` and ``dt / 2``
    among them at that full shape, written into ``out`` views of the
    block's rows, taken one step at a time.  With n = 1, :func:`_lone_steps`
    takes the steps in Python floats, since on one value the five ufunc
    calls cost far more than the arithmetic they do.
    """
    n = y0.z.size
    z, p = y0.z[None], y0.p[None]
    dt_row = np.full((1, n), dt)
    half = 0.5 * dt_row
    dT, dV = H.dT, H.dV
    add, subtract, multiply = np.add, np.subtract, np.multiply
    # the end-of-step kick half * dV(z) also starts the next step; the
    # temporaries live in arrays of their own, never in what dT or dV return
    kick, p_half, drift = multiply(half, force), np.empty((1, n)), np.empty((1, n))
    for block in range(0, max(steps, 1), _BLOCK):
        first = block + (block > 0)
        states = np.empty((min(block + _BLOCK, steps) + 1 - first, 2, 1, n))
        out = states
        if block == 0:
            states[0, 0], states[0, 1] = z, p  # step 0
            out = states[1:]
        if n == 1:
            _lone_steps(dT, dV, out, z, p, kick, dt_row, half, p_half)
            z, p = states[-1, 0], states[-1, 1]
        else:
            for z_out, p_out in zip(out[:, 0], out[:, 1]):
                subtract(p, kick, p_half)
                z = add(z, multiply(dt_row, dT(p_half), drift), z_out)
                multiply(half, dV(z), kick)
                p = subtract(p_half, kick, p_out)
        zs, ps = states[:, 0, 0], states[:, 1, 0]
        yield _piece(dt, first, zs, ps,
                     np.asarray(H.func(_stacked_point(zs, ps, zs[..., :0])), dtype=float))


def _lone_steps(dT: Callable, dV: Callable, out: np.ndarray, z: np.ndarray, p: np.ndarray,
                kick: np.ndarray, dt: np.ndarray, half: np.ndarray, p_half: np.ndarray) -> None:
    """The steps of :func:`_leapfrog_steps` on one value, in Python floats,
    into the ``(steps, 2, 1, 1)`` rows ``out`` of its block; ``z``, ``p``,
    ``kick``, ``dt`` and ``half`` are ``(1, 1)``.

    Each step calls ``dT`` on the stepper's ``p_half`` and ``dV`` on an
    array of this function's own, both ``(1, 1)`` and holding the float
    just computed, and reads the result's first entry through
    ``np.asarray``: an integer or float32 result converts as the ufunc's
    cast would, and a complex one raises TypeError when it is written.
    Float ``+``, ``-`` and ``*`` round as the float64 ufuncs do, each
    operation on its own, so every state is the ufunc loop's bit for bit.
    The last kick is written back into ``kick``.
    """
    z_arg, asarray = np.empty((1, 1)), np.asarray
    states, p_half_data, z_arg_data = (a.reshape(-1).data for a in (out, p_half, z_arg))
    z_f, p_f, kick_f, dt_f, half_f = z.item(0), p.item(0), kick.item(0), dt.item(0), half.item(0)
    for i in range(0, len(states), 2):
        p_half_data[0] = p_mid = p_f - kick_f
        states[i] = z_arg_data[0] = z_f = z_f + dt_f * asarray(dT(p_half)).item(0)
        kick_f = half_f * asarray(dV(z_arg)).item(0)
        states[i + 1] = p_f = p_mid - kick_f
    kick[0, 0] = kick_f


def _midpoint(H: Observable, y0: PhasePoint, dt: float, steps: int) -> Iterator[Trajectory]:
    """``steps`` implicit midpoint steps of zdot = dH/dp, pdot = -dH/dz from
    y0, as the pieces of one pair of :func:`integrate_blocks`.

    Each step iterates to 1e-12 in at most 50 sweeps, else NonConvergence.
    Each sweep takes the gradient at its midpoint as a point of views
    (:meth:`PhasePoint.replace_flat`), so H's own checks run on every sweep.
    """
    n = y0.z.size
    current = y0.flat()
    for block in range(0, max(steps, 1), _BLOCK):
        first = block + (block > 0)
        states = np.empty((min(block + _BLOCK, steps) + 1 - first, current.size))
        rows = iter(states)
        if block == 0:
            next(rows)[...] = current  # step 0
        for row in rows:
            guess = current
            for _ in range(50):
                grad = H.gradient(y0.replace_flat(0.5 * (current + guess)))
                updated = current + dt * np.concatenate([grad[n:], -grad[:n]])
                if np.max(np.abs(updated - guess)) < 1e-12:
                    break
                guess = updated
            else:
                raise NonConvergence("implicit midpoint iteration stalled")
            row[...] = current = updated
        yield _piece(dt, first, states[:, :n], states[:, n:],
                     np.asarray(H.func(y0.replace_flat(states)), dtype=float))
