"""Symplectic side: canonical, split-coordinate and tangent-bundle 2-forms, the
Lorentz-signature Legendre transform, and the conservative integrators:
leapfrog with its dt^2 drift law on a separable H, implicit midpoint on a
generic one.
"""

import numpy as np

from frobsym import (
    LorentzLagrangian,
    Observable,
    PhasePoint,
    SeparableHamiltonian,
    closedness_residual,
    hessian_log_metric,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    paracomplex_two_form,
)
from frobsym.registry import orthant_potential, round_sphere_metric

print("== canonical coefficients ==")
form = paracomplex_two_form(np.eye(1), 1)  # J = [[0, I], [-I, 0]]
print(f"J = {form.matrix([0, 0]).tolist()}")

print("\n== realified split form: [[0, G], [-G, 0]] ==")
split = paracomplex_two_form(np.array([[1.0]]), 1)
print(f"m=1, g=1: {split.matrix([0.0, 0.0]).tolist()}  (+dx^dy)")

print("\n== omega = g_ab dx^a ^ dy^b on TM is closed iff g is Hessian ==")
x = np.array([[0.8, 1.3], [1.1, 0.6]])
points = np.concatenate([x, np.zeros_like(x)], axis=-1)  # the points (x, 0)
for name, metric in (("orthant2", hessian_log_metric(orthant_potential(2))),
                     ("round_sphere2", round_sphere_metric())):
    omega = paracomplex_two_form(lambda pt: metric.value(pt[..., :2]), 2)
    closed = closedness_residual(omega, points) / max(1.0, np.max(np.abs(metric.value(x))))
    print(f"{name:>13}: closedness residual {closed:.2e}")

print("\n== Lorentz-signature Legendre transform ==")
lag = LorentzLagrangian(signature=[1.0, 1.0, 1.0, -1.0])
for xi in ([1.0, 0, 0, 0], [0.0, 0, 0, 1.0]):
    p, h = legendre_hamiltonian(lag, np.array(xi))
    print(f"velocity {xi} -> momentum {p}, energy {h:+.1f}")

print("\n== oscillator flow and energy conservation ==")
half_square = lambda x: 0.5 * np.sum(np.square(x), axis=-1)
H = SeparableHamiltonian(half_square, lambda p: p, half_square, lambda z: z)
y0 = PhasePoint([1.0], [0.0])
flow = np.linalg.solve(form.matrix(y0.flat()).T, H.gradient(y0))
print(f"flow vector at (1, 0), from J(X, .) = dH: {flow}  (xdot=p, pdot=-x)")
traj = integrate(H, y0, 1e-3, 10_000)
print(f"leapfrog energy drift over 10^4 steps at dt=1e-3: {traj.max_energy_drift:.2e}")
print(f"first dump record: {traj.records()[0]}")

print("\nleapfrog drift scales as dt^2 (fixed total time, one stacked run):")
dts = (1e-3, 5e-4, 2.5e-4)
for dt, traj in zip(dts, integrate_many(H, y0, dts, [int(round(10.0 / dt)) for dt in dts])):
    print(f"  dt = {dt:.2e}  drift = {traj.max_energy_drift:.3e}")

# the same energy as a plain Observable does not separate as far as the
# integrator knows, so it takes the implicit midpoint rule
generic = Observable(H.func, H.grad)
drift = integrate(generic, y0, 1e-3, 1000).max_energy_drift
print(f"implicit midpoint drift over 10^3 steps at dt=1e-3: {drift:.2e}")
