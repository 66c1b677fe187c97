"""Symplectic side: canonical and split-coordinate 2-forms, the
Lorentz-signature Legendre transform, Hamiltonian vector fields, and the
conservative integrator: leapfrog with its dt^2 drift law on a separable H,
implicit midpoint on a generic one.
"""

import numpy as np

from frobsym import (
    LorentzLagrangian,
    Observable,
    PhasePoint,
    PotentialField,
    SeparableHamiltonian,
    canonical_two_form,
    closedness_residual,
    dolbeault_form,
    hamiltonian_vector_field,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    paracomplex_two_form,
    realified_dolbeault_two_form,
)

print("== canonical coefficients and pairing ==")
form = canonical_two_form(1)
print(f"J = {form.matrix([0, 0]).tolist()}, pairing((1,0),(0,1)) = {form.pair([0,0],[1,0],[0,1])}")

print("\n== realified split form: [[0, G], [-G, 0]] ==")
split = paracomplex_two_form(np.array([[1.0]]), 1)
print(f"m=1, g=1: {split.matrix([0.0, 0.0]).tolist()}  (+dx^dy)")
phi = PotentialField(2, lambda w: (w[0] * w[1]) ** 2)
print(f"mixed second partial of (z+ z-)^2 at (3, 5) = {dolbeault_form(phi, [3.0, 5.0]).item():.3f}")
closed = closedness_residual(realified_dolbeault_two_form(phi), [[0.3, 0.2]])
print(f"potential-derived form closedness residual  = {closed:.1e}")

print("\n== Lorentz-signature Legendre transform ==")
lag = LorentzLagrangian(signature=[1.0, 1.0, 1.0, -1.0])
for xi in ([1.0, 0, 0, 0], [0.0, 0, 0, 1.0]):
    p, f, h = legendre_hamiltonian(lag, np.array(xi), np.zeros(4))
    print(f"velocity {xi} -> momentum {p}, energy {h:+.1f}")

print("\n== oscillator flow and energy conservation ==")
half_square = lambda x: 0.5 * np.sum(np.square(x), axis=-1)
H = SeparableHamiltonian(half_square, lambda p: p, half_square, lambda z: z)
y0 = PhasePoint([1.0], [0.0])
print(f"flow vector at (1, 0) = {hamiltonian_vector_field(H, form, y0)}  (xdot=p, pdot=-x)")
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
