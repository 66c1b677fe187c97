"""Hessian geometry of the positive orthant: the log-Hessian metric is
flat, the tangent multiplication has the base point as unit, and linear
automorphisms leave the log-potential invariant.
"""

import numpy as np

from frobsym import (
    automorphism_invariance_residual,
    cone_multiply,
    curvature_flatness,
    hessian_log_metric,
)
from frobsym.registry import orthant_potential

phi = orthant_potential(2)
metric = hessian_log_metric(phi)
points = [[1.0, 2.0], [0.5, 1.5], [2.0, 0.7]]

print("== log-Hessian metric of phi = 1/(x1 x2) ==")
print(f"g(1, 2) =\n{metric.value([1.0, 2.0])}")
eigs = [np.min(np.linalg.eigvalsh(metric.value(x))) for x in points]
print(f"smallest eigenvalue over sample points = {min(eigs):.3f} (> 0)")
curvature = curvature_flatness(metric, points)
print(f"curvature residual = {curvature:.1e}, flat = {curvature <= 1e-6}")

print("\n== tangent multiplication a o b = -Gamma(a, b) ==")
x0 = np.array([1.0, 2.0])
a, b = np.array([0.3, -0.7]), np.array([1.1, 0.2])
print(f"x0 o a = {cone_multiply(phi, x0, x0, a)}   (the base point is the unit)")
ab = cone_multiply(phi, x0, a, b)
print(f"a o b  = {ab},  b o a = {cone_multiply(phi, x0, b, a)}")

print("\n== automorphism invariance of log phi ==")
diag = np.diag([2.0, 3.0])
print(f"diagonal scaling residual = "
      f"{automorphism_invariance_residual(phi, diag, points):.1e}")
shear = np.array([[1.0, 1.0], [0.0, 1.0]])
print(f"shear residual at (1,1)   = "
      f"{automorphism_invariance_residual(phi, shear, [[1.0, 1.0]]):.3f}  (= log 2, not an automorphism)")

