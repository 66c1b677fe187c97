"""A finite exponential family as a metric manifold: the log-partition
potential, its cumulant tensors, and the dual (Legendre) picture.
"""

import numpy as np

from frobsym import (
    cumulant_tensor,
    dual_connections,
    dual_coordinates,
    gibbs_density,
    natural_from_dual,
    potential_eval,
)
from frobsym.numdiff import derivative_tensor
from frobsym.registry import bernoulli_family, categorical_family

fam = bernoulli_family()
print("== binary family, one statistic X = (0, 1) ==")
print(f"potential at 0      = {potential_eval(fam, [0.0]):.12f}   (log 2)")
print(f"potential at 1      = {potential_eval(fam, [1.0]):.12f}   (log(1+e^-1))")
print(f"weights at beta=0   = {gibbs_density(fam, [0.0])}")
print(f"weights at beta=50  = {gibbs_density(fam, [50.0])}   (saturated, still normalized)")

print("\n== cumulant tensors are exact moment sums ==")
for order in (1, 2, 3, 4):
    value = cumulant_tensor(fam, [0.0], order).ravel()
    print(f"order {order} at beta=0  = {value}")
print("(variance 1/4, zero skew, fourth cumulant -1/8 for the fair coin)")

print("\n== they agree with central differences of the potential ==")
beta = np.array([0.4])
for order, step in ((2, 1e-4), (3, 5e-3), (4, 1e-2)):
    analytic = cumulant_tensor(fam, beta, order).ravel()[0]
    fd = derivative_tensor(lambda b: potential_eval(fam, b), beta, order, step).ravel()[0]
    print(f"order {order}: analytic {analytic:+.10f}  fd {fd:+.10f}")

print("\n== dual coordinates and the Legendre transform ==")
eta, psi = dual_coordinates(fam, beta)
print(f"eta  = grad(potential) = {eta}")
print(f"psi  = <beta,eta> - potential = {psi:.10f}")
print(f"Legendre identity residual    = {abs(psi + potential_eval(fam, beta) - float(beta @ eta)):.1e}")
back = natural_from_dual(fam, eta, initial=beta + 0.7)
print(f"double transform returns beta: {back} (started from beta+0.7)")

print("\n== dual connection pair (metric -+ half skewness) ==")
rep = dual_connections(fam, [0.5])
print(f"duality residual        = {rep.duality_residual:.2e}")
print(f"growth-side curvature   = {rep.curvature_growth:.2e}")
print(f"mixture-side curvature  = {rep.curvature_mixture:.2e}")

print("\n== a three-outcome family works the same way ==")
cat = categorical_family(3)
print(f"weights at 0        = {gibbs_density(cat, [0.0, 0.0])}")
print(f"metric at (0.3,-0.2) =\n{cumulant_tensor(cat, [0.3, -0.2], 2)}")
