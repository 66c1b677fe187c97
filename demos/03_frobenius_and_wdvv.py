"""Frobenius algebras from potentials, the associativity PDE residual,
and the idempotent structure of the rank-2 split algebra.
"""

import numpy as np

from frobsym import (
    FrobeniusAlgebra,
    MetricField,
    algebra_from_potential,
    find_idempotents_rank2,
    frobenius_axioms,
    novikov_residuals,
    wdvv_residual,
)
from frobsym.registry import (
    antidiagonal_pairing,
    cubic_potential3,
    paracomplex_structure_constants,
    perturbed_cubic_potential3,
)

print("== the associativity-exact cubic (1/2)(x1^2 x3 + x1 x2^2) ==")
pot = cubic_potential3()
g = antidiagonal_pairing()
alg = algebra_from_potential(pot.third_tensor(np.zeros(3)), g)
report = frobenius_axioms(alg)
print(f"unit vector          = {report.unit}  (the first coordinate field)")
print(f"axiom residuals      = comm {report.commutativity:.1e}, "
      f"assoc {report.associativity:.1e}, invariance {report.pairing_invariance:.1e}")
print(f"residual at generic point = {wdvv_residual(pot, g, [0.7, -0.3, 1.2]):.1e}")

print("\n== a quartic perturbation obstructs associativity ==")
bad = perturbed_cubic_potential3()
r = wdvv_residual(bad, g, [0.0, 1.0, 1.0])
print(f"residual at (0,1,1)  = {r:.4f}   (= 16 c^2 x3^2 with c = 0.1)")
alg_bad = algebra_from_potential(bad.third_tensor(np.array([0.0, 1.0, 1.0])), g)
print(f"associativity residual of the induced algebra = "
      f"{frobenius_axioms(alg_bad).associativity:.4f}")

print("\n== the split algebra as a Frobenius algebra ==")
alg_split = FrobeniusAlgebra(*paracomplex_structure_constants())
rep = frobenius_axioms(alg_split)
print(f"all residuals        = {rep.worst_identity_residual():.1e}, unit = {rep.unit}")
print("idempotents (a o a = a):")
for v in find_idempotents_rank2(alg_split):
    print(f"  {v}")

print("\n== first-order bracket identities on upper-index constants ==")
b = np.zeros((2, 2, 2))
b[0, 0, 0] = b[1, 1, 1] = 0.5
metric = MetricField(2, lambda u: u[..., None] * np.eye(2))
nov = novikov_residuals(b, metric, [1.3, 0.7])
print(f"left symmetry {nov.left_symmetry:.1e}, right identity {nov.right_identity:.1e}, "
      f"flux symmetrization {nov.symmetrization:.1e}")
