"""Tour of the rank-2 split algebra: zero divisors, idempotents,
conjugation, and the Hermitian pairing that seeds the bracket geometry.
"""

import numpy as np

from frobsym import (
    ParaNumber,
    ParaStructure,
    ZeroDivisor,
    idempotent_decompose,
    para_conj,
    para_hermitian_product,
    para_inverse,
    para_mul,
)
from frobsym.paracomplex import E, E_MINUS, E_PLUS, ONE

print("== arithmetic in the {1, e} basis, e^2 = +1 ==")
a, b = ParaNumber(2, 1), ParaNumber(3, 2)
print(f"(2+e)(3+2e)      = {para_mul(a, b)}")
print(f"e * e            = {para_mul(E, E)}")
print(f"(1+e)(1-e)       = {para_mul(ParaNumber(1, 1), ParaNumber(1, -1))}  <- zero divisors")

print("\n== inversion works exactly off the null cone ==")
inv = para_inverse(a)
print(f"(2+e)^-1         = {inv}")
print(f"product check    = {para_mul(a, inv)}")
try:
    para_inverse(ParaNumber(1, 1))
except ZeroDivisor as exc:
    print(f"(1+e)^-1         -> ZeroDivisor: {exc}")

print("\n== the idempotent pair splits the algebra ==")
for name, val in (("e+", E_PLUS), ("e-", E_MINUS), ("1", ONE), ("e", E)):
    c = idempotent_decompose(val)
    print(f"{name:>3} -> (plus, minus) = ({c.plus:+.1f}, {c.minus:+.1f})")
print("multiplication is componentwise there:")
ca, cb = idempotent_decompose(a), idempotent_decompose(b)
cab = idempotent_decompose(para_mul(a, b))
print(f"  ({ca.plus}*{cb.plus}, {ca.minus}*{cb.minus}) = ({cab.plus}, {cab.minus})")

print("\n== conjugation swaps the idempotents (the Peirce mirror) ==")
print(f"conj(e+)         = {para_conj(E_PLUS)}  (= e-)")
print(f"conj(2+e)        = {para_conj(a)}")

print("\n== Hermitian pairing <xi, eta> = g_jk xi^j conj(eta^k) ==")
g = np.array([[1.0, 0.2], [0.2, 2.0]])
# a split vector is a ParaNumber with its entries on the last axis
xi = ParaNumber([1.0, 0.5], [0.3, -0.2])
eta = ParaNumber([0.4, -1.0], [1.1, 0.6])
fwd = para_hermitian_product(g, xi, eta)
bwd = para_hermitian_product(g, eta, xi)
print(f"<xi, eta>        = {fwd}")
print(f"conj(<eta, xi>)  = {para_conj(bwd)}   (Hermitian symmetry)")
print(f"<xi, xi>         = {para_hermitian_product(g, xi, xi)}  (split part exactly 0)")
# a (..., n) stack pairs row by row: one value per vector
stack = ParaNumber(np.stack([xi.re, eta.re]), np.stack([xi.im, eta.im]))
rows = para_hermitian_product(g, stack, stack)
print(f"<v, v> per row   = re {rows.re}, im {rows.im}")

print("\n== product structures K with K^2 = I and balanced eigenspaces ==")
ps = ParaStructure.standard(2)
print(f"K =\n{ps.matrix}")
print(f"K^2 = I: {np.array_equal(ps.matrix @ ps.matrix, np.eye(ps.dim))}, "
      f"trace = {np.trace(ps.matrix)}")
