"""Tour of the rank-2 split algebra: zero divisors, inversion, idempotents
and conjugation.
"""

from frobsym import (
    ParaNumber,
    ZeroDivisor,
    idempotent_decompose,
    para_conj,
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
