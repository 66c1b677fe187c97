"""Poisson brackets in every variant, and the periodic-lattice operator
for the hydrodynamic-type bracket with its Jacobi refinement study.
"""

import numpy as np

from frobsym import (
    LatticeBracket,
    Observable,
    PhasePoint,
    bracket_property_residuals,
    canonical_bracket,
    extended_bracket,
    lattice_hydro_bracket,
    lattice_jacobi_residual,
    local_lie_bracket,
    so3_constants,
)
from frobsym.registry import cyclic_nonjacobi_constants, linear_diagonal_lattice

print("== canonical bracket, source sign convention {z, p} = -1 ==")
y = PhasePoint([0.3], [0.2])
# an observable maps a point, or a stack of points, to one value per point
z_obs = Observable(lambda y: y.z[..., 0])
p_obs = Observable(lambda y: y.p[..., 0])
print(f"{{z, p}} = {canonical_bracket(z_obs, p_obs, y):+.3f}")
H = Observable(lambda y: 0.5 * np.sum(y.p ** 2 + y.z ** 2, axis=-1))
print(f"{{H, z}} at (1,0) = {canonical_bracket(H, z_obs, PhasePoint([1.0],[0.0])):+.3f}"
      "   (equals zdot = p)")

print("\n== spin-extended bracket with angular-momentum constants ==")
ys = PhasePoint([0.0], [0.0], [0.4, -1.1, 0.8])
spins = [Observable(lambda y, i=i: y.lam[..., i]) for i in range(3)]
print(f"{{L1, L2}} = {extended_bracket(spins[0], spins[1], ys, so3_constants()):+.3f}"
      f"   (-L3 = {-ys.lam[2]:+.3f})")
res = bracket_property_residuals(
    lambda a, b, yy: extended_bracket(a, b, yy, so3_constants()),
    tuple(spins), [ys])
print(f"antisymmetry/chain/Leibniz/Jacobi residuals: {res}")
broken = bracket_property_residuals(
    lambda a, b, yy: extended_bracket(a, b, yy, cyclic_nonjacobi_constants()),
    tuple(spins), [ys])
print(f"non-Lie constants are caught: Jacobi residual = {broken.jacobi:.3f}")

print("\n== first-order local Lie bracket on a periodic grid ==")
n, h = 64, 2 * np.pi / 64
x = h * np.arange(n)
out = local_lie_bracket(np.ones((1, 1, 1)), np.ones((1, n)), np.sin(x)[None, :], h)
print(f"[1, sin] ~ cos: max gap to the stencil derivative = "
      f"{np.max(np.abs(out[0] - np.cos(x))):.2e} (pure stencil truncation)")

print("\n== lattice operator g D + b (Du) and its Jacobi defect ==")
print("(applied matrix-free, so the 4096-site grid costs O(N))")
metric, metric_deriv, b = linear_diagonal_lattice(1)
previous = None
for sites in (16, 64, 256, 1024, 4096):
    lb = LatticeBracket(sites, 1, metric, b, spacing=2 * np.pi / sites,
                        metric_deriv=metric_deriv)
    u = (2.0 + np.sin(lb.spacing * np.arange(sites)))[None, :]
    jac = lattice_jacobi_residual(lb, u, rng=np.random.default_rng(12))
    line = f"  N = {sites:4d}: relative Jacobi defect = {jac:.3e}"
    if previous is not None:
        line += f",  observed order log4(ratio) = {np.log(previous / jac) / np.log(4):.3f}"
    print(line)
    previous = jac

const = LatticeBracket(16, 1, lambda u: np.full(u.shape[:-1] + (1, 1), 2.0),
                       np.zeros((1, 1, 1)), spacing=2 * np.pi / 16)
skew = lattice_hydro_bracket(const, np.full((1, 16), 1.0))
print(f"constant coefficients: ||B + B^T||_max = {skew} (exactly skew)")
