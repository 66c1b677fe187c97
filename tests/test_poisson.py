"""Bracket variants and the lattice hydrodynamic operator.

The canonical bracket follows the source convention
{A,B} = dA/dp dB/dz - dB/dp dA/dz, which makes {z, p} = -1; combined with
Qdot = {H, Q} the flow is the usual one.  Spin brackets use
{L_i, L_j} = -L_k gamma^k_ij; for the angular-momentum constants this
makes {L_1, L_2} = -L_3.
"""

import tracemalloc

import numpy as np
import pytest

from frobsym import (
    DimensionMismatch,
    FrobsymError,
    InvalidStructure,
    LatticeBracket,
    Observable,
    PhasePoint,
    StructureConstants,
    bracket_property_residuals,
    canonical_bracket,
    extended_bracket,
    integrate,
    lattice_hydro_bracket,
    lattice_jacobi_residual,
    local_lie_bracket,
    so3_constants,
)
from frobsym import numdiff
from frobsym.poisson import (BracketResiduals, DEFAULT_NESTED_STEP, _ddx, _product_grad,
                             _site_coefficients, _sin_grad, _square_grad,
                             periodic_derivative_matrix, smooth_test_profile)
from frobsym.registry import (LATTICE_COEFFICIENTS, SPIN_CONSTANTS, constant_lattice,
                              cyclic_nonjacobi_constants, linear_diagonal_lattice)


def coordinate(i):
    return Observable(lambda y, i=i: y.z[..., i])


def momentum(i):
    return Observable(lambda y, i=i: y.p[..., i])


def spin(i):
    return Observable(lambda y, i=i: y.lam[..., i])


def point_count(y):
    """How many points ``y`` carries: one, or the rows of a stacked point."""
    return len(np.atleast_2d(y.z))


def polynomial_observables():
    zero = lambda y: np.zeros_like(y.z[..., 0])
    A = Observable(lambda y: y.z[..., 0] ** 2 + y.p[..., 1] * y.z[..., 1],
                   grad=lambda y: np.stack([2 * y.z[..., 0], y.p[..., 1], zero(y), y.z[..., 1]],
                                           axis=-1))
    B = Observable(lambda y: y.p[..., 0] * y.z[..., 0] + y.p[..., 1] ** 2,
                   grad=lambda y: np.stack([y.p[..., 0], zero(y), y.z[..., 0], 2 * y.p[..., 1]],
                                           axis=-1))
    C = Observable(lambda y: y.z[..., 1] * y.p[..., 0],
                   grad=lambda y: np.stack([zero(y), y.p[..., 0], y.z[..., 1], zero(y)], axis=-1))
    return A, B, C


class TestCanonicalBracket:
    def test_position_momentum_pair(self):
        y = PhasePoint([0.3, 0.7], [0.2, -0.4])
        assert canonical_bracket(coordinate(0), momentum(0), y) == pytest.approx(-1.0, abs=1e-9)

    def test_self_bracket_vanishes(self):
        A = Observable(lambda y: y.z[..., 0] * y.p[..., 0])
        y = PhasePoint([1.2], [0.8])
        assert canonical_bracket(A, A, y) == pytest.approx(0.0, abs=1e-12)

    def test_positions_commute(self):
        y = PhasePoint([0.3, 0.7], [0.2, -0.4])
        assert canonical_bracket(coordinate(0), coordinate(1), y) == 0.0

    def test_property_residuals_polynomial(self):
        pts = [PhasePoint([0.3, 0.7], [0.2, -0.4]),
               PhasePoint([1.1, -0.5], [0.6, 0.9])]
        res = bracket_property_residuals(canonical_bracket,
                                         polynomial_observables(), pts)
        assert res.worst() < 1e-6

    def test_antisymmetric_and_bilinear_with_analytic_gradients(self):
        rng = np.random.default_rng(23)
        A, B, C = polynomial_observables()
        for _ in range(20):
            y = PhasePoint(rng.normal(size=2), rng.normal(size=2))
            a, b = rng.normal(size=2)
            combo = Observable(lambda yy, a=a, b=b: a * A.func(yy) + b * B.func(yy),
                               grad=lambda yy, a=a, b=b: a * A.gradient(yy) + b * B.gradient(yy))
            lhs = canonical_bracket(combo, C, y)
            rhs = a * canonical_bracket(A, C, y) + b * canonical_bracket(B, C, y)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-10 * scale
            assert abs(canonical_bracket(A, B, y)
                       + canonical_bracket(B, A, y)) <= 1e-10 * scale


class TestExtendedBracket:
    def test_angular_momentum_pair(self):
        y = PhasePoint([0.0], [0.0], [0.4, -1.1, 0.8])
        got = extended_bracket(spin(0), spin(1), y, so3_constants())
        assert got == pytest.approx(-0.8, abs=1e-9)

    def test_zero_constants_reduce_to_canonical(self):
        gamma = StructureConstants(np.zeros((1, 1, 1)))
        y = PhasePoint([0.5], [0.3], [2.0])
        A = Observable(lambda y: y.z[..., 0] * y.lam[..., 0])
        B = Observable(lambda y: y.p[..., 0] + y.lam[..., 0] ** 2)
        assert extended_bracket(A, B, y, gamma) == pytest.approx(
            canonical_bracket(A, B, y), abs=1e-12)

    def test_squared_length_is_central(self):
        y = PhasePoint([0.0], [0.0], [0.4, -1.1, 0.8])
        casimir = Observable(lambda y: np.sum(y.lam ** 2, axis=-1))
        for j in range(3):
            got = extended_bracket(casimir, spin(j), y, so3_constants())
            assert got == pytest.approx(0.0, abs=1e-9)

    def test_spin_block_mismatch(self):
        y = PhasePoint([0.0], [0.0], [1.0])
        with pytest.raises(DimensionMismatch):
            extended_bracket(spin(0), spin(0), y, so3_constants())

    def test_jacobi_clean_for_angular_momentum(self):
        pts = [PhasePoint([0.3], [0.2], [0.4, -1.1, 0.8]),
               PhasePoint([-0.7], [1.0], [0.3, 0.5, -0.2])]
        A = Observable(lambda y: y.lam[..., 0] * y.lam[..., 1] + y.z[..., 0] * y.p[..., 0])
        B = Observable(lambda y: y.lam[..., 1] ** 2 + y.p[..., 0])
        C = Observable(lambda y: y.lam[..., 2] * y.z[..., 0])
        bracket = lambda f, g, y: extended_bracket(f, g, y, so3_constants())
        res = bracket_property_residuals(bracket, (A, B, C), pts)
        assert res.worst() < 1e-6

    def test_non_lie_constants_detected(self):
        """The cyclic-output constants fail the structure Jacobi identity
        with defect L_1 + L_2 + L_3 on the basis spins."""
        gamma = cyclic_nonjacobi_constants()
        y = PhasePoint([0.0], [0.0], [0.4, -1.1, 0.8])
        bracket = lambda f, g, yy: extended_bracket(f, g, yy, gamma)
        res = bracket_property_residuals(bracket, (spin(0), spin(1), spin(2)), [y])
        assert res.jacobi == pytest.approx(abs(0.4 - 1.1 + 0.8), abs=1e-6)
        assert res.jacobi > 1e-3


def mixed_observable(rng, n, spins, analytic):
    """sin(z.wz) (p.wp) + (lam.wl)^2 + z_0 p_-1, with or without its gradient.

    Both map stacked points, and give each row the doubles they give that
    point alone: vecdot rounds as the one-point dot, and np.square as the
    array power, where the scalar ``**`` can differ by an ulp.
    """
    wz, wp, wl = rng.normal(size=n), rng.normal(size=n), rng.normal(size=spins)

    def func(y):
        return (np.sin(np.vecdot(y.z, wz)) * np.vecdot(y.p, wp) + np.square(np.vecdot(y.lam, wl))
                + y.z[..., 0] * y.p[..., -1])

    def grad(y):
        zw, pw = np.vecdot(y.z, wz)[..., None], np.vecdot(y.p, wp)[..., None]
        dz = np.cos(zw) * pw * wz
        dz[..., 0] += y.p[..., -1]
        dp = np.sin(zw) * wp
        dp[..., -1] += y.z[..., 0]
        return np.concatenate([dz, dp, 2.0 * np.vecdot(y.lam, wl)[..., None] * wl], axis=-1)

    return Observable(func, grad if analytic else None)


def full_gradient_bracket(A, B, y, constants=None):
    """ap.bz - bp.az - lam_k gamma^k_ij a_i b_j from full gradients."""
    n = y.z.size
    a, b = A.gradient(y), B.gradient(y)
    value = float(a[n:2 * n] @ b[:n] - b[n:2 * n] @ a[:n])
    if constants is None:
        return value
    return value + -float(np.einsum("k,kij,i,j->", y.lam, constants.gamma,
                                    a[2 * n:], b[2 * n:]))


class TestBracketPartials:
    """Each bracket differentiates each operand once and equals the
    full-gradient formula bit for bit."""

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("spins", [0, 3])
    def test_brackets_equal_full_gradient_formula(self, analytic, spins):
        rng = np.random.default_rng(8 + spins)
        for n in (1, 2, 3):
            A = mixed_observable(rng, n, spins, analytic)
            B = mixed_observable(rng, n, spins, analytic)
            for _ in range(4):
                y = PhasePoint(rng.normal(0.5, 2.0, n), rng.normal(size=n),
                               rng.normal(size=spins))
                assert canonical_bracket(A, B, y) == full_gradient_bracket(A, B, y)
                if spins:
                    for gamma in (so3_constants(), cyclic_nonjacobi_constants()):
                        assert (extended_bracket(A, B, y, gamma)
                                == full_gradient_bracket(A, B, y, gamma))

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("spins", [None, "spin_zero1", "so3", "cyclic_nonjacobi"])
    def test_stacked_brackets_equal_the_point_loop(self, spins, analytic):
        constants = None if spins is None else SPIN_CONSTANTS[spins]()
        s = 0 if constants is None else constants.dim
        rng = np.random.default_rng(30 + s)
        for n in (1, 2, 3):
            A, B = (mixed_observable(rng, n, s, analytic) for _ in range(2))
            y = PhasePoint(np.zeros(n), np.zeros(n), np.zeros(s))
            brackets = [canonical_bracket]
            if constants is not None:
                brackets.append(lambda f, g, q: extended_bracket(f, g, q, constants))
            for shape in ((1,), (5,), (2, 3)):
                flat = rng.normal(0.3, 1.5, shape + (2 * n + s,))
                for bracket in brackets:
                    rows = [bracket(A, B, y.replace_flat(row))
                            for row in flat.reshape(-1, 2 * n + s)]
                    assert all(type(value) is float for value in rows)
                    assert np.array_equal(bracket(A, B, y.replace_flat(flat)),
                                          np.reshape(rows, shape))

    def test_each_operand_is_evaluated_two_times_per_coordinate(self):
        calls = {"A": 0, "B": 0}

        def counted(name, f):
            def func(y):
                calls[name] += point_count(y)
                return f(y)
            return Observable(func)

        A = counted("A", lambda y: y.z[..., 0] * y.lam[..., 0] + y.p[..., 1])
        B = counted("B", lambda y: y.p[..., 0] * y.lam[..., 2] ** 2)
        y = PhasePoint([0.3, -0.2], [1.1, 0.4], [0.4, -1.1, 0.8])
        extended_bracket(A, B, y, so3_constants())
        assert calls == {"A": 2 * (2 + 2 + 3), "B": 2 * (2 + 2 + 3)}
        calls.update(A=0, B=0)
        # the canonical bracket differences the spins too, and reads only (z, p)
        canonical_bracket(A, B, y)
        assert calls == {"A": 2 * (2 + 2 + 3), "B": 2 * (2 + 2 + 3)}


def unshared_property_residuals(bracket, observables, points):
    """The property loop, one probe point at a time: the oracle of the
    stacked suite.  Both operands of each outer Jacobi bracket are
    differenced at DEFAULT_NESTED_STEP, whatever their ``grad``, one
    shifted point at a time."""
    A, B, C = observables
    anti = chain = leib = jac = 0.0
    for y in points:
        ab = bracket(A, B, y)
        anti = max(anti, abs(ab + bracket(B, A, y)))
        fa = Observable(lambda q: A.func(q) ** 2, _square_grad(A))
        gb = Observable(lambda q: np.sin(B.func(q)), _sin_grad(B))
        chain = max(chain, abs(bracket(fa, gb, y) - 2.0 * A(y) * np.cos(B(y)) * ab))
        bc_prod = Observable(lambda q: B.func(q) * C.func(q), _product_grad(B, C))
        leib = max(leib, abs(bracket(A, bc_prod, y) - B(y) * bracket(A, C, y) - C(y) * ab))

        def coarse(func):
            def grad(q):
                return numdiff.gradient(lambda s: np.array([func(q.replace_flat(row)) for row in s]),
                                        q.flat(), h=DEFAULT_NESTED_STEP)

            return Observable(func, grad)

        def nested(first, second):
            return coarse(lambda q: bracket(first, second, q))

        triple = (bracket(coarse(A.func), nested(B, C), y)
                  + bracket(coarse(B.func), nested(C, A), y)
                  + bracket(coarse(C.func), nested(A, B), y))
        jac = max(jac, abs(triple))
    return BracketResiduals(anti, chain, leib, jac)


def spin_bracket(constants):
    return lambda f, g, y: extended_bracket(f, g, y, constants)


def lopsided_bracket(f, g, y):
    """Not a Poisson bracket: full gradients contracted against a reversal."""
    return np.vecdot(f.gradient(y), g.gradient(y)[..., ::-1])


def counted_operands(calls):
    """The three FD operands of the battery's bracket suite, counting calls."""
    def counted(name, f):
        def func(y):
            calls[name] += 1
            return f(y)
        return Observable(func)

    return (counted("A", lambda y: y.z[..., 0] ** 2 + y.p[..., 0] * y.z[..., 1 % y.z.shape[-1]]),
            counted("B", lambda y: y.p[..., 0] * y.z[..., 0] + np.sum(y.lam ** 2, axis=-1)),
            counted("C", lambda y: y.z[..., 1 % y.z.shape[-1]] * y.p[..., -1] + np.sum(y.lam, axis=-1)))


class TestSharedGradients:
    """The suite runs all probe points as one stacked point, and each bracket
    shares one full gradient per operand between its canonical and spin
    parts; the residuals stay bit for bit those of the per-point loop."""

    BRACKETS = {"canonical": canonical_bracket, "so3": spin_bracket(so3_constants()),
                "cyclic_nonjacobi": spin_bracket(cyclic_nonjacobi_constants()),
                "lopsided": lopsided_bracket}

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("name, spins", [
        ("canonical", 0), ("canonical", 3), ("so3", 3), ("cyclic_nonjacobi", 3),
        ("lopsided", 0), ("lopsided", 3)])
    def test_residuals_equal_unshared_loop(self, analytic, name, spins):
        bracket = self.BRACKETS[name]
        rng = np.random.default_rng(40 + spins)
        for n in (1, 2, 3):
            ops = tuple(mixed_observable(rng, n, spins, analytic) for _ in range(3))
            pts = [PhasePoint(rng.normal(0.5, 1.0, n), rng.normal(size=n), rng.normal(size=spins))
                   for _ in range(2)]
            assert (bracket_property_residuals(bracket, ops, pts)
                    == unshared_property_residuals(bracket, ops, pts))

    def test_mixed_analytic_and_fd_operands(self):
        rng = np.random.default_rng(5)
        ops = (mixed_observable(rng, 2, 3, True), mixed_observable(rng, 2, 3, False),
               mixed_observable(rng, 2, 3, True))
        pts = [PhasePoint([0.3, -0.2], [1.1, 0.4], [0.4, -1.1, 0.8])]
        bracket = spin_bracket(so3_constants())
        assert (bracket_property_residuals(bracket, ops, pts)
                == unshared_property_residuals(bracket, ops, pts))

    @pytest.mark.parametrize("count", [1, 4])
    def test_each_operand_is_called_a_fixed_number_of_times(self, count):
        # one call for the values, and one per bracket that takes the operand
        # or a composite of it, at the top or at the nested level: A enters
        # {A,B}, {B,A}, {fa,gb}, {A,BC}, {A,C} and the three Jacobi terms
        rng = np.random.default_rng(count)
        pts = [PhasePoint(rng.normal(size=2), rng.normal(size=2), rng.normal(size=3))
               for _ in range(count)]
        calls = {"A": 0, "B": 0, "C": 0}
        bracket_property_residuals(spin_bracket(so3_constants()), counted_operands(calls), pts)
        assert calls == {"A": 9, "B": 8, "C": 6}

    @pytest.mark.parametrize("points", [[], [PhasePoint([0.1, 0.2], [0.3, 0.4]),
                                             PhasePoint([0.1], [0.2], [0.3, 0.4])]],
                             ids=["none", "two_layouts"])
    def test_points_must_share_one_layout(self, points):
        with pytest.raises(DimensionMismatch, match="one layout"):
            bracket_property_residuals(canonical_bracket, polynomial_observables(), points)

    def test_two_points_equal_two_one_point_calls(self):
        rng = np.random.default_rng(17)
        ops = tuple(mixed_observable(rng, 2, 3, False) for _ in range(3))
        pts = [PhasePoint(rng.normal(size=2), rng.normal(size=2), rng.normal(size=3))
               for _ in range(2)]
        bracket = spin_bracket(cyclic_nonjacobi_constants())
        both = bracket_property_residuals(bracket, ops, pts)
        each = [bracket_property_residuals(bracket, ops, [y]) for y in pts]
        for field in ("antisymmetry", "chain_rule", "leibniz", "jacobi"):
            assert getattr(both, field) == max(getattr(r, field) for r in each)


class TestStructureConstants:
    def test_not_antisymmetric_is_invalid_structure(self):
        gamma = np.zeros((2, 2, 2))
        gamma[0, 0, 1] = 1.0
        with pytest.raises(InvalidStructure) as err:
            StructureConstants(gamma)
        assert isinstance(err.value, FrobsymError) and isinstance(err.value, ValueError)


class TestEvolutionDerivative:
    def test_matches_integrated_trajectory(self):
        H = Observable(lambda y: 0.5 * np.sum(y.p ** 2 + y.z ** 2, axis=-1),
                       grad=lambda y: np.concatenate([y.z, y.p]))
        y0 = PhasePoint([1.0], [0.0])
        rate = canonical_bracket(H, coordinate(0), y0)
        dt = 1e-4
        fwd = integrate(H, y0, dt, 1).z[-1]
        bwd = integrate(H, y0, -dt, 1).z[-1]
        fd = (fwd[0] - bwd[0]) / (2 * dt)
        assert rate == pytest.approx(fd, abs=1e-6)

    def test_energy_is_conserved_pointwise(self):
        H = Observable(lambda y: 0.5 * np.sum(y.p ** 2 + y.z ** 2, axis=-1))
        assert canonical_bracket(H, H, PhasePoint([1.3], [-0.4])) == pytest.approx(0.0, abs=1e-10)

    def test_constants_do_not_move(self):
        H = Observable(lambda y: 0.5 * np.sum(y.p ** 2, axis=-1))
        Q = Observable(lambda y: np.full(y.z.shape[:-1], 42.0))
        assert canonical_bracket(H, Q, PhasePoint([0.1], [2.0])) == pytest.approx(0.0, abs=1e-12)


class TestLocalLieBracket:
    def test_antisymmetric_in_arguments(self):
        n, h = 32, 2 * np.pi / 32
        x = h * np.arange(n)
        b = np.ones((1, 1, 1))
        p = np.sin(x)[None, :]
        q = np.cos(2 * x)[None, :]
        assert np.array_equal(local_lie_bracket(b, p, q, h),
                              -local_lie_bracket(b, q, p, h))
        assert np.max(np.abs(local_lie_bracket(b, p, p, h))) == 0.0

    def test_constant_against_wave_reduces_to_derivative(self):
        n, h = 64, 2 * np.pi / 64
        x = h * np.arange(n)
        q = np.sin(x)[None, :]
        out = local_lie_bracket(np.ones((1, 1, 1)), np.ones((1, n)), q, h)
        stencil_derivative = q @ periodic_derivative_matrix(n, h).T
        assert np.allclose(out, stencil_derivative, atol=1e-14)

    def test_zero_constants(self):
        n, h = 16, 0.3
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=(1, n)), rng.normal(size=(1, n))
        assert np.max(np.abs(local_lie_bracket(np.zeros((1, 1, 1)), p, q, h))) == 0.0


def make_lattice(sites, r=1):
    metric, metric_deriv, b = linear_diagonal_lattice(r)
    return LatticeBracket(sites, r, metric, b, spacing=2 * np.pi / sites,
                          metric_deriv=metric_deriv)


def smooth_state(lb):
    x = lb.spacing * np.arange(lb.sites)
    return np.stack([2.0 + np.sin(x + 0.5 * k) for k in range(lb.field_dim)])


def site_metrics(lb, u):
    """g[n, i, j] with the metric called at one site at a time."""
    return np.stack([np.asarray(lb.metric(u[:, n]), dtype=float) for n in range(lb.sites)])


def assemble_operator(lb, u):
    """The dense rN x rN operator B[(i,n),(j,m)] = g^ij(u_n) D_nm + b^ij_k (Du^k)_n delta_nm,
    assembled site by site; the flat index is i * N + n (field-major)."""
    r, N = lb.field_dim, lb.sites
    D = periodic_derivative_matrix(N, lb.spacing)
    B = np.einsum("nij,nm->injm", site_metrics(lb, u), D)
    flux = np.einsum("ijk,kn->nij", lb.b, (np.roll(u, -1, axis=-1) - np.roll(u, 1, axis=-1))
                     / (2.0 * lb.spacing))
    sites = np.arange(N)
    B[:, sites, :, sites] += flux
    return B.reshape(r * N, r * N)


def linear_metric(g0, a):
    """g(u) = g0 + a u, with (a u)[i, j] = a[i, j, k] u^k, over a stack of field values."""
    return lambda u: g0 + (a @ u[..., None, :, None])[..., 0]


def row_by_row(lb):
    """``lb`` with its metric callbacks evaluated one site at a time."""
    def rows(f):
        return lambda us: np.stack([np.asarray(f(v), dtype=float) for v in us])

    return LatticeBracket(lb.sites, lb.field_dim, rows(lb.metric), lb.b, spacing=lb.spacing,
                          metric_deriv=lb.metric_deriv and rows(lb.metric_deriv))


class TestLatticeBracket:
    def test_constant_coefficients_exactly_skew(self):
        lb = LatticeBracket(16, 1, lambda u: np.full(u.shape[:-1] + (1, 1), 2.0),
                            np.zeros((1, 1, 1)), spacing=0.4)
        u = np.full((1, 16), 3.0)
        assert lattice_hydro_bracket(lb, u) == 0.0
        assert lattice_jacobi_residual(lb, u) == 0.0

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("sites", [4, 5, 16, 64])
    def test_banded_skew_residual_equals_the_dense_one(self, r, sites):
        """max|B + B^T| from the band equals the assembled operator's, bit for bit."""
        rng = np.random.default_rng(10 * r + sites)
        a = rng.normal(size=(r, r, r))
        g0 = rng.normal(size=(r, r))
        lb = LatticeBracket(sites, r, linear_metric(g0, a), rng.normal(size=(r, r, r)),
                            spacing=2 * np.pi / sites)
        for u in (rng.normal(size=(r, sites)), np.full((r, sites), 1.5)):
            B = assemble_operator(lb, u)
            assert lattice_hydro_bracket(lb, u) == float(np.max(np.abs(B + B.T)))

    def test_stencil_is_skew(self):
        D = periodic_derivative_matrix(12, 0.7)
        assert np.array_equal(D, -D.T)

    def test_flux_violating_symmetrization_breaks_antisymmetry(self):
        """With b = 0 but u-dependent g, B + B^T picks up the unbalanced
        derivative of the metric at nonconstant u."""
        lb = LatticeBracket(16, 1, lambda u: u[..., None], np.zeros((1, 1, 1)),
                            spacing=2 * np.pi / 16)
        assert lattice_hydro_bracket(lb, smooth_state(lb)) > 0.1

    def test_jacobi_residual_refines_at_second_order(self):
        coarse, fine = make_lattice(16), make_lattice(64)
        jac16 = lattice_jacobi_residual(coarse, smooth_state(coarse),
                                        rng=np.random.default_rng(5))
        jac64 = lattice_jacobi_residual(fine, smooth_state(fine),
                                        rng=np.random.default_rng(5))
        assert jac16 / jac64 >= 4.0

    def test_finite_difference_metric_derivative_agrees(self):
        lb = make_lattice(16)
        bare = LatticeBracket(16, 1, lb.metric, lb.b, spacing=lb.spacing)
        u = smooth_state(lb)
        exact = lattice_jacobi_residual(lb, u, rng=np.random.default_rng(9))
        fd = lattice_jacobi_residual(bare, u, rng=np.random.default_rng(9))
        assert fd == pytest.approx(exact, rel=1e-4)

    def test_state_shape_checked(self):
        lb = make_lattice(8)
        with pytest.raises(DimensionMismatch):
            lattice_hydro_bracket(lb, np.zeros((1, 9)))

    def test_operator_layout_field_major(self):
        """Row (i, n) lives at flat index i * sites + n."""
        metric, metric_deriv, b = linear_diagonal_lattice(2)
        lb = LatticeBracket(4, 2, metric, b, spacing=1.0, metric_deriv=metric_deriv)
        u = np.ones((2, 4))
        u[1] *= 3.0
        B = assemble_operator(lb, u)
        # constant state: B = g(u) x D blockwise, diagonal metric
        D = periodic_derivative_matrix(4, 1.0)
        assert np.allclose(B[:4, :4], 1.0 * D)
        assert np.allclose(B[4:, 4:], 3.0 * D)
        assert np.max(np.abs(B[:4, 4:])) == 0.0

    def test_jacobi_residual_checks_state_shape(self):
        lb = make_lattice(8)
        with pytest.raises(DimensionMismatch):
            lattice_jacobi_residual(lb, np.zeros((1, 9)))

    def test_too_few_sites_is_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch) as err:
            LatticeBracket(3, 1, lambda u: np.eye(1), np.zeros((1, 1, 1)))
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("n", [4, 16, 64, 1024])
    @pytest.mark.parametrize("spacing", [1.0, 0.3, 2 * np.pi / 7])
    def test_stencil_matches_loop_definition(self, n, spacing):
        D = np.zeros((n, n))
        for i in range(n):
            D[i, (i + 1) % n] = 1.0
            D[i, (i - 1) % n] = -1.0
        assert np.array_equal(periodic_derivative_matrix(n, spacing), D / (2.0 * spacing))

    def test_jacobi_residual_memory_is_linear_in_sites(self):
        """A dense operator at 4096 sites alone takes 134 MB."""
        lb = make_lattice(4096)
        u = smooth_state(lb)
        tracemalloc.start()
        try:
            lattice_jacobi_residual(lb, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def coupled_lattice(sites, r, with_deriv):
    """u-dependent metric with off-diagonal couplings and generic flux."""
    rng = np.random.default_rng(r)
    a = rng.normal(size=(r, r, r))
    a = a + np.swapaxes(a, 0, 1)
    g0 = 3.0 * np.eye(r) + 0.2 * np.ones((r, r))
    return LatticeBracket(sites, r, linear_metric(g0, a), rng.normal(size=(r, r, r)),
                          spacing=2 * np.pi / sites,
                          metric_deriv=((lambda u: np.broadcast_to(a, u.shape[:-1] + a.shape))
                                        if with_deriv else None))


def dense_jacobi_residual(lb, u, rng, triples=3):
    """The cyclic Jacobi sum through the assembled operator and the stencil matrix."""
    r, N = lb.field_dim, lb.sites
    B = assemble_operator(lb, u)
    D = periodic_derivative_matrix(N, lb.spacing)
    if lb.metric_deriv is not None:
        dC = np.stack([lb.metric_deriv(u[:, n]) for n in range(N)])
    else:
        dC = np.stack([np.moveaxis(numdiff.jacobian(lb.metric, u[:, n]), 0, -1)
                       for n in range(N)])

    def inner_gradient(phi, psi):
        return (np.einsum("in,nijk,jm,nm->kn", phi, dC, psi, D)
                + np.einsum("in,ijk,jn->kn", phi, lb.b, psi) @ D)

    worst = 0.0
    for _ in range(triples):
        phis = [smooth_test_profile(r, N, lb.spacing, rng) for _ in range(3)]
        terms = [float(phis[a].reshape(-1) @ B @ inner_gradient(phis[b], phis[c]).reshape(-1))
                 for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
        worst = max(worst, abs(sum(terms)) / max(1.0, max(abs(t) for t in terms)))
    return worst


@pytest.mark.parametrize("with_deriv", [True, False])
@pytest.mark.parametrize("sites", [16, 64])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("coefficients", ["linear_diagonal", "coupled"])
def test_matrix_free_jacobi_matches_dense(coefficients, r, sites, with_deriv):
    if coefficients == "coupled":
        lb = coupled_lattice(sites, r, with_deriv)
    else:
        lb = make_lattice(sites, r)
        if not with_deriv:
            lb = LatticeBracket(sites, r, lb.metric, lb.b, spacing=lb.spacing)
    u = smooth_state(lb)
    dense = dense_jacobi_residual(lb, u, np.random.default_rng(7))
    assert dense > 0.0
    assert lattice_jacobi_residual(lb, u, rng=np.random.default_rng(7)) == pytest.approx(
        dense, rel=1e-10)


def registry_lattices():
    for name, make in LATTICE_COEFFICIENTS.items():
        for r in (1, 2, 3):
            metric, metric_deriv, b = make(r)
            yield f"{name}{r}", LatticeBracket(16, r, metric, b, spacing=2 * np.pi / 16,
                                               metric_deriv=metric_deriv)
            yield f"{name}{r}_fd", LatticeBracket(16, r, metric, b, spacing=2 * np.pi / 16)
    for r in (1, 2, 3):
        yield f"coupled{r}", coupled_lattice(16, r, True)
        yield f"coupled{r}_fd", coupled_lattice(16, r, False)


@pytest.mark.parametrize("name", dict(registry_lattices()))
def test_site_coefficients_match_the_per_site_loop(name):
    """One metric call on the (N, r) stack of sites gives the per-site
    loop's doubles, and so do both lattice residuals."""
    lb = dict(registry_lattices())[name]
    u = smooth_state(lb)
    u[0, 3] = -0.0
    assert np.array_equal(_site_coefficients(lb, u)[0], site_metrics(lb, u))
    loop = row_by_row(lb)
    assert (lattice_hydro_bracket(lb, u)
            == lattice_hydro_bracket(loop, u))
    assert (lattice_jacobi_residual(lb, u, rng=np.random.default_rng(3))
            == lattice_jacobi_residual(loop, u, rng=np.random.default_rng(3)))


def test_lattice_metric_of_the_wrong_shape_is_dimension_mismatch():
    metric, metric_deriv, b = constant_lattice(2)
    lb = LatticeBracket(8, 2, lambda u: metric(u)[0], b, metric_deriv=metric_deriv)
    with pytest.raises(DimensionMismatch, match="for 8 sites"):
        lattice_hydro_bracket(lb, np.ones((2, 8)))


# ---------------------------------------------------------------------------
# the per-profile, shifted-copy formulation, kept as the bitwise oracle


def roll_ddx(f, spacing):
    """The periodic central difference through two shifted copies of ``f``."""
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * spacing)


def one_profile(field_dim, sites, spacing, rng):
    """One (field_dim, sites) Fourier profile from its own (field_dim, 2, 2) draw."""
    coeffs = rng.normal(size=(field_dim, 2, 2))
    x = spacing * np.arange(sites)
    length = spacing * sites
    out = np.zeros((field_dim, sites))
    for k in range(2):
        angle = 2.0 * np.pi * (k + 1) * x / length
        out += coeffs[:, k, 0][:, None] * np.cos(angle)
        out += coeffs[:, k, 1][:, None] * np.sin(angle)
    return out


def per_profile_jacobi_residual(lb, u, rng):
    """The matrix-free Jacobi defect with each of the nine test profiles
    drawn on its own and every difference taken through shifted copies."""
    r, N, h = lb.field_dim, lb.sites, lb.spacing
    g_site = np.asarray(lb.metric(u.T), dtype=float)
    flux = np.einsum("ijk,kn->nij", lb.b, roll_ddx(u, h))
    deriv = lb.metric_deriv or (lambda w: np.moveaxis(numdiff.jacobian(lb.metric, w), -3, -1))
    dC = np.asarray(deriv(u.T), dtype=float)
    phi = np.array([[one_profile(r, N, h, rng) for _ in range(3)] for _ in range(3)])
    first, second = phi[:, [1, 2, 0]], phi[:, [2, 0, 1]]
    inner = (np.einsum("tcin,nijk,tcjn->tckn", first, dC, roll_ddx(second, h))
             - roll_ddx(np.einsum("tcin,ijk,tcjn->tckn", first, lb.b, second), h))
    b_inner = (np.einsum("nij,tcjn->tcin", g_site, roll_ddx(inner, h))
               + np.einsum("nij,tcjn->tcin", flux, inner))
    terms = np.einsum("tcin,tcin->tc", phi, b_inner)
    scale = np.maximum(1.0, np.max(np.abs(terms), axis=1, initial=0.0))
    return float(np.max(np.abs(terms.sum(axis=1)) / scale, initial=0.0))


def same_doubles(a, b):
    """Equal shape, dtype and bytes: bit for bit, signed zeros and NaNs included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spacing", [1.0, 0.3, 2 * np.pi / 7])
@pytest.mark.parametrize("lead", [(), (3,), (3, 3, 2)], ids=["1d", "stack", "nested"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 16, 4096])
def test_sliced_difference_matches_the_shifted_copies(n, lead, spacing):
    rng = np.random.default_rng(n + len(lead))
    f = rng.normal(size=lead + (n,))
    every_fifth = f.reshape(-1)[::5]
    specials = [-0.0, np.inf, np.nan, 1e308, -np.inf]
    every_fifth[:len(specials)] = specials[:every_fifth.size]
    with np.errstate(invalid="ignore"):  # inf - inf on one site
        assert same_doubles(_ddx(f, spacing), roll_ddx(f, spacing))


@pytest.mark.parametrize("n", [*range(9), 16, 64])
def test_stencil_matrix_matches_the_shifted_copies_at_every_length(n):
    """Lengths below 3, where a site's two neighbours coincide, included."""
    for spacing in (1.0, 0.3):
        assert same_doubles(periodic_derivative_matrix(n, spacing),
                            roll_ddx(np.eye(n), spacing).T)


@pytest.mark.parametrize("sites", [4, 64, 4096])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_one_profile_draw_matches_draws_made_in_turn(r, sites):
    h = 2 * np.pi / sites
    for seed in range(3):
        batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.array([[one_profile(r, sites, h, looped) for _ in range(3)]
                         for _ in range(3)])
        assert same_doubles(smooth_test_profile((3, 3, r), sites, h, batched), want)
        assert same_doubles(smooth_test_profile(r, sites, h, batched),
                            one_profile(r, sites, h, looped))
        # both generators are left in the same state
        assert batched.random() == looped.random()


@pytest.mark.parametrize("name", dict(registry_lattices()))
def test_jacobi_residual_matches_the_per_profile_oracle(name):
    lb = dict(registry_lattices())[name]
    u = smooth_state(lb)
    for seed in (0, 7):
        assert (lattice_jacobi_residual(lb, u, rng=np.random.default_rng(seed))
                == per_profile_jacobi_residual(lb, u, np.random.default_rng(seed)))
