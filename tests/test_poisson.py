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
    ParaNumber,
    ParaVector,
    PhasePoint,
    StructureConstants,
    bracket_property_residuals,
    canonical_bracket,
    evolution_derivative,
    extended_bracket,
    integrate,
    lattice_hydro_bracket,
    lattice_jacobi_residual,
    local_lie_bracket,
    paracomplex_bracket,
    so3_constants,
)
from frobsym import numdiff
from frobsym.poisson import (BracketResiduals, DEFAULT_NESTED_STEP, _product_grad, _sin_grad,
                             _square_grad, periodic_derivative_matrix, smooth_test_profile)
from frobsym.registry import cyclic_nonjacobi_constants, linear_diagonal_lattice


def coordinate(i):
    return Observable(lambda y, i=i: y.z[i])


def momentum(i):
    return Observable(lambda y, i=i: y.p[i])


def spin(i):
    return Observable(lambda y, i=i: y.lam[i])


def polynomial_observables():
    A = Observable(lambda y: y.z[0] ** 2 + y.p[1] * y.z[1],
                   grad=lambda y: np.array([2 * y.z[0], y.p[1], 0.0, y.z[1]]))
    B = Observable(lambda y: y.p[0] * y.z[0] + y.p[1] ** 2,
                   grad=lambda y: np.array([y.p[0], 0.0, y.z[0], 2 * y.p[1]]))
    C = Observable(lambda y: y.z[1] * y.p[0],
                   grad=lambda y: np.array([0.0, y.p[0], y.z[1], 0.0]))
    return A, B, C


class TestCanonicalBracket:
    def test_position_momentum_pair(self):
        y = PhasePoint([0.3, 0.7], [0.2, -0.4])
        assert canonical_bracket(coordinate(0), momentum(0), y) == pytest.approx(-1.0, abs=1e-9)

    def test_self_bracket_vanishes(self):
        A = Observable(lambda y: y.z[0] * y.p[0])
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
            combo = Observable(lambda yy, a=a, b=b: a * A(yy) + b * B(yy),
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
        A = Observable(lambda y: y.z[0] * y.lam[0])
        B = Observable(lambda y: y.p[0] + y.lam[0] ** 2)
        assert extended_bracket(A, B, y, gamma) == pytest.approx(
            canonical_bracket(A, B, y), abs=1e-12)

    def test_squared_length_is_central(self):
        y = PhasePoint([0.0], [0.0], [0.4, -1.1, 0.8])
        casimir = Observable(lambda y: float(np.sum(y.lam ** 2)))
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
        A = Observable(lambda y: y.lam[0] * y.lam[1] + y.z[0] * y.p[0])
        B = Observable(lambda y: y.lam[1] ** 2 + y.p[0])
        C = Observable(lambda y: y.lam[2] * y.z[0])
        bracket = lambda f, g, y, h=None: extended_bracket(f, g, y, so3_constants(), h=h)
        res = bracket_property_residuals(bracket, (A, B, C), pts)
        assert res.worst() < 1e-6

    def test_non_lie_constants_detected(self):
        """The cyclic-output constants fail the structure Jacobi identity
        with defect L_1 + L_2 + L_3 on the basis spins."""
        gamma = cyclic_nonjacobi_constants()
        y = PhasePoint([0.0], [0.0], [0.4, -1.1, 0.8])
        bracket = lambda f, g, yy, h=None: extended_bracket(f, g, yy, gamma, h=h)
        res = bracket_property_residuals(bracket, (spin(0), spin(1), spin(2)), [y])
        assert res.jacobi == pytest.approx(abs(0.4 - 1.1 + 0.8), abs=1e-6)
        assert res.jacobi > 1e-3


def mixed_observable(rng, n, spins, analytic):
    """sin(z.wz) (p.wp) + (lam.wl)^2 + z_0 p_-1, with or without its gradient."""
    wz, wp, wl = rng.normal(size=n), rng.normal(size=n), rng.normal(size=spins)

    def func(y):
        return float(np.sin(y.z @ wz) * (y.p @ wp) + (y.lam @ wl) ** 2 + y.z[0] * y.p[-1])

    def grad(y):
        dz = np.cos(y.z @ wz) * (y.p @ wp) * wz
        dz[0] += y.p[-1]
        dp = np.sin(y.z @ wz) * wp
        dp[-1] += y.z[0]
        return np.concatenate([dz, dp, 2.0 * (y.lam @ wl) * wl])

    return Observable(func, grad if analytic else None)


def full_gradient_bracket(A, B, y, constants=None, h=None):
    """ap.bz - bp.az - lam_k gamma^k_ij a_i b_j from full gradients."""
    n = y.z.size
    a, b = A.gradient(y, h=h), B.gradient(y, h=h)
    value = float(a[n:2 * n] @ b[:n] - b[n:2 * n] @ a[:n])
    if constants is None:
        return value
    return value + -float(np.einsum("k,kij,i,j->", y.lam, constants.gamma,
                                    a[2 * n:], b[2 * n:]))


class TestBracketPartials:
    """Each bracket differentiates each operand once, over the coordinates it
    contracts, and equals the full-gradient formula bit for bit."""

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("h", [None, 3e-4])
    @pytest.mark.parametrize("spins", [0, 3])
    def test_brackets_equal_full_gradient_formula(self, analytic, h, spins):
        rng = np.random.default_rng(8 + spins)
        for n in (1, 2, 3):
            A = mixed_observable(rng, n, spins, analytic)
            B = mixed_observable(rng, n, spins, analytic)
            for _ in range(4):
                y = PhasePoint(rng.normal(0.5, 2.0, n), rng.normal(size=n),
                               rng.normal(size=spins))
                assert canonical_bracket(A, B, y, h=h) == full_gradient_bracket(A, B, y, h=h)
                if spins:
                    for gamma in (so3_constants(), cyclic_nonjacobi_constants()):
                        assert (extended_bracket(A, B, y, gamma, h=h)
                                == full_gradient_bracket(A, B, y, gamma, h=h))

    @pytest.mark.parametrize("analytic", [False, True])
    def test_gradient_block_is_the_full_gradient_slice(self, analytic):
        rng = np.random.default_rng(2)
        A = mixed_observable(rng, 2, 3, analytic)
        y = PhasePoint(rng.normal(size=2), rng.normal(size=2), rng.normal(size=3))
        full = A.gradient(y)
        for block in (slice(0, 4), slice(4, None), slice(1, 3)):
            assert np.array_equal(A.gradient(y, coords=block), full[block])

    def test_each_operand_is_evaluated_two_times_per_coordinate(self):
        calls = {"A": 0, "B": 0}

        def counted(name, f):
            def func(y):
                calls[name] += 1
                return f(y)
            return Observable(func)

        A = counted("A", lambda y: y.z[0] * y.lam[0] + y.p[1])
        B = counted("B", lambda y: y.p[0] * y.lam[2] ** 2)
        y = PhasePoint([0.3, -0.2], [1.1, 0.4], [0.4, -1.1, 0.8])
        extended_bracket(A, B, y, so3_constants())
        assert calls == {"A": 2 * (2 + 2 + 3), "B": 2 * (2 + 2 + 3)}
        calls.update(A=0, B=0)
        canonical_bracket(A, B, y)
        assert calls == {"A": 2 * (2 + 2), "B": 2 * (2 + 2)}


def unshared_property_residuals(bracket, observables, points,
                                nested_h=DEFAULT_NESTED_STEP):
    """The property loop with every bracket differencing its operands afresh."""
    A, B, C = observables
    anti = chain = leib = jac = 0.0
    for y in points:
        ab = bracket(A, B, y)
        anti = max(anti, abs(ab + bracket(B, A, y)))
        fa = Observable(lambda q: A(q) ** 2, _square_grad(A))
        gb = Observable(lambda q: np.sin(B(q)), _sin_grad(B))
        chain = max(chain, abs(bracket(fa, gb, y) - 2.0 * A(y) * np.cos(B(y)) * ab))
        bc_prod = Observable(lambda q: B(q) * C(q), _product_grad(B, C))
        leib = max(leib, abs(bracket(A, bc_prod, y) - B(y) * bracket(A, C, y) - C(y) * ab))

        def nested(first, second):
            return Observable(lambda q: bracket(first, second, q))

        triple = (bracket(A, nested(B, C), y, h=nested_h)
                  + bracket(B, nested(C, A), y, h=nested_h)
                  + bracket(C, nested(A, B), y, h=nested_h))
        jac = max(jac, abs(triple))
    return BracketResiduals(anti, chain, leib, jac)


def spin_bracket(constants):
    return lambda f, g, y, h=None: extended_bracket(f, g, y, constants, h=h)


def lopsided_bracket(f, g, y, h=None):
    """Not a Poisson bracket: full gradients contracted against a reversal."""
    return float(f.gradient(y, h=h) @ g.gradient(y, h=h)[::-1])


def counted_operands(calls):
    """The three FD operands of the battery's bracket suite, counting calls."""
    def counted(name, f):
        def func(y):
            calls[name] += 1
            return f(y)
        return Observable(func)

    return (counted("A", lambda y: y.z[0] ** 2 + y.p[0] * y.z[1 % y.z.size]),
            counted("B", lambda y: y.p[0] * y.z[0] + float(np.sum(y.lam ** 2))),
            counted("C", lambda y: y.z[1 % y.z.size] * y.p[-1] + float(np.sum(y.lam))))


class TestSharedGradients:
    """Each operand's gradient is taken once per point and shared by every
    bracket at one probe point; the residuals stay bit for bit those of
    brackets that difference their operands afresh."""

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

    def test_evaluations_per_operand_and_probe_point(self):
        # so3 on a 2-dof point, n = 7 coordinates: 4n^2 + O(n) instead of ~8n^2
        y = PhasePoint([0.3, -0.2], [1.1, 0.4], [0.4, -1.1, 0.8])
        bracket = spin_bracket(so3_constants())
        calls = {"A": 0, "B": 0, "C": 0}
        bracket_property_residuals(bracket, counted_operands(calls), [y])
        assert calls == {"A": 239, "B": 254, "C": 239}
        calls.update(A=0, B=0, C=0)
        unshared_property_residuals(bracket, counted_operands(calls), [y])
        assert calls == {"A": 477, "B": 464, "C": 435}

    def test_memo_is_per_probe_point(self):
        y = PhasePoint([0.3, -0.2], [1.1, 0.4], [0.4, -1.1, 0.8])
        bracket = spin_bracket(so3_constants())
        calls = {"A": 0, "B": 0, "C": 0}
        ops = counted_operands(calls)
        twice = bracket_property_residuals(bracket, ops, [y, y])
        assert calls == {"A": 2 * 239, "B": 2 * 254, "C": 2 * 239}
        assert twice == bracket_property_residuals(bracket, ops, [y])

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

    def test_shared_gradient_is_read_only(self):
        seen = []

        def recording(f, g, y, h=None):
            seen.append(f.gradient(y, h=h))
            return canonical_bracket(f, g, y, h=h)

        rng = np.random.default_rng(3)
        ops = tuple(mixed_observable(rng, 2, 0, False) for _ in range(3))
        bracket_property_residuals(recording, ops, [PhasePoint([0.3, -0.2], [1.1, 0.4])])
        first = seen[0]  # A's gradient at the probe point, from {A, B}
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert np.array_equal(first, ops[0].gradient(PhasePoint([0.3, -0.2], [1.1, 0.4])))


class TestStructureConstants:
    def test_not_antisymmetric_is_invalid_structure(self):
        gamma = np.zeros((2, 2, 2))
        gamma[0, 0, 1] = 1.0
        with pytest.raises(InvalidStructure) as err:
            StructureConstants(gamma)
        assert isinstance(err.value, FrobsymError) and isinstance(err.value, ValueError)


class TestParacomplexBracket:
    def test_one_against_e(self):
        g = np.array([[1.0]])
        one = ParaVector([ParaNumber(1, 0)])
        e = ParaVector([ParaNumber(0, 1)])
        assert paracomplex_bracket(g, one, e) == pytest.approx(-0.5)

    def test_diagonal_vanishes_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            g = rng.normal(size=(n, n))
            g = g + g.T
            xi = ParaVector.from_arrays(rng.normal(size=n), rng.normal(size=n))
            assert paracomplex_bracket(g, xi, xi) == 0.0

    def test_bilinear_in_first_slot(self):
        g = np.array([[2.0, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(3)
        xi1 = ParaVector.from_arrays(rng.normal(size=2), rng.normal(size=2))
        xi2 = ParaVector.from_arrays(rng.normal(size=2), rng.normal(size=2))
        eta = ParaVector.from_arrays(rng.normal(size=2), rng.normal(size=2))
        summed = ParaVector([a + b for a, b in zip(xi1, xi2)])
        lhs = paracomplex_bracket(g, summed, eta)
        rhs = paracomplex_bracket(g, xi1, eta) + paracomplex_bracket(g, xi2, eta)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestEvolutionDerivative:
    def test_matches_integrated_trajectory(self):
        H = Observable(lambda y: 0.5 * float(y.p @ y.p + y.z @ y.z),
                       grad=lambda y: np.concatenate([y.z, y.p]))
        y0 = PhasePoint([1.0], [0.0])
        rate = evolution_derivative(H, coordinate(0), y0)
        dt = 1e-4
        fwd = integrate(H, y0, dt, 1).points[-1]
        bwd = integrate(H, y0, -dt, 1).points[-1]
        fd = (fwd.z[0] - bwd.z[0]) / (2 * dt)
        assert rate == pytest.approx(fd, abs=1e-6)

    def test_energy_is_conserved_pointwise(self):
        H = Observable(lambda y: 0.5 * float(y.p @ y.p + y.z @ y.z))
        assert evolution_derivative(H, H, PhasePoint([1.3], [-0.4])) == pytest.approx(0.0, abs=1e-10)

    def test_constants_do_not_move(self):
        H = Observable(lambda y: 0.5 * float(y.p @ y.p))
        Q = Observable(lambda y: 42.0)
        assert evolution_derivative(H, Q, PhasePoint([0.1], [2.0])) == pytest.approx(0.0, abs=1e-12)


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


class TestLatticeBracket:
    def test_constant_coefficients_exactly_skew(self):
        lb = LatticeBracket(16, 1, lambda u: np.array([[2.0]]),
                            np.zeros((1, 1, 1)), spacing=0.4)
        u = np.full((1, 16), 3.0)
        assert lattice_hydro_bracket(lb, u).antisymmetry_residual == 0.0
        assert lattice_jacobi_residual(lb, u) == 0.0

    def test_stencil_is_skew(self):
        D = periodic_derivative_matrix(12, 0.7)
        assert np.array_equal(D, -D.T)

    def test_flux_violating_symmetrization_breaks_antisymmetry(self):
        """With b = 0 but u-dependent g, B + B^T picks up the unbalanced
        derivative of the metric at nonconstant u."""
        lb = LatticeBracket(16, 1, lambda u: np.diag(u), np.zeros((1, 1, 1)),
                            spacing=2 * np.pi / 16)
        rep = lattice_hydro_bracket(lb, smooth_state(lb))
        assert rep.antisymmetry_residual > 0.1

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
        B = lattice_hydro_bracket(lb, u).operator
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
    return LatticeBracket(sites, r, lambda u: g0 + a @ u, rng.normal(size=(r, r, r)),
                          spacing=2 * np.pi / sites,
                          metric_deriv=(lambda u: a) if with_deriv else None)


def dense_jacobi_residual(lb, u, rng, triples=3):
    """The cyclic Jacobi sum through the assembled operator and the stencil matrix."""
    r, N = lb.field_dim, lb.sites
    B = lattice_hydro_bracket(lb, u).operator
    D = periodic_derivative_matrix(N, lb.spacing)
    if lb.metric_deriv is not None:
        dC = np.stack([lb.metric_deriv(u[:, n]) for n in range(N)])
    else:
        dC = np.stack([np.moveaxis(numdiff.jacobian(lambda w: np.asarray(lb.metric(w), float),
                                                    u[:, n]), 0, -1) for n in range(N)])

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
