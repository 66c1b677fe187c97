"""Algebra construction, associativity obstructions and first-order
bracket identities.

The 3-d potential (1/2)(x1^2 x3 + x1 x2^2) paired with the antidiagonal
matrix is the standard associativity-exact example; e_1 acts as the unit
because its third derivatives contract to delta symbols.  The quartic
perturbation c x2^2 x3^2 injects 4c x3 and 4c x2 into the third-derivative
tensor and produces an obstruction of size 16 c^2 x3^2.
"""

from dataclasses import replace

import numpy as np
import pytest

from frobsym import (
    DegenerateAlgebra,
    DegenerateMetric,
    DimensionMismatch,
    FrobsymError,
    FrobeniusAlgebra,
    InvalidStructure,
    MetricField,
    NonFiniteValue,
    PotentialField,
    algebra_from_potential,
    find_idempotents_rank2,
    frobenius_axioms,
    hessian_log_metric,
    hessian_structure,
    novikov_residuals,
    wdvv_residual,
)
from frobsym import frobenius
from frobsym.errors import symmetric_part
from frobsym.paracomplex import ParaNumber, para_conj
from frobsym.registry import (
    POTENTIALS,
    antidiagonal_pairing,
    cubic_potential3,
    diagonal_constants,
    dual_numbers_constants,
    paracomplex_structure_constants,
    perturbed_cubic_potential3,
)


class TestAlgebraFromPotential:
    def test_zero_tensor_gives_zero_multiplication(self):
        alg = algebra_from_potential(np.zeros((2, 2, 2)), np.eye(2))
        assert np.max(np.abs(alg.c)) == 0.0

    def test_binary_family_at_symmetric_point_is_zero(self):
        from frobsym import cumulant_tensor
        from frobsym.registry import bernoulli_family

        t = cumulant_tensor(bernoulli_family(), [0.0], 3)
        alg = algebra_from_potential(t, np.eye(1))
        assert np.max(np.abs(alg.c)) <= 1e-15

    def test_cubic_has_unit_e1(self):
        t = cubic_potential3().third_tensor(np.zeros(3))
        alg = algebra_from_potential(t, antidiagonal_pairing())
        report = frobenius_axioms(alg)
        assert report.unit is not None
        assert np.allclose(report.unit, [1.0, 0.0, 0.0], atol=1e-12)
        assert report.unit_residual <= 1e-12

    def test_triple_product_identity(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=(3, 3, 3))
        t = sum(np.transpose(t, p) for p in
                [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6
        g = np.eye(3) + 0.1 * np.ones((3, 3))
        alg = algebra_from_potential(t, g)
        for _ in range(5):
            u, v, w = rng.normal(size=(3, 3))
            lhs = alg.multiply(u, v) @ alg.pairing @ w
            rhs = np.einsum("ijk,i,j,k->", t, u, v, w)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_degenerate_pairing_rejected(self):
        with pytest.raises(DegenerateMetric):
            algebra_from_potential(np.zeros((2, 2, 2)), np.zeros((2, 2)))


class TestWDVV:
    def test_two_dimensional_potentials_never_obstruct(self):
        """With the unit-direction pairing g_ab = T_1ab the coordinate field
        d_1 is a unit, and a 2-d commutative unital algebra is associative
        no matter the potential.  (Pairings without a unit direction can
        obstruct even in 2-d, so the convention matters.)"""
        rng = np.random.default_rng(4)
        done = 0
        while done < 5:
            t = rng.normal(size=(2, 2, 2))
            t = sum(np.transpose(t, p) for p in
                    [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6
            g = t[0]
            if abs(np.linalg.det(g)) < 1e-2:
                continue
            pot = PotentialField(2, lambda x: np.zeros(x.shape[:-1]),
                                 third=lambda x, t=t: np.broadcast_to(t, x.shape[:-1] + t.shape))
            assert wdvv_residual(pot, g, [0.0, 0.0]) < 1e-12
            done += 1

    def test_cubic_is_exact(self):
        assert wdvv_residual(cubic_potential3(), antidiagonal_pairing(), [0.7, -0.3, 1.2]) < 1e-8

    def test_cubic_fd_fallback(self):
        bare = PotentialField(3, cubic_potential3().func)
        assert wdvv_residual(bare, antidiagonal_pairing(), [0.7, -0.3, 1.2]) < 1e-8

    @pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.7, -0.3, 1.2]])
    def test_third_tensor_fd_fallback_matches_analytic(self, x):
        bare = PotentialField(3, cubic_potential3().func)
        fd = bare.third_tensor(x)
        assert np.max(np.abs(fd - cubic_potential3().third_tensor(x))) <= 1e-8

    def test_perturbation_obstructs(self):
        r = wdvv_residual(perturbed_cubic_potential3(), antidiagonal_pairing(),
                          [0.0, 1.0, 1.0])
        assert r > 1e-2
        assert r == pytest.approx(16 * 0.1**2, rel=1e-10)

    def test_huge_tensor_with_finite_products_gives_a_finite_residual(self):
        # |T| ~ 1e155 squares past the float range, but g^-1 = 1e-10 I keeps T g^-1 T finite
        r = wdvv_residual(perturbed_cubic_potential3(), 1e10 * np.eye(3), [1.0, 1e155, 1e155])
        assert np.isfinite(r) and r > 1e299

    def test_singular_pairing_is_named(self):
        with pytest.raises(DegenerateMetric, match="^pairing singular"):
            wdvv_residual(cubic_potential3(), np.zeros((3, 3)), [0.7, -0.3, 1.2])

    @pytest.mark.parametrize("g", [np.eye(2), np.eye(4)], ids=["2x2", "4x4"])
    def test_pairing_of_the_wrong_size_is_dimension_mismatch(self, g):
        with pytest.raises(DimensionMismatch, match="pairing of shape"):
            wdvv_residual(cubic_potential3(), g, [0.7, -0.3, 1.2])

    def test_quadratic_shift_invariance(self):
        """Adding a quadratic polynomial leaves third derivatives, hence the
        residual, unchanged."""
        rng = np.random.default_rng(12)
        q = rng.normal(size=(3, 3))
        base = perturbed_cubic_potential3()
        shifted = PotentialField(
            3,
            lambda x: (base.func(x) + np.einsum("...i,ij,...j->...", x, q, x)
                       + 0.7 * x[..., 0] - 2.0),
            third=base.third,
        )
        x = rng.normal(size=3)
        g = antidiagonal_pairing()
        assert wdvv_residual(shifted, g, x) == pytest.approx(
            wdvv_residual(base, g, x), rel=1e-10, abs=1e-10)

    def test_wdvv_and_associativity_agree(self):
        g = antidiagonal_pairing()
        for pot, should_pass in [(cubic_potential3(), True),
                                 (perturbed_cubic_potential3(), False)]:
            x = np.array([0.0, 1.0, 1.0])
            resid = wdvv_residual(pot, g, x)
            alg = algebra_from_potential(pot.third_tensor(x), g)
            assoc = frobenius_axioms(alg).associativity
            if should_pass:
                assert resid < 1e-10 and assoc < 1e-10
            else:
                assert resid > 1e-3 and assoc > 1e-3


class TestFrobeniusAxioms:
    def test_diagonal_algebra_clean(self):
        alg = FrobeniusAlgebra(*diagonal_constants(3))
        report = frobenius_axioms(alg)
        assert report.commutativity == 0.0
        assert report.associativity == 0.0
        assert report.pairing_invariance == 0.0
        assert np.allclose(report.unit, np.ones(3), atol=1e-12)

    def test_split_algebra_clean(self):
        alg = FrobeniusAlgebra(*paracomplex_structure_constants())
        report = frobenius_axioms(alg)
        assert report.worst_identity_residual() <= 1e-15

    def test_perturbed_multiplication_detected(self):
        c, pairing = diagonal_constants(2)
        c[0, 0, 1] += 0.1
        report = frobenius_axioms(FrobeniusAlgebra(c, pairing))
        assert report.associativity >= 0.01


class TestStackedAlgebras:
    """A stack of P algebras gives what its P algebras give alone: the tangent
    algebras of each registry cone, and random algebras, which fail every axiom."""

    @pytest.mark.parametrize("count", [1, 3, 5])
    @pytest.mark.parametrize("name", sorted(POTENTIALS) + ["random3"])
    def test_stack_equals_its_one_point_algebras(self, name, count):
        rng = np.random.default_rng(count)
        if name == "random3":
            x, a, b = rng.normal(size=(3, count, 3))
            pairing = np.eye(3) + np.einsum("pi,pj->pij", a, a)
            stack = FrobeniusAlgebra(rng.normal(size=(count, 3, 3, 3)), pairing, unit=x)
        else:
            phi = POTENTIALS[name]()
            x = np.exp(rng.normal(0.0, 0.3, size=(count, phi.dim))) + 0.2
            a, b = rng.normal(size=(2, count, phi.dim))
            stack = replace(hessian_structure(hessian_log_metric(phi), x), unit=x)
        ones = [FrobeniusAlgebra(stack.c[p], stack.pairing[p], unit=x[p]) for p in range(count)]
        report = frobenius_axioms(stack)
        singles = [frobenius_axioms(alg) for alg in ones]
        for field in ("commutativity", "associativity", "pairing_invariance", "unit_residual"):
            assert getattr(report, field) == max(getattr(r, field) for r in singles)
        products = stack.multiply(a, b)
        riemann = stack.riemann
        for p, alg in enumerate(ones):
            assert np.array_equal(products[p], alg.multiply(a[p], b[p]))
            assert np.array_equal(riemann[p], alg.riemann)
        assert stack.curvature() == max(alg.curvature() for alg in ones)

    def test_a_stack_needs_declared_units_and_one_algebra_for_idempotents(self):
        c, pairing = diagonal_constants(2)
        stack = FrobeniusAlgebra(np.stack([c, c]), np.stack([pairing, pairing]))
        assert stack.dim == 2
        with pytest.raises(DimensionMismatch):
            frobenius_axioms(stack)
        with pytest.raises(DimensionMismatch):
            find_idempotents_rank2(stack)
        with pytest.raises(DimensionMismatch):
            FrobeniusAlgebra(np.stack([c, c]), pairing)


class TestNovikov:
    def test_commutative_associative_satisfies_identities(self):
        c, _ = diagonal_constants(2)
        b = np.einsum("kij->ijk", c)
        metric = MetricField(2, lambda u: u[..., None] * np.eye(2))
        report = novikov_residuals(b, metric, [1.0, 2.0])
        assert report.left_symmetry == 0.0
        assert report.right_identity == 0.0

    def test_half_derivative_flux_matches_metric(self):
        b = np.zeros((2, 2, 2))
        b[0, 0, 0] = 0.5
        b[1, 1, 1] = 0.5
        metric = MetricField(2, lambda u: u[..., None] * np.eye(2))
        report = novikov_residuals(b, metric, [1.3, 0.7])
        assert report.symmetrization < 1e-8

    def test_asymmetric_flux_detected(self):
        rng = np.random.default_rng(17)
        b = rng.normal(size=(2, 2, 2))
        metric = MetricField(2, lambda u: u[..., None] * np.eye(2))
        report = novikov_residuals(b, metric, [1.0, 1.0])
        assert report.symmetrization > 0.1


class TestIdempotents:
    def test_split_algebra_has_four(self):
        alg = FrobeniusAlgebra(*paracomplex_structure_constants())
        found = find_idempotents_rank2(alg)
        expected = [(0.0, 0.0), (0.5, -0.5), (0.5, 0.5), (1.0, 0.0)]
        assert len(found) == 4
        for got, want in zip(found, expected):
            assert np.allclose(got, want, atol=1e-9)

    def test_square_zero_generator_gives_two(self):
        alg = FrobeniusAlgebra(*dual_numbers_constants())
        found = find_idempotents_rank2(alg)
        assert len(found) == 2
        assert np.allclose(found[0], [0.0, 0.0], atol=1e-9)
        assert np.allclose(found[1], [1.0, 0.0], atol=1e-9)

    def test_zero_algebra(self):
        alg = FrobeniusAlgebra(np.zeros((2, 2, 2)), np.eye(2))
        found = find_idempotents_rank2(alg)
        assert len(found) == 1
        assert np.array_equal(found[0], np.zeros(2))

    def test_split_set_closed_under_mirror(self):
        alg = FrobeniusAlgebra(*paracomplex_structure_constants())
        found = {tuple(np.round(v, 9)) for v in find_idempotents_rank2(alg)}
        for re, im in found:
            mirrored = para_conj(ParaNumber(re, im))
            assert (round(mirrored.re, 9), round(mirrored.im, 9)) in found

    def test_verified_residuals(self):
        alg = FrobeniusAlgebra(*paracomplex_structure_constants())
        for a in find_idempotents_rank2(alg):
            assert np.max(np.abs(alg.multiply(a, a) - a)) <= 1e-10

    def test_product_algebra_roots_are_exact(self):
        # (0, 1) lies where the cubic's leading coefficient vanishes
        found = find_idempotents_rank2(FrobeniusAlgebra(*diagonal_constants(2)))
        assert np.array_equal(found, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def test_roots_far_from_the_origin(self):
        c, pairing = diagonal_constants(2)
        found = find_idempotents_rank2(FrobeniusAlgebra(0.25 * c, pairing))
        assert np.array_equal(found, [[0.0, 0.0], [0.0, 4.0], [4.0, 0.0], [4.0, 4.0]])

    def test_idempotent_far_from_the_origin_is_kept(self):
        # N(0, 0.05^2) constants with an idempotent at |a| ~ 3.9e3, where
        # roundoff alone leaves |a o a - a| ~ 6e-10
        c = np.array([[[0.021016503202121742, 0.05373210104760148],
                       [0.06849313411371608, -0.06416618244710481]],
                      [[0.06077630295371642, -0.08698925906222676],
                       [0.0051353381573370546, 0.025704009655567364]]])
        alg = FrobeniusAlgebra(c, np.eye(2))
        found = find_idempotents_rank2(alg)
        assert len(found) == 4  # zero and one per real root of the cubic
        assert max(np.linalg.norm(a) for a in found) == pytest.approx(3864.568, rel=1e-6)
        for a in found:
            assert np.max(np.abs(alg.multiply(a, a) - a)) <= 1e-15 * max(1.0, a @ a)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("constants, count", [
        (paracomplex_structure_constants, 4), (dual_numbers_constants, 2),
    ], ids=["paracomplex", "dual_numbers"])
    def test_change_of_basis_moves_the_roots(self, constants, count, seed):
        """In the basis f_i = P e_i the idempotents are P^-1 a."""
        c, pairing = constants()
        P = np.random.default_rng(seed).normal(size=(2, 2))
        Pinv = np.linalg.inv(P)
        moved = np.einsum("km,mpq,pi,qj->kij", Pinv, c, P, P)
        found = find_idempotents_rank2(FrobeniusAlgebra(moved, pairing))
        expected = [Pinv @ a for a in find_idempotents_rank2(FrobeniusAlgebra(c, pairing))]
        assert len(found) == len(expected) == count
        for a in expected:
            assert min(np.max(np.abs(a - b)) for b in found) < 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_double_root_of_the_cubic_is_found(self, seed):
        """a o a = (a_0^2, a_0 a_1 + 0.7 a_1^2) has the idempotent (1, 0) on a
        double root of the cubic; in a random basis np.roots may return that
        root as a complex pair, and the root is fixed only to ~sqrt(eps)."""
        c = np.zeros((2, 2, 2))
        c[0, 0, 0], c[1, 0, 1], c[1, 1, 0], c[1, 1, 1] = 1.0, 0.5, 0.5, 0.7
        P = np.random.default_rng(seed).normal(size=(2, 2))
        Pinv = np.linalg.inv(P)
        moved = np.einsum("km,mpq,pi,qj->kij", Pinv, c, P, P)
        found = find_idempotents_rank2(FrobeniusAlgebra(moved, np.eye(2)))
        assert len(found) == 3
        for a in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0 / 0.7]):
            assert min(np.max(np.abs(Pinv @ a - b)) for b in found) < 1e-5

    def test_antisymmetric_constants_keep_only_zero(self):
        # a o a = 0 for every a although the constants are not zero
        c = np.zeros((2, 2, 2))
        c[0, 0, 1], c[0, 1, 0] = 1.0, -1.0
        found = find_idempotents_rank2(FrobeniusAlgebra(c, np.eye(2)))
        assert len(found) == 1 and np.array_equal(found[0], np.zeros(2))

    def test_line_of_idempotents_is_degenerate(self):
        # a o a = a_0 a: every a with a_0 = 1 is idempotent
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = 1.0
        c[1, 0, 1] = c[1, 1, 0] = 0.5
        with pytest.raises(DegenerateAlgebra) as err:
            find_idempotents_rank2(FrobeniusAlgebra(c, np.eye(2)))
        assert isinstance(err.value, FrobsymError) and isinstance(err.value, ValueError)


class TestErrorContract:
    def test_pairing_not_symmetric_is_invalid_structure(self):
        with pytest.raises(InvalidStructure) as info:
            FrobeniusAlgebra(np.zeros((2, 2, 2)), np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert isinstance(info.value, FrobsymError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_symmetric_pairing_with_a_non_finite_entry_is_non_finite_value(self, bad, where):
        pairing = np.eye(2)
        pairing[where] = pairing[where[::-1]] = bad
        with pytest.raises(NonFiniteValue):
            FrobeniusAlgebra(np.zeros((2, 2, 2)), pairing)

    def test_pairing_is_its_symmetric_part_and_is_checked_once(self, monkeypatch):
        """A pairing symmetric to the last bit is its own symmetric part;
        the one hessian_structure takes from MetricField.value is not
        checked again, by its FrobeniusAlgebra or by a replace()."""
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 3, 3))
        near = m.swapaxes(-1, -2) + m
        near[:, 0, 1] = np.nextafter(near[:, 1, 0], np.inf)
        for pairing in (m.swapaxes(-1, -2) + m, near, np.array([[-0.0, 0.0], [0.0, 1.0]])):
            dim = pairing.shape[-1]
            got = FrobeniusAlgebra(np.zeros(pairing.shape[:-2] + (dim,) * 3), pairing).pairing
            assert got.tobytes() == (0.5 * (pairing + pairing.swapaxes(-1, -2))).tobytes()
        checked = []
        monkeypatch.setattr(frobenius, "symmetric_part",
                            lambda *args: checked.append(args) or symmetric_part(*args))
        x = np.array([[0.4, 0.7, 1.3], [1.1, 0.5, 0.9]])
        stack = replace(hessian_structure(hessian_log_metric(POTENTIALS["orthant3"]()), x),
                        unit=x)
        assert checked == []
        assert stack.pairing.shape == (2, 3, 3)
