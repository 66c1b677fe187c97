"""Connection, curvature and cone checks.

Closed forms used as oracles:

  orthant metric  diag(1/x_i^2):  Gamma^i_ii = -1/x_i, all others zero,
                                  curvature zero (product of 1-d metrics)
  round sphere    diag(1, sin^2 u): Gamma^1_22 = -sin u cos u,
                                  Gamma^2_12 = cot u, curvature ~ 1
  shear on the orthant potential at (1,1): |log phi(Ax) - log phi(x)| = log 2
  Lorentz cone    phi = q^(-3/2), q = x0^2 - x1^2 - x2^2, y = Jx:
                  d^2 log phi = -3J/q + 6 y y^T/q^2,
                  d^3 log phi = 6 (J_ij y_k + J_ik y_j + J_jk y_i)/q^2 - 24 y_i y_j y_k/q^3;
                  not flat, so its tangent algebra is not associative
"""

import numpy as np
import pytest

from frobsym import (
    DegenerateMetric,
    DimensionMismatch,
    DomainViolation,
    ExponentialFamily,
    FrobsymError,
    InvalidStructure,
    MetricField,
    NonPositivePotential,
    PotentialField,
    automorphism_invariance_residual,
    christoffel,
    cone_multiply,
    curvature_flatness,
    dual_connections,
    hessian_log_metric,
    hessian_structure,
)
from frobsym import numdiff
from frobsym.geometry import riemann_tensor
from frobsym.registry import (
    METRICS,
    POTENTIALS,
    bernoulli_family,
    euclidean_metric,
    orthant_potential,
    round_sphere_metric,
)


def diagonal(v):
    """The stack of diagonal matrices with v[..., i] on the diagonal."""
    return v[..., None] * np.eye(v.shape[-1])


def orthant_metric_closed_form(n):
    return MetricField(n, lambda x: diagonal(1.0 / x ** 2))


LORENTZ_J = np.diag([1.0, -1.0, -1.0])


def lorentz_potential():
    """phi = (x0^2 - x1^2 - x2^2)^(-3/2) on the future light cone, analytic."""

    def q(x):
        return np.einsum("...i,ij,...j->...", x, LORENTZ_J, x)

    def log_hess(x):
        y = x @ LORENTZ_J
        return (-3.0 * LORENTZ_J / q(x)[..., None, None]
                + 6.0 * np.einsum("...i,...j->...ij", y, y) / (q(x) ** 2)[..., None, None])

    def log_third(x):
        y = x @ LORENTZ_J
        sym = (np.einsum("ij,...k->...ijk", LORENTZ_J, y)
               + np.einsum("ik,...j->...ijk", LORENTZ_J, y)
               + np.einsum("jk,...i->...ijk", LORENTZ_J, y))
        return (6.0 * sym / (q(x) ** 2)[..., None, None, None]
                - 24.0 * np.einsum("...i,...j,...k->...ijk", y, y, y)
                / (q(x) ** 3)[..., None, None, None])

    return PotentialField(3, lambda x: q(x) ** -1.5,
                          domain=lambda x: x[..., 0] > np.hypot(x[..., 1], x[..., 2]),
                          log_hess=log_hess, log_third=log_third)


def lorentz_points(rng, count):
    """Points well inside the light cone."""
    x = rng.normal(0.0, 0.3, size=(count, 3))
    x[:, 0] = 1.0 + np.abs(x[:, 0]) + np.hypot(x[:, 1], x[:, 2])
    return x


def fd_orthant_potential(n):
    """The orthant potential with no analytic derivatives."""
    base = orthant_potential(n)
    return PotentialField(n, base.func, domain=base.domain)


def metric_compatibility_residual(metric, x):
    """Max |d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il| at x: the
    Levi-Civita symbols must make the metric parallel."""
    g = metric.value(x)
    dg = metric.derivative(x)
    gamma = christoffel(metric, x)
    nabla = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    return float(np.max(np.abs(nabla)))


class TestChristoffel:
    def test_euclidean_is_zero(self):
        gamma = christoffel(euclidean_metric(3), [0.3, -1.0, 2.0])
        assert np.max(np.abs(gamma)) == 0.0

    def test_orthant_closed_form(self):
        x = np.array([1.0, 2.0])
        gamma = christoffel(orthant_metric_closed_form(2), x)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = -1.0
        expected[1, 1, 1] = -0.5
        assert np.max(np.abs(gamma - expected)) < 1e-8

    def test_sphere_against_symbolic(self):
        u = np.array([1.0, 0.5])
        gamma = christoffel(round_sphere_metric(), u)
        assert gamma[0, 1, 1] == pytest.approx(-np.sin(1.0) * np.cos(1.0), rel=1e-9)
        assert gamma[1, 0, 1] == pytest.approx(np.cos(1.0) / np.sin(1.0), rel=1e-9)

    def test_lower_symmetry_exact(self):
        rng = np.random.default_rng(3)
        metric = MetricField(2, lambda x: diagonal(np.stack(
            [1.0 + x[..., 0] ** 2, 2.0 + np.sin(x[..., 1]) ** 2], axis=-1)))
        for _ in range(4):
            gamma = christoffel(metric, rng.normal(size=2))
            assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))

    def test_metric_compatibility(self):
        resid = metric_compatibility_residual(round_sphere_metric(), [1.1, 0.4])
        assert resid < 1e-6

    def test_degenerate_metric_raises(self):
        metric = MetricField(2, lambda x: diagonal(np.stack(
            [np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1)))
        with pytest.raises(DegenerateMetric):
            christoffel(metric, [0.0, 0.0])


class TestTorsionFree:
    """Gamma is symmetrized as it is built, so torsion is zero by construction."""

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_registry_christoffel_is_exactly_symmetric(self, name):
        metric = METRICS[name]()
        points = np.random.default_rng(1).normal(0.5, 0.4, size=(4, metric.dim))
        gamma = christoffel(metric, points)
        assert np.array_equal(gamma, gamma.swapaxes(-2, -1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthant_hessian_structure_is_exactly_symmetric(self, n):
        points = np.exp(np.random.default_rng(n).normal(0.0, 0.3, size=(8, n))) + 0.2
        for phi in (orthant_potential(n), fd_orthant_potential(n)):
            gamma = -hessian_structure(hessian_log_metric(phi), points).c
            assert np.array_equal(gamma, gamma.swapaxes(-2, -1))


class TestStackedCalls:
    """Each consumer calls its field once per stack and reproduces the
    per-point loop bit for bit."""

    @pytest.mark.parametrize("name", ["round_sphere2", "offdiag_linear2", "orthant2", "pullback"])
    def test_curvature_flatness_equals_the_per_point_loop(self, name):
        if name == "orthant2":
            metric = hessian_log_metric(fd_orthant_potential(2))
        elif name == "pullback":
            metric = MetricField(2, lambda x: diagonal(np.exp(x) + x[..., ::-1] ** 2))
        else:
            metric = METRICS[name]()
        points = np.random.default_rng(5).uniform(0.3, 1.4, size=(4, 2))
        calls = []
        counted = MetricField(2, lambda x: calls.append(x.shape) or metric.value(x),
                              deriv=metric.deriv)
        stacked = curvature_flatness(counted, points)
        # g once on the stack, for Gamma there and for the scale, once on its
        # shifted points, and twice more where dg is differenced from g
        assert len(calls) == (2 if metric.deriv is not None else 4)
        loop = 0.0
        for x in points:
            riem = riemann_tensor(lambda y: christoffel(metric, y), x, christoffel(metric, x))
            scale = max(1.0, float(np.max(np.abs(metric.value(x)))))
            loop = max(loop, float(np.max(np.abs(riem))) / scale)
        assert stacked == loop

    @pytest.mark.parametrize("n", [2, 3])
    def test_automorphism_residual_equals_the_per_point_loop(self, n):
        rng = np.random.default_rng(30 + n)
        phi = orthant_potential(n)
        points = np.exp(rng.normal(0.0, 0.5, size=(6, n)))
        shear = np.eye(n) + 0.1 * np.abs(rng.normal(size=(n, n)))
        for A in (np.diag(np.exp(rng.normal(size=n))), shear):
            loop = 0.0
            for x in points:
                vx, vax = phi.value(x), phi.value(A @ x)
                loop = max(loop, abs(np.log(vax) - np.log(vx) + np.log(np.linalg.det(A))))
            assert automorphism_invariance_residual(phi, A, points) == loop

    def test_a_metric_of_the_wrong_shape_is_dimension_mismatch(self):
        one_point = MetricField(2, lambda x: np.eye(2))
        assert np.array_equal(one_point.value([0.0, 1.0]), np.eye(2))
        with pytest.raises(DimensionMismatch, match=r"shape \(2, 2\) for points \(3, 2\)"):
            one_point.value(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            christoffel(one_point, [0.0, 1.0])


class TestCurvature:
    def test_euclidean_flat(self):
        assert curvature_flatness(euclidean_metric(2), [[0.1, 0.2], [1.5, -0.7]]) == 0.0

    def test_orthant_flat(self):
        assert curvature_flatness(orthant_metric_closed_form(2),
                                  [[1.0, 2.0], [0.4, 1.7]]) < 1e-6

    def test_sphere_not_flat(self):
        assert curvature_flatness(round_sphere_metric(), [[1.0, 0.5]]) > 0.5

    def test_classification_survives_coordinate_change(self):
        """Flat stays flat and curved stays curved under x -> (exp, affine)
        reparametrizations; only the residual magnitude moves."""
        diffeo = lambda x: np.stack([np.exp(x[..., 0]), x[..., 1] + 0.3 * x[..., 0]], axis=-1)

        def jac(x):
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = np.exp(x[..., 0])
            out[..., 1, 0], out[..., 1, 1] = 0.3, 1.0
            return out

        def pullback(metric):
            # h(x) = J(x)^T g(diffeo(x)) J(x)
            return MetricField(2, lambda x: jac(x).swapaxes(-1, -2)
                               @ metric.value(diffeo(x)) @ jac(x))

        flat = pullback(orthant_metric_closed_form(2))
        assert curvature_flatness(flat, [[0.1, 1.0]]) <= 1e-5

        curved = pullback(round_sphere_metric())
        assert not curvature_flatness(curved, [[0.1, 0.4]]) <= 1e-5


class TestHessianLogMetric:
    def test_orthant_value_by_finite_differences(self):
        plain = PotentialField(2, lambda x: 1.0 / (x[..., 0] * x[..., 1]),
                               domain=lambda x: np.all(x > 0, axis=-1))
        g = hessian_log_metric(plain).value([1.0, 2.0])
        assert np.allclose(g, np.diag([1.0, 0.25]), atol=1e-6)

    def test_exp_quadratic_gives_constant_hessian(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        phi = PotentialField(2, lambda x: np.exp(np.einsum("...i,ij,...j->...", x, q, x)))
        g = hessian_log_metric(phi).value([0.3, -0.2])
        assert np.allclose(g, q + q.T, atol=1e-5)

    def test_positive_definite_on_random_points(self):
        rng = np.random.default_rng(2)
        metric = hessian_log_metric(orthant_potential(2))
        for _ in range(10):
            x = rng.uniform(0.2, 3.0, size=2)
            assert np.min(np.linalg.eigvalsh(metric.value(x))) > 0.0

    def test_constant_rescaling_leaves_metric_unchanged(self):
        base = orthant_potential(2)
        x = [0.8, 1.3]
        # analytic mode: the log-Hessian of c*phi IS the log-Hessian of phi
        scaled = PotentialField(2, lambda x: 7.5 * base.func(x), domain=base.domain,
                                log_hess=base.log_hess, log_third=base.log_third)
        assert np.array_equal(hessian_log_metric(base).value(x),
                              hessian_log_metric(scaled).value(x))
        # finite-difference mode: the constant cancels inside the stencil
        fd_base = hessian_log_metric(PotentialField(2, base.func, domain=base.domain))
        fd_scaled = hessian_log_metric(PotentialField(2, scaled.func, domain=base.domain))
        assert np.allclose(fd_base.value(x), fd_scaled.value(x), atol=1e-9)

    @pytest.mark.parametrize("name", [k for k, make in POTENTIALS.items()
                                      if make().log_third is not None])
    def test_registry_log_third_is_the_derivative_of_log_hess(self, name):
        """The cone rows take R from Gamma alone, so they trust d_k g_ij to
        be the derivative of g; a registry entry must keep the two in step."""
        phi = POTENTIALS[name]()
        for x in np.random.default_rng(4).uniform(0.3, 3.0, size=(4, phi.dim)):
            exact = phi.log_third(x)
            fd = numdiff.jacobian(phi.log_hess, x)
            assert np.max(np.abs(fd - exact)) <= 1e-6 * max(1.0, np.max(np.abs(exact)))

    @pytest.mark.parametrize("name", [k for k, make in POTENTIALS.items()
                                      if make().log_hess is not None])
    def test_registry_log_hess_matches_the_finite_difference_path(self, name):
        phi = POTENTIALS[name]()
        fd = hessian_log_metric(PotentialField(phi.dim, phi.func, domain=phi.domain))
        for x in np.random.default_rng(5).uniform(0.3, 3.0, size=(4, phi.dim)):
            exact = hessian_log_metric(phi).value(x)
            assert np.max(np.abs(fd.value(x) - exact)) <= 1e-4 * max(1.0, np.max(np.abs(exact)))

    def test_nonpositive_potential_rejected(self):
        phi = PotentialField(1, lambda x: x[..., 0])
        with pytest.raises(NonPositivePotential):
            hessian_log_metric(phi).value([-2.0])


class TestConeMultiplication:
    def test_hand_contraction(self):
        out = cone_multiply(orthant_potential(2), [1.0, 2.0], [1.0, 0.0], [1.0, 0.0])
        assert np.allclose(out, [1.0, 0.0], atol=1e-10)

    def test_base_point_is_the_unit(self):
        x = np.array([1.0, 2.0])
        a = np.array([0.3, -0.7])
        out = cone_multiply(orthant_potential(2), x, x, a)
        assert np.allclose(out, a, atol=1e-10)

    def test_broadcasts_over_points(self):
        rng = np.random.default_rng(2)
        phi = orthant_potential(3)
        x = np.exp(rng.normal(0.0, 0.3, size=(4, 3))) + 0.2
        a, b = rng.normal(size=(2, 4, 3))
        stacked = cone_multiply(phi, x, a, b)
        assert stacked.shape == (4, 3)
        for p in range(4):
            assert np.array_equal(stacked[p], cone_multiply(phi, x[p], a[p], b[p]))
        # one vector is shared by every point
        shared = cone_multiply(phi, x, a[0], b)
        assert np.array_equal(shared[2], cone_multiply(phi, x[2], a[0], b[2]))
        # one base point, several vector pairs
        at_one = cone_multiply(phi, x[1], a, b)
        assert at_one.shape == (4, 3)
        assert np.array_equal(at_one[3], cone_multiply(phi, x[1], a[3], b[3]))

    def test_rejects_wrong_shapes(self):
        phi = orthant_potential(2)
        with pytest.raises(DimensionMismatch):
            cone_multiply(phi, [1.0, 2.0, 3.0], [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            cone_multiply(phi, np.ones((2, 2, 2)), [1.0, 0.0], [1.0, 0.0])
        # point counts that do not broadcast
        with pytest.raises(DimensionMismatch, match="broadcast"):
            cone_multiply(phi, np.ones((4, 2)), np.ones((3, 2)), [1.0, 0.0])
        # an empty stack, in any operand
        for empty in range(3):
            args = [[1.0, 2.0], [1.0, 0.0], [1.0, 0.0]]
            args[empty] = np.ones((0, 2))
            with pytest.raises(DimensionMismatch):
                cone_multiply(phi, *args)

    def test_bilinear_and_commutative(self):
        rng = np.random.default_rng(6)
        phi = orthant_potential(3)
        x = np.array([1.0, 0.5, 2.0])
        for _ in range(5):
            a, b = rng.normal(size=3), rng.normal(size=3)
            two_a = cone_multiply(phi, x, 2.0 * a, b)
            assert np.allclose(two_a, 2.0 * cone_multiply(phi, x, a, b), atol=1e-12)
            assert np.allclose(cone_multiply(phi, x, a, b),
                               cone_multiply(phi, x, b, a), atol=1e-12)


class TestHessianStructure:
    @pytest.mark.parametrize("phi, lorentz", [(orthant_potential(2), False),
                                              (orthant_potential(3), False),
                                              (fd_orthant_potential(2), False),
                                              (lorentz_potential(), True)],
                             ids=["orthant2", "orthant3", "fd_orthant2", "lorentz3"])
    def test_stacked_gamma_is_christoffel_at_each_point(self, phi, lorentz):
        rng = np.random.default_rng(4)
        points = (lorentz_points(rng, 6) if lorentz
                  else np.exp(rng.normal(0.0, 0.3, size=(6, phi.dim))) + 0.2)
        metric = hessian_log_metric(phi)
        structure = hessian_structure(metric, points)
        assert structure.c.shape == (6,) + (phi.dim,) * 3
        assert structure.riemann.shape == (6,) + (phi.dim,) * 4
        for x, g, gamma in zip(points, structure.pairing, -structure.c):
            assert np.array_equal(g, metric.value(x))
            assert np.array_equal(gamma, christoffel(metric, x))

    def test_one_point_is_a_stack_of_one(self):
        metric = hessian_log_metric(orthant_potential(2))
        one = hessian_structure(metric, [1.0, 2.0])
        assert one.c.shape == (1, 2, 2, 2)
        assert np.array_equal(one.c, hessian_structure(metric, [[1.0, 2.0]]).c)

    @pytest.mark.parametrize("points", [[], np.ones((0, 2)), [[1.0, 2.0, 3.0]]],
                             ids=["empty_list", "empty_stack", "wrong_dim"])
    def test_rejects_empty_or_misshapen_stacks(self, points):
        with pytest.raises(DimensionMismatch):
            hessian_structure(hessian_log_metric(orthant_potential(2)), points)

    def test_lorentz_closed_form_curvature_matches_differenced_connection(self):
        metric = hessian_log_metric(lorentz_potential())
        points = lorentz_points(np.random.default_rng(7), 4)
        structure = hessian_structure(metric, points)
        for x, riem in zip(points, structure.riemann):
            fd = riemann_tensor(lambda y: christoffel(metric, y), x, christoffel(metric, x))
            assert np.max(np.abs(riem - fd)) <= 1e-5
            assert np.max(np.abs(riem)) > 1e-2  # not flat

    def test_curvature_is_the_associator_of_the_tangent_algebra(self):
        """R(c, a, b) = b o (a o c) - a o (b o c) with a o b = -Gamma(a, b)."""
        phi = lorentz_potential()
        rng = np.random.default_rng(8)
        points = lorentz_points(rng, 5)
        a, b, c = rng.normal(size=(3, 5, 3))
        structure = hessian_structure(hessian_log_metric(phi), points)
        curvature = np.einsum("pijkl,pj,pk,pl->pi", structure.riemann, c, a, b)
        assoc = (cone_multiply(phi, points, b, cone_multiply(phi, points, a, c))
                 - cone_multiply(phi, points, a, cone_multiply(phi, points, b, c)))
        assert np.max(np.abs(curvature - assoc)) <= 1e-12 * max(1.0, np.max(np.abs(assoc)))
        assert np.max(np.abs(assoc)) > 1e-2

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthant_curvature_is_exactly_zero(self, n):
        points = np.exp(np.random.default_rng(n).normal(0.0, 0.3, size=(8, n))) + 0.2
        structure = hessian_structure(hessian_log_metric(orthant_potential(n)), points)
        assert np.max(np.abs(structure.riemann)) == 0.0
        assert structure.curvature() == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_fd_orthant_is_flat_within_one_difference_level(self, n):
        """Without analytic derivatives, g and dg are differenced once each;
        R no longer differences Gamma on top of that (4.5e-2 and 6.9e-2
        through riemann_tensor at n = 2 and 3)."""
        points = np.exp(np.random.default_rng(0).normal(0.0, 0.3, size=(3, n))) + 0.2
        metric = hessian_log_metric(fd_orthant_potential(n))
        assert hessian_structure(metric, points).curvature() <= 1e-3

    def test_singular_metric_names_the_worst_point(self):
        metric = MetricField(2, lambda x: diagonal(np.stack([np.ones(x.shape[:-1]), x[..., 1]],
                                                            axis=-1)),
                             deriv=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2)))
        with pytest.raises(DegenerateMetric, match=r"at \[1\. 0\.\]"):
            hessian_structure(metric, [[1.0, 1.0], [1.0, 0.0], [1.0, 1e-13]])


class TestAutomorphismInvariance:
    def test_diagonal_scaling_is_invariant(self):
        resid = automorphism_invariance_residual(
            orthant_potential(2), np.diag([2.0, 3.0]), [[1.0, 1.0], [0.5, 2.0]])
        assert resid < 1e-12

    def test_identity_map(self):
        resid = automorphism_invariance_residual(
            orthant_potential(2), np.eye(2), [[1.0, 1.0]])
        assert resid == 0.0

    def test_shear_breaks_invariance(self):
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        resid = automorphism_invariance_residual(orthant_potential(2), shear, [[1.0, 1.0]])
        assert resid == pytest.approx(np.log(2.0))
        assert resid > 0.1

    def test_orbit_leaving_domain_raises(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # det < 0 rejected outright
        with pytest.raises(ValueError):
            automorphism_invariance_residual(orthant_potential(2), flip, [[1.0, 1.0]])
        push_out = np.array([[1.0, -2.0], [0.0, 1.0]])
        with pytest.raises(DomainViolation):
            automorphism_invariance_residual(orthant_potential(2), push_out, [[1.0, 1.0]])


class TestErrorContract:
    """Undefined constructions raise FrobsymError subclasses that are still
    ValueErrors."""

    @pytest.mark.parametrize("build", [
        lambda: MetricField(2, lambda x: np.array([[1.0, 0.5], [0.0, 1.0]])).value([0.0, 0.0]),
        lambda: automorphism_invariance_residual(orthant_potential(2),
                                                 np.array([[0.0, 1.0], [1.0, 0.0]]), [[1.0, 1.0]]),
    ], ids=["metric_not_symmetric", "determinant_not_positive"])
    def test_invalid_structure(self, build):
        with pytest.raises(InvalidStructure) as info:
            build()
        assert isinstance(info.value, FrobsymError)
        assert isinstance(info.value, ValueError)


    def test_domain_violation_names_the_first_point_outside(self):
        stack = np.array([[1.0, 1.0], [0.5, -0.25], [-3.0, 2.0]])
        with pytest.raises(DomainViolation) as info:
            orthant_potential(2).value(stack)
        # the whole stack was printed, with no point named
        assert str(info.value) == f"point outside the declared domain of the potential at {stack[1]}"

    def test_third_tensor_fallback_names_one_stencil_point_outside(self):
        phi = orthant_potential(2)
        bare = PotentialField(2, phi.func, phi.domain)
        x = np.array([0.004, 1.0])
        with pytest.raises(DomainViolation) as info:
            bare.third_tensor(x)
        # the first stencil point: index (0, 0, 0), each offset -2 h
        shift = 0.0
        for _ in range(3):
            shift += -2.0 * 5e-3
        first = np.array([x[0] + shift, x[1]])
        assert str(info.value) == f"point outside the declared domain of the potential at {first}"


class TestDualConnections:
    def test_binary_family_residuals(self):
        rep = dual_connections(bernoulli_family(), [0.5])
        assert rep.duality_residual < 1e-6
        assert rep.curvature_growth < 1e-6
        assert rep.curvature_mixture < 1e-6

    def test_connections_average_to_levi_civita(self):
        # LC -+ t/2 average back to LC, up to the last-bit rounding of the
        # two additions
        beta = np.array([0.5])
        rep = dual_connections(bernoulli_family(), beta)
        lc = christoffel(MetricField(1, _binary_metrics), beta)
        assert np.allclose(0.5 * (rep.gamma_growth + rep.gamma_mixture), lc,
                           rtol=0.0, atol=1e-14)

    def test_two_parameter_family_residuals(self):
        # n = 2: the connection symbols are nonzero, so this exercises the
        # genuine curvature path rather than the 1-d triviality
        from frobsym.registry import categorical_family

        rep = dual_connections(categorical_family(3), [0.3, -0.2])
        assert rep.duality_residual < 1e-6
        assert rep.curvature_growth < 1e-6
        assert rep.curvature_mixture < 1e-6

    def test_symmetric_family_has_equal_connections(self):
        """At beta = 0 the +-1/2-valued statistic has vanishing skewness,
        so both connections coincide with the metric one."""
        fam = ExponentialFamily(np.array([[-0.5, 0.5]]))
        rep = dual_connections(fam, [0.0])
        assert np.allclose(rep.gamma_growth, rep.gamma_mixture, atol=1e-12)

    @pytest.mark.parametrize("case", ["bernoulli", "categorical3", "random2", "random3"])
    def test_stacked_pair_matches_one_curvature_per_connection(self, case):
        from frobsym.registry import categorical_family

        rng = np.random.default_rng(21)
        if case.startswith("random"):
            n = int(case[-1])
            fam = ExponentialFamily(rng.normal(size=(n, 3 * n)), rng.uniform(0.5, 2.0, 3 * n))
        else:
            fam = bernoulli_family() if case == "bernoulli" else categorical_family(3)
        for _ in range(3):
            beta = rng.normal(0.0, 0.7, fam.n)
            rep = dual_connections(fam, beta)
            assert ((rep.duality_residual, rep.curvature_growth, rep.curvature_mixture)
                    == one_curvature_per_connection(fam, beta))

    def test_cumulant_calls_do_not_grow_with_the_dimension(self, monkeypatch):
        import frobsym.geometry as geometry

        real = geometry.cumulant_tensor
        counts = {}
        for n in (1, 4):
            rng = np.random.default_rng(40 + n)
            fam = ExponentialFamily(rng.normal(size=(n, 3 * n)), rng.uniform(0.5, 2.0, 3 * n))
            calls = []
            monkeypatch.setattr(geometry, "cumulant_tensor",
                                lambda f, b, order: calls.append(order) or real(f, b, order))
            dual_connections(fam, rng.normal(0.0, 0.7, n))
            counts[n] = calls
        # one call per stack of points, whatever the number of coordinates:
        # g, dg and the skewness at beta, then g, dg, g and the skewness on
        # the shifted stack of the curvature difference
        assert counts[1] == counts[4] == [2, 2, 3, 2, 2, 2, 3]


def one_curvature_per_connection(fam, beta):
    """dual_connections' residuals with each connection's R differenced on
    its own, by the one-connection Riemann formula: the stacked pair's reference."""
    from frobsym import cumulant_tensor

    def kappa(b, order):
        return cumulant_tensor(fam, b, order)

    def point_loop(f):
        """``f`` of one point, mapped over a stack row by row."""
        return lambda bs: np.array([f(b) for b in bs.reshape(-1, fam.n)]).reshape(
            bs.shape[:-1] + np.shape(f(bs.reshape(-1, fam.n)[0])))

    metric = MetricField(fam.n, point_loop(lambda b: kappa(b, 2)))

    def plus_minus(b):
        lc = christoffel(metric, b)
        half = 0.5 * np.einsum("il,ljk->ijk", np.linalg.inv(metric.value(b)), kappa(b, 3))
        return lc - half, lc + half

    def riemann(connection):
        dgamma = numdiff.jacobian(point_loop(connection), beta, h=numdiff.SECOND_ORDER_STEP)
        gamma = connection(beta)
        return (np.einsum("kilj->ijkl", dgamma) - np.einsum("likj->ijkl", dgamma)
                + np.einsum("ikm,mlj->ijkl", gamma, gamma)
                - np.einsum("ilm,mkj->ijkl", gamma, gamma))

    g = metric.value(beta)
    gp, gm = plus_minus(beta)
    duality = float(np.max(np.abs(metric.derivative(beta) - np.einsum("jl,lki->kij", g, gp)
                                  - np.einsum("il,lkj->kij", g, gm))))
    return (duality,
            float(np.max(np.abs(riemann(lambda b: plus_minus(b)[0])))),
            float(np.max(np.abs(riemann(lambda b: plus_minus(b)[1])))))


def _binary_metrics(betas):
    from frobsym import cumulant_tensor

    return np.array([cumulant_tensor(bernoulli_family(), b, 2)
                     for b in betas.reshape(-1, 1)]).reshape(betas.shape[:-1] + (1, 1))
