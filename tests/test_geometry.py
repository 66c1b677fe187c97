"""Connection, curvature, cone and pencil checks.

Closed forms used as oracles:

  orthant metric  diag(1/x_i^2):  Gamma^i_ii = -1/x_i, all others zero,
                                  curvature zero (product of 1-d metrics)
  round sphere    diag(1, sin^2 u): Gamma^1_22 = -sin u cos u,
                                  Gamma^2_12 = cot u, curvature ~ 1
  shear on the orthant potential at (1,1): |log phi(Ax) - log phi(x)| = log 2
"""

import numpy as np
import pytest

from frobsym import (
    DegenerateMetric,
    DegeneratePencil,
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
    flat_pencil_check,
    hessian_log_metric,
)
from frobsym.geometry import metric_compatibility_residual, pullback_metric
from frobsym.registry import (
    bernoulli_family,
    euclidean_metric,
    offdiagonal_linear_metric,
    orthant_potential,
    round_sphere_metric,
)


def orthant_metric_closed_form(n):
    return MetricField(n, lambda x: np.diag(1.0 / np.asarray(x) ** 2))


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
        metric = MetricField(2, lambda x: np.diag([1.0 + x[0] ** 2, 2.0 + np.sin(x[1]) ** 2]))
        for _ in range(4):
            gamma = christoffel(metric, rng.normal(size=2))
            assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))

    def test_metric_compatibility(self):
        resid = metric_compatibility_residual(round_sphere_metric(), [1.1, 0.4])
        assert resid < 1e-6

    def test_degenerate_metric_raises(self):
        metric = MetricField(2, lambda x: np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateMetric):
            christoffel(metric, [0.0, 0.0])


class TestCurvature:
    def test_euclidean_flat(self):
        report = curvature_flatness(euclidean_metric(2), [[0.1, 0.2], [1.5, -0.7]])
        assert report.max_riemann == 0.0
        assert report.max_torsion == 0.0
        assert report.flat

    def test_orthant_flat(self):
        report = curvature_flatness(orthant_metric_closed_form(2),
                                    [[1.0, 2.0], [0.4, 1.7]])
        assert report.max_riemann < 1e-6
        assert report.flat

    def test_sphere_not_flat(self):
        report = curvature_flatness(round_sphere_metric(), [[1.0, 0.5]])
        assert report.max_riemann > 0.5
        assert not report.flat

    def test_classification_survives_coordinate_change(self):
        """Flat stays flat and curved stays curved under x -> (exp, affine)
        reparametrizations; only the residual magnitude moves."""
        diffeo = lambda x: np.array([np.exp(x[0]), x[1] + 0.3 * x[0]])
        jac = lambda x: np.array([[np.exp(x[0]), 0.0], [0.3, 1.0]])

        flat = pullback_metric(orthant_metric_closed_form(2), diffeo, jac=jac)
        assert curvature_flatness(flat, [[0.1, 1.0]], tol=1e-5).flat

        curved = pullback_metric(round_sphere_metric(), diffeo, jac=jac)
        assert not curvature_flatness(curved, [[0.1, 0.4]], tol=1e-5).flat


class TestHessianLogMetric:
    def test_orthant_value_by_finite_differences(self):
        plain = PotentialField(2, lambda x: 1.0 / (x[0] * x[1]),
                               domain=lambda x: bool(np.all(x > 0)))
        g = hessian_log_metric(plain).value([1.0, 2.0])
        assert np.allclose(g, np.diag([1.0, 0.25]), atol=1e-6)

    def test_exp_quadratic_gives_constant_hessian(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        phi = PotentialField(2, lambda x: float(np.exp(x @ q @ x)))
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

    def test_nonpositive_potential_rejected(self):
        phi = PotentialField(1, lambda x: float(x[0]))
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
        lc = christoffel(MetricField(1, _binary_metric), beta)
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


def _binary_metric(beta):
    from frobsym import cumulant_tensor

    return cumulant_tensor(bernoulli_family(), beta, 2).values


class TestFlatPencil:
    def test_one_dimensional_always_passes(self):
        metric = MetricField(1, lambda u: np.array([[u[0]]]))
        report = flat_pencil_check(metric, 0, [0.5, 1.5], [[1.0], [2.0]])
        assert report.passed

    def test_offdiagonal_linear_metric_passes(self):
        report = flat_pencil_check(offdiagonal_linear_metric(), 0,
                                   [0.5, -0.3, 1.2, 2.0, -1.1],
                                   [[1.0, 0.4], [2.0, -0.3]])
        assert report.residual_base < 1e-6
        assert report.residual_derived < 1e-6
        assert max(report.residual_combinations.values()) < 1e-6
        assert report.passed

    def test_constant_metric_has_no_pencil(self):
        with pytest.raises(DegeneratePencil):
            flat_pencil_check(euclidean_metric(2), 0, [0.5], [[1.0, 0.4]])
