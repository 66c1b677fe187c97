"""Forms, the split-coordinate calculus, the Legendre transform, and flows.

Sign oracles, worked by hand:

  canonical n=1:      J = [[0, 1], [-1, 0]], pairing((1,0),(0,1)) = +1
  realified split form, m=1, g=1:  +dx^dy after orientation normalization
  H = (p^2 + x^2)/2 at (x,p) = (1,0):  flow vector (0, -1)
  velocity (1,0,0,0), diag(1,1,1,-1):  L = 0, p = (1,0,0,0), H = 1
  velocity (0,0,0,1):                  L = -1, p = (0,0,0,-1), H = 0
"""

import numpy as np
import pytest

from frobsym import (
    DegenerateForm,
    LorentzLagrangian,
    MetricField,
    Observable,
    PhasePoint,
    PotentialField,
    SeparableHamiltonian,
    TwoForm,
    canonical_two_form,
    closedness_residual,
    dbar_split_residuals,
    dolbeault_form,
    exterior_derivative,
    hamiltonian_vector_field,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    paracomplex_two_form,
    quadratic_energy,
    realified_dolbeault_two_form,
)
from frobsym.errors import (DimensionMismatch, FrobsymError, InvalidStructure,
                            NonConvergence, NonFiniteValue)
from frobsym.registry import adapted_mixed2, adapted_quartic1
from frobsym.symplectic import split_exterior_derivative


def oscillator(dim=1):
    return Observable(
        lambda y: 0.5 * float(y.p @ y.p + y.z @ y.z),
        grad=lambda y: np.concatenate([y.z, y.p]),
    )


class TestCanonicalForm:
    def test_one_dof_matrix(self):
        J = canonical_two_form(1).matrix([0.0, 0.0])
        assert np.array_equal(J, [[0.0, 1.0], [-1.0, 0.0]])

    def test_inverse_identity(self):
        form = canonical_two_form(3)
        J = form.matrix(np.zeros(6))
        assert np.allclose(J @ form.inverse(np.zeros(6)), np.eye(6), atol=1e-12)

    def test_pairing_antisymmetric(self):
        form = canonical_two_form(1)
        xi, eta = [1.0, 0.0], [0.0, 1.0]
        assert form.pair([0, 0], xi, eta) == 1.0
        assert form.pair([0, 0], eta, xi) == -1.0

    def test_nonantisymmetric_coefficients_rejected(self):
        bad = TwoForm(2, lambda x: np.array([[0.0, 1.0], [-0.5, 0.0]]))
        with pytest.raises(ValueError):
            bad.matrix([0.0, 0.0])


class TestErrorContract:
    """Undefined constructions raise FrobsymError subclasses that are still
    ValueErrors."""

    @pytest.mark.parametrize("build, error", [
        (lambda: TwoForm(2, lambda x: np.array([[0.0, 1.0], [-0.5, 0.0]])).matrix([0.0, 0.0]),
         InvalidStructure),
        (lambda: canonical_two_form(0), DimensionMismatch),
        (lambda: split_exterior_derivative(lambda x: float(x[0]), 0, [0.1, 0.2], block="up"),
         InvalidStructure),
        (lambda: LorentzLagrangian(signature=[1.0, 0.5]), InvalidStructure),
    ], ids=["antisymmetry", "degrees_of_freedom", "block", "signature"])
    def test_symplectic_constructions(self, build, error):
        with pytest.raises(error) as info:
            build()
        assert isinstance(info.value, FrobsymError)
        assert isinstance(info.value, ValueError)


class TestPhasePoint:
    def test_replace_flat_blocks_are_views_of_the_input(self):
        y = PhasePoint([0.0, 1.0], [2.0, 3.0], [4.0])
        values = np.arange(5.0) + 10.0
        moved = y.replace_flat(values)
        assert moved.layout == y.layout
        built = PhasePoint(values[:2], values[2:4], values[4:])
        for block, expected in zip((moved.z, moved.p, moved.lam), (built.z, built.p, built.lam)):
            assert block.ndim == 1 and block.dtype == float
            assert np.shares_memory(block, values)
            assert np.array_equal(block, expected)
        assert np.array_equal(moved.flat(), values)

    def test_replace_flat_converts_a_list(self):
        moved = PhasePoint([0.0], [1.0]).replace_flat([5, 6])
        assert np.array_equal(moved.flat(), [5.0, 6.0]) and moved.z.dtype == float

    @pytest.mark.parametrize("values", [np.arange(4.0).reshape(2, 2), np.arange(3.0),
                                        np.float64(1.0)], ids=["2d", "short", "scalar"])
    def test_replace_flat_needs_a_1d_vector_of_the_layout(self, values):
        with pytest.raises(DimensionMismatch):
            PhasePoint([0.0, 1.0], [2.0, 3.0]).replace_flat(values)

    @pytest.mark.parametrize("z, p", [(np.zeros((2, 2)), np.zeros(2)),
                                      (np.zeros(2), np.zeros((1, 2)))], ids=["z", "p"])
    def test_blocks_beyond_1d_are_dimension_mismatch(self, z, p):
        with pytest.raises(DimensionMismatch):
            PhasePoint(z, p)

    def test_scalar_blocks_become_length_one(self):
        y = PhasePoint(1.0, 2.0)
        assert y.layout == (1, 1, 0)
        assert np.array_equal(y.flat(), [1.0, 2.0])


class TestRealifiedSplitForm:
    def test_unit_metric_is_dx_wedge_dy(self):
        form = paracomplex_two_form(np.array([[1.0]]), 1)
        assert np.array_equal(form.matrix([0.3, -0.8]), [[0.0, 1.0], [-1.0, 0.0]])

    def test_zero_metric_gives_zero_form(self):
        form = paracomplex_two_form(np.zeros((2, 2)), 2)
        assert np.max(np.abs(form.matrix(np.zeros(4)))) == 0.0

    def test_constant_metric_closed(self):
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        form = paracomplex_two_form(g, 2)
        assert closedness_residual(form, [np.zeros(4), np.ones(4)]) == 0.0

    def test_symmetric_metric_matches_own_antisymmetrization(self):
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        J = paracomplex_two_form(g, 2).matrix(np.zeros(4))
        assert np.array_equal(J, 0.5 * (J - J.T))


class TestDolbeault:
    def test_bilinear_potential(self):
        phi = PotentialField(2, lambda w: w[0] * w[1])
        assert dolbeault_form(phi, [0.4, -1.2]).item() == pytest.approx(1.0, abs=1e-9)

    def test_plus_only_potential_vanishes(self):
        phi = PotentialField(2, lambda w: w[0] ** 2)
        assert dolbeault_form(phi, [3.0, 1.0]).item() == pytest.approx(0.0, abs=1e-9)

    def test_mixed_cubic(self):
        phi = PotentialField(2, lambda w: w[0] ** 2 * w[1])
        assert dolbeault_form(phi, [3.0, 5.0]).item() == pytest.approx(6.0, rel=1e-7)

    def test_realified_form_closed_for_any_potential(self):
        rng = np.random.default_rng(9)
        for phi in (adapted_quartic1(), adapted_mixed2()):
            form = realified_dolbeault_two_form(phi)
            pts = [rng.normal(0.0, 0.6, phi.dim) for _ in range(3)]
            assert closedness_residual(form, pts) < 1e-5

    def test_block_form_with_potential_derived_metric_closed(self):
        """Feeding the mixed-partial matrix of a pairwise potential into the
        [[0, G], [-G, 0]] block form keeps it closed: each diagonal entry
        only depends on its own (x^a, y^a) pair."""
        phi = PotentialField(4, lambda w: (w[0] * w[2]) ** 2 + (w[1] * w[3]) ** 4)

        def g(point):
            x, y = point[:2], point[2:]
            adapted = np.concatenate([x + y, x - y])
            return dolbeault_form(phi, adapted)

        form = paracomplex_two_form(g, 2)
        rng = np.random.default_rng(13)
        pts = [rng.normal(0.0, 0.5, 4) for _ in range(3)]
        assert closedness_residual(form, pts) < 1e-5


class TestExteriorDerivative:
    def test_constant_form_closed(self):
        form = canonical_two_form(2)
        assert np.max(np.abs(exterior_derivative(form, np.zeros(4)))) == 0.0

    def test_varying_non_closed_block_detected(self):
        def coeffs(pt):
            J = np.zeros((4, 4))
            J[0, 1], J[1, 0] = pt[0], -pt[0]
            J[2, 3], J[3, 2] = pt[2] * pt[1], -pt[2] * pt[1]
            return J

        resid = closedness_residual(TwoForm(4, coeffs), [[1.0, 0.5, 2.0, 0.3]])
        assert resid > 0.1


class TestSplittingLaws:
    def test_polynomial_zero_form(self):
        res = dbar_split_residuals([lambda w: w[0] * w[1]], [[0.3, 0.7]])
        assert max(res.values()) < 1e-6

    def test_constant_function_exact(self):
        res = dbar_split_residuals([lambda w: 4.0], [[0.3, 0.7]])
        assert max(res.values()) == 0.0

    def test_trigonometric_zero_form(self):
        res = dbar_split_residuals([lambda w: np.sin(w[0]) * np.cos(w[1])],
                                   [[0.5, -0.2], [1.1, 0.8]])
        assert max(res.values()) < 1e-5

    def test_two_pair_functions_and_one_forms(self):
        zero_forms = [lambda w: w[0] * w[2] + np.sin(w[1] * w[3])]
        one_forms = [lambda w: np.asarray(w, dtype=float) ** 2,
                     lambda w: np.array([w[1], w[0] * w[2], w[3], np.cos(w[0])])]
        res = dbar_split_residuals(zero_forms, [[0.3, -0.5, 0.9, 0.1]],
                                   one_forms=one_forms)
        assert max(res.values()) < 1e-5


class TestLegendreTransform:
    def test_spacelike_unit_velocity(self):
        lag = LorentzLagrangian(signature=[1, 1, 1, -1])
        p, f, h = legendre_hamiltonian(lag, [1.0, 0, 0, 0], np.zeros(4))
        assert np.allclose(p, [1.0, 0, 0, 0])
        assert np.max(np.abs(f)) == 0.0
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_timelike_unit_velocity(self):
        lag = LorentzLagrangian(signature=[1, 1, 1, -1])
        p, _, h = legendre_hamiltonian(lag, [0.0, 0, 0, 1.0], np.zeros(4))
        assert np.allclose(p, [0, 0, 0, -1.0])
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_gauge_field_force(self):
        lag = LorentzLagrangian(signature=[1, -1], kappa2=0.5,
                                gauge=lambda z: np.array([z[1], z[0] ** 2]))
        xi = np.array([1.0, 2.0])
        z = np.array([0.5, 1.0])
        p, f, _ = legendre_hamiltonian(lag, xi, z)
        # p = C xi_lowered + kappa2 A, f_mu = kappa2 xi^nu dA_nu/dz^mu
        assert np.allclose(p, [1.0 + 0.5 * 1.0, -2.0 + 0.5 * 0.25])
        assert np.allclose(f, [0.5 * (2.0 * 2.0 * 0.5), 0.5 * 1.0], atol=1e-8)

    def test_momentum_map_inverts_for_unit_mass(self):
        lag = LorentzLagrangian(signature=[1, 1, -1, -1])
        rng = np.random.default_rng(21)
        xi = rng.normal(size=4)
        p, _, _ = legendre_hamiltonian(lag, xi, np.zeros(4))
        assert np.allclose(lag.signature * p, xi, atol=1e-12)

    def test_mass_constant_scales_momentum(self):
        lag = LorentzLagrangian(signature=[1, -1], mass_const=3.0)
        p, _, _ = legendre_hamiltonian(lag, [1.0, 1.0], np.zeros(2))
        assert np.allclose(p, [3.0, -3.0])


class TestHamiltonianVectorField:
    def test_oscillator_flow(self):
        X = hamiltonian_vector_field(oscillator(), canonical_two_form(1),
                                     PhasePoint([1.0], [0.0]))
        assert np.allclose(X, [0.0, -1.0], atol=1e-12)

    def test_constant_energy_is_stationary(self):
        H = Observable(lambda y: 3.0, grad=lambda y: np.zeros(2))
        X = hamiltonian_vector_field(H, canonical_two_form(1), PhasePoint([1.0], [2.0]))
        assert np.max(np.abs(X)) == 0.0

    def test_momentum_generates_translation(self):
        H = Observable(lambda y: y.p[0])
        X = hamiltonian_vector_field(H, canonical_two_form(1), PhasePoint([0.3], [0.7]))
        assert np.allclose(X, [1.0, 0.0], atol=1e-10)

    def test_degenerate_form_rejected(self):
        broken = TwoForm(2, lambda x: np.zeros((2, 2)))
        with pytest.raises(DegenerateForm):
            hamiltonian_vector_field(oscillator(), broken, PhasePoint([1.0], [0.0]))


def half_square(x):
    return 0.5 * np.sum(np.square(x), axis=-1)


def separable_oscillator():
    return SeparableHamiltonian(half_square, lambda p: p, half_square, lambda z: z)


class TestIntegrator:
    def test_oscillator_drift_budget(self):
        traj = integrate(separable_oscillator(), PhasePoint([1.0], [0.0]), 1e-3, 10_000)
        assert traj.max_energy_drift < 1e-6

    def test_drift_scales_quadratically_over_a_decade(self):
        drifts = []
        dts = [1e-3, 5e-4, 2.5e-4, 1.25e-4]
        for dt in dts:
            steps = int(round(10.0 / dt))
            drifts.append(integrate(separable_oscillator(), PhasePoint([1.0], [0.0]),
                                    dt, steps).max_energy_drift)
        for first, second in zip(drifts, drifts[1:]):
            assert first / second == pytest.approx(4.0, rel=0.2)

    def test_free_particle_is_exact(self):
        H = Observable(lambda y: 0.5 * float(y.p @ y.p),
                       grad=lambda y: np.concatenate([np.zeros_like(y.z), y.p]))
        traj = integrate(H, PhasePoint([0.0, 1.0], [0.5, -0.25]), 1e-2, 100)
        end = traj.points[-1]
        assert np.allclose(end.z, [0.5, 0.75], atol=1e-12)
        assert traj.max_energy_drift <= 1e-15

    def test_zero_step_is_constant(self):
        traj = integrate(oscillator(), PhasePoint([1.0], [0.5]), 0.0, 10)
        assert all(np.array_equal(pt.z, [1.0]) and np.array_equal(pt.p, [0.5])
                   for pt in traj.points)

    def test_midpoint_matches_leapfrog_on_oscillator(self):
        y0 = PhasePoint([1.0], [0.0])
        a = integrate(oscillator(), y0, 1e-3, 200)
        b = integrate(separable_oscillator(), y0, 1e-3, 200)
        assert np.allclose(a.points[-1].z, b.points[-1].z, atol=1e-5)

    def test_midpoint_nonconvergence_reported(self):
        steep = Observable(lambda y: float(np.exp(40.0 * y.z[0]) + y.p[0] ** 2))
        with pytest.raises(NonConvergence):
            integrate(steep, PhasePoint([1.0], [0.0]), 0.5, 3)

    def test_records_format(self):
        traj = integrate(oscillator(), PhasePoint([1.0], [0.0]), 1e-2, 3)
        records = traj.records()
        assert len(records) == 4
        assert set(records[0]) == {"s", "z", "p", "H"}
        assert records[0]["H"] == pytest.approx(0.5)
        assert records[1]["s"] == pytest.approx(1e-2)


class TestSeparableHamiltonian:
    @pytest.mark.parametrize("dof", [1, 3])
    def test_matches_kick_drift_kick_loop(self, dof):
        rng = np.random.default_rng(dof)
        y0 = PhasePoint(rng.normal(size=dof), rng.normal(size=dof))
        traj = integrate(separable_oscillator(), y0, 1e-2, 300)
        assert traj.z.shape == traj.p.shape == (301, dof)
        z, p, dt = y0.z, y0.p, 1e-2
        for i in range(1, 301):
            p_half = p - 0.5 * dt * z
            z = z + dt * p_half
            p = p_half - 0.5 * dt * z
            assert np.array_equal(traj.z[i], z)
            assert np.array_equal(traj.p[i], p)
        assert np.array_equal(traj.energies, half_square(traj.p) + half_square(traj.z))
        assert np.array_equal(traj.points[-1].z, z)
        assert np.array_equal(traj.points[-1].p, p)

    def test_leapfrog_builds_no_phase_points(self, monkeypatch):
        built = []
        init = PhasePoint.__post_init__
        monkeypatch.setattr(PhasePoint, "__post_init__",
                            lambda self: built.append(1) or init(self))
        traj = integrate(separable_oscillator(), PhasePoint([1.0], [0.0]), 1e-2, 50)
        assert built == [1]  # y0 itself
        assert len(traj.points) == 51
        assert len(built) == 52

    def test_zero_step_is_constant(self):
        y0 = PhasePoint([1.0, -0.5], [0.5, 0.25])
        traj = integrate(separable_oscillator(), y0, 0.0, 10)
        assert np.array_equal(traj.z, np.tile(y0.z, (11, 1)))
        assert np.array_equal(traj.p, np.tile(y0.p, (11, 1)))
        assert traj.max_energy_drift == 0.0

    def test_zero_steps_keeps_the_start(self):
        y0 = PhasePoint([1.0, -0.5], [0.5, 0.25])
        traj = integrate(separable_oscillator(), y0, 1e-2, 0)
        assert traj.records() == [{"s": 0.0, "z": [1.0, -0.5], "p": [0.5, 0.25],
                                   "H": 0.78125}]
        assert np.array_equal(traj.points[0].z, y0.z)
        assert traj.max_energy_drift == 0.0

    def test_generic_consumers(self):
        H = separable_oscillator()
        y = PhasePoint([1.0], [0.0])
        assert H(y) == 0.5
        X = hamiltonian_vector_field(H, canonical_two_form(1), y)
        assert np.allclose(X, [0.0, -1.0], atol=1e-12)
        a = integrate(Observable(H.func, H.grad), y, 1e-3, 200)
        b = integrate(oscillator(), y, 1e-3, 200)
        assert np.allclose(a.z, b.z, atol=1e-14)
        assert np.allclose(a.energies, b.energies, atol=1e-14)


def quartic_well():
    """H = |p|^2 / 2 + sum(z^4) / 4: separable and nonlinear in z."""
    return SeparableHamiltonian(half_square, lambda p: p,
                                lambda z: 0.25 * np.sum(z ** 4, axis=-1), lambda z: z ** 3)


def assert_same_trajectory(a, b):
    for name in ("times", "z", "p", "energies"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestIntegrateMany:
    """Each stacked row equals the lone run of its pair, bit for bit."""

    @pytest.mark.parametrize("dof", [1, 3])
    @pytest.mark.parametrize("dts, steps", [
        ([1e-2, 5e-3, 2e-2, 1e-3], [40, 200, 7, 120]),
        ([1e-2, -1e-2, 3e-3], [50, 50, 50]),
        ([1e-2, 0.0, 4e-3, -2e-3], [0, 30, 0, 90]),
        ([0.0], [0]),
    ], ids=["unsorted", "equal_counts", "zero_steps_and_dt", "one_empty_pair"])
    def test_rows_match_lone_runs(self, dof, dts, steps):
        rng = np.random.default_rng(dof)
        y0 = PhasePoint(rng.normal(size=dof), rng.normal(size=dof))
        for H in (separable_oscillator(), quartic_well()):
            runs = integrate_many(H, y0, dts, steps)
            assert len(runs) == len(dts)
            for traj, dt, n in zip(runs, dts, steps):
                assert traj.z.shape == traj.p.shape == (n + 1, dof)
                assert_same_trajectory(traj, integrate(H, y0, dt, n))

    def test_rows_match_a_scalar_kick_drift_kick_loop(self):
        H = quartic_well()
        y0 = PhasePoint([0.7, -0.2, 1.1], [0.1, 0.4, -0.3])
        dts, steps = [3e-3, 1e-2, 5e-3], [60, 25, 60]
        for traj, dt, n in zip(integrate_many(H, y0, dts, steps), dts, steps):
            z, p = y0.z, y0.p
            for i in range(1, n + 1):
                p_half = p - 0.5 * dt * z ** 3
                z = z + dt * p_half
                p = p_half - 0.5 * dt * z ** 3
                assert np.array_equal(traj.z[i], z)
                assert np.array_equal(traj.p[i], p)

    def test_midpoint_rows_match_lone_runs(self):
        y0 = PhasePoint([1.0], [0.5])
        dts, steps = [1e-2, -5e-3, 0.0, 2e-2], [30, 60, 5, 0]
        for traj, dt, n in zip(integrate_many(oscillator(), y0, dts, steps), dts, steps):
            assert_same_trajectory(traj, integrate(oscillator(), y0, dt, n))

    def test_force_is_taken_once_per_step_of_the_longest_row(self):
        calls = []

        def dV(z):
            calls.append(np.shape(z))
            return z

        H = SeparableHamiltonian(half_square, lambda p: p, half_square, dV)
        integrate_many(H, PhasePoint([1.0], [0.0]), [1e-2, 2e-2, 5e-3], [30, 15, 60])
        # one call for the start, then one per step of the longest row; the
        # rows still running form the stack and retired rows drop out
        assert calls == [(3, 1)] * 16 + [(2, 1)] * 15 + [(1, 1)] * 30

    @pytest.mark.parametrize("dts, steps", [
        ([1e-2, 1e-3], [10]),
        ([], []),
        (1e-2, 10),
        ([[1e-2]], [10]),
    ], ids=["mismatched", "empty", "scalars", "nested"])
    def test_schedule_shape_is_checked(self, dts, steps):
        with pytest.raises(DimensionMismatch):
            integrate_many(separable_oscillator(), PhasePoint([1.0], [0.0]), dts, steps)

    @pytest.mark.parametrize("steps", [-1, 2.5, True, "3", None])
    @pytest.mark.parametrize("H", [separable_oscillator(), oscillator()],
                             ids=["leapfrog", "midpoint"])
    def test_step_count_must_be_a_non_negative_integer(self, H, steps):
        with pytest.raises(DimensionMismatch) as info:
            integrate(H, PhasePoint([1.0], [0.0]), 1e-2, steps)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("H", [separable_oscillator(), oscillator()],
                             ids=["leapfrog", "midpoint"])
    def test_step_size_must_be_finite(self, H, dt):
        # a NaN step size would otherwise run to a NaN trajectory with
        # RuntimeWarnings, which the test configuration turns into errors
        with pytest.raises(NonFiniteValue) as info:
            integrate(H, PhasePoint([1.0], [0.0]), dt, 3)
        assert isinstance(info.value, ValueError)
        with pytest.raises(NonFiniteValue):
            integrate_many(H, PhasePoint([1.0], [0.0]), [1e-2, dt], [3, 3])

    def test_step_counts_may_be_numpy_integers(self):
        y0 = PhasePoint([1.0], [0.0])
        a, b = integrate_many(separable_oscillator(), y0, np.array([1e-2, 2e-2]),
                              np.array([20, 10]))
        assert_same_trajectory(a, integrate(separable_oscillator(), y0, 1e-2, 20))
        assert_same_trajectory(b, integrate(separable_oscillator(), y0, 2e-2, 10))


class TestQuadraticEnergy:
    def test_euclidean(self):
        metric = MetricField(2, lambda x: np.eye(2))
        y = PhasePoint([0.0, 0.0], [3.0, 4.0])
        assert quadratic_energy(metric, y) == pytest.approx(12.5)

    def test_inverse_metric_weighting(self):
        metric = MetricField(1, lambda x: np.diag(1.0 / np.asarray(x) ** 2))
        y = PhasePoint([2.0], [1.0])
        assert quadratic_energy(metric, y) == pytest.approx(2.0)

    def test_rest_point_reads_scalar(self):
        metric = MetricField(1, lambda x: np.eye(1))
        y = PhasePoint([1.5], [0.0])
        assert quadratic_energy(metric, y, lambda z: float(z[0] ** 2)) == pytest.approx(2.25)
