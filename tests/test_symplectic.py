"""Forms, the free Lorentz Legendre transform, and flows.

Sign oracles, worked by hand:

  canonical n=1:      J = [[0, 1], [-1, 0]], pairing((1,0),(0,1)) = +1
  realified split form, m=1, g=1:  +dx^dy after orientation normalization
  H = x and H = p:    one step of dt moves (x, p) by (0, -dt) and (+dt, 0)
  velocity (1,0,0,0), diag(1,1,1,-1):  L = 0, p = (1,0,0,0), H = 1
  velocity (0,0,0,1):                  L = -1, p = (0,0,0,-1), H = 0
"""

import numpy as np
import pytest

from frobsym import (
    LorentzLagrangian,
    Observable,
    PhasePoint,
    SeparableHamiltonian,
    TwoForm,
    closedness_residual,
    exterior_derivative,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    paracomplex_two_form,
)
from frobsym.errors import (DimensionMismatch, FrobsymError, InvalidStructure,
                            NonConvergence, NonFiniteValue)
from frobsym.numdiff import FIRST_ORDER_STEP, step_sizes
from frobsym.registry import offdiagonal_linear_metric, round_sphere_metric


def per_axis_exterior_derivative(form, point):
    """(dW)_ijk of one point, each partial d_i J from its own pair of
    matrices at x +- h_i e_i: the oracle of the one-call stacked Jacobian."""
    point = np.asarray(point, dtype=float)
    n = point.size
    hs = step_sizes(point, FIRST_ORDER_STEP)
    dj = np.empty((n, n, n))
    for i in range(n):
        plus, minus = point.copy(), point.copy()
        plus[i] += hs[i]
        minus[i] -= hs[i]
        dj[i] = (form.matrix(plus) - form.matrix(minus)) / (2.0 * hs[i])
    out = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j, k] = dj[i, j, k] + dj[k, i, j] + dj[j, k, i]
    return out


def tangent_form(metric):
    """omega = g_ab dx^a ^ dy^b on TM, g read off the x half of each point."""
    m = metric.dim
    return paracomplex_two_form(lambda pt: metric.value(pt[..., :m]), m)


def constant(m):
    """The field that is ``m`` at every point of a stack."""
    return lambda x: np.broadcast_to(m, np.shape(x)[:-1] + np.shape(m))


def oscillator(dim=1):
    return Observable(
        lambda y: 0.5 * np.sum(y.p ** 2 + y.z ** 2, axis=-1),
        grad=lambda y: np.concatenate([y.z, y.p]),
    )


def canonical(n):
    """The canonical form on n degrees of freedom: the identity split form."""
    return paracomplex_two_form(np.eye(n), n)


class TestCanonicalForm:
    def test_one_dof_matrix(self):
        J = canonical(1).matrix([0.0, 0.0])
        assert np.array_equal(J, [[0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_split_form_is_the_canonical_block(self, n):
        i, zero = np.eye(n), np.zeros((n, n))
        points = np.random.default_rng(n).normal(size=(4, 2 * n))
        J = canonical(n).matrix(points)
        assert np.array_equal(J, np.broadcast_to(np.block([[zero, i], [-i, zero]]),
                                                 (4, 2 * n, 2 * n)))

    def test_inverse_identity(self):
        form = canonical(3)
        J = form.matrix(np.zeros(6))
        assert np.allclose(J @ form.inverse(np.zeros(6)), np.eye(6), atol=1e-12)

    def test_nonantisymmetric_coefficients_rejected(self):
        bad = TwoForm(2, constant(np.array([[0.0, 1.0], [-0.5, 0.0]])))
        with pytest.raises(ValueError):
            bad.matrix([0.0, 0.0])


class TestErrorContract:
    """Undefined constructions raise FrobsymError subclasses that are still
    ValueErrors."""

    @pytest.mark.parametrize("build, error", [
        (lambda: TwoForm(2, constant(np.array([[0.0, 1.0], [-0.5, 0.0]]))).matrix([0.0, 0.0]),
         InvalidStructure),
        (lambda: LorentzLagrangian(signature=[1.0, 0.5]), InvalidStructure),
        (lambda: legendre_hamiltonian(LorentzLagrangian(signature=[1.0, -1.0]), [1.0, 0.0, 0.0]),
         DimensionMismatch),
    ], ids=["antisymmetry", "signature", "legendre_velocity"])
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

    # the "2d" case is a stack whose rows are too short for the layout
    @pytest.mark.parametrize("values", [np.arange(4.0).reshape(2, 2), np.arange(3.0),
                                        np.float64(1.0)], ids=["2d", "short", "scalar"])
    def test_replace_flat_needs_a_1d_vector_of_the_layout(self, values):
        with pytest.raises(DimensionMismatch):
            PhasePoint([0.0, 1.0], [2.0, 3.0]).replace_flat(values)

    def test_replace_flat_of_a_stack_gives_stacked_view_blocks(self):
        y = PhasePoint([0.0, 1.0], [2.0, 3.0], [4.0])
        values = np.arange(15.0).reshape(3, 5)
        moved = y.replace_flat(values)
        assert moved.layout == y.layout
        for block, cols in ((moved.z, slice(0, 2)), (moved.p, slice(2, 4)),
                            (moved.lam, slice(4, 5))):
            assert np.shares_memory(block, values)
            assert np.array_equal(block, values[:, cols])
        assert np.array_equal(moved.flat(), values)
        row = moved.replace_flat(values[1])
        assert row.z.ndim == 1 and np.array_equal(row.flat(), values[1])

    def test_replace_flat_of_a_deeper_stack_keeps_its_leading_axes(self):
        y = PhasePoint([0.0, 1.0], [2.0, 3.0], [4.0])
        values = np.arange(30.0).reshape(2, 3, 5)
        moved = y.replace_flat(values)
        assert moved.layout == y.layout
        assert moved.z.shape == (2, 3, 2) and moved.lam.shape == (2, 3, 1)
        assert np.shares_memory(moved.p, values)
        assert np.array_equal(moved.flat(), values)

    @pytest.mark.parametrize("values", [np.zeros((2, 3, 6)), np.zeros((3, 6))],
                             ids=["3d", "long_rows"])
    def test_replace_flat_stack_needs_rows_of_the_layout(self, values):
        with pytest.raises(DimensionMismatch):
            PhasePoint([0.0, 1.0], [2.0, 3.0], [4.0]).replace_flat(values)

    @pytest.mark.parametrize("z, p", [(np.zeros((2, 2)), np.zeros(2)),
                                      (np.zeros(2), np.zeros((1, 2)))], ids=["z", "p"])
    def test_blocks_beyond_1d_are_dimension_mismatch(self, z, p):
        with pytest.raises(DimensionMismatch):
            PhasePoint(z, p)

    def test_scalar_blocks_become_length_one(self):
        y = PhasePoint(1.0, 2.0)
        assert y.layout == (1, 1, 0)
        assert np.array_equal(y.flat(), [1.0, 2.0])


def loop_observable_gradient(A, y, coords):
    """Observable.gradient's central differences, one shifted point at a time."""
    flat = y.flat()

    def shifted(v):
        full = flat.copy()
        full[coords] = v
        return A.func(y.replace_flat(full))

    x = flat[coords]
    hs = 1e-5 * np.maximum(1.0, np.abs(x))
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = hs[i]
        g[i] = (shifted(x + e) - shifted(x - e)) / (2.0 * hs[i])
    return g


class TestStackedObservable:
    """``func`` takes a point or a stacked point; the central differences of
    ``gradient`` hand it all shifted points at once."""

    @staticmethod
    def observable():
        return Observable(lambda y: (np.sin(y.z[..., 0] * y.p[..., -1])
                                     + y.lam[..., 1] * np.sum(y.z ** 2, axis=-1)))

    @pytest.mark.parametrize("coords", [slice(None), slice(0, 4), slice(4, None), slice(1, 3)],
                             ids=["all", "zp", "spins", "middle"])
    def test_gradient_matches_point_loop(self, coords):
        A = self.observable()
        rng = np.random.default_rng(9)
        for _ in range(3):
            y = PhasePoint(rng.normal(0.0, 3.0, 2), rng.normal(size=2), rng.normal(size=3))
            assert np.array_equal(A.gradient(y)[..., coords],
                                  loop_observable_gradient(A, y, coords))

    @staticmethod
    def analytic():
        def grad(y):
            zp = y.z[..., 0] * y.p[..., -1]
            dz = 2.0 * y.lam[..., 1, None] * y.z
            dz[..., 0] += np.cos(zp) * y.p[..., -1]
            dp = np.zeros_like(y.p)
            dp[..., -1] = np.cos(zp) * y.z[..., 0]
            dl = np.zeros_like(y.lam)
            dl[..., 1] = np.sum(y.z ** 2, axis=-1)
            return np.concatenate([dz, dp, dl], axis=-1)

        return Observable(TestStackedObservable.observable().func, grad)

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("coords", [slice(None), slice(0, 4), slice(4, None), slice(1, 3)],
                             ids=["all", "zp", "spins", "middle"])
    def test_stacked_gradient_matches_point_loop(self, coords, analytic):
        A = self.analytic() if analytic else self.observable()
        rng = np.random.default_rng(19)
        y = PhasePoint(np.zeros(2), np.zeros(2), np.zeros(3))
        for shape in ((1,), (4,), (2, 3)):
            flat = rng.normal(0.0, 2.0, shape + (7,))
            rows = [A.gradient(y.replace_flat(row))[..., coords]
                    for row in flat.reshape(-1, 7)]
            got = A.gradient(y.replace_flat(flat))[..., coords]
            assert np.array_equal(got, np.reshape(rows, shape + (-1,)))

    def test_func_gets_one_stack_per_gradient(self):
        shapes = []

        def func(y):
            shapes.append(y.z.shape)
            return y.z[..., 0] * y.p[..., 0]

        y = PhasePoint([0.3, 0.1], [0.2, 0.4])
        Observable(func).gradient(y)
        Observable(func).gradient(y.replace_flat(np.ones((5, 4))))
        assert shapes == [(8, 2), (5, 8, 2)]

    def test_call_returns_a_float(self):
        value = self.observable()(PhasePoint([0.3, 0.1], [0.2, 0.4], [0.5, 0.6]))
        assert type(value) is float


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


class TestExteriorDerivative:
    def test_constant_form_closed(self):
        form = canonical(2)
        assert np.max(np.abs(exterior_derivative(form, np.zeros(4)))) == 0.0

    def test_varying_non_closed_block_detected(self):
        def coeffs(pt):
            J = np.zeros(pt.shape[:-1] + (4, 4))
            J[..., 0, 1], J[..., 1, 0] = pt[..., 0], -pt[..., 0]
            J[..., 2, 3], J[..., 3, 2] = pt[..., 2] * pt[..., 1], -pt[..., 2] * pt[..., 1]
            return J

        resid = closedness_residual(TwoForm(4, coeffs), [[1.0, 0.5, 2.0, 0.3]])
        assert resid > 0.1


class TestStackedForms:
    """A stack of sample points is differenced in one call and gives the
    per-point loop's doubles."""

    def test_closedness_equals_the_per_point_loop(self):
        rng = np.random.default_rng(9)
        for metric in (round_sphere_metric(), offdiagonal_linear_metric()):
            form = tangent_form(metric)
            pts = rng.normal(0.5, 0.4, size=(3, form.dim))
            loop = max(float(np.max(np.abs(exterior_derivative(form, x)))) for x in pts)
            assert loop > 0.5
            assert closedness_residual(form, pts) == loop
            assert np.array_equal(form.matrix(pts), [form.matrix(x) for x in pts])

    @pytest.mark.parametrize("metric", [round_sphere_metric, offdiagonal_linear_metric])
    @pytest.mark.parametrize("seed", range(10))
    def test_exterior_derivative_equals_the_per_axis_oracle(self, metric, seed):
        form = tangent_form(metric())
        pts = np.random.default_rng(seed).normal(0.5, 0.4, (1 + seed % 3, form.dim))
        got = exterior_derivative(form, pts)
        assert np.max(np.abs(got)) > 0.0
        assert np.array_equal(got, [per_axis_exterior_derivative(form, x) for x in pts])

    def test_form_of_the_wrong_shape_is_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"shape \(2, 2\) for points \(3, 2\)"):
            TwoForm(2, lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]])).matrix(np.zeros((3, 2)))


class TestLegendreTransform:
    def test_spacelike_unit_velocity(self):
        lag = LorentzLagrangian(signature=[1, 1, 1, -1])
        p, h = legendre_hamiltonian(lag, [1.0, 0, 0, 0])
        assert np.allclose(p, [1.0, 0, 0, 0])
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_timelike_unit_velocity(self):
        lag = LorentzLagrangian(signature=[1, 1, 1, -1])
        p, h = legendre_hamiltonian(lag, [0.0, 0, 0, 1.0])
        assert np.allclose(p, [0, 0, 0, -1.0])
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_momentum_map_inverts(self):
        lag = LorentzLagrangian(signature=[1, 1, -1, -1])
        rng = np.random.default_rng(21)
        xi = rng.normal(size=4)
        p, _ = legendre_hamiltonian(lag, xi)
        assert np.allclose(lag.signature * p, xi, atol=1e-12)

    @pytest.mark.parametrize("signature", [[1, -1], [1, 1, 1, -1], [-1, -1, 1]])
    def test_energy_is_half_the_norm_plus_one(self, signature):
        # H = xi.p - L = xi.eta.xi - (xi.eta.xi - 1)/2 = (xi.eta.xi + 1)/2
        lag = LorentzLagrangian(signature=signature)
        xi = np.random.default_rng(len(signature)).normal(size=len(signature))
        _, h = legendre_hamiltonian(lag, xi)
        assert h == pytest.approx(0.5 * (xi @ (lag.signature * xi) + 1.0), abs=1e-12)
        assert lag.lagrangian(xi) == pytest.approx(h - 1.0, abs=1e-12)


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
        H = Observable(lambda y: 0.5 * np.sum(y.p ** 2, axis=-1),
                       grad=lambda y: np.concatenate([np.zeros_like(y.z), y.p]))
        traj = integrate(H, PhasePoint([0.0, 1.0], [0.5, -0.25]), 1e-2, 100)
        assert np.allclose(traj.z[-1], [0.5, 0.75], atol=1e-12)
        assert traj.max_energy_drift <= 1e-15

    def test_zero_step_is_constant(self):
        traj = integrate(oscillator(), PhasePoint([1.0], [0.5]), 0.0, 10)
        assert np.array_equal(traj.z, np.full((11, 1), 1.0))
        assert np.array_equal(traj.p, np.full((11, 1), 0.5))

    def test_midpoint_matches_leapfrog_on_oscillator(self):
        y0 = PhasePoint([1.0], [0.0])
        a = integrate(oscillator(), y0, 1e-3, 200)
        b = integrate(separable_oscillator(), y0, 1e-3, 200)
        assert np.allclose(a.z[-1], b.z[-1], atol=1e-5)

    @pytest.mark.parametrize("H, moved", [
        (Observable(lambda y: y.p[..., 0], grad=lambda y: np.concatenate(
            [np.zeros_like(y.z), np.ones_like(y.p)], axis=-1)), ([0.31], [0.7])),
        (Observable(lambda y: y.z[..., 0], grad=lambda y: np.concatenate(
            [np.ones_like(y.z), np.zeros_like(y.p)], axis=-1)), ([0.3], [0.69])),
        (SeparableHamiltonian(lambda p: p[..., 0], np.ones_like,
                              lambda z: np.zeros_like(z[..., 0]), np.zeros_like),
         ([0.31], [0.7])),
        (SeparableHamiltonian(lambda p: np.zeros_like(p[..., 0]), np.zeros_like,
                              lambda z: z[..., 0], np.ones_like), ([0.3], [0.69])),
    ], ids=["midpoint_momentum", "midpoint_position", "leapfrog_momentum",
            "leapfrog_position"])
    def test_flow_signs(self, H, moved):
        """xdot = dH/dp and pdot = -dH/dx: H = p moves x forward, H = x
        moves p backward, in both integrators."""
        traj = integrate(H, PhasePoint([0.3], [0.7]), 1e-2, 1)
        assert np.allclose(traj.z[-1], moved[0], rtol=0.0, atol=1e-15)
        assert np.allclose(traj.p[-1], moved[1], rtol=0.0, atol=1e-15)

    def test_midpoint_nonconvergence_reported(self):
        steep = Observable(lambda y: np.exp(40.0 * y.z[..., 0]) + y.p[..., 0] ** 2)
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

    def test_leapfrog_builds_no_phase_points(self, monkeypatch):
        built = []
        init = PhasePoint.__post_init__
        monkeypatch.setattr(PhasePoint, "__post_init__",
                            lambda self: built.append(1) or init(self))
        traj = integrate(separable_oscillator(), PhasePoint([1.0], [0.0]), 1e-2, 50)
        assert built == [1]  # y0 itself
        assert traj.z.shape == (51, 1)

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
        assert np.array_equal(traj.z[0], y0.z)
        assert traj.max_energy_drift == 0.0

    def test_generic_consumers(self):
        H = separable_oscillator()
        y = PhasePoint([1.0], [0.0])
        assert H(y) == 0.5
        assert np.array_equal(H.gradient(y), [1.0, 0.0])
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

    @pytest.mark.parametrize("part", ["dT", "dV"])
    @pytest.mark.parametrize("misshapen", [
        lambda x: np.sum(x, axis=-1),
        lambda x: x[..., :1],
        lambda x: x[0],
    ], ids=["reduced", "one_column", "first_row"])
    def test_derivative_of_another_shape_is_dimension_mismatch(self, part, misshapen):
        """Broadcast into the (rows, n) stack, a misshapen result would mix
        the rows: a (rows,) dV stepped a stacked pair off its lone run."""
        parts = {"T": half_square, "dT": lambda p: p, "V": half_square, "dV": lambda z: z}
        H = SeparableHamiltonian(**{**parts, part: misshapen})
        y0 = PhasePoint([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(DimensionMismatch, match=part):
            integrate(H, y0, 1e-2, 3)
        with pytest.raises(DimensionMismatch, match=part):
            integrate_many(H, y0, [1e-2, 5e-3], [3, 6])

    def test_derivative_shapes_are_checked_before_the_step_loop(self):
        calls = []

        def dT(p):
            calls.append(np.shape(p))
            return p

        H = SeparableHamiltonian(half_square, dT, half_square, lambda z: z)
        integrate_many(H, PhasePoint([1.0, 2.0], [0.0, 0.0]), [1e-2, 2e-2], [4, 2])
        # one call on the full stack to check its shape, then one per step
        assert calls == [(2, 2)] * 3 + [(1, 2)] * 2

    @pytest.mark.parametrize("H", [separable_oscillator(), quartic_well()],
                             ids=["oscillator", "quartic"])
    def test_a_longer_run_begins_with_the_shorter_one(self, H):
        y0 = PhasePoint([1.0], [0.0])
        long, = integrate_many(H, y0, [1e-3], [1_000])
        short = integrate(H, y0, 1e-3, 650)
        for name in ("times", "z", "p", "energies"):
            assert np.array_equal(getattr(long, name)[:651], getattr(short, name)), name

    def test_step_counts_may_be_numpy_integers(self):
        y0 = PhasePoint([1.0], [0.0])
        a, b = integrate_many(separable_oscillator(), y0, np.array([1e-2, 2e-2]),
                              np.array([20, 10]))
        assert_same_trajectory(a, integrate(separable_oscillator(), y0, 1e-2, 20))
        assert_same_trajectory(b, integrate(separable_oscillator(), y0, 2e-2, 10))
