"""Exponential-family potential, densities, cumulants and duality.

Frozen oracles (exact two-outcome sums for the binary family X = (0, 1)):

    potential(0)   = log 2
    potential(1)   = log(1 + e^{-1})
    density(0)     = (1/2, 1/2), centered statistic values -+ 1/2
    order 2 at 0:  E[xi^2]            = 1/4
    order 3 at 0:  -E[xi^3]           = 0       (symmetric weights)
    order 4 at 0:  E[xi^4] - 3E[xi^2]^2 = 1/16 - 3/16 = -1/8
    eta(0)         = -E[X] = -1/2
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsym import (
    DegenerateMetric,
    DimensionMismatch,
    ExponentialFamily,
    FrobsymError,
    InvalidFamily,
    NonFiniteValue,
    cumulant_tensor,
    dual_coordinates,
    gibbs_density,
    natural_from_dual,
    potential_eval,
)
import frobsym.statmanifold as statmanifold
from frobsym.numdiff import derivative_tensor
from frobsym.statmanifold import _logsumexp, checked_metric
from frobsym.registry import bernoulli_family, categorical_family

FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 5e-3, 4: 1e-2}


def fd_cumulant(fam, beta, order):
    """Independent oracle: composed 4th-order central differences of the
    potential itself."""
    return derivative_tensor(lambda b: potential_eval(fam, b),
                             np.asarray(beta, dtype=float), order, FD_STEPS[order])


def random_family(rng, m=6, n=3):
    return ExponentialFamily(rng.normal(size=(n, m)),
                             rng.uniform(0.5, 2.0, size=m))


class TestPotential:
    def test_binary_at_zero(self):
        assert potential_eval(bernoulli_family(), [0.0]) == pytest.approx(np.log(2))

    def test_binary_at_one(self):
        expected = np.log(1 + np.exp(-1.0))
        assert potential_eval(bernoulli_family(), [1.0]) == pytest.approx(expected, rel=1e-14)

    def test_weight_scaling_shifts_by_log_c(self):
        fam = bernoulli_family()
        scaled = ExponentialFamily(fam.X, 3.0 * fam.mu0)
        beta = [0.37]
        assert potential_eval(scaled, beta) == pytest.approx(
            potential_eval(fam, beta) + np.log(3.0), rel=1e-14)

    @pytest.mark.parametrize("beta", [-50.0, 50.0])
    def test_extreme_parameters_stay_finite(self, beta):
        assert np.isfinite(potential_eval(bernoulli_family(), [beta]))

    @pytest.mark.parametrize("m", [1, 7, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_matches_rows_exactly(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        fam = random_family(rng, m=m, n=n)
        stack = rng.normal(0.0, 1.5, (2, 5, n))
        values = potential_eval(fam, stack)
        assert values.shape == (2, 5)
        assert np.array_equal(values, [[potential_eval(fam, b) for b in row] for row in stack])
        assert isinstance(potential_eval(fam, stack[0, 0]), float)

    @pytest.mark.parametrize("case", ["one_point", "stack", "tall_stack", "tied_maxima",
                                      "all_tied", "overflowing_exponent", "infinite_exponent",
                                      "overflowing_weight_sum"])
    def test_logsumexp_is_bit_identical_to_scipy(self, case):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(3)
        b = rng.uniform(0.5, 2.0, 9)
        a = {
            "one_point": lambda: rng.normal(size=9),
            "stack": lambda: rng.normal(0.0, 3.0, (4, 5, 9)),
            "tall_stack": lambda: rng.normal(0.0, 30.0, (300, 9)),
            "tied_maxima": lambda: np.round(rng.normal(0.0, 1.0, (200, 9))),
            "all_tied": lambda: np.full((3, 9), -2.5),
            "overflowing_exponent": lambda: rng.normal(800.0, 1.0, (50, 9)),
            "infinite_exponent": lambda: np.array([[np.inf] + [0.0] * 8, [-np.inf] * 9]),
            # b exp(a - a_max) sums past the float range, the plain sum does not
            "overflowing_weight_sum": lambda: -3.0 - 1e-4 * np.arange(9.0),
        }[case]()
        if case == "overflowing_weight_sum":
            b = np.full(9, 1e308)
        with np.errstate(all="ignore"):
            expected = special.logsumexp(a, axis=-1, b=b)
        assert np.array_equal(_logsumexp(a, b), expected)

    def test_potential_matches_scipy_exactly(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(4)
        fam = random_family(rng, m=16, n=3)
        stack = rng.normal(0.0, 20.0, (300, 3))
        reference = special.logsumexp(-(stack[:, None, :] @ fam.X)[:, 0, :], axis=-1, b=fam.mu0)
        assert np.array_equal(potential_eval(fam, stack), reference)
        assert potential_eval(fam, stack[0]) == reference[0]

    def test_stack_checks_the_last_axis(self):
        with pytest.raises(DimensionMismatch):
            potential_eval(categorical_family(3), np.zeros((4, 3)))

    def test_undefined_inputs_are_frobsym_value_errors(self):
        """Each is a null row in a battery, and still a ValueError."""
        cases = [
            (InvalidFamily, lambda: ExponentialFamily([[0.0, np.inf]])),
            (InvalidFamily, lambda: ExponentialFamily([[0.0, 1.0]], [1.0, -1.0])),
            (NonFiniteValue, lambda: potential_eval(bernoulli_family(), [np.nan])),
            (NonFiniteValue, lambda: gibbs_density(bernoulli_family(), [np.inf])),
        ]
        for error, call in cases:
            with pytest.raises(error) as err:
                call()
            assert isinstance(err.value, FrobsymError)
            assert isinstance(err.value, ValueError)


class TestGibbsDensity:
    def test_symmetric_at_zero(self):
        assert gibbs_density(bernoulli_family(), [0.0]) == pytest.approx([0.5, 0.5])

    def test_saturates_in_steep_direction(self):
        p = gibbs_density(bernoulli_family(), [50.0])
        assert abs(p[0] - 1.0) < 1e-20
        assert p[1] < 1e-20

    def test_uniform_categorical(self):
        p = gibbs_density(categorical_family(3), [0.0, 0.0])
        assert p == pytest.approx([1 / 3] * 3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_normalization_randomized(self, seed):
        rng = np.random.default_rng(seed)
        fam = random_family(rng, m=int(rng.integers(2, 64)), n=int(rng.integers(1, 6)))
        beta = rng.normal(0.0, 2.0, fam.n)
        assert abs(float(np.sum(gibbs_density(fam, beta))) - 1.0) <= 1e-14


class TestCumulants:
    def test_binary_frozen_values(self):
        fam = bernoulli_family()
        assert cumulant_tensor(fam, [0.0], 2).item() == pytest.approx(0.25)
        assert cumulant_tensor(fam, [0.0], 3).item() == pytest.approx(0.0, abs=1e-15)
        assert cumulant_tensor(fam, [0.0], 4).item() == pytest.approx(-0.125)

    def test_binary_order4_against_fd_oracle(self):
        fd = fd_cumulant(bernoulli_family(), [0.0], 4)
        assert fd.item() == pytest.approx(-0.125, rel=1e-4)

    @pytest.mark.parametrize("order, rtol", [(1, 1e-6), (2, 1e-6), (3, 1e-6), (4, 1e-4)])
    def test_matches_fd_oracle_random_family(self, order, rtol):
        rng = np.random.default_rng(41 + order)
        fam = random_family(rng, m=8, n=2)
        beta = rng.normal(0.0, 0.5, 2)
        analytic = cumulant_tensor(fam, beta, order)
        fd = fd_cumulant(fam, beta, order)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - fd)) <= rtol * scale

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_overflowing_moments_raise(self, order):
        fam = ExponentialFamily([[1e160, -1e160, 0.5]])
        with pytest.raises(NonFiniteValue):
            cumulant_tensor(fam, [0.0], order)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        fam = random_family(rng)
        t = cumulant_tensor(fam, rng.normal(size=3), 3)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.array_equal(t, np.transpose(t, perm))

    def test_covariance_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            fam = random_family(rng)
            g = cumulant_tensor(fam, rng.normal(size=3), 2)
            assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    def test_affinely_dependent_statistics_degenerate(self):
        # second row is constant, so the covariance has a null direction
        fam = ExponentialFamily(np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]]))
        g = cumulant_tensor(fam, [0.1, 0.2], 2)
        assert np.min(np.abs(np.linalg.eigvalsh(g))) <= 1e-14

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_statistic_shift_invariance(self, seed):
        """X_j -> X_j + c shifts the potential by -c beta^j and leaves
        every cumulant of order >= 2 unchanged."""
        rng = np.random.default_rng(seed)
        fam = random_family(rng, m=5, n=2)
        c = float(rng.normal(0.0, 2.0))
        shifted_X = fam.X.copy()
        shifted_X[0] += c
        shifted = ExponentialFamily(shifted_X, fam.mu0)
        beta = rng.normal(0.0, 1.0, 2)
        assert potential_eval(shifted, beta) == pytest.approx(
            potential_eval(fam, beta) - c * beta[0], rel=1e-10, abs=1e-10)
        for order in (2, 3, 4):
            a = cumulant_tensor(fam, beta, order)
            b = cumulant_tensor(shifted, beta, order)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))


class TestDualCoordinates:
    def test_binary_at_zero(self):
        eta, psi = dual_coordinates(bernoulli_family(), [0.0])
        assert eta == pytest.approx([-0.5])
        assert psi == pytest.approx(-np.log(2))

    def test_legendre_identity_random(self):
        rng = np.random.default_rng(5)
        fam = random_family(rng)
        for _ in range(5):
            beta = rng.normal(0.0, 1.0, fam.n)
            eta, psi = dual_coordinates(fam, beta)
            assert psi + potential_eval(fam, beta) - float(beta @ eta) == pytest.approx(0.0, abs=1e-12)

    def test_jacobian_of_eta_is_the_metric(self):
        fam = bernoulli_family()
        beta = np.array([1.0])
        jac = derivative_tensor(
            lambda bs: np.array([dual_coordinates(fam, b)[0][0] for b in bs]), beta, 1, 1e-5)
        g = cumulant_tensor(fam, beta, 2)
        assert jac == pytest.approx(g[0], rel=1e-6)

    def test_double_legendre_roundtrip(self):
        rng = np.random.default_rng(19)
        fam = random_family(rng)
        beta = rng.normal(0.0, 0.8, fam.n)
        eta, _ = dual_coordinates(fam, beta)
        back = natural_from_dual(fam, eta, initial=beta + rng.normal(0.0, 0.5, fam.n))
        assert np.max(np.abs(back - beta)) <= 1e-8

    def test_degenerate_metric_raises(self):
        fam = ExponentialFamily(np.array([[1.0, 1.0]]))  # constant statistic
        with pytest.raises(DegenerateMetric):
            dual_coordinates(fam, [0.0])

    @pytest.mark.parametrize("eta", [[0.1, 0.2, 0.3], [0.1], [[0.1, 0.2]]])
    def test_dual_point_of_the_wrong_shape_is_dimension_mismatch(self, eta):
        fam = ExponentialFamily([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(DimensionMismatch, match="eta"):
            natural_from_dual(fam, eta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_dual_point_names_eta(self, bad):
        fam = ExponentialFamily([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NonFiniteValue, match="eta"):
            natural_from_dual(fam, [bad, 0.1])

    def test_each_newton_step_evaluates_one_metric(self, monkeypatch):
        rng = np.random.default_rng(19)
        fam = random_family(rng)
        beta = rng.normal(0.0, 0.8, fam.n)
        eta, _ = dual_coordinates(fam, beta)
        orders = []
        real = statmanifold.cumulant_tensor

        def counted(f, b, order):
            orders.append(order)
            return real(f, b, order)

        monkeypatch.setattr(statmanifold, "cumulant_tensor", counted)
        back = natural_from_dual(fam, eta, initial=beta + 0.5)
        assert np.max(np.abs(back - beta)) <= 1e-8
        # each iteration takes g (order 2) and then eta (order 1) at its beta
        assert orders.count(1) >= 3
        assert orders == [2, 1] * orders.count(1)


def one_point_loop(f, stack):
    """``f`` of one point over every point of a ``(..., n)`` stack."""
    rows = [np.asarray(f(b)) for b in stack.reshape(-1, stack.shape[-1])]
    return np.reshape(rows, stack.shape[:-1] + rows[0].shape)


class TestStackedPoints:
    """Each function takes a ``(..., n)`` stack of parameter points and
    gives every point the doubles it gives that point alone."""

    @pytest.mark.parametrize("m", [2, 17, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_matches_the_one_point_loop(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        fam = random_family(rng, m=m, n=n)
        calls = {f"cumulant_{k}": lambda b, k=k: cumulant_tensor(fam, b, k)
                 for k in (1, 2, 3, 4)}
        calls["gibbs_density"] = lambda b: gibbs_density(fam, b)
        metric = {"checked_metric": lambda b: checked_metric(fam, b),
                  "eta": lambda b: dual_coordinates(fam, b)[0],
                  "psi": lambda b: dual_coordinates(fam, b)[1]}
        if n < m:
            calls.update(metric)
        for shape in [(n,), (1, n), (5, n), (2, 3, n)]:
            stack = rng.normal(0.0, 1.0, shape)
            for name, call in calls.items():
                stacked = call(stack)
                assert np.array_equal(stacked, one_point_loop(call, stack)), (name, shape)
            if n >= m:
                # n statistics on m <= n outcomes: the covariance is singular
                for call in metric.values():
                    with pytest.raises(DegenerateMetric):
                        call(stack)
        if n < m:
            assert isinstance(dual_coordinates(fam, stack[0, 0])[1], float)

    def test_cumulant_values_put_the_point_axes_first(self):
        fam = random_family(np.random.default_rng(2), m=5, n=3)
        for order in (1, 2, 3, 4):
            assert cumulant_tensor(fam, np.zeros((2, 4, 3)), order).shape == \
                (2, 4) + (3,) * order

    def test_singular_point_of_a_stack_is_named(self):
        # exp(-800) underflows, so at 800 one outcome has weight exactly 0
        stack = np.array([[0.0], [0.3], [800.0], [-0.4]])
        with pytest.raises(DegenerateMetric, match=r"at \[800\.\]"):
            checked_metric(bernoulli_family(), stack)
        with pytest.raises(DegenerateMetric, match=r"at \[800\.\]"):
            dual_coordinates(bernoulli_family(), stack)

    @pytest.mark.parametrize("order, statistics, weights, tilt", [
        (2, [-7e153, 7e153], None, 1e-152),
        (3, [-4e102, 4e102], None, 1.25e-101),
        # weights 1:4:1 put the order-4 cumulant at 0 for beta = 0
        (4, [-1e77, 0.0, 1e77], [1.0, 4.0, 1.0], 5e-76),
    ])
    def test_overflowing_point_of_a_stack_raises_without_a_warning(self, order, statistics,
                                                                   weights, tilt):
        # at beta = 0 the centred statistic stays below the largest value
        # whose order-th power is finite; at the tilt the weight piles up
        # at one end, the centred value at the other end doubles and its
        # order-th power overflows
        fam = ExponentialFamily([statistics], weights)
        stack = np.array([[0.0], [tilt], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(cumulant_tensor(fam, [0.0], order).item())
            with pytest.raises(NonFiniteValue, match=re.escape(f"at {np.array([tilt])}")):
                cumulant_tensor(fam, stack, order)
