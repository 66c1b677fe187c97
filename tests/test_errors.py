"""The shared symmetry, skew and conditioning guards of frobsym.errors.

Oracles:

  g = [[1, 1], [1.000005, 1]]    max|g - g^T| = 5e-6 > 1e-12 * max(1, max|g|):
                                 not symmetric, at every site that needs it
  [[0, 1], [-1.000005, 0]]       the skew analogue, not antisymmetric
  diag(1, 1e-13)                 condition number 1e13 > 1e12: singular, with
                                 each site's own error type
  [[nan, 0], [0, 1]]             no condition number (the SVD does not
                                 converge): NonFiniteValue at every site
  [[inf, 0], [0, 1]]             inf - inf in the symmetry defect:
                                 NonFiniteValue before it is formed, with
                                 no floating-point warning
"""

import pathlib
import re
import warnings

import numpy as np
import pytest

import frobsym
from frobsym import (
    DegenerateForm,
    DegenerateMetric,
    ExponentialFamily,
    FrobeniusAlgebra,
    FrobsymError,
    InvalidStructure,
    MetricField,
    NonFiniteValue,
    PotentialField,
    StructureConstants,
    TwoForm,
    algebra_from_potential,
    dual_connections,
    paracomplex_two_form,
    wdvv_residual,
)
from frobsym.errors import require_invertible, symmetric_part
from frobsym import statmanifold
from frobsym.statmanifold import checked_metric

ASYMMETRIC = np.array([[1.0, 1.0], [1.000005, 1.0]])
NOT_SKEW = np.array([[0.0, 1.0], [-1.000005, 0.0]])
SINGULAR = np.diag([1.0, 1e-13])
NAN_METRIC = np.array([[np.nan, 0.0], [0.0, 1.0]])
NAN_FORM = np.array([[0.0, np.nan], [np.nan, 0.0]])
INF_METRIC = np.array([[np.inf, 0.0], [0.0, 1.0]])
INF_FORM = np.array([[0.0, np.inf], [-np.inf, 0.0]])


def constant(m):
    """The field that is ``m`` at every point of a stack."""
    return lambda x: np.broadcast_to(m, np.shape(x)[:-1] + np.shape(m))


def singular_fisher_family():
    """Two independent bits, the second scaled by sqrt(1e-13): at beta = 0
    the Fisher metric is 0.25 * diag(1, 1e-13)."""
    s = np.sqrt(1e-13)
    return ExponentialFamily(np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, s, s]]))


class TestSymmetrySites:
    @pytest.mark.parametrize("build", [
        lambda: MetricField(2, constant(ASYMMETRIC)).value([0.0, 0.0]),
        lambda: FrobeniusAlgebra(np.zeros((2, 2, 2)), ASYMMETRIC),
        lambda: paracomplex_two_form(ASYMMETRIC, 2).matrix(np.zeros(4)),
    ], ids=["metric_value", "frobenius_pairing", "paracomplex_form"])
    def test_asymmetric_matrix_is_invalid_structure(self, build):
        with pytest.raises(InvalidStructure) as info:
            build()
        assert isinstance(info.value, FrobsymError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("build", [
        lambda: TwoForm(2, constant(NOT_SKEW)).matrix([0.0, 0.0]),
        lambda: StructureConstants(np.array([NOT_SKEW, NOT_SKEW])),
    ], ids=["form_coefficients", "spin_constants"])
    def test_non_skew_matrix_is_invalid_structure(self, build):
        with pytest.raises(InvalidStructure) as info:
            build()
        assert isinstance(info.value, FrobsymError)
        assert isinstance(info.value, ValueError)

    # each matrix of a stack is held to its own scale: the 1e-7 defect of
    # the second matrix is within 1e-12 of the first one's largest entry
    BIG_AND_ASYMMETRIC = np.stack([1e6 * np.eye(2), [[1.0, 1e-7], [0.0, 1.0]]])
    BIG_AND_NOT_SKEW = np.stack([1e6 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                 [[0.0, 1.0], [-1.0 + 1e-7, 0.0]]])

    @pytest.mark.parametrize("build, stack", [
        (lambda m, x: symmetric_part(m, "metric", x), BIG_AND_ASYMMETRIC),
        (lambda m, x: MetricField(2, lambda _: m).value(x), BIG_AND_ASYMMETRIC),
        (lambda m, x: TwoForm(2, lambda _: m).matrix(x), BIG_AND_NOT_SKEW),
    ], ids=["symmetric_part", "metric_value", "form_matrix"])
    def test_each_matrix_of_a_stack_is_held_to_its_own_scale(self, build, stack):
        points = np.array([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(InvalidStructure, match=r"at \[2\. 3\.\]"):
            build(stack, points)
        # the second matrix is rejected on its own too, and the first passes
        with pytest.raises(InvalidStructure):
            build(stack[1], points[1])
        build(stack[:1], points[:1])

    def test_symmetric_part_is_exactly_symmetric_within_the_bound(self):
        g = np.array([[1.0, 0.3], [0.3 + 1e-14, 2.0]])
        sym = symmetric_part(g, "metric")
        assert np.array_equal(sym, sym.T)
        assert np.max(np.abs(sym - g)) <= 1e-14


class TestConditioningSites:
    @pytest.mark.parametrize("build, error", [
        (lambda: MetricField(2, constant(SINGULAR)).inverse([0.0, 0.0]), DegenerateMetric),
        (lambda: checked_metric(singular_fisher_family(), [0.0, 0.0]), DegenerateMetric),
        (lambda: dual_connections(singular_fisher_family(), [0.0, 0.0]), DegenerateMetric),
        (lambda: algebra_from_potential(np.zeros((2, 2, 2)), SINGULAR), DegenerateMetric),
        (lambda: wdvv_residual(PotentialField(2, constant(0.0), third=constant(np.zeros((2, 2, 2)))),
                               SINGULAR, [0.0, 0.0]), DegenerateMetric),
        (lambda: paracomplex_two_form(SINGULAR, 2).inverse(np.zeros(4)), DegenerateForm),
    ], ids=["metric_inverse", "fisher_metric", "dual_connections", "algebra_pairing",
            "wdvv_metric", "form_inverse"])
    def test_singular_matrix_raises_the_sites_error(self, build, error):
        with pytest.raises(error) as info:
            build()
        assert isinstance(info.value, FrobsymError)

    @pytest.mark.parametrize("build", [
        lambda: MetricField(2, constant(NAN_METRIC)).inverse([0.0, 0.0]),
        lambda: TwoForm(2, constant(NAN_FORM)).inverse([0.0, 0.0]),
    ], ids=["metric_inverse", "form_inverse"])
    def test_nan_entry_is_non_finite_value(self, build):
        with pytest.raises(NonFiniteValue, match=r"non-finite entry at \[0\. 0\.\]"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: MetricField(2, constant(INF_METRIC)).inverse([0.0, 0.0]),
        lambda: TwoForm(2, constant(INF_FORM)).inverse([0.0, 0.0]),
    ], ids=["metric_inverse", "form_inverse"])
    def test_infinite_entry_is_non_finite_value_without_a_warning(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"non-finite entry at \[0\. 0\.\]"):
                build()

    def test_nan_fisher_metric_is_non_finite_value(self, monkeypatch):
        # the family's own guards keep NaN out of its cumulants, so one is
        # handed straight to the conditioning guard
        monkeypatch.setattr(statmanifold, "cumulant_tensor",
                            lambda fam, beta, order: NAN_METRIC)
        with pytest.raises(NonFiniteValue, match="Fisher metric has a non-finite entry"):
            checked_metric(singular_fisher_family(), [0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stack_names_its_first_non_finite_point(self, bad):
        stack = np.stack([np.eye(2), SINGULAR, np.diag([1.0, bad]), np.diag([bad, 1.0])])
        points = np.arange(8.0).reshape(4, 2)
        with pytest.raises(NonFiniteValue, match=r"metric has a non-finite entry at \[4\. 5\.\]"):
            require_invertible(stack, DegenerateMetric, "metric", points)

    def test_condition_number_at_most_the_limit_passes(self):
        g = np.diag([1.0, 1e-11])
        assert require_invertible(g, DegenerateMetric, "metric") is g

    def test_stack_passes_when_every_matrix_does(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 1e-11])])
        assert require_invertible(stack, DegenerateMetric, "metric", np.zeros((2, 2))) is stack

    def test_stack_names_its_worst_point(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 1e-13]), SINGULAR, np.diag([1.0, 1e-14])])
        points = np.arange(8.0).reshape(4, 2)
        with pytest.raises(DegenerateMetric, match=r"at \[6\. 7\.\] \(condition number 1\.0e\+14\)"):
            require_invertible(stack, DegenerateMetric, "metric", points)


def test_only_the_errors_module_decides_symmetry_and_conditioning():
    """Every site calls the guards above instead of its own cond/allclose."""
    package = pathlib.Path(frobsym.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"linalg\.cond\b|\bcond\(|allclose", line)
    ]
    assert offenders == []
