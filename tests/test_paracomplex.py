"""Split-number arithmetic and structure tests.

Hand-checked values used as oracles:
    (2+e)(3+2e) = 6 + 4e + 3e + 2e^2 = 8 + 7e
    (2+e)^{-1}  = (2-e)/(4-1) = (2-e)/3
    idempotents: e+ = (1/2)(1+e), e- = (1/2)(1-e)
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobsym import (
    DimensionMismatch,
    FrobsymError,
    InvalidStructure,
    NonFiniteValue,
    ParaNumber,
    ParaStructure,
    ZeroDivisor,
    idempotent_decompose,
    idempotent_recompose,
    para_conj,
    para_hermitian_product,
    para_inverse,
    para_mul,
)
from frobsym.paracomplex import E, E_MINUS, E_PLUS, ONE

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
# dyadic grid: sums and differences stay exact in binary floating point
dyadic = st.integers(min_value=-2**20, max_value=2**20).map(lambda k: k / 1024.0)


def numbers(strategy=finite):
    return st.builds(ParaNumber, strategy, strategy)


class TestMultiplication:
    def test_e_squares_to_one(self):
        assert para_mul(E, E) == ONE

    def test_zero_divisor_pair(self):
        prod = para_mul(ParaNumber(1, 1), ParaNumber(1, -1))
        assert prod == ParaNumber(0.0, 0.0)

    def test_hand_product(self):
        assert para_mul(ParaNumber(2, 1), ParaNumber(3, 2)) == ParaNumber(8, 7)

    def test_idempotent_table(self):
        assert para_mul(E_PLUS, E_PLUS) == E_PLUS
        assert para_mul(E_MINUS, E_MINUS) == E_MINUS
        assert para_mul(E_PLUS, E_MINUS) == ParaNumber(0, 0)
        assert E_PLUS + E_MINUS == ONE

    @given(numbers(), numbers(), numbers())
    # near the null cone products of ~1e16 cancel to ~3e9, so the rounding
    # error is set by the operands, not by the result
    @example(ParaNumber(23643.24940051348, 23643.246319426336),
             ParaNumber(900927.3926518706, -153347.10205484868),
             ParaNumber(-711680.7745607325, 711680.8389931689))
    def test_commutative_associative(self, a, b, c):
        assert para_mul(a, b) == para_mul(b, a)
        left = para_mul(para_mul(a, b), c)
        right = para_mul(a, para_mul(b, c))
        # forward-error bound of the chained two-term products
        scale = max(1.0, np.prod([abs(v.re) + abs(v.im) for v in (a, b, c)]))
        assert abs(left.re - right.re) <= 1e-12 * scale
        assert abs(left.im - right.im) <= 1e-12 * scale


class TestConjugation:
    def test_definition(self):
        assert para_conj(ParaNumber(1, 1)) == ParaNumber(1, -1)
        assert para_conj(ParaNumber(3, 0)) == ParaNumber(3, 0)

    def test_multiplicative_on_example(self):
        a, b = ParaNumber(1, 1), ParaNumber(2, 1)
        assert para_conj(para_mul(a, b)) == para_mul(para_conj(a), para_conj(b))

    @given(numbers(), numbers())
    def test_multiplicative(self, a, b):
        # bitwise equal: both sides perform the same float operations
        assert para_conj(para_mul(a, b)) == para_mul(para_conj(a), para_conj(b))

    def test_swaps_idempotents(self):
        assert para_conj(E_PLUS) == E_MINUS
        assert para_conj(ONE) == ONE

    @given(numbers())
    def test_involutive_and_norm_form(self, a):
        assert para_conj(para_conj(a)) == a
        prod = para_mul(a, para_conj(a))
        assert prod.im == 0.0
        assert prod.re == a.norm_form()


class TestInverse:
    def test_hand_inverse(self):
        inv = para_inverse(ParaNumber(2, 1))
        assert np.isclose(inv.re, 2 / 3) and np.isclose(inv.im, -1 / 3)
        assert para_mul(ParaNumber(2, 1), inv) == ParaNumber(1, 0)

    def test_null_cone_rejected(self):
        with pytest.raises(ZeroDivisor):
            para_inverse(ParaNumber(1, 1))

    def test_unit(self):
        assert para_inverse(ONE) == ONE

    @given(st.builds(ParaNumber,
                     st.floats(min_value=-100, max_value=100),
                     st.floats(min_value=-100, max_value=100)))
    def test_double_inverse(self, a):
        # stay off the null cone (ill-conditioned) and keep |a| moderate so
        # the inverse clears the absolute floor of the divisor threshold
        if abs(a.norm_form()) <= 1e-3 * max(1.0, a.re**2 + a.im**2):
            return
        back = para_inverse(para_inverse(a))
        scale = max(1.0, abs(a.re), abs(a.im))
        assert abs(back.re - a.re) <= 1e-10 * scale
        assert abs(back.im - a.im) <= 1e-10 * scale


class TestArrays:
    """A ParaNumber holding equal-shape arrays is one split number per element."""

    def test_operations_match_the_scalar_ones_elementwise(self):
        rng = np.random.default_rng(5)
        re, im = rng.uniform(-3.0, 3.0, size=(2, 50))
        a, b = ParaNumber(re, im), ParaNumber(im[::-1], re[::-1])
        outs = (para_mul(a, b), para_conj(a), para_inverse(a), a - b,
                idempotent_decompose(a))
        for k in range(50):
            x, y = ParaNumber(re[k], im[k]), ParaNumber(im[::-1][k], re[::-1][k])
            scalar = (para_mul(x, y), para_conj(x), para_inverse(x), x - y,
                      idempotent_decompose(x))
            for arr, one in zip(outs, scalar):
                assert tuple(v[k] for v in vars(arr).values()) == tuple(vars(one).values())

    def test_zero_divisor_is_elementwise(self):
        a = ParaNumber(np.array([2.0, 1.0, 3.0]), np.array([1.0, -1.0, 0.0]))
        assert a.is_zero_divisor().tolist() == [False, True, False]

    def test_one_null_cone_element_makes_the_inverse_raise(self):
        a = ParaNumber(np.array([2.0, 1.5, 3.0]), np.array([1.0, 1.5, 0.0]))
        with pytest.raises(ZeroDivisor):
            para_inverse(a)

    def test_sequences_are_stored_as_float_arrays(self):
        total = ParaNumber([1, 2], [3, 4]) + ParaNumber([5.0, 6.0], [7.0, 8.0])
        assert total.re.dtype == float and total.re.tolist() == [6.0, 8.0]
        assert total.im.tolist() == [10.0, 12.0]

    def test_unequal_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            ParaNumber(np.zeros(3), np.zeros(2))


class TestNonFinite:
    @pytest.mark.parametrize("re, im", [
        (float("nan"), 0.0), (0.0, float("inf")),
        (np.array([1.0, np.nan]), np.zeros(2)), (np.zeros(2), np.array([-np.inf, 0.0])),
    ])
    def test_non_finite_components_raise(self, re, im):
        with pytest.raises(NonFiniteValue) as err:
            ParaNumber(re, im)
        assert isinstance(err.value, FrobsymError) and isinstance(err.value, ValueError)


class TestIdempotentCoordinates:
    @pytest.mark.parametrize("value, plus, minus", [
        (E, 1.0, -1.0),       # e = e+ - e-
        (ONE, 1.0, 1.0),      # 1 = e+ + e-
        (E_PLUS, 1.0, 0.0),   # the idempotent axis
    ])
    def test_basis_images(self, value, plus, minus):
        coords = idempotent_decompose(value)
        assert (coords.plus, coords.minus) == (plus, minus)

    @given(st.builds(ParaNumber, dyadic, dyadic))
    def test_roundtrip_exact_on_dyadics(self, a):
        assert idempotent_recompose(idempotent_decompose(a)) == a

    @given(numbers())
    def test_roundtrip_tight_in_general(self, a):
        back = idempotent_recompose(idempotent_decompose(a))
        scale = max(1.0, abs(a.re), abs(a.im))
        assert abs(back.re - a.re) <= 1e-12 * scale
        assert abs(back.im - a.im) <= 1e-12 * scale

    @given(numbers(), numbers())
    def test_multiplication_is_componentwise(self, a, b):
        da, db = idempotent_decompose(a), idempotent_decompose(b)
        dp = idempotent_decompose(para_mul(a, b))
        scale = max(1.0, abs(dp.plus), abs(dp.minus))
        assert abs(dp.plus - da.plus * db.plus) <= 1e-12 * scale
        assert abs(dp.minus - da.minus * db.minus) <= 1e-12 * scale


def vector(pairs) -> ParaNumber:
    """The split vector with entries re + e*im for the (re, im) pairs."""
    re, im = np.array(pairs, dtype=float).reshape(-1, 2).T
    return ParaNumber(re, im)


def loop_hermitian_product(g, xi: ParaNumber, eta: ParaNumber) -> ParaNumber:
    """The pairing summed one scalar split number at a time, (j,k)+(k,j)
    pairs first: the oracle of the array version."""
    g = 0.5 * (g + g.T)
    x = [ParaNumber(a, b) for a, b in zip(xi.re, xi.im)]
    y = [ParaNumber(a, b) for a, b in zip(eta.re, eta.im)]
    total = ParaNumber()
    for j in range(len(x)):
        total = total + g[j, j] * (x[j] * para_conj(y[j]))
        for k in range(j + 1, len(x)):
            total = total + (g[j, k] * (x[j] * para_conj(y[k]))
                             + g[k, j] * (x[k] * para_conj(y[j])))
    return total


class TestHermitianProduct:
    def test_unit_vectors(self):
        g = np.array([[1.0]])
        one = vector([(1.0, 0.0)])
        assert para_hermitian_product(g, one, one) == ONE

    def test_e_against_itself(self):
        g = np.array([[1.0]])
        ev = vector([(0.0, 1.0)])
        assert para_hermitian_product(g, ev, ev) == ParaNumber(-1, 0)

    def test_hermitian_symmetry_mixed(self):
        g = np.array([[1.0]])
        one, ev = vector([(1.0, 0.0)]), vector([(0.0, 1.0)])
        forward = para_hermitian_product(g, one, ev)
        backward = para_hermitian_product(g, ev, one)
        assert forward == ParaNumber(0, -1)
        assert forward == para_conj(backward)

    def test_one_vector_gives_floats(self):
        xi, eta = vector([(1, 2), (3, 4)]), vector([(5, 6), (7, 8)])
        value = para_hermitian_product(np.eye(2), xi, eta)
        assert type(value.re) is float and type(value.im) is float

    @given(st.lists(st.tuples(finite, finite), min_size=2, max_size=4),
           st.lists(st.tuples(finite, finite), min_size=2, max_size=4))
    @settings(max_examples=50)
    def test_hermitian_symmetry_random(self, xs, ys):
        n = min(len(xs), len(ys))
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n))
        g = g + g.T
        xi, eta = vector(xs[:n]), vector(ys[:n])
        lhs = para_hermitian_product(g, xi, eta)
        rhs = para_conj(para_hermitian_product(g, eta, xi))
        scale = max(1.0, abs(lhs.re), abs(lhs.im))
        assert abs(lhs.re - rhs.re) <= 1e-9 * scale
        assert abs(lhs.im - rhs.im) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_component_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 5
        g = rng.normal(size=(n, n))
        g = g + g.T
        scales = 10.0 ** rng.integers(-3, 4, size=(4, 1))
        xr, xm, yr, ym = scales * rng.normal(size=(4, n))
        xi, eta = ParaNumber(xr, xm), ParaNumber(yr, ym)
        value, oracle = para_hermitian_product(g, xi, eta), loop_hermitian_product(g, xi, eta)
        bound = 1e-12 * np.sum(np.abs(g) * np.outer(np.abs(xr) + np.abs(xm),
                                                     np.abs(yr) + np.abs(ym)))
        assert abs(value.re - oracle.re) <= bound
        assert abs(value.im - oracle.im) <= bound
        assert para_hermitian_product(g, xi, xi).im == 0.0

    @pytest.mark.parametrize("shape", [(1, 3), (5, 2), (2, 3, 4)])
    def test_stack_rows_equal_their_lone_values(self, shape):
        rng = np.random.default_rng(len(shape))
        n = shape[-1]
        g = rng.normal(size=(n, n))
        g = g + g.T
        xi = ParaNumber(*rng.normal(size=(2,) + shape))
        eta = ParaNumber(*rng.normal(size=(2,) + shape))
        stacked = para_hermitian_product(g, xi, eta)
        selfs = para_hermitian_product(g, xi, xi)
        assert stacked.re.shape == shape[:-1] and np.all(selfs.im == 0.0)
        for i in np.ndindex(shape[:-1]):
            lone = para_hermitian_product(g, ParaNumber(xi.re[i], xi.im[i]),
                                          ParaNumber(eta.re[i], eta.im[i]))
            assert np.array_equal([stacked.re[i], stacked.im[i]], [lone.re, lone.im])

    @pytest.mark.parametrize("g, xi, eta", [
        (np.eye(2), vector([(1, 0)]), vector([(1, 0)])),
        (np.eye(2), vector([(1, 0), (0, 1)]), vector([(1, 0)])),
        (np.eye(2), ParaNumber(np.ones((3, 2)), np.ones((3, 2))), vector([(1, 0), (0, 1)])),
        (np.ones((2, 3)), vector([(1, 0), (0, 1)]), vector([(1, 0), (0, 1)])),
        (np.eye(1), ONE, ONE),
        (np.zeros((0, 0)), vector([]), vector([])),
    ], ids=["g_too_large", "unequal_lengths", "stack_against_vector", "g_not_square",
            "scalar_operands", "no_entries"])
    def test_dimension_mismatch(self, g, xi, eta):
        with pytest.raises(DimensionMismatch):
            para_hermitian_product(g, xi, eta)


class TestErrorContract:
    """Undefined constructions raise FrobsymError subclasses that are still
    ValueErrors."""

    @pytest.mark.parametrize("build, error", [
        (lambda: para_hermitian_product(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                        vector([(1, 0), (0, 1)]), vector([(0, 1), (1, 0)])),
         InvalidStructure),
        (lambda: ParaStructure(np.eye(3)), DimensionMismatch),
        (lambda: ParaStructure(np.array([[0.0, 2.0], [0.5, 0.0]]) + 1e-3), InvalidStructure),
        (lambda: ParaStructure(np.eye(2)), InvalidStructure),
    ], ids=["pairing_not_symmetric", "odd_dimension", "square_not_identity", "unequal_split"])
    def test_paracomplex_constructions(self, build, error):
        with pytest.raises(error) as info:
            build()
        assert isinstance(info.value, FrobsymError)
        assert isinstance(info.value, ValueError)


class TestParaStructure:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_standard_structure(self, m):
        ps = ParaStructure.standard(m)
        assert np.array_equal(ps.matrix @ ps.matrix, np.eye(2 * m))
        assert ps.dim == 2 * m

    def test_unbalanced_eigenspaces_rejected(self):
        with pytest.raises(ValueError):
            ParaStructure(np.eye(2))

    def test_non_involutive_rejected(self):
        with pytest.raises(ValueError):
            ParaStructure(np.array([[0.0, 2.0], [0.5, 0.0]]) + 1e-3)

    def test_conjugated_structure_accepted(self):
        rng = np.random.default_rng(3)
        m = 2
        base = ParaStructure.standard(m).matrix
        q = rng.normal(size=(2 * m, 2 * m))
        ps = ParaStructure(q @ base @ np.linalg.inv(q))
        assert np.trace(ps.matrix) == pytest.approx(0.0, abs=1e-9)
