"""The central first difference and composed fourth-order stencils on
stacked fields.

Oracle: each stencil written one point at a time, as the definition reads.
Every shifted point is evaluated on its own and the weighted values are
summed in stencil order; the stacked routines must reproduce it bit for bit.
"""

import importlib
import inspect
import pkgutil
from itertools import product

import numpy as np
import pytest

import frobsym
from frobsym import numdiff
from frobsym import (DimensionMismatch, ExponentialFamily, NonFiniteValue, PotentialField,
                     potential_eval)
from frobsym.numdiff import central_partial, derivative_tensor, gradient, hessian, jacobian

STENCIL = ((-2.0, 1.0 / 12.0), (-1.0, -8.0 / 12.0), (1.0, 8.0 / 12.0), (2.0, -1.0 / 12.0))


def loop_partial(f, x, index, h):
    hs = h * np.maximum(1.0, np.abs(x))
    total = 0.0
    for combo in product(STENCIL, repeat=len(index)):
        shift = np.zeros_like(x)
        weight = 1.0
        for coord, (offset, w) in zip(index, combo):
            shift[coord] += offset * hs[coord]
            weight *= w / hs[coord]
        total += weight * f(x + shift)
    return total


def loop_gradient(f, x, h=None):
    """The central first difference one coordinate and one point at a time."""
    hs = (1e-5 if h is None else h) * np.maximum(1.0, np.abs(x))
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = hs[i]
        g[i] = (f(x + e) - f(x - e)) / (2.0 * hs[i])
    return g


def loop_hessian(f, x):
    """The central second difference one entry and one point at a time."""
    hs = 6e-4 * np.maximum(1.0, np.abs(x))
    n = x.size
    out = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hs[i]
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / hs[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = hs[j]
            out[i, j] = out[j, i] = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej)
                                     + f(x - ei - ej)) / (4.0 * hs[i] * hs[j])
    return out


def loop_jacobian(field, x, h=None):
    """The central first difference of an array-valued field, one point at a time."""
    hs = (1e-5 if h is None else h) * np.maximum(1.0, np.abs(x))
    rows = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = hs[i]
        rows.append((np.asarray(field(x + e)) - np.asarray(field(x - e))) / (2.0 * hs[i]))
    return np.stack(rows)


def loop_tensor(f, x, order, h):
    """Each sorted index by the point loop, copied to its permutations, which
    come after it in product order."""
    out = np.zeros((x.size,) * order)
    for index in product(range(x.size), repeat=order):
        key = tuple(sorted(index))
        out[index] = out[key] if index != key else loop_partial(f, x, key, h)
    return out


def vector_field(z):
    """A 2 x 2 matrix per point, from one point."""
    return np.array([[np.sin(z[0]) * z[-1], np.exp(z).sum()], [z[0] * z[-1] ** 3, 1.0 / (2.0 + z[-1])]])


def point_field(z):
    return float(np.log1p(np.exp(z @ np.linspace(0.5, -0.7, z.size)))
                 + np.prod(np.sin(z + 0.3)))


def stacked(f):
    return lambda zs: np.array([f(z) for z in zs])


def any_stack(f):
    """``f`` of one point, mapped over a ``(..., n)`` stack of any shape."""
    def mapped(zs):
        rows = zs.reshape(-1, zs.shape[-1])
        values = np.array([f(z) for z in rows])
        return values.reshape(zs.shape[:-1] + values.shape[1:])
    return mapped


@pytest.mark.parametrize("h", [5e-3, 1e-2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_tensor_matches_point_loop(order, n, h):
    x = np.linspace(-0.8, 1.3, n)
    assert np.array_equal(derivative_tensor(stacked(point_field), x, order, h),
                          loop_tensor(point_field, x, order, h))


@pytest.mark.parametrize("index", [(0,), (1, 0), (2, 0, 2), (1, 2, 1, 0), (3, 3, 3, 3)])
def test_central_partial_matches_point_loop_on_any_index(index):
    x = np.array([0.4, -1.7, 2.5, 0.1])
    for h in (5e-3, 1e-2):
        assert central_partial(stacked(point_field), x, index, h) == \
            loop_partial(point_field, x, index, h)


def negative_zero_terms(x, h):
    """A field whose every weighted stencil term w * f is -0.0, for an index
    of distinct coordinates: f is -0.0 where the weight is positive and
    +0.0 where it is negative.  The weight of offset -2, -1, 1, 2 has sign
    +, -, +, -."""
    hs = h * np.maximum(1.0, np.abs(x))

    def f(z):
        offsets = np.rint((z - x) / hs)
        sign = np.prod(np.where(offsets == 0.0, 1.0, np.where(np.abs(offsets) == 2.0, -1.0, 1.0)
                                * np.sign(offsets)))
        return -0.0 if sign > 0.0 else 0.0
    return f


@pytest.mark.parametrize("index", [(0,), (1, 0), (2, 0, 3), (1, 2, 3, 0)])
def test_central_partial_adds_negative_zero_terms_as_the_loop_does(index):
    x = np.array([0.4, -1.7, 2.5, 0.1])
    f = negative_zero_terms(x, 1e-2)
    got, want = central_partial(stacked(f), x, index, 1e-2), loop_partial(f, x, index, 1e-2)
    # 0.0 + -0.0 + ... is +0.0, where a plain sum of the -0.0 terms is -0.0
    assert got == want == 0.0
    assert not np.signbit(got) and not np.signbit(want)
    # and in a stack with the reversed index, whose stencil visits the same points
    both = central_partial(stacked(f), x, np.array([index, index[::-1]]), 1e-2)
    assert np.array_equal(both, [want, loop_partial(f, x, index[::-1], 1e-2)])
    assert not np.signbit(both).any()


@pytest.mark.parametrize("bad", ["inf_at_one_point", "inf_on_both_sides", "nan_at_one_point",
                                 "overflowing_terms"])
@pytest.mark.parametrize("index", [(0,), (1, 0), (2, 0, 2)])
def test_central_partial_propagates_non_finite_terms_as_the_loop_does(index, bad):
    x = np.array([0.4, -1.7, 2.5, 0.1])
    h = 1e-2

    def f(z):
        shifted = z[0] - x[0]
        if bad == "inf_at_one_point":
            return np.inf if shifted > 1.5 * h else point_field(z)
        if bad == "inf_on_both_sides":
            return np.inf if abs(shifted) > 1.5 * h else point_field(z)
        if bad == "nan_at_one_point":
            return np.nan if shifted < -1.5 * h else point_field(z)
        return 1e308 if shifted > 0.0 else -1e308

    got = central_partial(stacked(f), x, index, h)
    # in a stack, after an index whose stencil never moves x_0
    both = central_partial(stacked(f), x, np.array([(3,) * len(index), index]), h)
    with np.errstate(over="ignore", invalid="ignore"):  # the oracle's numpy scalars warn
        want = loop_partial(f, x, index, h)
        first = loop_partial(f, x, (3,) * len(index), h)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(both, [first, want], equal_nan=True)
    assert not np.isfinite(got)


@pytest.mark.parametrize("n", [1, 2])
def test_potential_stencils_match_point_loop(n):
    rng = np.random.default_rng(40 + n)
    fam = ExponentialFamily(rng.normal(size=(n, 24)), rng.uniform(0.5, 2.0, 24))
    beta = rng.normal(0.0, 0.7, n)
    for order, h in ((1, 1e-5), (2, 1e-4), (3, 5e-3), (4, 1e-2)):
        assert np.array_equal(
            derivative_tensor(lambda b: potential_eval(fam, b), beta, order, h),
            loop_tensor(lambda b: potential_eval(fam, b), beta, order, h))


@pytest.mark.parametrize("indices", [[(0,), (3,), (0,)], [(1, 0), (2, 3), (1, 1), (3, 0)],
                                     [(2, 0, 2), (0, 0, 0), (1, 2, 3)],
                                     [(1, 2, 1, 0), (3, 3, 3, 3), (0, 1, 2, 3)]])
def test_stacked_indices_match_the_point_loop_index_by_index(indices):
    x = np.array([0.4, -1.7, 2.5, 0.1])
    for h in (5e-3, 1e-2):
        got = central_partial(stacked(point_field), x, np.array(indices), h)
        assert got.shape == (len(indices),)
        assert np.array_equal(got, [loop_partial(point_field, x, i, h) for i in indices])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_derivative_tensor_evaluates_each_distinct_point_once_in_loop_order(n, order):
    x = np.linspace(-0.8, 1.3, n)
    calls, seen = [], []
    field = stacked(point_field)
    derivative_tensor(lambda zs: calls.append(zs.copy()) or field(zs), x, order, 1e-2)
    loop_tensor(recording(point_field, seen), x, order, 1e-2)
    assert len(calls) == 1
    # the loop's points, each once, where the loop first reaches it
    assert [z.tobytes() for z in calls[0]] == list(dict.fromkeys(seen))
    assert len(calls[0]) < len(seen) or order == 1


def unique_rows(points):
    """The byte-distinct rows by a void-view ``np.unique``, in order of first
    occurrence, and each row's position among them."""
    rows = points.view(np.dtype((np.void, points.itemsize * points.shape[1])))
    _, first, inverse = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return points[first[order]], rank[inverse]


@pytest.mark.parametrize("seed", range(20))
def test_distinct_rows_match_the_void_view_unique(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    # rows drawn with repeats from a pool whose entries include both signed zeros
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5e-3, np.pi])[:int(rng.integers(2, 7))]
    pool = rng.choice(values, size=(int(rng.integers(1, 40)), n))
    points = pool[rng.integers(0, len(pool), size=int(rng.integers(1, 400)))]
    got, where = numdiff._distinct_rows(points)
    want, want_where = unique_rows(points)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(where, want_where)
    assert got[where].tobytes() == points.tobytes()
    assert len(got) <= len(pool)


def test_distinct_rows_tell_signed_zeros_apart():
    got, where = numdiff._distinct_rows(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
    assert got.tobytes() == np.array([[0.0, 1.0], [-0.0, 1.0]]).tobytes()
    assert where.tolist() == [0, 1, 0]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_signed_zero_coordinates_give_the_loop_bits(order):
    x = np.array([-0.0, 0.7, -0.0])

    def f(z):
        # tells -0.0 from 0.0 in every coordinate
        return point_field(z) + 0.25 * np.copysign(1.0, z).sum()

    got = derivative_tensor(stacked(f), x, order, 1e-2)
    assert got.tobytes() == loop_tensor(f, x, order, 1e-2).tobytes()


def bare_cube():
    """x_0^3 + x_1^3 + x_2^3 with no analytic third derivative: infinite
    wherever x_1 > 0.751."""
    return PotentialField(3, lambda z: np.where(z[..., 1] > 0.751, np.inf, np.sum(z**3, axis=-1)))


def test_third_tensor_fallback_matches_the_loop():
    x = np.array([0.3, -0.45, 1.2])
    phi = bare_cube()
    assert np.array_equal(phi.third_tensor(x), loop_tensor(phi.value, x, 3, 5e-3))


def test_third_tensor_fallback_names_the_loops_first_non_finite_point():
    x = np.array([0.3, 0.75, -0.2])
    phi = bare_cube()
    with pytest.raises(NonFiniteValue) as got:
        phi.third_tensor(x)
    with pytest.raises(NonFiniteValue) as want:
        loop_tensor(phi.value, x, 3, 5e-3)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("potential has a non-finite entry at [")


def test_one_value_per_stacked_point_is_required():
    # a one-point field reduces the whole stack to one number
    with pytest.raises(DimensionMismatch):
        central_partial(lambda z: float(np.sum(z)), np.zeros(2), (0, 1), 1e-3)


def recording(f, seen):
    """``f`` on one point, appending the bytes of every point it is handed."""
    def field(z):
        seen.append(z.tobytes())
        return f(z)
    return field


@pytest.mark.parametrize("h", [None, 6e-4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gradient_matches_point_loop(n, h):
    # a signed zero and a large coordinate, whose steps scale with |x_i|
    x = np.linspace(-0.8, 1.3, n)
    x[0], x[-1] = -0.0, 40.0 * x[-1]
    rows, points = [], []
    got = gradient(stacked(recording(point_field, rows)), x, h)
    assert np.array_equal(got, loop_gradient(recording(point_field, points), x, h))
    # the stack holds the loop's points, in the order x + h_i e_i, x - h_i e_i
    assert rows == points[0::2] + points[1::2]


def test_gradient_needs_one_value_per_stacked_point():
    with pytest.raises(DimensionMismatch, match=r"shape \(\) for 4 stacked points"):
        gradient(lambda z: float(np.sum(z)), np.zeros(2))
    with pytest.raises(DimensionMismatch, match=r"shape \(4, 1\) for 4 stacked points"):
        gradient(lambda z: z[:, :1], np.zeros(2))


# a step, tolerance or iteration budget that a caller could set
STEP_PARAMETERS = {"h", "step", "tol", "nested_h", "max_iter", "triples", "modes"}


def public_functions():
    """Every public function, method and constructor defined in frobsym."""
    for info in pkgutil.iter_modules(frobsym.__path__):
        module = importlib.import_module(f"frobsym.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    function = getattr(member, "__func__", member)
                    if (attr == "__init__" or not attr.startswith("_")) and inspect.isfunction(function):
                        yield function


def test_only_numdiff_takes_a_step():
    """Each step and tolerance is fixed where it is used, so no caller can
    swap a closed form for a difference or one difference for another; the
    nested Jacobi step of the bracket suite is fixed inside the suite."""
    offenders = sorted(
        f"{fn.__module__}.{fn.__qualname__}({name})"
        for fn in public_functions() if fn.__module__ != "frobsym.numdiff"
        for name in inspect.signature(fn).parameters
        if name in STEP_PARAMETERS or name.endswith("_step"))
    assert offenders == []


def base_points(n):
    """Three points, one with a signed zero and one with a large coordinate."""
    x = np.linspace(-0.8, 1.3, n) + np.zeros((3, n))
    x[1] *= 3.0
    x[2, 0], x[0, -1] = -0.0, 40.0
    return x


@pytest.mark.parametrize("h", [None, 6e-4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jacobian_matches_point_loop(n, h):
    points = base_points(n)
    for x in points:
        assert np.array_equal(jacobian(any_stack(vector_field), x, h),
                              loop_jacobian(vector_field, x, h))
    # a stack of base points: one call, each point's loop result
    calls = []
    field = any_stack(vector_field)
    got = jacobian(lambda zs: calls.append(zs.shape) or field(zs), points, h)
    assert calls == [(3, 2, n, n)]
    assert got.shape == (3, n, 2, 2)
    assert np.array_equal(got, np.stack([loop_jacobian(vector_field, x, h) for x in points]))


@pytest.mark.parametrize("h", [None, 6e-4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)], ids=["1", "5", "2x3"])
def test_gradient_on_a_stack_of_base_points_matches_point_loop(shape, n, h):
    rng = np.random.default_rng(n)
    points = rng.normal(0.0, 2.0, shape + (n,))
    points[(0,) * len(shape)][0], points[(-1,) * len(shape)][-1] = -0.0, 40.0
    calls = []
    field = any_stack(point_field)
    got = gradient(lambda zs: calls.append(zs.shape) or field(zs), points, h)
    # one call on the (..., 2n, n) stack, each base point's loop result
    assert calls == [shape + (2 * n, n)]
    assert np.array_equal(got, np.reshape([loop_gradient(point_field, x, h)
                                           for x in points.reshape(-1, n)], shape + (n,)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hessian_matches_point_loop(n):
    points = base_points(n)
    for x in points:
        rows, seen = [], []
        got = hessian(any_stack(recording(point_field, rows)), x)
        assert np.array_equal(got, loop_hessian(recording(point_field, seen), x))
        # the same shifted points, each evaluated once
        assert sorted(rows) == sorted(set(seen))
    calls = []
    field = any_stack(point_field)
    got = hessian(lambda zs: calls.append(zs.shape) or field(zs), points.reshape(3, 1, n))
    assert calls == [(3, 1, 1 + 2 * n * n, n)]
    assert np.array_equal(got[:, 0], np.stack([loop_hessian(point_field, x) for x in points]))


@pytest.mark.parametrize("routine", [jacobian, hessian])
def test_a_field_that_drops_the_stack_axes_is_dimension_mismatch(routine):
    with pytest.raises(DimensionMismatch, match="for a stack of points of shape"):
        routine(lambda z: float(np.sum(z)), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        routine(lambda z: vector_field(z[(0,) * (z.ndim - 1)]), np.zeros((3, 2)))
