"""Central finite differences for scalar, vector and matrix valued fields.

Step sizes follow the usual truncation/roundoff balance for ~1e-6 residual
targets on double precision data:

* first derivatives   h1 = 1e-5  * max(1, |x_i|)
* second derivatives  h2 = 6e-4  * max(1, |x_i|)   (cube-root-of-eps scaling)

Mixed and higher partials are built by composing one-dimensional central
operators, so every routine here only ever needs the field itself. The
fourth-order stencil (f(x-2h) - 8f(x-h) + 8f(x+h) - f(x+2h)) / 12h is used
where third/fourth derivatives have to come out at ~1e-6 relative accuracy.

Every routine calls its field once, on all the shifted points it needs as
one stack: a field maps a ``(..., n)`` stack of points to ``(..., *out)``,
one value per point.  :func:`gradient`, :func:`jacobian` and :func:`hessian`
take a stack of base points too.  :func:`central_partial` and
:func:`derivative_tensor` hand over only the byte-distinct points of all
their stencils, since composed stencils revisit many points.  Each shifted
row is built with the additions a one-point loop makes, so it holds the same
doubles, and every result equals that loop's bit for bit.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement, product
from typing import Callable

import numpy as np

from .errors import DimensionMismatch

FIRST_ORDER_STEP = 1e-5
SECOND_ORDER_STEP = 6e-4


def step_sizes(x: np.ndarray, scale: float) -> np.ndarray:
    """Per-coordinate steps scale * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    return scale * np.maximum(1.0, np.abs(x))


def gradient(f: Callable, x, h: float | None = None) -> np.ndarray:
    """Central first-difference gradient of a scalar field, ``(..., n)`` for
    ``x`` of shape ``(..., n)``.

    The rows x + h_i e_i for every i, then x - h_i e_i, of every base point
    go to ``f`` as one ``(..., 2n, n)`` stack, which must come back as
    ``(..., 2n)`` values.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    hs = step_sizes(x, FIRST_ORDER_STEP if h is None else h)
    e, x0 = _scaled_units(hs), x[..., None, :]
    stack = np.concatenate([x0 + e, x0 - e], axis=-2)
    values = np.asarray(f(stack), dtype=float)
    if values.shape != stack.shape[:-1]:
        raise DimensionMismatch(f"field returned shape {values.shape} for "
                                f"{int(np.prod(stack.shape[:-1]))} stacked points")
    return (values[..., :n] - values[..., n:]) / (2.0 * hs)


def hessian(f: Callable, x) -> np.ndarray:
    """Symmetric central-difference Hessian of a scalar field, ``(..., n, n)``;
    all 1 + 2n^2 shifted points of each base point go to ``f`` in one stack."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    hs = step_sizes(x, SECOND_ORDER_STEP)
    e = _scaled_units(hs)
    i, j = np.triu_indices(n, 1)
    ei, ej = e[..., i, :], e[..., j, :]
    x0 = x[..., None, :]
    values = _values(f, np.concatenate([x0, x0 + e, x0 - e, x0 + (ei + ej), x0 + (ei - ej),
                                        x0 + (ej - ei), x0 - (ei + ej)], axis=-2))
    f0, plus, minus, pp, pm, mp, mm = np.split(values, np.cumsum([1, n, n] + [i.size] * 3),
                                               axis=-1)
    out = np.empty(x.shape + (n,))
    # hs_i ** 2 rounded as a one-point loop's scalar power rounds it
    out[..., range(n), range(n)] = (plus - 2.0 * f0 + minus) / np.float_power(hs, 2)
    out[..., i, j] = out[..., j, i] = (pp - pm - mp + mm) / (4.0 * hs[..., i] * hs[..., j])
    return out


def _scaled_units(hs: np.ndarray) -> np.ndarray:
    """[..., i, :] = h_i e_i, with exact zeros off the diagonal."""
    units = np.zeros(hs.shape + hs.shape[-1:])
    units[..., range(hs.shape[-1]), range(hs.shape[-1])] = hs
    return units


def _values(field: Callable, stack: np.ndarray) -> np.ndarray:
    """``field`` on a stack; DimensionMismatch unless it keeps the point axes."""
    values = np.asarray(field(stack), dtype=float)
    if values.shape[:stack.ndim - 1] != stack.shape[:-1]:
        raise DimensionMismatch(f"field returned shape {values.shape} for a stack of points "
                                f"of shape {stack.shape}")
    return values


# Fourth-order central first-derivative stencil: offsets and weights (w / h).
_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


@cache
def _picks(k: int) -> np.ndarray:
    """[r, c]: the stencil entry of row r for differentiation c; rows run lexicographically."""
    return np.array(list(product(range(4), repeat=k)), dtype=int).reshape(4**k, k)


def central_partial(f: Callable, x, index: tuple[int, ...] | np.ndarray,
                    h: float) -> float | np.ndarray:
    """Mixed partial d^k f / dx_{i1}..dx_{ik} by composed 4th-order stencils.

    ``index`` lists one coordinate per differentiation (repeats allowed),
    and the partial is a float; a ``(C, k)`` stack of such indices gives the
    ``(C,)`` partials.  The 4^k shifted points of every index form one
    stack, and ``f`` is called once, on its byte-distinct rows in order of
    first occurrence, as a ``(D, n)`` stack that must come back as D values;
    intended for k <= 4 at desk scale.  Shifts, weights and each weighted
    sum accumulate in stencil order, so a partial does not depend on how
    ``f`` batches its rows or on the other indices of the stack.
    """
    indices = np.atleast_2d(np.asarray(index, dtype=int))
    weights, points = _stencils(np.asarray(x, dtype=float), indices, h)
    points, where = _distinct_rows(points)  # the full stack is freed here
    values = np.asarray(f(points), dtype=float)
    if values.shape != points.shape[:1]:
        raise DimensionMismatch(
            f"field returned shape {values.shape} for {len(points)} stacked points")
    # 0.0 + w0 v0 + w1 v1 + ... in stencil order, as a Python loop adds it (-0.0 terms give 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weights * values[where].reshape(weights.shape)
        sums = np.add.accumulate(np.concatenate((np.zeros((len(terms), 1)), terms), axis=1),
                                 axis=1)[:, -1]
    return sums if np.ndim(index) == 2 else float(sums[0])


def _stencils(x: np.ndarray, indices: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``(C, 4^k)`` weights of a ``(C, k)`` stack of indices and their
    ``(C * 4^k, n)`` shifted points, each built column by column as one
    index's own stencil builds it."""
    hs = step_sizes(x, h)
    picks = _picks(indices.shape[1])
    stack = np.arange(len(indices))
    points = np.zeros((len(indices), picks.shape[0], x.size))
    weights = np.ones((len(indices), picks.shape[0]))
    for column, coords in enumerate(indices.T):
        points[stack, :, coords] += _OFFSETS[picks[:, column]] * hs[coords, None]
        weights *= _WEIGHTS[picks[:, column]] / hs[coords, None]
    points += x  # shift + x rounds as x + shift
    return weights, points.reshape(weights.size, x.size)


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte-distinct rows of a C-contiguous ``(R, n)`` stack in order of first
    occurrence, and for each row the position of its own among them;
    -0.0 and 0.0 differ, as a field may tell them apart."""
    bits = points.view(np.int64)
    # a stable sort keeps equal rows in stack order, so each run of equal
    # rows starts at its first occurrence
    order = np.lexsort(bits.T)
    ranked = bits[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[starts]
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(seen.size)
    where = np.empty_like(order)
    where[order] = rank[np.cumsum(starts) - 1]
    return points[first[seen]], where


@cache
def _sorted_indices(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted indices of an order-``order`` tensor on ``n`` coordinates,
    as a ``(C, order)`` stack in product order, and the ``(n,) * order``
    array of each index's position in that stack once sorted."""
    keys = list(combinations_with_replacement(range(n), order))
    position = {key: p for p, key in enumerate(keys)}
    slots = [position[tuple(sorted(index))] for index in product(range(n), repeat=order)]
    return (np.array(keys, dtype=int).reshape(len(keys), order),
            np.array(slots, dtype=int).reshape((n,) * order))


def derivative_tensor(f: Callable, x, order: int, h: float) -> np.ndarray:
    """Full symmetric tensor of order-``order`` partials via central stencils.

    One :func:`central_partial` call takes the stack of sorted indices, so
    ``f`` is evaluated once, on the distinct points of all their stencils;
    each permutation of an index copies its partial.
    """
    x = np.asarray(x, dtype=float)
    keys, slots = _sorted_indices(x.size, order)
    return central_partial(f, x, keys, h)[slots]


def jacobian(field: Callable, x, h: float | None = None) -> np.ndarray:
    """d(field)/dx, ``(..., n, *out)`` for ``x`` of shape ``(..., n)``: the
    axis after the point axes indexes the coordinate differentiated.  The
    ``(..., 2, n, n)`` stack of the points x +- h_i e_i goes to ``field`` in
    one call and must come back as ``(..., 2, n, *out)``."""
    x = np.asarray(x, dtype=float)
    hs = step_sizes(x, FIRST_ORDER_STEP if h is None else h)
    e = _scaled_units(hs)
    values = _values(field, np.stack([x[..., None, :] + e, x[..., None, :] - e], axis=-3))
    plus, minus = np.moveaxis(values, x.ndim - 1, 0)
    return (plus - minus) / (2.0 * hs).reshape(hs.shape + (1,) * (plus.ndim - hs.ndim))
