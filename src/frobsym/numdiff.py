"""Central finite differences for scalar, vector and matrix valued fields.

Step sizes follow the usual truncation/roundoff balance for ~1e-6 residual
targets on double precision data:

* first derivatives   h1 = 1e-5  * max(1, |x_i|)
* second derivatives  h2 = 6e-4  * max(1, |x_i|)   (cube-root-of-eps scaling)

Mixed and higher partials are built by composing one-dimensional central
operators, so every routine here only ever needs the field itself. The
fourth-order stencil (f(x-2h) - 8f(x-h) + 8f(x+h) - f(x+2h)) / 12h is used
where third/fourth derivatives have to come out at ~1e-6 relative accuracy.

:func:`gradient`, :func:`central_partial` and :func:`derivative_tensor`
hand their field all shifted points of one stencil at once: the field maps
a ``(rows, n)`` stack of points to one value per row, reducing over the
last axis. :func:`hessian` and :func:`jacobian` call their field on one
point at a time.
"""

from __future__ import annotations

from itertools import product
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
    """Central first-difference gradient of a scalar field.

    The rows x + h_i e_i for every i, then x - h_i e_i, go to ``f`` as one
    ``(2n, n)`` stack, which must come back as 2n values.  Each row is the
    sum x + (+-h_i e_i), so it holds the same doubles a one-point loop would
    build, and the gradient equals that loop's bit for bit.
    """
    x = np.asarray(x, dtype=float)
    hs = step_sizes(x, FIRST_ORDER_STEP if h is None else h)
    shifts = np.diag(hs)
    values = np.asarray(f(np.concatenate([x + shifts, x - shifts])), dtype=float)
    if values.shape != (2 * x.size,):
        raise DimensionMismatch(
            f"field returned shape {values.shape} for {2 * x.size} stacked points")
    return (values[:x.size] - values[x.size:]) / (2.0 * hs)


def hessian(f: Callable, x, h: float | None = None) -> np.ndarray:
    """Symmetric central-difference Hessian of a scalar field."""
    x = np.asarray(x, dtype=float)
    hs = step_sizes(x, SECOND_ORDER_STEP if h is None else h)
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
            mixed = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * hs[i] * hs[j])
            out[i, j] = mixed
            out[j, i] = mixed
    return out


# Fourth-order central first-derivative stencil: offsets and weights (w / h).
_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def central_partial(f: Callable, x, index: tuple[int, ...], h: float) -> float:
    """Mixed partial d^k f / dx_{i1}..dx_{ik} by composed 4th-order stencils.

    ``index`` lists one coordinate per differentiation (repeats allowed).
    The 4^k shifted points go to ``f`` as one ``(4^k, n)`` stack, which must
    come back as 4^k values; intended for k <= 4 at desk scale. Shifts,
    weights and the weighted sum accumulate in stencil order, so the result
    does not depend on how ``f`` batches its rows.
    """
    x = np.asarray(x, dtype=float)
    hs = step_sizes(x, h)
    k = len(index)
    # row r shifts coordinate index[c] by _OFFSETS[picks[r, c]]; rows run in
    # lexicographic order of the picks
    picks = np.array(list(product(range(4), repeat=k)), dtype=int).reshape(4**k, k)
    shifts = np.zeros((picks.shape[0], x.size))
    weights = np.ones(picks.shape[0])
    for column, coord in enumerate(index):
        shifts[:, coord] += _OFFSETS[picks[:, column]] * hs[coord]
        weights *= _WEIGHTS[picks[:, column]] / hs[coord]
    values = np.asarray(f(x + shifts), dtype=float)
    if values.shape != weights.shape:
        raise DimensionMismatch(
            f"field returned shape {values.shape} for {weights.size} stacked points")
    total = 0.0
    for weight, value in zip(weights.tolist(), values.tolist()):
        total += weight * value
    return total


def derivative_tensor(f: Callable, x, order: int, h: float) -> np.ndarray:
    """Full symmetric tensor of order-``order`` partials via central stencils."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n,) * order)
    for index in product(range(n), repeat=order):
        key = tuple(sorted(index))
        if index != key:
            out[index] = out[key]
        else:
            out[index] = central_partial(f, x, index, h)
    return out


def jacobian(field: Callable, x, h: float | None = None) -> np.ndarray:
    """d(field)/dx for an array-valued field; leading axis indexes x-coords."""
    x = np.asarray(x, dtype=float)
    hs = step_sizes(x, FIRST_ORDER_STEP if h is None else h)
    rows = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = hs[i]
        rows.append((np.asarray(field(x + e)) - np.asarray(field(x - e))) / (2.0 * hs[i]))
    return np.stack(rows, axis=0)

