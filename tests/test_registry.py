"""Every field callback of the registry maps a stack of points.

Oracle: the callback called on each point of the stack on its own.  A
stacked call must return the same doubles in the stack's shape, so an entry
written for one point at a time fails here.
"""

import numpy as np
import pytest

from frobsym import registry

POTENTIAL_CALLBACKS = ("func", "domain", "third", "log_hess", "log_third")


def callbacks():
    """(id, dim, callback) for every field callback of every registry entry."""
    for name, make in registry.METRICS.items():
        metric = make()
        yield f"metric-{name}-func", metric.dim, metric.func
        yield f"metric-{name}-deriv", metric.dim, metric.deriv
    for name, make in registry.POTENTIALS.items():
        phi = make()
        for attr in POTENTIAL_CALLBACKS:
            if getattr(phi, attr) is not None:
                yield f"potential-{name}-{attr}", phi.dim, getattr(phi, attr)
    for name, make in registry.SCALARS.items():
        value, gradient = make()
        yield f"scalar-{name}-value", 3, value
        yield f"scalar-{name}-gradient", 3, gradient
    for name, make in registry.LATTICE_COEFFICIENTS.items():
        for r in (1, 2, 3):
            metric, metric_deriv, _ = make(r)
            yield f"lattice-{name}{r}-metric", r, metric
            yield f"lattice-{name}{r}-metric_deriv", r, metric_deriv


CALLBACKS = {key: (dim, callback) for key, dim, callback in callbacks()}


@pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)], ids=["1xn", "5xn", "2x3xn"])
@pytest.mark.parametrize("key", sorted(CALLBACKS))
def test_stacked_call_equals_the_row_by_row_calls(key, shape):
    dim, callback = CALLBACKS[key]
    rng = np.random.default_rng(len(key))
    stack = rng.uniform(0.3, 3.0, size=shape + (dim,))
    # a large coordinate, whose powers and products round differently
    stack.reshape(-1, dim)[-1, 0] = 4.0e3
    rows = [np.asarray(callback(x)) for x in stack.reshape(-1, dim)]
    stacked = np.asarray(callback(stack))
    assert stacked.shape == shape + rows[0].shape
    assert np.array_equal(stacked.reshape(-1, *rows[0].shape), np.stack(rows))


def test_every_entry_is_covered():
    # four potentials with 12 callbacks, five metrics with two each, two
    # scalars with two each, and two lattice coefficient sets at three field
    # sizes with two each
    assert len(CALLBACKS) == 12 + 10 + 4 + 12


def test_powers_round_as_the_one_point_formulas():
    """Each entry's doubles are those of its formula evaluated at one point,
    where a power of one coordinate is a scalar power; numpy's array power
    rounds some of them differently (x**3 in ~5% of doubles, x**2 in ~0.1%)."""
    x = np.exp(np.random.default_rng(0).normal(0.0, 2.0, size=(20000, 3)))
    third = registry.orthant_potential(3).log_third(x)
    sphere = registry.round_sphere_metric().value(x[:, :2])
    cubic = registry.POTENTIALS["wdvv_cubic3_perturbed"]().func(x)
    for p, (a, b, c) in enumerate(x.tolist()):
        a, b, c = np.float64(a), np.float64(b), np.float64(c)
        assert [third[p, i, i, i] for i in range(3)] == [-2.0 / v ** 3 for v in (a, b, c)]
        assert sphere[p, 1, 1] == np.sin(a) ** 2
        assert cubic[p] == 0.5 * a ** 2 * c + 0.5 * a * b ** 2 + 0.1 * b ** 2 * c ** 2
