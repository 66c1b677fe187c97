"""Finite exponential families and their cumulant geometry.

A family is a finite sample space of size m, a table of n statistics
X[j, w], and positive base weights mu0.  The log-partition potential

    potential(beta) = log sum_w mu0[w] exp(-sum_j beta[j] X[j, w])

is the generating function of everything else: its gradient gives the dual
coordinates, its Hessian the metric, and its third/fourth derivatives the
skewness tensor and the order-4 invariants.  All moments are exact sums
over the sample space, so every quantity here is deterministic.

Every function of beta but :func:`natural_from_dual` takes one parameter
point or a ``(..., n)`` stack of them, puts the point axes first in what it
returns (a scalar of one point is a ``float``) and gives each point of a
stack the doubles it gives that point alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    DegenerateMetric,
    DimensionMismatch,
    InvalidFamily,
    NonConvergence,
    NonFiniteValue,
    require_finite,
    require_invertible,
)


@dataclass(frozen=True)
class ExponentialFamily:
    """Statistics table X (n x m) with base weights mu0 (length m, > 0)."""

    X: np.ndarray
    mu0: np.ndarray | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.size == 0 or not np.all(np.isfinite(X)):
            raise InvalidFamily("statistics table must be nonempty and finite")
        mu0 = self.mu0
        mu0 = np.ones(X.shape[1]) if mu0 is None else np.asarray(mu0, dtype=float)
        if mu0.shape != (X.shape[1],):
            raise DimensionMismatch("base weights must have one entry per outcome")
        if not np.all(mu0 > 0.0) or not np.all(np.isfinite(mu0)):
            raise InvalidFamily("base weights must be strictly positive and finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "mu0", mu0)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _as_beta(fam: ExponentialFamily, beta) -> np.ndarray:
    """One finite parameter point or a ``(..., n)`` stack of them."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[-1:] != (fam.n,):
        raise DimensionMismatch(f"expected {fam.n} coordinates, got shape {beta.shape}")
    if not np.isfinite(beta).all():
        raise NonFiniteValue("parameter point must be finite")
    return beta


_BLOCK_ROWS = 256

# an overflowing -beta.X gives a non-finite value here and NaN weights below, silently
@np.errstate(over="ignore", invalid="ignore")
def potential_eval(fam: ExponentialFamily, beta):
    """Log-partition value; computed with a max shift so |beta| ~ 50 is safe."""
    beta = _as_beta(fam, beta)
    rows = beta.reshape(-1, fam.n)
    value = np.empty(len(rows))
    # each row is its own: a block of 1 x n products rounds each row exactly
    # as the one-point product does (a plain (rows, n) @ (n, m) product may
    # not), and a block keeps the (rows, m) temporaries to one 4^4 stencil's
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        value[start:start + _BLOCK_ROWS] = _logsumexp(-(block[:, None, :] @ fam.X)[:, 0, :],
                                                      fam.mu0)
    return float(value[0]) if beta.ndim == 1 else value.reshape(beta.shape[:-1])


def _logsumexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log sum b exp(a) over the last axis, bit-identical to scipy's logsumexp.

    As in scipy 1.17, the maxima (weight m) leave the pairwise sum, zeros in
    their slots, and return as log(m) + a_max; a value that comes out
    non-finite is redone as the plain log of the sum.
    """
    a_max = np.max(a, axis=-1)
    at_max = a == a_max[..., None]
    m = np.sum(np.where(at_max, b, 0.0), axis=-1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.sum(np.where(at_max, 0.0, b * np.exp(a - a_max[..., None])), axis=-1)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        return out if finite.all() else np.where(finite, out, np.log(np.sum(b * np.exp(a), axis=-1)))


@np.errstate(over="ignore", invalid="ignore")
def gibbs_density(fam: ExponentialFamily, beta) -> np.ndarray:
    """Normalized weights p_w = mu0_w exp(-<beta, X(w)>) / Z; sums to 1 per point."""
    beta = _as_beta(fam, beta)
    t = -(beta[..., None, :] @ fam.X)[..., 0, :] + np.log(fam.mu0)
    t -= t.max(axis=-1, keepdims=True)
    p = np.exp(t)
    return p / p.sum(axis=-1, keepdims=True)


# inf - inf from overflowing moments is reported below as NonFiniteValue
@np.errstate(over="ignore", invalid="ignore")
def cumulant_tensor(fam: ExponentialFamily, beta, order: int) -> np.ndarray:
    """Order-k derivative tensor of the potential, from exact moments.

    k=1 is minus the mean of X, k=2 the covariance, k=3 minus the third
    central moment and k=4 the fourth cumulant, all under the Gibbs weights
    at beta.  The result is symmetrized exactly over index permutations.
    Moments that overflow raise :class:`NonFiniteValue`, naming the first
    such point of a stack.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be 1..4")
    beta = _as_beta(fam, beta)
    p = gibbs_density(fam, beta)
    mean = (fam.X @ p[..., None])[..., 0]
    xc = fam.X - mean[..., None]
    if order == 1:
        values = -mean
    elif order == 2:
        cov = np.einsum("...iw,...jw,...w->...ij", xc, xc, p)
        values = 0.5 * (cov + cov.swapaxes(-1, -2))
    elif order == 3:
        m3 = np.einsum("...iw,...jw,...kw,...w->...ijk", xc, xc, xc, p)
        values = -_symmetrize(m3, 3)
    else:
        m4 = np.einsum("...iw,...jw,...kw,...lw,...w->...ijkl", xc, xc, xc, xc, p)
        cov = np.einsum("...iw,...jw,...w->...ij", xc, xc, p)
        k4 = (
            m4
            - np.einsum("...ij,...kl->...ijkl", cov, cov)
            - np.einsum("...ik,...jl->...ijkl", cov, cov)
            - np.einsum("...il,...jk->...ijkl", cov, cov)
        )
        values = _symmetrize(k4, 4)
    return require_finite(values, f"order-{order} moments", beta)


def _symmetrize(t: np.ndarray, k: int) -> np.ndarray:
    """Mean of ``t`` over the permutations of its last ``k`` axes."""
    lead = tuple(range(t.ndim - k))
    perms = [lead + perm for perm in permutations(range(t.ndim - k, t.ndim))]
    return sum(np.transpose(t, perm) for perm in perms) / len(perms)


def checked_metric(fam: ExponentialFamily, beta) -> np.ndarray:
    """Fisher metric, the covariance of the statistics at beta (the order-2
    tensor); DegenerateMetric, naming the worst point, when one is singular."""
    return require_invertible(cumulant_tensor(fam, beta, 2),
                              DegenerateMetric, "Fisher metric", beta)


def dual_coordinates(fam: ExponentialFamily, beta) -> tuple[np.ndarray, float | np.ndarray]:
    """Gradient coordinates eta = grad(potential) and the dual potential.

    eta_j = -E[X_j] under the Gibbs weights, and the Legendre conjugate is
    psi = <beta, eta> - potential(beta).  Requires a nondegenerate metric.
    """
    beta = _as_beta(fam, beta)
    checked_metric(fam, beta)
    eta = -(fam.X @ gibbs_density(fam, beta)[..., None])[..., 0]
    psi = np.vecdot(beta, eta) - potential_eval(fam, beta)
    return eta, float(psi) if beta.ndim == 1 else psi


def natural_from_dual(fam: ExponentialFamily, eta, initial=None) -> np.ndarray:
    """Invert eta = grad(potential) by damped Newton on the gradient map, from
    one point eta of n finite coordinates; each step evaluates the Fisher
    metric and kappa_1 once, at its beta."""
    eta = np.array(eta, dtype=float, ndmin=1)
    beta = np.array(np.zeros(fam.n) if initial is None else initial, dtype=float, ndmin=1)
    if eta.shape != (fam.n,) or beta.shape != (fam.n,):
        raise DimensionMismatch(f"eta and the initial point need {fam.n} coordinates each")
    require_finite(eta, "dual point eta")
    for _ in range(100):
        g = checked_metric(fam, beta)
        resid = cumulant_tensor(fam, beta, 1) - eta
        base = np.max(np.abs(resid))
        if base < 1e-12:
            return beta
        step = np.linalg.solve(g, resid)
        # backtracking on the gradient-map residual
        t = 1.0
        while t > 1e-6:
            trial = beta - t * step
            trial_eta = -(fam.X @ gibbs_density(fam, trial))
            if np.max(np.abs(trial_eta - eta)) < base:
                break
            t *= 0.5
        beta = beta - t * step
    raise NonConvergence("dual-to-natural inversion did not reach tolerance")
