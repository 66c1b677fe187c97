"""Finite exponential families and their cumulant geometry.

A family is a finite sample space of size m, a table of n statistics
X[j, w], and positive base weights mu0.  The log-partition potential

    potential(beta) = log sum_w mu0[w] exp(-sum_j beta[j] X[j, w])

is the generating function of everything else: its gradient gives the dual
coordinates, its Hessian the metric, and its third/fourth derivatives the
skewness tensor and the order-4 invariants.  All moments are exact sums
over the sample space, so every quantity here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMetric,
    DimensionMismatch,
    InvalidFamily,
    NonConvergence,
    NonFiniteValue,
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

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class CumulantTensor:
    """Fully symmetric order-k derivative tensor of the potential."""

    order: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != self.order:
            raise DimensionMismatch("tensor rank must equal the stated order")
        object.__setattr__(self, "values", v)


def _as_beta(fam: ExponentialFamily, beta, stacked: bool = False) -> np.ndarray:
    """One finite parameter point, or with ``stacked`` a ``(..., n)`` stack."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.shape[-1:] != (fam.n,) or (beta.ndim != 1 and not stacked):
        raise DimensionMismatch(f"expected {fam.n} coordinates, got shape {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise NonFiniteValue("parameter point must be finite")
    return beta


def potential_eval(fam: ExponentialFamily, beta):
    """Log-partition value; computed with a max shift so |beta| ~ 50 is safe.

    ``beta`` is one point (a ``float`` comes back) or a ``(..., n)`` stack of
    points (an array of one value per point comes back).
    """
    beta = _as_beta(fam, beta, stacked=True)
    # a stack of 1 x n products rounds each row exactly as the one-point
    # product does; a plain (rows, n) @ (n, m) product may not
    exponent = -(beta[..., None, :] @ fam.X)[..., 0, :]
    value = _logsumexp(exponent, fam.mu0)
    return float(value) if beta.ndim == 1 else value


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


def pairing(mu, f) -> float:
    """Discrete dual pairing sum_j f^j mu_j."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    if mu.shape != f.shape or mu.ndim != 1:
        raise DimensionMismatch(f"length mismatch: {mu.shape} vs {f.shape}")
    return float(mu @ f)


def gibbs_density(fam: ExponentialFamily, beta) -> np.ndarray:
    """Normalized weights p_w = mu0_w exp(-<beta, X(w)>) / Z; sums to 1."""
    beta = _as_beta(fam, beta)
    t = -(beta @ fam.X) + np.log(fam.mu0)
    t -= np.max(t)
    p = np.exp(t)
    return p / p.sum()


# inf - inf from overflowing moments is reported below as NonFiniteValue
@np.errstate(over="ignore", invalid="ignore")
def cumulant_tensor(fam: ExponentialFamily, beta, order: int) -> CumulantTensor:
    """Order-k derivative tensor of the potential, from exact moments.

    k=1 is minus the mean of X, k=2 the covariance, k=3 minus the third
    central moment and k=4 the fourth cumulant, all under the Gibbs weights
    at beta.  The result is symmetrized exactly over index permutations.
    Moments that overflow raise :class:`NonFiniteValue`.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be 1..4")
    beta = _as_beta(fam, beta)
    p = gibbs_density(fam, beta)
    mean = fam.X @ p
    xc = fam.X - mean[:, None]
    if order == 1:
        values = -mean
    elif order == 2:
        cov = np.einsum("iw,jw,w->ij", xc, xc, p)
        values = 0.5 * (cov + cov.T)
    elif order == 3:
        m3 = np.einsum("iw,jw,kw,w->ijk", xc, xc, xc, p)
        values = -_symmetrize(m3)
    else:
        m4 = np.einsum("iw,jw,kw,lw,w->ijkl", xc, xc, xc, xc, p)
        cov = np.einsum("iw,jw,w->ij", xc, xc, p)
        k4 = (
            m4
            - np.einsum("ij,kl->ijkl", cov, cov)
            - np.einsum("ik,jl->ijkl", cov, cov)
            - np.einsum("il,jk->ijkl", cov, cov)
        )
        values = _symmetrize(k4)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"order-{order} moments overflow at beta = {beta}")
    return CumulantTensor(order, values)


def _symmetrize(t: np.ndarray) -> np.ndarray:
    from itertools import permutations

    k = t.ndim
    acc = np.zeros_like(t)
    perms = list(permutations(range(k)))
    for perm in perms:
        acc += np.transpose(t, perm)
    return acc / len(perms)


def checked_metric(fam: ExponentialFamily, beta) -> np.ndarray:
    """Fisher metric, the covariance of the statistics at beta (the order-2
    tensor); DegenerateMetric when it is numerically singular."""
    return require_invertible(cumulant_tensor(fam, beta, 2).values,
                              DegenerateMetric, "Fisher metric", beta)


def dual_coordinates(fam: ExponentialFamily, beta) -> tuple[np.ndarray, float]:
    """Gradient coordinates eta = grad(potential) and the dual potential.

    eta_j = -E[X_j] under the Gibbs weights, and the Legendre conjugate is
    psi = <beta, eta> - potential(beta).  Requires a nondegenerate metric.
    """
    beta = _as_beta(fam, beta)
    checked_metric(fam, beta)
    p = gibbs_density(fam, beta)
    eta = -(fam.X @ p)
    psi = float(beta @ eta) - potential_eval(fam, beta)
    return eta, psi


def natural_from_dual(fam: ExponentialFamily, eta, initial=None) -> np.ndarray:
    """Invert eta = grad(potential) by damped Newton on the gradient map."""
    eta = np.asarray(eta, dtype=float)
    beta = np.zeros(fam.n) if initial is None else np.array(initial, dtype=float)
    for _ in range(100):
        current, _ = dual_coordinates(fam, beta)
        resid = current - eta
        if np.max(np.abs(resid)) < 1e-12:
            return beta
        g = checked_metric(fam, beta)
        step = np.linalg.solve(g, resid)
        # backtracking on the gradient-map residual
        t = 1.0
        base = np.max(np.abs(resid))
        while t > 1e-6:
            trial = beta - t * step
            trial_eta = -(fam.X @ gibbs_density(fam, trial))
            if np.max(np.abs(trial_eta - eta)) < base:
                break
            t *= 0.5
        beta = beta - t * step
    raise NonConvergence("dual-to-natural inversion did not reach tolerance")
