"""Declarative check specs, the verification battery, and reports.

A :class:`ManifoldSpec` names one input object (a family, a potential, a
metric, an algebra, or a lattice), the checks to run against it, and the
tolerances.  Specs travel as JSON text; fields, payload schemas and the
machine report format are documented in the README.  The payload is
decoded once per spec, by :func:`_decode_payload`: every payload default
is set and every registry object built there, and each check reads the
result, ``spec.inputs``.  Residual checks are pure and seeded by the spec,
so a battery run is deterministic for a given spec.

Check rows carry a ``paper_anchor`` tag tying each residual to the identity
it certifies; the legal tags are the keys of :data:`ANCHORS`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import __version__ as _pkg_version
from . import registry
from .errors import FrobsymError, NonFiniteValue, ParseError, SchemaError
from .frobenius import find_idempotents_rank2, frobenius_axioms, wdvv_residual
from .geometry import (
    MetricField,
    automorphism_invariance_residual,
    cone_multiply,
    curvature_flatness,
    dual_connections,
    hessian_log_metric,
    hessian_structure,
)
from .frobenius import FrobeniusAlgebra, novikov_residuals
from .paracomplex import ParaNumber, idempotent_decompose, para_conj, para_inverse, para_mul
from .poisson import (
    LatticeBracket,
    bracket_property_residuals,
    canonical_bracket,
    extended_bracket,
    lattice_hydro_bracket,
    lattice_jacobi_residual,
    local_lie_bracket,
)
from .statmanifold import (
    ExponentialFamily,
    checked_metric,
    cumulant_tensor,
    dual_coordinates,
    gibbs_density,
    natural_from_dual,
    potential_eval,
)
from .symplectic import (
    LorentzLagrangian,
    Observable,
    PhasePoint,
    SeparableHamiltonian,
    Trajectory,
    closedness_residual,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    paracomplex_two_form,
)
from . import numdiff

KINDS = ("exponential_family", "cone_potential", "explicit_metric", "algebra", "lattice")

# bound on sites * field_dim**3: the refinement row's largest array, the metric
# derivative on its 4x finer grid, holds 4 * sites * field_dim**3 doubles
LATTICE_SIZE_LIMIT = 2**16

# Anchor tags: each check cites the identity it certifies by one of these.
ANCHORS = {
    "Asso": "triple-product / pairing-invariance identity",
    "Pot": "third derivatives of the potential as the structure tensor",
    "WDVV": "associativity PDE system on the potential",
    "S2.1": "flatness hypothesis of a connection torsion-free by construction",
    "S2.2": "Hamiltonian and split-coordinate recollections",
    "S2.3": "Lorentz-signature Lagrangian and Legendre transform",
    "S3": "bracket definitions and their derivation laws",
    "E:3": "log-sum-exp potential of a finite family",
    "E:p": "hydrodynamic-type bracket",
    "E:b": "flux/metric symmetrization condition",
    "GWS": "order-k derivative invariants of the potential",
    "draft-dual": "dual coordinates and dual potentials",
    "draft-cone": "cone metric, multiplication, automorphism invariance",
}


@dataclass(frozen=True)
class ManifoldSpec:
    kind: str
    payload: dict
    checks: tuple
    tolerances: dict
    seed: int = 0
    name: str = ""

    def canonical_text(self) -> str:
        return self._canonical_text

    @cached_property
    def _canonical_text(self) -> str:
        return json.dumps({"kind": self.kind, "payload": self.payload, "checks": self.checks,
                           "tolerances": self.tolerances, "seed": self.seed, "name": self.name},
                          sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    @cached_property
    def inputs(self) -> SimpleNamespace:
        """The payload's inputs, decoded on first use by :func:`_decode_payload`."""
        return _decode_payload(self.kind, self.payload)


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str  # pass | fail
    residual: float | None
    tolerance: float
    runtime_ms: float
    paper_anchor: str


@dataclass(frozen=True)
class Report:
    entry: str
    spec_hash: str
    seed: int
    versions: dict
    rows: tuple

    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.rows)


# ---------------------------------------------------------------------------
# spec parsing and validation


def load_manifold_spec(source) -> ManifoldSpec:
    """Parse a spec from JSON text, a path string, or a path-like object.

    A string that starts (after whitespace) with '{' is treated as JSON
    text, anything else as a file path.  Text that is not UTF-8 or JSON, or
    too deeply nested or long-numbered to parse, raises ParseError; a file
    that cannot be read raises its OSError.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"spec file is not UTF-8 text: {exc.reason} at byte "
                                 f"{exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid spec text: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from exc
    except (RecursionError, ValueError) as exc:
        # nested past the recursion limit, or an int longer than int() converts
        raise ParseError(f"invalid spec text: {exc}") from exc
    return spec_from_dict(data)


def spec_from_dict(data: dict) -> ManifoldSpec:
    if not isinstance(data, dict):
        raise SchemaError("spec must be a JSON object", field="$")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}", field="kind")
    payload, checks = data.get("payload", {}), data.get("checks", [])
    tolerances, seed, name = data.get("tolerances", {}), data.get("seed", 0), data.get("name", "")
    _check_fields(payload, checks, tolerances, seed, name)
    for c in checks:
        if kind not in CHECKS[c].kinds:
            raise SchemaError(f"check {c!r} does not apply to kind {kind!r}",
                              field="checks")
    spec = ManifoldSpec(kind, payload, tuple(checks), dict(tolerances), seed, name)
    spec.inputs  # decoded here, so a malformed payload is a SchemaError before any run
    _digest(spec)
    return spec


def _check_fields(payload, checks, tolerances, seed, name) -> None:
    """SchemaError naming the first malformed field of a spec.

    :func:`spec_from_dict` and :func:`run_battery` share these checks; the
    kind, which kinds a check applies to and the payload's own fields are
    left to their callers.
    """
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object", field="payload")
    if not isinstance(checks, (list, tuple)) or not all(isinstance(c, str) for c in checks):
        raise SchemaError("checks must be a list of names", field="checks")
    if len(set(checks)) != len(checks):
        raise SchemaError("duplicate check names", field="checks")
    for c in checks:
        if c not in CHECKS:
            raise SchemaError(f"unknown check {c!r}", field="checks")
    if not isinstance(tolerances, dict):
        raise SchemaError("tolerances must be a map", field="tolerances")
    for key, value in tolerances.items():
        if key not in CHECKS:
            raise SchemaError(f"tolerance for unknown check {key!r}", field="tolerances")
        if not (_real(value) and value > 0):
            raise SchemaError(f"tolerance for {key!r} must be positive and finite",
                              field=f"tolerances.{key}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError("seed must be a nonnegative integer", field="seed")
    try:
        str(seed)  # every report prints the seed
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise SchemaError(f"seed must have at most {sys.get_int_max_str_digits()} digits",
                          field="seed") from exc
    # a lone surrogate ("\ud800" in JSON) has no UTF-8 encoding, so no report could print it
    if not isinstance(name, str) or any("\ud800" <= c <= "\udfff" for c in name):
        raise SchemaError("name must be a string of valid Unicode text", field="name")


def _digest(spec: ManifoldSpec) -> str:
    """The spec hash; SchemaError if the payload's unchecked keys hold
    anything that is not JSON data."""
    try:
        return spec.digest()
    except (TypeError, ValueError, RecursionError) as exc:
        raise SchemaError(f"payload is not JSON data: {exc}", field="payload") from exc


def _require(payload: dict, key: str, kinds, what: str):
    if key not in payload:
        raise SchemaError(f"payload needs {key!r} for {what}", field=f"payload.{key}")
    if kinds is not None and not isinstance(payload[key], kinds):
        raise SchemaError(f"payload field {key!r} has the wrong type",
                          field=f"payload.{key}")
    return payload[key]


def _real(value) -> bool:
    """A JSON number (``true`` is not one) that is a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_point(value, dim: int) -> bool:
    return isinstance(value, list) and len(value) == dim and all(_real(v) for v in value)


def _decode_payload(kind: str, payload: dict) -> SimpleNamespace:
    """Validate a payload and build what its checks read, once per spec.

    Every payload default is set here and every registry object is built
    here: ``family`` and ``beta``; ``potential``, ``pairing``, ``points``
    and ``point``; ``metric``, ``scalar``, ``spins`` and ``separable``;
    ``algebra``; ``lattice``.
    """
    if kind == "exponential_family":
        stats = _require(payload, "statistics", list, kind)
        # one flat row is a family with a single statistic
        rows = stats if stats and all(isinstance(row, list) for row in stats) else [stats]
        outcomes = len(rows[0])
        if (outcomes == 0 or any(len(row) != outcomes for row in rows)
                or not all(_real(v) for row in rows for v in row)):
            raise SchemaError("statistics must be a nonempty rectangular table of "
                              "finite numbers", field="payload.statistics")
        beta = _require(payload, "beta", list, kind)
        if not _is_point(beta, len(rows)):
            raise SchemaError("beta must be one finite number per statistic",
                              field="payload.beta")
        weights = payload.get("base_weights", [1.0] * outcomes)
        if (not isinstance(weights, list) or len(weights) != outcomes
                or not all(_real(v) and v > 0 for v in weights)):
            raise SchemaError("base_weights must be one positive finite number per "
                              "outcome", field="payload.base_weights")
        return SimpleNamespace(family=ExponentialFamily(np.asarray(stats, dtype=float),
                                                        np.asarray(weights, dtype=float)),
                               beta=np.asarray(beta, dtype=float))
    if kind == "cone_potential":
        pot = _require(payload, "potential", str, kind)
        potential = registry.lookup(registry.POTENTIALS, pot, "potential")
        dim = potential.dim
        point = payload.get("point", [0.0] * dim)
        if not _is_point(point, dim):
            raise SchemaError(f"point must be {dim} finite numbers", field="payload.point")
        points = payload.get("points")  # none: each row draws its own
        if "points" in payload and not (isinstance(points, list) and points
                                        and all(_is_point(p, dim) for p in points)):
            raise SchemaError(f"points must be a nonempty list of points of {dim} finite "
                              "numbers", field="payload.points")
        # the pairing pairs tangent vectors, so it is dim x dim
        pairing = np.eye(dim)
        if "pairing" in payload:
            pid = _require(payload, "pairing", str, kind)
            pairing = registry.lookup(registry.CONSTANT_MATRICES, pid, "pairing")
            if pairing.shape != (dim, dim):
                raise SchemaError(f"pairing {pid!r} is not {dim} x {dim}",
                                  field="payload.pairing")
        return SimpleNamespace(potential=potential, pairing=pairing,
                               point=np.asarray(point, dtype=float),
                               points=None if points is None else np.asarray(points, dtype=float))
    if kind == "explicit_metric":
        mid = _require(payload, "metric", str, kind)
        metric = registry.lookup(registry.METRICS, mid, "metric")
        sid = _require(payload, "scalar", str, kind) if "scalar" in payload else "zero"
        scalar = registry.lookup(registry.SCALARS, sid, "scalar")
        spins = (registry.lookup(registry.SPIN_CONSTANTS, _require(payload, "spins", str, kind),
                                 "spins") if "spins" in payload else None)
        # a unit metric: H = |p|^2 / 2 + U(z) separates
        return SimpleNamespace(metric=metric, scalar=scalar, spins=spins,
                               separable=mid.startswith("euclidean"))
    if kind == "algebra":
        aid = _require(payload, "constants", str, kind)
        constants = registry.lookup(registry.ALGEBRAS, aid, "constants")
        return SimpleNamespace(algebra=FrobeniusAlgebra(*constants))
    if kind == "lattice":
        sites = _require(payload, "sites", int, kind)
        if sites < 4:
            raise SchemaError("a lattice needs at least 4 sites", field="payload.sites")
        field_dim = payload.get("field_dim", 1)
        if not isinstance(field_dim, int) or isinstance(field_dim, bool) or field_dim < 1:
            raise SchemaError("field_dim must be a positive integer", field="payload.field_dim")
        if sites * field_dim**3 > LATTICE_SIZE_LIMIT:
            raise SchemaError(f"sites * field_dim**3 must be at most {LATTICE_SIZE_LIMIT}",
                              field="payload.sites" if sites > LATTICE_SIZE_LIMIT
                              else "payload.field_dim")
        cid = _require(payload, "coefficients", str, kind)
        metric, metric_deriv, b = registry.lookup(registry.LATTICE_COEFFICIENTS, cid,
                                                  "coefficients", field_dim)
        return SimpleNamespace(lattice=LatticeBracket(sites, field_dim, metric, b,
                                                      spacing=2.0 * np.pi / sites,
                                                      metric_deriv=metric_deriv))


# ---------------------------------------------------------------------------
# check implementations
#
# Each check receives a CheckContext and returns a single residual (smaller is better).


@dataclass
class CheckContext:
    """A check's view of the run: the spec, its decoded inputs and its rng,
    and ``shared``, the store of its battery, which every check of the
    battery sees and which ends with it."""

    spec: ManifoldSpec
    rng: np.random.Generator
    shared: dict = field(default_factory=dict)

    @property
    def inputs(self) -> SimpleNamespace:
        # a spec built without spec_from_dict decodes here, inside its first
        # check, so a payload it cannot decode gives null rows
        return self.spec.inputs


def _cone_points(ctx: CheckContext, count: int = 3) -> np.ndarray:
    """The payload's points, or ``count`` drawn ones, as a (P, dim) stack."""
    if ctx.inputs.points is not None:
        return ctx.inputs.points
    return np.exp(ctx.rng.normal(0.0, 0.3, size=(count, ctx.inputs.potential.dim))) + 0.2


def _lattice_state(lb: LatticeBracket) -> np.ndarray:
    x = lb.spacing * np.arange(lb.sites)
    return np.stack([2.0 + np.sin(x + 0.5 * k) for k in range(lb.field_dim)])


def _check_gibbs_normalization(ctx: CheckContext) -> float:
    fam = ctx.inputs.family
    betas = np.vstack([ctx.inputs.beta, ctx.rng.normal(0.0, 1.0, (8, fam.n))])
    return float(abs(gibbs_density(fam, betas).sum(axis=-1) - 1.0).max())


def _fd_cumulant(fam: ExponentialFamily, beta, order: int, step: float) -> np.ndarray:
    return numdiff.derivative_tensor(lambda b: potential_eval(fam, b),
                                     np.asarray(beta, dtype=float), order, step)


_CUMULANT_STEPS = {1: 1e-5, 2: 1e-4, 3: 5e-3, 4: 1e-2}


def _cumulant_match(ctx: CheckContext, orders) -> float:
    fam, beta = ctx.inputs.family, ctx.inputs.beta
    gaps = []
    for k in orders:
        analytic = cumulant_tensor(fam, beta, k)
        fd = _fd_cumulant(fam, beta, k, _CUMULANT_STEPS[k])
        scale = max(1.0, float(np.max(np.abs(analytic))))
        gaps.append(float(np.max(np.abs(analytic - fd))) / scale)
    # np.max keeps a NaN gap (an overflowed stencil), which max() would drop
    return float(np.max(gaps))


def _check_cumulants_low_order(ctx: CheckContext) -> float:
    return _cumulant_match(ctx, (1, 2, 3))


def _check_cumulants_order4(ctx: CheckContext) -> float:
    return _cumulant_match(ctx, (4,))


def _check_metric_positive_definite(ctx: CheckContext) -> float:
    fam = ctx.inputs.family
    betas = np.vstack([ctx.inputs.beta, ctx.rng.normal(0.0, 0.7, (4, fam.n))])
    return max(0.0, -float(np.linalg.eigvalsh(checked_metric(fam, betas))[:, 0].min()))


def _check_dual_coordinates(ctx: CheckContext) -> float:
    fam, beta = ctx.inputs.family, ctx.inputs.beta
    eta, psi = dual_coordinates(fam, beta)
    legendre = abs(psi + potential_eval(fam, beta) - float(beta @ eta))
    jac = numdiff.jacobian(lambda b: dual_coordinates(fam, b)[0], beta)
    metric = cumulant_tensor(fam, beta, 2)
    jacobian_gap = float(np.max(np.abs(jac - metric)))
    back = natural_from_dual(fam, eta, initial=beta + 0.3)
    roundtrip = float(np.max(np.abs(back - beta)))
    return max(legendre, jacobian_gap, roundtrip)


def _check_dual_connections(ctx: CheckContext) -> float:
    rep = dual_connections(ctx.inputs.family, ctx.inputs.beta)
    return max(rep.duality_residual, rep.curvature_growth, rep.curvature_mixture)


def _check_hessian_metric_pd(ctx: CheckContext) -> float:
    lowest = np.linalg.eigvalsh(hessian_log_metric(ctx.inputs.potential).value(
        _cone_points(ctx, 5)))
    return max(0.0, -float(lowest[:, 0].min()))


def _check_flatness(ctx: CheckContext) -> float:
    if ctx.spec.kind == "cone_potential":
        # a log-Hessian metric: R in closed form from Gamma, no second difference level
        structure = hessian_structure(hessian_log_metric(ctx.inputs.potential), _cone_points(ctx))
        return structure.curvature()
    metric = ctx.inputs.metric
    return curvature_flatness(metric, ctx.rng.normal(0.5, 0.4, (3, metric.dim)))


def _check_cone_unit(ctx: CheckContext) -> float:
    phi = ctx.inputs.potential
    x = _cone_points(ctx)
    a = ctx.rng.normal(0.0, 1.0, x.shape)
    return float(np.max(np.abs(cone_multiply(phi, x, x, a) - a)))


def _check_cone_algebra(ctx: CheckContext) -> float:
    x = _cone_points(ctx)
    mul = hessian_structure(hessian_log_metric(ctx.inputs.potential), x).multiply
    # per point a, b, c in turn: the stream of one draw per vector
    a, b, c = ctx.rng.normal(0.0, 1.0, (len(x), 3, x.shape[1])).swapaxes(0, 1)
    ab = mul(a, b)
    commutator = float(np.max(np.abs(ab - mul(b, a))))
    assoc = float(np.max(np.abs(mul(ab, c) - mul(a, mul(b, c)))))
    return max(commutator, assoc)


def _check_frobenius_axioms(ctx: CheckContext) -> float:
    if ctx.spec.kind == "algebra":
        alg = ctx.inputs.algebra
    else:
        # tangent algebra of the cone at a base point, paired by the metric
        x0 = _cone_points(ctx, 1)[0]
        structure = hessian_structure(hessian_log_metric(ctx.inputs.potential), x0)
        alg = FrobeniusAlgebra(-structure.gamma[0], structure.metric[0], unit=x0)
    rep = frobenius_axioms(alg)
    return rep.worst_identity_residual()


def _check_automorphism_invariance(ctx: CheckContext) -> float:
    phi = ctx.inputs.potential
    scale = np.exp(ctx.rng.normal(0.0, 0.3, phi.dim))
    return automorphism_invariance_residual(phi, np.diag(scale), _cone_points(ctx))


def _check_wdvv(ctx: CheckContext) -> float:
    return wdvv_residual(ctx.inputs.potential, ctx.inputs.pairing, ctx.inputs.point)


def _check_tangent_symplectic(ctx: CheckContext) -> float:
    """d omega of omega = g_ab dx^a ^ dy^b on TM at the points (x, 0),
    scaled by max(1, |g|): zero iff g is Hessian in x.  It differences g
    itself, not ``deriv`` or ``log_third``, which are symmetric by
    construction."""
    if ctx.spec.kind == "cone_potential":
        metric, x = hessian_log_metric(ctx.inputs.potential), _cone_points(ctx)
    else:
        metric = ctx.inputs.metric
        x = ctx.rng.normal(0.5, 0.4, (3, metric.dim))
    m = metric.dim
    form = paracomplex_two_form(lambda pt: metric.value(pt[..., :m]), m)
    points = np.concatenate([x, np.zeros_like(x)], axis=-1)
    form.inverse(points)  # a degenerate omega is DegenerateForm: a null row
    scale = max(1.0, float(np.max(np.abs(metric.value(x)))))
    return closedness_residual(form, points) / scale


def _hamiltonian_observable(inputs: SimpleNamespace) -> Observable:
    metric = inputs.metric
    u_func, u_grad = inputs.scalar
    if inputs.separable:
        # the 1e4+ step integrations run on flat arrays
        return SeparableHamiltonian(lambda p: 0.5 * np.sum(np.square(p), axis=-1),
                                    lambda p: p, u_func, u_grad)

    def func(y):
        # this matmul form rounds each row as the one-point p @ g^-1 @ p
        # does; an einsum energy does not
        ginv = metric.inverse(y.z)
        return 0.5 * (y.p[..., None, :] @ ginv @ y.p[..., :, None])[..., 0, 0] + u_func(y.z)

    def grad(y):
        # d/dp = v = g^-1 p; d/dz_k = -v^T (d_k g) v / 2 + dU/dz_k
        v = (metric.inverse(y.z) @ y.p[..., None])[..., 0]
        dz = -0.5 * np.einsum("...kij,...i,...j->...k", metric.derivative(y.z), v, v)
        return np.concatenate([dz + u_grad(y.z), v, np.zeros_like(y.lam)], axis=-1)

    return Observable(func, grad)


def _phase_points(ctx: CheckContext, dim: int, spins: int, count: int = 2) -> list:
    pts = []
    for _ in range(count):
        pts.append(PhasePoint(ctx.rng.normal(0.5, 0.5, dim),
                              ctx.rng.normal(0.0, 0.7, dim),
                              ctx.rng.normal(0.0, 0.8, spins)))
    return pts


def _check_bracket_suite(ctx: CheckContext) -> float:
    dim = ctx.inputs.metric.dim
    constants = ctx.inputs.spins
    spins = constants.dim if constants else 0

    def zpick(y, i=0):
        return y.z[..., i % y.z.shape[-1]]

    A = Observable(lambda y: zpick(y) ** 2 + y.p[..., 0] * zpick(y, 1))
    B = Observable(lambda y: y.p[..., 0] * zpick(y) + np.sum(y.lam ** 2, axis=-1))
    C = Observable(lambda y: zpick(y, 1) * y.p[..., -1] + np.sum(y.lam, axis=-1))

    if constants is not None:
        bracket = lambda f, g, y: extended_bracket(f, g, y, constants)
    else:
        bracket = canonical_bracket
    res = bracket_property_residuals(bracket, (A, B, C), _phase_points(ctx, dim, spins))
    return res.worst()


def _check_evolution_consistency(ctx: CheckContext) -> float:
    H = _hamiltonian_observable(ctx.inputs)
    dim = ctx.inputs.metric.dim
    y0 = PhasePoint(ctx.rng.normal(0.8, 0.3, dim), ctx.rng.normal(0.0, 0.5, dim))
    Q = Observable(lambda y: y.z[..., 0])
    alg = canonical_bracket(H, Q, y0)
    dt = 1e-4
    forward = integrate(H, y0, dt, 1).z[-1, 0]
    backward = integrate(H, y0, -dt, 1).z[-1, 0]
    fd = (forward - backward) / (2.0 * dt)
    return abs(alg - fd)


# the (dt, steps) pairs of the drift rows, each run from (z, p) = (1, 0);
# drift_scaling's span one orbital period, which captures the full
# oscillation of the leapfrog energy error, with no secular part for
# quadratic H
_DRIFT_PAIRS = {
    "energy_drift": ((1e-3, 10_000),),
    "drift_scaling": tuple((dt, int(round(6.5 / dt))) for dt in (1e-3, 5e-4, 2e-4, 1e-4)),
}


def _drift_runs(ctx: CheckContext, name: str) -> list[Trajectory]:
    """The trajectories of the drift row ``name``'s pairs, in order.

    The battery's first drift row integrates every step size that the
    spec's drift rows list, each as long as its longest pair, in one
    :func:`integrate_many` call, and keeps the runs in ``ctx.shared``.  A
    row then reads the first ``steps + 1`` states of its step size's run,
    which are bit for bit those of its own pair, so it gives the residual it
    gives alone.  If that call raises, each row integrates its own pairs.
    """
    H = _hamiltonian_observable(ctx.inputs)
    dim = ctx.inputs.metric.dim
    y0 = PhasePoint(np.ones(dim), np.zeros(dim))
    pairs = _DRIFT_PAIRS[name]
    if "drift" not in ctx.shared:
        longest = {}
        for check in ctx.spec.checks:
            for dt, steps in _DRIFT_PAIRS.get(check, ()):
                longest[dt] = max(steps, longest.get(dt, 0))
        try:
            runs = integrate_many(H, y0, list(longest), list(longest.values()))
            ctx.shared["drift"] = dict(zip(longest, runs))
        except FrobsymError:
            if longest == dict(pairs):
                raise
            ctx.shared["drift"] = None
    if ctx.shared["drift"] is None:
        return integrate_many(H, y0, [dt for dt, _ in pairs], [steps for _, steps in pairs])
    return [_head(ctx.shared["drift"][dt], steps) for dt, steps in pairs]


def _head(traj: Trajectory, steps: int) -> Trajectory:
    """The trajectory's first ``steps`` steps."""
    return Trajectory(traj.times[:steps + 1], traj.z[:steps + 1], traj.p[:steps + 1],
                      traj.energies[:steps + 1])


def _check_energy_drift(ctx: CheckContext) -> float:
    (run,) = _drift_runs(ctx, "energy_drift")
    # read the drift off the trajectory dump records rather than the
    # trajectory internals; the record format is part of the interface
    records = run.records()
    first = records[0]["H"]
    return max(abs(rec["H"] - first) for rec in records)


def _check_drift_scaling(ctx: CheckContext) -> float:
    dts = np.array([dt for dt, _ in _DRIFT_PAIRS["drift_scaling"]])
    drifts = [traj.max_energy_drift for traj in _drift_runs(ctx, "drift_scaling")]
    if 0.0 in drifts:
        # leapfrog steps a free particle exactly, and a zero drift has no log
        raise NonFiniteValue(f"energy drift is zero at dt = {dts[drifts.index(0.0)]:g}, "
                             "so the log-log slope is undefined")
    slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
    return abs(float(slope) - 2.0)


def _check_legendre_energy(ctx: CheckContext) -> float:
    lag = LorentzLagrangian(signature=[1.0, 1.0, 1.0, -1.0])
    _, h_space = legendre_hamiltonian(lag, np.array([1.0, 0, 0, 0]))
    _, h_time = legendre_hamiltonian(lag, np.array([0.0, 0, 0, 1.0]))
    return max(abs(h_space - 1.0), abs(h_time))


def _check_split_algebra_laws(ctx: CheckContext, cases: int = 2000) -> float:
    # all cases at once as array-valued split numbers; elementwise IEEE
    # arithmetic rounds exactly as the scalar operations do
    vals = ctx.rng.uniform(-3.0, 3.0, size=(cases, 4))
    a, b = ParaNumber(vals[:, 0], vals[:, 1]), ParaNumber(vals[:, 2], vals[:, 3])
    prod = para_mul(a, b)
    da, db, dp = (idempotent_decompose(v) for v in (a, b, prod))
    conj_gap = para_mul(para_conj(a), para_conj(b)) - para_conj(prod)
    keep = ~a.is_zero_divisor()
    off_cone = ParaNumber(a.re[keep], a.im[keep])
    back = para_mul(off_cone, para_inverse(off_cone))
    gaps = (da.plus * db.plus - dp.plus, da.minus * db.minus - dp.minus,
            conj_gap.re, conj_gap.im, back.re - 1.0, back.im)
    return float(max(np.max(np.abs(gap), initial=0.0) for gap in gaps))


def _check_idempotent_closure(ctx: CheckContext) -> float:
    alg = ctx.inputs.algebra
    worst = 0.0
    for a in find_idempotents_rank2(alg):
        worst = max(worst, float(np.max(np.abs(alg.multiply(a, a) - a))))
    return worst


def _check_lattice_constant_skew(ctx: CheckContext) -> float:
    lb = ctx.inputs.lattice
    u = np.full((lb.field_dim, lb.sites), 1.5)
    return lattice_hydro_bracket(lb, u)


def _check_lattice_jacobi_refinement(ctx: CheckContext) -> float:
    coarse = ctx.inputs.lattice
    # a quarter of the spacing is exact, so it equals 2 pi / (4 sites)
    fine = replace(coarse, sites=4 * coarse.sites, spacing=coarse.spacing / 4)
    seed = int(ctx.rng.integers(0, 2**31))
    jac_coarse, jac_fine = (lattice_jacobi_residual(lb, _lattice_state(lb),
                                                    rng=np.random.default_rng(seed))
                            for lb in (coarse, fine))
    return jac_fine / max(jac_coarse, 1e-300)


def _check_novikov_identities(ctx: CheckContext) -> float:
    lb = ctx.inputs.lattice
    g_field = MetricField(lb.field_dim, lb.metric, deriv=lb.metric_deriv)
    u0 = np.full(lb.field_dim, 1.3)
    rep = novikov_residuals(lb.b, g_field, u0)
    return max(rep.left_symmetry, rep.right_identity, rep.symmetrization)


def _check_local_bracket_antisymmetry(ctx: CheckContext) -> float:
    lb = ctx.inputs.lattice
    x = lb.spacing * np.arange(lb.sites)
    p = np.stack([np.sin(x + 0.3 * k) for k in range(lb.field_dim)])
    q = np.stack([np.cos(2 * x - 0.1 * k) for k in range(lb.field_dim)])
    forward = local_lie_bracket(lb.b, p, q, lb.spacing)
    backward = local_lie_bracket(lb.b, q, p, lb.spacing)
    return float(np.max(np.abs(forward + backward)))


@dataclass(frozen=True)
class CheckDef:
    func: object
    kinds: tuple
    anchor: str
    default_tol: float


CHECKS = {
    "gibbs_normalization": CheckDef(_check_gibbs_normalization, ("exponential_family",), "E:3", 1e-14),
    "cumulants_low_order": CheckDef(_check_cumulants_low_order, ("exponential_family",), "Pot", 1e-6),
    "cumulants_order4": CheckDef(_check_cumulants_order4, ("exponential_family",), "GWS", 1e-4),
    "metric_positive_definite": CheckDef(_check_metric_positive_definite, ("exponential_family",), "draft-dual", 1e-12),
    "dual_coordinates": CheckDef(_check_dual_coordinates, ("exponential_family",), "draft-dual", 1e-6),
    "dual_connections": CheckDef(_check_dual_connections, ("exponential_family",), "draft-dual", 1e-6),
    "hessian_metric_pd": CheckDef(_check_hessian_metric_pd, ("cone_potential",), "draft-cone", 1e-12),
    "flatness": CheckDef(_check_flatness, ("cone_potential", "explicit_metric"), "S2.1", 1e-6),
    "cone_unit": CheckDef(_check_cone_unit, ("cone_potential",), "draft-cone", 1e-10),
    "cone_algebra": CheckDef(_check_cone_algebra, ("cone_potential",), "draft-cone", 1e-10),
    "frobenius_axioms": CheckDef(_check_frobenius_axioms, ("cone_potential", "algebra"), "Asso", 1e-10),
    "automorphism_invariance": CheckDef(_check_automorphism_invariance, ("cone_potential",), "draft-cone", 1e-10),
    "wdvv": CheckDef(_check_wdvv, ("cone_potential",), "WDVV", 1e-8),
    "tangent_symplectic": CheckDef(_check_tangent_symplectic, ("cone_potential", "explicit_metric"), "S2.2", 1e-5),
    "bracket_suite": CheckDef(_check_bracket_suite, ("explicit_metric",), "S3", 1e-6),
    "evolution_consistency": CheckDef(_check_evolution_consistency, ("explicit_metric",), "S3", 1e-6),
    "energy_drift": CheckDef(_check_energy_drift, ("explicit_metric",), "S2.2", 1e-6),
    "drift_scaling": CheckDef(_check_drift_scaling, ("explicit_metric",), "S2.2", 0.35),
    "legendre_energy": CheckDef(_check_legendre_energy, ("explicit_metric",), "S2.3", 1e-12),
    "split_algebra_laws": CheckDef(_check_split_algebra_laws, ("algebra",), "S2.2", 1e-12),
    "idempotent_closure": CheckDef(_check_idempotent_closure, ("algebra",), "S2.2", 1e-10),
    "lattice_constant_skew": CheckDef(_check_lattice_constant_skew, ("lattice",), "E:p", 1e-14),
    "lattice_jacobi_refinement": CheckDef(_check_lattice_jacobi_refinement, ("lattice",), "E:b", 0.25),
    "novikov_identities": CheckDef(_check_novikov_identities, ("lattice",), "E:b", 1e-8),
    "local_bracket_antisymmetry": CheckDef(_check_local_bracket_antisymmetry, ("lattice",), "S3", 1e-12),
}


# ---------------------------------------------------------------------------
# the runner


def run_battery(spec: ManifoldSpec) -> Report:
    """Execute the spec's checks in spec order and collect one row per check.

    Each check draws randomness from a generator seeded by (spec seed,
    position) and is held to the spec's tolerance for it, else the check's
    default, so the report is deterministic for a given spec.  The checks
    share one store, made afresh for each battery, in which the drift rows
    keep their one stacked integration.  A spec built
    without :func:`spec_from_dict` gets its SchemaError for a malformed
    payload, checks, tolerances, seed or name before any row runs; a check
    of another kind gives a ``null`` row, and so does a payload that does
    not decode.
    """
    _check_fields(spec.payload, spec.checks, spec.tolerances, spec.seed, spec.name)
    spec_hash = _digest(spec)
    rows = []
    shared = {}
    for index, name in enumerate(spec.checks):
        definition = CHECKS[name]
        tol = spec.tolerances.get(name, definition.default_tol)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
        ctx = CheckContext(spec, rng, shared)
        start = time.perf_counter()
        try:
            residual = (float(definition.func(ctx)) if spec.kind in definition.kinds
                        else math.nan)
        except FrobsymError:
            residual = math.nan
        elapsed = 1000.0 * (time.perf_counter() - start)
        if not math.isfinite(residual):
            # the input broke the construction or the residual overflowed: a
            # null residual is always a failure, never a crash of the whole
            # battery, and never NaN/Infinity in a machine report
            residual = None
        status = "pass" if residual is not None and residual <= tol else "fail"
        rows.append(CheckRow(name, status, residual, tol, elapsed, definition.anchor))

    versions = {"frobsym": _pkg_version, "numpy": np.__version__}
    return Report(spec.name, spec_hash, spec.seed, versions, tuple(rows))


# ---------------------------------------------------------------------------
# report emission and parsing


def emit_report(report: Report, fmt: str = "human") -> str:
    """Render a report; ``machine`` is line-delimited JSON with fixed field
    order (UTF-8, LF), ``human`` an aligned table."""
    if fmt == "machine":
        lines = [json.dumps({
            "record": "meta", "entry": report.entry, "spec_hash": report.spec_hash,
            "seed": report.seed, "versions": report.versions,
        }, separators=(",", ":"))]
        for row in report.rows:
            lines.append(json.dumps({
                "record": "check", "name": row.name, "status": row.status,
                "residual": row.residual, "tolerance": row.tolerance,
                "runtime_ms": row.runtime_ms, "paper_anchor": row.paper_anchor,
            }, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    if fmt != "human":
        raise ValueError(f"unknown report format {fmt!r}")
    header = f"entry={report.entry or '-'} spec={report.spec_hash} seed={report.seed}"
    lines = [header, "-" * len(header)]
    name_width = max([len(r.name) for r in report.rows], default=4)
    for row in report.rows:
        residual = "-" if row.residual is None else f"{row.residual:.3e}"
        lines.append(
            f"{row.name:<{name_width}}  {row.status:<7} residual={residual:>10}"
            f"  tol={row.tolerance:.1e}  [{row.paper_anchor}]  {row.runtime_ms:8.1f} ms"
        )
    passed = sum(r.status == "pass" for r in report.rows)
    failed = sum(r.status == "fail" for r in report.rows)
    lines.append(f"{passed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


def parse_machine_report(text: str) -> Report:
    """Inverse of ``emit_report(..., 'machine')``.

    A malformed report is a :class:`ParseError`; one in a record names its
    1-based line.
    """
    fields = {"meta": ("entry", "spec_hash", "seed", "versions"),
              "check": ("name", "status", "residual", "tolerance", "runtime_ms", "paper_anchor")}
    meta = None
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"line {number}: invalid JSON: {err.msg}", number, err.colno) from None
        if not isinstance(data, dict):
            raise ParseError(f"line {number}: a record must be a JSON object", number)
        record = data.get("record")
        if not isinstance(record, str) or record not in fields:
            raise ParseError(f"line {number}: unknown record type {record!r}", number)
        missing = [name for name in fields[record] if name not in data]
        if missing:
            raise ParseError(f"line {number}: {record} record lacks {', '.join(missing)}", number)
        values = [data[name] for name in fields[record]]
        if record == "meta":
            meta = values
        else:
            rows.append(CheckRow(*values))
    if meta is None:
        raise ParseError("machine report is missing its meta record")
    return Report(*meta, tuple(rows))


# ---------------------------------------------------------------------------
# built-in catalog


@dataclass(frozen=True)
class CatalogEntry:
    spec: ManifoldSpec
    expect_fail: frozenset = frozenset()

    def matches_expectation(self, report: Report) -> bool:
        for row in report.rows:
            expected = "fail" if row.name in self.expect_fail else "pass"
            if row.status != expected:
                return False
        return True


def _spec(name, kind, payload, checks, tolerances=None, seed=0):
    return spec_from_dict({
        "name": name, "kind": kind, "payload": payload,
        "checks": checks, "tolerances": tolerances or {}, "seed": seed,
    })


def builtin_catalog() -> dict:
    entries = {}
    entries["bernoulli"] = CatalogEntry(_spec(
        "bernoulli", "exponential_family",
        {"statistics": [[0.0, 1.0]], "beta": [0.5]},
        ["gibbs_normalization", "cumulants_low_order", "cumulants_order4",
         "metric_positive_definite", "dual_coordinates", "dual_connections"],
    ))
    entries["categorical3"] = CatalogEntry(_spec(
        "categorical3", "exponential_family",
        {"statistics": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "beta": [0.3, -0.2]},
        ["gibbs_normalization", "cumulants_low_order", "cumulants_order4",
         "metric_positive_definite", "dual_coordinates"],
    ))
    # one spin function; the extended bracket degenerates to canonical
    entries["ising1d"] = CatalogEntry(_spec(
        "ising1d", "explicit_metric",
        {"metric": "euclidean1", "scalar": "half_square", "spins": "spin_zero1"},
        ["bracket_suite", "evolution_consistency"],
    ))
    entries["orthant_cone2"] = CatalogEntry(_spec(
        "orthant_cone2", "cone_potential", {"potential": "orthant2"},
        ["hessian_metric_pd", "flatness", "cone_unit", "cone_algebra",
         "frobenius_axioms", "automorphism_invariance"],
    ))
    entries["orthant_cone3"] = CatalogEntry(_spec(
        "orthant_cone3", "cone_potential", {"potential": "orthant3"},
        ["hessian_metric_pd", "flatness", "cone_unit", "cone_algebra",
         "frobenius_axioms", "automorphism_invariance"],
    ))
    entries["trivial_wdvv3"] = CatalogEntry(_spec(
        "trivial_wdvv3", "cone_potential",
        {"potential": "wdvv_cubic3", "pairing": "antidiag3", "point": [0.7, -0.3, 1.2]},
        ["wdvv"],
    ))
    # deliberately broken potential; the wdvv row must fail
    entries["perturbed_wdvv3"] = CatalogEntry(_spec(
        "perturbed_wdvv3", "cone_potential",
        {"potential": "wdvv_cubic3_perturbed", "pairing": "antidiag3",
         "point": [0.0, 1.0, 1.0]},
        ["wdvv"],
    ), expect_fail=frozenset({"wdvv"}))
    entries["harmonic_oscillator"] = CatalogEntry(_spec(
        "harmonic_oscillator", "explicit_metric",
        {"metric": "euclidean1", "scalar": "half_square"},
        ["energy_drift", "drift_scaling", "evolution_consistency", "legendre_energy"],
    ))
    entries["linear_hydro_lattice"] = CatalogEntry(_spec(
        "linear_hydro_lattice", "lattice",
        {"sites": 16, "field_dim": 1, "coefficients": "linear_diagonal"},
        ["lattice_constant_skew", "lattice_jacobi_refinement",
         "novikov_identities", "local_bracket_antisymmetry"],
    ))
    return entries
