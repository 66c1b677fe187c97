"""Declarative check specs, the verification battery, and reports.

A :class:`ManifoldSpec` names one input object (a family, a potential, a
metric, an algebra, or a lattice), the checks to run against it, and the
tolerances.  Specs travel as JSON text; fields, payload schemas and the
machine report format are documented in the README.  Residual checks are
pure and seeded, so a battery run is deterministic for a given spec+seed.

Check rows carry a ``paper_anchor`` tag tying each residual to the identity
it certifies; the legal tags are the keys of :data:`ANCHORS`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__ as _pkg_version
from . import registry
from .errors import FrobsymError, ParseError, SchemaError
from .frobenius import find_idempotents_rank2, frobenius_axioms, wdvv_residual
from .geometry import (
    MetricField,
    automorphism_invariance_residual,
    christoffel,
    cone_multiply,
    curvature_flatness,
    dual_connections,
    hessian_log_metric,
)
from .frobenius import FrobeniusAlgebra, novikov_residuals
from .paracomplex import ParaNumber, idempotent_decompose, para_conj, para_inverse, para_mul
from .poisson import (
    LatticeBracket,
    bracket_property_residuals,
    canonical_bracket,
    evolution_derivative,
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
    closedness_residual,
    dbar_split_residuals,
    integrate,
    integrate_many,
    legendre_hamiltonian,
    quadratic_energy,
    realified_dolbeault_two_form,
)
from . import numdiff

KINDS = ("exponential_family", "cone_potential", "explicit_metric", "algebra", "lattice")

# Anchor tags: each check cites the identity it certifies by one of these.
ANCHORS = {
    "Asso": "triple-product / pairing-invariance identity",
    "Pot": "third derivatives of the potential as the structure tensor",
    "WDVV": "associativity PDE system on the potential",
    "S2.1": "flatness and torsionlessness hypotheses",
    "S2.2": "Hamiltonian and split-coordinate recollections",
    "S2.3": "Lorentz-signature Lagrangian and Legendre transform",
    "S3": "bracket definitions and their derivation laws",
    "E:1": "discrete dual pairing",
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "payload": self.payload,
            "checks": list(self.checks),
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "name": self.name,
        }

    def canonical_text(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunOptions:
    tol_scale: float = 1.0
    fd_step: float | None = None
    seed: int | None = None


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
    text, anything else as a file path.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid spec text: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from exc
    return spec_from_dict(data)


def spec_from_dict(data: dict) -> ManifoldSpec:
    if not isinstance(data, dict):
        raise SchemaError("spec must be a JSON object", field="$")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}", field="kind")
    payload = data.get("payload", {})
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object", field="payload")
    checks = data.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise SchemaError("checks must be a list of names", field="checks")
    if len(set(checks)) != len(checks):
        raise SchemaError("duplicate check names", field="checks")
    for c in checks:
        if c not in CHECKS:
            raise SchemaError(f"unknown check {c!r}", field="checks")
        if kind not in CHECKS[c].kinds:
            raise SchemaError(f"check {c!r} does not apply to kind {kind!r}",
                              field="checks")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SchemaError("tolerances must be a map", field="tolerances")
    for key, value in tolerances.items():
        if key not in CHECKS:
            raise SchemaError(f"tolerance for unknown check {key!r}", field="tolerances")
        if not (_real(value) and value > 0):
            raise SchemaError(f"tolerance for {key!r} must be positive and finite",
                              field=f"tolerances.{key}")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError("seed must be a nonnegative integer", field="seed")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name must be a string", field="name")
    _validate_payload(kind, payload)
    return ManifoldSpec(kind, payload, tuple(checks), dict(tolerances), seed, name)


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


def _validate_payload(kind: str, payload: dict):
    if kind == "exponential_family":
        stats = _require(payload, "statistics", list, kind)
        # one flat row is a family with a single statistic
        rows = stats if stats and all(isinstance(row, list) for row in stats) else [stats]
        outcomes = len(rows[0])
        if (outcomes == 0 or any(len(row) != outcomes for row in rows)
                or not all(_real(v) for row in rows for v in row)):
            raise SchemaError("statistics must be a nonempty rectangular table of "
                              "finite numbers", field="payload.statistics")
        if not _is_point(_require(payload, "beta", list, kind), len(rows)):
            raise SchemaError("beta must be one finite number per statistic",
                              field="payload.beta")
        weights = payload.get("base_weights", [1.0] * outcomes)
        if (not isinstance(weights, list) or len(weights) != outcomes
                or not all(_real(v) and v > 0 for v in weights)):
            raise SchemaError("base_weights must be one positive finite number per "
                              "outcome", field="payload.base_weights")
    elif kind == "cone_potential":
        pot = _require(payload, "potential", str, kind)
        dim = registry.lookup(registry.POTENTIALS, pot, "potential").dim
        if "pairing" in payload:
            registry.lookup(registry.CONSTANT_MATRICES, payload["pairing"], "pairing")
        if "point" in payload and not _is_point(payload["point"], dim):
            raise SchemaError(f"point must be {dim} finite numbers", field="payload.point")
        points = payload.get("points", [[0.0] * dim])  # absent: drawn at run time
        if not (isinstance(points, list) and points and all(_is_point(p, dim) for p in points)):
            raise SchemaError(f"points must be a nonempty list of points of {dim} finite "
                              "numbers", field="payload.points")
    elif kind == "explicit_metric":
        mid = _require(payload, "metric", str, kind)
        registry.lookup(registry.METRICS, mid, "metric")
        if "scalar" in payload and payload["scalar"] not in SCALAR_FIELDS:
            raise SchemaError(f"unknown scalar field {payload['scalar']!r}",
                              field="payload.scalar")
        if "spins" in payload:
            registry.lookup(registry.SPIN_CONSTANTS, payload["spins"], "spin constants")
    elif kind == "algebra":
        aid = _require(payload, "constants", str, kind)
        registry.lookup(registry.ALGEBRAS, aid, "algebra")
    elif kind == "lattice":
        sites = _require(payload, "sites", int, kind)
        if sites < 4:
            raise SchemaError("a lattice needs at least 4 sites", field="payload.sites")
        field_dim = payload.get("field_dim", 1)
        if not isinstance(field_dim, int) or isinstance(field_dim, bool) or field_dim < 1:
            raise SchemaError("field_dim must be a positive integer", field="payload.field_dim")
        cid = _require(payload, "coefficients", str, kind)
        registry.lookup(registry.LATTICE_COEFFICIENTS, cid, "lattice coefficients")


# ---------------------------------------------------------------------------
# scalar fields available to explicit_metric specs


# (value, gradient) pairs; values reduce over the last axis, so they take
# one point or a stack of points
SCALAR_FIELDS = {
    "half_square": (lambda z: 0.5 * np.sum(np.square(z), axis=-1),
                    lambda z: np.asarray(z, dtype=float)),
    "zero": (lambda z: np.zeros(np.shape(z)[:-1]),
             lambda z: np.zeros_like(np.asarray(z, dtype=float))),
}


# ---------------------------------------------------------------------------
# check implementations
#
# Each check receives a context with the realized payload, a seeded rng and
# the run options, and returns a single residual (smaller is better).


@dataclass
class CheckContext:
    spec: ManifoldSpec
    rng: np.random.Generator
    options: RunOptions

    def family(self) -> ExponentialFamily:
        p = self.spec.payload
        return ExponentialFamily(np.asarray(p["statistics"], dtype=float),
                                 np.asarray(p["base_weights"], dtype=float)
                                 if "base_weights" in p else None)

    def beta(self) -> np.ndarray:
        return np.asarray(self.spec.payload["beta"], dtype=float)

    def potential(self):
        return registry.lookup(registry.POTENTIALS, self.spec.payload["potential"],
                               "potential")

    def pairing_matrix(self) -> np.ndarray:
        pid = self.spec.payload.get("pairing", "identity3")
        return registry.lookup(registry.CONSTANT_MATRICES, pid, "pairing")

    def metric(self) -> MetricField:
        return registry.lookup(registry.METRICS, self.spec.payload["metric"], "metric")

    def scalar(self):
        sid = self.spec.payload.get("scalar")
        return SCALAR_FIELDS[sid] if sid else None

    def spin_constants(self):
        sid = self.spec.payload.get("spins")
        return registry.lookup(registry.SPIN_CONSTANTS, sid, "spin constants") if sid else None

    def cone_points(self, count: int = 3) -> list:
        if "points" in self.spec.payload:
            return [np.asarray(p, dtype=float) for p in self.spec.payload["points"]]
        dim = self.potential().dim
        return [np.exp(self.rng.normal(0.0, 0.3, size=dim)) + 0.2 for _ in range(count)]

    def lattice(self, sites: int | None = None) -> LatticeBracket:
        p = self.spec.payload
        n = int(sites if sites is not None else p["sites"])
        r = p.get("field_dim", 1)
        metric, metric_deriv, b = registry.lookup(
            registry.LATTICE_COEFFICIENTS, p["coefficients"], "lattice coefficients", r)
        return LatticeBracket(n, r, metric, b, spacing=2.0 * np.pi / n,
                              metric_deriv=metric_deriv)

    def lattice_state(self, lb: LatticeBracket) -> np.ndarray:
        x = lb.spacing * np.arange(lb.sites)
        return np.stack([2.0 + np.sin(x + 0.5 * k) for k in range(lb.field_dim)])


def _check_gibbs_normalization(ctx: CheckContext) -> float:
    fam = ctx.family()
    worst = 0.0
    for beta in [ctx.beta()] + [ctx.rng.normal(0.0, 1.0, fam.n) for _ in range(8)]:
        worst = max(worst, abs(float(np.sum(gibbs_density(fam, beta))) - 1.0))
    return worst


def _fd_cumulant(fam: ExponentialFamily, beta, order: int, step: float) -> np.ndarray:
    return numdiff.derivative_tensor(lambda b: potential_eval(fam, b),
                                     np.asarray(beta, dtype=float), order, step)


_CUMULANT_STEPS = {1: 1e-5, 2: 1e-4, 3: 5e-3, 4: 1e-2}


def _cumulant_match(ctx: CheckContext, orders) -> float:
    fam = ctx.family()
    beta = ctx.beta()
    step_override = ctx.options.fd_step
    gaps = []
    for k in orders:
        analytic = cumulant_tensor(fam, beta, k).values
        fd = _fd_cumulant(fam, beta, k, step_override or _CUMULANT_STEPS[k])
        scale = max(1.0, float(np.max(np.abs(analytic))))
        gaps.append(float(np.max(np.abs(analytic - fd))) / scale)
    # np.max keeps a NaN gap (an overflowed stencil), which max() would drop
    return float(np.max(gaps))


def _check_cumulants_low_order(ctx: CheckContext) -> float:
    return _cumulant_match(ctx, (1, 2, 3))


def _check_cumulants_order4(ctx: CheckContext) -> float:
    return _cumulant_match(ctx, (4,))


def _check_metric_positive_definite(ctx: CheckContext) -> float:
    fam = ctx.family()
    worst = 0.0
    for beta in [ctx.beta()] + [ctx.rng.normal(0.0, 0.7, fam.n) for _ in range(4)]:
        eig = np.linalg.eigvalsh(checked_metric(fam, beta))
        worst = max(worst, max(0.0, -float(eig[0])))
    return worst


def _check_dual_coordinates(ctx: CheckContext) -> float:
    fam = ctx.family()
    beta = ctx.beta()
    eta, psi = dual_coordinates(fam, beta)
    legendre = abs(psi + potential_eval(fam, beta) - float(beta @ eta))
    jac = numdiff.jacobian(lambda b: dual_coordinates(fam, b)[0], beta)
    metric = cumulant_tensor(fam, beta, 2).values
    jacobian_gap = float(np.max(np.abs(jac - metric)))
    back = natural_from_dual(fam, eta, initial=beta + 0.3)
    roundtrip = float(np.max(np.abs(back - beta)))
    return max(legendre, jacobian_gap, roundtrip)


def _check_dual_connections(ctx: CheckContext) -> float:
    rep = dual_connections(ctx.family(), ctx.beta())
    return max(rep.duality_residual, rep.curvature_growth, rep.curvature_mixture)


def _check_hessian_metric_pd(ctx: CheckContext) -> float:
    metric = hessian_log_metric(ctx.potential())
    worst = 0.0
    for x in ctx.cone_points(5):
        eig = np.linalg.eigvalsh(metric.value(x))
        worst = max(worst, max(0.0, -float(eig[0])))
    return worst


def _check_flatness(ctx: CheckContext) -> float:
    if ctx.spec.kind == "cone_potential":
        metric = hessian_log_metric(ctx.potential())
        points = ctx.cone_points()
    else:
        metric = ctx.metric()
        points = [ctx.rng.normal(0.5, 0.4, metric.dim) for _ in range(3)]
    report = curvature_flatness(metric, points, h=ctx.options.fd_step)
    return max(report.max_riemann, report.max_torsion)


def _check_cone_unit(ctx: CheckContext) -> float:
    phi = ctx.potential()
    worst = 0.0
    for x in ctx.cone_points():
        a = ctx.rng.normal(0.0, 1.0, phi.dim)
        worst = max(worst, float(np.max(np.abs(cone_multiply(phi, x, x, a) - a))))
    return worst


def _check_cone_algebra(ctx: CheckContext) -> float:
    phi = ctx.potential()
    worst = 0.0
    for x in ctx.cone_points():
        a, b, c = (ctx.rng.normal(0.0, 1.0, phi.dim) for _ in range(3))
        ab = cone_multiply(phi, x, a, b)
        worst = max(worst, float(np.max(np.abs(ab - cone_multiply(phi, x, b, a)))))
        assoc = cone_multiply(phi, x, ab, c) - cone_multiply(phi, x, a, cone_multiply(phi, x, b, c))
        worst = max(worst, float(np.max(np.abs(assoc))))
    return worst


def _check_frobenius_axioms(ctx: CheckContext) -> float:
    if ctx.spec.kind == "algebra":
        c, pairing = registry.lookup(registry.ALGEBRAS,
                                     ctx.spec.payload["constants"], "algebra")
        alg = FrobeniusAlgebra(c, pairing)
    else:
        # tangent algebra of the cone at a base point, paired by the metric
        phi = ctx.potential()
        x0 = ctx.cone_points(1)[0]
        metric = hessian_log_metric(phi)
        alg = FrobeniusAlgebra(-christoffel(metric, x0), metric.value(x0), unit=x0)
    rep = frobenius_axioms(alg)
    return rep.worst_identity_residual()


def _check_automorphism_invariance(ctx: CheckContext) -> float:
    phi = ctx.potential()
    scale = np.exp(ctx.rng.normal(0.0, 0.3, phi.dim))
    return automorphism_invariance_residual(phi, np.diag(scale), ctx.cone_points())


def _check_wdvv(ctx: CheckContext) -> float:
    phi = ctx.potential()
    point = np.asarray(ctx.spec.payload.get("point", [0.0] * phi.dim), dtype=float)
    g = ctx.pairing_matrix()
    return wdvv_residual(phi, g, point).residual


def _check_form_closedness(ctx: CheckContext) -> float:
    phi = ctx.potential()
    form = realified_dolbeault_two_form(phi)
    points = [ctx.rng.normal(0.0, 0.6, phi.dim) for _ in range(3)]
    return closedness_residual(form, points)


def _check_dbar_splitting(ctx: CheckContext) -> float:
    phi = ctx.potential()
    zero_forms = [phi.value,
                  lambda w: float(np.sin(w[0]) * np.cos(w[-1]))]
    one_forms = [lambda w: np.asarray(w, dtype=float) ** 2]
    points = [ctx.rng.normal(0.0, 0.5, phi.dim) for _ in range(2)]
    res = dbar_split_residuals(zero_forms, points, one_forms=one_forms)
    return max(res.values())


def _hamiltonian_observable(ctx: CheckContext) -> Observable:
    metric = ctx.metric()
    scalar = ctx.scalar()
    u_func, u_grad = scalar if scalar else SCALAR_FIELDS["zero"]
    if ctx.spec.payload.get("metric", "").startswith("euclidean"):
        # unit inverse metric: H = |p|^2 / 2 + U(z) separates, so the 1e4+
        # step integrations run on flat arrays
        return SeparableHamiltonian(lambda p: 0.5 * np.sum(np.square(p), axis=-1),
                                    lambda p: p, u_func, u_grad)

    def grad(y):
        # d/dp = v = g^-1 p; d/dz_k = -v^T (d_k g) v / 2 + dU/dz_k
        v = metric.inverse(y.z) @ y.p
        dz = -0.5 * np.einsum("kij,i,j->k", metric.derivative(y.z), v, v)
        return np.concatenate([dz + u_grad(y.z), v, np.zeros_like(y.lam)])

    return Observable(lambda y: quadratic_energy(metric, y, u_func), grad)


def _phase_points(ctx: CheckContext, dim: int, spins: int, count: int = 2) -> list:
    pts = []
    for _ in range(count):
        pts.append(PhasePoint(ctx.rng.normal(0.5, 0.5, dim),
                              ctx.rng.normal(0.0, 0.7, dim),
                              ctx.rng.normal(0.0, 0.8, spins)))
    return pts


def _check_bracket_suite(ctx: CheckContext) -> float:
    dim = ctx.metric().dim
    constants = ctx.spin_constants()
    spins = constants.dim if constants else 0

    def zpick(y, i=0):
        return y.z[i % y.z.size]

    A = Observable(lambda y: zpick(y) ** 2 + y.p[0] * zpick(y, 1))
    B = Observable(lambda y: y.p[0] * zpick(y) + float(np.sum(y.lam ** 2)))
    C = Observable(lambda y: zpick(y, 1) * y.p[-1] + float(np.sum(y.lam)))

    if constants is not None:
        bracket = lambda f, g, y, h=None: extended_bracket(f, g, y, constants, h=h)
    else:
        bracket = canonical_bracket
    res = bracket_property_residuals(bracket, (A, B, C), _phase_points(ctx, dim, spins))
    return res.worst()


def _check_evolution_consistency(ctx: CheckContext) -> float:
    H = _hamiltonian_observable(ctx)
    dim = ctx.metric().dim
    y0 = PhasePoint(ctx.rng.normal(0.8, 0.3, dim), ctx.rng.normal(0.0, 0.5, dim))
    Q = Observable(lambda y: y.z[0])
    alg = evolution_derivative(H, Q, y0)
    dt = 1e-4
    forward = integrate(H, y0, dt, 1).points[-1]
    backward = integrate(H, y0, -dt, 1).points[-1]
    fd = (Q(forward) - Q(backward)) / (2.0 * dt)
    return abs(alg - fd)


def _check_energy_drift(ctx: CheckContext) -> float:
    H = _hamiltonian_observable(ctx)
    dim = ctx.metric().dim
    y0 = PhasePoint(np.ones(dim), np.zeros(dim))
    # read the drift off the trajectory dump records rather than the
    # trajectory internals; the record format is part of the interface
    records = integrate(H, y0, 1e-3, 10_000).records()
    first = records[0]["H"]
    return max(abs(rec["H"] - first) for rec in records)


def _check_drift_scaling(ctx: CheckContext) -> float:
    H = _hamiltonian_observable(ctx)
    dim = ctx.metric().dim
    y0 = PhasePoint(np.ones(dim), np.zeros(dim))
    # one orbital period captures the full oscillation of the leapfrog
    # energy error, which has no secular part for quadratic H
    total_time = 6.5
    dts = np.array([1e-3, 5e-4, 2e-4, 1e-4])
    steps = [int(round(total_time / dt)) for dt in dts]
    drifts = [traj.max_energy_drift for traj in integrate_many(H, y0, dts, steps)]
    slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
    return abs(float(slope) - 2.0)


def _check_legendre_energy(ctx: CheckContext) -> float:
    lag = LorentzLagrangian(signature=[1.0, 1.0, 1.0, -1.0])
    z = np.zeros(4)
    *_, h_space = legendre_hamiltonian(lag, np.array([1.0, 0, 0, 0]), z)
    *_, h_time = legendre_hamiltonian(lag, np.array([0.0, 0, 0, 1.0]), z)
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
    c, pairing = registry.lookup(registry.ALGEBRAS,
                                 ctx.spec.payload["constants"], "algebra")
    alg = FrobeniusAlgebra(c, pairing)
    worst = 0.0
    for a in find_idempotents_rank2(alg):
        worst = max(worst, float(np.max(np.abs(alg.multiply(a, a) - a))))
    return worst


def _check_lattice_constant_skew(ctx: CheckContext) -> float:
    lb = ctx.lattice()
    u = np.full((lb.field_dim, lb.sites), 1.5)
    return lattice_hydro_bracket(lb, u).antisymmetry_residual


def _check_lattice_jacobi_refinement(ctx: CheckContext) -> float:
    coarse = ctx.lattice()
    fine = ctx.lattice(sites=coarse.sites * 4)
    seed = int(ctx.rng.integers(0, 2**31))
    jac_coarse = lattice_jacobi_residual(coarse, ctx.lattice_state(coarse),
                                         rng=np.random.default_rng(seed))
    jac_fine = lattice_jacobi_residual(fine, ctx.lattice_state(fine),
                                       rng=np.random.default_rng(seed))
    return jac_fine / max(jac_coarse, 1e-300)


def _check_novikov_identities(ctx: CheckContext) -> float:
    lb = ctx.lattice()
    g_field = MetricField(lb.field_dim, lb.metric, deriv=lb.metric_deriv)
    u0 = np.full(lb.field_dim, 1.3)
    rep = novikov_residuals(lb.b, g_field, u0)
    return max(rep.left_symmetry, rep.right_identity, rep.symmetrization)


def _check_local_bracket_antisymmetry(ctx: CheckContext) -> float:
    lb = ctx.lattice()
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
    "form_closedness": CheckDef(_check_form_closedness, ("cone_potential",), "S2.2", 1e-5),
    "dbar_splitting": CheckDef(_check_dbar_splitting, ("cone_potential",), "S2.2", 1e-5),
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


def run_battery(spec: ManifoldSpec, options: RunOptions = RunOptions()) -> Report:
    """Execute the spec's checks in spec order and collect one row per check.

    Each check draws randomness from a generator seeded by (seed, position),
    so the report is deterministic for a given spec and seed.
    """
    seed = spec.seed if options.seed is None else options.seed
    tols = [spec.tolerances.get(name, CHECKS[name].default_tol) * options.tol_scale
            for name in spec.checks]
    for name, tol in zip(spec.checks, tols):
        if not math.isfinite(tol):
            raise SchemaError(f"tolerance for {name!r} times tol_scale is not finite",
                              field=f"tolerances.{name}")
    rows = []
    for index, (name, tol) in enumerate(zip(spec.checks, tols)):
        definition = CHECKS[name]
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        ctx = CheckContext(spec, rng, options)
        start = time.perf_counter()
        try:
            residual = float(definition.func(ctx))
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
    return Report(spec.name, spec.digest(), seed, versions, tuple(rows))


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
    """Inverse of ``emit_report(..., 'machine')``."""
    meta = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        if data.get("record") == "meta":
            meta = data
        elif data.get("record") == "check":
            rows.append(CheckRow(data["name"], data["status"], data["residual"],
                                 data["tolerance"], data["runtime_ms"],
                                 data["paper_anchor"]))
        else:
            raise ParseError(f"unknown record type {data.get('record')!r}")
    if meta is None:
        raise ParseError("machine report is missing its meta record")
    return Report(meta["entry"], meta["spec_hash"], meta["seed"], meta["versions"],
                  tuple(rows))


# ---------------------------------------------------------------------------
# built-in catalog


@dataclass(frozen=True)
class CatalogEntry:
    spec: ManifoldSpec
    expect_fail: frozenset = frozenset()
    note: str = ""

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
    entries["ising1d"] = CatalogEntry(_spec(
        "ising1d", "explicit_metric",
        {"metric": "euclidean1", "scalar": "half_square", "spins": "spin_zero1"},
        ["bracket_suite", "evolution_consistency"],
    ), note="one spin function; the extended bracket degenerates to canonical")
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
    entries["perturbed_wdvv3"] = CatalogEntry(_spec(
        "perturbed_wdvv3", "cone_potential",
        {"potential": "wdvv_cubic3_perturbed", "pairing": "antidiag3",
         "point": [0.0, 1.0, 1.0]},
        ["wdvv"],
    ), expect_fail=frozenset({"wdvv"}),
        note="deliberately broken potential; the wdvv row must fail")
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
