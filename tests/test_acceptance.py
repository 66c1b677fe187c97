"""The acceptance battery: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Everything here is desk-scale (dimensions <= 6, sample spaces
<= 64, lattices <= 64 sites) and deterministic.
"""

import json

import numpy as np
import pytest

from frobsym import (
    LatticeBracket,
    LorentzLagrangian,
    MetricField,
    Observable,
    ParaNumber,
    PhasePoint,
    PotentialField,
    SeparableHamiltonian,
    algebra_from_potential,
    automorphism_invariance_residual,
    bracket_property_residuals,
    canonical_bracket,
    closedness_residual,
    cone_multiply,
    cumulant_tensor,
    curvature_flatness,
    dual_connections,
    extended_bracket,
    frobenius_axioms,
    hessian_log_metric,
    idempotent_decompose,
    integrate,
    lattice_hydro_bracket,
    lattice_jacobi_residual,
    legendre_hamiltonian,
    novikov_residuals,
    para_conj,
    para_inverse,
    para_mul,
    paracomplex_two_form,
    potential_eval,
    wdvv_residual,
)
from frobsym.cli import main
from frobsym.numdiff import derivative_tensor
from frobsym.registry import (
    antidiagonal_pairing,
    bernoulli_family,
    categorical_family,
    cubic_potential3,
    cyclic_nonjacobi_constants,
    linear_diagonal_lattice,
    orthant_potential,
    perturbed_cubic_potential3,
    round_sphere_metric,
)
from frobsym.poisson import so3_constants


def note(criterion, text):
    print(f"criterion {criterion:02d}: PASS - {text}")


def test_c01_split_algebra_laws():
    """e^2 = 1, idempotent relations, conjugation multiplicativity and the
    inverse round-trip, to 1e-12 over 10^4 randomized cases."""
    e = ParaNumber(0.0, 1.0)
    assert para_mul(e, e) == ParaNumber(1.0, 0.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for re1, im1, re2, im2 in rng.uniform(-3.0, 3.0, size=(10_000, 4)):
        a, b = ParaNumber(re1, im1), ParaNumber(re2, im2)
        prod = para_mul(a, b)
        # componentwise multiplication in the idempotent basis
        da, db, dp = (idempotent_decompose(v) for v in (a, b, prod))
        worst = max(worst, abs(da.plus * db.plus - dp.plus),
                    abs(da.minus * db.minus - dp.minus))
        # conjugation is an algebra map
        gap = para_mul(para_conj(a), para_conj(b)) - para_conj(prod)
        worst = max(worst, abs(gap.re), abs(gap.im))
        # inverse round-trip away from the null cone
        if abs(a.norm_form()) > 1e-3 * max(1.0, re1 * re1 + im1 * im1):
            back = para_mul(a, para_inverse(a))
            worst = max(worst, abs(back.re - 1.0), abs(back.im))
    assert worst <= 1e-12
    note(1, f"split algebra laws over 10^4 cases, worst residual {worst:.2e}")


def test_c02_cumulants_match_finite_differences():
    """Analytic cumulants vs central differences of the potential, orders
    1..4; plus the frozen two-outcome values 1/4, 0, -1/8 at beta = 0."""
    steps = {1: 1e-5, 2: 1e-4, 3: 5e-3, 4: 1e-2}
    cases = [(bernoulli_family(), np.array([0.4])),
             (categorical_family(3), np.array([0.3, -0.2]))]
    for fam, beta in cases:
        for order, rtol in ((1, 1e-6), (2, 1e-6), (3, 1e-6), (4, 1e-4)):
            analytic = cumulant_tensor(fam, beta, order)
            fd = derivative_tensor(lambda b: potential_eval(fam, b),
                                   beta, order, steps[order])
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - fd)) <= rtol * scale
    fam = bernoulli_family()
    assert cumulant_tensor(fam, [0.0], 2).item() == pytest.approx(0.25)
    assert cumulant_tensor(fam, [0.0], 3).item() == pytest.approx(0.0, abs=1e-15)
    assert cumulant_tensor(fam, [0.0], 4).item() == pytest.approx(-0.125)
    note(2, "cumulant tensors match the finite-difference oracle (orders 1-4)")


def test_c03_wdvv_residuals():
    g = antidiagonal_pairing()
    trivial = wdvv_residual(cubic_potential3(), g, [0.7, -0.3, 1.2])
    assert trivial < 1e-8
    perturbed = wdvv_residual(perturbed_cubic_potential3(), g, [0.0, 1.0, 1.0])
    assert perturbed > 1e-2
    # 2-d: with the unit-direction pairing g_ab = T_1ab the product has a
    # unit, and 2-d commutative unital algebras are associative outright
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 5:
        t = rng.normal(size=(2, 2, 2))
        t = sum(np.transpose(t, p) for p in
                [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6
        if abs(np.linalg.det(t[0])) < 1e-2:
            continue
        pot = PotentialField(2, lambda x: np.zeros(x.shape[:-1]),
                             third=lambda x, t=t: np.broadcast_to(t, x.shape[:-1] + t.shape))
        assert wdvv_residual(pot, t[0], [0.0, 0.0]) < 1e-12
        checked += 1
    note(3, f"trivial {trivial:.1e} < 1e-8, perturbed {perturbed:.2f} > 1e-2, 2-d flat")


@pytest.mark.parametrize("n", [2, 3])
def test_c04_orthant_cone(n):
    phi = orthant_potential(n)
    metric = hessian_log_metric(phi)
    rng = np.random.default_rng(n)
    points = [np.exp(rng.normal(0.0, 0.3, n)) + 0.2 for _ in range(3)]
    for x in points:
        assert np.min(np.linalg.eigvalsh(metric.value(x))) > 0.0
    assert curvature_flatness(metric, points) < 1e-6
    x0 = points[0]
    for _ in range(5):
        a, b, c = (rng.normal(size=n) for _ in range(3))
        ab = cone_multiply(phi, x0, a, b)
        assert np.max(np.abs(ab - cone_multiply(phi, x0, b, a))) <= 1e-10
        assoc = cone_multiply(phi, x0, ab, c) - cone_multiply(phi, x0, a, cone_multiply(phi, x0, b, c))
        assert np.max(np.abs(assoc)) <= 1e-10
        assert np.max(np.abs(cone_multiply(phi, x0, x0, a) - a)) <= 1e-10
    assert automorphism_invariance_residual(
        phi, np.diag(np.arange(2.0, 2.0 + n)), points) <= 1e-12
    shear = np.eye(n)
    shear[0, 1] = 1.0
    assert automorphism_invariance_residual(phi, shear, [np.ones(n)]) > 0.1
    note(4, f"orthant cone n={n}: PD+flat metric, unital algebra, invariance")


def test_c05_pairing_invariance_and_novikov():
    rng = np.random.default_rng(77)
    # every algebra built from a fully symmetric 3-tensor is invariant
    for dim in (2, 3, 4):
        t = rng.normal(size=(dim,) * 3)
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        t = sum(np.transpose(t, p) for p in perms) / 6
        g = rng.normal(size=(dim, dim))
        g = g @ g.T + dim * np.eye(dim)
        report = frobenius_axioms(algebra_from_potential(t, g))
        assert report.pairing_invariance < 1e-10
    # commutative associative constants satisfy both first-order identities
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1.0
    b = np.einsum("kij->ijk", c)
    lin = MetricField(2, lambda u: u[..., None] * np.eye(2))
    rep = novikov_residuals(b, lin, [1.0, 2.0])
    assert rep.left_symmetry == 0.0 and rep.right_identity == 0.0
    # the half-derivative flux saturates the symmetrization condition
    bb = np.zeros((2, 2, 2))
    bb[0, 0, 0] = bb[1, 1, 1] = 0.5
    assert novikov_residuals(bb, lin, [1.3, 0.7]).symmetrization < 1e-8
    note(5, "pairing invariance < 1e-10; first-order identities hold")


def test_c06_tangent_bundle_of_a_hessian_metric_is_symplectic():
    """omega = g_ab dx^a ^ dy^b on TM is closed iff g is Hessian: the
    orthant's log-Hessian metric passes, the round sphere's fails."""
    rng = np.random.default_rng(5)
    x = np.exp(rng.normal(0.0, 0.3, (3, 2))) + 0.2
    points = np.concatenate([x, np.zeros_like(x)], axis=-1)

    def closedness(metric):
        form = paracomplex_two_form(lambda pt: metric.value(pt[..., :2]), 2)
        return closedness_residual(form, points) / max(1.0, np.max(np.abs(metric.value(x))))

    closed = closedness(hessian_log_metric(orthant_potential(2)))
    curved = closedness(round_sphere_metric())
    assert closed < 1e-5
    assert curved > 0.5
    note(6, f"closedness on TM {closed:.1e} < 1e-5 (orthant), {curved:.2f} (sphere)")


def test_c07_legendre_energies():
    lag = LorentzLagrangian(signature=[1.0, 1.0, 1.0, -1.0])
    _, h_space = legendre_hamiltonian(lag, np.array([1.0, 0, 0, 0]))
    _, h_time = legendre_hamiltonian(lag, np.array([0.0, 0, 0, 1.0]))
    assert abs(h_space - 1.0) <= 1e-12
    assert abs(h_time) <= 1e-12
    note(7, "Lorentz Legendre transform energies 1 and 0 to 1e-12")


def test_c08_oscillator_drift_and_scaling():
    half_square = lambda x: 0.5 * np.sum(np.square(x), axis=-1)
    H = SeparableHamiltonian(half_square, lambda p: p, half_square, lambda z: z)
    y0 = PhasePoint([1.0], [0.0])
    drift = integrate(H, y0, 1e-3, 10_000).max_energy_drift
    assert drift < 1e-6
    dts = [1e-3, 5e-4, 2.5e-4, 1.25e-4]
    drifts = [integrate(H, y0, dt, int(round(10.0 / dt))).max_energy_drift
              for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
    note(8, f"drift {drift:.2e} < 1e-6; log-log slope {slope:.3f}")


def test_c09_bracket_suite():
    pts = [PhasePoint([0.3, 0.7], [0.2, -0.4]),
           PhasePoint([1.1, -0.5], [0.6, 0.9])]
    zero = lambda y: np.zeros_like(y.z[..., 0])
    A = Observable(lambda y: y.z[..., 0] ** 2 + y.p[..., 1] * y.z[..., 1],
                   grad=lambda y: np.stack([2 * y.z[..., 0], y.p[..., 1], zero(y), y.z[..., 1]],
                                           axis=-1))
    B = Observable(lambda y: y.p[..., 0] * y.z[..., 0] + y.p[..., 1] ** 2,
                   grad=lambda y: np.stack([y.p[..., 0], zero(y), y.z[..., 0], 2 * y.p[..., 1]],
                                           axis=-1))
    C = Observable(lambda y: y.z[..., 1] * y.p[..., 0],
                   grad=lambda y: np.stack([zero(y), y.p[..., 0], y.z[..., 1], zero(y)], axis=-1))
    assert bracket_property_residuals(canonical_bracket, (A, B, C), pts).worst() < 1e-6

    spin_pts = [PhasePoint([0.3], [0.2], [0.4, -1.1, 0.8]),
                PhasePoint([-0.7], [1.0], [0.3, 0.5, -0.2])]
    SA = Observable(lambda y: y.lam[..., 0] * y.lam[..., 1] + y.z[..., 0] * y.p[..., 0])
    SB = Observable(lambda y: y.lam[..., 1] ** 2 + y.p[..., 0])
    SC = Observable(lambda y: y.lam[..., 2] * y.z[..., 0])
    so3 = lambda f, g, y: extended_bracket(f, g, y, so3_constants())
    assert bracket_property_residuals(so3, (SA, SB, SC), spin_pts).worst() < 1e-6

    broken = cyclic_nonjacobi_constants()
    spins = [Observable(lambda y, i=i: y.lam[..., i]) for i in range(3)]
    bad = lambda f, g, y: extended_bracket(f, g, y, broken)
    jac = bracket_property_residuals(bad, tuple(spins), spin_pts[:1]).jacobi
    assert jac > 1e-3
    note(9, f"bracket laws < 1e-6, broken constants flagged at {jac:.2f}")


def test_c10_lattice_bracket():
    metric, metric_deriv, b = linear_diagonal_lattice(1)
    const = LatticeBracket(16, 1, lambda u: np.full(u.shape[:-1] + (1, 1), 2.0),
                           np.zeros((1, 1, 1)), spacing=2 * np.pi / 16)
    assert lattice_hydro_bracket(const, np.full((1, 16), 1.0)) == 0.0

    def state(lb):
        x = lb.spacing * np.arange(lb.sites)
        return (2.0 + np.sin(x))[None, :]

    jac = {}
    for sites in (16, 64):
        lb = LatticeBracket(sites, 1, metric, b, spacing=2 * np.pi / sites,
                            metric_deriv=metric_deriv)
        jac[sites] = lattice_jacobi_residual(lb, state(lb),
                                             rng=np.random.default_rng(12))
    assert jac[16] / jac[64] >= 4.0
    note(10, f"constant operator exactly skew; refinement factor {jac[16]/jac[64]:.1f}")


def test_c12_dual_connections():
    rep = dual_connections(bernoulli_family(), [0.5])
    assert rep.duality_residual < 1e-6
    assert rep.curvature_growth < 1e-6
    assert rep.curvature_mixture < 1e-6
    note(12, "duality and both curvature residuals < 1e-6")


def test_c13_cli_contract(tmp_path, capsys):
    from frobsym.battery import builtin_catalog

    spec_path = tmp_path / "bernoulli.json"
    spec_path.write_text(builtin_catalog()["bernoulli"].spec.canonical_text())
    outputs = []
    for _ in range(2):
        assert main(["check", str(spec_path), "--report", "machine"]) == 0
        outputs.append(capsys.readouterr().out)

    def strip_runtime(text):
        rows = []
        for line in text.splitlines():
            data = json.loads(line)
            data.pop("runtime_ms", None)
            rows.append(json.dumps(data, sort_keys=True))
        return "\n".join(rows)

    assert strip_runtime(outputs[0]) == strip_runtime(outputs[1])

    assert main(["catalog", "all", "--report", "machine",
                 "--out", str(tmp_path / "all.jsonl")]) == 0
    capsys.readouterr()

    # every catalog report is strict JSON: no NaN or Infinity constants
    def reject_constant(name):
        raise ValueError(f"non-JSON constant {name}")

    lines = (tmp_path / "all.jsonl").read_text().splitlines()
    records = [json.loads(line, parse_constant=reject_constant) for line in lines]
    assert sum(r["record"] == "meta" for r in records) == len(builtin_catalog())

    assert main(["catalog", "perturbed_wdvv3"]) == 1
    capsys.readouterr()
    note(13, "byte-stable reports; catalog healthy; broken fixture exits 1")
