"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They check that spec generation is deterministic, that a traced run
reaches every wrapped function a workload is meant to exercise (which
guards against calls that bypass a wrapper through names imported into
``battery``), and that tracing does not change any report.
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import frobsym.battery as battery  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

# What each workload is meant to exercise: span names and counters.
EXERCISES = {
    "catalog": {
        "symplectic.integrate", "symplectic.Trajectory.records",
        "statmanifold.potential_eval", "statmanifold.cumulant_tensor",
        "statmanifold.natural_from_dual", "numdiff.derivative_tensor",
        "numdiff.central_partial", "geometry.christoffel", "geometry.riemann_tensor",
        "geometry.cone_multiply", "frobenius.wdvv_residual", "frobenius.frobenius_axioms",
        "poisson.lattice_jacobi_residual", "poisson.bracket_property_residuals",
        "battery.load_manifold_spec", "battery.run_battery", "battery.emit_report",
        "symplectic.phasepoint_inits", "symplectic.gradient_calls", "numdiff.evals",
    },
    "family_sweep": {
        "statmanifold.potential_eval", "statmanifold.cumulant_tensor",
        "statmanifold.gibbs_density", "statmanifold.dual_coordinates",
        "statmanifold.natural_from_dual", "numdiff.derivative_tensor",
        "numdiff.central_partial", "numdiff.jacobian", "geometry.dual_connections",
        "battery.run_battery", "numdiff.evals",
    },
    "structure_sweep": {
        "geometry.christoffel", "geometry.riemann_tensor", "geometry.cone_multiply",
        "geometry.hessian_log_metric", "geometry.curvature_flatness",
        "geometry.automorphism_invariance_residual", "frobenius.frobenius_axioms",
        "frobenius.find_idempotents_rank2", "paracomplex.para_mul",
        "paracomplex.para_inverse", "paracomplex.para_conj",
        "paracomplex.idempotent_decompose", "poisson.bracket_property_residuals",
        "poisson.extended_bracket", "poisson.canonical_bracket", "numdiff.gradient",
        "numdiff.jacobian", "battery.run_battery",
        "symplectic.phasepoint_inits", "symplectic.gradient_calls", "numdiff.evals",
    },
    "lattice_ladder": {
        "poisson.lattice_jacobi_residual", "poisson.lattice_hydro_bracket",
        "poisson.local_lie_bracket", "poisson.periodic_derivative_matrix",
        "frobenius.novikov_residuals", "battery.run_battery",
    },
}

_RUNS = {}


def _traced_and_untraced(workload):
    """Reports of a workload's small spec set, untraced and traced."""
    if workload not in _RUNS:
        texts = workloads.warmup(workload) or workloads.generate(workload, 0)
        plain = run.run_pass(battery, texts)[0]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(battery, texts, tracer)[0]
        finally:
            tracer.uninstall()
        _RUNS[workload] = (texts, plain, traced, tracer)
    return _RUNS[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_and_keep_their_plan(workload):
    first = workloads.generate(workload, 11)
    assert first == workloads.generate(workload, 11)
    assert workloads.warmup(workload) == workloads.warmup(workload)
    other = workloads.generate(workload, 12)
    assert len(other) == len(first)
    if workload != "catalog":
        assert other != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_input_is_valid_and_in_the_verdict_table(workload):
    for text in workloads.generate(workload, 0) + workloads.warmup(workload):
        spec = battery.load_manifold_spec(text)
        for check in spec.checks:
            assert verdicts.expected_status(spec.kind, spec.payload, check) in ("pass", "fail")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reaches_every_wrapped_layer(workload):
    *_, tracer = _traced_and_untraced(workload)
    seen = {record[0] for record in tracer.spans} | set(tracer.counts)
    assert EXERCISES[workload] <= seen, sorted(EXERCISES[workload] - seen)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_reports_match_apart_from_runtime(workload):
    texts, plain, traced, _ = _traced_and_untraced(workload)

    def normal(report):
        return [{**json.loads(line), "runtime_ms": None} for line in report.splitlines()]

    assert len(plain) == len(traced) == len(texts)
    for a, b in zip(plain, traced):
        assert not a.startswith("raised:"), a
        assert normal(a) == normal(b)


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    original = battery.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert battery.integrate is not original
        assert battery.integrate.__wrapped__ is original
        assert sys.modules["frobsym.symplectic"].integrate is battery.integrate
    finally:
        tracer.uninstall()
    assert battery.integrate is original


def test_self_time_subtracts_direct_children():
    spans = [["bench.battery", 0, 100, -1, 0, None],
             ["numdiff.gradient", 10, 60, 0, 0, None],
             ["statmanifold.potential_eval", 20, 30, 1, 0, None]]
    assert tracing.self_times(spans) == [50, 40, 10]


def test_tail_keeps_ten_batteries_beyond_it():
    values = list(range(30))
    value, percentile, n = run.tail(values)
    assert (value, n) == (19, 30) and sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail(list(range(12)))[:2] == (11, 100.0)


def test_known_defects_are_separated_from_unexpected_verdicts():
    algebra = {"kind": "algebra", "payload": {"constants": "diagonal2"}}
    row = {"name": "split_algebra_laws", "status": "fail", "residual": 3.6e-12}
    assert verdicts.classify(algebra, [row]) == [("split_algebra_laws", "split_laws_roundoff")]
    broken = {**row, "residual": 0.5}
    assert verdicts.classify(algebra, [broken]) == [("split_algebra_laws", "unexpected")]
    dual = {"kind": "algebra", "payload": {"constants": "dual_numbers2"}}
    assert verdicts.classify(dual, [{"name": "frobenius_axioms", "status": "fail",
                                     "residual": 1.0}]) == []
    spins = {"kind": "explicit_metric",
             "payload": {"metric": "euclidean2", "spins": "cyclic_nonjacobi"}}
    assert verdicts.classify(spins, [{"name": "bracket_suite", "status": "pass",
                                      "residual": 1e-8}]) == [
        ("bracket_suite", "bracket_suite_blind_to_spins")]


def test_speed_factor_is_the_geometric_mean_of_the_kernel_factors_around_the_interval():
    sampler = speed.Sampler()
    sampler.times = [[1.0, 2.0] for _ in speed.KERNELS]
    sampler.samples = [[n, n] for n in speed.NOMINAL_NS]
    sampler.samples[0][1] *= 4  # kernel 0 at a quarter speed at t = 2
    assert sampler.factor(1.0, 1.01) == pytest.approx(1.0)
    assert sampler.factor(1.99, 2.0) == pytest.approx(0.5)
    assert sampler.factor(1.0, 2.0) == pytest.approx(0.4 ** 0.5)  # median of 1 and 4 is 2.5
    deadline = time.monotonic() + 5.0
    with sampler:  # the handler appends live samples after the two above
        while len(sampler.samples[0]) < 3 and time.monotonic() < deadline:
            pass
    assert len(sampler.samples[0]) == 3 and sampler.times[0][2] > 2.0


def test_residual_moved_ignores_roundoff_only():
    assert not verdicts.residual_moved(1e-9, 1e-9 + 1e-12, 1e-6)
    assert verdicts.residual_moved(1e-9, 5e-9, 1e-6)
    assert verdicts.residual_moved(None, 0.0, 1e-6)
    assert not verdicts.residual_moved(None, None, 1e-6)
