"""Spec parsing, check routing, report formats and CLI exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frobsym
from frobsym import PhasePoint, integrate, numdiff, quadratic_energy
from frobsym.battery import (
    ANCHORS,
    CHECKS,
    SCALAR_FIELDS,
    CheckContext,
    CheckDef,
    ManifoldSpec,
    RunOptions,
    builtin_catalog,
    emit_report,
    load_manifold_spec,
    parse_machine_report,
    run_battery,
    _check_split_algebra_laws,
    _hamiltonian_observable,
    spec_from_dict,
)
from frobsym.cli import main
from frobsym.registry import METRICS
from frobsym.errors import ParseError, SchemaError
from frobsym.paracomplex import (ParaNumber, idempotent_decompose, para_conj,
                                 para_inverse, para_mul)

BERNOULLI_TEXT = json.dumps({
    "name": "bernoulli-file",
    "kind": "exponential_family",
    "payload": {"statistics": [[0.0, 1.0]], "beta": [0.5]},
    "checks": ["gibbs_normalization", "metric_positive_definite"],
    "tolerances": {"gibbs_normalization": 1e-13},
    "seed": 3,
})


class TestSpecLoading:
    def test_round_trip_from_text(self):
        spec = load_manifold_spec(BERNOULLI_TEXT)
        assert spec.kind == "exponential_family"
        assert spec.checks == ("gibbs_normalization", "metric_positive_definite")
        assert spec.tolerances["gibbs_normalization"] == 1e-13
        assert spec.seed == 3

    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT)
        assert load_manifold_spec(str(path)) == load_manifold_spec(BERNOULLI_TEXT)

    def test_builtin_fixture_round_trips(self):
        entry = builtin_catalog()["bernoulli"]
        again = load_manifold_spec(entry.spec.canonical_text())
        assert again == entry.spec

    def test_malformed_text_reports_position(self):
        with pytest.raises(ParseError) as err:
            load_manifold_spec('{"kind": }')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_negative_tolerance_rejected(self):
        data = json.loads(BERNOULLI_TEXT)
        data["tolerances"]["gibbs_normalization"] = -1.0
        with pytest.raises(SchemaError) as err:
            spec_from_dict(data)
        assert "tolerances" in str(err.value.field)

    # 1e999 parses as inf; the huge integer overflows float arithmetic
    @pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400],
                             ids=["inf_float", "huge_int"])
    def test_infinite_tolerance_rejected(self, literal):
        text = BERNOULLI_TEXT.replace("1e-13", literal)
        with pytest.raises(SchemaError) as err:
            load_manifold_spec(text)
        assert err.value.field == "tolerances.gibbs_normalization"

    def test_boolean_seed_rejected(self):
        data = json.loads(BERNOULLI_TEXT)
        data["seed"] = True
        with pytest.raises(SchemaError) as err:
            spec_from_dict(data)
        assert err.value.field == "seed"

    def test_boolean_tolerance_rejected(self):
        data = json.loads(BERNOULLI_TEXT)
        data["tolerances"]["gibbs_normalization"] = True
        with pytest.raises(SchemaError) as err:
            spec_from_dict(data)
        assert err.value.field == "tolerances.gibbs_normalization"

    def test_unknown_check_rejected(self):
        data = json.loads(BERNOULLI_TEXT)
        data["checks"] = ["no_such_check"]
        with pytest.raises(SchemaError):
            spec_from_dict(data)

    def test_check_kind_mismatch_rejected(self):
        data = json.loads(BERNOULLI_TEXT)
        data["checks"] = ["wdvv"]  # cone_potential only
        with pytest.raises(SchemaError):
            spec_from_dict(data)

    def test_unknown_registry_id_rejected(self):
        with pytest.raises(SchemaError):
            spec_from_dict({"kind": "cone_potential",
                            "payload": {"potential": "missing"}, "checks": []})

    @pytest.mark.parametrize("field_dim", [0, -1, "2", 2.5, True])
    def test_lattice_field_dim_must_be_positive_integer(self, field_dim):
        with pytest.raises(SchemaError) as err:
            spec_from_dict({
                "kind": "lattice",
                "payload": {"sites": 16, "field_dim": field_dim,
                            "coefficients": "linear_diagonal"},
                "checks": ["lattice_constant_skew"],
            })
        assert err.value.field == "payload.field_dim"

    # each escaped as a raw ValueError traceback with exit 1 before
    @pytest.mark.parametrize("field, payload", [
        ("statistics", '{"statistics": [[0.0, 1.0], [1.0]], "beta": [0.0, 0.0]}'),
        ("base_weights", '{"statistics": [[0.0, 1.0]], "beta": [0.0], "base_weights": ["a", 1]}'),
        ("base_weights", '{"statistics": [[0.0, 1.0]], "beta": [0.0], "base_weights": [-1, 1]}'),
        ("base_weights", '{"statistics": [[0.0, 1.0]], "beta": [0.0], "base_weights": [1e400, 1]}'),
        ("beta", '{"statistics": [[0.0, 1.0]], "beta": ["x"]}'),
        ("beta", '{"statistics": [[0.0, 1.0]], "beta": [1e400]}'),
    ], ids=["ragged_statistics", "text_weight", "negative_weight", "infinite_weight",
            "text_beta", "infinite_beta"])
    def test_malformed_family_payload_exits_two(self, field, payload, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "exponential_family", "payload": %s, '
                        '"checks": ["gibbs_normalization"]}' % payload)
        with pytest.raises(SchemaError) as err:
            load_manifold_spec(str(path))
        assert err.value.field == f"payload.{field}"
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    # "abc" escaped as a raw ValueError traceback with exit 1, and [] ran five
    # checks over no points and passed them with residual 0.0
    @pytest.mark.parametrize("field, payload", [
        ("points", '{"potential": "orthant2", "points": "abc"}'),
        ("points", '{"potential": "orthant2", "points": []}'),
        ("points", '{"potential": "orthant2", "points": [1.0, 2.0]}'),
        ("points", '{"potential": "orthant2", "points": [[1.0, 2.0], [1.0]]}'),
        ("points", '{"potential": "orthant2", "points": [[1.0, 2.0, 3.0]]}'),
        ("points", '{"potential": "orthant2", "points": [[1.0, true]]}'),
        ("points", '{"potential": "orthant2", "points": [[1.0, 1e400]]}'),
        ("point", '{"potential": "wdvv_cubic3", "point": "abc"}'),
        ("point", '{"potential": "wdvv_cubic3", "point": [0.7, -0.3]}'),
        ("point", '{"potential": "wdvv_cubic3", "point": [[0.7, -0.3, 1.2]]}'),
        ("point", '{"potential": "wdvv_cubic3", "point": [0.7, "x", 1.2]}'),
    ], ids=["text_points", "no_points", "flat_points", "short_point", "long_point",
            "boolean_coordinate", "infinite_coordinate", "text_point", "short_wdvv_point",
            "nested_wdvv_point", "text_coordinate"])
    def test_malformed_cone_points_exit_two(self, field, payload, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "cone_potential", "payload": %s, '
                        '"checks": ["hessian_metric_pd", "wdvv"]}' % payload)
        with pytest.raises(SchemaError) as err:
            load_manifold_spec(str(path))
        assert err.value.field == f"payload.{field}"
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_wdvv_routing(self):
        spec = spec_from_dict({
            "kind": "cone_potential",
            "payload": {"potential": "wdvv_cubic3", "pairing": "antidiag3",
                        "point": [0.7, -0.3, 1.2]},
            "checks": ["wdvv"],
        })
        report = run_battery(spec)
        assert report.rows[0].name == "wdvv"
        assert report.rows[0].status == "pass"


class TestRunBattery:
    def test_empty_check_list_gives_metadata_only(self):
        spec = spec_from_dict({"kind": "algebra",
                               "payload": {"constants": "paracomplex2"},
                               "checks": []})
        report = run_battery(spec)
        assert report.rows == ()
        assert report.all_passed()
        assert report.spec_hash == spec.digest()

    def test_rows_follow_spec_order(self):
        report = run_battery(load_manifold_spec(BERNOULLI_TEXT))
        assert [r.name for r in report.rows] == [
            "gibbs_normalization", "metric_positive_definite"]

    def test_tolerance_scale_can_force_failure(self):
        spec = spec_from_dict({
            "kind": "exponential_family",
            "payload": {"statistics": [[0.0, 1.0]], "beta": [0.5]},
            "checks": ["cumulants_low_order"],
        })
        strict = run_battery(spec, RunOptions(tol_scale=1e-12))
        assert strict.rows[0].status == "fail"
        normal = run_battery(spec)
        assert normal.rows[0].status == "pass"

    def test_seed_override_changes_hash_only_in_meta(self):
        spec = load_manifold_spec(BERNOULLI_TEXT)
        report = run_battery(spec, RunOptions(seed=99))
        assert report.seed == 99

    def test_anchor_vocabulary(self):
        for name, definition in CHECKS.items():
            assert definition.anchor in ANCHORS, name

    def test_algebra_kind_checks(self):
        spec = spec_from_dict({
            "kind": "algebra",
            "payload": {"constants": "paracomplex2"},
            "checks": ["frobenius_axioms", "split_algebra_laws", "idempotent_closure"],
        })
        report = run_battery(spec)
        assert report.all_passed()

    def test_adapted_potential_checks(self):
        spec = spec_from_dict({
            "kind": "cone_potential",
            "payload": {"potential": "adapted_mixed2"},
            "checks": ["form_closedness", "dbar_splitting"],
        })
        report = run_battery(spec)
        assert report.all_passed()

    def test_unevaluable_check_fails_instead_of_crashing(self):
        # the two statistics are affinely dependent on two outcomes, so the
        # metric is singular and the dual-coordinate construction errors out
        spec = spec_from_dict({
            "kind": "exponential_family",
            "payload": {"statistics": [[0.0, 1.0], [2.0, 0.0]], "beta": [0.1, 0.1]},
            "checks": ["dual_coordinates"],
        })
        report = run_battery(spec)
        assert report.rows[0].status == "fail"
        assert report.rows[0].residual is None
        assert parse_machine_report(emit_report(report, "machine")) == report

    def test_singular_fisher_metric_is_a_null_row(self):
        # the two statistics are equal, so the metric has rank 1; the row
        # passed with residual 0.0 while dual_coordinates was null
        spec = spec_from_dict({
            "kind": "exponential_family",
            "payload": {"statistics": [[0, 1], [0, 1]], "beta": [0.1, 0.2]},
            "checks": ["metric_positive_definite", "dual_coordinates"],
        })
        rows = run_battery(spec).rows
        assert [(r.status, r.residual) for r in rows] == [("fail", None), ("fail", None)]

    def test_non_finite_point_gives_null_rows(self):
        # built without validation, as a drawn point can reach the checks
        spec = ManifoldSpec("exponential_family",
                            {"statistics": [[0.0, 1.0]], "beta": [math.inf]},
                            ("gibbs_normalization", "cumulants_low_order"), {})
        report = run_battery(spec)
        assert [(row.status, row.residual) for row in report.rows] == [("fail", None)] * 2

    def test_overflowing_moments_give_null_rows(self):
        # the order-2 and order-4 moments overflow; their residuals were 0.0
        spec = spec_from_dict({
            "kind": "exponential_family",
            "payload": {"statistics": [[1e160, -1e160, 0.5]], "beta": [0.0]},
            "checks": ["cumulants_order4", "metric_positive_definite"],
        })
        report = run_battery(spec)
        assert [(row.status, row.residual) for row in report.rows] == [("fail", None)] * 2

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_residual_is_null_row(self, value, monkeypatch):
        monkeypatch.setitem(CHECKS, "gibbs_normalization",
                            CheckDef(lambda ctx: value, ("exponential_family",), "E:3", 1e-14))
        report = run_battery(load_manifold_spec(BERNOULLI_TEXT))
        assert (report.rows[0].status, report.rows[0].residual) == ("fail", None)
        text = emit_report(report, "machine")
        for line in text.splitlines():
            json.loads(line, parse_constant=lambda c: pytest.fail(f"{c} in report"))

    @pytest.mark.parametrize("coefficients", ["linear_diagonal", "constant"])
    @pytest.mark.parametrize("field_dim", [2, 3])
    def test_lattice_checks_honour_field_dim(self, coefficients, field_dim):
        spec = spec_from_dict({
            "kind": "lattice",
            "payload": {"sites": 16, "field_dim": field_dim, "coefficients": coefficients},
            "checks": ["lattice_constant_skew", "lattice_jacobi_refinement",
                       "novikov_identities", "local_bracket_antisymmetry"],
        })
        report = run_battery(spec)
        assert all(row.residual is not None for row in report.rows)
        assert report.all_passed()

    @pytest.mark.parametrize("field_dim", [1, 2])
    def test_lattice_constant_skew_exact_on_fine_grid(self, field_dim):
        spec = spec_from_dict({
            "kind": "lattice",
            "payload": {"sites": 1024, "field_dim": field_dim,
                        "coefficients": "linear_diagonal"},
            "checks": ["lattice_constant_skew"],
        })
        assert run_battery(spec).rows[0].residual == 0.0


def split_laws_loop(vals) -> float:
    """Scalar reference for ``_check_split_algebra_laws``: one case at a time."""
    worst = 0.0
    for x1, y1, x2, y2 in vals:
        a, b = ParaNumber(x1, y1), ParaNumber(x2, y2)
        prod = para_mul(a, b)
        da, db, dp = (idempotent_decompose(v) for v in (a, b, prod))
        worst = max(worst, abs(da.plus * db.plus - dp.plus),
                    abs(da.minus * db.minus - dp.minus))
        conj_gap = para_mul(para_conj(a), para_conj(b)) - para_conj(prod)
        worst = max(worst, abs(conj_gap.re), abs(conj_gap.im))
        if not a.is_zero_divisor():
            back = para_mul(a, para_inverse(a))
            worst = max(worst, abs(back.re - 1.0), abs(back.im))
    return worst


class DrawnCases:
    """Stands in for the check's generator and hands it prepared cases."""

    def __init__(self, vals):
        self.vals = vals

    def uniform(self, low, high, size):
        assert size == self.vals.shape
        return self.vals


class TestSplitAlgebraLaws:
    @pytest.mark.parametrize("seed", [0, 26, 37, 1234])
    def test_matches_scalar_loop(self, seed):
        ctx = CheckContext(None, np.random.default_rng(seed), RunOptions())
        vals = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(2000, 4))
        assert _check_split_algebra_laws(ctx) == split_laws_loop(vals)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_loop_on_and_near_the_null_cone(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-3.0, 3.0, size=(400, 4))
        sign = rng.choice([-1.0, 1.0], size=400)
        # exactly on the cone, then 1e-15 to 1e-9 off it in relative terms
        nudge = np.where(np.arange(400) < 100, 0.0, 10.0 ** rng.uniform(-15, -9, 400))
        vals[:, 1] = sign * vals[:, 0] * (1.0 + nudge)
        vals[:4, :2] = [[0.0, 0.0], [0.0, -0.0], [1e-8, 1e-8], [3.0, -3.0]]
        ctx = CheckContext(None, DrawnCases(vals), RunOptions())
        assert _check_split_algebra_laws(ctx, cases=400) == split_laws_loop(vals)


class TestPinnedResiduals:
    """Residuals recorded from the full-gradient brackets and the per-case
    split-algebra loop; the faster paths must reproduce them bit for bit."""

    @pytest.mark.parametrize("payload, check, seed, residual", [
        ({"metric": "euclidean3", "spins": "so3"}, "bracket_suite", 5,
         3.1504088227052307e-10),
        ({"metric": "euclidean2", "spins": "cyclic_nonjacobi"}, "bracket_suite", 5,
         4.621925064896004e-11),
        ({"metric": "euclidean2"}, "bracket_suite", 5, 9.945066992145257e-10),
        ({"constants": "dual_numbers2"}, "split_algebra_laws", 26, 3.637978807091713e-12),
        ({"constants": "paracomplex2"}, "split_algebra_laws", 6, 2.842170943040401e-14),
        ({"metric": "euclidean1", "scalar": "half_square"}, "drift_scaling", 0,
         2.6114801094934137e-06),
    ])
    def test_residual_is_unchanged(self, payload, check, seed, residual):
        kind = "algebra" if "constants" in payload else "explicit_metric"
        spec = spec_from_dict({"kind": kind, "payload": payload,
                               "checks": [check], "seed": seed})
        assert run_battery(spec).rows[0].residual == residual


class TestDriftScaling:
    def test_steps_all_sizes_in_one_run(self, monkeypatch):
        # four step sizes over the same time: 6.5k + 13k + 32.5k + 65k steps
        # one at a time, but one force per step of the longest run stacked
        value, grad = SCALAR_FIELDS["half_square"]
        calls = []
        monkeypatch.setitem(SCALAR_FIELDS, "half_square",
                            (value, lambda z: calls.append(1) or grad(z)))
        spec = spec_from_dict({"kind": "explicit_metric",
                               "payload": {"metric": "euclidean1", "scalar": "half_square"},
                               "checks": ["drift_scaling"]})
        assert run_battery(spec).rows[0].status == "pass"
        assert len(calls) == 65_001


def metric_hamiltonian(metric):
    spec = spec_from_dict({"kind": "explicit_metric",
                           "payload": {"metric": metric, "scalar": "half_square"}})
    return _hamiltonian_observable(CheckContext(spec, np.random.default_rng(0), RunOptions()))


class TestMetricHamiltonian:
    """H = p^T g^-1(z) p / 2 + U(z) on a non-euclidean metric does not separate."""

    def test_sphere_energy_does_not_drift(self):
        traj = integrate(metric_hamiltonian("round_sphere2"),
                         PhasePoint([1.0, 1.0], [0.0, 0.0]), 1e-3, 2000)
        drift = np.abs(traj.energies - traj.energies[0])
        first, whole = np.max(drift[:1001]), np.max(drift)
        assert whole <= 1e-6
        assert whole <= 1.1 * first

    @pytest.mark.parametrize("metric", ["round_sphere2", "offdiag_linear2"])
    def test_gradient_matches_finite_differences(self, metric):
        H = metric_hamiltonian(metric)
        g = METRICS[metric]()
        rng = np.random.default_rng(4)
        for _ in range(3):
            y = PhasePoint(rng.normal(0.8, 0.3, 2), rng.normal(0.0, 0.5, 2))
            fd = numdiff.gradient(lambda v: quadratic_energy(
                g, PhasePoint(v[:2], v[2:]), SCALAR_FIELDS["half_square"][0]), y.flat())
            # the central differences carry their O(h^2) truncation error
            assert np.max(np.abs(H.grad(y) - fd)) <= 1e-7


def strip_runtime(text):
    lines = []
    for line in text.splitlines():
        data = json.loads(line)
        data.pop("runtime_ms", None)
        lines.append(json.dumps(data, sort_keys=True))
    return "\n".join(lines)


class TestReports:
    def test_machine_round_trip(self):
        report = run_battery(load_manifold_spec(BERNOULLI_TEXT))
        text = emit_report(report, "machine")
        again = parse_machine_report(text)
        assert again == report

    def test_machine_deterministic_modulo_runtime(self):
        spec = load_manifold_spec(BERNOULLI_TEXT)
        first = emit_report(run_battery(spec), "machine")
        second = emit_report(run_battery(spec), "machine")
        assert strip_runtime(first) == strip_runtime(second)

    def test_machine_field_order_stable(self):
        report = run_battery(load_manifold_spec(BERNOULLI_TEXT))
        line = emit_report(report, "machine").splitlines()[1]
        assert list(json.loads(line)) == ["record", "name", "status", "residual",
                                          "tolerance", "runtime_ms", "paper_anchor"]

    def test_human_format_mentions_every_check(self):
        report = run_battery(load_manifold_spec(BERNOULLI_TEXT))
        text = emit_report(report, "human")
        for row in report.rows:
            assert row.name in text
        assert "2 passed" in text


class TestCatalog:
    def test_expected_entries_present(self):
        names = set(builtin_catalog())
        assert {"bernoulli", "categorical3", "ising1d", "orthant_cone2",
                "orthant_cone3", "trivial_wdvv3", "perturbed_wdvv3",
                "harmonic_oscillator", "linear_hydro_lattice"} <= names

    def test_perturbed_entry_documents_failure(self):
        entry = builtin_catalog()["perturbed_wdvv3"]
        assert entry.expect_fail == {"wdvv"}

    def test_anchors_cover_rows(self):
        for entry in builtin_catalog().values():
            for name in entry.spec.checks:
                assert CHECKS[name].anchor in ANCHORS


class TestCli:
    def test_import_leaves_scipy_unloaded(self):
        # numpy is the only runtime dependency; a fresh interpreter shows it
        code = "import sys, frobsym.cli; sys.exit('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(frobsym.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_check_passing_spec_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT)
        assert main(["check", str(path)]) == 0
        assert "gibbs_normalization" in capsys.readouterr().out

    def test_check_failing_fixture_exits_one(self, tmp_path, capsys):
        entry = builtin_catalog()["perturbed_wdvv3"]
        path = tmp_path / "perturbed.json"
        path.write_text(entry.spec.canonical_text())
        assert main(["check", str(path)]) == 1
        assert "fail" in capsys.readouterr().out

    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "perturbed_wdvv3" in out and "fails: wdvv" in out

    def test_catalog_single_entry_failure_code(self, capsys):
        assert main(["catalog", "perturbed_wdvv3"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_tol_scale_must_be_positive_and_finite(self, scale, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT)
        assert main(["check", str(path), f"--tol-scale={scale}"]) == 2
        assert main(["catalog", "bernoulli", f"--tol-scale={scale}"]) == 2
        assert "--tol-scale" in capsys.readouterr().err

    def test_overflowing_tolerance_product_rejected(self, tmp_path, capsys):
        # both factors are finite; their product is not
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT.replace("1e-13", "1e300"))
        assert main(["check", str(path), "--tol-scale=1e10", "--report=machine"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "gibbs_normalization" in out.err

    @pytest.mark.parametrize("step", ["inf", "nan", "0", "-1"])
    def test_fd_step_must_be_positive_and_finite(self, step, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT)
        assert main(["check", str(path), f"--fd-step={step}"]) == 2
        assert main(["catalog", "bernoulli", f"--fd-step={step}"]) == 2
        assert "--fd-step" in capsys.readouterr().err

    def test_catalog_unknown_entry(self, capsys):
        assert main(["catalog", "does_not_exist"]) == 2
        capsys.readouterr()

    def test_dump_spec_round_trips(self, capsys):
        assert main(["catalog", "trivial_wdvv3", "--dump-spec"]) == 0
        text = capsys.readouterr().out
        assert load_manifold_spec(text) == builtin_catalog()["trivial_wdvv3"].spec

    def test_report_written_to_file(self, tmp_path, capsys):
        entry = builtin_catalog()["trivial_wdvv3"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(entry.spec.canonical_text())
        out_path = tmp_path / "report.jsonl"
        assert main(["check", str(spec_path), "--report", "machine",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        parsed = parse_machine_report(out_path.read_text())
        assert parsed.rows[0].name == "wdvv"

    def test_check_byte_identical_reports(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT)
        outputs = []
        for _ in range(2):
            assert main(["check", str(path), "--report", "machine"]) == 0
            outputs.append(capsys.readouterr().out)
        assert strip_runtime(outputs[0]) == strip_runtime(outputs[1])
