"""Spec parsing, check routing, report formats and CLI exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frobsym
from frobsym import PhasePoint, integrate, numdiff
from frobsym.battery import (
    ANCHORS,
    CHECKS,
    KINDS,
    LATTICE_SIZE_LIMIT,
    CheckContext,
    CheckDef,
    ManifoldSpec,
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
from frobsym import registry
from frobsym.frobenius import FrobeniusAlgebra, frobenius_axioms, wdvv_residual
from frobsym.geometry import MetricField, christoffel, hessian_log_metric
from frobsym.registry import METRICS
from frobsym.statmanifold import checked_metric
from frobsym.errors import NonConvergence, ParseError, SchemaError
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
# every report prints the seed, and str() prints no int with more digits
LONGEST_SEED = 10 ** sys.get_int_max_str_digits() - 1


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

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"kind": "\xff"}')
        with pytest.raises(ParseError, match="not UTF-8"):
            load_manifold_spec(str(path))

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

    @pytest.mark.parametrize("seed", [1.5, -1, "3", None],
                             ids=["float", "negative", "text", "null"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        data = json.loads(BERNOULLI_TEXT)
        data["seed"] = seed
        with pytest.raises(SchemaError) as err:
            spec_from_dict(data)
        assert err.value.field == "seed"
        assert str(err.value) == "seed must be a nonnegative integer"

    @pytest.mark.parametrize("seed", [LONGEST_SEED + 1, 10 ** 5000],
                             ids=["one_digit_too_long", "5001_digits"])
    def test_seed_too_long_to_print_rejected(self, seed):
        data = json.loads(BERNOULLI_TEXT)
        data["seed"] = seed
        with pytest.raises(SchemaError) as err:
            spec_from_dict(data)
        assert err.value.field == "seed"
        assert str(err.value) == f"seed must have at most {sys.get_int_max_str_digits()} digits"

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

    @pytest.mark.parametrize("kind, payload, key, table", [
        ("cone_potential", {}, "potential", registry.POTENTIALS),
        ("cone_potential", {"potential": "orthant2"}, "pairing", registry.CONSTANT_MATRICES),
        ("explicit_metric", {}, "metric", registry.METRICS),
        ("explicit_metric", {"metric": "euclidean1"}, "spins", registry.SPIN_CONSTANTS),
        ("explicit_metric", {"metric": "euclidean1"}, "scalar", registry.SCALARS),
        ("algebra", {}, "constants", registry.ALGEBRAS),
        ("lattice", {"sites": 16}, "coefficients", registry.LATTICE_COEFFICIENTS),
    ], ids=["potential", "pairing", "metric", "spins", "scalar", "constants",
            "coefficients"])
    def test_unknown_registry_id_names_the_payload_key(self, kind, payload, key, table):
        with pytest.raises(SchemaError) as err:
            spec_from_dict({"kind": kind, "payload": {**payload, key: "nope"}, "checks": []})
        assert err.value.field == f"payload.{key}"
        assert f"(known: {', '.join(sorted(table))})" in str(err.value)

    @pytest.mark.parametrize("payload, checks, field", [
        ({"potential": "orthant2"}, ["form_closedness"], "checks"),
        ({"potential": "adapted_mixed2"}, ["tangent_symplectic"], "payload.potential"),
        ({"potential": "adapted_quartic1"}, ["wdvv"], "payload.potential"),
    ], ids=["form_closedness", "adapted_mixed2", "adapted_quartic1"])
    def test_deleted_names_are_schema_errors(self, payload, checks, field, tmp_path, capsys):
        data = {"name": "x", "kind": "cone_potential", "payload": payload, "checks": checks}
        with pytest.raises(SchemaError) as err:
            spec_from_dict(data)
        assert err.value.field == field
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err

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

    # a list or an object ended in a TypeError traceback with exit 1
    @pytest.mark.parametrize("field, valid", [("scalar", "half_square"), ("spins", "so3")])
    @pytest.mark.parametrize("shape", ["list", "object", "number"])
    def test_non_string_field_id_exits_two(self, field, valid, shape, tmp_path, capsys):
        value = {"list": [valid], "object": {"a": 1}, "number": 3}[shape]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "explicit_metric",
                                    "payload": {"metric": "euclidean1", field: value},
                                    "checks": ["energy_drift"]}))
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

    # each escaped as a RecursionError or ValueError traceback with exit 1
    @pytest.mark.parametrize("text", [
        '{"kind": "algebra", "payload": {"x": %s}}' % ("[" * 50_000 + "]" * 50_000),
        '{"kind": "algebra", "seed": %s}' % ("1" * 5000),
    ], ids=["nested_50000_deep", "integer_of_5000_digits"])
    def test_text_the_parser_cannot_convert_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="invalid spec text"):
            load_manifold_spec(text)

    # run_battery raised TypeError, RecursionError or ValueError from spec.digest()
    @pytest.mark.parametrize("extra", ["array", "nested_5000_deep", "cycle"])
    def test_payload_that_cannot_be_serialised_is_a_schema_error(self, extra):
        payload = {"constants": "paracomplex2"}
        if extra == "array":
            payload["extra"] = np.arange(3.0)
        elif extra == "cycle":
            payload["extra"] = payload
        else:
            nested = []
            for _ in range(5000):
                nested = [nested]
            payload["extra"] = nested
        with pytest.raises(SchemaError) as err:
            spec_from_dict({"kind": "algebra", "payload": payload,
                            "checks": ["split_algebra_laws"]})
        assert err.value.field == "payload"

    def test_a_battery_serialises_its_spec_once(self, monkeypatch):
        spec = load_manifold_spec(BERNOULLI_TEXT)
        digest = spec.digest()
        monkeypatch.setattr(json, "dumps", lambda *args, **kw: pytest.fail("serialised"))
        assert run_battery(spec).spec_hash == digest

    # "bad\ud800" ran, and its human report raised UnicodeEncodeError
    @pytest.mark.parametrize("name", ["bad\ud800", "\udfff"])
    def test_name_must_encode_as_utf8(self, name):
        with pytest.raises(SchemaError) as err:
            load_manifold_spec(json.dumps({"kind": "algebra", "name": name}))
        assert err.value.field == "name"

    def test_non_ascii_name_is_kept(self):
        spec = load_manifold_spec(json.dumps({"kind": "algebra", "name": "∂ψ é \U0001d4ae",
                                              "payload": {"constants": "paracomplex2"}}))
        assert spec.name == "∂ψ é \U0001d4ae"

    # OverflowError, numpy's "maximum allowed dimension" ValueError and a
    # 6.94 EiB ArrayMemoryError, each a traceback with exit 1; every case is
    # rejected before anything is allocated
    @pytest.mark.parametrize("sites, field_dim, field", [
        (10**400, 1, "sites"), (16, 10**400, "field_dim"), (16, 10**6, "field_dim"),
        (10**400, 10**400, "sites"), (2**16 + 1, 1, "sites"), (4, 26, "field_dim"),
        (1024, 5, "field_dim"),
    ], ids=["sites_1e400", "field_dim_1e400", "field_dim_1e6", "both_1e400",
            "sites_over", "field_dim_over", "product_over"])
    def test_lattice_size_is_bounded(self, sites, field_dim, field):
        with pytest.raises(SchemaError) as err:
            spec_from_dict({"kind": "lattice", "checks": ["lattice_jacobi_refinement"],
                            "payload": {"sites": sites, "field_dim": field_dim,
                                        "coefficients": "linear_diagonal"}})
        assert err.value.field == f"payload.{field}"

    @pytest.mark.parametrize("sites, field_dim", [(2**16, 1), (1024, 4), (1024, 3)])
    def test_lattice_size_bound_admits_lattices_up_to_it(self, sites, field_dim):
        # built only: a battery this size is never run here
        assert sites * field_dim**3 <= LATTICE_SIZE_LIMIT
        spec = spec_from_dict({"kind": "lattice", "checks": ["lattice_jacobi_refinement"],
                               "payload": {"sites": sites, "field_dim": field_dim,
                                           "coefficients": "linear_diagonal"}})
        assert spec.payload["sites"] == sites


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

    def test_spec_tolerance_can_force_failure(self):
        data = {
            "kind": "exponential_family",
            "payload": {"statistics": [[0.0, 1.0]], "beta": [0.5]},
            "checks": ["cumulants_low_order"],
        }
        assert run_battery(spec_from_dict(data)).rows[0].status == "pass"
        data["tolerances"] = {"cumulants_low_order": 1e-18}
        assert run_battery(spec_from_dict(data)).rows[0].status == "fail"

    def test_spec_seed_is_the_report_seed_and_part_of_the_hash(self):
        data = json.loads(BERNOULLI_TEXT)
        data["seed"] = 99
        report = run_battery(spec_from_dict(data))
        assert report.seed == 99
        assert report.spec_hash != run_battery(load_manifold_spec(BERNOULLI_TEXT)).spec_hash

    def test_anchor_vocabulary(self):
        # every check cites a listed anchor, and every listed anchor is cited
        assert {definition.anchor for definition in CHECKS.values()} == set(ANCHORS)

    def test_readme_lists_the_registered_names_in_order(self):
        # a row added or deleted without the docs would leave this list stale
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"The registered\s+names:(.*?)\.\n", readme, re.DOTALL).group(1)
        assert re.findall(r"`(\w+)`", listed) == list(CHECKS)

    def test_default_tolerances_are_positive_finite_floats(self):
        # the runner holds rows to these as they are, so none may be 0, inf or NaN
        for definition in CHECKS.values():
            assert type(definition.default_tol) is float
            assert 0.0 < definition.default_tol < math.inf

    @pytest.mark.parametrize("seed, tolerances", [
        (0, {"gibbs_normalization": 2e-13, "metric_positive_definite": 1e300}),
        (2**40, {"gibbs_normalization": 5e-324, "metric_positive_definite": 3}),
    ], ids=["large", "subnormal_and_int"])
    def test_spec_seed_and_tolerances_reach_the_report_unchanged(self, seed, tolerances):
        data = json.loads(BERNOULLI_TEXT)
        data.update(seed=seed, tolerances=tolerances)
        report = run_battery(spec_from_dict(data))
        assert report.seed == seed
        assert [row.tolerance for row in report.rows] == list(tolerances.values())
        # a check the spec sets no tolerance for is held to its default
        del data["tolerances"]["metric_positive_definite"]
        row = run_battery(spec_from_dict(data)).rows[1]
        assert row.tolerance == CHECKS["metric_positive_definite"].default_tol

    @pytest.mark.parametrize("fmt", ["machine", "human"])
    def test_every_printable_seed_runs_and_prints(self, fmt):
        """The longest seed runs and its report prints it; a seed one digit
        longer is a SchemaError (test_seed_too_long_to_print_rejected)."""
        data = json.loads(BERNOULLI_TEXT)
        data["seed"] = LONGEST_SEED
        report = run_battery(spec_from_dict(data))
        assert report.seed == LONGEST_SEED
        assert str(LONGEST_SEED) in emit_report(report, fmt)

    def test_algebra_kind_checks(self):
        spec = spec_from_dict({
            "kind": "algebra",
            "payload": {"constants": "paracomplex2"},
            "checks": ["frobenius_axioms", "split_algebra_laws", "idempotent_closure"],
        })
        report = run_battery(spec)
        assert report.all_passed()

    # passed with 0.0: the unit was scored only when the least-squares unit was one
    def test_algebra_without_a_unit_fails_frobenius_axioms(self):
        spec = spec_from_dict({"kind": "algebra", "payload": {"constants": "zero2"},
                               "checks": ["frobenius_axioms"]})
        (row,) = run_battery(spec).rows
        assert (row.status, row.residual) == ("fail", 1.0)

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

    # each raised AttributeError: the check read a field of another kind's inputs
    @pytest.mark.parametrize("kind, payload, checks", [
        ("algebra", {"constants": "zero2"}, ("gibbs_normalization",)),
        ("lattice", {"sites": 8, "coefficients": "linear_diagonal"}, ("wdvv",)),
        ("exponential_family", {"statistics": [[0.0, 1.0]], "beta": [0.5]},
         ("bracket_suite", "gibbs_normalization")),
    ])
    def test_check_of_another_kind_gives_a_null_row(self, kind, payload, checks):
        rows = run_battery(ManifoldSpec(kind, payload, checks, {})).rows
        assert (rows[0].name, rows[0].status, rows[0].residual) == (checks[0], "fail", None)
        assert all(row.status == "pass" for row in rows[1:])

    # raised KeyError
    def test_unknown_check_of_a_built_spec_is_a_schema_error(self):
        spec = ManifoldSpec("algebra", {"constants": "zero2"}, ("frobenius_axioms", "nope"), {})
        with pytest.raises(SchemaError) as info:
            run_battery(spec)
        assert info.value.field == "checks"

    # each raised AttributeError or TypeError out of the runner
    @pytest.mark.parametrize("field, value", [
        ("tolerances", None), ("payload", 5), ("seed", 1.5),
        ("checks", [["gibbs_normalization"]]),
        ("payload", {"statistics": [[0.0, 1.0]], "beta": [0.5], "note": {1, 2}}),
    ], ids=["tolerances_none", "payload_int", "seed_float", "check_name_list",
            "payload_not_json"])
    def test_malformed_field_of_a_built_spec_is_the_schema_error_of_spec_from_dict(
            self, field, value):
        fields = {"kind": "exponential_family",
                  "payload": {"statistics": [[0.0, 1.0]], "beta": [0.5]},
                  "checks": ["gibbs_normalization"], "tolerances": {}, "seed": 0, "name": ""}
        with pytest.raises(SchemaError) as want:
            spec_from_dict({**fields, field: value})
        with pytest.raises(SchemaError) as got:
            run_battery(ManifoldSpec(**{**fields, field: value}))
        assert (got.value.field, str(got.value)) == (want.value.field, str(want.value))
        assert got.value.field == field

    def test_overflowing_moments_give_null_rows(self):
        # the order-2 and order-4 moments overflow; their residuals were 0.0
        spec = spec_from_dict({
            "kind": "exponential_family",
            "payload": {"statistics": [[1e160, -1e160, 0.5]], "beta": [0.0]},
            "checks": ["cumulants_order4", "metric_positive_definite"],
        })
        report = run_battery(spec)
        assert [(row.status, row.residual) for row in report.rows] == [("fail", None)] * 2

    def test_overflowing_exponent_gives_null_rows(self):
        # -beta.X overflows to -inf and +inf, so the Gibbs weights are NaN;
        # no floating-point warning escapes, although warnings are errors
        checks = [name for name, check in CHECKS.items() if "exponential_family" in check.kinds]
        spec = spec_from_dict({"kind": "exponential_family", "checks": checks,
                               "payload": {"statistics": [[1e308, -1e308]], "beta": [10.0]}})
        report = run_battery(spec)
        assert [(row.status, row.residual) for row in report.rows] == [("fail", None)] * 6

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

    def test_lattice_constant_skew_never_forms_the_dense_operator(self):
        """At r = 3 and 1024 sites the dense 3072 x 3072 operator alone
        takes 75 MB, and B + B^T as much again."""
        spec = spec_from_dict({
            "kind": "lattice",
            "payload": {"sites": 1024, "field_dim": 3, "coefficients": "linear_diagonal"},
            "checks": ["lattice_constant_skew"],
        })
        tracemalloc.start()
        try:
            report = run_battery(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rows[0].residual == 0.0
        assert peak < 16e6

    @pytest.mark.parametrize("field_dim", [1, 2])
    def test_lattice_constant_skew_exact_on_fine_grid(self, field_dim):
        spec = spec_from_dict({
            "kind": "lattice",
            "payload": {"sites": 1024, "field_dim": field_dim,
                        "coefficients": "linear_diagonal"},
            "checks": ["lattice_constant_skew"],
        })
        assert run_battery(spec).rows[0].residual == 0.0


class TestDecodedInputs:
    """spec_from_dict decodes the payload once, and every check reads what
    the decoder built."""

    # one battery of each kind that has a registry input, with every check of the kind
    @pytest.mark.parametrize("kind, payload", [
        ("cone_potential", {"potential": "orthant2", "pairing": "identity2",
                            "point": [1.0, 2.0]}),
        ("explicit_metric", {"metric": "euclidean2", "scalar": "half_square", "spins": "so3"}),
        ("algebra", {"constants": "paracomplex2"}),
        ("lattice", {"sites": 16, "field_dim": 2, "coefficients": "linear_diagonal"}),
    ], ids=["cone_potential", "explicit_metric", "algebra", "lattice"])
    def test_each_registry_factory_runs_once_per_spec(self, kind, payload, monkeypatch):
        """Two runs of one spec build nothing more and give one report;
        each check rebuilt its registry objects before."""
        calls = []
        for table in (registry.POTENTIALS, registry.CONSTANT_MATRICES, registry.METRICS,
                      registry.SCALARS, registry.SPIN_CONSTANTS, registry.ALGEBRAS,
                      registry.LATTICE_COEFFICIENTS):
            for key, factory in table.items():
                monkeypatch.setitem(table, key, lambda *args, key=key, factory=factory:
                                    calls.append(key) or factory(*args))
        checks = [name for name, check in CHECKS.items() if kind in check.kinds]
        spec = spec_from_dict({"kind": kind, "payload": payload, "checks": checks})
        first, second = (emit_report(run_battery(spec), "machine") for _ in range(2))
        assert sorted(calls) == sorted(v for v in payload.values() if isinstance(v, str))
        assert strip_runtime(first) == strip_runtime(second)
        assert len(first.splitlines()) == 1 + len(checks)


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
        ctx = CheckContext(None, np.random.default_rng(seed))
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
        ctx = CheckContext(None, DrawnCases(vals))
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


def reference_cone_points(ctx, count=3):
    """Cone probe points drawn one at a time, as a list."""
    if ctx.inputs.points is not None:
        return list(ctx.inputs.points)
    dim = ctx.inputs.potential.dim
    return [np.exp(ctx.rng.normal(0.0, 0.3, size=dim)) + 0.2 for _ in range(count)]


def reference_product(phi, x, a, b):
    return -np.einsum("ijk,j,k->i", christoffel(hessian_log_metric(phi), x), a, b)


def reference_cone_unit(ctx):
    """Per-point loop: metric and Christoffel symbols rebuilt for each product."""
    phi = ctx.inputs.potential
    worst = 0.0
    for x in reference_cone_points(ctx):
        a = ctx.rng.normal(0.0, 1.0, phi.dim)
        worst = max(worst, float(np.max(np.abs(reference_product(phi, x, x, a) - a))))
    return worst


def reference_cone_algebra(ctx):
    phi = ctx.inputs.potential
    worst = 0.0
    for x in reference_cone_points(ctx):
        a, b, c = (ctx.rng.normal(0.0, 1.0, phi.dim) for _ in range(3))
        ab = reference_product(phi, x, a, b)
        worst = max(worst, float(np.max(np.abs(ab - reference_product(phi, x, b, a)))))
        assoc = (reference_product(phi, x, ab, c)
                 - reference_product(phi, x, a, reference_product(phi, x, b, c)))
        worst = max(worst, float(np.max(np.abs(assoc))))
    return worst


def reference_cone_frobenius(ctx):
    phi = ctx.inputs.potential
    x0 = reference_cone_points(ctx, 1)[0]
    metric = hessian_log_metric(phi)
    alg = FrobeniusAlgebra(-christoffel(metric, x0), metric.value(x0), unit=x0)
    return frobenius_axioms(alg).worst_identity_residual()


def reference_tangent_symplectic(ctx):
    """One point at a time, each partial of omega from its own pair of
    matrices, and max(1, |g|) over all the points."""
    from test_symplectic import per_axis_exterior_derivative, tangent_form

    if ctx.spec.kind == "cone_potential":
        metric, points = hessian_log_metric(ctx.inputs.potential), reference_cone_points(ctx)
    else:
        metric = ctx.inputs.metric
        points = ctx.rng.normal(0.5, 0.4, (3, metric.dim))
    form = tangent_form(metric)
    worst, scale = 0.0, 1.0
    for x in points:
        d_omega = per_axis_exterior_derivative(form, np.concatenate([x, np.zeros_like(x)]))
        worst = max(worst, float(np.max(np.abs(d_omega))))
        scale = max(scale, float(np.max(np.abs(metric.value(x)))))
    return worst / scale


REFERENCE_CONE_ROWS = {"cone_unit": reference_cone_unit, "cone_algebra": reference_cone_algebra,
                       "frobenius_axioms": reference_cone_frobenius,
                       "tangent_symplectic": reference_tangent_symplectic}


@pytest.fixture
def lorentz3(monkeypatch):
    from test_geometry import lorentz_potential

    monkeypatch.setitem(registry.POTENTIALS, "lorentz3", lorentz_potential)
    return "lorentz3"


LORENTZ_POINTS = [[1.5, 0.2, -0.4], [2.0, 0.5, 0.7], [1.1, -0.3, 0.1]]


CONE_EDGE_CHECKS = ["hessian_metric_pd", "flatness", "cone_unit", "cone_algebra",
                    "frobenius_axioms", "automorphism_invariance", "tangent_symplectic"]


def cone_spec(potential, checks, points=None, seed=0):
    payload = {"potential": potential}
    if points is not None:
        payload["points"] = points
    return spec_from_dict({"kind": "cone_potential", "payload": payload,
                           "checks": checks, "seed": seed})


class TestConeRows:
    """The cone rows build one stacked Hessian structure per row."""

    @pytest.mark.parametrize("potential", ["orthant2", "orthant3"])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("check", sorted(REFERENCE_CONE_ROWS))
    def test_rows_match_the_per_point_loop(self, potential, seed, check):
        for points in (None, np.exp(np.random.default_rng(seed).normal(
                0.0, 0.3, size=(7, int(potential[-1])))).tolist()):
            spec = cone_spec(potential, [check], points, seed)
            ctx = CheckContext(spec, np.random.default_rng(np.random.SeedSequence([seed, 0])))
            assert run_battery(spec).rows[0].residual == REFERENCE_CONE_ROWS[check](ctx)

    @pytest.mark.parametrize("check", sorted(REFERENCE_CONE_ROWS))
    def test_lorentz_rows_match_the_per_point_loop(self, lorentz3, check):
        spec = cone_spec(lorentz3, [check], LORENTZ_POINTS)
        ctx = CheckContext(spec, np.random.default_rng(np.random.SeedSequence([0, 0])))
        assert run_battery(spec).rows[0].residual == REFERENCE_CONE_ROWS[check](ctx)

    @pytest.mark.parametrize("check, pinned", [
        ("cone_unit", {"orthant2": 4.440892098500626e-16, "orthant3": 2.220446049250313e-16}),
        ("cone_algebra", {"orthant2": 2.7755575615628914e-17,
                          "orthant3": 8.881784197001252e-16}),
        ("flatness", {"orthant2": 0.0, "orthant3": 0.0}),
        ("frobenius_axioms", {"orthant2": 0.0, "orthant3": 0.0}),
    ])
    def test_catalog_residuals_are_unchanged(self, check, pinned):
        for potential, residual in pinned.items():
            report = run_battery(builtin_catalog()[f"orthant_cone{potential[-1]}"].spec)
            assert {row.name: row.residual for row in report.rows}[check] == residual

    @pytest.mark.parametrize("check, calls", [
        ("flatness", 5), ("cone_unit", 5), ("cone_algebra", 5), ("frobenius_axioms", 1),
        ("hessian_metric_pd", 5)])
    def test_each_row_evaluates_the_metric_once_per_point(self, check, calls, monkeypatch):
        """P = 5 payload points; the Frobenius row probes the first one only.
        Each row makes one call, on the stack of the points it probes."""
        value = MetricField.value
        seen = []
        monkeypatch.setattr(MetricField, "value",
                            lambda self, x: seen.append(np.shape(x)) or value(self, x))
        points = np.exp(np.random.default_rng(3).normal(0.0, 0.3, size=(5, 3))).tolist()
        report = run_battery(cone_spec("orthant3", [check], points))
        assert report.rows[0].status == "pass"
        assert len(seen) == 1
        assert np.prod(seen[0][:-1], dtype=int) == calls

    def test_point_at_a_face_gives_null_rows_without_a_warning(self):
        """At x0 = 1e-200 the orthant's log-Hessian diag(1/x^2) overflows:
        every row that needs it is null, and no floating-point warning
        escapes the battery, even when warnings are errors."""
        spec = cone_spec("orthant2", ["hessian_metric_pd", "flatness", "cone_unit",
                                      "cone_algebra", "frobenius_axioms", "tangent_symplectic",
                                      "automorphism_invariance"], [[1e-200, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_battery(spec)
        *needs_metric, invariance = report.rows
        assert [row.residual for row in needs_metric] == [None] * 6
        assert invariance.status == "pass"

    # rows whose construction is undefined there; the others are defined:
    # at 1e-120 phi, g and R stay finite, but the first-order steps of
    # tangent_symplectic leave the orthant; at 1e-310 phi overflows
    EDGE_NULL_ROWS = {
        "tiny_pair": ([[1e-120, 1e-120]], ["flatness", "cone_unit", "cone_algebra",
                                           "frobenius_axioms", "tangent_symplectic"]),
        "huge_pair": ([[1e200, 1e200]], CONE_EDGE_CHECKS),
        "subnormal_coordinate": ([[1e-310, 1.0]], CONE_EDGE_CHECKS),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_NULL_ROWS))
    def test_closed_forms_at_the_edge_give_null_rows_without_a_warning(self, case, tmp_path):
        """-2/x^3 underflows its divisor to 0 at 1e-120, prod(x) overflows at
        1e200 and 1/x overflows at 1e-310: each undefined row is null and no
        floating-point warning escapes, even when warnings are errors."""
        points, null_rows = self.EDGE_NULL_ROWS[case]
        spec = cone_spec("orthant2", CONE_EDGE_CHECKS, points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_battery(spec)
        for row in report.rows:
            assert (row.residual is None) == (row.name in null_rows), row
            assert row.status == ("fail" if row.name in null_rows else "pass"), row
        path = tmp_path / "spec.json"
        path.write_text(spec.canonical_text())
        env = {**os.environ, "PYTHONPATH": str(Path(frobsym.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "frobsym.cli", "check", str(path), "--report", "machine"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == (1 if null_rows else 0)
        assert done.stderr == ""
        statuses = [json.loads(line) for line in done.stdout.splitlines()][1:]
        assert [row["residual"] is None for row in statuses] == \
            [row.residual is None for row in report.rows]

    @pytest.mark.parametrize("check", CONE_EDGE_CHECKS)
    @pytest.mark.parametrize("potential", ["wdvv_cubic3", "wdvv_cubic3_perturbed"])
    def test_huge_points_of_the_polynomial_potentials_give_null_rows(self, potential, check):
        """phi overflows at 1e103 and beyond: its closed forms give inf or
        NaN without a warning, and the potential guard makes the row null."""
        dim = registry.POTENTIALS[potential]().dim
        for magnitude in (1e103, 1e200, 1e300):
            row = run_battery(cone_spec(potential, [check], [[magnitude] * dim])).rows[0]
            assert (row.status, row.residual) == ("fail", None)

    @pytest.mark.parametrize("pairing", ["antidiag3", "identity3"])
    def test_overflowing_wdvv_products_give_a_null_row(self, pairing):
        """At 1e200 the perturbed cubic's T is finite but T g^-1 T overflows,
        where quad - quad^T would take inf - inf."""
        spec = spec_from_dict({"kind": "cone_potential", "checks": ["wdvv"],
                               "payload": {"potential": "wdvv_cubic3_perturbed",
                                           "pairing": pairing, "point": [1e200] * 3}})
        row = run_battery(spec).rows[0]
        assert (row.status, row.residual) == ("fail", None)

    def test_lorentz_cone_is_not_flat_and_its_algebra_not_associative(self, lorentz3):
        """Negative control: a homogeneous cone keeps its unit, but its
        log-Hessian metric is curved, so the tangent algebra is not associative."""
        report = run_battery(cone_spec(lorentz3, ["flatness", "cone_unit", "cone_algebra"],
                                       LORENTZ_POINTS))
        flatness, unit, algebra = report.rows
        assert flatness.status == "fail" and flatness.residual > 1e-2
        assert unit.status == "pass"
        assert algebra.status == "fail" and algebra.residual > 1e-2


def tangent_spec(kind, ident, seed=0):
    key = "potential" if kind == "cone_potential" else "metric"
    return spec_from_dict({"kind": kind, "payload": {key: ident},
                           "checks": ["tangent_symplectic"], "seed": seed})


class TestTangentSymplectic:
    """omega = g_ab dx^a ^ dy^b on TM is closed iff g is Hessian in x."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind, ident", [
        ("cone_potential", "orthant2"), ("cone_potential", "orthant3"),
        ("explicit_metric", "euclidean1"), ("explicit_metric", "euclidean2"),
        ("explicit_metric", "euclidean3")])
    def test_hessian_metrics_pass(self, kind, ident, seed):
        (row,) = run_battery(tangent_spec(kind, ident, seed)).rows
        assert (row.status, row.residual, row.tolerance) == ("pass", 0.0, 1e-5)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ident", ["wdvv_cubic3", "wdvv_cubic3_perturbed"])
    def test_log_hessians_of_the_cubics_pass(self, ident, seed):
        """The cubics' closed-form log-Hessians leave only the roundoff of
        one difference level in d omega."""
        (row,) = run_battery(tangent_spec("cone_potential", ident, seed)).rows
        assert row.status == "pass" and 0.0 <= row.residual <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ident", ["round_sphere2", "offdiag_linear2"])
    def test_metrics_that_are_not_hessian_fail(self, ident, seed):
        (row,) = run_battery(tangent_spec("explicit_metric", ident, seed)).rows
        assert row.status == "fail" and row.residual >= 0.5

    @pytest.mark.parametrize("ident", ["euclidean2", "round_sphere2", "offdiag_linear2"])
    def test_explicit_metric_rows_match_the_per_point_oracle(self, ident):
        spec = tangent_spec("explicit_metric", ident, 7)
        ctx = CheckContext(spec, np.random.default_rng(np.random.SeedSequence([7, 0])))
        assert run_battery(spec).rows[0].residual == reference_tangent_symplectic(ctx)

    @pytest.mark.parametrize("seed", range(3))
    def test_off_diagonal_entry_in_x0_is_a_negative_control(self, seed, monkeypatch):
        """g_01 = x^0 / 2 gives d_0 g_01 = 1/2 against d_1 g_00 = 0; the
        same metric with x^0 moved to the diagonal is Hessian and passes."""
        def metric(off_diagonal):
            def value(u):
                g = np.broadcast_to(np.eye(2), u.shape[:-1] + (2, 2)).copy()
                if off_diagonal:
                    g[..., 0, 1] = g[..., 1, 0] = 0.5 * u[..., 0]
                else:
                    g[..., 0, 0] = np.exp(u[..., 0])
                return g
            return MetricField(2, value)

        monkeypatch.setitem(registry.METRICS, "mixed_in_x0", lambda: metric(True))
        monkeypatch.setitem(registry.METRICS, "hessian_in_x0", lambda: metric(False))
        (row,) = run_battery(tangent_spec("explicit_metric", "mixed_in_x0", seed)).rows
        assert row.status == "fail" and row.residual > 0.1
        (row,) = run_battery(tangent_spec("explicit_metric", "hessian_in_x0", seed)).rows
        assert (row.status, row.residual) == ("pass", 0.0)

    def test_the_row_differences_g_and_not_its_derivative(self, monkeypatch):
        """A deriv that claims the round sphere is constant changes nothing."""
        sphere = registry.round_sphere_metric()
        monkeypatch.setitem(registry.METRICS, "sphere_flat_deriv", lambda: MetricField(
            2, sphere.func, deriv=lambda u: np.zeros(u.shape[:-1] + (2, 2, 2))))
        rows = [run_battery(tangent_spec("explicit_metric", ident)).rows[0]
                for ident in ("round_sphere2", "sphere_flat_deriv")]
        assert rows[0].residual == rows[1].residual > 0.5

    def test_degenerate_form_gives_a_null_row(self, monkeypatch):
        monkeypatch.setitem(registry.METRICS, "zero2", lambda: MetricField(
            2, lambda u: np.zeros(u.shape[:-1] + (2, 2))))
        (row,) = run_battery(tangent_spec("explicit_metric", "zero2")).rows
        assert (row.status, row.residual) == ("fail", None)


def reference_gibbs_normalization(ctx):
    fam, worst = ctx.inputs.family, 0.0
    for beta in [ctx.inputs.beta] + [ctx.rng.normal(0.0, 1.0, fam.n) for _ in range(8)]:
        worst = max(worst, abs(float(np.sum(frobsym.gibbs_density(fam, beta))) - 1.0))
    return worst


def reference_metric_positive_definite(ctx):
    fam, worst = ctx.inputs.family, 0.0
    for beta in [ctx.inputs.beta] + [ctx.rng.normal(0.0, 0.7, fam.n) for _ in range(4)]:
        eig = np.linalg.eigvalsh(checked_metric(fam, beta))
        worst = max(worst, max(0.0, -float(eig[0])))
    return worst


def reference_dual_coordinates(ctx):
    fam, beta = ctx.inputs.family, ctx.inputs.beta
    eta, psi = frobsym.dual_coordinates(fam, beta)
    legendre = abs(psi + frobsym.potential_eval(fam, beta) - float(beta @ eta))
    jac = numdiff.jacobian(lambda b: np.reshape(
        [frobsym.dual_coordinates(fam, row)[0] for row in b.reshape(-1, fam.n)], b.shape), beta)
    gap = float(np.max(np.abs(jac - frobsym.cumulant_tensor(fam, beta, 2))))
    back = frobsym.natural_from_dual(fam, eta, initial=beta + 0.3)
    return max(legendre, gap, float(np.max(np.abs(back - beta))))


REFERENCE_FAMILY_ROWS = {
    "gibbs_normalization": reference_gibbs_normalization,
    "metric_positive_definite": reference_metric_positive_definite,
    "dual_coordinates": reference_dual_coordinates,
}


class TestFamilyRows:
    """The family rows evaluate their parameter points as one stack and
    reproduce the per-point loop, which draws one point at a time."""

    @pytest.mark.parametrize("n, m", [(1, 2), (2, 7), (3, 12), (4, 30)])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("check", sorted(REFERENCE_FAMILY_ROWS))
    def test_rows_match_the_per_point_loop(self, n, m, seed, check):
        rng = np.random.default_rng(seed + 10 * n)
        spec = spec_from_dict({"kind": "exponential_family", "seed": seed, "checks": [check],
                               "payload": {"statistics": rng.normal(size=(n, m)).tolist(),
                                           "base_weights": rng.uniform(0.5, 2.0, m).tolist(),
                                           "beta": rng.normal(0.0, 0.7, n).tolist()}})
        ctx = CheckContext(spec, np.random.default_rng(np.random.SeedSequence([seed, 0])))
        assert run_battery(spec).rows[0].residual == REFERENCE_FAMILY_ROWS[check](ctx)


class TestDriftScaling:
    def test_steps_all_sizes_in_one_run(self, monkeypatch):
        # four step sizes over the same time: 6.5k + 13k + 32.5k + 65k steps
        # one at a time, but one force per step of the longest run stacked
        value, grad = registry.SCALARS["half_square"]()
        calls = []
        monkeypatch.setitem(registry.SCALARS, "half_square",
                            lambda: (value, lambda z: calls.append(1) or grad(z)))
        spec = spec_from_dict({"kind": "explicit_metric",
                               "payload": {"metric": "euclidean1", "scalar": "half_square"},
                               "checks": ["drift_scaling"]})
        assert run_battery(spec).rows[0].status == "pass"
        assert len(calls) == 65_001

    @pytest.mark.parametrize("scalar", [None, "zero"])
    @pytest.mark.parametrize("metric", ["euclidean1", "euclidean2", "euclidean3"])
    def test_free_particle_is_a_null_row_without_a_warning(self, metric, scalar):
        """p = 0 and U = 0 keep every state, so every drift is 0.0 and has no
        log: the slope is undefined, a null row, and no warning escapes."""
        payload = {"metric": metric, **({"scalar": scalar} if scalar else {})}
        spec = spec_from_dict({"kind": "explicit_metric", "payload": payload,
                               "checks": ["drift_scaling"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = run_battery(spec).rows
        assert (row.status, row.residual) == ("fail", None)

    def test_free_particle_exits_one_without_a_traceback(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "explicit_metric",
                                    "payload": {"metric": "euclidean2"},
                                    "checks": ["drift_scaling"]}))
        env = {**os.environ, "PYTHONPATH": str(Path(frobsym.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "frobsym.cli", "check", str(path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr


DRIFT_ROWS = ["energy_drift", "drift_scaling"]


def drift_spec(checks, metric="euclidean1", scalar="half_square"):
    payload = {"metric": metric, **({"scalar": scalar} if scalar else {})}
    return spec_from_dict({"kind": "explicit_metric", "payload": payload, "checks": checks})


def counting_forces(spec) -> list:
    """Wrap the decoded scalar's gradient, the leapfrog's force, to count
    its calls."""
    value, grad = spec.inputs.scalar
    calls = []
    spec.inputs.scalar = (value, lambda z: calls.append(1) or grad(z))
    return calls


def explicit_euler(H, y0, dts, counts):
    """The state arrays of explicit Euler, which is not symplectic, in the
    layout of ``symplectic._leapfrog``."""
    states = []
    for dt, steps in zip(dts, counts):
        z, p = y0.z, y0.p
        rows = [np.concatenate([z, p])]
        for _ in range(steps):
            z, p = z + dt * H.dT(p), p - dt * H.dV(z)
            rows.append(np.concatenate([z, p]))
        states.append(np.array(rows))
    return states


class TestSharedDriftIntegration:
    """energy_drift and drift_scaling take their runs from one stacked
    integration per battery, and each row reads what it reads alone."""

    @pytest.mark.parametrize("metric", ["euclidean1", "euclidean2", "euclidean3"])
    def test_rows_are_bit_identical_alone_together_and_reversed(self, metric):
        """Each battery also takes one force per step of its longest run:
        10,001 for energy_drift alone, 65,001 for drift_scaling, alone or
        with energy_drift, whose 10,000 steps at dt = 1e-3 extend its
        6,500."""
        alone, forces = {}, []
        for name in DRIFT_ROWS:
            spec = drift_spec([name], metric)
            calls = counting_forces(spec)
            (alone[name],) = run_battery(spec).rows
            forces.append(len(calls))
        for checks in (DRIFT_ROWS, DRIFT_ROWS[::-1]):
            spec = drift_spec(checks, metric)
            calls = counting_forces(spec)
            for row in run_battery(spec).rows:
                assert (row.status, row.residual) == (alone[row.name].status,
                                                      alone[row.name].residual)
                assert row.residual is not None
            forces.append(len(calls))
        assert forces == [10_001, 65_001, 65_001, 65_001]

    @pytest.mark.parametrize("checks", [["energy_drift"], DRIFT_ROWS, DRIFT_ROWS[::-1]])
    def test_free_particle_passes_energy_drift_and_nulls_drift_scaling(self, checks):
        # drift_scaling alone is TestDriftScaling's free-particle case
        rows = {row.name: row for row in run_battery(drift_spec(checks, "euclidean2",
                                                               None)).rows}
        assert (rows["energy_drift"].status, rows["energy_drift"].residual) == ("pass", 0.0)
        if "drift_scaling" in rows:
            assert (rows["drift_scaling"].status,
                    rows["drift_scaling"].residual) == ("fail", None)

    def test_catalog_battery_force_count(self):
        # 65,001 for the drift rows, 2 x 2 for evolution_consistency's
        # one-step runs and 1 for its bracket; apart, the rows took 75,007
        spec = builtin_catalog()["harmonic_oscillator"].spec
        calls = counting_forces(spec)
        assert all(row.status == "pass" for row in run_battery(spec).rows)
        assert len(calls) == 65_006

    def test_each_battery_integrates_afresh(self):
        spec = drift_spec(DRIFT_ROWS)
        calls = counting_forces(spec)
        first, second = run_battery(spec), run_battery(spec)
        assert len(calls) == 2 * 65_001
        assert [r.residual for r in first.rows] == [r.residual for r in second.rows]
        assert set(vars(spec.inputs)) == {"metric", "scalar", "spins", "separable"}

    @pytest.mark.parametrize("failing", ["shared", "every"])
    def test_a_raising_shared_call_leaves_each_row_to_its_own_pairs(self, failing,
                                                                     monkeypatch):
        alone = {name: run_battery(drift_spec([name])).rows[0] for name in DRIFT_ROWS}
        schedules = []

        def integrate_many(H, y0, dts, steps):
            schedules.append(list(steps))
            if failing == "every" or len(schedules) == 1:
                raise NonConvergence("refused")
            return frobsym.integrate_many(H, y0, dts, steps)

        monkeypatch.setattr("frobsym.battery.integrate_many", integrate_many)
        rows = run_battery(drift_spec(DRIFT_ROWS)).rows
        assert schedules == [[10_000, 13_000, 32_500, 65_000], [10_000],
                             [6_500, 13_000, 32_500, 65_000]]
        if failing == "shared":
            assert [(r.status, r.residual) for r in rows] == [
                (alone[r.name].status, alone[r.name].residual) for r in rows]
        else:
            assert [(r.status, r.residual) for r in rows] == [("fail", None)] * 2

    def test_a_lone_row_whose_run_raises_integrates_once(self, monkeypatch):
        schedules = []

        def integrate_many(H, y0, dts, steps):
            schedules.append(list(steps))
            raise NonConvergence("refused")

        monkeypatch.setattr("frobsym.battery.integrate_many", integrate_many)
        (row,) = run_battery(drift_spec(["drift_scaling"])).rows
        assert (row.status, row.residual) == ("fail", None)
        assert schedules == [[6_500, 13_000, 32_500, 65_000]]

    def test_explicit_euler_fails_both_rows(self, monkeypatch):
        """Negative control: a stepper that is not symplectic gains energy by
        a factor 1 + dt^2 per step, so the drift over t = 10 at dt = 1e-3 is
        (e^0.01 - 1) / 2, and it drifts as dt, not dt^2."""
        monkeypatch.setattr("frobsym.symplectic._leapfrog", explicit_euler)
        rows = {row.name: row
                for row in run_battery(builtin_catalog()["harmonic_oscillator"].spec).rows}
        assert rows["energy_drift"].status == rows["drift_scaling"].status == "fail"
        assert rows["energy_drift"].residual == pytest.approx(0.5 * math.expm1(0.01),
                                                              rel=1e-6)
        assert rows["drift_scaling"].residual == pytest.approx(1.0, abs=0.01)


def metric_hamiltonian(metric, scalar="half_square"):
    payload = {"metric": metric, **({"scalar": scalar} if scalar else {})}
    return _hamiltonian_observable(spec_from_dict({"kind": "explicit_metric",
                                                   "payload": payload}).inputs)


def one_point_energy(metric, y):
    """p^T g^-1 p / 2 + U at one point, with 1-D products: the oracle of the
    stacked energy."""
    ginv = metric.inverse(y.z)
    return 0.5 * float(y.p @ ginv @ y.p) + float(registry.SCALARS["half_square"]()[0](y.z))


def one_point_gradient(metric, y):
    """The analytic gradient at one point, with 1-D products."""
    v = metric.inverse(y.z) @ y.p
    dz = -0.5 * np.einsum("kij,i,j->k", metric.derivative(y.z), v, v)
    return np.concatenate([dz + registry.SCALARS["half_square"]()[1](y.z), v])


def reference_midpoint_step(H, z, p, dt, tol=1e-12, max_iter=50):
    """One implicit midpoint step with a validated PhasePoint per sweep."""
    n = z.size
    current = np.concatenate([z, p])
    guess = current
    for _ in range(max_iter):
        mid = 0.5 * (current + guess)
        grad = H.gradient(PhasePoint(mid[:n], mid[n:]))
        updated = current + dt * np.concatenate([grad[n:], -grad[:n]])
        if np.max(np.abs(updated - guess)) < tol:
            return updated[:n], updated[n:]
        guess = updated
    raise NonConvergence("implicit midpoint iteration stalled")


def unit_metric(n):
    return lambda: MetricField(n, lambda x: np.broadcast_to(np.eye(n), x.shape + (n,)))


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
            fd = numdiff.gradient(lambda vs: H.func(y.replace_flat(vs)), y.flat())
            # the central differences carry their O(h^2) truncation error
            assert np.max(np.abs(H.grad(y) - fd)) <= 1e-7

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["point", "5", "2x3"])
    @pytest.mark.parametrize("metric", ["round_sphere2", "offdiag_linear2"])
    def test_stacked_func_and_grad_equal_the_point_loop(self, metric, shape):
        H, g = metric_hamiltonian(metric), METRICS[metric]()
        rng = np.random.default_rng(len(shape))
        flat = np.concatenate([rng.normal(0.8, 0.3, shape + (2,)),
                               rng.normal(0.0, 0.5, shape + (2,))], axis=-1)
        y = PhasePoint([0.0, 0.0], [0.0, 0.0]).replace_flat(flat)
        rows = [PhasePoint(v[:2], v[2:]) for v in flat.reshape(-1, 4)]
        energy = np.array([one_point_energy(g, row) for row in rows]).reshape(shape)
        gradient = np.array([one_point_gradient(g, row) for row in rows]).reshape(flat.shape)
        assert np.array_equal(H.func(y), energy)
        assert np.array_equal(H.grad(y), gradient)

    @pytest.mark.parametrize("metric, scalar, y, energy", [
        (unit_metric(2), None, PhasePoint([0.0, 0.0], [3.0, 4.0]), 12.5),
        (lambda: MetricField(1, lambda x: (1.0 / x ** 2)[..., None]), None,
         PhasePoint([2.0], [1.0]), 2.0),
        (unit_metric(2), "half_square", PhasePoint([1.5, 1.5], [0.0, 0.0]), 2.25),
    ], ids=["unit_metric", "inverse_metric_weighting", "rest_point_reads_scalar"])
    def test_hand_values(self, metric, scalar, y, energy, monkeypatch):
        monkeypatch.setitem(METRICS, "hand", metric)
        H = metric_hamiltonian("hand", scalar)
        assert H(y) == pytest.approx(energy)
        assert np.array_equal(H.func(y.replace_flat(np.stack([y.flat()] * 3))),
                              np.full(3, H(y)))

    @pytest.mark.parametrize("dt", [5e-3, -5e-3])
    @pytest.mark.parametrize("metric", ["round_sphere2", "offdiag_linear2"])
    def test_midpoint_equals_the_validated_sweep_loop(self, metric, dt):
        H, g = metric_hamiltonian(metric), METRICS[metric]()
        y0 = PhasePoint([1.0, 0.5], [0.2, 0.1])
        traj = integrate(H, y0, dt, 300)
        z, p = [y0.z], [y0.p]
        for _ in range(300):
            step = reference_midpoint_step(H, z[-1], p[-1], dt)
            z.append(step[0])
            p.append(step[1])
        assert np.array_equal(traj.z, z)
        assert np.array_equal(traj.p, p)
        assert np.array_equal(traj.energies,
                              [one_point_energy(g, PhasePoint(a, b)) for a, b in zip(z, p)])


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

    @pytest.mark.parametrize("text, line, message", [
        ('{"record":"check"}', 1, "check record lacks name, status"),
        ("[1,2]", 1, "a record must be a JSON object"),
        ('\n\n{"record":"meta"}', 3,
         "meta record lacks entry, spec_hash, seed, versions"),
        ("not json", 1, "invalid JSON"),
        ('{"record":"meta","entry":"e","spec_hash":"h","seed":0,"versions":{}}\n{}', 2,
         "unknown record type None"),
        ("3", 1, "a record must be a JSON object"),
        ("null", 1, "a record must be a JSON object"),
        ('"meta"', 1, "a record must be a JSON object"),
        ('{"record":["check"]}', 1, r"unknown record type \['check'\]"),
        ('{"record":"check","name":"n","status":"pass","residual":0.0}', 1,
         "check record lacks tolerance, runtime_ms, paper_anchor"),
        ('{"record":"meta"', 1, "invalid JSON"),
    ], ids=["check_without_fields", "json_array", "meta_without_fields", "not_json",
            "no_record_type", "json_number", "json_null", "json_string",
            "unhashable_record_type", "check_lacking_some_fields", "truncated_json"])
    def test_malformed_report_is_a_parse_error_naming_the_line(self, text, line, message):
        with pytest.raises(ParseError, match=f"^line {line}: {message}") as err:
            parse_machine_report(text)
        assert err.value.line == line

    def test_report_without_meta_is_a_parse_error(self):
        text = emit_report(run_battery(load_manifold_spec(BERNOULLI_TEXT)), "machine")
        with pytest.raises(ParseError, match="missing its meta record"):
            parse_machine_report("\n".join(text.splitlines()[1:]))

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


def _lattice_text(**payload):
    return json.dumps({"kind": "lattice", "checks": ["lattice_constant_skew"],
                       "payload": {"sites": 16, "coefficients": "constant", **payload}})


UNREADABLE_SPECS = {
    "nested_50000_deep": _lattice_text(extra=[]).replace("[]", "[" * 50_000 + "]" * 50_000),
    "lone_surrogate_name": json.dumps({"kind": "algebra", "name": "bad\ud800",
                                       "payload": {"constants": "paracomplex2"},
                                       "checks": ["split_algebra_laws"]}),
    "sites_1e400": _lattice_text(sites=10**400),
    "field_dim_1e400": _lattice_text(field_dim=10**400),
    "field_dim_1e6": _lattice_text(field_dim=10**6),
    "integer_of_5000_digits": _lattice_text(sites=0).replace('"sites": 0', '"sites": ' + "1" * 5000),
}


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

    @pytest.mark.parametrize("spec", [
        {"kind": "exponential_family", "checks": ["gibbs_normalization"],
         "payload": {"statistics": [[1e308, -1e308]], "beta": [10]}},
        {"kind": "cone_potential", "checks": ["hessian_metric_pd"],
         "payload": {"potential": "wdvv_cubic3", "points": [[1e200, 1e200, 1e200]]}},
    ], ids=["exponent", "potential"])
    def test_overflow_is_a_null_row_with_warnings_as_errors(self, spec, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        env = {**os.environ, "PYTHONPATH": str(Path(frobsym.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "frobsym.cli", "check", str(path), "--report", "machine"],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (1, "")
        assert json.loads(done.stdout.splitlines()[1])["residual"] is None

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_spec_file_exits_two(self, case, tmp_path, capsys):
        path = tmp_path / "spec.json"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(BERNOULLI_TEXT.encode("utf-16"))
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")

    def test_out_path_that_cannot_be_opened_exits_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT)
        assert main(["check", str(path), "--out", str(tmp_path)]) == 2
        assert main(["catalog", "bernoulli", "--out", str(tmp_path / "no" / "report")]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("error: ") == 2

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

    # the seed and the tolerances are the spec's, so no flag changes them
    @pytest.mark.parametrize("flag", [["--fd-step", "1e-3"], ["--seed=3"], ["--tol-scale=2"]],
                             ids=["fd_step", "seed", "tol_scale"])
    @pytest.mark.parametrize("command", ["check", "catalog"])
    def test_run_knobs_are_not_options(self, command, flag, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(BERNOULLI_TEXT)
        target = str(path) if command == "check" else "bernoulli"
        env = {**os.environ, "PYTHONPATH": str(Path(frobsym.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "frobsym.cli", command, target, *flag],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in done.stderr
        assert "Traceback" not in done.stderr and done.stdout == ""

    @pytest.mark.parametrize("payload, checks", [
        ({"potential": "orthant2", "pairing": "identity3"}, ["flatness"]),
        ({"potential": "wdvv_cubic3", "pairing": "identity2"}, ["wdvv"]),
    ], ids=["explicit_3x3", "explicit_2x2"])
    def test_pairing_of_the_wrong_size_is_a_schema_error(self, payload, checks, tmp_path,
                                                          capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "x", "kind": "cone_potential",
                                    "payload": payload, "checks": checks}))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "pairing" in err and "Traceback" not in err
        with pytest.raises(SchemaError) as info:
            load_manifold_spec(path.read_text())
        assert info.value.field == "payload.pairing"

    # each was a SchemaError naming identity3, a pairing the spec never wrote
    @pytest.mark.parametrize("potential, point", [
        ("orthant2", [1.0, 2.0]), ("wdvv_cubic3", None)], ids=["orthant2", "wdvv_cubic3"])
    def test_wdvv_without_a_pairing_pairs_by_the_identity(self, potential, point):
        phi = registry.POTENTIALS[potential]()
        payload = {"potential": potential, **({"point": point} if point else {})}
        spec = spec_from_dict({"kind": "cone_potential", "payload": payload,
                               "checks": ["wdvv"]})
        (row,) = run_battery(spec).rows
        assert row.residual == wdvv_residual(phi, np.eye(phi.dim), point or [0.0] * phi.dim)

    def test_default_pairing_is_not_written_into_the_payload(self):
        spec = load_manifold_spec(json.dumps({
            "name": "x", "kind": "cone_potential", "payload": {"potential": "orthant2"},
            "checks": ["hessian_metric_pd", "flatness", "cone_unit", "cone_algebra",
                       "frobenius_axioms", "automorphism_invariance"]}))
        assert "pairing" not in spec.payload

    def test_catalog_unknown_entry(self, capsys):
        assert main(["catalog", "does_not_exist"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1

    # each exited 0, the flag ignored; the listing also ignored --out
    @pytest.mark.parametrize("argv", [
        ["trivial_wdvv3", "--dump-spec", "--report", "human"],
        ["trivial_wdvv3", "--dump-spec", "--report=machine"],
        ["--report", "machine"],
    ], ids=["dump_spec_human", "dump_spec_machine", "listing"])
    def test_report_flag_without_a_run_exits_two(self, argv, tmp_path, capsys):
        out_path = tmp_path / "out.txt"
        assert main(["catalog", *argv, "--out", str(out_path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and not out_path.exists()
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "--report" in out.err

    # the listing went to standard output and the file was never written
    def test_catalog_listing_written_to_file(self, tmp_path, capsys):
        path = tmp_path / "listing.txt"
        assert main(["catalog", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["catalog"]) == 0
        assert path.read_text() == capsys.readouterr().out

    def test_dump_spec_round_trips(self, capsys):
        assert main(["catalog", "trivial_wdvv3", "--dump-spec"]) == 0
        text = capsys.readouterr().out
        assert load_manifold_spec(text) == builtin_catalog()["trivial_wdvv3"].spec

    # each was ignored: "all" ran the self-test and no name printed the listing
    @pytest.mark.parametrize("name", [["all"], []], ids=["all", "no_name"])
    def test_dump_spec_needs_one_entry_name(self, name, capsys):
        assert main(["catalog", *name, "--dump-spec"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "--dump-spec" in out.err

    @pytest.mark.parametrize("name", sorted(builtin_catalog()))
    def test_dumped_spec_edited_and_checked_reruns_the_entry(self, name, tmp_path, capsys):
        """The way to run an entry at another seed or tolerance: dump its
        spec, edit the seed and tolerances, and check the file."""
        path = tmp_path / "spec.json"
        assert main(["catalog", name, "--dump-spec", "--out", str(path)]) == 0
        runs = {}
        for command in (["catalog", name], ["check", str(path)]):
            code = main([*command, "--report=machine"])
            runs[command[0]] = code, strip_runtime(capsys.readouterr().out)
        assert runs["check"] == runs["catalog"]

        data = json.loads(path.read_text())
        data["seed"] += 7
        data["tolerances"] = {check: 1e-300 for check in data["checks"][::2]}
        path.write_text(json.dumps(data))
        code = main(["check", str(path), "--report=machine"])
        report = run_battery(spec_from_dict(data))
        assert code == (0 if report.all_passed() else 1)
        assert strip_runtime(capsys.readouterr().out) == strip_runtime(
            emit_report(report, "machine"))
        assert report.seed == builtin_catalog()[name].spec.seed + 7

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

    # each ended in a traceback with exit 1, the name only in a human report
    @pytest.mark.parametrize("case", sorted(UNREADABLE_SPECS))
    @pytest.mark.parametrize("flags", [[], ["--report=machine"], ["--out", "report.txt"]],
                             ids=["human", "machine", "out"])
    def test_spec_that_cannot_be_read_or_printed_exits_two(self, case, flags, tmp_path,
                                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text(UNREADABLE_SPECS[case])
        assert main(["check", "spec.json", *flags]) == 2
        out = capsys.readouterr()
        assert out.out == "" and not Path("report.txt").exists()
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


# ---------------------------------------------------------------------------
# the error contract over drawn specs and command lines

# ordinary values, the ends of the float range and subnormals
NUMBERS = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3),
                    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
                    st.sampled_from([1e300, -1e300, 5e-324, -5e-324, 1e-310, 2.2e-308]))
JUNK = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3),
                 st.lists(NUMBERS, max_size=2))
TOP_LEVEL = ("kind", "payload", "checks", "tolerances", "seed", "name")
PAYLOAD_KEYS = {"statistics", "beta", "base_weights", "potential", "point", "points",
                "pairing", "metric", "scalar", "spins", "constants", "sites", "field_dim",
                "coefficients"}


@st.composite
def drawn_specs(draw, direct=False):
    """A spec of any kind with registry ids and unknown ones, mostly well formed.

    With ``direct``, a ``ManifoldSpec`` built without validation: its checks
    may belong to any kind, or be unknown, and a field may be corrupted."""
    kind = draw(st.sampled_from(KINDS))

    def ident(table):
        return draw(st.sampled_from(sorted(table) + ["nope"]))

    def vector(n):
        return [draw(NUMBERS) for _ in range(n)]

    def maybe(key, value_of):
        if draw(st.booleans()):
            payload[key] = value_of()

    if kind == "exponential_family":
        rows, outcomes = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        payload = {"statistics": [vector(outcomes) for _ in range(rows)], "beta": vector(rows)}
        maybe("base_weights", lambda: vector(outcomes))
    elif kind == "cone_potential":
        payload = {"potential": ident(registry.POTENTIALS)}
        dim = (registry.POTENTIALS[payload["potential"]]().dim
               if payload["potential"] in registry.POTENTIALS else 2)
        maybe("point", lambda: vector(dim))
        maybe("points", lambda: [vector(dim) for _ in range(draw(st.integers(1, 2)))])
        maybe("pairing", lambda: ident(registry.CONSTANT_MATRICES))
    elif kind == "explicit_metric":
        payload = {"metric": ident(registry.METRICS)}
        maybe("scalar", lambda: ident(registry.SCALARS))
        maybe("spins", lambda: ident(registry.SPIN_CONSTANTS))
    elif kind == "algebra":
        payload = {"constants": ident(registry.ALGEBRAS)}
    else:
        payload = {"sites": draw(st.integers(2, 40)),
                   "coefficients": ident(registry.LATTICE_COEFFICIENTS)}
        maybe("field_dim", lambda: draw(st.one_of(st.integers(-1, 2), NUMBERS)))

    # drift_scaling, and energy_drift on a curved metric, take seconds per row
    slow = {"drift_scaling"}
    if not payload.get("metric", "euclidean").startswith("euclidean"):
        slow.add("energy_drift")
    applicable = sorted(c for c, d in CHECKS.items()
                        if (direct or kind in d.kinds) and c not in slow) + ["nope"] * direct
    spec = {"kind": kind, "payload": payload,
            "checks": draw(st.lists(st.sampled_from(applicable), unique=True, max_size=4)),
            "tolerances": draw(st.dictionaries(st.sampled_from(sorted(CHECKS)), NUMBERS,
                                               max_size=1)),
            "seed": draw(st.one_of(st.integers(0, 2**40), st.just(LONGEST_SEED))),
            "name": "fuzz"}
    corrupt = draw(st.sampled_from((None,) * 14 + TOP_LEVEL + ("$",) * (not direct)))
    if corrupt == "$":
        return draw(JUNK)
    if corrupt is not None:
        spec[corrupt] = draw(JUNK)
    if direct:
        checks = spec["checks"]
        return ManifoldSpec(**{**spec, "checks": tuple(checks) if isinstance(checks, list)
                               else checks})
    return spec


def reject_constant(name):
    raise AssertionError(f"{name} in a machine report")


DEEP = "\0deep\0"


@st.composite
def cli_spec_texts(draw):
    """Spec file text from drawn_specs, where the name may hold a lone
    surrogate, an extra payload key may nest lists up to 50,000 deep, and a
    lattice may take sites or field_dim from huge ints, each too large to run."""
    spec = draw(drawn_specs())
    depth = 0
    if isinstance(spec, dict) and draw(st.booleans()):
        spec["name"] = draw(st.text(max_size=2)) + draw(st.sampled_from(["\ud800", "\udfff"]))
    if isinstance(spec, dict) and isinstance(spec["payload"], dict):
        depth = draw(st.sampled_from([0, 0, 0, 1, 50, 5000, 50_000]))
        if depth:
            spec["payload"]["deep"] = DEEP
        if spec["kind"] == "lattice" and draw(st.booleans()):
            huge = draw(st.sampled_from([("sites", 2**16 + 1), ("field_dim", 26)]))
            spec["payload"][huge[0]] = draw(st.integers(huge[1], 10**400))
    return json.dumps(spec).replace(json.dumps(DEEP), "[" * depth + "]" * depth)


# values of the removed --seed and --tol-scale flags as the shell passes them:
# absent three times in four, else numbers, words or junk
FLAG_VALUES = st.integers(0, 3).flatmap(lambda absent: st.none() if absent else st.one_of(
    st.sampled_from(["0", "1", "2", "7"]), st.integers(-2, 2**40).map(str),
    NUMBERS.map(repr), st.text(max_size=3),
    st.sampled_from(["inf", "-inf", "nan", "1e999", " 3 ", "0x10", "1_0"])))


def api_outcome(path, seed, tol_scale):
    """The exit code the API gives for a spec file and flag strings, and the
    report when a battery runs."""
    if seed is not None or tol_scale is not None:
        return 2, None  # argparse rejects a flag the CLI does not have
    try:
        report = run_battery(load_manifold_spec(path))
    except (ParseError, SchemaError):
        return 2, None
    return (0 if report.all_passed() else 1), report


def run_cli(argv):
    """(exit code, stdout, stderr) of an in-process run, on UTF-8 streams
    as strict as a terminal's; argparse's SystemExit counts as its code."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n",
                                 write_through=True) for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


class TestErrorContract:
    """Malformed input is a SchemaError or ParseError naming a field of the
    spec, and every battery that runs gives strict JSON pass/fail rows."""

    @given(st.one_of(drawn_specs(), drawn_specs(direct=True)))
    @settings(max_examples=200, deadline=None)
    def test_drawn_specs_keep_the_contract(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if isinstance(data, ManifoldSpec):
                # a built spec is checked by the runner alone: a malformed field
                # is spec_from_dict's SchemaError, a check of another kind a null row
                try:
                    report = run_battery(data)
                except SchemaError as err:
                    if data.kind in KINDS:  # else spec_from_dict names the kind first
                        with pytest.raises(SchemaError) as want:
                            spec_from_dict(dataclasses.asdict(data))
                        assert (err.field, str(err)) == (want.value.field, str(want.value))
                    return
                for row in report.rows:
                    if data.kind not in CHECKS[row.name].kinds:
                        assert (row.status, row.residual) == ("fail", None)
            else:
                try:
                    spec = spec_from_dict(data)
                except (SchemaError, ParseError) as err:
                    head, _, key = str(err.field).partition(".")
                    assert err.field == "$" or (head in TOP_LEVEL and (
                        not key or key in (PAYLOAD_KEYS if head == "payload"
                                           else data["tolerances"]))), err.field
                    return
                # spec_from_dict is the one validation site: a spec it returns runs
                report = run_battery(spec)
        for line in emit_report(report, "machine").splitlines():
            record = json.loads(line, parse_constant=reject_constant)
            if record["record"] == "check":
                assert record["status"] in ("pass", "fail")

    @given(cli_spec_texts(), FLAG_VALUES, FLAG_VALUES, st.sampled_from(["human", "machine"]),
           st.booleans())
    @example(UNREADABLE_SPECS["nested_50000_deep"], None, None, "machine", False)
    @example(UNREADABLE_SPECS["lone_surrogate_name"], None, None, "human", True)
    @example(BERNOULLI_TEXT, "3", None, "human", False)
    @example(BERNOULLI_TEXT, None, "2", "machine", True)
    @example(UNREADABLE_SPECS["sites_1e400"], None, None, "human", False)
    @example(UNREADABLE_SPECS["field_dim_1e400"], None, None, "machine", True)
    @example(UNREADABLE_SPECS["field_dim_1e6"], None, None, "machine", False)
    @settings(max_examples=80, deadline=None)
    def test_drawn_specs_and_flags_keep_the_contract_through_the_cli(self, text, seed,
                                                                      tol_scale, fmt, to_file):
        with tempfile.TemporaryDirectory() as tmp:
            path, out_path = Path(tmp, "spec.json"), Path(tmp, "report.txt")
            path.write_text(text, encoding="utf-8")
            expected, report = api_outcome(str(path), seed, tol_scale)
            argv = ["check", str(path), f"--report={fmt}"]
            argv += [f"--seed={seed}"] * (seed is not None)
            argv += [f"--tol-scale={tol_scale}"] * (tol_scale is not None)
            argv += [f"--out={out_path}"] * to_file
            code, out, err = run_cli(argv)
            assert code == expected, err
            assert "Traceback" not in err
            if code == 2:
                assert out == "" and not out_path.exists()
                assert sum("error:" in line for line in err.splitlines()) == 1, err
                return
            assert err == ""
            if to_file:
                assert out == ""
                out = out_path.read_text(encoding="utf-8")
        if fmt == "machine":
            records = [json.loads(line, parse_constant=reject_constant)
                       for line in out.splitlines()]
            assert [r["record"] for r in records] == ["meta"] + ["check"] * len(report.rows)
            assert strip_runtime(out) == strip_runtime(emit_report(report, "machine"))
