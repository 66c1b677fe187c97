"""Expected verdicts from the mathematics, known defects, and the residual
reference recorded at the commit that defined this benchmark.

The table says which rows *should* fail on each input, whatever the
library prints today.  A row that disagrees with it is either a documented
known defect (counted as a failed battery, but the output is still
well-formed) or an unexpected result (the run is marked incorrect).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Rows that must fail, per kind, payload id field and input id.  Every
# input the workloads generate is listed; a check not named for an input
# is expected to pass.  An unknown input is an error, so a new workload has
# to state its expectations here first.
EXPECTED_FAIL = {
    "exponential_family": {},  # no input ids; exact moment sums make every identity hold
    "cone_potential": {"potential": {
        "orthant2": (), "orthant3": (),        # flat Hessian cones, unital assoc. algebra
        "wdvv_cubic3": (),                      # associativity-exact cubic
        "wdvv_cubic3_perturbed": ("wdvv",),     # x2^2 x3^2 term obstructs associativity
    }},
    "algebra": {"constants": {
        "paracomplex2": (), "diagonal2": (), "diagonal3": (),
        # <a o b, c> = <a, b o c> fails: <e o e, 1> = 0 but <e, e o 1> = 1
        "dual_numbers2": ("frobenius_axioms",),
    }},
    "explicit_metric": {
        "metric": {"euclidean1": (), "euclidean2": (), "euclidean3": ()},  # flat
        "spins": {
            "so3": (), "spin_zero1": (),
            # gamma fails the structure Jacobi identity with defect (1, 1, 1)
            "cyclic_nonjacobi": ("bracket_suite",),
        },
    },
    "lattice": {"coefficients": {"linear_diagonal": (), "constant": ()}},
}


def expected_status(kind: str, payload: dict, check: str) -> str:
    """'fail' if any input id of the spec makes ``check`` fail, else 'pass'."""
    table = EXPECTED_FAIL[kind]
    failing = False
    for field, ids in table.items():
        if field in payload:
            failing = failing or check in ids[payload[field]]  # KeyError: unlisted input
    return "fail" if failing else "pass"


@dataclass(frozen=True)
class KnownDefect:
    """A documented disagreement between the library and the table."""

    name: str
    check: str
    observed: str
    max_residual: float | None = None  # a larger residual is not this defect
    input_id: str | None = None

    def matches(self, payload: dict, row: dict) -> bool:
        if row["name"] != self.check or row["status"] != self.observed:
            return False
        if self.input_id is not None and self.input_id not in payload.values():
            return False
        if self.max_residual is not None:
            return row["residual"] is not None and row["residual"] <= self.max_residual
        return True


KNOWN_DEFECTS = (
    # Absolute 1e-12 tolerance against roundoff near the null cone: the
    # inverse round-trip of a near-zero-divisor loses digits.
    KnownDefect("split_laws_roundoff", "split_algebra_laws", "fail", max_residual=1e-6),
    # The check's observable A does not depend on the spin block, so the
    # spin-Jacobi defect never enters the cyclic sum and the row passes.
    KnownDefect("bracket_suite_blind_to_spins", "bracket_suite", "pass",
                input_id="cyclic_nonjacobi"),
    # Nested central differences in the Jacobi term carry ~1e-6 noise
    # against a 1e-6 tolerance.
    KnownDefect("bracket_suite_fd_noise", "bracket_suite", "fail", max_residual=1e-5,
                input_id="so3"),
    # Finite-difference compatibility check of the dual pair: truncation
    # error reaches the 1e-6 tolerance for N(0, 1) statistics tables.
    KnownDefect("dual_connections_fd_truncation", "dual_connections", "fail",
                max_residual=1e-5),
    # At 16 sites the 16 -> 64 ratio is pre-asymptotic: for some random test
    # triples the coarse Jacobi defect nearly cancels and the ratio passes
    # the 0.25 bound.  A ratio above 1 would be a real loss of convergence.
    KnownDefect("jacobi_refinement_coarse_cancellation", "lattice_jacobi_refinement",
                "fail", max_residual=1.0, input_id="linear_diagonal"),
)


def classify(spec: dict, rows: list[dict]) -> list[tuple[str, str]]:
    """Disagreements of one report with the table: (check, defect name or
    'unexpected') for every row whose status differs from the expectation."""
    out = []
    for row in rows:
        if row["status"] == expected_status(spec["kind"], spec["payload"], row["name"]):
            continue
        defect = next((d.name for d in KNOWN_DEFECTS if d.matches(spec["payload"], row)),
                      "unexpected")
        out.append((row["name"], defect))
    return out


def load_reference() -> dict:
    """spec_hash -> {check: residual} recorded at the defining commit."""
    return json.loads(REFERENCE_PATH.read_text())


def residual_moved(reference: float | None, residual: float | None,
                   tolerance: float) -> bool:
    """True when a residual moved by more than roundoff: a thousandth of the
    row's tolerance plus 1e-9 of its size.  A null that appears or goes away
    always counts."""
    if reference is None or residual is None:
        return (reference is None) != (residual is None)
    if not (math.isfinite(reference) and math.isfinite(residual)):
        return reference != residual
    return abs(residual - reference) > 1e-3 * tolerance + 1e-9 * abs(reference)
