"""Every public construction is entered by a battery row, or is allowlisted
with the ROADMAP direction and the row that will reach it.

The harness runs ``frobsym catalog all`` and one battery for each check
that the catalog runs on no input of some kind, on registry inputs, and
records every code object entered under ``sys.setprofile``.  The public
surface is every function that ``frobsym`` exports and the hand-written
public methods and properties of its exported classes.  A class's
hand-written ``__init__`` and its classmethods (its constructors) count
under the class name, and are reached when all of them are entered.
Exception classes, other dunders and the methods a dataclass generates are
left out.  The slow rows, ``drift_scaling`` and ``energy_drift`` on a
curved metric, run only as the catalog runs them.
"""

import inspect
import sys
from pathlib import Path

import frobsym
from frobsym.battery import CHECKS, builtin_catalog, run_battery, spec_from_dict
from frobsym.cli import main

SOURCE = str(Path(frobsym.__file__).parent)

# (check, kind, payload): one battery for each check, or check/kind pair,
# that the catalog does not run; bracket_suite runs on so3, the one spin
# block an exported function builds
UNCATALOGUED = [
    ("split_algebra_laws", "algebra", {"constants": "paracomplex2"}),
    ("idempotent_closure", "algebra", {"constants": "paracomplex2"}),
    ("frobenius_axioms", "algebra", {"constants": "paracomplex2"}),
    ("flatness", "explicit_metric", {"metric": "round_sphere2"}),
    ("bracket_suite", "explicit_metric", {"metric": "euclidean2", "spins": "so3"}),
    ("tangent_symplectic", "cone_potential", {"potential": "orthant2"}),
    ("tangent_symplectic", "explicit_metric", {"metric": "round_sphere2"}),
]

# name -> the direction and the row that will reach it; the list only shrinks
ALLOWLIST = {
    "algebra_from_potential": "direction 2: frobenius_axioms on an exponential_family "
                              "builds the Fisher tangent algebra c = g^-1 kappa_3 with it",
    "idempotent_recompose": "direction 2: the rank-2 Peirce certificate of "
                            "idempotent_closure recomposes e+ + e- = 1",
    "para_hermitian_product": "direction 5: tangent_symplectic checks the pairing "
                              "identity on its stack of split vectors",
    "paracomplex_bracket": "direction 5: tangent_symplectic checks "
                           "omega(X, Y) = -2 paracomplex_bracket(xi, eta)",
    "ParaStructure": "direction 5: tangent_symplectic checks omega(KX, KY) = -omega(X, Y) "
                     "with K = ParaStructure.standard(m)",
    "TwoForm.pair": "direction 5: tangent_symplectic checks the pairing identity "
                    "omega(X, Y) = X^T omega Y",
}


def public_surface() -> dict:
    """name -> the code objects that must all be entered for it to count."""
    surface = {}
    for name, obj in vars(frobsym).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isfunction(obj):
            surface[name] = {inspect.unwrap(obj).__code__}
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                if attr == "__init__" or isinstance(member, classmethod):
                    key = name
                elif attr.startswith("_"):
                    continue
                else:
                    key = f"{name}.{attr}"
                func = member.fget if isinstance(member, property) else inspect.unwrap(
                    getattr(member, "__func__", member))
                if inspect.isfunction(func) and func.__code__.co_filename.startswith(SOURCE):
                    surface.setdefault(key, set()).add(func.__code__)
    return surface


def entered_code(tmp_path) -> set:
    """Code objects entered by ``catalog all`` and the UNCATALOGUED batteries,
    whose specs are built inside the profile because decoding builds inputs."""
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        assert main(["catalog", "all", "--report", "machine",
                     "--out", str(tmp_path / "catalog.jsonl")]) == 0
        specs = [spec_from_dict({"name": f"reach-{check}", "kind": kind, "payload": payload,
                                 "checks": [check]})
                 for check, kind, payload in UNCATALOGUED]
        reports = [run_battery(spec) for spec in specs]
    finally:
        sys.setprofile(previous)
    assert all(len(report.rows) == 1 for report in reports)
    return entered


def test_harness_covers_every_check_and_kind():
    ran = {(name, entry.spec.kind) for entry in builtin_catalog().values()
           for name in entry.spec.checks}
    ran |= {(check, kind) for check, kind, _ in UNCATALOGUED}
    assert {(check, kind) for check, d in CHECKS.items() for kind in d.kinds} == ran


def test_every_export_is_reached_or_allowlisted(tmp_path):
    surface = public_surface()
    entered = entered_code(tmp_path)
    unreached = {name for name, codes in surface.items() if not codes <= entered}
    assert sorted(unreached - set(ALLOWLIST)) == [], "exported but reached by no row"
    assert sorted(set(ALLOWLIST) - unreached) == [], "allowlisted but reached or gone"
    for name, reason in ALLOWLIST.items():
        assert reason.startswith("direction "), name


def test_surface_counts_hand_written_members_only():
    surface = public_surface()
    # a hand-written __init__ and a classmethod count under the class name
    assert len(surface["ParaStructure"]) == 2
    assert "SeparableHamiltonian" in surface
    # dataclass-generated __init__, dunders and exception classes do not count
    assert not {"MetricField", "ParaNumber.__add__", "SchemaError"} & set(surface)
    # np.errstate-wrapped functions count by their own code
    assert frobsym.potential_eval.__wrapped__.__code__ in surface["potential_eval"]
    assert "HessianStructure.riemann" in surface and "TwoForm.pair" in surface
