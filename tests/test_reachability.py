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

import numpy as np

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
}


def public_surface(namespace: dict = vars(frobsym), source: str = SOURCE) -> dict:
    """name -> the code objects that must all be entered for it to count,
    over the exports in ``namespace`` whose code lies under ``source``."""
    surface = {}
    for name, obj in namespace.items():
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
                if inspect.isfunction(func) and func.__code__.co_filename.startswith(source):
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


class _Structure:
    """A stand-in export with every kind of member the surface sorts."""

    def __init__(self, matrix):
        self.matrix = matrix

    @classmethod
    def standard(cls, m):
        return cls(m)

    @property
    def dim(self):
        return len(self.matrix)

    def trace(self):
        return sum(self.matrix)

    def _scaled(self, c):
        return c

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__


def _helper():
    """A stand-in exported function."""


def test_surface_counts_constructors_under_the_class_name():
    surface = public_surface({"Structure": _Structure, "helper": _helper,
                              "_hidden": _helper, "np": np}, source=__file__)
    # a hand-written __init__ and a classmethod count under the class name
    assert surface["Structure"] == {_Structure.__init__.__code__,
                                    _Structure.standard.__func__.__code__}
    assert surface["Structure.dim"] == {_Structure.dim.fget.__code__}
    assert surface["Structure.trace"] == {_Structure.trace.__code__}
    # private names, dunders and modules do not count
    assert set(surface) == {"Structure", "Structure.dim", "Structure.trace", "helper"}
    # a class's members count only when their code lies under the source
    assert public_surface({"Structure": _Structure}) == {}


def test_surface_counts_hand_written_members_only():
    surface = public_surface()
    assert "SeparableHamiltonian" in surface
    # dataclass-generated __init__, dunders and exception classes do not count
    assert not {"MetricField", "ParaNumber.__add__", "SchemaError"} & set(surface)
    # np.errstate-wrapped functions count by their own code
    assert frobsym.potential_eval.__wrapped__.__code__ in surface["potential_eval"]
    assert "HessianStructure.riemann" in surface and "TwoForm.inverse" in surface
