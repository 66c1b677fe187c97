"""List the catalog rows that move when numpy or OpenBLAS picks other kernels.

``tests/test_catalog_report.py`` compares the catalog report byte for byte,
and some of its residuals depend on which numpy and OpenBLAS kernels the
host selects.  This script reruns ``regen_catalog_report.catalog_report()``
in a child process, once in the unchanged environment and once under each
of the six settings below, changing only the child's environment.  For
each setting it prints the rows whose status or residual differ from the
unchanged run, with both values.  A setting that numpy refuses at start is
reported as such.  It is not a test; a change that moves a catalog row can
run it to see whether the row is host-bound:

    PYTHONPATH=src python tests/catalog_host_settings.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from regen_catalog_report import PINNED

TESTS = Path(__file__).resolve().parent

# numpy's AVX-512 dispatch off, then AVX2 as well; OpenBLAS on two other
# kernels; OpenBLAS on one and on two threads
SETTINGS = (
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL,AVX512_SPR,X86_V4"},
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL,AVX512_SPR,X86_V4,X86_V3"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Nehalem"},
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
)

REFUSED = 3  # the child's exit status when numpy does not import
CHILD = f"""
import sys
try:
    import numpy
except Exception as exc:
    print(" ".join(str(exc).split()), file=sys.stderr)
    sys.exit({REFUSED})
import regen_catalog_report
sys.stdout.write(regen_catalog_report.catalog_report())
"""


def report_under(setting: dict) -> tuple[str | None, str]:
    """The blanked catalog report of a child process run under ``setting``,
    or None and the reason it gave none."""
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                            os.environ.get("PYTHONPATH", "")])
    try:
        done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                              env={**os.environ, **setting, "PYTHONPATH": path}, timeout=600)
    except subprocess.TimeoutExpired:
        return None, "timed out after 600 s"
    if done.returncode == 0:
        return done.stdout, ""
    why = (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[-1]
    if done.returncode == REFUSED:
        return None, f"numpy refused it at start: {why}"
    return None, f"the catalog did not run: {why}"


def rows_of(report: str) -> dict:
    """(entry, check) -> (status, residual) of each check record."""
    rows, entry = {}, None
    for line in report.splitlines():
        record = json.loads(line)
        if record["record"] == "meta":
            entry = record["entry"]
        else:
            rows[entry, record["name"]] = (record["status"], record["residual"])
    return rows


def main() -> int:
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    print(f"numpy {np.__version__}, SIMD found: {', '.join(simd['found']) or '-'}")
    base, why = report_under({})
    if base is None:
        print(f"unchanged environment: {why}")
        return 1
    pinned = base == PINNED.read_text(encoding="utf-8")
    print(f"unchanged environment: {'matches' if pinned else 'differs from'} {PINNED.name}")
    reference = rows_of(base)
    for setting in SETTINGS:
        label = " ".join(f"{key}={value}" for key, value in setting.items())
        report, why = report_under(setting)
        if report is None:
            print(f"{label}: {why}")
            continue
        rows = rows_of(report)
        moved = [key for key in reference if rows.get(key) != reference[key]]
        print(f"{label}: {len(moved)} of {len(reference)} rows move")
        for key in moved:
            print(f"  {key[0]} {key[1]}: {reference[key]} -> {rows.get(key)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
