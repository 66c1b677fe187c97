"""Regenerate ``tests/catalog_report.jsonl``, the pinned catalog report.

The file is ``frobsym catalog all --report machine`` with every
``runtime_ms`` and the numpy version blanked to ``null``, so it changes
only when a catalog residual, status or spec hash does.
``tests/test_catalog_report.py`` regenerates the text and compares it to
the file.  A change that moves a catalog row reruns this script and
lists the moved rows in CHANGES.md:

    PYTHONPATH=src python tests/regen_catalog_report.py

The bytes hold on the host the file was recorded on: Python 3.11.7 and
numpy 2.4.6 dispatching to AVX-512 (X86_V3, X86_V4, AVX512_ICL and
AVX512_SPR found), with OpenBLAS 0.3.31 on its SkylakeX kernel.  Without
AVX-512 dispatch three cumulant rows move, and on another OpenBLAS kernel
``drift_scaling`` moves in its 10th digit; ``catalog_host_settings.py``
lists the rows that move under each such setting.
"""

import contextlib
import io
import re
from pathlib import Path

from frobsym.cli import main

PINNED = Path(__file__).with_name("catalog_report.jsonl")


def catalog_report() -> str:
    """The blanked machine report of ``frobsym catalog all``; raises if the
    catalog does not match its documented outcomes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["catalog", "all", "--report", "machine"])
    if status != 0:
        raise RuntimeError(f"frobsym catalog all exited with {status}")
    text = re.sub(r'"runtime_ms":[^,}]*', '"runtime_ms":null', out.getvalue())
    return re.sub(r'"numpy":"[^"]*"', '"numpy":null', text)


if __name__ == "__main__":
    PINNED.write_text(catalog_report(), encoding="utf-8", newline="\n")
