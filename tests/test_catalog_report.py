"""The catalog's machine report is pinned: a moved residual, status or spec
hash fails here until ``tests/regen_catalog_report.py`` is rerun."""

from regen_catalog_report import PINNED, catalog_report


def test_catalog_report_matches_the_pinned_file():
    assert catalog_report() == PINNED.read_text(encoding="utf-8")
