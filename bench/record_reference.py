"""Record the reference residuals the benchmark compares every run against.

    python3 bench/record_reference.py

Covers the catalog entries and every workload's warm-up specs, which are
generated from a fixed seed.  Re-record only in a change that is allowed
to move residuals; a change that claims a speed-up must leave them put.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from frobsym.battery import load_manifold_spec, run_battery  # noqa: E402

import verdicts  # noqa: E402
import workloads  # noqa: E402


def main():
    texts = workloads.catalog_specs()
    for workload in workloads.WORKLOADS:
        texts += workloads.warmup(workload)
    reference = {}
    for text in texts:
        report = run_battery(load_manifold_spec(text))
        reference[report.spec_hash] = {row.name: row.residual for row in report.rows}
    verdicts.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} specs, {sum(map(len, reference.values()))} rows "
          f"-> {verdicts.REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
