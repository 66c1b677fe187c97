"""One fresh-interpreter set-up: import frobsym, then generate and validate
a workload's specs.  Prints one JSON line with the import time, the spec
count and a digest of the spec texts.

    python3 bench/setup_probe.py <workload> <seed>
"""

import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main(workload: str, seed: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import frobsym.battery

    import_s = time.perf_counter() - _START
    import workloads

    texts = workloads.generate(workload, seed) + workloads.warmup(workload)
    for text in texts:
        frobsym.battery.load_manifold_spec(text)
    print(json.dumps({"import_s": import_s, "specs": len(texts),
                      "digest": spec_digest(texts)}))


def spec_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
