"""frobsym benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload of spec batteries through the calls ``frobsym check``
makes (``load_manifold_spec`` -> ``run_battery`` -> ``emit_report(...,
"machine")``), closed loop: one client, each battery starting when the
previous one has ended.  Every report is checked against the expected
verdicts, the recorded reference residuals and the pinned report format.

``--trace 0`` times passes over the batteries for S seconds and reports
the end-to-end metrics.  Times are normalised to a fixed host speed (see
``speed.py``); the raw readings are in the summary line.  ``--trace 1``
times untraced passes for S/2 seconds, then runs one pass with span and
counter wrappers installed and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import setup_probe
import speed
import tracer as tracing
import verdicts
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHECK_FIELDS = ("record", "name", "status", "residual", "tolerance",
                "runtime_ms", "paper_anchor")
META_FIELDS = ("record", "entry", "spec_hash", "seed", "versions")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- set-up --------------------------------------------------------------


def measure_setup(workload: str, seed: int, sampler) -> list[dict]:
    """Run the set-up in fresh interpreters; each result carries its wall
    time and the host speed factor sampled while it ran."""
    probes = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        end = time.perf_counter()
        probes.append({**json.loads(done.stdout.strip().splitlines()[-1]), "wall_s": end - start,
                       "factor": sampler.factor(start, end)})
    return probes


def _openblas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked through its C API."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(args, thread_env, texts, specs) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "FROBSYM_THREADS": "unset" if thread_env is None else f"removed (was {thread_env!r})",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batteries_per_pass": len(texts),
        "rows_per_pass": sum(len(s["checks"]) for s in specs),
        "load": "closed loop, 1 client, 1 process",
    }


# -- running and checking batteries ---------------------------------------


def timed_pass(battery, texts, sampler):
    """``run_pass`` plus the host speed factor sampled around each battery."""
    outputs, latencies, wall, starts = run_pass(battery, texts)
    factors = [sampler.factor(start, start + t) for start, t in zip(starts, latencies)]
    return outputs, latencies, wall, factors


def run_pass(battery, texts, tracer=None):
    """Run each spec once; returns (outputs, latencies in s, pass wall in s,
    start of each battery as a perf_counter() reading).

    An output is the machine report text, or the traceback of an exception
    that escaped the battery.  With a tracer, each battery is a root span.
    """
    outputs, latencies, starts = [], [], []
    pass_start = time.perf_counter()
    for index, text in enumerate(texts):
        start = time.perf_counter()
        starts.append(start)
        try:
            if tracer is None:
                out = _one_battery(battery, text)
            else:
                tracer.battery = index
                out = tracer.span("bench.battery", _one_battery)(battery, text)
        except Exception:  # the run goes on; the battery counts as failed
            out = "raised:\n" + traceback.format_exc()
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, latencies, time.perf_counter() - pass_start, starts


def _one_battery(battery, text):
    spec = battery.load_manifold_spec(text)
    report = battery.run_battery(spec)
    return battery.emit_report(report, "machine")


class Checker:
    """Checks report texts; collects failures and correctness problems."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.problems = []          # anything that makes the run incorrect
        self.defects = {}           # known-defect name -> rows seen
        self.reference_rows = 0
        self.moved_rows = 0
        self._normal = {}           # spec text -> report without runtime_ms

    def check(self, text: str, output: str) -> bool:
        """True when the battery counts as failed (raised or any row
        disagrees with the expected verdicts)."""
        spec = json.loads(text)
        if output.startswith("raised:"):
            self.problems.append(f"{spec['name']}: {output.splitlines()[-1]}")
            return True
        lines = output.splitlines()
        records = [json.loads(line, parse_constant=self._reject_constant) for line in lines]
        meta, rows = records[0], records[1:]
        if (tuple(meta) != META_FIELDS or any(tuple(r) != CHECK_FIELDS for r in rows)
                or [r["name"] for r in rows] != spec["checks"]):
            self.problems.append(f"{spec['name']}: report fields or rows out of order")
        normal = json.dumps([meta] + [{**r, "runtime_ms": None} for r in rows])
        if self._normal.setdefault(text, normal) != normal:
            self.problems.append(f"{spec['name']}: report differs from an earlier run")
        self._compare_reference(meta["spec_hash"], rows)
        failed = False
        for check, defect in verdicts.classify(spec, rows):
            failed = True
            if defect == "unexpected":
                self.problems.append(f"{spec['name']}: unexpected verdict on {check}")
            else:
                self.defects[defect] = self.defects.get(defect, 0) + 1
        return failed

    def _compare_reference(self, spec_hash: str, rows):
        recorded = self.reference.get(spec_hash)
        if recorded is None:
            return
        for row in rows:
            self.reference_rows += 1
            if verdicts.residual_moved(recorded[row["name"]], row["residual"],
                                            row["tolerance"]):
                self.moved_rows += 1
                self.problems.append(f"{spec_hash}: residual of {row['name']} moved "
                                     f"from {recorded[row['name']]} to {row['residual']}")

    @staticmethod
    def _reject_constant(name):
        raise ValueError(f"machine report is not strict JSON ({name})")


def tail(latencies):
    """Latency with ten batteries beyond it, as (value, percentile, n).

    Below 20 batteries that percentile would sit under the median, so the
    slowest battery is reported instead (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


# -- main ----------------------------------------------------------------


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "frobsym" / "__init__.py").is_file():
        print(f"error: no frobsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    thread_env = os.environ.pop("FROBSYM_THREADS", None)

    sys.path.insert(0, str(ROOT / "src"))
    checker = Checker(verdicts.load_reference())
    seconds = args.seconds / 2 if args.trace else args.seconds
    with speed.Sampler() as sampler:
        probes = measure_setup(args.workload, args.seed, sampler)
        import frobsym.battery as battery

        texts = workloads.generate(args.workload, args.seed)
        warm = workloads.warmup(args.workload)
        specs = [json.loads(t) for t in texts]
        print(json.dumps({"env": environment(args, thread_env, texts, specs)}))

        if any(p["digest"] != setup_probe.spec_digest(texts + warm) for p in probes):
            checker.problems.append("spec generation differs between interpreters")
        for text, out in zip(warm, run_pass(battery, warm)[0]):
            checker.check(text, out)

        passes = [timed_pass(battery, texts, sampler)
                  for _ in range(workloads.pass_count(args.workload, seconds))]
    all_passes = list(passes)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            all_passes.append(run_pass(battery, texts, tracer))
        finally:
            tracer.uninstall()

    attempted = failed = 0
    for outputs, *_ in all_passes:
        for text, out in zip(texts, outputs):
            attempted += 1
            failed += checker.check(text, out)

    summary = {
        "workload": args.workload,
        "passes": len(all_passes),
        "batteries_attempted": attempted,
        "failed_share": failed / attempted,
        "known_defect_rows": checker.defects,
        "reference_rows_compared": checker.reference_rows,
        "reference_rows_moved": checker.moved_rows,
        "problems": checker.problems[:20],
    }
    if args.trace:
        metrics = per_layer(args, tracer, passes, all_passes[-1], probes, summary)
    else:
        metrics = end_to_end(passes, probes, attempted, failed, summary)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    print(json.dumps(summary))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not checker.problems and checker.reference_rows > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _times(passes, probes, normalised: bool) -> tuple[dict, dict]:
    """The time metrics, raw or scaled by each battery's (probe's) speed
    factor, and where the tail falls.

    Each battery's latency is its median over the run's passes; wall time,
    median and tail are taken over those per-battery medians."""
    def scale(factor):
        return factor if normalised else 1.0

    runs = [[t * scale(f) for t, f in zip(lat, factors)] for _, lat, _, factors in passes]
    per_battery = [statistics.median(times) for times in zip(*runs)]
    tail_value, percentile, n = tail(per_battery)
    return {
        "setup_s": statistics.median(p["wall_s"] * scale(p["factor"]) for p in probes),
        "wall_s": sum(per_battery),
        "battery_p50_ms": 1e3 * statistics.median(per_battery),
        "battery_tail_ms": 1e3 * tail_value,
    }, {"percentile": percentile, "batteries": n,
        "beyond": sum(t > tail_value for t in per_battery)}


def end_to_end(passes, probes, attempted, failed, summary) -> dict:
    times, summary["battery_tail"] = _times(passes, probes, normalised=True)
    summary["raw"] = _times(passes, probes, normalised=False)[0]
    summary["speed_factor"] = {"passes": [statistics.median(p[3]) for p in passes],
                               "setup": [p["factor"] for p in probes]}
    return {
        **times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_ok_share": 1.0 - failed / attempted,
    }


def per_layer(args, tracer, passes, traced, probes, summary) -> dict:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}.jsonl"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "span": ["name", "start_ns", "end_ns", "parent", "battery", "tag"]})
    breakdown = tracing.layer_breakdown(tracer.spans)
    total = sum(breakdown.values())
    summary["trace_file"] = str(path.relative_to(ROOT))
    summary["spans"] = len(tracer.spans)
    summary["self_share"] = {layer: ms / total for layer, ms in
                             sorted(breakdown.items(), key=lambda kv: -kv[1])}
    values = tracing.per_layer_metrics(tracer)
    values["frobsym.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["trace.overhead_share"] = traced[2] / statistics.median(p[2] for p in passes) - 1.0
    return values


if __name__ == "__main__":
    sys.exit(main())
