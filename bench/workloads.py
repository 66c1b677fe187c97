"""Seeded spec generators for the four benchmark workloads.

Each generator turns a workload seed into a list of spec texts, the only
input the library receives.  A workload is a fixed *plan*: the number of
batteries of each shape is the same for every seed, and the seed draws
the numbers inside them (tables, parameter points, probe points, spec
seeds) and the order in which they run.  That keeps the cost of one pass
comparable across seeds while the inputs change.

``warmup`` plans are small and always generated from ``REFERENCE_SEED``:
they run untimed before the timed passes, and their residuals are compared
against ``reference.json`` on every run.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("catalog", "family_sweep", "structure_sweep", "lattice_ladder")
REFERENCE_SEED = 0

FAMILY_CHECKS = ["gibbs_normalization", "cumulants_low_order", "cumulants_order4",
                 "metric_positive_definite", "dual_coordinates", "dual_connections"]
CONE_CHECKS = ["hessian_metric_pd", "flatness", "cone_unit", "cone_algebra",
               "frobenius_axioms", "automorphism_invariance"]
SPIN_CHECKS = ["bracket_suite", "flatness"]
LATTICE_CHECKS = ["lattice_constant_skew", "lattice_jacobi_refinement",
                  "novikov_identities", "local_bracket_antisymmetry"]

# family_sweep: (statistics n, batteries sharing one statistics table,
# outcomes m).  A group of size > 1 is a parameter scan: one table, new
# beta each time.  m is fixed per group, spread over 8-64, so that every
# seed asks for the same work.  The class sizes put the median battery
# mid-way through the n=2 class, where one battery's timing noise moves it
# least; with 14 batteries the tail is the slowest one, the n=4 family.
FAMILY_PLAN = [(2, 4, 32), (1, 3, 24), (1, 1, 8), (2, 1, 16), (2, 1, 40), (2, 1, 48),
               (2, 1, 64), (3, 1, 40), (4, 1, 56)]
FAMILY_WARMUP = [(1, 2, 12), (2, 1, 20), (3, 1, 28)]

# structure_sweep: (kind, input id, batteries, metric of the spin specs).
# The metric dimension sets the cost of a bracket battery and the number
# of probe points that of a cone battery, so both are fixed per class
# rather than drawn: battery i of a cone class is probed at
# CONE_POINTS[i % 4] points.
CONE_POINTS = (16, 21, 27, 32)
STRUCTURE_PLAN = [
    ("cone", "orthant2", 4, None), ("cone", "orthant3", 4, None),
    ("algebra", "paracomplex2", 4, None), ("algebra", "diagonal2", 4, None),
    ("algebra", "diagonal3", 4, None), ("algebra", "dual_numbers2", 4, None),
    ("spin", "so3", 4, "euclidean1"), ("spin", "so3", 4, "euclidean2"),
    ("spin", "so3", 4, "euclidean3"),
    ("spin", "cyclic_nonjacobi", 2, "euclidean2"),
    ("spin", "cyclic_nonjacobi", 2, "euclidean3"),
]
STRUCTURE_WARMUP = [(kind, ident, 1, metric) for kind, ident, _, metric in STRUCTURE_PLAN]

# lattice_ladder: (sites, batteries per coefficient set, coefficient sets).
# The refinement check also runs each rung at 4x the sites, so the fine
# grids reach 4096.  field_dim stays 1: registry.lookup builds r=1
# coefficients whatever the spec asks, so field_dim > 1 nulls every row (a
# known library defect).  The class sizes put the median battery and the
# tail (ten batteries beyond it) inside the 64-site class; the top rungs
# dominate the wall time and the peak memory.
BOTH = ("linear_diagonal", "constant")
LATTICE_PLAN = [(16, 4, BOTH), (64, 6, BOTH), (256, 2, ("linear_diagonal",)),
                (1024, 1, BOTH)]
LATTICE_WARMUP = [(16, 1, BOTH), (64, 1, BOTH), (256, 1, BOTH), (1024, 1, BOTH)]

# Nominal seconds per pass on a 2-core x86-64 virtual machine (Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31).  A run makes round(seconds / nominal)
# passes, so every run of a workload does the same work whatever the
# machine's speed.
PASS_SECONDS = {"catalog": 5.0, "family_sweep": 5.0, "structure_sweep": 4.8,
                "lattice_ladder": 3.8}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _text(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _spec_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def catalog_specs() -> list[str]:
    """The built-in entries as spec text, in catalog order."""
    from frobsym.battery import builtin_catalog

    return [entry.spec.canonical_text() for entry in builtin_catalog().values()]


def _family_specs(rng, plan) -> list[str]:
    out = []
    for group, (n, count, m) in enumerate(plan):
        stats = rng.normal(0.0, 1.0, size=(n, m))
        weights = rng.uniform(0.5, 2.0, size=m)
        base = rng.normal(0.0, 0.5, size=n)
        direction = rng.normal(0.0, 1.0, size=n)
        direction /= np.linalg.norm(direction)
        steps = np.linspace(-0.5, 0.5, count) if count > 1 else [0.0]
        for k, t in enumerate(steps):
            out.append(_text({
                "name": f"family{group}_n{n}_m{m}_{k}",
                "kind": "exponential_family",
                "payload": {"statistics": stats.tolist(),
                            "beta": (base + t * direction).tolist(),
                            "base_weights": weights.tolist()},
                "checks": FAMILY_CHECKS,
                "seed": _spec_seed(rng),
            }))
    return out


def _structure_spec(rng, kind: str, ident: str, index: int, metric) -> str:
    name = f"{ident}_{metric or kind}_{index}"
    if kind == "cone":
        dim = int(ident[-1])
        count = CONE_POINTS[index % len(CONE_POINTS)]
        points = np.exp(rng.normal(0.0, 0.3, size=(count, dim))) + 0.2
        return _text({"name": name, "kind": "cone_potential",
                      "payload": {"potential": ident, "points": points.tolist()},
                      "checks": CONE_CHECKS, "seed": _spec_seed(rng)})
    if kind == "algebra":
        checks = ["frobenius_axioms", "split_algebra_laws"]
        if ident != "diagonal3":  # the idempotent search is rank-2 only
            checks.append("idempotent_closure")
        return _text({"name": name, "kind": "algebra",
                      "payload": {"constants": ident},
                      "checks": checks, "seed": _spec_seed(rng)})
    return _text({"name": name, "kind": "explicit_metric",
                  "payload": {"metric": metric, "spins": ident},
                  "checks": SPIN_CHECKS, "seed": _spec_seed(rng)})


def _structure_specs(rng, plan) -> list[str]:
    return [_structure_spec(rng, kind, ident, i, metric)
            for kind, ident, count, metric in plan for i in range(count)]


def _lattice_specs(rng, plan) -> list[str]:
    return [_text({"name": f"lattice{sites}_{coeffs}_{i}", "kind": "lattice",
                   "payload": {"sites": sites, "coefficients": coeffs, "field_dim": 1},
                   "checks": LATTICE_CHECKS, "seed": _spec_seed(rng)})
            for sites, count, coefficient_sets in plan for coeffs in coefficient_sets
            for i in range(count)]


def generate(workload: str, seed: int) -> list[str]:
    """Spec texts of one timed pass, in run order.  The catalog runs in
    catalog order, as ``frobsym catalog all`` runs it, whatever the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    if workload == "catalog":
        return catalog_specs()
    if workload == "family_sweep":
        specs = _family_specs(rng, FAMILY_PLAN)
    elif workload == "structure_sweep":
        specs = _structure_specs(rng, STRUCTURE_PLAN)
    elif workload == "lattice_ladder":
        specs = _lattice_specs(rng, LATTICE_PLAN)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [specs[i] for i in rng.permutation(len(specs))]


def warmup(workload: str) -> list[str]:
    """Untimed specs run before timing; empty for catalog, whose users pay
    the cold start on every ``frobsym catalog all``."""
    rng = np.random.default_rng(np.random.SeedSequence([REFERENCE_SEED, 100]))
    if workload == "catalog":
        return []
    if workload == "family_sweep":
        return _family_specs(rng, FAMILY_WARMUP)
    if workload == "structure_sweep":
        return _structure_specs(rng, STRUCTURE_WARMUP)
    if workload == "lattice_ladder":
        return _lattice_specs(rng, LATTICE_WARMUP)
    raise ValueError(f"unknown workload {workload!r}")
