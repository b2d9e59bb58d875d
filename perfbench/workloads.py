"""Workload definitions and the facts the benchmark reads off a report."""

from __future__ import annotations

import hashlib
import json

# Each workload is a RunConfig (minus the seed) for `sympspin.cli.run_suite`.
# Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "default-l2": {"l": 2, "trials": 20, "suites": ("all",)},
    "theorems-l3": {"l": 3, "trials": 4,
                    "suites": ("theorem9", "theorem10", "corollary11", "symbol-complex")},
    "fedosov-l2": {"l": 2, "trials": 20, "suites": ("fedosov",)},
}

# Suites whose trials sample from the curvature or Weyl constraint spaces; a
# workload running any of them builds both space bases during set-up.
CURVATURE_SUITES = frozenset({"lemma6", "lemma7", "theorem10", "corollary11"})


def run_config(workload: str, seed: int):
    from sympspin.cli import RunConfig

    return RunConfig(seed=seed, format="json", **WORKLOADS[workload])


def warm_caches(config) -> None:
    """Fill the per-l caches a run would otherwise fill on first use."""
    from sympspin.cli import expand_suites
    from sympspin.curvature import curvature_space_basis, weyl_space_basis
    from sympspin.symplectic import standard_symplectic_form

    standard_symplectic_form(config.l)
    if CURVATURE_SUITES.intersection(expand_suites(config.suites)):
        curvature_space_basis(config.l)
        weyl_space_basis(config.l)


def report_hash(report_json: dict) -> str:
    """sha256 of the JSON report with every elapsed_ms zeroed (ROADMAP recipe)."""
    obj = json.loads(json.dumps(report_json))
    for check in obj["checks"]:
        check["elapsed_ms"] = 0
    return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()


def suite_of(check_name: str) -> str:
    return check_name.split(".")[0]


def suite_ms(checks) -> dict[str, int]:
    """Each suite's elapsed_ms, read from its first record; 0 for suites not run.

    Every record of a suite carries the whole suite's time, so summing the
    records would count a suite once per record.
    """
    from sympspin.cli import SUITE_ORDER

    first: dict[str, int] = {}
    for check in checks:
        first.setdefault(suite_of(check["name"]), check["elapsed_ms"])
    return {suite: first.get(suite, 0) for suite in SUITE_ORDER}


def instances(checks) -> int:
    """Sampled instances decided: each suite's trials_run, counted once."""
    seen: dict[str, int] = {}
    for check in checks:
        seen.setdefault(suite_of(check["name"]), check["trials_run"])
    return sum(seen.values())
