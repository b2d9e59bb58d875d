"""Every benchmark workload's report reproduces its pinned hash.

The workloads and the pinned sha256 of each report (every elapsed_ms zeroed)
are read from `perfbench/workloads.py` and `perfbench/hashes.json`; each is
checked at seed 42 and at the held-out seed.  Two work guards count the
Clifford products and the spinor sums the theorems-l3 workload makes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import sympspin.forms as forms
import sympspin.spinors as spinors
import sympspin.verify as verify
from sympspin.cli import run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
PINNED = json.loads((PERFBENCH / "hashes.json").read_text())


@pytest.mark.parametrize("seed", [42, PINNED["held_out_seed"]])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_report_reproduces_pinned_hash(workload, seed):
    report = run_suite(workloads.run_config(workload, seed))
    assert report.overall == "pass"
    assert workloads.report_hash(report.to_json()) == PINNED["sha256"][workload][str(seed)]


# Kernel calls of theorems-l3 at seed 42 once each second product
# e_a.(e_b.phi) and each eq. 11 product e_k.E_ij is formed once and added into
# every slot that uses it; forming them per slot again made 13,617.
THEOREMS_L3_KERNEL_CALLS = 4152


def test_theorems_l3_forms_each_product_once(monkeypatch):
    kernel = spinors._clifford_into
    calls = [0]

    def counted(*args):
        calls[0] += 1
        kernel(*args)

    for module in (spinors, forms, verify):
        monkeypatch.setattr(module, "_clifford_into", counted)
    report = run_suite(workloads.run_config("theorems-l3", 42))
    assert workloads.report_hash(report.to_json()) == PINNED["sha256"]["theorems-l3"]["42"]
    assert 0 < calls[0] <= THEOREMS_L3_KERNEL_CALLS


# Spinor sums (`spinors._sum`, the one spinor-sum routine) of theorems-l3 at
# seed 42 once the two-form verdicts are decided by the zero test
# `forms._vanishes`, which builds no sum; building p22 and the corrected
# sums only to compare them made 814.
THEOREMS_L3_SPINOR_SUMS = 141


def test_theorems_l3_builds_no_sum_only_to_compare_it(monkeypatch):
    add = spinors._sum
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return add(*args)

    monkeypatch.setattr(spinors, "_sum", counted)
    report = run_suite(workloads.run_config("theorems-l3", 42))
    assert workloads.report_hash(report.to_json()) == PINNED["sha256"]["theorems-l3"]["42"]
    assert calls[0] == THEOREMS_L3_SPINOR_SUMS
