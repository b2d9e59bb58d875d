"""Every benchmark workload's report reproduces its pinned hash.

The workloads and the pinned sha256 of each report (every elapsed_ms zeroed)
are read from `perfbench/workloads.py` and `perfbench/hashes.json`; each is
checked at seed 42 and at the held-out seed.  Three work guards count the
Clifford products, the spinor sums and the projector chains the theorems-l3
workload makes.
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
# every slot that uses it, and corollary11 runs one projector chain per
# instance; forming the products per slot again made 13,617, and three chains
# per corollary11 instance 4,152.
THEOREMS_L3_KERNEL_CALLS = 3624


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
# sums only to compare them made 814, and the chains of act(sigma_tilde) and
# act(W) in corollary11 141.
THEOREMS_L3_SPINOR_SUMS = 129


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


# Projector chains (first fills of a form's parts by `forms._two_form_parts`)
# of theorems-l3 at seed 42 once corollary11 decides its main check on its
# three actions and builds the chain of act(R) alone; a chain for each of the
# three actions made 25.
THEOREMS_L3_CHAINS = 17


def test_theorems_l3_runs_one_chain_per_corollary11_instance(monkeypatch):
    two_form_parts = forms._two_form_parts
    chains = [0]

    def counted(phi):
        chains[0] += phi._parts is None
        return two_form_parts(phi)

    for module in (forms, verify):
        monkeypatch.setattr(module, "_two_form_parts", counted)
    report = run_suite(workloads.run_config("theorems-l3", 42))
    assert workloads.report_hash(report.to_json()) == PINNED["sha256"]["theorems-l3"]["42"]
    assert chains[0] == THEOREMS_L3_CHAINS
