"""Every benchmark workload's report reproduces its pinned hash.

The workloads and the pinned sha256 of each report (every elapsed_ms zeroed)
are read from `perfbench/workloads.py` and `perfbench/hashes.json`; each is
checked at seed 42 and at the held-out seed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

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
