"""Tests of the benchmark's own logic: span arithmetic, wrapper install and
removal, instance counting, and agreement of BENCHMARK.json with what the
benchmark emits."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sympspin  # noqa: E402
from sympspin.cli import SUITE_ORDER, RunConfig, run_suite  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer, self_times  # noqa: E402

SMALL_CONFIGS = (
    RunConfig(l=2, trials=1, suites=("lemma5", "theorem9", "symbol-complex"), format="json"),
    RunConfig(l=1, trials=1, suites=("fedosov",), format="json"),
)


def _sympspin_bindings() -> dict:
    """Every attribute of every sympspin module and of every class in them."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sympspin" or mod_name.startswith("sympspin.")):
            continue
        for name, value in list(vars(mod).items()):
            out[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__.startswith("sympspin"):
                for attr, member in vars(value).items():
                    out[(mod_name, f"{name}.{attr}")] = member
    return out


def _traced_run(config):
    with Tracer() as tracer:
        report = run_suite(config)
    return tracer, report


def test_self_times_subtract_direct_children_only():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("c", 3, 6.0, 7.5),
    ]
    out = self_times(spans)
    assert out["a"] == (1, pytest.approx(3.0))
    assert out["b"] == (2, pytest.approx(2.0 + 2.5))
    assert out["c"] == (2, pytest.approx(2.5))
    assert sum(s for _, s in out.values()) == pytest.approx(10.0)


def test_tracer_wraps_every_namespace_and_restores_all():
    before = _sympspin_bindings()
    with Tracer():
        # verify and the package re-export hold their own reference to project
        assert sympspin.verify.project is sympspin.forms.project
        assert sympspin.project is sympspin.forms.project
        assert getattr(sympspin.forms.project, "__perfbench_traced__", False)
        assert getattr(sympspin.cli.theorem9_suite, "__perfbench_traced__", False)
        assert getattr(sympspin.connections.Poly.__mul__, "__perfbench_traced__", False)
    after = _sympspin_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert not any(getattr(v, "__perfbench_traced__", False) for v in after.values())


def test_untraced_run_after_traced_run_records_nothing():
    tracer, _ = _traced_run(SMALL_CONFIGS[0])
    n_spans = len(tracer.spans)
    assert n_spans > 0
    run_suite(SMALL_CONFIGS[0])
    assert len(tracer.spans) == n_spans


@pytest.mark.parametrize("config", SMALL_CONFIGS, ids=["l2-spinor-suites", "l1-fedosov"])
def test_traced_counts_repeat_and_results_unchanged(config):
    untraced_hash = workloads.report_hash(run_suite(config).to_json())
    counts = []
    for _ in range(2):
        tracer, report = _traced_run(config)
        assert workloads.report_hash(report.to_json()) == untraced_hash
        counts.append({k: v for k, v in child.layer_metrics(tracer, report.to_json()["checks"]).items()
                       if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_every_layer_function_is_traced():
    tracer, _ = _traced_run(SMALL_CONFIGS[0])
    assert len(tracer.functions) == sum(len(v) for v in LAYERS.values())
    called = {tracer.layer_of[f] for f, *_ in tracer.spans}
    assert {"forms.project", "forms.op_X", "forms.op_Y", "spinors.clifford",
            "verify.action", "verify.display", "verify.instance"} <= called


@pytest.mark.parametrize("trials", [1, 3, 20])
def test_fedosov_counts_25_instances_at_any_trial_count(trials):
    report = run_suite(RunConfig(l=1, trials=trials, suites=("fedosov",)))
    checks = report.to_json()["checks"]
    assert len(checks) == 3
    assert workloads.instances(checks) == 25


def test_suite_ms_reads_one_record_per_suite():
    checks = [
        {"name": "lemma5.idempotency", "elapsed_ms": 2700, "trials_run": 20},
        {"name": "lemma5.orthogonality", "elapsed_ms": 2700, "trials_run": 20},
        {"name": "lemma5.partition-of-identity", "elapsed_ms": 2700, "trials_run": 20},
        {"name": "symbol-complex", "elapsed_ms": 900, "trials_run": 20},
        {"name": "symbol-complex.negative-control", "elapsed_ms": 900, "trials_run": 20},
    ]
    by_suite = workloads.suite_ms(checks)
    assert list(by_suite) == list(SUITE_ORDER)
    assert {k: v for k, v in by_suite.items() if v} == {"lemma5": 2700, "symbol-complex": 900}
    assert workloads.instances(checks) == 40


def test_report_hash_ignores_elapsed_ms_only():
    report = run_suite(SMALL_CONFIGS[1]).to_json()
    changed = json.loads(json.dumps(report))
    for check in changed["checks"]:
        check["elapsed_ms"] += 17
    assert workloads.report_hash(changed) == workloads.report_hash(report)
    changed["checks"][0]["status"] = "fail"
    assert workloads.report_hash(changed) != workloads.report_hash(report)


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert "setup_s" in names and all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS

    tracer, report = _traced_run(SMALL_CONFIGS[0])
    emitted = set(child.layer_metrics(tracer, report.to_json()["checks"]))
    emitted |= {f"cli.suite_ms.{s}" for s in SUITE_ORDER} | {"trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == emitted
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert set(layer_map) == emitted
    assert all(set(v["on"]) <= set(workloads.WORKLOADS) for v in layer_map.values())


def test_known_hashes_cover_default_and_held_out_seeds():
    known = json.loads((HERE / "hashes.json").read_text())
    assert known["sha256"]["default-l2"]["42"] == (
        "9768a4dd266916aba721d092f0311932eec1781ed871b6b2a476aa842106da84")
    for workload in workloads.WORKLOADS:
        assert {"42", str(known["held_out_seed"])} <= set(known["sha256"][workload])
