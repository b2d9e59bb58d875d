"""One benchmark repeat in a fresh process: set up, then at most one pass.

    python3 perfbench/child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `setup` (set-up only), `run` (set-up, then one untraced pass) or
`trace` (set-up and one pass, both traced; spans go to SPANS_PATH).  Prints
one JSON object on stdout.
"""

import time

_T0 = time.perf_counter()   # set-up time starts before sympspin is imported

import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sympspin.cli  # noqa: E402

import workloads  # noqa: E402
from spans import LAYERS, Tracer, self_times  # noqa: E402

INSTANCE_FUNCTIONS = {
    "theorem9": "sympspin.verify:verify_theorem9",
    "theorem10": "sympspin.verify:verify_theorem10",
    "corollary11": "sympspin.verify:verify_corollary11",
}


def layer_metrics(tracer: Tracer, report_checks) -> dict[str, float]:
    totals = self_times(tracer.span_records())
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    clifford_calls = out["spinors.clifford.calls"]
    zeros = tracer.zero_results.get("spinors.clifford", 0)
    out["spinors.clifford.zero_out_ratio"] = zeros / clifford_calls if clifford_calls else 0.0
    n_instances = workloads.instances(report_checks)
    out["forms.op_Y.calls_per_instance"] = out["forms.op_Y.calls"] / n_instances
    for suite, spec in INSTANCE_FUNCTIONS.items():
        ms = [1000 * d for d in tracer.durations(spec)]
        out[f"verify.instance_ms.{suite}.p50"] = statistics.median(ms) if ms else 0.0
    return out


def main(argv) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    config = workloads.run_config(workload, seed)
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    try:
        workloads.warm_caches(config)
        result = {"setup_s": time.perf_counter() - _T0}
        if mode == "setup":
            print(json.dumps(result))
            return 0
        t_wall, t_cpu = time.perf_counter(), time.process_time()
        report = sympspin.cli.run_suite(config)
        result["run_s"] = time.perf_counter() - t_wall
        result["cpu_s"] = time.process_time() - t_cpu
    finally:
        if tracer:
            tracer.uninstall()
    checks = report.to_json()["checks"]
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        overall=report.overall,
        records=len(checks),
        not_pass=sum(c["status"] != "pass" for c in checks),
        instances=workloads.instances(checks),
        suite_ms=workloads.suite_ms(checks),
        report_sha256=workloads.report_hash(report.to_json()),
    )
    if tracer:
        result["layers"] = layer_metrics(tracer, checks)
        tracer.write(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
