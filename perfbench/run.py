"""sympspin benchmark: closed loop, one client, one fresh process per repeat.

    python3 perfbench/run.py --workload default-l2 --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 42

Each repeat is a child process (perfbench/child.py) that sets up, then runs
one pass of the workload through `sympspin.cli.run_suite`; the next repeat
starts when the previous one has exited.  Passes repeat until --seconds of
wall time have gone by (at least one pass).  Several set-up-only children
give set-up time its own median.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same untraced
passes, then one traced pass, and prints the per-layer metrics.  Every pass
must report overall "pass" and, where perfbench/hashes.json knows the
(workload, seed), that report hash; all passes of one run must agree on the
hash.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  Each run is also appended to .bench_out/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 42
SETUP_CHILDREN = 5          # set-up-only repeats per run, besides each pass's own
RUN_BUDGET_S = 175.0        # one workload's run ends within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def load_expected() -> dict:
    with open(HERE / "hashes.json") as fh:
        return json.load(fh)


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def loadavg() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def run_child(workload: str, seed: int, mode: str, deadline: float, spans_path=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def pass_ok(result: dict, expected_hash: str | None, first_hash: str) -> bool:
    return (result["overall"] == "pass" and result["not_pass"] == 0
            and result["report_sha256"] == (expected_hash or first_hash))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    expected_hash = load_expected()["sha256"].get(workload, {}).get(str(seed))
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_before": loadavg()}

    setups = [run_child(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_CHILDREN)]
    passes: list[dict] = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        passes.append(run_child(workload, seed, "run", deadline))
    traced, shares = None, None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-{seed}.json"
        traced = run_child(workload, seed, "trace", deadline, spans_path)
    host["loadavg_after"] = loadavg()

    checked = passes + ([traced] if traced else [])
    first_hash = passes[0]["report_sha256"]
    failed = sum(not pass_ok(p, expected_hash, first_hash) for p in checked)
    setups += [p["setup_s"] for p in passes]
    samples = {
        "setup_s": setups,
        "run_s": [p["run_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "instances_per_s": [p["instances"] / p["run_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    if traced:
        metrics = dict(traced["layers"])
        for suite in passes[0]["suite_ms"]:
            metrics[f"cli.suite_ms.{suite}"] = statistics.median(p["suite_ms"][suite] for p in passes)
        metrics["trace.overhead_ratio"] = traced["run_s"] / statistics.median(samples["run_s"])
        modules = {}
        for name, value in traced["layers"].items():
            if name.endswith(".self_s"):
                module = name.split(".")[0]
                modules[module] = modules.get(module, 0.0) + value
        shares = {m: v / traced["run_s"] for m, v in modules.items()}
    else:
        metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(checked),
        "failed": failed,
        "check_fail_ratio": sum(p["not_pass"] for p in checked) / sum(p["records"] for p in checked),
        "report_sha256": first_hash,
        "expected_sha256": expected_hash,
        "quartiles": {name: quartiles(vals) for name, vals in samples.items()},
        "samples": samples,
        "suite_ms": [p["suite_ms"] for p in passes],
        "host": host,
        "self_share": shares,
        "metrics": metrics,
    }


def print_human(res: dict, units: dict[str, str]) -> None:
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"host={json.dumps(res['host'])}")
    print(f"#   report sha256 {res['report_sha256']} (expected {res['expected_sha256']})")
    print(f"#   passes failed {res['failed']}/{res['attempted']}  "
          f"check_fail_ratio {res['check_fail_ratio']:.6g} ratio")
    if res["self_share"]:
        print("#   self time / traced run_s by module: " + ", ".join(
            f"{m} {v:.3f}" for m, v in res["self_share"].items()))
    for name, value in res["metrics"].items():
        line = f"#   {name:<44} {value:>14.6g} {units.get(name, '')}"
        if name in res["quartiles"]:
            q1, _, q3 = res["quartiles"][name]
            line += f"   q1 {q1:.6g} q3 {q3:.6g} n={len(res['samples'][name])}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sympspin" / "__init__.py").is_file():
        print(f"perfbench: no sympspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(END_TO_END_UNITS)
    if args.trace:
        units.update(per_layer_units())
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        for res in results:
            fh.write(json.dumps(res) + "\n")
    for res in results:
        print_human(res, units)

    def reported(res):
        return {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items() if k in units}

    if len(results) == 1:
        metrics = reported(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in reported(r).items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
