"""Median, quartiles and spread of each metric over recorded runs.

    python3 perfbench/summarize.py [--last N] [RESULTS_JSONL]

Reads the runs that perfbench/run.py appended to .bench_out/results.jsonl,
groups them by (workload, trace) and prints, per metric, the median over
runs, the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_RESULTS = Path(__file__).resolve().parent.parent / ".bench_out" / "results.jsonl"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="?", default=DEFAULT_RESULTS)
    parser.add_argument("--last", type=int, default=0, help="only the last N runs of each group")
    args = parser.parse_args(argv)
    groups: dict[tuple[str, int], list[dict]] = {}
    with open(args.results) as fh:
        for line in fh:
            run = json.loads(line)
            groups.setdefault((run["workload"], run["trace"]), []).append(run)
    for (workload, trace), runs in sorted(groups.items()):
        runs = runs[-args.last:] if args.last else runs
        seeds = sorted({r["seed"] for r in runs})
        failed = sum(r["failed"] for r in runs)
        print(f"{workload} trace={trace} runs={len(runs)} seeds={seeds} failed passes={failed}")
        if len(runs) < 2:
            continue
        for name in runs[-1]["metrics"]:
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            med, q1, q3, rel = spread(values)
            print(f"  {name:<44} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
