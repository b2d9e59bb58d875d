"""Command-line harness: run identity suites, emit reports, return exit codes.

Suites, their checks, paper anchors, requirements and documented display
verdicts all come from the registry `sympspin.verify.SUITES`; this module
holds the run configuration and its validation (including the size ceiling
MAX_L / MAX_DEGREE / MAX_TRIALS), the report records and their emission, and
the `sympspin` entry point.  `--replay` re-runs the counterexamples in a file
and exits 2 with a one-line message on a file it cannot replay.

Report schema (JSON), each record its NamedTuple's fields in declared order:

    {"config": {...}, "checks": [{"name": str, "paper_anchor": str,
      "status": "pass"|"fail"|"skipped", "trials_run": int,
      "elapsed_ms": int, "counterexample": object|null}], "overall": "pass"|"fail"}

Everything except elapsed_ms is deterministic for a fixed config; elapsed_ms
is genuine wall time and therefore varies run to run.

Display-comparison checks (names ending in "-display") report how a printed
closed-form right-hand side compares with the projector oracle.  Their
counterexample slot always carries the comparison record, and their status is
"pass" exactly when the comparison came out as documented in the display's
`Display` entry of the registry; a documented mismatch of a printed display
therefore does not fail the run, while a surprise (a display behaving
differently from its documented verdict) does.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import NamedTuple

from .exact import RandomStream
from .verify import (
    MAX_DEGREE,
    MAX_L,
    MAX_TRIALS,
    SUITES,
    replay_counterexample,
    theorem9_suite,  # noqa: F401  re-exported: callers import it from here
)

__all__ = [
    "RunConfig",
    "CheckRecord",
    "SuiteReport",
    "run_suite",
    "emit_report",
    "main",
]

# Everything below is read off the registry in sympspin.verify.
SUITE_ORDER = tuple(name for name, suite in SUITES.items() if suite.cli)


def _display_record_name(suite: str, display: str) -> str:
    return f"{suite}.{display}" if display.endswith("-display") else f"{suite}.{display}-display"


class RunConfig(NamedTuple):
    l: int = 2
    max_degree: int = 6
    pad: int = 6
    trials: int = 20
    seed: int = 42
    suites: tuple[str, ...] = ("all",)
    out: str = "-"
    format: str = "text"

    def to_json(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}


class CheckRecord(NamedTuple):
    name: str
    paper_anchor: str
    status: str
    trials_run: int
    elapsed_ms: int
    counterexample: dict | None

    def to_json(self) -> dict:
        return self._asdict()


class SuiteReport(NamedTuple):
    config: RunConfig
    checks: tuple[CheckRecord, ...]
    overall: str

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "overall": self.overall,
        }


def expand_suites(suites) -> list[str]:
    for s in suites:
        if s != "all" and s not in SUITE_ORDER:
            raise ValueError(f"unknown suite {s!r}")
    return [s for s in SUITE_ORDER if s in suites or "all" in suites]


def validate_config(config: RunConfig) -> list[str]:
    """Expand and validate; raises before any computation on a bad config."""
    selected = expand_suites(config.suites)
    if config.l < 1 or config.max_degree < 0 or config.pad < 0 or config.trials < 0:
        raise ValueError("l, max_degree, pad, trials must be non-negative (l >= 1)")
    if config.l > MAX_L or config.max_degree > MAX_DEGREE or config.trials > MAX_TRIALS:
        raise ValueError(f"size ceiling: l <= {MAX_L}, max_degree <= {MAX_DEGREE} "
                         f"and trials <= {MAX_TRIALS}")
    for name in selected:
        suite = SUITES[name]
        if config.l < suite.min_l:
            raise ValueError(f"suite {name} requires l >= {suite.min_l}")
        if config.pad < suite.min_pad:
            raise ValueError(f"suite {name} requires pad >= {suite.min_pad}")
    if config.format not in ("json", "text"):
        raise ValueError("format must be json or text")
    return selected


def _run_named_suite(name: str, config: RunConfig, seed: int) -> list[CheckRecord]:
    """One record per Check, then one per Display (none if skipped), each named
    and anchored by its registry entry; Displays zip strictly with the pairs."""
    suite = SUITES[name]
    t0 = time.perf_counter()
    reports = suite.run(config.l, config.max_degree, config.trials, seed)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    records = [CheckRecord(c.name, c.anchor, r.status, r.trials, elapsed_ms, r.counterexample)
               for c, r in zip(suite.checks, reports, strict=True)]
    shown = reports[0].displays
    for d, (literal, corrected) in zip(suite.displays if shown else (), shown, strict=True):
        payload = {
            "literal_match": literal,
            "corrected_match": corrected,
            "expected_literal_match": d.expected[0],
            "expected_corrected_match": d.expected[1],
            "note": d.note,
        }
        records.append(CheckRecord(_display_record_name(name, d.name), d.anchor,
                                   "pass" if (literal, corrected) == d.expected else "fail",
                                   reports[0].trials, elapsed_ms, payload))
    return records


def run_suite(config: RunConfig) -> SuiteReport:
    """Run the selected suites; deterministic apart from elapsed_ms."""
    selected = validate_config(config)
    base = RandomStream(config.seed)
    records: list[CheckRecord] = []
    for idx, name in enumerate(SUITE_ORDER):
        if name not in selected:
            continue
        suite_seed = base.split(idx + 1).next_int(0, 2**31 - 1)
        records.extend(_run_named_suite(name, config, suite_seed))
    overall = "pass" if records and all(r.status == "pass" for r in records) else "fail"
    return SuiteReport(config=config, checks=tuple(records), overall=overall)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_report(report: SuiteReport, format: str = "json") -> bytes:
    if format == "json":
        return (json.dumps(report.to_json(), indent=2) + "\n").encode()
    if format != "text":
        raise ValueError("format must be json or text")
    lines = []
    cfg = report.config
    lines.append(
        f"sympspin  l={cfg.l} max_degree={cfg.max_degree} pad={cfg.pad} "
        f"trials={cfg.trials} seed={cfg.seed}"
    )
    lines.append("-" * 78)
    for c in report.checks:
        lines.append(
            f"{c.name:<40} trials={c.trials_run:<4} {c.elapsed_ms:>7}ms  "
            f"{c.status.upper()}"
        )
    lines.append("-" * 78)
    lines.append(f"overall: {report.overall.upper()}")
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser():
    import argparse     # loaded when main runs, not when this module is imported

    parser = argparse.ArgumentParser(
        prog="sympspin",
        description="Exact verification of symplectic spinor operator identities.",
    )
    parser.add_argument("--l", type=int, default=2, help="half-dimension (default 2)")
    parser.add_argument("--max-degree", type=int, default=6, dest="max_degree",
                        help="maximum sampled spinor degree (default 6)")
    parser.add_argument("--pad", type=int, default=6,
                        help="a gate (default 6), not headroom: theorem suites and "
                             "symbol-complex need >= 6; each sampler fixes its own cap")
    parser.add_argument("--trials", type=int, default=20,
                        help="random trials per check (default 20)")
    parser.add_argument("--seed", type=int, default=42,
                        help="base seed; SYMPSPIN_SEED overrides when set")
    parser.add_argument("--suite", action="append", dest="suites",
                        choices=list(SUITE_ORDER) + ["all"],
                        help="suite to run (repeatable; default all)")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=["json", "text"], default="text")
    parser.add_argument("--replay", metavar="FILE",
                        help="re-evaluate a serialized counterexample and exit")
    return parser


# What an unreadable or malformed replay file raises: a missing file, bad JSON,
# an unknown check or a rational over 0 (ValueError), JSON nested past the
# parser's depth limit (RecursionError), missing keys, wrongly typed fields.
# ArithmeticError stays until this tuple is narrowed to what decoders raise.
_BAD_REPLAY = (OSError, ValueError, RecursionError, LookupError, TypeError, AttributeError,
               ArithmeticError)


def _counterexamples(obj) -> list[dict]:
    """The replayable objects in a counterexample or a whole report."""
    if isinstance(obj, dict) and "checks" in obj:
        found = [c["counterexample"] for c in obj["checks"]]
    else:
        found = [obj]
    return [ce for ce in found if isinstance(ce, dict) and "check" in ce]


def _replay_main(path: str) -> int:
    try:
        with open(path, "rb") as fh:
            items = _counterexamples(json.load(fh))
        if not items:
            print("replay file contains no counterexample", file=sys.stderr)
            return 2
        results = [replay_counterexample(ce) for ce in items]
    except _BAD_REPLAY as exc:
        print(f"cannot replay {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 1 if any(r["status"] == "fail" for r in results) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.replay:
        return _replay_main(args.replay)
    seed = args.seed
    env_seed = os.environ.get("SYMPSPIN_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"invalid config: SYMPSPIN_SEED={env_seed!r} is not an integer", file=sys.stderr)
            return 2
    config = RunConfig(
        l=args.l,
        max_degree=args.max_degree,
        pad=args.pad,
        trials=args.trials,
        seed=seed,
        suites=tuple(args.suites) if args.suites else ("all",),
        out=args.out,
        format=args.format,
    )
    try:
        report = run_suite(config)
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    data = emit_report(report, config.format)
    if config.out == "-":
        sys.stdout.write(data.decode())
    else:
        try:
            with open(config.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
