"""CLI harness: config validation, report schema, determinism, exit codes."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import sympspin
from sympspin.connections import connection_to_json, random_connection
from sympspin.curvature import curvature_to_json, random_curvature
from sympspin.cli import (
    EXPECTED_DISPLAYS,
    MAX_DEGREE,
    MAX_L,
    MAX_TRIALS,
    RunConfig,
    SUITE_ORDER,
    emit_report,
    main,
    run_suite,
    validate_config,
)

FAST = dict(l=2, max_degree=3, trials=2, seed=7)


def fast_config(**kw):
    merged = {**FAST, **kw}
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        validate_config(RunConfig(suites=("nonsense",)))


def test_l1_rejected_for_spinor_suites():
    with pytest.raises(ValueError):
        validate_config(RunConfig(l=1, suites=("theorem9",)))
    # curvature-only suites are fine at l = 1
    assert validate_config(RunConfig(l=1, suites=("lemma6",))) == ["lemma6"]


def test_insufficient_pad_rejected():
    with pytest.raises(ValueError):
        validate_config(RunConfig(pad=2, suites=("theorem9",)))
    # pad only gates the theorem suites
    assert validate_config(RunConfig(pad=2, suites=("lemma1",))) == ["lemma1"]


def test_sizes_above_the_ceiling_rejected():
    assert validate_config(RunConfig(l=3, suites=("lemma6",))) == ["lemma6"]
    with pytest.raises(ValueError):
        validate_config(RunConfig(l=MAX_L + 1, suites=("lemma6",)))
    with pytest.raises(ValueError):
        validate_config(RunConfig(max_degree=MAX_DEGREE + 1, suites=("lemma1",)))
    assert validate_config(RunConfig(trials=MAX_TRIALS, suites=("lemma1",))) == ["lemma1"]
    with pytest.raises(ValueError):
        validate_config(RunConfig(trials=MAX_TRIALS + 1, suites=("lemma1",)))


def test_main_huge_trials_exits_two_before_computing(capsys):
    assert main(["--suite", "lemma1", "--trials", "100000000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_main_huge_l_exits_two_before_computing(capsys):
    assert main(["--l", "1000", "--suite", "lemma6", "--trials", "1"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_all_expands_in_canonical_order():
    assert validate_config(RunConfig()) == list(SUITE_ORDER)


# ---------------------------------------------------------------------------
# run_suite
# ---------------------------------------------------------------------------


def test_single_suite_filtering():
    report = run_suite(fast_config(suites=("lemma1",)))
    assert [c.name for c in report.checks] == ["lemma1"]
    assert report.overall == "pass"


def test_empty_suite_list_gives_valid_empty_report():
    report = run_suite(fast_config(suites=()))
    assert report.checks == ()
    assert report.overall == "fail"      # nothing ran, so nothing passed
    parsed = json.loads(emit_report(report, "json"))
    assert parsed["checks"] == []


def test_skipped_records_never_pass():
    report = run_suite(fast_config(trials=0, suites=("lemma1", "lemma4")))
    assert all(c.status == "skipped" for c in report.checks)
    assert report.overall == "fail"


def test_run_suite_deterministic_up_to_elapsed():
    cfg = fast_config(suites=("lemma1", "lemma5", "symbol-complex"))
    a = run_suite(cfg)
    b = run_suite(cfg)

    def normalized(rep):
        out = rep.to_json()
        for c in out["checks"]:
            c["elapsed_ms"] = 0
        return json.dumps(out, sort_keys=True)

    assert normalized(a) == normalized(b)


def test_theorem_suite_emits_display_records():
    report = run_suite(fast_config(suites=("theorem9",), max_degree=3, pad=6))
    names = [c.name for c in report.checks]
    assert names == ["theorem9", "theorem9.eq9-display", "theorem9.eq10-display"]
    assert report.overall == "pass"
    for c in report.checks[1:]:
        assert c.counterexample["literal_match"] is False
        assert c.counterexample["corrected_match"] is True
        assert c.status == "pass"


def test_display_expectation_table_is_exhaustive():
    suites = {s for s, _ in EXPECTED_DISPLAYS}
    assert suites == {"theorem9", "theorem10", "corollary11"}


# ---------------------------------------------------------------------------
# Report schema and round trip
# ---------------------------------------------------------------------------


def test_json_schema_keys_exact():
    report = run_suite(fast_config(suites=("lemma1",)))
    obj = json.loads(emit_report(report, "json"))
    assert list(obj.keys()) == ["config", "checks", "overall"]
    assert list(obj["config"].keys()) == [
        "l", "max_degree", "pad", "trials", "seed", "suites", "out", "format",
    ]
    for c in obj["checks"]:
        assert list(c.keys()) == [
            "name", "paper_anchor", "status", "trials_run", "elapsed_ms",
            "counterexample",
        ]
    assert obj["overall"] in ("pass", "fail")


def test_report_round_trip():
    report = run_suite(fast_config(suites=("lemma1", "lemma6")))
    data = emit_report(report, "json")
    assert json.loads(data) == report.to_json()


def test_text_format_lines_end_with_status():
    report = run_suite(fast_config(suites=("lemma1",)))
    text = emit_report(report, "text").decode()
    lines = [ln for ln in text.splitlines() if ln.startswith("lemma1")]
    assert lines and all(ln.endswith("PASS") for ln in lines)
    assert text.splitlines()[-1] == "overall: PASS"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _fast_argv(*extra):
    return [
        "--l", "2", "--max-degree", "3", "--trials", "2", "--seed", "7",
        "--suite", "lemma1", *extra,
    ]


def test_main_exit_zero_and_stdout(capsys):
    code = main(_fast_argv("--format", "json"))
    assert code == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["overall"] == "pass"


def test_main_writes_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(_fast_argv("--format", "json", "--out", str(out)))
    assert code == 0
    assert json.loads(out.read_text())["overall"] == "pass"


def test_main_trials_zero_exits_nonzero():
    code = main(["--trials", "0", "--suite", "lemma1", "--out", "/dev/null"])
    assert code == 1


def test_main_invalid_config_exits_two():
    assert main(["--l", "1", "--suite", "theorem9"]) == 2
    assert main(["--pad", "2", "--suite", "theorem9"]) == 2


def test_main_unwritable_output_exits_two():
    code = main(_fast_argv("--out", "/nonexistent-dir/report.json"))
    assert code == 2


def test_main_rejects_unknown_flag():
    with pytest.raises(SystemExit):
        main(["--frobnicate"])


def test_env_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("SYMPSPIN_SEED", "123")
    code = main(_fast_argv("--format", "json"))
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["config"]["seed"] == 123


def test_non_integer_env_seed_exits_two_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("SYMPSPIN_SEED", "abc")
    assert main(_fast_argv("--format", "json")) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "SYMPSPIN_SEED" in err


def test_replay_of_failing_counterexample(tmp_path, capsys):
    # craft a genuinely failing counterexample: asymmetric Christoffel data
    from sympspin.connections import Poly, PolynomialConnection, connection_to_json

    n = 4
    gamma = {idx: Poly.zero(n) for idx in product(range(n), repeat=3)}
    gamma[(0, 1, 1)] = Poly.const(n, 1)
    ce = {
        "check": "fedosov.axioms",
        "connection": connection_to_json(PolynomialConnection(2, 0, gamma)),
    }
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(ce))
    code = main(["--replay", str(path)])
    assert code == 1
    result = json.loads(capsys.readouterr().out)
    assert result["reproduced"] is True


def test_replay_of_passing_counterexample(tmp_path, capsys):
    ce = {
        "check": "lemma1",
        "l": 2,
        "a": 1,
        "b": 2,
        "spinor": {"l": 2, "cap": 6, "terms": [{"alpha": [0, 1], "re": "1", "im": "0"}]},
    }
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(ce))
    code = main(["--replay", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["reproduced"] is False


def test_replay_accepts_full_report(tmp_path, capsys):
    report = {
        "config": {},
        "checks": [
            {
                "name": "lemma1",
                "paper_anchor": "x",
                "status": "fail",
                "trials_run": 1,
                "elapsed_ms": 0,
                "counterexample": {
                    "check": "lemma1",
                    "l": 2,
                    "a": 1,
                    "b": 2,
                    "spinor": {"l": 2, "cap": 6,
                               "terms": [{"alpha": [0, 0], "re": "1", "im": "0"}]},
                },
            }
        ],
        "overall": "fail",
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["--replay", str(path)]) == 0   # healthy instance: not reproduced


_LEMMA1_CE = {
    "check": "lemma1",
    "l": 2,
    "a": 1,
    "b": 2,
    "spinor": {"l": 2, "cap": 6, "terms": [{"alpha": [0, 1], "re": "1", "im": "0"}]},
}

def _zero_index(items, key, top):
    """The JSON entries `items` with every 1-based index `top` in their `key`
    lists written as 0, which a decoder without a lower bound would read as
    index -1, the last one, so as `top` itself."""
    return [{**item, key: [0 if x == top else x for x in item[key]]} for item in items]


HOSTILE_REPLAYS = {
    "not-json": "{this is not json",
    "too-deep": "[" * 100000 + "]" * 100000,
    "missing-key": json.dumps({k: v for k, v in _LEMMA1_CE.items() if k != "l"}),
    "wrong-type": json.dumps({**_LEMMA1_CE, "a": "one"}),
    "unknown-check": json.dumps({**_LEMMA1_CE, "check": "lemma99"}),
    "no-instance": json.dumps({"check": "symbol-complex.negative-control", "l": 2,
                               "note": "no nonzero witness found"}),
    "huge-l": json.dumps({**_LEMMA1_CE, "l": 1000}),
    # a cap past one exponent field of the packed monomial keys
    "huge-cap": json.dumps({**_LEMMA1_CE, "spinor": {**_LEMMA1_CE["spinor"], "cap": 10**9}}),
    # rationals in forms the writer never emits: Fraction would expand the
    # exponent into a ten-million-digit integer
    "exponent-val": json.dumps({"check": "lemma6", "l": 2, "curvature": {
        "l": 2, "entries": [{"ijkl": [1, 2, 1, 2], "val": "1e10000000"}]}}),
    "exponent-re": json.dumps({**_LEMMA1_CE, "spinor": {**_LEMMA1_CE["spinor"], "terms": [
        {"alpha": [0, 1], "re": "1e10000000", "im": "0"}]}}),
    # a connection that passes the axioms, with a degree its evaluation would
    # tabulate powers up to
    "huge-connection-cap": json.dumps({
        "check": "fedosov.curvature-symmetries", "point": ["1/2", "2/3"],
        "connection": {"l": 1, "cap": 1000000, "gamma": [{"ijk": [1, 1, 1], "poly": {
            "n": 2, "terms": [{"alpha": [1000000, 0], "val": "1"}]}}]}}),
    # index 0 is out of 1..2l; read as -1 it would decode to the unchanged tensor
    "zero-index-curvature": json.dumps({"check": "lemma6", "l": 2, "curvature": {
        "l": 2, "entries": _zero_index(curvature_to_json(random_curvature(2, 5))["entries"],
                                       "ijkl", 4)}}),
    "zero-index-connection": json.dumps({"check": "fedosov.axioms", "connection": {
        **(conn := connection_to_json(random_connection(1, 2, 5))),
        "gamma": _zero_index(conn["gamma"], "ijk", 2)}}),
    # exponents must be ints: 1.0 and true would read as 1, and 0.5 fails
    # only deep inside evaluation
    **{f"{kind}-exponent-connection": json.dumps({
        "check": "fedosov.curvature-symmetries", "point": ["1/2", "2/3"],
        "connection": {"l": 1, "cap": 1, "gamma": [{"ijk": [1, 1, 1], "poly": {
            "n": 2, "terms": [{"alpha": alpha, "val": "1"}]}}]}})
       for kind, alpha in (("float", [1.0, 0]), ("bool", [True, 0]), ("half", [0.5, 0.5]))},
    **{f"{kind}-exponent-spinor": json.dumps({**_LEMMA1_CE, "spinor": {
        **_LEMMA1_CE["spinor"], "terms": [{"alpha": alpha, "re": "1", "im": "0"}]}})
       for kind, alpha in (("float", [0, 1.0]), ("bool", [0, True]))},
}


@pytest.mark.parametrize("name", sorted(HOSTILE_REPLAYS))
def test_hostile_replay_exits_two_with_one_line(name, tmp_path, capsys):
    path = tmp_path / "ce.json"
    path.write_text(HOSTILE_REPLAYS[name])
    assert main(["--replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_module_run_of_bad_replay_writes_one_stderr_line(tmp_path):
    # `python -m sympspin.cli` must not find sympspin.cli imported by the package
    path = tmp_path / "ce.json"
    path.write_text(HOSTILE_REPLAYS["not-json"])
    src = str(Path(sympspin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "sympspin.cli", "--replay", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1


_EMPTY_CURVATURE = {"check": "lemma6", "l": 2, "curvature": {"l": 2, "entries": []}}

NESTED_SIZE_REPLAYS = {
    "nested-above-ceiling": {**_EMPTY_CURVATURE, "curvature": {"l": 12, "entries": []}},
    "nested-differs": {**_EMPTY_CURVATURE, "curvature": {"l": 3, "entries": []}},
    "both-above-ceiling": {**_EMPTY_CURVATURE, "l": 100, "curvature": {"l": 100, "entries": []}},
    "nested-not-integer": {**_EMPTY_CURVATURE, "curvature": {"l": 2.0, "entries": []}},
    "no-top-level-l": {"check": "fedosov.axioms",
                       "connection": {"l": 1000, "cap": 2, "gamma": []}},
}


@pytest.mark.parametrize("name", sorted(NESTED_SIZE_REPLAYS))
def test_replay_checks_every_nested_l_before_decoding(name, tmp_path, capsys, monkeypatch):
    import sympspin.verify as verify

    def must_not_decode(*args, **kwargs):
        raise AssertionError("decoded a counterexample whose sizes are out of bounds")

    for decoder in ("curvature_from_json", "ricci_from_json", "connection_from_json",
                    "poly_spinor_from_json", "spinor_form_from_json"):
        monkeypatch.setattr(verify, decoder, must_not_decode)
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(NESTED_SIZE_REPLAYS[name]))
    assert main(["--replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_replay_accepts_matching_nested_l(tmp_path, capsys):
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(_EMPTY_CURVATURE))
    assert main(["--replay", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_replay_of_missing_file_exits_two_with_one_line(tmp_path, capsys):
    assert main(["--replay", str(tmp_path / "absent.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
