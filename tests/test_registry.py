"""The check registry: sampled draws, counterexample replay, planted defects."""

import copy
import hashlib
import json
import sys
from fractions import Fraction

import pytest

import oracles
from sympspin import connections, forms, symplectic, verify
from sympspin.cli import main
from sympspin.connections import (
    Poly,
    PolynomialConnection,
    connection_to_json,
    random_connection,
)
from sympspin.curvature import (
    RicciTensor,
    _tensor,
    curvature_to_json,
    random_curvature,
    random_weyl,
    ricci_to_json,
)
from sympspin.exact import RandomStream
from sympspin.forms import random_form, spinor_form_to_json
from sympspin.spinors import SpLieElement, poly_spinor_to_json, random_spinor

SEED = 20240601

# Every suite at l = 2 and two trials, through its public entry point.
SUITE_CALLS = {
    "lemma1": lambda: verify.lemma1_suite(2, 3, 2, SEED),
    "lemma4": lambda: verify.lemma4_suite(2, 3, 2, SEED),
    "lemma5": lambda: verify.lemma5_suite(2, 3, 2, SEED),
    "lemma6": lambda: verify.lemma6_suite(2, 2, SEED),
    "lemma7": lambda: verify.lemma7_suite(2, 2, SEED),
    "theorem9": lambda: verify.theorem9_suite(2, 3, 2, SEED),
    "theorem10": lambda: verify.theorem10_suite(2, 3, 2, SEED),
    "corollary11": lambda: verify.corollary11_suite(2, 3, 2, SEED),
    "symbol-complex": lambda: verify.symbol_complex_suite(2, 3, 2, SEED),
    "fedosov": lambda: verify.fedosov_suite(2, SEED, n_connections=2, n_points=2),
    "equivariance": lambda: verify.equivariance_suite(2, 3, 2, SEED),
}

# sha256 of the recorded draws of each suite, recorded before the suites were
# folded into the registry; a change means the samples themselves changed.
# The spinor and form JSON lost its "cap" key since: the earlier draws, with
# that key removed from each recorded spinor and form, hash to these.
SAMPLE_DIGESTS = {
    "corollary11": "f5e35addfa0c5fe8268418009b5bcca9e3c336518262be8e83b8e789ae6dd245",
    "equivariance": "61a0b0eeb41f3688414cc6ec6928e195b3eef0d7604e0afc5d398e8ad7661c8b",
    "fedosov": "f6e39e547e9505ade7355344ac5142dd35c4d9b7fe0c34d2f81bafd450d771fe",
    "lemma1": "25871ad3c774a54351a91deb330cb206822b61b243614c5e17c4dde6eb8b828f",
    "lemma4": "ccc7f35edf68cb081d9d0d1dd53f8f23ff543e37c7f26afe56f8537d7f5af2ac",
    "lemma5": "7bbe554f0b4e5a3af1fcec2998807998f3c096fbd9dca21f5194f60275e8d6f8",
    "lemma6": "06f9a060f52eaa44d6993fd56acc6842207f650b51560096e9aa867f48e8bef6",
    "lemma7": "5bb380c9c81fc28d260b6dcc4f171a83d5831e3ce2970924a8595f4337d658e4",
    "symbol-complex": "e03fc71c240b82527fceb3ec28fc5855a4f311aa212534fcb6d0bf5ecff7662f",
    "theorem10": "90bb2904691ebb789046f73036702d91a08506226da893bcd1a44476481a8fc0",
    "theorem9": "211c4b9589b31e0f119955dc41669a7ccb2758b2b53d00e76cbac7132cd09b2f",
}


def _matrix_to_json(A):
    return [[str(x) for x in row] for row in A.matrix]


@pytest.fixture
def draws(monkeypatch):
    """Record, in order, every sampler output the suites in verify draw.

    Fractions drawn directly by a suite (covectors and points) are recorded;
    those drawn inside a sampler are covered by the sampler's output.
    """
    log = []
    depth = [0]

    def recording(name, fn, encode):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            log.append([name, encode(out)])
            return out
        return wrapped

    for name, encode in (
        ("random_spinor", poly_spinor_to_json),
        ("random_form", spinor_form_to_json),
        ("random_curvature", curvature_to_json),
        ("random_weyl", curvature_to_json),
        ("random_connection", connection_to_json),
    ):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name), encode))
    for cls, encode in ((RicciTensor, ricci_to_json), (SpLieElement, _matrix_to_json)):
        sampler = recording(f"{cls.__name__}.random", cls.random, encode)
        monkeypatch.setattr(cls, "random",
                            classmethod(lambda _cls, *a, s=sampler, **k: s(*a, **k)))
    next_fraction = RandomStream.next_fraction

    def fraction(self, bound):
        out = next_fraction(self, bound)
        if depth[0] == 0:
            log.append(["next_fraction", str(out)])
        return out

    monkeypatch.setattr(RandomStream, "next_fraction", fraction)
    return log


@pytest.mark.parametrize("suite", sorted(SUITE_CALLS))
def test_sampled_instances_match_recorded_digests(suite, draws):
    SUITE_CALLS[suite]()
    assert draws
    digest = hashlib.sha256(json.dumps(draws, sort_keys=True).encode()).hexdigest()
    assert digest == SAMPLE_DIGESTS[suite]


# ---------------------------------------------------------------------------
# Replay: a healthy instance, written as its check's counterexample, passes
# ---------------------------------------------------------------------------


def _spinor(st):
    return poly_spinor_to_json(random_spinor(2, 3, st))


def _form(st, r=1):
    return spinor_form_to_json(random_form(2, r, 3, st))


def _lemma5(key, value):
    return lambda st: {key: value, "l": 2, "one_form": _form(st, 1),
                       "two_form": _form(st, 2)}


def _fedosov(*point):
    return lambda st: {"connection": connection_to_json(random_connection(1, 2, 11)),
                       **({"point": list(point)} if point else {})}


# Each replayable check's counterexample fields besides "check", built from
# freshly sampled healthy instances; the keys are the wire format.
HEALTHY = {
    "lemma1": lambda st: {"l": 2, "a": 1, "b": 3, "spinor": _spinor(st)},
    "lemma4": lambda st: {"l": 2, "form": _form(st, 1)},
    "lemma5.idempotency": _lemma5("projector", "p21"),
    "lemma5.orthogonality": _lemma5("pair", ["p20", "p22"]),
    "lemma5.partition-of-identity": _lemma5("degree", "two-forms"),
    "lemma6": lambda st: {"l": 2, "curvature": curvature_to_json(random_curvature(2, 5))},
    "lemma7.weyl-trace-free": lambda st: {"l": 2,
                                          "curvature": curvature_to_json(random_curvature(2, 6))},
    "lemma7.ricci-section": lambda st: {"l": 2, "sigma": ricci_to_json(RicciTensor.random(2, st))},
    "theorem9": lambda st: {"l": 2, "sigma": ricci_to_json(RicciTensor.random(2, st)),
                            "phi": _spinor(st)},
    "theorem10": lambda st: {"l": 2, "weyl": curvature_to_json(random_weyl(2, 7)),
                             "phi": _spinor(st)},
    "corollary11": lambda st: {"l": 2, "curvature": curvature_to_json(random_curvature(2, 8)),
                               "phi": _spinor(st)},
    "symbol-complex": lambda st: {"l": 2, "xi": [str(st.next_fraction(5)) for _ in range(4)],
                                  "eta": _form(st)},
    "fedosov.axioms": _fedosov(),
    "fedosov.curvature-symmetries": _fedosov("1/2", "-2/3"),
    "fedosov.decomposition": _fedosov("-1", "3/2"),
    "equivariance": lambda st: {
        "l": 2,
        "matrix": _matrix_to_json(SpLieElement.random(2, st)),
        "form": _form(st, 1),
    },
}


def test_every_replayable_check_has_a_healthy_instance():
    names = {c.name for s in verify.SUITES.values() for c in s.checks if not c.witness}
    assert names == set(HEALTHY) and len(HEALTHY) == 16


@pytest.mark.parametrize("check", sorted(HEALTHY))
def test_replay_of_healthy_instance_passes(check):
    ce = {"check": check, **HEALTHY[check](RandomStream(SEED))}
    ce = json.loads(json.dumps(ce))
    result = verify.replay_counterexample(ce)
    assert result == {"check": check, "status": "pass", "reproduced": False}


def test_planted_defect_fails_and_its_counterexample_replays(tmp_path, monkeypatch, capsys):
    # the planted defect: twice sigma_tilde is no longer a section of ricci
    sigma_tilde_of = verify.sigma_tilde_of

    def doubled(*args):
        st = sigma_tilde_of(*args)
        return st + st

    monkeypatch.setattr(verify, "sigma_tilde_of", doubled)
    path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "1", "--suite", "lemma7", "--format", "json"]
    assert main([*argv, "--out", str(path)]) == 1
    report = json.loads(path.read_text())
    assert {c["name"]: c["status"] for c in report["checks"]} == {
        "lemma7.weyl-trace-free": "fail",
        "lemma7.ricci-section": "fail",
    }
    capsys.readouterr()
    assert main(["--replay", str(path)]) == 1
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["reproduced"] for r in results] == [True, True]
    # the same counterexamples pass once the defect is gone
    monkeypatch.undo()
    assert main(["--replay", str(path)]) == 0


def test_planted_curvature_defect_fails_the_symmetry_check_and_replays(
        tmp_path, monkeypatch, capsys):
    # the planted defect: one evaluated curvature entry off by one
    evaluate = verify.evaluate_curvature_at

    def off_by_one(field, point):
        R = evaluate(field, point)
        num = copy.deepcopy(R.num)
        num[0][1][0][1] += R.den
        return _tensor(field.l, num, R.den)

    monkeypatch.setattr(verify, "evaluate_curvature_at", off_by_one)
    path = tmp_path / "report.json"
    argv = ["--l", "1", "--trials", "1", "--suite", "fedosov", "--format", "json"]
    assert main([*argv, "--out", str(path)]) == 1
    checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    symmetries = checks["fedosov.curvature-symmetries"]
    assert symmetries["status"] == "fail"
    assert set(symmetries["counterexample"]) == {"check", "connection", "point"}
    capsys.readouterr()
    assert main(["--replay", str(path)]) == 1
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {"check": "fedosov.curvature-symmetries", "status": "fail",
            "reproduced": True} in results
    monkeypatch.undo()
    assert main(["--replay", str(path)]) == 0


def test_planted_defect_fails_the_fedosov_decomposition_and_replays(
        tmp_path, monkeypatch, capsys):
    # twice sigma_tilde leaves a trace in W = R - 2 sigma_tilde(ricci R), so
    # the decomposition check, decided by lemma7_weyl_instance, must fail
    sigma_tilde_of = verify.sigma_tilde_of

    def doubled(sigma):
        st = sigma_tilde_of(sigma)
        return st + st

    monkeypatch.setattr(verify, "sigma_tilde_of", doubled)
    path = tmp_path / "report.json"
    argv = ["--l", "1", "--trials", "1", "--suite", "fedosov", "--format", "json"]
    assert main([*argv, "--out", str(path)]) == 1
    checks = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    assert {name: c["status"] for name, c in checks.items()} == {
        "fedosov.axioms": "pass",
        "fedosov.curvature-symmetries": "pass",
        "fedosov.decomposition": "fail",
    }
    assert set(checks["fedosov.decomposition"]["counterexample"]) == {
        "check", "connection", "point"}
    capsys.readouterr()
    assert main(["--replay", str(path)]) == 1
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert results == [{"check": "fedosov.decomposition", "status": "fail", "reproduced": True}]
    monkeypatch.undo()
    assert main(["--replay", str(path)]) == 0


def test_the_fedosov_suite_checks_each_connection_once(monkeypatch):
    calls = []
    check = connections.check_connection_axioms

    def counted(conn):
        calls.append(conn)
        return check(conn)

    monkeypatch.setattr(connections, "check_connection_axioms", counted)
    reports = verify.fedosov_suite(1, SEED, n_connections=3, n_points=2)
    assert [r.status for r in reports] == ["pass"] * 3
    assert len(calls) == 3 and len({id(c) for c in calls}) == 3


def test_a_connection_failing_the_axioms_fails_only_the_axiom_check(tmp_path, monkeypatch,
                                                                     capsys):
    # Gamma_000 alone breaks total symmetry at l = 1 once Gamma_001 != Gamma_010
    def broken(l, degree, seed, bound=3):
        conn = random_connection(l, degree, seed, bound)
        gamma = dict(conn.gamma)
        gamma[(0, 0, 1)] = oracles.poly_lincomb(2 * l, [(1, gamma[(0, 0, 1)]),
                                                        (1, Poly.const(2 * l, 1))])
        return PolynomialConnection(l, degree, gamma)

    monkeypatch.setattr(verify, "random_connection", broken)
    reports = verify.fedosov_suite(1, SEED, n_connections=2, n_points=2)
    assert [r.status for r in reports] == ["fail", "pass", "pass"]
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(reports[0].counterexample))
    monkeypatch.undo()
    assert main(["--replay", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["reproduced"] is True


def _flip_the_first_pair(monkeypatch):
    """Plant a sign flip of omega on the single pair (0, l) of the partner map,
    in every sympspin module that holds the map."""
    partners = symplectic.omega_partners

    def flipped(l):
        table = list(partners(l))
        table[0], table[l] = (l, -1), (0, 1)
        return tuple(table)

    for name, module in list(sys.modules.items()):
        if name.startswith("sympspin") and getattr(module, "omega_partners", None) is partners:
            monkeypatch.setattr(module, "omega_partners", flipped)
    assert forms.omega_partners is flipped


def test_planted_sign_flip_of_omega_fails_the_clifford_side_and_replays(
        tmp_path, monkeypatch, capsys):
    # The flipped form is still a symplectic form, and the curvature-side
    # checks only use omega consistently, so lemma6, lemma7 and fedosov pass
    # under it.  Only checks that meet the fixed Clifford action e_i, which
    # realizes the unflipped omega, notice.  Flipping the same two entries of
    # the omega matrices failed 14 records of the default run at l = 2 and two
    # trials: lemma1, lemma4, lemma5 idempotency and orthogonality, theorem9,
    # theorem10, symbol-complex and every display record.
    _flip_the_first_pair(monkeypatch)
    path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "2", "--format", "json"]
    for suite in ("lemma1", "lemma4", "lemma6", "lemma7", "fedosov"):
        argv += ["--suite", suite]
    assert main([*argv, "--out", str(path)]) == 1
    report = json.loads(path.read_text())
    failed = sorted(c["name"] for c in report["checks"] if c["status"] == "fail")
    assert failed == ["lemma1", "lemma4"]
    capsys.readouterr()
    assert main(["--replay", str(path)]) == 1
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert results == [{"check": name, "status": "fail", "reproduced": True} for name in failed]
    monkeypatch.undo()
    assert main(["--replay", str(path)]) == 0
