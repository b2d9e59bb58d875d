"""The curvature action on spinors and the theorem-level verification."""

import json
from fractions import Fraction
from itertools import permutations, product

import pytest

import oracles

from sympspin.connections import (
    Poly,
    PolynomialConnection,
    curvature_field_of,
    evaluate_curvature_at,
)
import sympspin.verify as verify
from sympspin.curvature import (
    CurvatureTensor,
    RicciTensor,
    _lowered_traces,
    _ricci_entries,
    _tensor,
    random_curvature,
    random_weyl,
    ricci_of,
    sigma_tilde_of,
)
from sympspin.exact import GaussianRational, RandomStream
from sympspin.forms import SpinorForm, op_Y, project, spinor_form_from_json, spinor_form_to_json
from sympspin.spinors import MAX_CAP, DegreeCapError, PolySpinor, clifford_basis, random_spinor
from sympspin.symplectic import omega_partners
from sympspin.cli import RunConfig, run_suite
from sympspin.verify import (
    SUITES,
    _aggregate_displays,
    equivariance_suite,
    fedosov_suite,
    replay_counterexample,
    spinor_curvature_action,
    symbol_complex_suite,
    theorem9_suite,
    verify_corollary11,
    verify_theorem9,
    verify_theorem10,
)

F = Fraction


# ---------------------------------------------------------------------------
# The action itself
# ---------------------------------------------------------------------------


def test_action_of_zero_tensor():
    phi = random_spinor(2, 3, RandomStream(1))
    assert spinor_curvature_action(CurvatureTensor.zero(2), phi).is_zero()


def test_action_additive_in_tensor_slot():
    phi = random_spinor(2, 3, RandomStream(2))
    R = random_curvature(2, 71)
    sigma = ricci_of(R)
    st = sigma_tilde_of(sigma)
    W = R - st
    lhs = spinor_curvature_action(R, phi)
    assert lhs == spinor_curvature_action(st, phi) + spinor_curvature_action(W, phi)


def test_action_requires_headroom():
    phi = PolySpinor.monomial(2, (MAX_CAP - 1, 0))
    with pytest.raises(DegreeCapError):
        spinor_curvature_action(random_curvature(2, 3), phi)


def _naive_action(R, phi):
    """Quadruple-loop oracle with its own sign bookkeeping: accumulate over
    ordered (k, m) pairs first, canonicalize to increasing tuples at the end;
    indices are raised by the matrix-sum oracle."""
    n = 2 * R.l
    raised = R.entries
    for slot in (0, 1):
        raised = oracles.raise_lower_index(raised, slot, "raise")
    half_i = GaussianRational(0, F(1, 2))
    raw = {}
    for i, j, k, m in product(range(n), repeat=4):
        c = raised[i][j][k][m]
        if not c:
            continue
        spin = clifford_basis(i, clifford_basis(j, phi)).scale(half_i * c)
        raw[(k, m)] = raw.get((k, m), PolySpinor.zero(phi.l)) + spin
    canon = {}
    for (k, m), s in raw.items():
        if k == m or s.is_zero():
            continue
        if k < m:
            canon[(k, m)] = canon.get((k, m), PolySpinor.zero(phi.l)) + s
        else:
            canon[(m, k)] = canon.get((m, k), PolySpinor.zero(phi.l)) - s
    canon = {t: s for t, s in canon.items() if not s.is_zero()}
    return SpinorForm(phi.l, 2, canon)


def test_action_matches_naive_loop_oracle():
    R = random_curvature(2, 13579)
    phi = random_spinor(2, 3, RandomStream(2468))
    assert spinor_curvature_action(R, phi) == _naive_action(R, phi)


# Golden: the action of the constant-coefficient flat-model curvature on the
# constant spinor, recorded after agreement with the naive loop oracle, when
# forms still carried a "cap"; the writer no longer emits that key.
GOLDEN_ACTION = {
    "l": 2,
    "r": 2,
    "cap": 8,
    "components": [
        {"tuple": [1, 2], "terms": [{"alpha": [1, 1], "re": "0", "im": "-4/3"}]},
        {"tuple": [1, 3], "terms": [{"alpha": [0, 2], "re": "0", "im": "2/9"}]},
        {"tuple": [1, 4], "terms": [{"alpha": [1, 1], "re": "0", "im": "2/9"}]},
        {"tuple": [2, 4], "terms": [{"alpha": [0, 2], "re": "0", "im": "4"}]},
    ],
}


def test_action_golden_constant_connection():
    base = {
        (0, 0, 0): F(1),
        (0, 0, 1): F(1, 2),
        (0, 2, 3): F(-1, 3),
        (1, 1, 3): F(2),
        (3, 3, 3): F(-1),
    }
    gamma = {}
    for idx, val in base.items():
        for perm in set(permutations(idx)):
            gamma[perm] = Poly.const(4, val)
    conn = PolynomialConnection(2, 0, gamma)
    R = evaluate_curvature_at(curvature_field_of(conn), [0, 0, 0, 0])
    phi = PolySpinor.one(2)
    act = spinor_curvature_action(R, phi)
    assert act == _naive_action(R, phi)
    assert spinor_form_to_json(act) == {k: v for k, v in GOLDEN_ACTION.items() if k != "cap"}
    assert spinor_form_from_json(GOLDEN_ACTION) == act


# ---------------------------------------------------------------------------
# Theorems
# ---------------------------------------------------------------------------


def _named_verdicts(suite, rep):
    """The report's verdict pairs, named by the suite's registry displays."""
    return {d.name: v for d, v in zip(SUITES[suite].displays, rep.displays, strict=True)}


def test_theorem9_instances():
    stream = RandomStream(42)
    for _ in range(3):
        sigma = RicciTensor.random(2, stream)
        phi = random_spinor(2, 4, stream)
        rep = verify_theorem9(sigma, phi)
        assert rep.status == "pass"
        verdicts = _named_verdicts("theorem9", rep)
        # the printed displays omit the sigma_tilde normalization 1/(2(l+1))
        assert verdicts == {"eq9": (False, True), "eq10": (False, True)}


def test_display_verdicts_and_across_trials():
    # a verdict holds only if it held on every trial; None (not evaluable)
    # stays None, whatever the other trials say
    per_trial = [[(True, True), (None, True)], [(False, True), (None, False)]]
    assert _aggregate_displays(per_trial) == [(False, True), (None, False)]
    assert _aggregate_displays([[(True, None)], [(True, None)], [(True, None)]]) == [(True, None)]


def test_theorem9_zero_ricci_everything_vanishes():
    phi = random_spinor(2, 4, RandomStream(7))
    rep = verify_theorem9(RicciTensor.zero(2), phi)
    assert rep.status == "pass"


def test_theorem10_instances():
    stream = RandomStream(43)
    for seed in (601, 602):
        W = random_weyl(2, seed)
        phi = random_spinor(2, 4, stream)
        rep = verify_theorem10(W, phi)
        assert rep.status == "pass"
        verdicts = _named_verdicts("theorem10", rep)
        # printed p21 display carries a spurious 2i; the p22 display's index
        # must be bound before it can be evaluated at all
        assert verdicts == {"eq11": (False, True), "eq12": (None, True)}


def test_theorem10_y_squared_annihilates_action():
    W = random_weyl(2, 777)
    phi = random_spinor(2, 4, RandomStream(8))
    act = spinor_curvature_action(W, phi)
    assert op_Y(op_Y(act)).is_zero()
    assert project("p20", act).is_zero()


def test_corollary11_additivity_and_displays():
    stream = RandomStream(44)
    R = random_curvature(2, 999)
    phi = random_spinor(2, 4, stream)
    rep = verify_corollary11(R, phi)
    assert rep.status == "pass"
    verdicts = _named_verdicts("corollary11", rep)
    assert verdicts == {
        "p20-display": (False, True),
        "p21-display": (False, True),
        "p22-display": (False, True),
    }


def test_corollary11_pure_ricci_kills_p22():
    sigma = RicciTensor.random(2, RandomStream(9))
    st = sigma_tilde_of(sigma)
    phi = random_spinor(2, 4, RandomStream(10))
    act = spinor_curvature_action(st, phi)
    assert project("p22", act).is_zero()


def test_corollary11_pure_weyl_kills_p20():
    W = random_weyl(2, 31337)
    phi = random_spinor(2, 4, RandomStream(11))
    act = spinor_curvature_action(W, phi)
    assert project("p20", act).is_zero()


# ---------------------------------------------------------------------------
# Symbol-level complex property
# ---------------------------------------------------------------------------


def test_symbol_complex_and_negative_control():
    reports = symbol_complex_suite(2, 4, 10, 31)
    main, negative = reports
    assert main.status == "pass"
    assert negative.status == "pass"
    assert negative.witness is not None
    # the recorded witness genuinely exhibits a nonzero p22(xi ^ p11(eta))
    from sympspin.forms import wedge_covector

    xi = [F(x) for x in negative.witness["xi"]]
    eta = spinor_form_from_json(negative.witness["eta"])
    assert not project("p22", wedge_covector(xi, project("p11", eta))).is_zero()


def test_verify_symbol_complex_wrapper():
    rep = symbol_complex_suite(2, 4, 5, 77)[0]
    assert rep.theorem_id == "symbol-complex"
    assert rep.status == "pass"


# ---------------------------------------------------------------------------
# Suites, skipping, determinism
# ---------------------------------------------------------------------------


LEMMA_SUITES = ("lemma1", "lemma4", "lemma5", "lemma6", "lemma7")


def test_lemma_suites_all_pass():
    report = run_suite(RunConfig(l=2, max_degree=4, trials=3, seed=1, suites=LEMMA_SUITES))
    names = [c.name for c in report.checks]
    assert names == [
        "lemma1",
        "lemma4",
        "lemma5.idempotency",
        "lemma5.orthogonality",
        "lemma5.partition-of-identity",
        "lemma6",
        "lemma7.weyl-trace-free",
        "lemma7.ricci-section",
    ]
    assert report.overall == "pass"


def test_zero_trials_reports_skipped_not_passed():
    report = run_suite(RunConfig(l=2, max_degree=4, trials=0, seed=1, suites=LEMMA_SUITES))
    assert [c.status for c in report.checks] == ["skipped"] * 8
    assert theorem9_suite(2, 4, 0, 1).status == "skipped"


def test_suite_reports_deterministic():
    a = [r._asdict() for name in LEMMA_SUITES for r in SUITES[name].run(2, 4, 2, 5)]
    b = [r._asdict() for name in LEMMA_SUITES for r in SUITES[name].run(2, 4, 2, 5)]
    assert json.dumps(a) == json.dumps(b)


def test_equivariance_suite():
    rep = equivariance_suite(2, 3, 5, 55)
    assert rep.status == "pass"


def test_equivariance_computes_the_action_on_the_form_once(monkeypatch):
    # per instance: the action on X(phi), on phi (shared by the X and Y
    # halves) and on Y(phi)
    calls = [0]
    action = verify.sp_action_form

    def counted(A, phi):
        calls[0] += 1
        return action(A, phi)

    monkeypatch.setattr(verify, "sp_action_form", counted)
    assert equivariance_suite(2, 3, 5, 55).status == "pass"
    assert calls[0] == 3 * 5


# The one-entry changes (index, multiple of R.den) that leave R's Ricci trace
# asymmetric at exactly the adjacent pair (i, i + 1) while R^{ijkl} omega_kl
# = 2 sigma^{ij} still holds entry by entry, at l = 2.
_ADJACENT_ASYMMETRIES = {
    (0, 1): (((0, 0, 2, 1), 1), ((1, 0, 0, 2), -2)),
    (1, 2): (((0, 1, 2, 2), 1), ((2, 1, 0, 2), 2)),
    (2, 3): (((0, 2, 2, 3), 1), ((3, 2, 0, 2), -2)),
}


@pytest.mark.parametrize("pair", list(_ADJACENT_ASYMMETRIES))
def test_lemma6_refuses_a_ricci_trace_asymmetric_at_an_adjacent_pair(pair):
    R = random_curvature(2, 3)
    num = [[[list(row) for row in plane] for plane in block] for block in R.num]
    for (a, b, c, d), k in _ADJACENT_ASYMMETRIES[pair]:
        num[a][b][c][d] += k * R.den
    bent = _tensor(2, num, R.den)
    sig = _ricci_entries(bent)
    assert {(i, j) for i in range(4) for j in range(i + 1, 4) if sig[i][j] != sig[j][i]} == {pair}
    trace = _lowered_traces(bent.num, omega_partners(2), ((2, 3),))[(2, 3)]
    assert all(trace[u][v] == 2 * sig[u][v] for u in range(4) for v in range(4))
    assert verify.lemma6_instance(R)
    assert not verify.lemma6_instance(bent)


def test_fedosov_suite():
    reports = fedosov_suite(2, 20250809, n_connections=1, n_points=2)
    assert [r.status for r in reports] == ["pass", "pass", "pass"]
    assert all(r.trials == 2 for r in reports)


def test_fedosov_suite_at_l3():
    reports = fedosov_suite(3, 20250810, n_connections=1, n_points=2)
    assert [r.status for r in reports] == ["pass", "pass", "pass"]


# ---------------------------------------------------------------------------
# Counterexample replay
# ---------------------------------------------------------------------------


def test_replay_roundtrip_passing_instance():
    # a healthy lemma1 instance replays as passing
    ce = {
        "check": "lemma1",
        "l": 2,
        "a": 1,
        "b": 3,
        "spinor": {"l": 2, "cap": 6, "terms": [{"alpha": [1, 1], "re": "1", "im": "0"}]},
    }
    result = replay_counterexample(ce)
    assert result == {"check": "lemma1", "status": "pass", "reproduced": False}


def test_replay_reproduces_genuine_failure():
    # a connection with broken symmetry genuinely fails the axiom check,
    # and the serialized counterexample reproduces that failure
    n = 4
    gamma = {idx: Poly.zero(n) for idx in product(range(n), repeat=3)}
    gamma[(0, 1, 1)] = Poly.const(n, 1)
    conn = PolynomialConnection(2, 0, gamma)
    from sympspin.connections import connection_to_json

    ce = {"check": "fedosov.axioms", "connection": connection_to_json(conn)}
    result = replay_counterexample(ce)
    assert result["status"] == "fail" and result["reproduced"] is True
    # deterministic: replaying again gives the same verdict
    assert replay_counterexample(ce) == result


def test_replay_unknown_check_rejected():
    with pytest.raises(ValueError):
        replay_counterexample({"check": "nonsense"})
