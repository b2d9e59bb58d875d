"""The zero test `forms._vanishes` and the verdicts it decides.

`_vanishes` decides sum c_k F_k = 0 one tuple at a time on cross-multiplied
Gaussian-integer numerators and builds no sum, scaled copy or p22.  It is
checked here against building the sum with `scale` and `+`.  The theorem9,
theorem10, corollary11, symbol-complex and lemma5 partition verdicts it
decides are checked against `oracles`, which keeps the formulas that built
p22, the scaled displays and their sums, on random instances at l = 2 and 3,
healthy and under planted defects.  Defects that only the p21 normalization or the p22
subtraction would show still fail their checks, and an action that is not
additive in the tensor fails corollary11, decided on its three actions alone.
"""

import json
from fractions import Fraction
from math import lcm

import pytest

import oracles
import sympspin.forms as forms
import sympspin.spinors as spinors
import sympspin.verify as verify
from sympspin.cli import main
from sympspin.curvature import RicciTensor, random_curvature, random_weyl
from sympspin.exact import GaussianRational, RandomStream
from sympspin.forms import SpinorForm, _vanishes, random_form
from sympspin.spinors import FIELD_BITS, PolySpinor, random_spinor

F = Fraction
GR = GaussianRational

# +-1, +-i/q, p/q, 1 + i, and real and imaginary parts over different denominators
SCALARS = [1, -1, GR(0, F(1, 3)), GR(0, F(-1, 3)), F(2, 3), F(-5, 4), GR(1, 1), GR(F(1, 2), F(-2, 3))]


def _built(terms) -> bool:
    """sum c F = 0, decided by building the sum with `scale` and `+`."""
    total = None
    for c, phi in terms:
        total = phi.scale(c) if total is None else total + phi.scale(c)
    return total.is_zero()


@pytest.mark.parametrize("l", [2, 3])
def test_zero_test_matches_building_the_sum(l):
    stream = RandomStream(900 + l)
    one = random_form(l, 2, 2, stream, terms_per_component=2)
    # components over other denominators than those of `one`
    two = random_form(l, 2, 2, stream, terms_per_component=3).scale(GR(F(3, 7), F(-1, 2)))
    first = min(one.components)
    short = SpinorForm(l, 2, {t: s for t, s in one.components.items() if t != first})
    # one monomial of one component missing
    kept = dict(list(one.components[first].coeffs.items())[1:])
    trimmed = SpinorForm(l, 2, {**one.components, first: PolySpinor(l, kept)})
    zero = SpinorForm.zero(l, 2)
    outcomes = []
    for a in SCALARS:
        for b in SCALARS:
            both = one.scale(a) + two.scale(b)
            cases = [
                [(a, one), (-a, one)],                       # equal forms
                [(a, one), (-b, one)],                       # equal only if a == b
                [(a, one), (-a, two)],                       # unequal forms
                [(a, one), (-a, short)],                     # a component missing on one side
                [(a, short), (-a, one)],
                [(a, one), (-a, trimmed)],                   # a monomial missing on one side
                [(a, trimmed), (-a, one)],
                [(a, one), (b, two), (-1, both)],
                [(a, one), (b, two), (1, both)],
                [(a, one), (b, short), (-1, both)],
                [(-1, both), (a, one), (b, two)],
                [(a, one), (b, two), (-1, both), (b, one), (-b, one)],
                [(0, two), (b, one), (-b, one)],             # a zero scalar adds nothing
                [(a, zero), (b, one), (-b, one)],            # and so does a zero form
            ]
            for terms in cases:
                got = _vanishes(*terms)
                assert got == _built(terms), (a, b, terms)
                outcomes.append(got)
            assert _vanishes((a, one), (b, two), (-1, both))
            assert not _vanishes((a, one), (b, short), (-1, both))
    assert _vanishes((1, zero), (-1, zero)) and not _vanishes((1, one))
    assert set(outcomes) == {False, True}


def test_zero_test_reads_past_a_cancelled_monomial():
    # A = x0 + 2 x1 and B = -x0 on e^0 ∧ e^1, all over 1: A + B leaves a
    # cancelled x0 in the running sum, an entry that must read as zero, and
    # the last term, A + B = 2 x1, does not hold it
    def form(coeffs):
        return SpinorForm(2, 2, {(0, 1): PolySpinor(2, coeffs)})

    a, b = form({(1, 0): 1, (0, 1): 2}), form({(1, 0): -1})
    total = a + b
    assert total == form({(0, 1): 2})
    for c in (1, -1, GR(0, 1), GR(1, 1), F(2, 3)):
        assert _vanishes((c, a), (c, b), (-c, total))
        assert _vanishes((-c, total), (c, a), (c, b))
        assert not _vanishes((c, a), (c, b), (-c, a))
        assert not _vanishes((c, a), (c, b), (c, total))
        assert not _vanishes((c, a), (-c, total))      # x0 is left over
        assert not _vanishes((c, total), (-c, a))


# ---------------------------------------------------------------------------
# The verdicts against the formulas that built p22 and scaled copies
# ---------------------------------------------------------------------------


class _HalfBecomesOne(Fraction):
    """Fraction(1, 2) comes out as 1: at l = 3 it doubles the i/(l-1) of p21
    in `forms._two_form_parts`, the only place `forms` builds a half."""

    def __new__(cls, numerator=0, denominator=None):
        if (numerator, denominator) == (1, 2):
            return Fraction(1)
        return Fraction(numerator, denominator)


def _plant_kernel(monkeypatch, kernel):
    for module in (spinors, forms, verify):
        monkeypatch.setattr(module, "_clifford_into", kernel)


def _flipped_unit_i(monkeypatch):
    kernel = spinors._clifford_into
    _plant_kernel(monkeypatch, lambda acc, num, i, l, f:
                  kernel(acc, num, i, l, -f if i < l else f))


def _diff_x_wrong_field(monkeypatch):
    steps = spinors._clifford_steps

    def wrong_field(l):
        up, down = steps(l)[:l], steps(l)[l:]
        return up + tuple((FIELD_BITS * ((v + 1) % l), step) for v, (_, step) in enumerate(down))

    monkeypatch.setattr(spinors, "_clifford_steps", wrong_field)


def _read_off_i_sign(monkeypatch):
    read_off = spinors._from_acc

    def wrong_sign(l, acc, den, times_i=False):
        s = read_off(l, acc, den)
        if not times_i:
            return s
        return spinors._spinor(l, {a: (im, re) for a, (re, im) in s.num.items()}, s.den)

    for module in (spinors, forms, verify):
        monkeypatch.setattr(module, "_from_acc", wrong_sign)


def _halved_action(monkeypatch):
    action = verify.spinor_curvature_action
    monkeypatch.setattr(verify, "spinor_curvature_action",
                        lambda T, phi: action(T, phi).scale(F(1, 2)))


def _action_without_den(monkeypatch):
    # act(T) times T.den is not additive in T: act(R) != act(sigma_tilde) +
    # act(W) once the three tensors have different denominators
    action = verify.spinor_curvature_action
    monkeypatch.setattr(verify, "spinor_curvature_action",
                        lambda T, phi: action(T, phi).scale(T.den))


def _unscaled_common_den(monkeypatch):
    monkeypatch.setattr(spinors, "_common_den", lambda dens: (lcm(*dens), [1] * len(dens)))
    monkeypatch.setattr(forms, "_common_den", spinors._common_den)


DEFECTS = {
    "healthy": lambda monkeypatch: None,
    "flipped-unit-i": _flipped_unit_i,
    "diff-x-wrong-field": _diff_x_wrong_field,
    "read-off-i-sign": _read_off_i_sign,
    "halved-action": _halved_action,
    "doubled-p21": lambda monkeypatch: monkeypatch.setattr(forms, "Fraction", _HalfBecomesOne),
    "unscaled-common-den": _unscaled_common_den,
    "action-without-T.den": _action_without_den,
}


def _verdicts(report):
    return report.status == "pass", list(report.displays)


@pytest.mark.parametrize("defect", list(DEFECTS))
@pytest.mark.parametrize("l", [2, 3])
def test_zero_test_verdicts_match_the_built_forms(l, defect, monkeypatch):
    DEFECTS[defect](monkeypatch)
    stream = RandomStream(930 + l)
    degree = 3 if l == 2 else 2
    results = []
    for trial in range(2):
        sigma = RicciTensor.random(l, stream)
        W, R = random_weyl(l, 940 + trial), random_curvature(l, 950 + trial)
        phi = random_spinor(l, degree, stream)
        xi = [stream.next_fraction(5) for _ in range(2 * l)]
        eta = random_form(l, 1, degree, stream)
        for decide, oracle, instance in (
                (verify.verify_theorem9, oracles.theorem9_verdicts, (sigma, phi)),
                (verify.verify_theorem10, oracles.theorem10_verdicts, (W, phi)),
                (verify.verify_corollary11, oracles.corollary11_verdicts, (R, phi))):
            got = _verdicts(decide(*instance))
            assert got == oracle(*instance)
            results.append(got)
        symbol = (verify.symbol_complex_instance(xi, eta), verify.symbol_negative_control(xi, eta))
        assert symbol == oracles.symbol_complex_verdicts(xi, eta)
        results.append((all(symbol), []))
        one_form, two_form = eta, random_form(l, 2, degree, stream)
        # the verdict, not the degree it names: with `_common_den` unscaled,
        # p11 = phi - p10 and the zero test misread in step, so only the
        # two-form sum shows it, where the built sums fail at the one-forms
        partition = verify.lemma5_partition_instance(one_form, two_form)
        expected = oracles.lemma5_partition_verdict(one_form, two_form)
        assert (partition is None) == (expected is None)
        assert defect != "healthy" or partition is None
    # a defect that changes no main or corrected verdict would test nothing
    bites = not all(ok and all(c for _, c in pairs) for ok, pairs in results)
    assert bites == (defect != "healthy" and (defect, l) != ("doubled-p21", 2))


# ---------------------------------------------------------------------------
# Defects in the p21 normalization, the p22 subtraction and the action's additivity
# ---------------------------------------------------------------------------


def test_a_doubled_p21_normalization_fails_theorem9_and_symbol_complex(monkeypatch):
    # theorem9 and symbol-complex decide p22 = 0 as phi = p20 + p21, so a
    # wrong p21 must still fail both
    monkeypatch.setattr(forms, "Fraction", _HalfBecomesOne)
    assert verify.theorem9_suite(3, 2, 2, 42).status == "fail"
    assert verify.symbol_complex_suite(3, 2, 2, 42)[0].status == "fail"
    monkeypatch.undo()
    assert verify.theorem9_suite(3, 2, 2, 42).status == "pass"
    assert verify.symbol_complex_suite(3, 2, 2, 42)[0].status == "pass"


def test_p22_with_a_flipped_sign_fails_lemma5_and_replays(tmp_path, monkeypatch, capsys):
    # The planted defect: p22 = phi - p20 + p21.  p22 is built only when
    # `project` is asked for it, which only lemma5 does in a run: at l = 2,
    # trials = 2 (seed 42) exactly its three checks fail, and the theorem and
    # symbol-complex verdicts, which read p20 and p21 alone, pass.
    project = forms.project

    def flipped(which, phi):
        if which != "p22":
            return project(which, phi)
        return phi - project("p20", phi) + project("p21", phi)

    for module in (forms, verify):
        monkeypatch.setattr(module, "project", flipped)
    report_path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "2", "--format", "json", "--out", str(report_path)]
    assert main(argv) == 1
    checks = json.loads(report_path.read_text())["checks"]
    assert {c["name"] for c in checks if c["status"] == "fail"} == {
        "lemma5.idempotency", "lemma5.orthogonality", "lemma5.partition-of-identity"}
    ce_path = tmp_path / "ce.json"
    ce_path.write_text(json.dumps(next(c["counterexample"] for c in checks
                                       if c["name"] == "lemma5.partition-of-identity")))
    capsys.readouterr()
    assert main(["--replay", str(ce_path)]) == 1
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    monkeypatch.undo()
    assert main(["--replay", str(ce_path)]) == 0


def test_a_non_additive_action_fails_corollary11_and_replays(tmp_path, monkeypatch, capsys):
    # corollary11 decides act(R) = act(sigma_tilde) + act(W) as one zero test;
    # an action that forgets T.den breaks it, and its counterexample replays
    _action_without_den(monkeypatch)
    report_path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "2", "--suite", "corollary11", "--format", "json",
            "--out", str(report_path)]
    assert main(argv) == 1
    checks = json.loads(report_path.read_text())["checks"]
    main_check = next(c for c in checks if c["name"] == "corollary11")
    assert main_check["status"] == "fail"
    ce_path = tmp_path / "ce.json"
    ce_path.write_text(json.dumps(main_check["counterexample"]))
    capsys.readouterr()
    assert main(["--replay", str(ce_path)]) == 1
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    monkeypatch.undo()
    assert main(["--replay", str(ce_path)]) == 0
