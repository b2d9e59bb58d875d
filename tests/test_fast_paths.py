"""Differential tests of the spinor fast paths against the naive oracles.

The package multiplies by units by negating or swapping coefficient parts,
builds arithmetic results without re-validating them, folds the curvature
action and the eq. 11 display, and computes XY and X^2Y^2 once per 2-form.
Each of these is compared here, at l = 2 and l = 3, with the checked and
unfolded reference in `oracles`, and two planted defects show that the suites
catch a broken fast path.
"""

import json
from fractions import Fraction

import pytest

import oracles
import sympspin.verify as verify
from sympspin.cli import main
from sympspin.curvature import RicciTensor, random_curvature, random_weyl, sigma_tilde_of
from sympspin.exact import GR_I, GaussianRational, RandomStream
from sympspin.forms import _two_form_parts, op_Y, project, random_form
from sympspin.spinors import DegreeCapError, PolySpinor, clifford_basis, random_spinor

F = Fraction
GR = GaussianRational

SCALARS = [
    0, 1, -1, 3, F(-2, 7), GR(1), GR(-1), GR(0, 1), GR(0, -1), GR(F(5, 3)), GR(0, F(-3, 4)),
    GR(F(1, 2), F(-2, 3)), GR(-4, 1),
]


def assert_valid(s: PolySpinor) -> None:
    """s equals its re-validated copy and stores no zero or uncoerced coefficient."""
    assert s == PolySpinor(s.l, s.cap, s.coeffs)
    for c in s.coeffs.values():
        assert type(c) is GaussianRational and c
        assert type(c.re) is Fraction and type(c.im) is Fraction


def assert_valid_form(phi) -> None:
    for s in phi.components.values():
        assert s.cap == phi.cap and not s.is_zero()
        assert_valid(s)


def spinors(l, seed, count=3, degree=3, cap=7):
    stream = RandomStream(seed)
    return [random_spinor(l, degree, cap, stream, terms=5) for _ in range(count)]


# ---------------------------------------------------------------------------
# Scalars and spinor arithmetic
# ---------------------------------------------------------------------------


def test_gaussian_products_match_four_multiply():
    stream = RandomStream(3)
    values = [stream.next_gaussian(5) for _ in range(6)] + [GR(0, F(2, 3)), GR(F(-1, 4))]
    for a in values:
        for b in values + [2, F(-3, 5)]:
            prod = a * b
            assert prod == oracles.gr_mul(a, b)
            assert type(prod.re) is Fraction and type(prod.im) is Fraction
        assert -a == GR(-a.re, -a.im)
        assert a - values[0] == GR(a.re - values[0].re, a.im - values[0].im)


@pytest.mark.parametrize("l", [2, 3])
def test_spinor_arithmetic_matches_checked_oracle(l):
    s, t, u = spinors(l, 10 + l)
    cases = [
        (s + t, oracles.spinor_add(s, t)),
        (s + (-s), oracles.spinor_add(s, oracles.spinor_neg(s))),
        (s - u, oracles.spinor_add(s, oracles.spinor_neg(u))),
        (-t, oracles.spinor_neg(t)),
    ]
    cases += [(s.scale(c), oracles.spinor_scale(s, c)) for c in SCALARS]
    cases += [(t * c, oracles.spinor_scale(t, c)) for c in SCALARS]
    for var in range(l):
        cases += [(s.mult_x(var), oracles.spinor_mult_x(s, var)),
                  (s.diff_x(var), oracles.spinor_diff_x(s, var))]
    for i in range(2 * l):
        cases.append((clifford_basis(i, u), oracles.clifford(i, u)))
    for fast, naive in cases:
        assert fast == naive
        assert_valid(fast)


@pytest.mark.parametrize("l", [2, 3])
def test_clifford_raises_at_the_cap(l):
    for i in range(l):
        top = PolySpinor.monomial(l, 4, (4,) + (0,) * (l - 1), GR(F(2, 3), 1))
        with pytest.raises(DegreeCapError):
            clifford_basis(i, top)
        # momentum generators lower the degree, so the cap never stops them
        assert_valid(clifford_basis(i + l, top))


def test_sum_keeps_the_larger_cap():
    s = PolySpinor.monomial(2, 3, (3, 0))
    t = PolySpinor.monomial(2, 6, (0, 5), GR_I)
    total = s + t
    assert total.cap == 6 and total == oracles.spinor_add(s, t)
    assert_valid(total)


# ---------------------------------------------------------------------------
# The folded action, the folded eq. 11 display and the two-form projectors
# ---------------------------------------------------------------------------


def _tensors(l, seed):
    R = random_curvature(l, seed)
    return [R, sigma_tilde_of(RicciTensor.random(l, RandomStream(seed))), random_weyl(l, seed + 1)]


@pytest.mark.parametrize("l", [2, 3])
def test_folded_action_matches_unfolded_oracle(l):
    phi = random_spinor(l, 2, 8, RandomStream(20 + l), terms=3)
    for T in _tensors(l, 40 + l):
        act = verify.spinor_curvature_action(T, phi)
        assert act == oracles.spinor_curvature_action(T, phi)
        assert_valid_form(act)


@pytest.mark.parametrize("l", [2, 3])
def test_folded_eq11_display_matches_unfolded_oracle(l):
    phi = random_spinor(l, 2 if l == 2 else 1, 8, RandomStream(30 + l), terms=3 if l == 2 else 2)
    W = random_weyl(l, 50 + l)
    lit = verify.literal_p21_weyl(W, phi)
    assert lit == oracles.literal_p21_weyl(W, phi)
    assert_valid_form(lit)


@pytest.mark.parametrize("l", [2, 3])
def test_two_form_parts_match_separate_projectors(l):
    stream = RandomStream(60 + l)
    phi = random_spinor(l, 2, 8, stream, terms=3)
    forms = [random_form(l, 2, 2, 8, stream, terms_per_component=2),
             verify.spinor_curvature_action(random_curvature(l, 70 + l), phi)]
    for form in forms:
        p20, p21, p22, yy = _two_form_parts(form)
        assert yy == op_Y(op_Y(form))
        for which, part in (("p20", p20), ("p21", p21), ("p22", p22)):
            assert part == oracles.project(which, form) == project(which, form)
            assert_valid_form(part)
    one_form = random_form(l, 1, 2, 8, stream, terms_per_component=2)
    for which in ("p10", "p11"):
        assert project(which, one_form) == oracles.project(which, one_form)


# ---------------------------------------------------------------------------
# Planted defects
# ---------------------------------------------------------------------------


def test_flipped_unit_i_fails_lemma1_and_replays(tmp_path, monkeypatch, capsys):
    # The planted defect: the +i fast path of PolySpinor.scale returns -i s.
    # Every e_i with i < l then acts as -i x^i, which flips the sign of the
    # Clifford commutator.  At l = 2, trials = 2 (seed 42) exactly these six
    # records fail: lemma1, lemma4, lemma5.idempotency, lemma5.orthogonality,
    # theorem9.eq9-display and corollary11.p20-display.  The theorem verdicts
    # themselves still pass; lemma1 is the check that decides the unit.
    scale = PolySpinor.scale

    def flipped(self, scalar):
        if isinstance(scalar, GaussianRational) and scalar == GR_I:
            return scale(self, -GR_I)
        return scale(self, scalar)

    monkeypatch.setattr(PolySpinor, "scale", flipped)
    report_path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "2", "--format", "json", "--out", str(report_path)]
    assert main(argv) == 1
    checks = json.loads(report_path.read_text())["checks"]
    failing = {c["name"] for c in checks if c["status"] == "fail"}
    assert failing == {
        "lemma1", "lemma4", "lemma5.idempotency", "lemma5.orthogonality",
        "theorem9.eq9-display", "corollary11.p20-display",
    }
    ce_path = tmp_path / "lemma1.json"
    ce_path.write_text(json.dumps(next(c["counterexample"] for c in checks
                                       if c["name"] == "lemma1")))
    capsys.readouterr()
    assert main(["--replay", str(ce_path)]) == 1
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    monkeypatch.undo()
    assert main(["--replay", str(ce_path)]) == 0


def test_halved_action_fails_the_corrected_eq9_display(monkeypatch):
    # The planted defect: the folded action applies i/2 per slot instead of
    # (i/2) * 2 = i.  The main theorem9 verdict cannot catch it, because p22
    # of half an action is still zero; the corrected eq. 9 display, which
    # compares p20 with the normalized printed formula, turns false.
    stream = RandomStream(9)
    sigma = RicciTensor.random(2, stream)
    phi = random_spinor(2, 3, 9, stream)
    healthy = verify.verify_theorem9(sigma, phi)
    assert healthy.status == "pass" and healthy.displays[0].corrected_match is True

    action = verify.spinor_curvature_action
    monkeypatch.setattr(verify, "spinor_curvature_action",
                        lambda T, phi: action(T, phi).scale(F(1, 2)))
    broken = verify.verify_theorem9(sigma, phi)
    assert broken.status == "pass"
    assert broken.displays[0].display == "eq9"
    assert broken.displays[0].corrected_match is False
