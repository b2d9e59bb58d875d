"""Each form is projected once: `project` keeps a form's parts on the form.

The parts of a form are computed on its first projection and read back on
every later one.  These tests pin three things: the kept parts equal the
naive projectors of `oracles` (on zero forms, mixed denominators and forms
at and near their cap); repeated projections run no X or Y; and the memo hides no
defect, since a wrong normalization still fails lemma5 and replays.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

import oracles
import sympspin.forms as forms
from sympspin.cli import main
from sympspin.exact import GaussianRational, RandomStream
from sympspin.forms import (
    PROJECTORS,
    SpinorForm,
    project,
    random_form,
    spinor_form_from_json,
    spinor_form_to_json,
)
from sympspin.spinors import DegreeCapError
from sympspin.verify import lemma5_suite

F = Fraction
GR = GaussianRational


def _names(r):
    return [p for p in PROJECTORS if int(p[1]) == r]


def _mixed(l, r, seed):
    """A form whose components sit over different denominators."""
    phi = random_form(l, r, 2, 9, RandomStream(seed), terms_per_component=3)
    scales = [F(1, 2), GR(F(2, 3), F(-1, 5)), 7, GR(0, F(3, 4)), F(-5, 9)]
    return SpinorForm(l, r, 9, {t: s.scale(scales[n % len(scales)])
                                for n, (t, s) in enumerate(sorted(phi.components.items()))})


def _cases(l, r):
    yield SpinorForm.zero(l, r, 6)
    yield random_form(l, r, 3, 9, RandomStream(400 + 10 * l + r), terms_per_component=3)
    yield _mixed(l, r, 500 + 10 * l + r)
    for headroom in range(4):        # headroom 0: a form at its cap
        yield random_form(l, r, 4, 4 + headroom, RandomStream(600 + headroom),
                          terms_per_component=2)


def _oracle_parts(phi):
    """Every oracle projection of phi, or None when its chain passes the cap.
    The package computes all the parts of a form at once and raises when any
    of its steps does; on these cases that is exactly when the oracle's
    fullest chain (XY, and X^2Y^2 for 2-forms) does.  The package's X^2Y^2
    is the omega-wedge of Y^2 and never passes the cap itself, but Y^2 of a
    2-form has at most the form's degree, so the oracle's X(X(Y^2)) passes it
    only near the cap, where the package's Y or XY already does."""
    try:
        return {which: oracles.project(which, phi) for which in _names(phi.r)}
    except DegreeCapError:
        return None


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_memoized_projections_match_the_oracle(l, r):
    outcomes = set()
    for phi in _cases(l, r):
        expected = _oracle_parts(phi)
        outcomes.add(expected is None)
        for _ in range(2):           # the first call fills the memo, the second reads it
            for which in _names(r):
                if expected is None:
                    # a failed projection leaves nothing behind: it raises again
                    with pytest.raises(DegreeCapError):
                        project(which, phi)
                else:
                    assert project(which, phi) == expected[which]
        assert (phi._parts is None) == (expected is None)
    assert outcomes == {False, True}


def test_the_memo_stays_out_of_equality_and_json():
    # a form is unhashable (it defines __eq__ alone), so hashing is moot
    phi = random_form(2, 2, 3, 9, RandomStream(700))
    twin = spinor_form_from_json(spinor_form_to_json(phi))
    project("p21", phi)
    assert phi._parts is not None and twin._parts is None
    assert phi == twin
    assert spinor_form_to_json(phi) == spinor_form_to_json(twin)
    with pytest.raises(AttributeError):
        phi._parts = None


@pytest.fixture
def op_calls(monkeypatch):
    """Counts of ("X" or "Y", degree of the argument) over every X and Y the
    projectors run."""
    calls = Counter()

    def counted(name, fn):
        def wrapped(phi):
            calls[name, phi.r] += 1
            return fn(phi)
        return wrapped

    monkeypatch.setattr(forms, "op_X", counted("X", forms.op_X))
    monkeypatch.setattr(forms, "op_Y", counted("Y", forms.op_Y))
    return calls


@pytest.mark.parametrize("l", [2, 3])
def test_projecting_a_form_again_runs_no_x_or_y(l, op_calls):
    stream = RandomStream(800 + l)
    one, two = random_form(l, 1, 2, 8, stream), random_form(l, 2, 2, 8, stream)
    for which in PROJECTORS:
        project(which, one if which[1] == "1" else two)
    # one XY for the 1-form; one Y, Y^2 and XY for the 2-form, whose X^2Y^2
    # is the omega-wedge of Y^2 and runs no X
    assert op_calls == Counter({("Y", 1): 2, ("X", 0): 1, ("Y", 2): 1, ("X", 1): 1})
    first = dict(op_calls)
    for which in PROJECTORS:
        project(which, one if which[1] == "1" else two)
    forms._two_form_parts(two)
    assert dict(op_calls) == first


def test_one_lemma5_trial_builds_one_chain_per_distinct_form(op_calls):
    # the 2-form and its three parts; the 1-form and its two parts
    reports = lemma5_suite(2, 3, 1, 42)
    assert [r.status for r in reports] == ["pass"] * 3
    two_form_chains, one_form_xy = 4, 3
    assert op_calls == Counter({
        ("Y", 2): two_form_chains,
        ("Y", 1): two_form_chains + one_form_xy,
        ("X", 0): one_form_xy,
        ("X", 1): two_form_chains,
    })


class _HalfBecomesOne(Fraction):
    """Fraction(1, 2) comes out as 1.  At l = 3 that doubles the i/(l-1) of
    p21 in `forms._two_form_parts`, the only place `forms` builds a half, so
    the real function runs, memo and all, with a wrong normalization."""

    def __new__(cls, numerator=0, denominator=None):
        if (numerator, denominator) == (1, 2):
            return Fraction(1)
        return Fraction(numerator, denominator)


def test_a_wrong_p21_normalization_fails_lemma5_through_the_memo(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(forms, "Fraction", _HalfBecomesOne)
    reports = {r.theorem_id: r for r in lemma5_suite(3, 2, 2, 42)}
    idempotency = reports["lemma5.idempotency"]
    assert idempotency.status == "fail"
    assert idempotency.counterexample["projector"] == "p21"
    ce_path = tmp_path / "ce.json"
    ce_path.write_text(json.dumps(idempotency.counterexample))
    capsys.readouterr()
    assert main(["--replay", str(ce_path)]) == 1
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    monkeypatch.undo()
    assert main(["--replay", str(ce_path)]) == 0
