"""The Clifford relation e_a.e_b - e_b.e_a = -i omega_ab in place of products.

Two fast paths use the relation that lemma1 decides instead of forming
Clifford products: `spinors._quadratic_into` merges a product with its
mirror in the same slot, and `forms._two_form_parts` builds p20 as the
omega-wedge -(i/l) sum_a e^a ∧ e^{a+l} ⊗ Y^2 phi.  Each is compared here,
exactly, with the literal computation it replaces: the quadratic kernel with
`oracles.quadratic_into`, which forms every product as written, and p20 with
(1/l) X(X(Y^2 phi)) through the package's X.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from sympspin.exact import GaussianRational, RandomStream
from sympspin.forms import SpinorForm, _two_form_parts, op_X, op_Y, random_form
from sympspin.spinors import DegreeCapError, PolySpinor, _from_acc, _quadratic_into, random_spinor

F = Fraction
GR = GaussianRational


def _mixed_spinor(l, seed, cap=8):
    """A random spinor whose coefficients sit over different denominators, so
    that a first product e_b.s can reduce to a smaller denominator."""
    s = random_spinor(l, 3, cap, RandomStream(seed), terms=6)
    s = s + PolySpinor.monomial(l, cap, (1,) + (0,) * (l - 1), GR(F(1, 6), F(-5, 4)))
    assert len({x.denominator for c in s.coeffs.values() for x in (c.re, c.im) if x}) > 1
    return s


def _symmetric(l, stream, slots):
    n = 2 * l
    terms = [[] for _ in range(n)]
    for slot in range(slots):
        for a in range(n):
            for b in range(a, n):
                f = stream.next_int(-4, 4)
                if f:
                    terms[b].append((slot, a, f))
                    if a != b:
                        terms[a].append((slot, b, f))
    return terms


def _asymmetric(l, stream, slots):
    n = 2 * l
    return [[(slot, a, f) for slot in range(slots) for a in range(n)
             if (f := stream.next_int(-4, 4))] for _b in range(n)]


def _diagonal(l, stream, slots):
    return [[(slot, b, stream.next_int(1, 4)) for slot in range(slots)] for b in range(2 * l)]


def _partners(l, stream, slots):
    """Partner products e_a.(e_{a+l}.s) and e_{a+l}.(e_a.s): with their mirror
    in slot 0 (equal or different coefficients), alone in slots 1 and 2, and
    one repeated in a row."""
    n = 2 * l
    terms = [[] for _ in range(n)]
    for a in range(l):
        f, g = stream.next_int(1, 5), stream.next_int(-5, 5) or 1
        terms[a + l].append((0, a, f))
        terms[a].append((0, a + l, g if a % 2 else f))
        terms[a + l].append((1, a, f))
        terms[a].append((2, a + l, g))
        terms[a].append((2, a + l, f))
    return terms


TABLES = {"symmetric": _symmetric, "asymmetric": _asymmetric,
          "diagonal": _diagonal, "partners": _partners}


def _spinors(accs, s):
    return {slot: _from_acc(s.l, s.cap, acc, s.den) for slot, acc in accs.items()}


def _assert_same_slots(fast, naive, s):
    fast, naive = _spinors(fast, s), _spinors(naive, s)
    zero = PolySpinor.zero(s.l, s.cap)
    for slot in fast.keys() | naive.keys():
        assert fast.get(slot, zero) == naive.get(slot, zero), slot


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("table", list(TABLES))
def test_merged_quadratic_sums_match_the_literal_kernel(l, table):
    stream = RandomStream(900 + 10 * l + len(table))
    for trial in range(4):
        terms = TABLES[table](l, stream, 3)
        for s in (_mixed_spinor(l, 950 + trial), PolySpinor.zero(l, 8)):
            _assert_same_slots(_quadratic_into(s, terms), oracles.quadratic_into(s, terms), s)


@pytest.mark.parametrize("l", [2, 3])
def test_a_merged_partner_product_never_truncates_at_the_cap(l):
    # At the cap the literal e_{a+l}.(e_a.s) raises; the merged pair needs
    # only e_a.(e_{a+l}.s), and equals the literal sum taken with room to spare.
    top = PolySpinor.monomial(l, 4, (0,) * (l - 1) + (4,), GR(F(2, 3), 1))
    s = random_spinor(l, 3, 4, RandomStream(970 + l), terms=6) + top
    assert s.headroom() == 0
    terms = [[] for _ in range(2 * l)]
    for a in range(l):
        terms[a + l].append((0, a, 3))
        terms[a].append((0, a + l, -2))
    with pytest.raises(DegreeCapError):
        oracles.quadratic_into(s, terms)
    roomy = PolySpinor(l, 6, s.coeffs)
    want = _from_acc(l, 6, oracles.quadratic_into(roomy, terms)[0], roomy.den)
    got = _from_acc(l, 4, _quadratic_into(s, terms)[0], s.den)
    assert got == want


def _literal_p20(phi):
    return op_X(op_X(op_Y(op_Y(phi)))).scale(F(1, phi.l))


@pytest.mark.parametrize("l", [2, 3, 4])
def test_omega_wedge_p20_matches_x_squared_of_y_squared(l):
    stream = RandomStream(980 + l)
    no_partner_pair = random_form(l, 2, 2, 8, stream, terms_per_component=2)
    no_partner_pair = SpinorForm(l, 2, 8, {t: s for t, s in no_partner_pair.components.items()
                                           if t[1] != t[0] + l})
    cases = [SpinorForm.zero(l, 2, 8), no_partner_pair]
    cases += [random_form(l, 2, 3, 8, stream, terms_per_component=3) for _ in range(3)]
    for phi in cases:
        p20 = _two_form_parts(phi)[0]
        assert p20 == _literal_p20(phi)
        assert set(p20.components) <= {(a, a + l) for a in range(l)}
    assert _two_form_parts(no_partner_pair)[0].is_zero()
    assert not _two_form_parts(cases[-1])[0].is_zero()
    assert all(t in cases[-1].components for t in combinations(range(2 * l), 2))
