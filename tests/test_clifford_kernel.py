"""Differential tests of the packed-key Clifford accumulation kernel.

X, Y, the curvature action and the eq. 9, 10 and 11 displays sum whole forms
through `spinors._clifford_into` over one denominator.  Each is compared here,
exactly, at l = 2 and l = 3, with its naive oracle in `oracles` (one checked
Clifford product and one checked sum per term, raised indices): on random
forms whose components have different denominators, on forms with zero and
cancelling components, and at the degree cap, where both must raise
DegreeCapError on the same inputs.  The packed keys stay internal: `coeffs`,
`repr` and the JSON wire format still speak exponent tuples.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import oracles
import sympspin.verify as verify
from sympspin.curvature import RicciTensor, random_curvature, random_weyl, sigma_tilde_of
from sympspin.exact import GR_I, GaussianRational, RandomStream
from sympspin.forms import (
    SpinorForm,
    op_X,
    op_Y,
    random_form,
    spinor_form_from_json,
    spinor_form_to_json,
)
from sympspin.spinors import (
    FIELD_BITS,
    MAX_CAP,
    DegreeCapError,
    PolySpinor,
    _pack,
    _unpack,
    clifford_basis,
    poly_spinor_from_json,
    poly_spinor_to_json,
    random_spinor,
)

F = Fraction
GR = GaussianRational


def outcome(fast, naive, *args) -> str:
    """'raised' when the oracle raises DegreeCapError, which the fast path
    must then raise too; else 'equal', after asserting exact equality."""
    try:
        want = naive(*args)
    except DegreeCapError:
        with pytest.raises(DegreeCapError):
            fast(*args)
        return "raised"
    assert fast(*args) == want
    return "equal"


def mixed_form(l, r, seed, cap=8) -> SpinorForm:
    """A random degree-r form whose components sit over different
    denominators: component number c is divided by c + 1."""
    phi = random_form(l, r, 2, cap, RandomStream(seed), terms_per_component=3)
    items = sorted(phi.components.items())
    comps = {tup: s.scale(F(1, c + 1)) for c, (tup, s) in enumerate(items)}
    form = SpinorForm(l, r, cap, comps)
    if len(comps) > 1:
        assert len({s.den for s in form.components.values()}) > 1
    return form


# ---------------------------------------------------------------------------
# Packed keys behind the unchanged public views
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_packed_keys_round_trip_and_carry_the_degree_on_top(l):
    stream = RandomStream(200 + l)
    for _ in range(50):
        alpha = tuple(stream.next_int(0, 9) for _ in range(l))
        key = _pack(alpha)
        assert _unpack(key, l) == alpha
        assert key >> FIELD_BITS * l == sum(alpha)
    assert _pack((0,) * l) == 0
    # the top field makes key order refine degree order
    assert _pack((0,) * (l - 1) + (1,)) < _pack((2,) + (0,) * (l - 1))


def test_coeffs_repr_and_json_keep_exponent_tuples():
    s = PolySpinor(2, 5, {(2, 1): GR(F(3, 4), F(-1, 2)), (0, 0): GR_I, (0, 3): 2})
    assert set(s.coeffs) == {(2, 1), (0, 0), (0, 3)}
    assert s.coeffs[(2, 1)] == GR(F(3, 4), F(-1, 2))
    assert s.degree() == 3 and s.headroom() == 2
    assert repr(s) == "PolySpinor(l=2, (0, 0):GR(0, 1i), (0, 3):GR(2), (2, 1):GR(3/4, -1/2i))"
    assert poly_spinor_to_json(s) == {"l": 2, "cap": 5, "terms": [
        {"alpha": [0, 0], "re": "0", "im": "1"},
        {"alpha": [0, 3], "re": "2", "im": "0"},
        {"alpha": [2, 1], "re": "3/4", "im": "-1/2"},
    ]}
    assert poly_spinor_from_json(poly_spinor_to_json(s)) == s
    for l in (2, 3):
        phi = mixed_form(l, 2, 210 + l)
        assert spinor_form_from_json(spinor_form_to_json(phi)) == phi
        for t in phi.components.values():
            assert all(type(a) is tuple and len(a) == l for a in t.coeffs)
            assert poly_spinor_from_json(poly_spinor_to_json(t)) == t


def test_cap_guard_rejects_caps_past_a_field():
    top = PolySpinor.monomial(2, MAX_CAP, (MAX_CAP, 0))
    assert top.degree() == MAX_CAP
    assert top.diff_x(0) == PolySpinor.monomial(2, MAX_CAP, (MAX_CAP - 1, 0), MAX_CAP)
    with pytest.raises(DegreeCapError):
        top.mult_x(1)
    for cap in (MAX_CAP + 1, 10**6, -1):
        with pytest.raises(ValueError) as info:
            PolySpinor(2, cap)
        assert type(info.value) is ValueError
    with pytest.raises(ValueError):
        PolySpinor(2, 4, {(1.0, 0): 1})


@pytest.mark.parametrize("l", [1, 2, 3])
def test_x_times_one_at_cap_zero_raises(l):
    # the constant 1 sits at the cap 0 already, so x^i 1 must raise even
    # though its key (0) equals the cap's top field exactly
    one = PolySpinor.one(l, 0)
    for i in range(l):
        with pytest.raises(DegreeCapError):
            clifford_basis(i, one)
        with pytest.raises(DegreeCapError):
            one.mult_x(i)
        assert clifford_basis(i + l, one).is_zero()


# ---------------------------------------------------------------------------
# X and Y
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l", [2, 3])
def test_X_and_Y_match_oracles_on_mixed_denominators(l):
    for r in range(0, 4):
        phi = mixed_form(l, r, 220 + 10 * l + r)
        assert op_X(phi) == oracles.op_X(phi)
        assert op_Y(phi) == oracles.op_Y(phi)
    top = mixed_form(l, 2 * l, 230 + l)
    assert op_X(top).is_zero() and oracles.op_X(top).is_zero()
    assert op_Y(top) == oracles.op_Y(top)


@pytest.mark.parametrize("l", [2, 3])
def test_X_and_Y_match_oracles_on_zero_and_cancelling_components(l):
    stream = RandomStream(240 + l)
    s = random_spinor(l, 2, 8, stream, terms=3)
    cases = [SpinorForm.zero(l, 1, 8), SpinorForm.zero(l, 0, 8),
             SpinorForm(l, 2, 8, {(0, 1): s, (0, 2): PolySpinor.zero(l, 8)}),
             SpinorForm(l, 1, 8, {(2 * l - 1,): s})]
    # Y cancels exactly: e_{l}.(a x0^2) = 2a x0 and -e_0.(-2i a) = -2a x0
    a = GR(F(2, 3), F(-1, 5))
    cancel = SpinorForm(l, 1, 8, {(0,): PolySpinor.monomial(l, 8, (2,) + (0,) * (l - 1), a),
                                  (l,): PolySpinor.one(l, 8).scale(a * GR(0, -2))})
    assert op_Y(cancel).is_zero()
    cases.append(cancel)
    for phi in cases:
        assert op_X(phi) == oracles.op_X(phi)
        assert op_Y(phi) == oracles.op_Y(phi)
        for out in (op_X(phi), op_Y(phi)):
            assert all(not c.is_zero() for c in out.components.values())


@pytest.mark.parametrize("l", [2, 3])
def test_X_and_Y_raise_at_the_cap_where_the_oracles_do(l):
    cap = 5
    top = PolySpinor.monomial(l, cap, (cap,) + (0,) * (l - 1), GR(F(1, 3), 2))
    low = random_spinor(l, 2, cap, RandomStream(250 + l), terms=3)
    seen = set()
    for tup in [(0,), (l,), (0, l), (l, l + 1), (0, 1)]:
        for comps in ({tup: top}, {tup: low}, {tup: top, tuple(range(len(tup))): low}):
            phi = SpinorForm(l, len(tup), cap, comps)
            seen.add(outcome(op_X, oracles.op_X, phi))
            seen.add(outcome(op_Y, oracles.op_Y, phi))
    assert seen == {"raised", "equal"}
    # Y on (0,) is the derivative e_l: it lowers the degree and never raises
    below = SpinorForm(l, 1, cap, {(0,): top})
    assert op_Y(below) == oracles.op_Y(below)
    with pytest.raises(DegreeCapError):
        op_Y(SpinorForm(l, 1, cap, {(l,): top}))


# ---------------------------------------------------------------------------
# The curvature action and the displays on lowered entries
# ---------------------------------------------------------------------------


def _sigma(l, seed) -> RicciTensor:
    return RicciTensor.random(l, RandomStream(seed), bound=7)


@pytest.mark.parametrize("l", [2, 3])
def test_action_and_ricci_displays_match_raised_index_oracles(l):
    stream = RandomStream(260 + l)
    phi = random_spinor(l, 2, 8, stream, terms=3).scale(F(5, 6))
    sigma = _sigma(l, 270 + l)
    for T in (random_curvature(l, 280 + l), sigma_tilde_of(sigma), random_weyl(l, 290 + l)):
        assert verify.spinor_curvature_action(T, phi) == oracles.spinor_curvature_action(T, phi)
    for s in (phi, PolySpinor.one(l, 8), PolySpinor.zero(l, 8)):
        assert verify.literal_p20_ricci(sigma, s) == oracles.literal_p20_ricci(sigma, s)
        assert verify.literal_p21_ricci(sigma, s) == oracles.literal_p21_ricci(sigma, s)
    zero = RicciTensor.zero(l)
    assert verify.literal_p20_ricci(zero, phi).is_zero()
    assert verify.literal_p21_ricci(zero, phi).is_zero()


@pytest.mark.parametrize("l", [2, 3])
def test_eq11_display_matches_the_oracle_over_mixed_denominators(l):
    phi = random_spinor(l, 1, 8, RandomStream(300 + l), terms=2).scale(GR(F(1, 7), F(2, 3)))
    W = random_weyl(l, 310 + l)
    assert verify.literal_p21_weyl(W, phi) == oracles.literal_p21_weyl(W, phi)
    assert verify.literal_p21_weyl(W, PolySpinor.zero(l, 8)).is_zero()


@pytest.mark.parametrize("l", [2, 3])
def test_action_and_displays_raise_at_the_cap_where_the_oracles_do(l):
    sigma = _sigma(l, 320 + l)
    T = random_curvature(l, 330 + l)
    W = random_weyl(l, 340 + l)
    x0 = (1,) + (0,) * (l - 1)
    # (evaluator, oracle, Clifford products per term): each raises one
    # degree below the headroom it needs and agrees with its oracle at it
    cases = [
        (lambda s: verify.spinor_curvature_action(T, s),
         lambda s: oracles.spinor_curvature_action(T, s), 2),
        (lambda s: verify.literal_p20_ricci(sigma, s),
         lambda s: oracles.literal_p20_ricci(sigma, s), 2),
        (lambda s: verify.literal_p21_ricci(sigma, s),
         lambda s: oracles.literal_p21_ricci(sigma, s), 2),
    ]
    if l == 2:     # the unfolded eq. 11 oracle is slow at l = 3
        cases.append((lambda s: verify.literal_p21_weyl(W, s),
                      lambda s: oracles.literal_p21_weyl(W, s), 4))
    for fast, naive, products in cases:
        for headroom, want in ((products - 1, "raised"), (products, "equal")):
            s = PolySpinor.monomial(l, 1 + headroom, x0, GR(F(1, 2), 1))
            assert outcome(fast, naive, s) == want


def test_clifford_basis_is_one_kernel_step_per_index():
    # clifford_basis, mult_x and diff_x all run through the kernel
    s = PolySpinor(2, 6, {(2, 1): GR(F(1, 4), 3), (0, 3): F(-5, 6), (1, 0): 1})
    for i in range(4):
        assert clifford_basis(i, s) == oracles.clifford(i, s)
    for v in range(2):
        assert s.mult_x(v) == oracles.spinor_mult_x(s, v)
        assert s.diff_x(v) == oracles.spinor_diff_x(s, v)
    for v in (-1, 2):
        with pytest.raises(ValueError):
            s.mult_x(v)
        with pytest.raises(ValueError):
            s.diff_x(v)
    pairs = list(combinations(range(4), 2))
    for a, b in pairs:
        assert clifford_basis(a, clifford_basis(b, s)) == oracles.clifford(a, oracles.clifford(b, s))
