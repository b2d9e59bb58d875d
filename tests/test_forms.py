"""Spinor-valued forms: wedge/contraction, X, Y, H, and the projectors."""

from fractions import Fraction

import pytest

from sympspin.exact import GaussianRational, RandomStream
from sympspin.forms import (
    SpinorForm,
    contract,
    op_H,
    op_X,
    op_Y,
    project,
    random_form,
    sp_action_form,
    spinor_form_from_json,
    spinor_form_to_json,
    wedge,
    wedge_covector,
)
from sympspin.spinors import (
    PolySpinor,
    SpLieElement,
    clifford_basis,
    random_spinor,
)
from sympspin.symplectic import standard_symplectic_form

import oracles
from oracles import parity_decompose

F = Fraction
GR = GaussianRational


def one_form(l, idx, s):
    return SpinorForm(l, 1, {(idx,): s})


# ---------------------------------------------------------------------------
# Wedge and contraction
# ---------------------------------------------------------------------------


def test_wedge_repeated_index_vanishes():
    s = PolySpinor.one(2)
    assert wedge(0, one_form(2, 0, s)).is_zero()


def test_wedge_sign_bookkeeping():
    # e^1 ∧ (e^2 ⊗ s) is stored at the increasing tuple (1,2) with + sign
    s = PolySpinor.one(2)
    out = wedge(0, one_form(2, 1, s))
    assert out.components == {(0, 1): s}
    # and e^2 ∧ (e^1 ⊗ s) flips the sign
    out2 = wedge(1, one_form(2, 0, s))
    assert out2.components == {(0, 1): -s}


def test_wedge_nilpotent_on_random_forms():
    stream = RandomStream(41)
    for i in range(4):
        phi = random_form(2, 1, 3, stream)
        assert wedge(i, wedge(i, phi)).is_zero()


def test_contract_examples():
    s = PolySpinor.one(2)
    out = contract(0, one_form(2, 0, s))
    assert out.r == 0 and out.component(()) == s
    assert contract(1, one_form(2, 0, s)).is_zero()


def test_contract_antiderivation_on_two_forms():
    # iota_k (e^a ∧ e^b) = delta_ka e^b - delta_kb e^a
    s = PolySpinor.one(2)
    for a in range(4):
        for b in range(a + 1, 4):
            phi = SpinorForm(2, 2, {(a, b): s})
            for k in range(4):
                got = contract(k, phi)
                expect = SpinorForm.zero(2, 1)
                if k == a:
                    expect = expect + one_form(2, b, s)
                if k == b:
                    expect = expect + one_form(2, a, -s)
                assert got == expect


def test_contract_zero_on_zero_forms():
    assert contract(0, SpinorForm.from_spinor(PolySpinor.one(2))).is_zero()


@pytest.mark.parametrize("l", [1, 2])
def test_wedge_and_contract_refuse_an_index_past_the_basis(l):
    # index 2l is one past the last basis covector; below 3l it must not wrap
    phi = random_form(l, 1, 1, RandomStream(43))
    for i in (2 * l, 3 * l - 1, -1):
        with pytest.raises(ValueError):
            wedge(i, phi)
        with pytest.raises(ValueError):
            contract(i, phi)


# ---------------------------------------------------------------------------
# X, Y, H
# ---------------------------------------------------------------------------


def test_x_on_zero_form_matches_definition():
    stream = RandomStream(43)
    s = random_spinor(2, 3, stream)
    got = op_X(SpinorForm.from_spinor(s))
    expect = SpinorForm.zero(2, 1)
    for i in range(4):
        expect = expect + one_form(2, i, -clifford_basis(i, s))
    assert got == expect


def test_x_of_zero_is_zero():
    assert op_X(SpinorForm.zero(2, 0)).is_zero()


def test_y_kills_zero_forms():
    s = random_spinor(2, 3, RandomStream(47))
    assert op_Y(SpinorForm.from_spinor(s)).is_zero()


@pytest.mark.parametrize("l", [2, 3])
def test_yx_on_zero_forms(l):
    # Y(X(s)) = -i l s
    s = random_spinor(l, 3, RandomStream(53 + l))
    got = op_Y(op_X(SpinorForm.from_spinor(s)))
    assert got == SpinorForm.from_spinor(s.scale(GaussianRational(0, -l)))


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_h_eigenvalue(l, r):
    stream = RandomStream(100 * l + r)
    for _ in range(3):
        phi = random_form(l, r, 4, stream)
        assert op_H(phi) == phi.scale(GaussianRational(0, r - l))


@pytest.mark.parametrize("l", [2, 3])
def test_omega_vector_is_x2y2_eigenvector(l):
    # psi = omega_kl e^k ∧ e^l ⊗ s satisfies X^2 Y^2 psi = l psi
    space = standard_symplectic_form(l)
    s = random_spinor(l, 3, RandomStream(59))
    comps = {}
    for k in range(2 * l):
        for m in range(k + 1, 2 * l):
            w = space.omega_lower[k][m] - space.omega_lower[m][k]
            if w:
                comps[(k, m)] = s.scale(w)
    psi = SpinorForm(l, 2, comps)
    x2y2 = op_X(op_X(op_Y(op_Y(psi))))
    assert x2y2 == psi.scale(F(l))
    assert project("p20", psi) == psi


# ---------------------------------------------------------------------------
# Projectors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l", [2, 3])
def test_projector_algebra(l):
    stream = RandomStream(61 + l)
    for _ in range(3):
        one = random_form(l, 1, 3, stream)
        two = random_form(l, 2, 3, stream)
        p10 = project("p10", one)
        p11 = project("p11", one)
        assert project("p10", p10) == p10
        assert project("p11", p11) == p11
        assert project("p10", p11).is_zero()
        assert project("p11", p10).is_zero()
        assert p10 + p11 == one
        parts = {w: project(w, two) for w in ("p20", "p21", "p22")}
        for w, part in parts.items():
            assert project(w, part) == part
        for a in parts:
            for b in parts:
                if a != b:
                    assert project(a, parts[b]).is_zero()
        assert parts["p20"] + parts["p21"] + parts["p22"] == two


def test_p10_fixes_image_of_x():
    s = random_spinor(2, 3, RandomStream(67))
    xs = op_X(SpinorForm.from_spinor(s))
    assert project("p10", xs) == xs


def test_projector_guards():
    two = random_form(2, 2, 2, RandomStream(71))
    one = random_form(2, 1, 2, RandomStream(71))
    with pytest.raises(ValueError):
        project("p10", two)
    with pytest.raises(ValueError):
        project("p20", one)
    with pytest.raises(ValueError):
        project("p99", two)
    low = random_form(1, 2, 2, RandomStream(71))
    with pytest.raises(ValueError):
        project("p20", low)


def test_decompose_two_form():
    zero = SpinorForm.zero(2, 2)
    assert all(project(w, zero).is_zero() for w in ("p20", "p21", "p22"))
    phi = random_form(2, 2, 3, RandomStream(73))
    e20, e21 = project("p20", phi), project("p21", phi)
    e22 = phi - e20 - e21
    assert e22 == project("p22", phi)
    assert e20 + e21 + e22 == phi
    assert project("p20", e20) == e20
    assert project("p21", e20).is_zero()


def test_p20_preserves_spinor_parity():
    stream = RandomStream(79)
    phi = random_form(2, 2, 4, stream)
    even_components = {}
    for tup, s in phi.components.items():
        even, _ = parity_decompose(s)
        if not even.is_zero():
            even_components[tup] = even
    even_phi = SpinorForm(2, 2, even_components)
    image = project("p20", even_phi)
    for s in image.components.values():
        _, odd = parity_decompose(s)
        assert odd.is_zero()


GOLDEN_GRADED_RANKS = {
    # exact ranks of each projector on Lambda^r ⊗ (degree-d spinors), l = 2
    0: {"p10": 2, "p11": 4, "p20": 1, "p21": 4, "p22": 5},
    1: {"p10": 4, "p11": 7, "p20": 2, "p21": 10, "p22": 6},
    2: {"p10": 6, "p11": 12, "p20": 3, "p21": 15, "p22": 12},
}


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_graded_projector_ranks_golden(degree):
    for which, expected in GOLDEN_GRADED_RANKS[degree].items():
        assert oracles.graded_projector_rank(which, 2, degree) == expected


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_y_swap_matches_the_matrix_sum(l, r):
    # Y through the partner map against Y summed over omega_upper
    stream = RandomStream(300 + 10 * l + r)
    for _ in range(3):
        phi = random_form(l, r, 3, stream)
        assert op_Y(phi) == oracles.op_Y(phi)


# ---------------------------------------------------------------------------
# Infinitesimal equivariance
# ---------------------------------------------------------------------------


def test_x_and_y_commute_with_sp_action():
    stream = RandomStream(83)
    for _ in range(3):
        A = SpLieElement.random(2, stream)
        phi = random_form(2, 1, 3, stream)
        assert sp_action_form(A, op_X(phi)) == op_X(sp_action_form(A, phi))
        assert sp_action_form(A, op_Y(phi)) == op_Y(sp_action_form(A, phi))
        two = random_form(2, 2, 3, stream)
        assert sp_action_form(A, op_Y(two)) == op_Y(sp_action_form(A, two))


def test_projectors_commute_with_sp_action():
    stream = RandomStream(89)
    A = SpLieElement.random(2, stream)
    two = random_form(2, 2, 2, stream)
    for which in ("p20", "p21", "p22"):
        assert sp_action_form(A, project(which, two)) == project(
            which, sp_action_form(A, two)
        )


# ---------------------------------------------------------------------------
# Structure and serialization
# ---------------------------------------------------------------------------


def test_zero_form_absorbs_in_addition():
    z1 = SpinorForm.zero(2, 1)
    phi = random_form(2, 2, 2, RandomStream(97))
    assert z1 + phi == phi
    assert phi + SpinorForm.zero(2, 0) == phi


def test_a_missing_component_is_the_zero_spinor():
    s = random_spinor(2, 2, RandomStream(99), terms=2)
    phi = SpinorForm(2, 1, {(0,): s})
    assert phi.component((0,)) is s
    for tup in ((1,), [3]):
        zero = phi.component(tup)
        assert zero.is_zero() and zero.den == 1
        assert zero == PolySpinor.zero(2)
    # the zero form has its zeros too
    assert SpinorForm(2, 2).component((0, 1)) == PolySpinor.zero(2)


def test_wedge_covector_linearity():
    stream = RandomStream(101)
    phi = random_form(2, 1, 2, stream)
    xi = [stream.next_fraction(4) for _ in range(4)]
    expect = SpinorForm.zero(2, 2)
    for i, c in enumerate(xi):
        expect = expect + wedge(i, phi).scale(c)
    assert wedge_covector(xi, phi) == expect


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_wedge_covector_with_the_zero_covector_is_the_zero_form_one_degree_up(r):
    # one degree up, as wedge gives, except on top-degree forms, which wedge
    # keeps at degree 2l
    phi = random_form(2, r, 2, RandomStream(107 + r))
    out, ref = wedge_covector([0] * 4, phi), wedge(0, phi)
    assert out.is_zero() and (out.l, out.r) == (2, min(r + 1, 4))
    assert ref.r == out.r


def test_spinor_form_json_round_trip():
    phi = random_form(2, 2, 3, RandomStream(103))
    obj = spinor_form_to_json(phi)
    assert spinor_form_from_json(obj) == phi
    # tuples serialize 1-based
    assert all(min(c["tuple"]) >= 1 for c in obj["components"])
