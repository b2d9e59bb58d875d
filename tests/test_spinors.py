"""Polynomial spinors, Clifford multiplication, and the sp(2l) action."""

from fractions import Fraction
from itertools import combinations

import pytest

from sympspin.exact import GR_I, GR_ONE, GaussianRational, RandomStream
from sympspin.spinors import (
    DegreeCapError,
    PolySpinor,
    SpLieElement,
    clifford_basis,
    poly_spinor_from_json,
    poly_spinor_to_json,
    random_spinor,
    sp_action,
)
from sympspin.forms import SpinorForm, sp_action_form
from sympspin.symplectic import standard_symplectic_form

from oracles import (
    clifford_vector,
    omega_pairing,
    parity_decompose,
    sp_bracket,
    sp_covector_image,
    sp_vector_image,
)

F = Fraction
GR = GaussianRational


def x_monomial(l, cap, var):
    alpha = [0] * l
    alpha[var] = 1
    return PolySpinor.monomial(l, cap, tuple(alpha))


# ---------------------------------------------------------------------------
# Clifford multiplication
# ---------------------------------------------------------------------------


def test_position_generator_on_one():
    # e_1 . 1 = i x^1
    s = PolySpinor.one(2, 4)
    assert clifford_basis(0, s) == x_monomial(2, 4, 0).scale(GR_I)


def test_momentum_generator_on_x():
    # e_{l+1} . x^1 = 1
    s = x_monomial(2, 4, 0)
    assert clifford_basis(2, s) == PolySpinor.one(2, 4)


def test_lemma1_specific_instance():
    # e_1.(e_3.f) - e_3.(e_1.f) = -i f for f = x^1 x^2 at l = 2
    f = PolySpinor.monomial(2, 6, (1, 1))
    lhs = clifford_basis(0, clifford_basis(2, f)) - clifford_basis(2, clifford_basis(0, f))
    assert lhs == f.scale(-GR_I)


@pytest.mark.parametrize("l", [2, 3])
def test_clifford_commutator_all_basis_pairs(l):
    space = standard_symplectic_form(l)
    stream = RandomStream(17 + l)
    for _ in range(5):
        s = random_spinor(l, 4, 6, stream)
        for a in range(2 * l):
            for b in range(2 * l):
                resid = (
                    clifford_basis(a, clifford_basis(b, s))
                    - clifford_basis(b, clifford_basis(a, s))
                    + s.scale(GR_I * space.omega_lower[a][b])
                )
                assert resid.is_zero()


def test_clifford_vector_zero_and_basis_case():
    stream = RandomStream(3)
    s = random_spinor(2, 3, 5, stream)
    assert clifford_vector([0, 0, 0, 0], s).is_zero()
    e1 = [1, 0, 0, 0]
    assert clifford_vector(e1, s) == clifford_basis(0, s)


def test_clifford_vector_commutator_random_vectors():
    stream = RandomStream(23)
    for _ in range(5):
        v = [stream.next_fraction(4) for _ in range(4)]
        w = [stream.next_fraction(4) for _ in range(4)]
        s = random_spinor(2, 3, 6, stream)
        lhs = clifford_vector(v, clifford_vector(w, s)) - clifford_vector(w, clifford_vector(v, s))
        assert lhs == s.scale(GR_I * (-omega_pairing(2, v, w)))


def test_degree_cap_overflow_is_hard_error():
    s = PolySpinor.monomial(2, 1, (1, 0))
    with pytest.raises(DegreeCapError):
        clifford_basis(0, s)


def test_leibniz_identity():
    # d/dx^1 (x^1 f) = f + x^1 df/dx^1, exactly
    stream = RandomStream(31)
    f = random_spinor(2, 3, 6, stream)
    lhs = f.mult_x(0).diff_x(0)
    assert lhs == f + f.diff_x(0).mult_x(0)


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


def test_parity_of_constant():
    s = PolySpinor.one(2, 4)
    even, odd = parity_decompose(s)
    assert even == s and odd.is_zero()


def test_parity_splits_by_total_degree():
    s = PolySpinor(2, 4, {(1, 0): GR_ONE, (1, 1): GR_ONE})
    even, odd = parity_decompose(s)
    assert even == PolySpinor.monomial(2, 4, (1, 1))
    assert odd == PolySpinor.monomial(2, 4, (1, 0))
    assert even + odd == s


def test_clifford_flips_parity():
    stream = RandomStream(5)
    for i in range(4):
        s = random_spinor(2, 3, 6, stream)
        even, odd = parity_decompose(s)
        im_even, im_odd = parity_decompose(clifford_basis(i, even))
        assert im_even.is_zero()
        im_even2, _ = parity_decompose(clifford_basis(i, odd))
        _, chk = parity_decompose(im_even2)
        assert chk.is_zero()


# ---------------------------------------------------------------------------
# sp(2l) action
# ---------------------------------------------------------------------------


def test_sp_action_zero_element():
    s = random_spinor(2, 3, 6, RandomStream(7))
    assert sp_action(SpLieElement.zero(2), s).is_zero()


def test_calibration_constant_is_half_i():
    """Solve [c * (e_a e_b + e_b e_a), v.] = ((a v b)(v)). for c by brute force.

    Every basis pair and basis vector must give the same constant i/2.
    """
    l = 2
    stream = RandomStream(3)
    s = random_spinor(l, 3, 8, stream)
    constants = set()
    for a in range(2 * l):
        for b in range(2 * l):
            A = SpLieElement.generator(l, a, b)

            def raw(t):
                acc = PolySpinor.zero(l, t.cap)
                for x in range(2 * l):
                    for y in range(2 * l):
                        if A.matrix[x][y]:
                            acc = acc + clifford_basis(x, clifford_basis(y, t)).scale(A.matrix[x][y])
                return acc

            for p in range(2 * l):
                v = [F(0)] * (2 * l)
                v[p] = F(1)
                commut = raw(clifford_vector(v, s)) - clifford_vector(v, raw(s))
                target = clifford_vector(sp_vector_image(A, v), s)
                if commut.is_zero() and target.is_zero():
                    continue
                assert not commut.is_zero()
                tup = sorted(commut.coeffs)[0]
                c = target.coeffs.get(tup, GR(0)) * commut.coeffs[tup].inverse()
                assert target == commut.scale(c)
                constants.add((c.re, c.im))
    assert constants == {(F(0), F(1, 2))}


def test_sp_action_commutation_identity():
    # [sp_action(A), v.] = (A v). for the calibrated action
    l = 2
    stream = RandomStream(11)
    s = random_spinor(l, 3, 8, stream)
    for a in range(2 * l):
        for b in range(a, 2 * l):
            A = SpLieElement.generator(l, a, b)
            for p in range(2 * l):
                v = [F(0)] * (2 * l)
                v[p] = F(1)
                lhs = sp_action(A, clifford_vector(v, s)) - clifford_vector(v, sp_action(A, s))
                rhs = clifford_vector(sp_vector_image(A, v), s)
                assert lhs == rhs


def test_sp_action_is_lie_homomorphism():
    l = 2
    stream = RandomStream(13)
    for _ in range(5):
        A = SpLieElement.random(l, stream)
        B = SpLieElement.random(l, stream)
        s = random_spinor(l, 2, 8, stream)
        lhs = sp_action(A, sp_action(B, s)) - sp_action(B, sp_action(A, s))
        assert lhs == sp_action(sp_bracket(A, B), s)


def test_sp_action_preserves_parity():
    stream = RandomStream(19)
    A = SpLieElement.random(2, stream)
    s = random_spinor(2, 3, 8, stream)
    even, odd = parity_decompose(s)
    im_even, im_odd = parity_decompose(sp_action(A, even))
    assert im_odd.is_zero()
    _, only_odd = parity_decompose(sp_action(A, odd))
    assert parity_decompose(sp_action(A, odd))[0].is_zero()


def test_dual_action_pairing_invariance():
    # (A* eta)(v) + eta(A v) = 0, with A* eta read off the form part of
    # sp_action_form on eta ⊗ 1 and A v from the explicit omega matrix
    l = 2
    one = PolySpinor.one(l, 4)
    stream = RandomStream(29)
    for _ in range(5):
        A = SpLieElement.random(l, stream)
        eta = [stream.next_fraction(5) for _ in range(2 * l)]
        v = [stream.next_fraction(5) for _ in range(2 * l)]
        phi = SpinorForm(l, 1, 4, {(t,): one.scale(c) for t, c in enumerate(eta)})
        spinor_part = SpinorForm(l, 1, 4, {(t,): sp_action(A, one.scale(c))
                                           for t, c in enumerate(eta)})
        form_part = sp_action_form(A, phi) - spinor_part
        eta_star = sp_covector_image(A, eta)
        assert form_part == SpinorForm(l, 1, 4, {(q,): one.scale(c)
                                                 for q, c in enumerate(eta_star)})
        av = sp_vector_image(A, v)
        paired = sum(e * x for e, x in zip(eta_star, v)) + sum(e * x for e, x in zip(eta, av))
        assert paired == 0


def _wedge_of(indices):
    """(sign, increasing tuple) of e^{i_1} ∧ ... ∧ e^{i_r}, by counting
    inversions; None when an index repeats."""
    if len(set(indices)) < len(indices):
        return None
    inversions = sum(a > b for n, a in enumerate(indices) for b in indices[n + 1:])
    return (-1) ** inversions, tuple(sorted(indices))


@pytest.mark.parametrize("l, r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_dual_action_on_higher_forms_acts_one_factor_at_a_time(l, r):
    # the form part of sp_action_form on e^T ⊗ 1 is the derivation that puts
    # A* e^t, from the explicit omega matrix, in place of each factor e^t
    one = PolySpinor.one(l, 4)
    stream = RandomStream(31 + 10 * l + r)
    for _ in range(2):
        A = SpLieElement.random(l, stream)
        for T in combinations(range(2 * l), r):
            expected = {}
            for pos, t in enumerate(T):
                unit = [int(q == t) for q in range(2 * l)]
                for q, c in enumerate(sp_covector_image(A, unit)):
                    placed = _wedge_of(T[:pos] + (q,) + T[pos + 1:])
                    if c and placed:
                        sign, tup = placed
                        expected[tup] = expected.get(tup, 0) + sign * c
            phi = SpinorForm(l, r, 4, {T: one})
            spinor_part = SpinorForm(l, r, 4, {T: sp_action(A, one)})
            assert sp_action_form(A, phi) - spinor_part == SpinorForm(
                l, r, 4, {tup: one.scale(c) for tup, c in expected.items()}), (A.matrix, T)


def test_sp_lie_element_requires_symmetry():
    with pytest.raises(ValueError):
        SpLieElement(1, [[0, 1], [0, 0]])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_poly_spinor_json_round_trip():
    s = PolySpinor(2, 5, {(2, 1): GR(F(3, 4), F(-1, 2)), (0, 0): GR_I})
    obj = poly_spinor_to_json(s)
    assert obj["l"] == 2 and obj["cap"] == 5
    assert poly_spinor_from_json(obj) == s


def test_spinor_equality_ignores_cap():
    a = PolySpinor.monomial(2, 4, (1, 0))
    b = PolySpinor.monomial(2, 9, (1, 0))
    assert a == b


# ---------------------------------------------------------------------------
# Sizes are ints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: PolySpinor(2, 9.0, {(1, 0): 1}),
    lambda: PolySpinor(2, True, {(1, 0): 1}),
    lambda: PolySpinor(2.0, 9, {(1, 0): 1}),
    lambda: PolySpinor(True, 9),
    lambda: random_spinor(2, 3, 9.0, RandomStream(1)),
    lambda: random_spinor(2.0, 3, 9, RandomStream(1)),
    lambda: SpinorForm(2, 1.0, 4),
    lambda: SpinorForm(2, 1, 4.0),
    lambda: SpinorForm(2.0, 1, 4),
    lambda: SpinorForm(2, True, 4),
])
def test_constructors_refuse_non_int_sizes(build):
    # a float cap used to pass the range check and die later in the kernel,
    # and True acted as 1
    with pytest.raises(ValueError, match="must be (an int|ints)"):
        build()
