"""Differential tests of the exact fast paths against the naive oracles.

The package stores spinors as Gaussian-integer numerators over one
denominator under packed monomial keys, sums every Clifford product through
one in-place kernel, multiplies by units by negating or swapping numerator
parts, builds spinor and form results without re-validating them, folds the
curvature action and the eq. 11 display, computes XY and X^2Y^2 once per
2-form, keeps curvature tensors as integer numerators over one denominator
(checking their symmetries, summing sigma_tilde and R - sigma_tilde on those
ints) and reads the omega-traces off the lowered tensor.
Each of these is compared here, at l = 2 and l = 3 (the curvature paths also
at l = 1), with the checked Fraction and unfolded reference in `oracles`, and
planted defects show that the suites catch a broken fast path.
"""

import copy
import json
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

import oracles
import sympspin.curvature as curvature
import sympspin.forms as forms
import sympspin.spinors as spinors
import sympspin.verify as verify
from sympspin.cli import main
from sympspin.curvature import (
    CurvatureTensor,
    RicciTensor,
    _tensor,
    check_symmetries,
    omega_traces,
    random_curvature,
    random_weyl,
    ricci_of,
    sigma_tilde_of,
)
from sympspin.exact import GR_I, GaussianRational, RandomStream
from sympspin.forms import (
    SpinorForm,
    _form,
    _two_form_parts,
    contract,
    op_H,
    op_X,
    op_Y,
    project,
    random_form,
    sp_action_form,
    wedge,
    wedge_covector,
)
from sympspin.spinors import (
    DegreeCapError,
    PolySpinor,
    FIELD_BITS,
    SpLieElement,
    _clifford_into,
    _common_den,
    _from_acc,
    _pack,
    clifford_basis,
    random_spinor,
)

F = Fraction
GR = GaussianRational

SCALARS = [
    0, 1, -1, 3, F(-2, 7), GR(1), GR(-1), GR(0, 1), GR(0, -1), GR(F(5, 3)), GR(0, F(-3, 4)),
    GR(F(1, 2), F(-2, 3)), GR(-4, 1), GR(1, 1), GR(F(3, 2), F(-1, 6)),
]


def assert_valid(x) -> None:
    """A spinor x is in lowest terms (int parts, den >= 1, gcd(den, every
    part) == 1, no (0, 0) stored) and equals its re-validated copy; a form x
    stores only valid nonzero components with its cap and equals its
    re-validated copy."""
    if isinstance(x, SpinorForm):
        assert x == SpinorForm(x.l, x.r, x.cap, x.components)
        for tup, s in x.components.items():
            assert type(tup) is tuple and len(tup) == x.r
            assert list(tup) == sorted(set(tup)) and all(0 <= t < 2 * x.l for t in tup)
            assert s.l == x.l and s.cap == x.cap and not s.is_zero()
            assert_valid(s)
        return
    parts = [v for pair in x.num.values() for v in pair]
    assert type(x.den) is int and x.den >= 1
    assert all(type(v) is int for v in parts)
    assert all(pair != (0, 0) for pair in x.num.values())
    assert gcd(x.den, *parts) == 1
    assert x == PolySpinor(x.l, x.cap, x.coeffs)
    for c in x.coeffs.values():
        assert type(c) is GaussianRational and c
        assert type(c.re) is Fraction and type(c.im) is Fraction


def sample_spinors(l, seed, count=3, degree=3, cap=7):
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
    s, t, u = sample_spinors(l, 10 + l)
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


def _kernel_sum(l, cap, i, terms):
    """sum of f * e_i.s over the (int f, spinor s) pairs of `terms`, summed
    through the Clifford kernel over one denominator and reduced once."""
    den, factors = _common_den([s.den for _, s in terms])
    acc = {}
    for (f, s), g in zip(terms, factors):
        _clifford_into(acc, s.num, i, l, cap, f * g)
    return _from_acc(l, cap, acc, den)


def test_mixed_denominators_reduce_to_lowest_terms():
    s = PolySpinor(2, 5, {(1, 0): GR(F(1, 2), F(1, 3)), (0, 2): F(2, 7)})
    t = PolySpinor(2, 5, {(1, 0): GR(F(-1, 6), 0), (0, 2): F(1, 14)})
    cases = [
        (s - s, PolySpinor.zero(2, 5)),
        (s + (-s), PolySpinor.zero(2, 5)),
        (s + s.scale(-1), PolySpinor.zero(2, 5)),
        (_kernel_sum(2, 5, 3, [(1, s), (-2, s), (1, s)]), PolySpinor.zero(2, 5)),
        (s + t, oracles.spinor_add(s, t)),
        (s - t, oracles.spinor_add(s, oracles.spinor_neg(t))),
        (_kernel_sum(2, 5, 3, [(3, s), (-5, t)]),
         oracles.spinor_add(oracles.spinor_scale(oracles.clifford(3, s), 3),
                            oracles.spinor_scale(oracles.clifford(3, t), -5))),
        (_kernel_sum(2, 5, 0, [(2, s), (7, t)]),
         oracles.spinor_add(oracles.spinor_scale(oracles.clifford(0, s), 2),
                            oracles.spinor_scale(oracles.clifford(0, t), 7))),
        (s.scale(GR(1, 1)), oracles.spinor_scale(s, GR(1, 1))),
    ]
    for got, want in cases:
        assert got == want
        assert_valid(got)
    assert (s - s).den == 1 and (s - s).is_zero()
    # the monomial 1 packs to the key 0
    assert _pack((0, 0)) == 0
    # 1/6 + 1/3 = 1/2: the sum's lowest terms have a smaller denominator
    half = PolySpinor(2, 5, {(0, 0): F(1, 6)}) + PolySpinor(2, 5, {(0, 0): F(1, 3)})
    assert half.den == 2 and half.num == {0: (1, 0)}
    # (1 + i)(1 - i) / 2 = 1: a non-unit Gaussian scalar must reduce too
    one = PolySpinor(2, 5, {(0, 0): GR(F(1, 2), F(-1, 2))}).scale(GR(1, 1))
    assert one.den == 1 and one.num == {0: (1, 0)}
    # d/dx^0 (x^0)^2 / 4 = x^0 / 2: the exponent 2 shares a factor with den 4
    sq = clifford_basis(2, PolySpinor(2, 5, {(2, 0): F(1, 4)}))
    assert sq.den == 2 and sq.num == {_pack((1, 0)): (1, 0)}


_PARTS = st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=5)


@given(st.sampled_from([2, 3, 6]), _PARTS, st.sampled_from([1, 2, 3, 6]), st.booleans())
@example(2, [(1, 1), (-3, 0)], 2, False)
def test_read_offs_leave_lowest_terms_over_small_denominators(den, parts, k, times_i):
    # k * parts over den, read off by `_from_acc` (times i or not) and, as
    # numerators free of (0, 0), by `_reduced`: every common factor of k and
    # den is divided out, den = 2 included, and the values are kept
    acc = {_pack((a, 1)): [re * k, im * k] for a, (re, im) in enumerate(parts)}
    num = {key: (re, im) for key, (re, im) in acc.items() if re or im}
    want = {key: GR(F(-im if times_i else re, den), F(re if times_i else im, den))
            for key, (re, im) in num.items()}
    results = [_from_acc(2, 5, acc, den, times_i)]
    if not times_i:
        results.append(spinors._reduced(2, 5, num, den))
    for got in results:
        assert_valid(got)
        assert {key: GR(F(re, got.den), F(im, got.den))
                for key, (re, im) in got.num.items()} == want


def test_scale_fast_paths_match_the_fraction_path():
    # every branch of PolySpinor.scale: the units, +-i/q (a swap over q), 1/q
    # (the numerators kept over q), p/q and (p + iq)/q, on mixed denominators,
    # numerators that share a factor with q, and the zero spinor
    spinors_ = [
        PolySpinor(2, 5, {(1, 0): GR(F(1, 2), F(1, 3)), (0, 2): F(2, 7)}),
        PolySpinor(2, 5, {(1, 0): 2, (0, 1): GR(4, -6), (0, 0): GR(0, F(8, 3))}),
        random_spinor(3, 3, 6, RandomStream(7), terms=5),
        PolySpinor.zero(2, 5),
    ]
    scalars = [1, -1, GR(1), GR(-1), GR(0, 1), GR(0, -1),
               GR(0, F(1, 4)), GR(0, F(-1, 4)), GR(0, F(-1, 6)), GR(0, F(3, 2)), GR(0, F(-2, 9)),
               F(1, 2), F(1, 6), GR(F(1, 9)), F(-1, 2), F(3, 4), F(-4, 3), 6,
               GR(F(2, 3), F(-1, 3)), GR(F(-1, 6), F(5, 6)), GR(2, 1)]
    for s in spinors_:
        before = (dict(s.num), s.den)
        for c in scalars:
            got = s.scale(c)
            assert got == oracles.spinor_scale(s, c), (s, c)
            assert_valid(got)
            assert got.cap == s.cap
        assert (s.num, s.den) == before     # a result sharing num leaves s alone


def test_form_difference_subtracts_component_by_component():
    stream = RandomStream(5)
    phi = random_form(2, 2, 2, 6, stream, terms_per_component=2)
    psi = random_form(2, 2, 2, 8, stream, terms_per_component=2)
    diff = phi - psi
    assert diff == phi + psi.scale(-1) and diff.cap == 8
    assert_valid(diff)
    assert (phi - phi).is_zero()
    zero = SpinorForm.zero(2, 0, 9)
    assert phi - zero == phi + zero and (zero - phi) == -phi + zero
    assert (zero - phi).cap == 9


@pytest.mark.parametrize("l", [2, 3])
def test_form_operator_results_are_valid_forms(l):
    # the operators build their results through the unchecked _form
    stream = RandomStream(110 + l)
    one = random_form(l, 1, 2, 7, stream, terms_per_component=2)
    two = random_form(l, 2, 2, 9, stream, terms_per_component=2)
    xi = [stream.next_fraction(3) for _ in range(2 * l)]
    A = SpLieElement.random(l, stream)
    results = [op_X(one), op_Y(one), op_X(two), op_Y(two), op_H(one), wedge(1, one),
               wedge_covector(xi, one), contract(0, two), contract(2 * l - 1, one),
               sp_action_form(A, one), one + one, one - one, two - one.scale(0),
               one + SpinorForm.zero(l, 2, 12), one.scale(GR(F(1, 2), -3)), one.scale(0)]
    results += [project(p, one) for p in ("p10", "p11")]
    results += [project(p, two) for p in ("p20", "p21", "p22")]
    for phi in results:
        assert_valid(phi)
    assert (one - one).components == {} and one.scale(0).components == {}
    assert (one + SpinorForm.zero(l, 2, 12)).cap == 12
    # the unchecked constructor still drops zero components
    s = random_spinor(l, 1, 5, stream, terms=2)
    kept = _form(l, 1, 5, {(0,): s, (1,): PolySpinor.zero(l, 5)})
    assert kept.components == {(0,): s} and kept == SpinorForm(l, 1, 5, {(0,): s})


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
        assert_valid(act)


@pytest.mark.parametrize("l", [2, 3])
def test_folded_eq11_display_matches_unfolded_oracle(l):
    phi = random_spinor(l, 2 if l == 2 else 1, 8, RandomStream(30 + l), terms=3 if l == 2 else 2)
    W = random_weyl(l, 50 + l)
    lit = verify.literal_p21_weyl(W, phi)
    assert lit == oracles.literal_p21_weyl(W, phi)
    assert_valid(lit)


@pytest.mark.parametrize("l", [2, 3])
def test_two_form_parts_match_separate_projectors(l):
    stream = RandomStream(60 + l)
    phi = random_spinor(l, 2, 8, stream, terms=3)
    forms = [random_form(l, 2, 2, 8, stream, terms_per_component=2),
             verify.spinor_curvature_action(random_curvature(l, 70 + l), phi)]
    for form in forms:
        p20, p21, yy = _two_form_parts(form)
        p22 = project("p22", form)       # built from the kept parts on request
        assert yy == op_Y(op_Y(form))
        for which, part in (("p20", p20), ("p21", p21), ("p22", p22)):
            assert part == oracles.project(which, form) == project(which, form)
            assert_valid(part)
    one_form = random_form(l, 1, 2, 8, stream, terms_per_component=2)
    for which in ("p10", "p11"):
        assert project(which, one_form) == oracles.project(which, one_form)


# ---------------------------------------------------------------------------
# The integer symmetry check
# ---------------------------------------------------------------------------


def _zero4(n):
    return [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def _symmetry_cases(l):
    """Valid, trace-free, zero, single-entry and int arrays of side 2l, and
    arrays with no symmetry."""
    n = 2 * l
    R = random_curvature(l, 80 + l)
    W = random_weyl(l, 90 + l)
    cases = [R.entries, W.entries, _zero4(n)]
    for d in (2, 3, 7):
        for quad in ((0, 0, 0, 0), (0, 1, 2, 3), (n - 1, 0, n - 1, 1)):
            i, j, k, m = (x % n for x in quad)
            lone = _zero4(n)
            lone[i][j][k][m] = F(1, d)
            bumped = copy.deepcopy(R.entries)
            bumped[i][j][k][m] += F(1, d)
            cases += [lone, bumped]
    scale = lcm(*(x.denominator for b in R.entries for p in b for r in p for x in r))
    as_ints = [[[[int(x * scale) for x in r] for r in p] for p in b] for b in R.entries]
    bumped = copy.deepcopy(as_ints)
    bumped[1][0][1][0] += 1
    stream = RandomStream(100 + l)
    noise = [[[[stream.next_int(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    return cases + [as_ints, bumped, noise]


def _planted_symmetry_cases(l):
    """Single-entry plants on random curvature and Weyl tensors, each failing
    (A), (B) or (C), at the first and last first index."""
    n = 2 * l
    cases = []
    for T in (random_curvature(l, 150 + l), random_weyl(l, 160 + l)):
        for i in (0, n - 1):
            # each breaks (A) and (B), and (C) unless its first two indices agree
            for quad in ((i, i, 0, 1), (i, (i + 1) % n, 1, 0), (i, n - 1, n - 1, n - 1)):
                a, b, c, d = quad
                bumped = copy.deepcopy(T.entries)
                bumped[a][b][c][d] += F(1, 3)
                cases.append(bumped)
    return cases


@pytest.mark.parametrize("l", [1, 2, 3])
def test_integer_symmetry_check_matches_fraction_oracle(l):
    reports = []
    for entries in _symmetry_cases(l):
        report = check_symmetries(entries)
        assert report == oracles.check_symmetries(entries)
        reports.append(report)
    # the cases cover passing and failing verdicts of every identity
    for name in ("antisym_last_pair", "first_bianchi", "pair_symmetry", "extended_bianchi"):
        verdicts = {getattr(r, name).holds for r in reports}
        assert verdicts == {True, False}
    for seed in range(2):
        for T in (random_curvature(l, 80 + 10 * seed + l), random_weyl(l, 90 + 10 * seed + l)):
            assert check_symmetries(T) == oracles.check_symmetries(T.entries)
            assert check_symmetries(T) is curvature._ALL_HOLD
    # every plant fails the early exit and reaches the full scan, whose first
    # violations are the oracle's
    cases = _planted_symmetry_cases(l)
    planted = [check_symmetries(e) for e in cases]
    assert planted == [oracles.check_symmetries(e) for e in cases]
    assert not any(r.all_hold() for r in planted)
    for name in ("antisym_last_pair", "first_bianchi", "pair_symmetry"):
        assert not all(getattr(r, name).holds for r in planted)
    assert any(r.pair_symmetry.holds for r in planted)


# ---------------------------------------------------------------------------
# sigma_tilde over ints and the omega-traces of the lowered tensor
# ---------------------------------------------------------------------------


def _sigmas(l):
    """Random (denominators up to 5), integer and zero symmetric matrices."""
    stream = RandomStream(120 + l)
    n = 2 * l
    ints = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ints[i][j] = ints[j][i] = stream.next_int(-4, 4)
    return [RicciTensor.random(l, stream), RicciTensor.random(l, stream, bound=7),
            RicciTensor(l, ints), RicciTensor.zero(l)]


@pytest.mark.parametrize("l", [1, 2, 3])
def test_integer_sigma_tilde_matches_fraction_oracle(l):
    for sigma in _sigmas(l):
        st = sigma_tilde_of(sigma)
        assert st == oracles.sigma_tilde_of(sigma)
        assert all(type(x) is Fraction for b in st.entries for p in b for r in p for x in r)
        assert ricci_of(st) == sigma


@pytest.mark.parametrize("l", [1, 2, 3])
def test_omega_traces_of_the_lowered_tensor_match_the_raised_oracle(l):
    n = 2 * l
    tensors = [random_curvature(l, 130 + l), random_weyl(l, 140 + l),
               sigma_tilde_of(_sigmas(l)[0])]
    for i, j, k, m in ((0, 0, 0, 0), (0, 1, n - 1, 0), (n - 1, 0, 1, n - 1)):
        lone = _zero4(n)
        lone[i][j][k][m] = F(2, 7)
        tensors.append(oracles.unchecked_tensor(l, lone))
    for T in tensors:
        assert omega_traces(T) == oracles.omega_traces(T)
    assert not any(x for mat in omega_traces(tensors[1]).values() for row in mat for x in row)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_lemma7_weyl_instance_on_integer_cleared_tensors(l):
    R = random_curvature(l, 150 + l)
    assert verify.lemma7_weyl_instance(R)
    assert verify.lemma7_weyl_instance(sigma_tilde_of(_sigmas(l)[0]))
    assert verify.lemma7_weyl_instance(CurvatureTensor.zero(l))
    bumped = copy.deepcopy(R.entries)
    bumped[0][1][0][1] += F(1, 3)
    assert not verify.lemma7_weyl_instance(oracles.unchecked_tensor(l, bumped))


def _fraction_sum(R, S, sign):
    return [[[[x + sign * y for x, y in zip(r, q)] for r, q in zip(p, o)]
             for p, o in zip(b, c)] for b, c in zip(R.entries, S.entries)]


@pytest.mark.parametrize("l", [1, 2, 3])
def test_sum_over_different_denominators_matches_the_fraction_sum(l):
    # R - sigma_tilde is summed over ints on the lcm of the two denominators
    # and reduced once; entry by entry it is the Fraction difference
    n = 2 * l
    R = random_curvature(l, 160 + l)
    st = sigma_tilde_of(RicciTensor(l, [[F(i + j + 1, 11) for j in range(n)] for i in range(n)]))
    assert lcm(R.den, st.den) not in (R.den, st.den)
    for sign, out in ((-1, R - st), (1, R + st)):
        assert out.entries == _fraction_sum(R, st, sign)
        assert gcd(out.den, *(x for b in out.num for p in b for r in p for x in r)) == 1
    assert (R - R).is_zero() and (R - R).den == 1


def test_the_verifiers_clear_no_tensor(monkeypatch):
    # every tensor carries its numerators and denominator from the moment it
    # is built, so once the instances are sampled nothing clears again
    import sympspin.curvature as curvature

    stream = RandomStream(170)
    sigma, W, R = RicciTensor.random(2, stream), random_weyl(2, 171), random_curvature(2, 172)
    phi = random_spinor(2, 2, 8, stream)

    def refuse(*args):
        raise AssertionError("a verifier cleared a tensor")

    monkeypatch.setattr(curvature, "_cleared", refuse)
    monkeypatch.setattr(curvature, "_cleared_matrix", refuse)
    assert verify.verify_theorem9(sigma, phi).status == "pass"
    assert verify.verify_theorem10(W, phi).status == "pass"
    assert verify.verify_corollary11(R, phi).status == "pass"
    assert verify.lemma6_instance(R)
    assert verify.lemma7_weyl_instance(R)


# ---------------------------------------------------------------------------
# Planted defects
# ---------------------------------------------------------------------------


def _failing_checks(tmp_path) -> tuple[set, list]:
    """Run the default suites at l = 2, trials = 2 (seed 42), which must
    fail; return the failing record names and every record."""
    report_path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "2", "--format", "json", "--out", str(report_path)]
    assert main(argv) == 1
    checks = json.loads(report_path.read_text())["checks"]
    return {c["name"] for c in checks if c["status"] == "fail"}, checks


def _replays_then_heals(name, checks, tmp_path, monkeypatch, capsys) -> None:
    """The counterexample of check `name` replays with exit 1 under the
    planted defect and with exit 0 once it is undone."""
    ce_path = tmp_path / f"{name}.json"
    ce_path.write_text(json.dumps(next(c["counterexample"] for c in checks
                                       if c["name"] == name)))
    capsys.readouterr()
    assert main(["--replay", str(ce_path)]) == 1
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    monkeypatch.undo()
    assert main(["--replay", str(ce_path)]) == 0


def _plant_kernel(monkeypatch, kernel) -> None:
    """Route every Clifford product through `kernel`: the modules that call
    the accumulation kernel each hold their own reference to it."""
    for module in (spinors, forms, verify):
        monkeypatch.setattr(module, "_clifford_into", kernel)


def test_flipped_unit_i_fails_lemma1_and_replays(tmp_path, monkeypatch, capsys):
    # The planted defect: the Clifford kernel multiplies by -i instead of +i
    # for e_i with i < l, so e_i acts as -i x^i and the Clifford commutator
    # changes sign.  At l = 2, trials = 2 (seed 42) exactly these eleven
    # records fail; lemma1 is the check that decides the unit.  p20 is the
    # omega-wedge of Y^2 and the quadratic sums merge mirrored products with
    # the true relation, so the sign error no longer cancels in p20 and the
    # eq. 9 and p20 displays fail too.
    kernel = spinors._clifford_into

    def flipped(acc, num, i, l, cap, f):
        kernel(acc, num, i, l, cap, -f if i < l else f)

    _plant_kernel(monkeypatch, flipped)
    failing, checks = _failing_checks(tmp_path)
    assert failing == {
        "lemma1", "lemma4", "lemma5.idempotency", "lemma5.orthogonality",
        "theorem9", "theorem9.eq9-display", "theorem9.eq10-display",
        "corollary11.p20-display", "corollary11.p21-display", "corollary11.p22-display",
        "symbol-complex",
    }
    _replays_then_heals("lemma1", checks, tmp_path, monkeypatch, capsys)


def test_diff_x_reading_the_wrong_field_fails_lemma1_and_replays(tmp_path, monkeypatch, capsys):
    # The planted defect: d/dx^v reads the exponent field of x^(v+1 mod l)
    # (but still subtracts its step from the x^v field and the degree).
    # At l = 2, trials = 2 (seed 42) exactly these fourteen records fail:
    # every spinor check but symbol-complex's negative control, and
    # theorem10.  lemma6, lemma7 and fedosov use no spinors.
    steps = spinors._clifford_steps

    def wrong_field(l):
        up, down = steps(l)[:l], steps(l)[l:]
        return up + tuple((FIELD_BITS * ((v + 1) % l), step) for v, (_, step) in enumerate(down))

    monkeypatch.setattr(spinors, "_clifford_steps", wrong_field)
    failing, checks = _failing_checks(tmp_path)
    assert failing == {
        "lemma1", "lemma4", "lemma5.idempotency", "lemma5.orthogonality",
        "theorem9", "theorem9.eq9-display", "theorem9.eq10-display",
        "theorem10", "theorem10.eq11-display", "theorem10.eq12-display",
        "corollary11.p20-display", "corollary11.p21-display", "corollary11.p22-display",
        "symbol-complex",
    }
    _replays_then_heals("lemma1", checks, tmp_path, monkeypatch, capsys)


def test_unscaled_first_products_fail_lemma1_and_replay(tmp_path, monkeypatch, capsys):
    # The planted defect: `_quadratic_into` drops the factor
    # s.den // (e_b.s).den, so wherever d/dx^v shares a factor with s.den and
    # e_b.s reduces to a smaller denominator, its second products are summed
    # as if e_b.s were still over s.den.  lemma1 decides the Clifford
    # relation through this kernel, so it must fail and replay.  At l = 2,
    # trials = 2 (seed 42) exactly these five records fail; the others do not
    # reach the kernel or miss the defect at these draws.
    def unscaled(s, terms):
        accs = defaultdict(dict)
        for b, row in enumerate(terms):
            if row:
                eb = clifford_basis(b, s)
                for slot, a, f in row:
                    _clifford_into(accs[slot], eb.num, a, s.l, s.cap, f)
        return accs

    for module in (spinors, verify):
        monkeypatch.setattr(module, "_quadratic_into", unscaled)
    failing, checks = _failing_checks(tmp_path)
    assert failing == {
        "lemma1", "theorem9", "theorem9.eq10-display",
        "corollary11.p21-display", "corollary11.p22-display",
    }
    _replays_then_heals("lemma1", checks, tmp_path, monkeypatch, capsys)


def test_flipped_merged_partner_scalar_fails_theorem9_and_replays(tmp_path, monkeypatch, capsys):
    # The planted defect: `_quadratic_into` merges a partner product
    # e_{a+l}.(e_a.s) into its mirror e_a.(e_{a+l}.s) with the scalar -i f s
    # in place of i f s.  At l = 2, trials = 2 (seed 42) exactly these four
    # records fail.  lemma1 forms every product as written, so it passes;
    # theorem10 and its displays miss it at these draws.
    scalar = spinors._i_times_into
    monkeypatch.setattr(spinors, "_i_times_into", lambda acc, num, f: scalar(acc, num, -f))
    failing, checks = _failing_checks(tmp_path)
    assert failing == {
        "theorem9", "theorem9.eq10-display",
        "corollary11.p21-display", "corollary11.p22-display",
    }
    _replays_then_heals("theorem9", checks, tmp_path, monkeypatch, capsys)


def test_read_off_i_with_a_wrong_sign_fails_the_theorems_and_replays(tmp_path, monkeypatch,
                                                                   capsys):
    # The planted defect: the read-off that takes the final i of the action,
    # sp_action and the eq. 9-11 displays (`_from_acc` with times_i) writes
    # (im, re) in place of (-im, re), so one part gets the wrong sign.  At
    # l = 2, trials = 2 (seed 42) exactly these six records fail, and
    # theorem9's counterexample replays.  A consistent -i in every read-off
    # would scale each of these operators by -1 alike, which no linear verdict
    # sees; the oracle tests of the action and eq. 11 catch that one.
    read_off = spinors._from_acc

    def wrong_sign(l, cap, acc, den, times_i=False):
        s = read_off(l, cap, acc, den)
        if not times_i:
            return s
        return spinors._spinor(l, cap, {a: (im, re) for a, (re, im) in s.num.items()}, s.den)

    for module in (spinors, forms, verify):
        monkeypatch.setattr(module, "_from_acc", wrong_sign)
    failing, checks = _failing_checks(tmp_path)
    assert failing == {
        "theorem9", "theorem9.eq10-display",
        "theorem10.eq11-display", "theorem10.eq12-display",
        "corollary11.p21-display", "corollary11.p22-display",
    }
    _replays_then_heals("theorem9", checks, tmp_path, monkeypatch, capsys)


def test_halved_action_fails_the_corrected_eq9_display(monkeypatch):
    # The planted defect: the folded action applies i/2 per slot instead of
    # (i/2) * 2 = i.  The main theorem9 verdict cannot catch it, because p22
    # of half an action is still zero; the corrected eq. 9 display, which
    # compares p20 with the normalized printed formula, turns false.
    stream = RandomStream(9)
    sigma = RicciTensor.random(2, stream)
    phi = random_spinor(2, 3, 9, stream)
    healthy = verify.verify_theorem9(sigma, phi)
    assert healthy.status == "pass" and healthy.displays[0][1] is True

    action = verify.spinor_curvature_action
    monkeypatch.setattr(verify, "spinor_curvature_action",
                        lambda T, phi: action(T, phi).scale(F(1, 2)))
    broken = verify.verify_theorem9(sigma, phi)
    assert broken.status == "pass"
    assert verify.SUITES["theorem9"].displays[0].name == "eq9"
    assert broken.displays[0][1] is False


def test_unscaled_mixed_denominator_add_fails_and_replays(tmp_path, monkeypatch, capsys):
    # The planted defect: the one-denominator step (`_common_den`) returns
    # the lcm of the denominators but leaves every numerator unscaled, so
    # spinors and form components over different denominators are summed
    # as if they shared the lcm: in PolySpinor.__add__ and in X and Y.  At
    # l = 2, trials = 2 (seed 42) exactly these fifteen records fail.  The
    # other eight pass: lemma6, lemma7 and fedosov use no spinors, and
    # theorem10 and symbol-complex's negative control miss it at these draws.
    monkeypatch.setattr(spinors, "_common_den", lambda dens: (lcm(*dens), [1] * len(dens)))
    monkeypatch.setattr(forms, "_common_den", spinors._common_den)
    failing, checks = _failing_checks(tmp_path)
    assert {c["status"] for c in checks} == {"pass", "fail"}
    assert failing == {
        "lemma1", "lemma4", "lemma5.idempotency", "lemma5.orthogonality",
        "lemma5.partition-of-identity",
        "theorem9", "theorem9.eq9-display", "theorem9.eq10-display",
        "theorem10.eq11-display", "theorem10.eq12-display",
        "corollary11", "corollary11.p20-display", "corollary11.p21-display",
        "corollary11.p22-display", "symbol-complex",
    }
    _replays_then_heals("theorem9", checks, tmp_path, monkeypatch, capsys)


def _scaled(T: CurvatureTensor, k) -> CurvatureTensor:
    return _tensor(T.l, [[[[x * k for x in row] for row in plane] for plane in block]
                         for block in T.num], T.den)


def test_sigma_tilde_without_its_normalization_fails_and_replays(tmp_path, monkeypatch, capsys):
    # The planted defect: sigma_tilde's one denominator lacks the 2(l+1).  At
    # l = 2, trials = 2 (seed 42) exactly these seven records fail: both
    # lemma7 checks, fedosov.decomposition, theorem9's eq9 and eq10 displays
    # (the printed formulas, which omit the normalization, now match
    # literally and no longer after the correction) and corollary11's p21
    # and p22 displays.  theorem9 itself passes, since p22 of a multiple of
    # the Ricci-type action still vanishes, and so does the corollary11
    # verdict, which holds by construction.
    sigma_tilde = verify.sigma_tilde_of
    monkeypatch.setattr(verify, "sigma_tilde_of",
                        lambda sigma: _scaled(sigma_tilde(sigma), 2 * (sigma.l + 1)))
    report_path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "2", "--format", "json", "--out", str(report_path)]
    assert main(argv) == 1
    checks = json.loads(report_path.read_text())["checks"]
    failing = {c["name"] for c in checks if c["status"] == "fail"}
    assert failing == {
        "lemma7.weyl-trace-free", "lemma7.ricci-section", "fedosov.decomposition",
        "theorem9.eq9-display", "theorem9.eq10-display",
        "corollary11.p21-display", "corollary11.p22-display",
    }
    ce_path = tmp_path / "decomposition.json"
    ce_path.write_text(json.dumps(next(c["counterexample"] for c in checks
                                       if c["name"] == "fedosov.decomposition")))
    capsys.readouterr()
    assert main(["--replay", str(ce_path)]) == 1
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    monkeypatch.undo()
    assert main(["--replay", str(ce_path)]) == 0


def test_unsigned_lowered_trace_fails_the_trace_free_checks(tmp_path, monkeypatch, capsys):
    # The planted defect: the lowered omega-traces of lemma7_weyl_instance
    # drop the sign s_a, i.e. sum e[..a..a*..] over a partner map whose signs
    # are all +1.  The trace-free part of a curvature tensor has nonzero such
    # sums, so exactly lemma7.weyl-trace-free and fedosov.decomposition fail
    # at l = 2, trials = 2; the symmetry and section checks do not read it.
    partners = verify.omega_partners
    monkeypatch.setattr(verify, "omega_partners",
                        lambda l: tuple((j, 1) for j, _ in partners(l)))
    report_path = tmp_path / "report.json"
    argv = ["--l", "2", "--trials", "2", "--format", "json", "--suite", "lemma7",
            "--suite", "fedosov", "--out", str(report_path)]
    assert main(argv) == 1
    checks = json.loads(report_path.read_text())["checks"]
    assert {c["name"]: c["status"] for c in checks} == {
        "lemma7.weyl-trace-free": "fail",
        "lemma7.ricci-section": "pass",
        "fedosov.axioms": "pass",
        "fedosov.curvature-symmetries": "pass",
        "fedosov.decomposition": "fail",
    }
    capsys.readouterr()
    assert main(["--replay", str(report_path)]) == 1
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["reproduced"] for r in results] == [True, True]
    monkeypatch.undo()
    assert main(["--replay", str(report_path)]) == 0
