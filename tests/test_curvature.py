"""Curvature-type tensors: symmetries, constraint spaces, Ricci/Weyl split."""

from fractions import Fraction
import pytest

import oracles

from sympspin.curvature import (
    CurvatureTensor,
    RicciTensor,
    WeylTensor,
    _bianchi_rows,
    _canonical_vars,
    _curvature_type,
    _expand_var_vector,
    _tensor,
    _trace_rows,
    check_symmetries,
    curvature_from_json,
    curvature_space_basis,
    curvature_to_json,
    omega_traces,
    raise_all,
    random_curvature,
    random_weyl,
    ricci_of,
    sigma_tilde_of,
    weyl_of,
    weyl_space_basis,
)
from sympspin.exact import RandomStream, nullspace_basis
from sympspin.symplectic import raise_lower_index, standard_symplectic_form

F = Fraction


def _zero4(n):
    return [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# Symmetry predicates
# ---------------------------------------------------------------------------


def test_zero_tensor_passes_all():
    report = check_symmetries(_zero4(4))
    assert report.all_hold()


def test_single_entry_fails_antisymmetry():
    e = _zero4(4)
    e[0][0][0][0] = F(1)
    report = check_symmetries(e)
    assert not report.antisym_last_pair.holds
    assert report.antisym_last_pair.first_violation == (0, 0, 0, 0)


def test_random_constraint_element_passes_all_four():
    for seed in (1, 2, 3):
        R = random_curvature(2, seed)
        assert check_symmetries(R).all_hold()


def test_constructor_validates():
    e = _zero4(4)
    e[0][0][0][0] = F(1)
    with pytest.raises(ValueError):
        CurvatureTensor(2, e)


def _planted(l: int, identity: str, seed: int):
    """The numerators of a random curvature tensor with a violation of one
    identity planted at indices drawn from `seed`.  "A" bumps R_iikk, which
    breaks (A) and (B) and keeps (C); "B" adds 1 at R_iiab and -1 at R_iiba
    (i, a, b distinct, so l >= 2), which keeps (A) and (C); "C" adds 1 at
    R_iaai and -1 at R_iaia (i != a), which keeps (A) and (B)."""
    stream = RandomStream(seed)
    e = [[[list(row) for row in plane] for plane in block]
         for block in random_curvature(l, seed).num]
    i, a, b = stream.next_int(0, 2 * l - 1), 0, 0
    while a == i:
        a = stream.next_int(0, 2 * l - 1)
    while l > 1 and b in (i, a):
        b = stream.next_int(0, 2 * l - 1)
    c = stream.next_int(1, 5)
    if identity == "A":
        e[i][i][a][a] += c
    elif identity == "B":
        e[i][i][a][b] += c
        e[i][i][b][a] -= c
    else:
        e[i][a][a][i] += c
        e[i][a][i][a] -= c
    return e


_FIELDS = {"A": "antisym_last_pair", "B": "first_bianchi", "C": "pair_symmetry"}


@pytest.mark.parametrize("l", [1, 2, 3])
def test_curvature_type_predicate_matches_the_oracle_report(l):
    # the early-exit predicate against the full Fraction report on tensors that
    # hold (A)-(C), on arrays with no symmetry, and on one planted violation
    # of each identity; (B) cannot fail alone at l = 1, where (A) makes its
    # sum an alternating 3-form in two dimensions
    stream = RandomStream(40 + l)
    n = 2 * l
    arrays = [random_curvature(l, s).num for s in range(3)] + [random_weyl(l, 3).num]
    arrays += [[[[[stream.next_int(-1, 1) for _ in range(n)] for _ in range(n)]
                 for _ in range(n)] for _ in range(n)] for _ in range(3)]
    for identity in ("A", "B", "C") if l > 1 else ("A", "C"):
        for seed in range(4):
            e = _planted(l, identity, 50 + seed)
            report = oracles.check_symmetries(e)
            assert not getattr(report, _FIELDS[identity]).holds
            if identity != "A":
                assert sum(getattr(report, f).holds for f in _FIELDS.values()) == 2
            arrays.append(e)
    for e in arrays:
        expected = oracles.check_symmetries(e).curvature_type()
        assert _curvature_type(e) == expected
        assert _curvature_type(_tensor(l, e, 1)) == expected
        assert check_symmetries(e).curvature_type() == expected


def test_constructor_message_is_the_full_report():
    e = _planted(2, "B", 7)
    with pytest.raises(ValueError) as exc:
        CurvatureTensor(2, e)
    assert str(exc.value) == f"symmetry violation: {check_symmetries(e)}"
    with pytest.raises(ValueError):
        ricci_of(_tensor(2, e, 1))


# ---------------------------------------------------------------------------
# Constraint spaces
# ---------------------------------------------------------------------------


def curvature_space_dim(l):
    return len(curvature_space_basis(l))


def weyl_space_dim(l):
    return len(weyl_space_basis(l))


def test_constraint_space_dims_golden():
    # exact nullspace dimensions, recorded from the RREF computation
    assert curvature_space_dim(1) == 3
    assert curvature_space_dim(2) == 45
    assert weyl_space_dim(1) == 0
    assert weyl_space_dim(2) == 35


@pytest.mark.parametrize("l", [1, 2])
def test_constraint_dim_splits_into_weyl_plus_ricci(l):
    assert curvature_space_dim(l) - weyl_space_dim(l) == l * (2 * l + 1)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_trace_rows_and_bases_match_the_separate_index_walk(l):
    # the trace rows and the lowered traces share one cached index walk; the
    # rows, and the nullspace bases built from them, are the oracle's
    n = 2 * l
    variables, index = _canonical_vars(n)
    rows = oracles.trace_rows(n, index)
    assert _trace_rows(n, index) == rows
    bianchi = _bianchi_rows(n, index)
    assert weyl_space_basis(l) == [(variables, v) for v in
                                   nullspace_basis(bianchi + rows, len(variables))]
    assert curvature_space_basis(l) == [(variables, v) for v in
                                        nullspace_basis(bianchi, len(variables))]


def test_extended_bianchi_on_full_basis():
    # identity (D) is implied by (A)-(C): check every basis tensor, not samples
    for l in (1, 2):
        for variables, vec in curvature_space_basis(l):
            T = CurvatureTensor(l, _expand_var_vector(l, variables, vec))
            assert check_symmetries(T).all_hold()


def test_weyl_space_trivial_at_l1():
    assert weyl_space_dim(1) == 0
    assert random_weyl(1, 5).is_zero()


def test_random_curvature_deterministic():
    a = random_curvature(2, 99)
    b = random_curvature(2, 99)
    assert a == b
    assert a != random_curvature(2, 100)


# ---------------------------------------------------------------------------
# Ricci trace and sigma_tilde
# ---------------------------------------------------------------------------


def test_ricci_of_zero():
    assert ricci_of(CurvatureTensor.zero(2)).is_zero()


@pytest.mark.parametrize("l", [2, 3])
def test_ricci_trace_identity(l):
    # R^{ijkl} omega_kl = 2 sigma^{ij}, and sigma is symmetric
    space = standard_symplectic_form(l)
    n = space.n
    stream = RandomStream(7 * l)
    for _ in range(3):
        R = random_curvature(l, stream.next_int(0, 2**31 - 1))
        sigma = ricci_of(R)
        raised = raise_all(R)
        sig_up = raise_lower_index(
            raise_lower_index(sigma.entries, 0, "raise"), 1, "raise"
        )
        for i in range(n):
            for j in range(n):
                acc = sum(
                    raised[i][j][k][m] * space.omega_lower[k][m]
                    for k in range(n)
                    for m in range(n)
                    if space.omega_lower[k][m]
                )
                assert acc == 2 * sig_up[i][j]


def test_sigma_tilde_zero():
    assert sigma_tilde_of(RicciTensor.zero(2)).is_zero()


def test_sigma_tilde_is_curvature_type():
    stream = RandomStream(11)
    for _ in range(5):
        sigma = RicciTensor.random(2, stream)
        st = sigma_tilde_of(sigma)
        assert check_symmetries(st).all_hold()


def test_ricci_of_sigma_tilde_is_identity():
    stream = RandomStream(13)
    for l in (2, 3):
        for _ in range(3):
            sigma = RicciTensor.random(l, stream)
            assert ricci_of(sigma_tilde_of(sigma)) == sigma


def test_ricci_rejects_asymmetric_input():
    e = _zero4(4)
    # violates the pair symmetry (C): R_0102 set without its mirror
    e[0][1][0][2] = F(1)
    e[0][1][2][0] = F(-1)
    with pytest.raises(ValueError):
        ricci_of(oracles.unchecked_tensor(2, e))


# ---------------------------------------------------------------------------
# Weyl part
# ---------------------------------------------------------------------------


def test_weyl_of_pure_ricci_tensor_is_zero():
    sigma = RicciTensor.random(2, RandomStream(17))
    W = weyl_of(sigma_tilde_of(sigma))
    assert W.is_zero()


def test_weyl_traces_vanish():
    for seed in (21, 22):
        W = weyl_of(random_curvature(2, seed))
        for mat in omega_traces(W).values():
            assert all(not x for row in mat for x in row)
        assert check_symmetries(W).all_hold()


def test_decomposition_is_exact_and_ricci_free():
    for seed in (31, 32):
        R = random_curvature(2, seed)
        sigma = ricci_of(R)
        st = sigma_tilde_of(sigma)
        W = weyl_of(R)
        assert st + W == R
        assert ricci_of(W).is_zero()


def test_weyl_of_is_idempotent():
    R = random_curvature(2, 41)
    W = weyl_of(R)
    assert weyl_of(CurvatureTensor(2, W.entries)) == W


def test_random_weyl_is_fixed_point():
    W = random_weyl(2, 43)
    assert weyl_of(CurvatureTensor(2, W.entries)) == W


def test_weyl_constructor_rejects_traceful():
    sigma = RicciTensor.random(2, RandomStream(47))
    st = sigma_tilde_of(sigma)
    if st.is_zero():
        pytest.skip("degenerate sample")
    with pytest.raises(ValueError):
        WeylTensor(2, st.entries)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_curvature_json_round_trip():
    R = random_curvature(2, 53)
    obj = curvature_to_json(R)
    assert all(min(item["ijkl"]) >= 1 for item in obj["entries"])
    assert curvature_from_json(obj) == R
