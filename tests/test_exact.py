"""Exact scalar arithmetic, deterministic sampling and the sparse elimination."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

import oracles
from sympspin.exact import (
    GaussianRational,
    RandomStream,
    nullspace_basis,
    parse_indices,
    parse_rational,
    random_symmetric_matrix,
    symmetric_matrix,
)

GR = GaussianRational


def sparse(dense_rows):
    """Dense rows as the sparse {column: scalar} rows nullspace_basis takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in dense_rows]


def annihilates(rows, vec) -> bool:
    return all(sum((x * vec.get(c, 0) for c, x in row.items()), Fraction(0)) == 0
               for row in rows)


def det(m):
    """Leibniz expansion; fine for the few small matrices drawn here."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        for i, p in enumerate(perm):
            term = term * m[i][p]
        total = total + term
    return total


def minor_rank(rows, ncols) -> int:
    """Size of the largest nonvanishing minor: a rank that uses no elimination."""
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    for k in range(min(len(dense), ncols), 0, -1):
        for rs in combinations(range(len(dense)), k):
            for cs in combinations(range(ncols), k):
                if det([[dense[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def random_rows(nrows, ncols, draw):
    return [{c: x for c in range(ncols) if (x := draw())} for _ in range(nrows)]


# ---------------------------------------------------------------------------
# Reduced echelon form, read off the basis: each basis vector carries the
# negated entries of the fully reduced pivot rows in its free column
# ---------------------------------------------------------------------------


def test_rref_identity():
    # a scaled, shuffled identity pivots every column
    rows = [{2: Fraction(3)}, {0: Fraction(-1)}, {1: Fraction(1, 2)}]
    assert nullspace_basis(rows, 3) == []


def test_rref_zero_matrix():
    # all-zero rows leave every column free
    assert nullspace_basis([{}, {}], 2) == [{0: 1}, {1: 1}]


def test_rref_rank_one():
    # [[1, 2], [2, 4]] reduces to [[1, 2], [0, 0]]
    assert nullspace_basis(sparse([[1, 2], [2, 4]]), 2) == [{1: 1, 0: -2}]


def test_rref_idempotent_on_random_matrices():
    # the reduced form depends only on the row space: reordering or repeating
    # the rows, or appending combinations of them, leaves the basis as it is
    stream = RandomStream(101)
    for _ in range(10):
        nrows, ncols = stream.next_int(1, 4), stream.next_int(1, 4)
        rows = random_rows(nrows, ncols, lambda: stream.next_fraction(5))
        basis = nullspace_basis(rows, ncols)
        mixed = {c: x for c in range(ncols)
                 if (x := rows[0].get(c, 0) - 2 * rows[-1].get(c, 0))}
        assert nullspace_basis(rows[::-1] + rows + [mixed], ncols) == basis


# ---------------------------------------------------------------------------
# Nullspace
# ---------------------------------------------------------------------------


def test_nullspace_trivial_kernel():
    assert nullspace_basis(sparse([[1, 0], [0, 1]]), 2) == []


def test_nullspace_full_kernel():
    basis = nullspace_basis([{}, {}], 3)
    assert len(basis) == 3


def test_nullspace_line():
    basis = nullspace_basis([{0: 1, 1: 1}], 2)
    assert len(basis) == 1
    v = basis[0]
    # spans {(1, -1)}: second component is the negative of the first
    assert v[1] == -v[0] and v[0] != 0


def test_nullspace_vectors_annihilate_and_rank_nullity():
    stream = RandomStream(202)
    for _ in range(10):
        nrows, ncols = stream.next_int(1, 4), stream.next_int(1, 5)
        rows = random_rows(nrows, ncols, lambda: stream.next_fraction(4))
        basis = nullspace_basis(rows, ncols)
        assert all(annihilates(rows, v) for v in basis)
        assert minor_rank(rows, ncols) + len(basis) == ncols


def test_nullspace_gaussian_rows_of_known_rank():
    # rank-r systems over Q(i): r random Gaussian rows plus random Gaussian
    # combinations of them
    stream = RandomStream(303)
    for rank, nrows, ncols in [(0, 2, 3), (1, 3, 3), (2, 4, 5), (3, 5, 6), (4, 4, 4)]:
        base = random_rows(rank, ncols, lambda: stream.next_gaussian(4))
        rows = list(base)
        for _ in range(nrows - rank):
            mix = [stream.next_gaussian(3) for _ in base]
            row = {c: sum((m * b.get(c, 0) for m, b in zip(mix, base)), GR(0)) for c in range(ncols)}
            rows.append({c: x for c, x in row.items() if x})
        assert minor_rank(rows, ncols) == rank
        basis = nullspace_basis(rows, ncols)
        assert len(basis) == ncols - rank
        assert all(annihilates(rows, v) for v in basis)


def test_non_unit_int_pivots_give_exact_fractions():
    # pivots 3 and 7 are inverted as Fractions, never as floats:
    # x1 = -x2/7, then 3 x0 = -x1 - 2 x2 = -13/7 x2
    basis = nullspace_basis([{0: 3, 1: 1, 2: 2}, {1: 7, 2: 1}], 3)
    assert basis == [{2: 1, 0: Fraction(-13, 21), 1: Fraction(-1, 7)}]
    assert nullspace_basis([{0: 3, 1: 1}], 2) == [{1: 1, 0: Fraction(-1, 3)}]
    assert all(type(x) in (int, Fraction) for v in basis for x in v.values())


def test_unit_int_pivots_stay_ints():
    basis = nullspace_basis([{0: -1, 1: 2, 3: 1}, {1: 1, 2: -3}], 4)
    assert basis == [{2: 1, 0: 6, 1: 3}, {3: 1, 0: 1}]
    assert all(type(x) is int for v in basis for x in v.values())


def as_items(basis):
    """Each vector's (column, value) pairs in key order."""
    return [list(v.items()) for v in basis]


def rank_deficient_rows(stream, draw, scale, ncols):
    """Random rows, some empty, plus combinations and repeats of them, shuffled."""
    base = [{c: x for c in range(ncols) if stream.next_int(0, 2) and (x := draw())}
            for _ in range(stream.next_int(0, 4))]
    rows = base + [{}] * stream.next_int(0, 2)
    for _ in range(stream.next_int(0, 3) if base else 0):
        a, b = (base[stream.next_int(0, len(base) - 1)] for _ in range(2))
        m = scale()
        rows.append({c: x for c in range(ncols) if (x := a.get(c, 0) + m * b.get(c, 0))})
    rows += [rows[stream.next_int(0, len(rows) - 1)] for _ in range(len(rows) // 2)]
    for i in range(len(rows) - 1, 0, -1):
        j = stream.next_int(0, i)
        rows[i], rows[j] = rows[j], rows[i]
    return rows


@pytest.mark.parametrize("field", ["Z", "Q", "Q(i)"])
def test_nullspace_matches_the_oracle(field):
    # the oracle is the elimination before it stayed in ints: it is exact on
    # Fraction and Gaussian rows, so int rows reach it as Fractions
    stream = RandomStream({"Z": 11, "Q": 12, "Q(i)": 13}[field])
    draw, scale = {
        "Z": (lambda: stream.next_int(-4, 4), lambda: stream.next_int(-3, 3)),
        "Q": (lambda: stream.next_fraction(5), lambda: stream.next_fraction(3)),
        "Q(i)": (lambda: stream.next_gaussian(3), lambda: stream.next_gaussian(2)),
    }[field]
    for _ in range(200):
        ncols = stream.next_int(1, 7)
        rows = rank_deficient_rows(stream, draw, scale, ncols)
        exact = [{c: Fraction(x) if field == "Z" else x for c, x in row.items()} for row in rows]
        assert as_items(nullspace_basis(rows, ncols)) == as_items(
            oracles.nullspace_basis(exact, ncols))


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------


def test_sampler_deterministic():
    a, b = RandomStream(7), RandomStream(7)
    assert [a.next_fraction(5) for _ in range(3)] == [b.next_fraction(5) for _ in range(3)]


def test_sampler_bound_one():
    stream = RandomStream(1)
    v = [stream.next_fraction(1) for _ in range(50)]
    assert all(x in (Fraction(-1), Fraction(0), Fraction(1)) for x in v)


def test_sampler_golden_vector():
    golden = ["-1/3", "7/9", "3/2", "-4/3", "-1", "-6/7", "-9/2", "-6", "0", "-6"]
    stream = RandomStream(42)
    assert [str(stream.next_fraction(9)) for _ in range(10)] == golden


def test_sampler_rejects_bad_bound():
    with pytest.raises(ValueError):
        RandomStream(1).next_fraction(0)


def test_random_symmetric_matrix_draw_order():
    # one draw per entry i <= j, row by row, mirrored below the diagonal
    m = random_symmetric_matrix(3, RandomStream(5), 4)
    stream = RandomStream(5)
    for i in range(3):
        for j in range(i, 3):
            x = stream.next_fraction(4)
            assert m[i][j] == m[j][i] == x
    assert symmetric_matrix(3, m) == m


def test_symmetric_matrix_rejects_asymmetry_and_bad_shape():
    assert symmetric_matrix(2, [[1, 2], [2, 3]]) == [[1, 2], [2, 3]]
    with pytest.raises(ValueError):
        symmetric_matrix(2, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        symmetric_matrix(2, [[0, 1], [1, 0], [0, 0]])


@pytest.mark.parametrize("lo,hi", [(0, 0), (-5, 5), (1, 9), (0, 2 ** 40)])
def test_inlined_next_int_matches_the_composed_draw(lo, hi):
    # next_int inlines next_u64 and the splitmix64 finalizer; the oracle
    # composes them, and both must give the same draws and end state
    for seed in range(100):
        a, b = RandomStream(seed), RandomStream(seed)
        assert [a.next_int(lo, hi) for _ in range(20)] == [
            oracles.next_int(b, lo, hi) for _ in range(20)]
        assert a._state == b._state
    with pytest.raises(ValueError):
        RandomStream(1).next_int(1, 0)


def test_stream_split_is_independent():
    s = RandomStream(9)
    child = s.split(1)
    a = child.next_u64()
    # splitting again with the same label reproduces the child stream
    assert s.split(1).next_u64() == a


# ---------------------------------------------------------------------------
# Field axioms on Q(i)
# ---------------------------------------------------------------------------

small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)
gaussian = st.builds(GaussianRational, small_fraction, small_fraction)


@given(gaussian, gaussian, gaussian)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(gaussian, gaussian, gaussian)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussian)
def test_inverse_exact(a):
    if a:
        assert a * a.inverse() == GR(1)


@given(gaussian, gaussian)
def test_subtraction_inverts_addition(a, b):
    assert (a + b) - b == a


def test_gaussian_rational_basics():
    i = GR(0, 1)
    assert i * i == GR(-1)
    assert GR(Fraction(1, 2), Fraction(1, 3)).conjugate() == GR(Fraction(1, 2), Fraction(-1, 3))
    assert (GR(1) / GR(0, 1)) == GR(0, -1)
    with pytest.raises(ZeroDivisionError):
        GR(0).inverse()


@given(st.fractions())
def test_parse_rational_reads_what_str_writes(x):
    assert parse_rational(str(x)) == x


@pytest.mark.parametrize("text", ["1e10000000", "1.5", " 3", "3/4 ", "+3", "1/-2", "", "--1",
                                  "1_000", "\u0663", "nan", "inf", "1/0", "-3/0", "0/0", "1/00"])
def test_parse_rational_refuses_other_forms(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("value", [3, 1.5, None, ["1"]])
def test_parse_rational_refuses_non_strings(value):
    with pytest.raises(ValueError):
        parse_rational(value)


def test_parse_indices_makes_one_based_indices_zero_based():
    assert parse_indices([1, 4, 2, 3], 4, 4) == (0, 3, 1, 2)


@pytest.mark.parametrize("idx", [[0, 1, 1], [1, 5, 1], [-1, 1, 1], [1, 1], [1, 1, 1, 1],
                                 [1.0, 1, 1], [True, 1, 1], (1, 1, 1), "111", None])
def test_parse_indices_refuses_indices_outside_one_to_n(idx):
    with pytest.raises(ValueError):
        parse_indices(idx, 3, 4)
