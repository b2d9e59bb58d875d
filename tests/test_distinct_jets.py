"""The curvature field interns each distinct jet once and evaluates it once per
point; the connection sampler builds its polynomials and connection unchecked.

The integer evaluation is compared with the Fraction oracle, which evaluates
the raised `Poly` table term by term, here on connections whose symbols are
not symmetric; `test_connections` compares it on sampled connections, their
JSON copies and the flat connection.
"""

from fractions import Fraction
from itertools import product

import pytest

import oracles
from sympspin.connections import (
    CurvatureField,
    PolynomialConnection,
    connection_from_json,
    connection_to_json,
    evaluate_curvature_at,
    random_connection,
    random_poly,
)
from sympspin.exact import RandomStream
from sympspin.symplectic import omega_partners

F = Fraction
def _points(l: int, seed: int) -> list:
    """A point over denominators up to 7 and one over random denominators;
    at l = 4, where the oracle takes seconds per point, the first alone."""
    stream = RandomStream(seed)
    n = 2 * l
    points = [[F(stream.next_int(-6, 6), 7 - i % 6) for i in range(n)],
              [F(stream.next_int(-9, 9), stream.next_int(1, 7)) for _ in range(n)]]
    return points[:1] if l == 4 else points


def _asymmetric_connection(l: int, degree: int, seed: int) -> PolynomialConnection:
    """Independent random symbols for every ordered triple."""
    n = 2 * l
    stream = RandomStream(seed)
    gamma = {idx: random_poly(n, degree, stream) for idx in product(range(n), repeat=3)}
    return PolynomialConnection(l, degree, gamma)


def _mismatches(field: CurvatureField, conn: PolynomialConnection, points) -> list:
    """The points where the field's evaluation and the Fraction oracle differ."""
    return [p for p in points
            if evaluate_curvature_at(field, p) != oracles.evaluate_curvature_at(conn, p)]


@pytest.mark.parametrize("l,degree", [(l, d) for l in (1, 2, 3, 4) for d in range(4)])
def test_asymmetric_connection_matches_the_oracle(l, degree):
    # no symmetry of the symbols is assumed: every ordered triple is its own jet
    conn = _asymmetric_connection(l, degree, 900 + 10 * l + degree)
    field = CurvatureField(conn)
    assert _mismatches(field, conn, _points(l, 1000 + l)) == []


@pytest.mark.parametrize("l,jets", [(2, 100), (3, 392), (4, 1080)])
def test_a_sampled_field_interns_each_distinct_jet_once(l, jets):
    # C(2l+2, 3) distinct symbols, each with 2l distinct partials
    for seed in (0, 1):
        conn = random_connection(l, 2, seed)
        assert len(CurvatureField(conn)._jets) == jets
        copy = connection_from_json(connection_to_json(conn))
        assert len(CurvatureField(copy)._jets) == jets
    n = 2 * l
    assert len(CurvatureField(_asymmetric_connection(l, 2, 5))._jets) == n ** 3 + n ** 4


def _planted(field: CurvatureField, gamma, dgamma) -> CurvatureField:
    """A copy of `field` with the Gamma and d Gamma tables replaced."""
    planted = object.__new__(CurvatureField)
    for name in CurvatureField.__slots__:
        object.__setattr__(planted, name, getattr(field, name))
    object.__setattr__(planted, "_gamma_ints", gamma)
    object.__setattr__(planted, "_dgamma_ints", dgamma)
    return planted


def _sorted_triple_interning(field: CurvatureField) -> CurvatureField:
    """The planted defect: the entry of Gamma_{m* jk}, and of each partial,
    takes the jet of the sorted triple, as interning by the sorted index
    triple instead of by content would; the sign s_m stays."""
    star = [i for i, _ in omega_partners(field.l)]
    r = range(len(star))

    def moved(table, m, j, k):
        i, a, b = sorted((star[m], j, k))
        return table[star[i]][a][b][0], table[m][j][k][1]

    return _planted(field, [[[moved(field._gamma_ints, m, j, k) for k in r] for j in r] for m in r],
                    [[[[moved(block, m, j, k) for k in r] for j in r] for m in r]
                     for block in field._dgamma_ints])


def _dropped_sign(field: CurvatureField) -> CurvatureField:
    """The planted defect: Gamma^m_jk read as Gamma_{m* jk}, without s_m."""
    def unsigned(table):
        return [[[(t, 1) for t, _ in row] for row in plane] for plane in table]

    return _planted(field, unsigned(field._gamma_ints),
                    [unsigned(block) for block in field._dgamma_ints])


@pytest.mark.parametrize("l", [1, 2])
def test_differential_tests_catch_sorted_triple_interning(l):
    # on totally symmetric data every permutation has the same jet, so the
    # defect shows only on the asymmetric connection
    points = _points(l, 1200 + l)
    sym = random_connection(l, 2, 1300 + l)
    assert _mismatches(_sorted_triple_interning(CurvatureField(sym)), sym, points) == []
    conn = _asymmetric_connection(l, 2, 1400 + l)
    assert _mismatches(_sorted_triple_interning(CurvatureField(conn)), conn, points) == points


@pytest.mark.parametrize("l", [1, 2])
def test_differential_tests_catch_a_dropped_sign(l):
    points = _points(l, 1500 + l)
    conn = random_connection(l, 2, 1600 + l)
    assert _mismatches(_dropped_sign(CurvatureField(conn)), conn, points) == points


def test_random_poly_matches_the_fraction_sampler():
    for seed, l, degree in product(range(50), (1, 2, 3), range(4)):
        a, b = RandomStream(seed), RandomStream(seed)
        for _ in range(2):
            p, q = random_poly(2 * l, degree, a), oracles.random_poly(2 * l, degree, b)
            assert list(p.terms.items()) == list(q.terms.items()) and p.n == q.n
        assert all(type(c) is Fraction and c for c in p.terms.values())
        assert a._state == b._state


def test_random_connection_matches_the_checked_sampler():
    for seed, l, degree in product(range(50), (1, 2, 3), range(4)):
        conn = random_connection(l, degree, seed)
        assert conn == oracles.random_connection(l, degree, seed)
        assert (conn.l, conn.cap) == (l, degree)
        assert sorted(conn.gamma) == list(product(range(2 * l), repeat=3))
    with pytest.raises(ValueError):
        random_connection(0, 1, 1)
    with pytest.raises(ValueError):
        random_connection(1, -1, 1)
