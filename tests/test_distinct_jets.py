"""A connection stores each distinct symbol once, over one denominator; the
curvature field interns each distinct jet once and evaluates it once per
point; the connection sampler clears each drawn symbol once, unchecked.

The integer evaluation is compared with the Fraction oracle, which evaluates
the raised `Poly` table term by term, here on connections whose symbols are
not symmetric; `test_connections` compares it on sampled connections, their
JSON copies and the flat connection.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

import oracles
from sympspin import connections
from sympspin.connections import (
    CurvatureField,
    Poly,
    PolynomialConnection,
    connection_from_json,
    connection_to_json,
    evaluate_curvature_at,
    random_connection,
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
    gamma = {idx: oracles.random_poly(n, degree, stream) for idx in product(range(n), repeat=3)}
    return PolynomialConnection(l, degree, gamma)


def _mismatches(field: CurvatureField, conn: PolynomialConnection, points) -> list:
    """The points where the field's evaluation and the Fraction oracle differ."""
    return [p for p, R in zip(points, oracles.curvatures_at(conn, points))
            if evaluate_curvature_at(field, p) != R]


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
    # the private sampler draws the same pairs as `next_fraction`, in order
    for seed, l, degree in product(range(50), (1, 2, 3), range(4)):
        a, b = RandomStream(seed), RandomStream(seed)
        for _ in range(2):
            p = connections._draw(2 * l, degree, a, 3)
            q = oracles.random_poly(2 * l, degree, b)
            assert [(alpha, F(x, y)) for alpha, x, y in p] == list(q.terms.items())
        assert all(type(x) is int and x and 1 <= y <= 3 for _, x, y in p)
        assert a._state == b._state


def test_random_connection_matches_the_checked_sampler():
    for seed, l, degree in product(range(50), (1, 2, 3), range(4)):
        conn = random_connection(l, degree, seed)
        gamma = oracles.random_gamma(l, degree, seed)
        assert conn == PolynomialConnection(l, degree, gamma)
        # one draw per sorted triple; the equality above covers its permutations
        drawn = [gamma[idx] for idx in combinations_with_replacement(range(2 * l), 3)]
        assert [conn.entry(*idx) for idx in combinations_with_replacement(range(2 * l), 3)] == drawn
        assert (conn.l, conn.cap) == (l, degree)
        assert sorted(conn.ids) == list(product(range(2 * l), repeat=3))
        assert len(conn.symbols) == len(set(drawn))
    with pytest.raises(ValueError):
        random_connection(0, 1, 1)
    with pytest.raises(ValueError):
        random_connection(1, -1, 1)


@pytest.mark.parametrize("l,symbols", [(2, 20), (3, 56), (4, 120)])
def test_a_sampled_connection_stores_each_distinct_symbol_once(l, symbols):
    # C(2l+2, 3) sorted triples, one symbol each; the JSON copy holds separate
    # but equal Polys and interns the same symbols
    for seed in (0, 1):
        conn = random_connection(l, 2, seed)
        copy = connection_from_json(connection_to_json(conn))
        assert len(conn.symbols) == len(copy.symbols) == symbols
        assert copy == conn and copy.den == conn.den
        assert all(type(c) is int and c for sym in conn.symbols for _, c in sym)
        assert all(list(sym) == sorted(sym) for sym in conn.symbols)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_a_json_round_trip_checks_and_clears_each_distinct_symbol_once(l, monkeypatch):
    # the constructor keys its Polys by content, so separate but equal ones
    # (`gamma` builds a fresh view per triple) are checked once; the decoder
    # parses each symbol, as written, once
    conn = random_connection(l, 2, 60 + l)
    checked = []
    degree = Poly.degree
    monkeypatch.setattr(Poly, "degree", lambda p: checked.append(p) or degree(p))
    for build in (lambda: connection_from_json(connection_to_json(conn)),
                  lambda: PolynomialConnection(l, 2, conn.gamma)):
        checked.clear()
        assert build() == conn
        assert len(checked) == len(set(checked)) == len(conn.symbols)


@pytest.mark.parametrize("l,degree", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_an_asymmetric_connection_stores_each_distinct_poly_once(l, degree):
    # independent draws per ordered triple; at degree 0 many repeat
    conn = _asymmetric_connection(l, degree, 1700 + 10 * l + degree)
    gamma = conn.gamma
    assert len(conn.symbols) == len(set(gamma.values()))
    assert all((conn.ids[a] == conn.ids[b]) == (gamma[a] == gamma[b])
               for a in gamma for b in gamma)
    assert connection_from_json(connection_to_json(conn)) == conn
