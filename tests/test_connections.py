"""Polynomial connections on the flat model and their curvature fields."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

import pytest

import oracles
from sympspin import connections
from sympspin.connections import (
    CurvatureField,
    Poly,
    PolynomialConnection,
    check_connection_axioms,
    connection_from_json,
    connection_to_json,
    curvature_field_of,
    evaluate_curvature_at,
    poly_from_json,
    poly_to_json,
    random_connection,
)
from sympspin.curvature import check_symmetries, ricci_of, sigma_tilde_of, weyl_of
from sympspin.exact import RandomStream
from sympspin.symplectic import standard_symplectic_form
from sympspin.verify import fedosov_suite

F = Fraction


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------


def test_poly_basics():
    p = Poly(2, {(1, 0): F(2), (0, 1): F(1)})
    q = Poly(2, {(1, 0): F(-2)})
    assert oracles.poly_lincomb(2, [(1, p), (1, q)]) == Poly(2, {(0, 1): F(1)})
    assert (p * q) == Poly(2, {(2, 0): F(-4), (1, 1): F(-2)}) == oracles.poly_mul(p, q)
    assert oracles.poly_deriv(p, 0) == Poly.const(2, 2)
    assert oracles.poly_eval(p, [F(3), F(1, 2)]) == F(13, 2)
    assert Poly.zero(2).is_zero() and Poly.zero(2).degree() == -1
    assert p.degree() == 1 and Poly.const(2, 5).degree() == 0


def test_poly_deriv_product_rule():
    stream = RandomStream(3)
    p = oracles.random_poly(3, 2, stream)
    q = oracles.random_poly(3, 2, stream)
    assert p * q == oracles.poly_mul(p, q)
    for v in range(3):
        assert oracles.poly_deriv(p * q, v) == oracles.poly_lincomb(3, [
            (1, oracles.poly_mul(oracles.poly_deriv(p, v), q)),
            (1, oracles.poly_mul(p, oracles.poly_deriv(q, v)))])


def test_poly_results_equal_their_revalidated_copies():
    # products, symbol views and axiom payloads are built unchecked; the
    # public constructor must agree
    stream = RandomStream(5)
    p, q = oracles.random_poly(3, 2, stream), oracles.random_poly(3, 2, stream)
    conn = random_connection(1, 2, 5)
    results = [p * q, p * Poly.zero(3), *conn.gamma.values(),
               connections._difference(conn, conn.ids[0, 0, 0], conn.ids[0, 0, 1])]
    for r in results:
        assert r == Poly(r.n, r.terms)
        assert all(type(c) is Fraction and c for c in r.terms.values())
    assert (p * Poly.zero(3)).is_zero()
    for bad in ((1, 0), (1.0, 0, 0), (True, 0, 0), (0, -1, 0), (0.5, 0.5, 0)):
        with pytest.raises(ValueError):
            Poly(3, {bad: F(1)})


# ---------------------------------------------------------------------------
# Connections
# ---------------------------------------------------------------------------


def test_random_connection_is_symmetric_and_deterministic():
    conn = random_connection(2, 2, 7)
    assert conn.is_totally_symmetric()
    assert conn == random_connection(2, 2, 7)
    assert conn != random_connection(2, 2, 8)


def test_flat_connection():
    conn = PolynomialConnection(2, 0, {})
    report = check_connection_axioms(conn)
    assert report.ok()
    field = curvature_field_of(conn)
    for point in ([0, 0, 0, 0], [F(1), F(2), F(-1), F(1, 3)], [F(-5, 2), F(3), F(7), F(-1)]):
        assert evaluate_curvature_at(field, point).is_zero()


def test_axioms_hold_for_random_symmetric_data():
    for seed in (11, 12):
        conn = random_connection(2, 1, seed)
        assert check_connection_axioms(conn).ok()


def test_axioms_catch_broken_symmetry():
    # break the (i, j) symmetry only: torsion stays zero, nabla(omega) fails
    n = 4
    gamma = {idx: Poly.zero(n) for idx in product(range(n), repeat=3)}
    gamma[(0, 1, 1)] = Poly.const(n, 1)   # Gamma_011 != Gamma_101
    conn = PolynomialConnection(2, 0, gamma)
    report = check_connection_axioms(conn)
    assert report.torsion_free
    assert not report.preserves_omega
    assert report.first_violation is not None
    assert report.violation_poly is not None
    assert report.violation_poly["terms"]


def test_connection_degree_cap_enforced():
    n = 4
    gamma = {(0, 0, 0): Poly(n, {(2, 0, 0, 0): F(1)})}
    with pytest.raises(ValueError):
        PolynomialConnection(2, 1, gamma)


# ---------------------------------------------------------------------------
# Curvature fields
# ---------------------------------------------------------------------------


def _constant_connection(entries):
    """Totally symmetric constant-coefficient data from sorted-triple values."""
    n = 4
    gamma = {}
    for idx, val in entries.items():
        for perm in set(permutations(idx)):
            gamma[perm] = Poly.const(n, val)
    return PolynomialConnection(2, 0, gamma)


CONSTANT_GAMMA = {
    (0, 0, 0): F(1),
    (0, 0, 1): F(1, 2),
    (0, 2, 3): F(-1, 3),
    (1, 1, 3): F(2),
    (3, 3, 3): F(-1),
}


def test_constant_connection_curvature_is_constant_gamma_squared():
    """With constant data the derivative terms vanish identically, so the
    curvature is the same at every point; its value must agree with a direct
    expansion of the Gamma.Gamma commutator done independently here."""
    conn = _constant_connection(CONSTANT_GAMMA)
    space = standard_symplectic_form(2)
    n = 4
    field = curvature_field_of(conn)
    R = evaluate_curvature_at(field, [0, 0, 0, 0])
    assert evaluate_curvature_at(field, [F(3), F(-1, 2), F(2), F(5, 7)]) == R
    assert check_symmetries(R).all_hold()

    def gamma_up(mm, j, k):
        return sum(
            space.omega_upper[mm][i] * conn.entry(i, j, k).terms.get((0,) * n, F(0))
            for i in range(n)
        )

    for i, j, k, m in product(range(n), repeat=4):
        acc = F(0)
        for mm in range(n):
            w = space.omega_lower[mm][i]
            if not w:
                continue
            comm = sum(
                gamma_up(mm, k, a) * gamma_up(a, m, j) - gamma_up(mm, m, a) * gamma_up(a, k, j)
                for a in range(n)
            )
            acc += w * comm
        assert R.entries[i][j][k][m] == acc


def test_degree_one_connection_evaluations_pass_symmetries():
    # the pair-symmetry identity doubles as the sign oracle for the lowering
    conn = random_connection(2, 1, 2024)
    field = curvature_field_of(conn)
    stream = RandomStream(77)
    for _ in range(5):
        point = [stream.next_fraction(3) for _ in range(4)]
        R = evaluate_curvature_at(field, point)
        report = check_symmetries(R)
        assert report.pair_symmetry.holds
        assert report.all_hold()


def test_evaluated_curvature_feeds_decomposition():
    conn = random_connection(2, 2, 55)
    field = curvature_field_of(conn)
    R = evaluate_curvature_at(field, [F(1, 2), F(0), F(-1), F(2)])
    sigma = ricci_of(R)
    W = weyl_of(R)
    assert sigma_tilde_of(sigma) + W == R


def _partial(p: Poly, v: int) -> Poly:
    """d/dx_v of p, written out here so that it does not share `oracles.poly_deriv`."""
    terms = {}
    for alpha, c in p.terms.items():
        if alpha[v]:
            terms[alpha[:v] + (alpha[v] - 1,) + alpha[v + 1:]] = c * alpha[v]
    return Poly(p.n, terms)


def _symbolic_curvature(conn):
    """R_ijkl as polynomials, built with Poly products: the symbolic curvature
    field that the pointwise jets replaced, kept as a naive oracle."""
    space = standard_symplectic_form(conn.l)
    n = space.n
    lincomb, mul = oracles.poly_lincomb, oracles.poly_mul
    gu = oracles.gamma_upper(conn)
    upper = {}
    for m, j in product(range(n), repeat=2):
        for k, mm in combinations(range(n), 2):
            pairs = [(1, _partial(gu[(m, mm, j)], k)), (-1, _partial(gu[(m, k, j)], mm))]
            for a in range(n):
                pairs += [(1, mul(gu[(m, k, a)], gu[(a, mm, j)])),
                          (-1, mul(gu[(m, mm, a)], gu[(a, k, j)]))]
            acc = lincomb(n, pairs)
            upper[(m, j, k, mm)] = acc
            upper[(m, j, mm, k)] = lincomb(n, [(-1, acc)])
    return {(i, j, k, mm): lincomb(n, [(space.omega_lower[m][i], upper[(m, j, k, mm)])
                                       for m in range(n) if k != mm])
            for i, j, k, mm in product(range(n), repeat=4)}


def _oracle_mismatches(l: int, degree: int, seed: int, n_points: int = 3) -> list:
    """(index, point) of every entry where the jets and the oracle differ."""
    conn = random_connection(l, degree, seed)
    oracle = _symbolic_curvature(conn)
    field = curvature_field_of(conn)
    stream = RandomStream(seed)
    bad = []
    for _ in range(n_points):
        point = [stream.next_fraction(3) for _ in range(2 * l)]
        R = evaluate_curvature_at(field, point)
        bad += [(idx, point) for idx, p in oracle.items()
                if R.entry(*idx) != oracles.poly_eval(p, point)]
    return bad


@pytest.mark.parametrize("l,degree", [(l, d) for l in (1, 2) for d in (0, 1, 2)] + [(3, 1)])
def test_curvature_jets_match_symbolic_field(l, degree):
    assert _oracle_mismatches(l, degree, seed=100 * l + degree) == []


@pytest.mark.parametrize("defect", ["shifted-variable", "doubled"])
def test_symbolic_oracle_catches_a_planted_deriv_defect(monkeypatch, defect):
    # The defect is planted in the integer derivative of the jets.  Either
    # one keeps every curvature symmetry (with Gamma totally symmetric, any
    # d_f(k) in place of d_k does, and so does doubling the derivative
    # terms), so all three fedosov checks still pass: the differential test
    # above is the only guard of the derivative terms.
    deriv = connections._deriv_terms
    planted = {
        "shifted-variable": lambda terms, v: deriv(terms, (v + 1) % 4),
        "doubled": lambda terms, v: [(a, 2 * c) for a, c in deriv(terms, v)],
    }
    monkeypatch.setattr(connections, "_deriv_terms", planted[defect])
    reports = fedosov_suite(2, 31, n_connections=1, n_points=2)
    assert [r.status for r in reports] == ["pass", "pass", "pass"]
    assert _oracle_mismatches(2, 1, seed=201)


def _points(l: int, seed: int) -> list:
    """Two points with denominators up to 7 (the first coordinate of the
    first is in lowest terms over 7), an integer point (d = 1) and the origin."""
    stream = RandomStream(seed)
    n = 2 * l
    first = [F(stream.next_int(1, 6), 7 - i % 6) for i in range(n)]
    second = [F(stream.next_int(-9, 9), stream.next_int(1, 7)) for _ in range(n)]
    return [first, second, [stream.next_int(-4, 4) for _ in range(n)], [0] * n]


def _differential_mismatches(conn, points) -> list:
    """The points where the integer evaluation and the Fraction oracle differ."""
    field = curvature_field_of(conn)
    return [p for p in points
            if evaluate_curvature_at(field, p) != oracles.evaluate_curvature_at(conn, p)]


@pytest.mark.parametrize("l,degree", [(l, d) for l in (1, 2, 3, 4) for d in range(4)])
def test_integer_evaluation_matches_fraction_oracle(l, degree):
    # the JSON copy holds separate but equal Polys, so it interns the same jets;
    # at l = 4, where the oracle takes seconds per point, the first point alone
    conn = random_connection(l, degree, 300 + 10 * l + degree)
    field = curvature_field_of(conn)
    copy = curvature_field_of(connection_from_json(connection_to_json(conn)))
    assert field.degree == degree and field.den >= 1
    assert len(copy._jets) == len(field._jets)
    points = _points(l, 400 + 10 * l + degree)[:1 if l == 4 else None]
    assert points[0][0].denominator == 7
    for p in points:
        R = oracles.evaluate_curvature_at(conn, p)
        assert evaluate_curvature_at(field, p) == R and evaluate_curvature_at(copy, p) == R
    R = evaluate_curvature_at(field, points[0])
    assert all(type(x) is int for b in R.num for p in b for r in p for x in r)
    assert all(type(x) is Fraction for b in R.entries for p in b for r in p for x in r)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_integer_evaluation_of_the_flat_connection(l):
    conn = PolynomialConnection(l, 0, {})
    field = curvature_field_of(conn)
    assert (field.den, field.degree, field._jets) == (1, 0, [()])
    points = _points(l, 500 + l)
    assert _differential_mismatches(conn, points) == []
    assert all(evaluate_curvature_at(field, p).is_zero() for p in points)


def test_planted_derivative_scale_defect_passes_the_suite(monkeypatch):
    # The planted defect: the derivative terms scaled by d*S instead of S, so
    # d Gamma(p) counts d times over.  The derivative part and the
    # Gamma.Gamma part are each curvature-type, so every symmetry and the
    # decomposition still hold and all three fedosov checks pass: the
    # differential test and the symbolic-field oracle are the only guards.
    jets = connections._jets_at

    def scaled(field, point):
        g, dg, scale = jets(field, point)
        d = lcm(*(F(x).denominator for x in point))
        return g, [[[[x * d for x in row] for row in plane] for plane in block]
                   for block in dg], scale

    monkeypatch.setattr(connections, "_jets_at", scaled)
    reports = fedosov_suite(2, 31, n_connections=2, n_points=3)
    assert [r.status for r in reports] == ["pass", "pass", "pass"]
    points = _points(2, 422)
    assert _differential_mismatches(random_connection(2, 2, 322), points) == points[:2]
    assert _oracle_mismatches(2, 1, seed=201)


def test_evaluation_returns_a_symmetry_breaking_tensor_unvalidated():
    # jets of a connection that fails the axioms, so CurvatureField is built
    # directly; deciding the symmetries is the caller's check
    conn = PolynomialConnection(1, 1, {(1, 1, 0): Poly(2, {(1, 0): F(1)})})  # Gamma^0_10 = x_0
    assert not check_connection_axioms(conn).ok()
    R = evaluate_curvature_at(CurvatureField(conn), [0, 0])
    assert not check_symmetries(R).curvature_type()


def _planted_connection(l: int, defect: str, seed: int) -> PolynomialConnection:
    """A random connection with one symbol bumped: "torsion" breaks the
    symmetry of the last two indices; "nabla-omega" bumps Gamma_100, which
    keeps it and breaks the symmetry of the first and last."""
    conn = random_connection(l, 2, seed)
    idx = (0, 0, 1) if defect == "torsion" else (1, 0, 0)
    gamma = dict(conn.gamma)
    bump = Poly(2 * l, {(1,) + (0,) * (2 * l - 1): F(2, 3)})
    gamma[idx] = oracles.poly_lincomb(2 * l, [(1, gamma[idx]), (1, bump)])
    return PolynomialConnection(l, 2, gamma)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("defect", ["torsion", "nabla-omega"])
def test_axiom_report_matches_the_difference_oracle(l, defect):
    # the package compares stored symbols; the oracle builds every difference
    # of raised symbols; the reports, payload included, must be equal
    conn = _planted_connection(l, defect, 600 + l)
    report = check_connection_axioms(conn)
    assert report == oracles.check_connection_axioms(conn)
    assert not report.ok() and report.first_violation[0] == defect
    assert report.violation_poly["terms"]
    healthy = random_connection(l, 2, 600 + l)
    assert check_connection_axioms(healthy) == oracles.check_connection_axioms(healthy)
    assert check_connection_axioms(healthy).ok()


def test_the_fedosov_path_does_no_poly_arithmetic(monkeypatch):
    # the sampler, the axioms, the jets and the evaluation run on the integer
    # symbols, so a passing suite builds no Poly at all
    def refuse(*args, **kwargs):
        raise AssertionError("a Poly built on the fedosov path")

    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(connections, "_poly", refuse)
    reports = fedosov_suite(2, 31, n_connections=2, n_points=2)
    assert [r.status for r in reports] == ["pass", "pass", "pass"]


def test_curvature_field_rejects_broken_connection():
    n = 4
    gamma = {idx: Poly.zero(n) for idx in product(range(n), repeat=3)}
    gamma[(0, 1, 1)] = Poly.const(n, 1)
    conn = PolynomialConnection(2, 0, gamma)
    with pytest.raises(ValueError):
        curvature_field_of(conn)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_poly_json_round_trip():
    p = Poly(3, {(1, 0, 2): F(-5, 7), (0, 0, 0): F(2)})
    assert poly_from_json(poly_to_json(p)) == p


def test_connection_json_round_trip():
    conn = random_connection(2, 1, 99)
    assert connection_from_json(connection_to_json(conn)) == conn
