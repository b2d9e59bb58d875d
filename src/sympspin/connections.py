"""Torsion-free symplectic connections on flat R^{2l} with polynomial data.

On the flat model with constant omega and coordinate frame (so all frame
brackets vanish), a connection given by Christoffel symbols is symplectic and
torsion-free exactly when the fully lowered symbols

    Gamma_ijk  (with Gamma^m_jk = sum_i omega^{mi} Gamma_ijk = s_m Gamma_{m* jk})

are totally symmetric in (i, j, k).  A `PolynomialConnection` stores each
distinct symbol once, as int numerators over one denominator L (the lcm of
the reduced coefficient denominators), with a symbol id per ordered triple:
at most C(2l+2, 3) symbols of (2l)^3 when it is totally symmetric.
`check_connection_axioms` does not assume the equivalence above: it verifies
nabla(omega) = 0 (Gamma_ikj = Gamma_jki) and T = 0 (Gamma_ijk = Gamma_ikj)
for whatever symbols it is handed, as equalities of symbol ids.

The curvature of such a connection,

    R^m_jkl = d_k Gamma^m_lj - d_l Gamma^m_kj
              + Gamma^m_ka Gamma^a_lj - Gamma^m_la Gamma^a_kj,
    R_ijkl  = sum_m R^m_jkl omega_mi = -s_i R^{i*}_jkl,

is a field of genuine curvature-type tensors.  Both contractions with omega
are signed swaps through the partner map (i*, s_i) of `symplectic`.  It is
never formed as a field of polynomials, and no Poly arithmetic is done: the
`CurvatureField` of a connection takes each distinct symbol as a jet over the
degree bound D, reads the partials d_v Gamma_ijk off the same integer terms,
and interns each distinct jet once, by content: a totally symmetric
connection has at most C(2l+2, 3)(2l+1) of its (2l)^3 + (2l)^4.
`evaluate_curvature_at` writes the point as p = X/d with integer X,
evaluates each distinct jet once as an integer sum over one table of
homogenised monomials X^alpha d^(D-|alpha|), so that Gamma(p) and
d Gamma(p) are those integers over S = L d^D, and assembles S^2 R(p) from
the display above in O(n^5) integer operations; R(p) is those integers over
S^2.  Every evaluation feeds the
curvature module without synthetic constraint solving.  The lowering realizes
R_ijkl = omega(R(e_k, e_l) e_j, e_i); the pair-symmetry identity (C) doubles
as the sign oracle for this convention, so the test suite failing identity
(C) would disprove the sign, not the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm, prod

from .curvature import CurvatureTensor, _tensor
from .exact import RandomStream, parse_indices, parse_rational
from .symplectic import omega_partners

__all__ = [
    "Poly",
    "PolynomialConnection",
    "CurvatureField",
    "ConnectionAxiomReport",
    "random_connection",
    "check_connection_axioms",
    "curvature_field_of",
    "evaluate_curvature_at",
    "poly_to_json",
    "poly_from_json",
    "connection_to_json",
    "connection_from_json",
]

F0 = Fraction(0)


class Poly:
    """Sparse polynomial in n variables over the rationals: the value and JSON
    type of one Christoffel symbol.  The public constructor checks every
    exponent tuple (ints >= 0, one per variable) and coerces every
    coefficient; connections compute on their integer symbols instead."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for alpha, c in terms.items():
                if len(alpha) != n or any(type(a) is not int or a < 0 for a in alpha):
                    raise ValueError(f"bad exponent tuple {alpha}")
                c = c if type(c) is Fraction else Fraction(c)
                if c:
                    clean[tuple(alpha)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # No caller in the package; kept because the benchmark's
    # connections.poly_mul layer resolves Poly.__mul__ by name.
    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                s = out.get(key, F0) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _poly(self.n, out)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        return "Poly(" + " + ".join(f"{c}*x^{a}" for a, c in sorted(self.terms.items())) + ")"


def _poly(n: int, terms: dict) -> Poly:
    """The unchecked constructor: `terms` must be valid for n, with no zero."""
    p = object.__new__(Poly)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "terms", terms)
    return p


@cache
def _exponents(n: int, budget: int) -> tuple:
    """The exponent tuples of n variables of total degree <= budget, in
    lexicographic order."""
    if n == 1:
        return tuple((e,) for e in range(budget + 1))
    return tuple((e, *rest) for e in range(budget + 1) for rest in _exponents(n - 1, budget - e))


def _draw(n: int, degree: int, stream: RandomStream, bound: int) -> list:
    """The (alpha, p, q) terms p/q x^alpha, sorted by alpha, of a dense random
    polynomial of total degree <= degree, from `next_fraction`'s draws."""
    out = []
    for alpha in _exponents(n, degree):
        p, q = stream.next_int(-bound, bound), stream.next_int(1, bound)
        if p:
            out.append((alpha, p, q))
    return out


class PolynomialConnection:
    """Christoffel data Gamma_ijk with polynomial entries on flat R^{2l}.

    Gamma_ijk = sum c x^alpha / den over the (alpha, c) terms of the symbol
    `symbols[ids[i, j, k]]`, sorted by alpha, with int c and den the lcm of
    the reduced coefficient denominators.  Each distinct symbol is stored
    once, interned by content, so equal ids are equal polynomials; broken
    (asymmetric) data stores more symbols.  `entry` and `gamma` are read-only
    `Poly` views, built on each read."""

    __slots__ = ("l", "cap", "den", "symbols", "ids")

    def __init__(self, l: int, cap: int, gamma: dict):
        n = 2 * l
        zero = Poly.zero(n)
        terms, keys = {}, {}  # each Poly object is checked and cleared once
        for idx in product(range(n), repeat=3):
            p = gamma.get(idx, zero)
            keys[idx] = key = id(p)
            if key in terms:
                continue
            if p.n != n:
                raise ValueError("polynomial has wrong number of variables")
            if p.degree() > cap:
                raise ValueError(f"Gamma{idx} exceeds degree cap {cap}")
            terms[key] = [(a, c.numerator, c.denominator) for a, c in sorted(p.terms.items())]
        _intern(self, l, cap, terms, keys)

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialConnection is immutable")

    def entry(self, i: int, j: int, k: int) -> Poly:
        den = self.den
        return _poly(2 * self.l, {a: Fraction(c, den) for a, c in self.symbols[self.ids[i, j, k]]})

    @property
    def gamma(self) -> dict:
        return {idx: self.entry(*idx) for idx in self.ids}

    def is_totally_symmetric(self) -> bool:
        ids = self.ids
        return all(ids[idx] == ids[key] for idx, key in _sorted_triples(2 * self.l).items())

    def __eq__(self, other):
        if not isinstance(other, PolynomialConnection):
            return NotImplemented
        return (self.l == other.l and self.den == other.den
                and all(self.symbols[t] == other.symbols[other.ids[idx]]
                        for idx, t in self.ids.items()))

    def __repr__(self):
        return f"PolynomialConnection(l={self.l}, cap={self.cap})"


@cache
def _sorted_triples(n: int) -> dict:
    """Each ordered triple of range(n), mapped to its sorted triple."""
    return {idx: tuple(sorted(idx)) for idx in product(range(n), repeat=3)}


def _intern(conn, l: int, cap: int, terms: dict, keys: dict):
    """Fill `conn` from the (alpha, p, q) terms p/q x^alpha, sorted by alpha,
    of the symbol under each key, with keys[i, j, k] the key of each triple:
    each cleared to int numerators over den, each distinct one stored once."""
    den = lcm(*(q // gcd(p, q) for t in terms.values() for _, p, q in t))
    symbols: dict[tuple, int] = {}
    ids = {k: symbols.setdefault(tuple((a, p * den // q) for a, p, q in t), len(symbols))
           for k, t in terms.items()}
    for name, value in (("l", l), ("cap", cap), ("den", den), ("symbols", tuple(symbols)),
                        ("ids", {idx: ids[k] for idx, k in keys.items()})):
        object.__setattr__(conn, name, value)
    return conn


def random_connection(l: int, degree: int, seed: int, bound: int = 3) -> PolynomialConnection:
    """Random totally symmetric Christoffel data, one symbol per sorted triple; deterministic."""
    if l < 1 or degree < 0:
        raise ValueError("need l >= 1 and degree >= 0")
    n = 2 * l
    stream = RandomStream(seed)
    drawn = {idx: _draw(n, degree, stream, bound)
             for idx in combinations_with_replacement(range(n), 3)}
    return _intern(object.__new__(PolynomialConnection), l, degree, drawn, _sorted_triples(n))


@dataclass(frozen=True)
class ConnectionAxiomReport:
    torsion_free: bool
    preserves_omega: bool
    first_violation: tuple | None = None
    violation_poly: dict | None = None

    def ok(self) -> bool:
        return self.torsion_free and self.preserves_omega


def _difference(conn: PolynomialConnection, a: int, b: int) -> Poly:
    """The symbol with id a minus the one with id b."""
    acc = dict(conn.symbols[a])
    for alpha, c in conn.symbols[b]:
        acc[alpha] = acc.get(alpha, 0) - c
    return _poly(2 * conn.l, {alpha: Fraction(c, conn.den) for alpha, c in acc.items() if c})


def check_connection_axioms(conn: PolynomialConnection) -> ConnectionAxiomReport:
    """Verify nabla(omega) = 0 and zero torsion as polynomial identities.

    With Gamma^m_jk = s_m Gamma_{m* jk}, the torsion Gamma^m_jk - Gamma^m_kj
    is s_m (Gamma_{m* jk} - Gamma_{m* kj}); for constant omega,
    -nabla_k omega_ij = Gamma^m_ki omega_mj + Gamma^m_kj omega_im
    = s_i Gamma^{i*}_kj - s_j Gamma^{j*}_ki = Gamma_jki - Gamma_ikj, as
    s_i s_{i*} = -1.  So both compare symbol ids, and a difference is built
    only for the first violation's payload.
    """
    partners = omega_partners(conn.l)
    n = len(partners)
    g = conn.ids
    torsion_ok, omega_ok = True, True
    violation, poly = None, None
    for m, j, k in product(range(n), repeat=3):
        i, w = partners[m]
        if j < k and g[i, j, k] != g[i, k, j]:
            torsion_ok = False
            if violation is None:
                violation = ("torsion", m, j, k)
                a, b = (g[i, j, k], g[i, k, j]) if w > 0 else (g[i, k, j], g[i, j, k])
                poly = poly_to_json(_difference(conn, a, b))
    for k, i, j in product(range(n), repeat=3):
        if g[j, k, i] != g[i, k, j]:
            omega_ok = False
            if violation is None:
                violation = ("nabla-omega", k, i, j)
                poly = poly_to_json(_difference(conn, g[j, k, i], g[i, k, j]))
            break
    return ConnectionAxiomReport(torsion_ok, omega_ok, violation, poly)


def _deriv_terms(terms, v: int) -> list:
    """d/dx_v of a polynomial given by its (exponent, coefficient) terms:
    a_v c x^(a - e_v) for each term c x^a with a_v > 0."""
    return [(a[:v] + (a[v] - 1,) + a[v + 1:], a[v] * c) for a, c in terms if a[v]]


class CurvatureField:
    """One-jet of a connection, in integers when built: `den` is the
    connection's denominator L and `degree` the bound D of every total
    degree.  `_jets` holds each distinct jet ((monomial index, numerator),
    ...) over `_monomials` once, interned by content: one per distinct symbol
    of the connection and one per distinct partial, read off its integer
    terms (`_deriv_terms`).  _gamma_ints[m][j][k] pairs the jet of
    Gamma_{m* jk} with s_m, so Gamma^m_jk is s_m times it;
    _dgamma_ints[v][m][j][k] pairs the jet of d_v Gamma_{m* jk} with s_m."""

    __slots__ = ("l", "den", "degree", "_monomials", "_jets", "_gamma_ints", "_dgamma_ints")

    def __init__(self, conn: PolynomialConnection):
        l, n = conn.l, 2 * conn.l
        partners = omega_partners(l)
        index: dict[tuple[int, ...], int] = {}
        jets: dict[tuple, int] = {}

        def jet(terms):
            key = tuple((index.setdefault(a, len(index)), c) for a, c in terms)
            return jets.setdefault(key, len(jets))

        symbol = [jet(terms) for terms in conn.symbols]
        monomials = list(index)
        partials = [[jet(_deriv_terms([(monomials[i], c) for i, c in key], v)) for v in range(n)]
                    for key in list(jets)]
        ids = conn.ids
        g = [[[(symbol[ids[i, j, k]], w) for k in range(n)] for j in range(n)] for i, w in partners]
        dg = [[[[(partials[t][v], w) for t, w in row] for row in plane] for plane in g]
              for v in range(n)]
        degree = max([0] + [sum(a) for a in monomials])
        for name, value in (("l", l), ("den", conn.den), ("degree", degree),
                            ("_monomials", [(*a, degree - sum(a)) for a in index]),
                            ("_jets", list(jets)), ("_gamma_ints", g), ("_dgamma_ints", dg)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureField is immutable")

    def __repr__(self):
        return f"CurvatureField(l={self.l})"


def curvature_field_of(conn: PolynomialConnection) -> CurvatureField:
    """The curvature jets of a connection; refuses one that fails the axioms."""
    report = check_connection_axioms(conn)
    if not report.ok():
        raise ValueError(f"connection violates axioms: {report.first_violation}")
    return CurvatureField(conn)


def _jets_at(field: CurvatureField, point):
    """(g, dg, S): g[m][j][k] = S Gamma^m_jk(p) and dg[v][m][j][k] =
    S d_v Gamma^m_jk(p) as ints, with S = L d^D for p = X/d; one sum per distinct jet."""
    pt = [Fraction(x) for x in point]
    d = lcm(*(x.denominator for x in pt))
    D = field.degree
    X = [x.numerator * (d // x.denominator) for x in pt]
    powers = [[x ** e for e in range(D + 1)] for x in X + [d]]
    # table[i] = X^alpha d^(D - |alpha|) for the i-th exponent (alpha, D - |alpha|)
    table = [prod(map(list.__getitem__, powers, e)) for e in field._monomials]
    values = [sum([c * table[i] for i, c in jet]) for jet in field._jets]
    g = [[[w * values[t] for t, w in row] for row in plane] for plane in field._gamma_ints]
    dg = [[[[w * values[t] for t, w in row] for row in plane] for plane in block]
          for block in field._dgamma_ints]
    return g, dg, field.den * d ** D


def evaluate_curvature_at(field: CurvatureField, point) -> CurvatureTensor:
    """R_ijkl at `point`, exactly, from Gamma(p) and d Gamma(p).

    With Gamma(p) = g/S and d Gamma(p) = dg/S in ints, S^2 R^m_jkl is
    S (dg - dg) + (g g - g g): the derivative terms carry one factor S, the
    quadratic ones none, and R(p) is those integers over S^2.  The tensor is
    returned unvalidated: deciding its symmetries is the caller's check (the
    fedosov suite runs `check_symmetries` at every point).
    """
    n = 2 * field.l
    if len(point) != n:
        raise ValueError("point must have dimension 2l")
    g, dg, scale = _jets_at(field, point)
    s2 = scale * scale
    entries = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for m, (i, w) in enumerate(omega_partners(field.l)):
        gm, dgm = g[m], [block[m] for block in dg]
        for j in range(n):
            plane = entries[i][j]
            for k, mm in combinations(range(n), 2):
                # S^2 R^m_jkl; R_ijkl = -s_i R^{i*}_jkl = s_m R^m_jkl for i = m*
                acc = (dgm[k][mm][j] - dgm[mm][k][j]) * scale
                for a, (gk, gmm) in enumerate(zip(gm[k], gm[mm])):
                    acc += gk * g[a][mm][j] - gmm * g[a][k][j]
                if acc:
                    x = acc if w > 0 else -acc
                    plane[k][mm], plane[mm][k] = x, -x
    return _tensor(field.l, entries, s2)


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    return {
        "n": p.n,
        "terms": [{"alpha": list(a), "val": str(c)} for a, c in sorted(p.terms.items())],
    }


def poly_from_json(obj: dict) -> Poly:
    return Poly(obj["n"], {tuple(t["alpha"]): parse_rational(t["val"]) for t in obj["terms"]})


def connection_to_json(conn: PolynomialConnection) -> dict:
    n = 2 * conn.l
    return {"l": conn.l, "cap": conn.cap, "gamma": [
        {"ijk": [x + 1 for x in idx], "poly": poly_to_json(conn.entry(*idx))}
        for idx in product(range(n), repeat=3) if conn.symbols[conn.ids[idx]]]}


def connection_from_json(obj: dict) -> PolynomialConnection:
    gamma = {
        parse_indices(item["ijk"], 3, 2 * obj["l"]): poly_from_json(item["poly"])
        for item in obj["gamma"]
    }
    return PolynomialConnection(obj["l"], obj["cap"], gamma)
