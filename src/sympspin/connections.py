"""Torsion-free symplectic connections on flat R^{2l} with polynomial data.

On the flat model with constant omega and coordinate frame (so all frame
brackets vanish), a connection given by Christoffel symbols is symplectic and
torsion-free exactly when the fully lowered symbols

    Gamma_ijk  (with Gamma^m_jk = sum_i omega^{mi} Gamma_ijk = s_m Gamma_{m* jk})

are totally symmetric in (i, j, k).  `check_connection_axioms` does not
assume this equivalence: it verifies nabla(omega) = 0 (Gamma_ikj = Gamma_jki)
and T = 0 (Gamma_ijk = Gamma_ikj) for whatever symbols it is handed, as
equalities of stored polynomials.

The curvature of such a connection,

    R^m_jkl = d_k Gamma^m_lj - d_l Gamma^m_kj
              + Gamma^m_ka Gamma^a_lj - Gamma^m_la Gamma^a_kj,
    R_ijkl  = sum_m R^m_jkl omega_mi = -s_i R^{i*}_jkl,

is a field of genuine curvature-type tensors.  Both contractions with omega
are signed swaps through the partner map (i*, s_i) of `symplectic`.  It is
never formed as a field of polynomials, and no Poly arithmetic is done: the
`CurvatureField` of a connection clears each lowered symbol once, to integer
numerators over the lcm L of its coefficient denominators, with the degree
bound D, reads the partials d_v Gamma_ijk off the same integer terms, and
interns each distinct jet once, by content: a totally symmetric connection
has at most C(2l+2, 3)(2l+1) of its (2l)^3 + (2l)^4.  `evaluate_curvature_at`
writes the point as p = X/d with integer X, evaluates each distinct jet once
as an integer sum over one table of homogenised monomials X^alpha
d^(D-|alpha|), so that Gamma(p) and d Gamma(p) are those integers over
S = L d^D, and assembles S^2 R(p) from the display above in O(n^5) integer
operations; R(p) is those integers over S^2.  Every evaluation feeds the
curvature module without synthetic constraint solving.  The lowering realizes
R_ijkl = omega(R(e_k, e_l) e_j, e_i); the pair-symmetry identity (C) doubles
as the sign oracle for this convention, so the test suite failing identity
(C) would disprove the sign, not the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import lcm, prod

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
    """Sparse polynomial in n variables over the rationals.

    The public constructor checks every exponent tuple and coerces every
    coefficient; the results of arithmetic on valid polynomials are built
    through the unchecked `_poly`.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for alpha, c in terms.items():
                if len(alpha) != n or any(a < 0 for a in alpha):
                    raise ValueError(f"bad exponent tuple {alpha}")
                c = Fraction(c)
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
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        return self._combine(other, 1) if isinstance(other, Poly) else NotImplemented

    def __sub__(self, other):
        return self._combine(other, -1) if isinstance(other, Poly) else NotImplemented

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a, F0) + sign * c
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        return _poly(self.n, out)

    def __neg__(self):
        return _poly(self.n, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
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

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return _poly(self.n, {a: x * c for a, x in self.terms.items()} if c else {})

    def deriv(self, var: int) -> "Poly":
        out = {}
        for a, c in self.terms.items():
            k = a[var]
            if k == 0:
                continue
            out[a[:var] + (k - 1,) + a[var + 1:]] = c * k
        return _poly(self.n, out)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        return "Poly(" + " + ".join(f"{c}*x^{a}" for a, c in sorted(self.terms.items())) + ")"


def _poly(n: int, terms: dict) -> Poly:
    """The unchecked constructor: `terms` must already be valid for n and hold
    no zero, as every result of arithmetic on valid polynomials does."""
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


def random_poly(n: int, degree: int, stream: RandomStream, bound: int = 3) -> Poly:
    """Dense random polynomial of total degree <= degree, from `next_fraction`'s draws."""
    terms = {}
    for alpha in _exponents(n, degree):
        p, q = stream.next_int(-bound, bound), stream.next_int(1, bound)
        if p:
            terms[alpha] = Fraction(p, q)
    return _poly(n, terms)


class PolynomialConnection:
    """Christoffel data Gamma_ijk with polynomial entries on flat R^{2l}.

    Stores one polynomial per ordered triple so that deliberately broken
    (asymmetric) data can be represented and caught by the axiom check.
    """

    __slots__ = ("l", "cap", "gamma")

    def __init__(self, l: int, cap: int, gamma: dict):
        n = 2 * l
        table: dict[tuple[int, int, int], Poly] = {}
        zero = Poly.zero(n)
        for idx in product(range(n), repeat=3):
            p = gamma.get(idx, zero)
            if p.n != n:
                raise ValueError("polynomial has wrong number of variables")
            if p.degree() > cap:
                raise ValueError(f"Gamma{idx} exceeds degree cap {cap}")
            table[idx] = p
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "gamma", table)

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialConnection is immutable")

    def entry(self, i: int, j: int, k: int) -> Poly:
        return self.gamma[(i, j, k)]

    def is_totally_symmetric(self) -> bool:
        n = 2 * self.l
        for idx in combinations_with_replacement(range(n), 3):
            base = self.gamma[idx]
            for perm in permutations(idx):
                if self.gamma[perm] != base:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PolynomialConnection):
            return NotImplemented
        return self.l == other.l and self.gamma == other.gamma

    def __repr__(self):
        return f"PolynomialConnection(l={self.l}, cap={self.cap})"


def random_connection(l: int, degree: int, seed: int, bound: int = 3) -> PolynomialConnection:
    """Random totally symmetric polynomial Christoffel data; deterministic."""
    if l < 1 or degree < 0:
        raise ValueError("need l >= 1 and degree >= 0")
    n = 2 * l
    stream = RandomStream(seed)
    gamma: dict[tuple[int, int, int], Poly] = {}
    for idx in combinations_with_replacement(range(n), 3):
        p = random_poly(n, degree, stream, bound)
        for perm in permutations(idx):
            gamma[perm] = p
    conn = object.__new__(PolynomialConnection)  # unchecked: every triple filled, within the cap
    for name, value in (("l", l), ("cap", degree), ("gamma", gamma)):
        object.__setattr__(conn, name, value)
    return conn


@dataclass(frozen=True)
class ConnectionAxiomReport:
    torsion_free: bool
    preserves_omega: bool
    first_violation: tuple | None = None
    violation_poly: dict | None = None

    def ok(self) -> bool:
        return self.torsion_free and self.preserves_omega


def check_connection_axioms(conn: PolynomialConnection) -> ConnectionAxiomReport:
    """Verify nabla(omega) = 0 and zero torsion as polynomial identities.

    With Gamma^m_jk = s_m Gamma_{m* jk}, the torsion Gamma^m_jk - Gamma^m_kj
    is s_m (Gamma_{m* jk} - Gamma_{m* kj}); for constant omega,
    -nabla_k omega_ij = Gamma^m_ki omega_mj + Gamma^m_kj omega_im
    = s_i Gamma^{i*}_kj - s_j Gamma^{j*}_ki = Gamma_jki - Gamma_ikj, as
    s_i s_{i*} = -1.  So both compare stored polynomials, and a difference
    is built only for the first violation's payload.
    """
    partners = omega_partners(conn.l)
    n = len(partners)
    g = conn.gamma
    torsion_ok, omega_ok = True, True
    violation, poly = None, None
    for m, j, k in product(range(n), repeat=3):
        i, w = partners[m]
        if j < k and g[i, j, k] != g[i, k, j]:
            torsion_ok = False
            if violation is None:
                violation = ("torsion", m, j, k)
                poly = poly_to_json(g[i, j, k] - g[i, k, j] if w > 0 else g[i, k, j] - g[i, j, k])
    for k, i, j in product(range(n), repeat=3):
        if g[j, k, i] != g[i, k, j]:
            omega_ok = False
            if violation is None:
                violation = ("nabla-omega", k, i, j)
                poly = poly_to_json(g[j, k, i] - g[i, k, j])
            break
    return ConnectionAxiomReport(torsion_ok, omega_ok, violation, poly)


def _deriv_terms(terms, v: int) -> list:
    """d/dx_v of a polynomial given by its (exponent, coefficient) terms:
    a_v c x^(a - e_v) for each term c x^a with a_v > 0."""
    return [(a[:v] + (a[v] - 1,) + a[v + 1:], a[v] * c) for a, c in terms if a[v]]


class CurvatureField:
    """One-jet of a connection, cleared once to integers when built.

    `den` is the lcm L of every coefficient denominator of the symbols and
    `degree` the bound D of every total degree.  `_jets` holds each distinct
    jet ((monomial index, L * coefficient), ...) over `_monomials` once,
    interned by content.  _gamma_ints[m][j][k] pairs the jet of Gamma_{m* jk}
    with s_m, so Gamma^m_jk is s_m times it; _dgamma_ints[v][m][j][k] pairs
    d_v Gamma_{m* jk}, read off the same integer terms (`_deriv_terms`), with s_m."""

    __slots__ = ("l", "den", "degree", "_monomials", "_jets", "_gamma_ints", "_dgamma_ints")

    def __init__(self, conn: PolynomialConnection):
        l, n = conn.l, 2 * conn.l
        partners = omega_partners(l)
        den = lcm(*(c.denominator for p in conn.gamma.values() for c in p.terms.values()))
        index: dict[tuple[int, ...], int] = {}
        jets: dict[tuple, int] = {}

        def jet(terms):
            key = tuple((index.setdefault(a, len(index)), c) for a, c in terms)
            return jets.setdefault(key, len(jets))

        lowered = [[[jet((a, c.numerator * (den // c.denominator))
                         for a, c in conn.gamma[i, j, k].terms.items()) for k in range(n)]
                    for j in range(n)] for i, _ in partners]
        monomials = list(index)
        partials = [[jet(_deriv_terms([(monomials[i], c) for i, c in key], v)) for v in range(n)]
                    for key in list(jets)]
        g = [[[(t, w) for t in row] for row in plane] for plane, (_, w) in zip(lowered, partners)]
        dg = [[[[(partials[t][v], w) for t in row] for row in plane]
               for plane, (_, w) in zip(lowered, partners)] for v in range(n)]
        degree = max([0] + [sum(a) for a in monomials])
        for name, value in (("l", l), ("den", den), ("degree", degree),
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
    items = []
    for idx in product(range(n), repeat=3):
        p = conn.entry(*idx)
        if not p.is_zero():
            items.append({"ijk": [x + 1 for x in idx], "poly": poly_to_json(p)})
    return {"l": conn.l, "cap": conn.cap, "gamma": items}


def connection_from_json(obj: dict) -> PolynomialConnection:
    gamma = {
        parse_indices(item["ijk"], 3, 2 * obj["l"]): poly_from_json(item["poly"])
        for item in obj["gamma"]
    }
    return PolynomialConnection(obj["l"], obj["cap"], gamma)
