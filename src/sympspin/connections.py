"""Torsion-free symplectic connections on flat R^{2l} with polynomial data.

On the flat model with constant omega and coordinate frame (so all frame
brackets vanish), a connection given by Christoffel symbols is symplectic and
torsion-free exactly when the fully lowered symbols

    Gamma_ijk  (with Gamma^m_jk = sum_i omega^{mi} Gamma_ijk = s_m Gamma_{m* jk})

are totally symmetric in (i, j, k).  `check_connection_axioms` does not
assume this equivalence: it verifies nabla(omega) = 0 and T = 0 symbolically,
as polynomial identities, for whatever symbols it is handed.

The curvature of such a connection,

    R^m_jkl = d_k Gamma^m_lj - d_l Gamma^m_kj
              + Gamma^m_ka Gamma^a_lj - Gamma^m_la Gamma^a_kj,
    R_ijkl  = sum_m R^m_jkl omega_mi = -s_i R^{i*}_jkl,

is a field of genuine curvature-type tensors.  Both contractions with omega
are signed swaps through the partner map (i*, s_i) of `symplectic`.  It is
never formed as a field of polynomials: `curvature_field_of` keeps the one-jet
of the data, Gamma^m_jk and its partials d_v Gamma^m_jk (linear Poly
operations only), and the `CurvatureField` clears that jet once, to integer
numerators over the lcm L of its coefficient denominators, with the degree
bound D.  `evaluate_curvature_at` writes the point as p = X/d with integer X,
evaluates every jet as an integer sum over one table of homogenised monomials
X^alpha d^(D-|alpha|), so that Gamma(p) and d Gamma(p) are those integers over
S = L d^D, and assembles S^2 R(p) from the display above: O(n^5) integer
operations and one Fraction per nonzero entry.  Every evaluation feeds the
curvature module without synthetic constraint solving.  The lowering realizes
R_ijkl = omega(R(e_k, e_l) e_j, e_i); the pair-symmetry identity (C) doubles
as the sign oracle for this convention, so the test suite failing identity
(C) would disprove the sign, not the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import lcm, prod

from .curvature import CurvatureTensor
from .exact import RandomStream
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
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a, F0) + c
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        return _poly(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a, F0) - c
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


def random_poly(n: int, degree: int, stream: RandomStream, bound: int = 3) -> Poly:
    """Dense random polynomial of total degree <= degree."""
    def exponents(vars_left, budget):
        if vars_left == 1:
            for e in range(budget + 1):
                yield (e,)
            return
        for e in range(budget + 1):
            for rest in exponents(vars_left - 1, budget - e):
                yield (e,) + rest

    terms = {}
    for alpha in exponents(n, degree):
        c = stream.next_fraction(bound)
        if c:
            terms[alpha] = c
    return Poly(n, terms)


class PolynomialConnection:
    """Christoffel data Gamma_ijk with polynomial entries on flat R^{2l}.

    Stores one polynomial per ordered triple so that deliberately broken
    (asymmetric) data can be represented and caught by the axiom check.
    The raised table of `_gamma_upper` is built on first use and kept.
    """

    __slots__ = ("l", "cap", "gamma", "_upper")

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
    return PolynomialConnection(l, degree, gamma)


@dataclass(frozen=True)
class ConnectionAxiomReport:
    torsion_free: bool
    preserves_omega: bool
    first_violation: tuple | None = None
    violation_poly: dict | None = None

    def ok(self) -> bool:
        return self.torsion_free and self.preserves_omega


def _gamma_upper(conn: PolynomialConnection):
    """Gamma^m_jk = s_m Gamma_{m* jk}, tabulated once per connection: the
    axiom check and the curvature jets share the table."""
    try:
        return conn._upper
    except AttributeError:
        pass
    partners = omega_partners(conn.l)
    table = {}
    for m, j, k in product(range(len(partners)), repeat=3):
        i, w = partners[m]
        p = conn.entry(i, j, k)
        table[(m, j, k)] = p if w > 0 else -p
    object.__setattr__(conn, "_upper", table)
    return table


def check_connection_axioms(conn: PolynomialConnection) -> ConnectionAxiomReport:
    """Verify nabla(omega) = 0 and zero torsion as polynomial identities."""
    partners = omega_partners(conn.l)
    n = len(partners)
    gu = _gamma_upper(conn)
    torsion_ok, omega_ok = True, True
    violation, poly = None, None
    for m, j, k in product(range(n), repeat=3):
        if j < k:
            diff = gu[(m, j, k)] - gu[(m, k, j)]
            if not diff.is_zero():
                torsion_ok = False
                if violation is None:
                    violation = ("torsion", m, j, k)
                    poly = poly_to_json(diff)
    for k, i, j in product(range(n), repeat=3):
        # constant omega: nabla_k omega_ij = -(Gamma^m_ki omega_mj + Gamma^m_kj omega_im),
        # and the sum is s_i Gamma^{i*}_kj - s_j Gamma^{j*}_ki
        (ip, si), (jp, sj) = partners[i], partners[j]
        a, b = gu[(ip, k, j)], gu[(jp, k, i)]
        acc = (a if si > 0 else -a) - (b if sj > 0 else -b)
        if not acc.is_zero():
            omega_ok = False
            if violation is None:
                violation = ("nabla-omega", k, i, j)
                poly = poly_to_json(acc)
            break
    return ConnectionAxiomReport(torsion_ok, omega_ok, violation, poly)


class CurvatureField:
    """One-jet of a verified connection: the raised Christoffel table
    gamma[(m, j, k)] = Gamma^m_jk and its first partials
    dgamma[(v, m, j, k)] = d_v Gamma^m_jk, as polynomials.

    The jets are also cleared once, when the field is built: `den` is the lcm
    L of every coefficient denominator and `degree` the bound D of every total
    degree.  Each jet is kept as ((monomial index, L * coefficient), ...)
    over the exponents of `_monomials`, nested as gamma[m][j][k] and
    dgamma[v][m][j][k]."""

    __slots__ = ("l", "gamma", "dgamma", "den", "degree", "_monomials", "_gamma_ints",
                 "_dgamma_ints")

    def __init__(self, l: int, gamma: dict, dgamma: dict):
        n = 2 * l
        polys = [*gamma.values(), *dgamma.values()]
        den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
        degree = max([0] + [p.degree() for p in polys])
        index: dict[tuple[int, ...], int] = {}

        def cleared(p):
            return tuple((index.setdefault(a, len(index)), c.numerator * (den // c.denominator))
                         for a, c in p.terms.items())

        g = [[[cleared(gamma[m, j, k]) for k in range(n)] for j in range(n)] for m in range(n)]
        dg = [[[[cleared(dgamma[v, m, j, k]) for k in range(n)] for j in range(n)]
               for m in range(n)] for v in range(n)]
        for name, value in (("l", l), ("gamma", gamma), ("dgamma", dgamma), ("den", den),
                            ("degree", degree),
                            ("_monomials", [(degree - sum(a), a) for a in index]),
                            ("_gamma_ints", g), ("_dgamma_ints", dg)):
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
    gamma = _gamma_upper(conn)
    dgamma = {(v, *idx): p.deriv(v) for idx, p in gamma.items() for v in range(2 * conn.l)}
    return CurvatureField(conn.l, gamma, dgamma)


def _jets_at(field: CurvatureField, point):
    """(g, dg, S): g[m][j][k] = S Gamma^m_jk(p) and dg[v][m][j][k] =
    S d_v Gamma^m_jk(p) as ints, with S = L d^D for p = X/d."""
    pt = [Fraction(x) for x in point]
    d = lcm(*(x.denominator for x in pt))
    D = field.degree
    X = [x.numerator * (d // x.denominator) for x in pt]
    powers = [[x ** e for e in range(D + 1)] for x in X + [d]]
    # table[i] = X^alpha d^(D - |alpha|) for the i-th exponent alpha
    table = [prod(row[e] for row, e in zip(powers, (*a, r))) for r, a in field._monomials]

    def value(jet):
        return sum(c * table[i] for i, c in jet)

    g = [[[value(jet) for jet in row] for row in plane] for plane in field._gamma_ints]
    dg = [[[[value(jet) for jet in row] for row in plane] for plane in block]
          for block in field._dgamma_ints]
    return g, dg, field.den * d ** D


def evaluate_curvature_at(field: CurvatureField, point) -> CurvatureTensor:
    """R_ijkl at `point`, exactly, from Gamma(p) and d Gamma(p).

    With Gamma(p) = g/S and d Gamma(p) = dg/S in ints, S^2 R^m_jkl is
    S (dg - dg) + (g g - g g): the derivative terms carry one factor S, the
    quadratic ones none.  The tensor is returned unvalidated: deciding its
    symmetries is the caller's check (the fedosov suite runs
    `check_symmetries` at every point).
    """
    n = 2 * field.l
    if len(point) != n:
        raise ValueError("point must have dimension 2l")
    g, dg, scale = _jets_at(field, point)
    s2 = scale * scale
    entries = [[[[F0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
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
                    x = Fraction(acc if w > 0 else -acc, s2)
                    plane[k][mm], plane[mm][k] = x, -x
    return CurvatureTensor(field.l, entries, validate=False)


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


def poly_to_json(p: Poly) -> dict:
    return {
        "n": p.n,
        "terms": [{"alpha": list(a), "val": str(c)} for a, c in sorted(p.terms.items())],
    }


def poly_from_json(obj: dict) -> Poly:
    return Poly(obj["n"], {tuple(t["alpha"]): Fraction(t["val"]) for t in obj["terms"]})


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
        tuple(x - 1 for x in item["ijk"]): poly_from_json(item["poly"])
        for item in obj["gamma"]
    }
    return PolynomialConnection(obj["l"], obj["cap"], gamma)
