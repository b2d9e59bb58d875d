"""Polynomial symplectic spinors and the symplectic Clifford multiplication.

A spinor is a polynomial in l variables with Gaussian-rational coefficients,
truncated at a hard total-degree cap.  The Clifford action of the basis is

    e_i . f = i * x^i * f          (0 <= i < l,   degree +1)
    e_{i+l} . f = df / dx^i        (0 <= i < l,   degree -1)

so the commutator of two basis actions is -i * omega(e_a, e_b) * Id.  The cap
exists to make every computation finite; exceeding it raises, it never
truncates silently, because a truncated spinor would fake an identity check.

The quadratic elements x ∨ y of the symmetric square of R^{2l} act on spinors
through two Clifford multiplications; `sp_action` realizes that infinitesimal
sp(2l)-action with the calibration constant i/2, the unique scalar (up to the
conventional sign) making

    [sp_action(A), v.] = (A v).

hold.  Tests re-derive the constant by brute force rather than trusting it.

Almost every scalar on the operator paths is a unit or a small integer, so
arithmetic pays only for what it needs: `scale` negates or swaps the two
parts of each coefficient for +-1 and +-i and takes two Fraction products for
a real or an imaginary scalar, `diff_x` multiplies both parts by the integer
exponent, and `_lincomb` sums rational multiples of spinors in place.  The
public `PolySpinor(...)` validates its input; results derived from valid
spinors are built through the one unchecked constructor `_spinor`.  The
checked, four-multiply arithmetic lives on as the test oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    RandomStream,
    _as_fraction,
    _gr,
    random_symmetric_matrix,
    symmetric_matrix,
)

__all__ = [
    "DegreeCapError",
    "PolySpinor",
    "SpLieElement",
    "clifford_basis",
    "sp_action",
    "random_spinor",
    "poly_spinor_to_json",
    "poly_spinor_from_json",
]

_HALF_I = GaussianRational(0, Fraction(1, 2))
_F0 = Fraction(0)


class DegreeCapError(ValueError):
    """A Clifford multiplication tried to exceed the spinor degree cap."""


class PolySpinor:
    """Sparse polynomial in l variables over Q(i), total degree <= cap.

    coeffs maps exponent tuples (length l) to nonzero GaussianRational
    coefficients; zero coefficients are never stored, so equality of the
    coefficient maps is equality of spinors.  The cap participates in
    arithmetic checks but not in equality.

    The public constructor checks every exponent tuple against l and the cap
    and coerces every coefficient.  Arithmetic on valid spinors builds its
    results through the one unchecked constructor `_spinor`: a sum, a
    negation, a nonzero multiple or a derivative of valid spinors is valid,
    and `mult_x` checks the cap itself.
    """

    __slots__ = ("l", "cap", "coeffs")

    def __init__(self, l: int, cap: int, coeffs: dict | None = None):
        if l < 1:
            raise ValueError("l must be >= 1")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        clean: dict[tuple[int, ...], GaussianRational] = {}
        if coeffs:
            for alpha, c in coeffs.items():
                if len(alpha) != l or any(a < 0 for a in alpha):
                    raise ValueError(f"bad exponent tuple {alpha}")
                if sum(alpha) > cap:
                    raise DegreeCapError(
                        f"monomial {alpha} exceeds degree cap {cap}"
                    )
                g = c if isinstance(c, GaussianRational) else GaussianRational(c)
                if g:
                    clean[tuple(alpha)] = g
        _set(self, "l", l)
        _set(self, "cap", cap)
        _set(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolySpinor is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, l: int, cap: int) -> "PolySpinor":
        return cls(l, cap)

    @classmethod
    def one(cls, l: int, cap: int) -> "PolySpinor":
        return cls(l, cap, {(0,) * l: GR_ONE})

    @classmethod
    def monomial(cls, l: int, cap: int, alpha, coeff=GR_ONE) -> "PolySpinor":
        return cls(l, cap, {tuple(alpha): coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero spinor."""
        if not self.coeffs:
            return -1
        return max(sum(a) for a in self.coeffs)

    def headroom(self) -> int:
        return self.cap - max(0, self.degree())

    def __eq__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        return self.l == other.l and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.l, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return f"PolySpinor(l={self.l}, 0)"
        terms = ", ".join(f"{a}:{c!r}" for a, c in sorted(self.coeffs.items()))
        return f"PolySpinor(l={self.l}, {terms})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        if self.l != other.l:
            raise ValueError("mixed number of variables")
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            cur = out.get(a)
            if cur is None:
                out[a] = c
                continue
            s = cur + c
            if s:
                out[a] = s
            else:
                del out[a]
        return _spinor(self.l, max(self.cap, other.cap), out)

    def __sub__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _spinor(self.l, self.cap, {a: -c for a, c in self.coeffs.items()})

    def scale(self, scalar) -> "PolySpinor":
        """scalar * self; a unit (+-1, +-i) negates or swaps the two parts of
        each coefficient, a real or imaginary scalar costs two Fraction
        products, and only a general one four."""
        if isinstance(scalar, GaussianRational):
            re, im = scalar.re, scalar.im
        else:
            re, im = _as_fraction(scalar), _F0
        if not im:
            if not re:
                return _spinor(self.l, self.cap, {})
            if re == 1:
                return self
            if re == -1:
                return -self
            return _spinor(self.l, self.cap,
                           {a: _gr(c.re * re, c.im * re) for a, c in self.coeffs.items()})
        if not re:
            if im == 1:
                return _spinor(self.l, self.cap,
                               {a: _gr(-c.im, c.re) for a, c in self.coeffs.items()})
            if im == -1:
                return _spinor(self.l, self.cap,
                               {a: _gr(c.im, -c.re) for a, c in self.coeffs.items()})
            return _spinor(self.l, self.cap,
                           {a: _gr(-c.im * im, c.re * im) for a, c in self.coeffs.items()})
        g = _gr(re, im)
        return _spinor(self.l, self.cap, {a: c * g for a, c in self.coeffs.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, GaussianRational)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    # -- basic calculus -----------------------------------------------------

    def mult_x(self, var: int) -> "PolySpinor":
        """Multiply by the coordinate x^var (degree +1, cap-checked)."""
        out = {}
        cap = self.cap
        for a, c in self.coeffs.items():
            if sum(a) >= cap:
                raise DegreeCapError(
                    f"x^{var} * monomial {a} would exceed cap {cap}"
                )
            out[a[:var] + (a[var] + 1,) + a[var + 1:]] = c
        return _spinor(self.l, cap, out)

    def diff_x(self, var: int) -> "PolySpinor":
        """Partial derivative with respect to x^var (degree -1)."""
        out = {}
        for a, c in self.coeffs.items():
            k = a[var]
            if k == 0:
                continue
            b = a[:var] + (k - 1,) + a[var + 1:]
            out[b] = c if k == 1 else _gr(c.re * k, c.im * k)
        return _spinor(self.l, self.cap, out)


_set = object.__setattr__
_new = object.__new__


def _spinor(l: int, cap: int, coeffs: dict) -> PolySpinor:
    """The unchecked constructor: `coeffs` must already be valid for (l, cap)
    and hold no zero, as every result of arithmetic on valid spinors does."""
    s = _new(PolySpinor)
    _set(s, "l", l)
    _set(s, "cap", cap)
    _set(s, "coeffs", coeffs)
    return s


def _lincomb(l: int, cap: int, terms) -> PolySpinor:
    """sum of c * s over the (rational c, spinor s) pairs of `terms`, summed in
    place part by part: one Fraction product and one sum per part and term."""
    acc: dict[tuple[int, ...], list] = {}
    for c, s in terms:
        for a, g in s.coeffs.items():
            cur = acc.get(a)
            if cur is None:
                acc[a] = [g.re * c, g.im * c]
            else:
                cur[0] += g.re * c
                cur[1] += g.im * c
    return _spinor(l, cap, {a: _gr(re, im) for a, (re, im) in acc.items() if re or im})


def clifford_basis(i: int, s: PolySpinor) -> PolySpinor:
    """Clifford action of the basis vector e_i (0-based)."""
    l = s.l
    if not (0 <= i < 2 * l):
        raise ValueError(f"basis index {i} out of range for l={l}")
    if i < l:
        return s.mult_x(i).scale(GR_I)
    return s.diff_x(i - l)


class SpLieElement:
    """Element of sp(2l) presented as a symmetric 2l x 2l rational matrix.

    The symmetric matrix A corresponds to the endomorphism
    (A v)^m = sum_pq A[m][p] omega_pq v^q = -sum_q s_q A[m][q*] v^q, with
    (q*, s_q) the partner of q; symmetry of A is exactly membership in sp.
    """

    __slots__ = ("l", "matrix")

    def __init__(self, l: int, matrix):
        rows = symmetric_matrix(2 * l, matrix)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "matrix", tuple(map(tuple, rows)))

    def __setattr__(self, name, value):
        raise AttributeError("SpLieElement is immutable")

    @classmethod
    def zero(cls, l: int) -> "SpLieElement":
        n = 2 * l
        return cls(l, [[0] * n for _ in range(n)])

    @classmethod
    def generator(cls, l: int, a: int, b: int) -> "SpLieElement":
        """Matrix of the quadratic generator e_a ∨ e_b.

        Convention: (a ∨ b)(v) = omega(a, v) b + omega(b, v) a, so the matrix
        is E_ab + E_ba and the diagonal generator e_a ∨ e_a carries a 2.
        """
        n = 2 * l
        m = [[Fraction(0)] * n for _ in range(n)]
        m[a][b] += 1
        m[b][a] += 1
        return cls(l, m)

    @classmethod
    def random(cls, l: int, stream: RandomStream, bound: int = 5) -> "SpLieElement":
        return cls(l, random_symmetric_matrix(2 * l, stream, bound))

    def is_zero(self) -> bool:
        return all(not x for row in self.matrix for x in row)

    def __eq__(self, other):
        if not isinstance(other, SpLieElement):
            return NotImplemented
        return self.l == other.l and self.matrix == other.matrix

    def __repr__(self):
        return f"SpLieElement(l={self.l})"


def sp_action(A: SpLieElement, s: PolySpinor) -> PolySpinor:
    """Infinitesimal metaplectic action: (i/2) * sum_ab A[a][b] e_a.e_b.s."""
    if A.l != s.l:
        raise ValueError("mismatched l")
    acc = PolySpinor.zero(s.l, s.cap)
    for a, row in enumerate(A.matrix):
        for b, coeff in enumerate(row):
            if not coeff:
                continue
            acc = acc + clifford_basis(a, clifford_basis(b, s)).scale(coeff)
    return acc.scale(_HALF_I)


def random_spinor(
    l: int,
    degree: int,
    cap: int,
    stream: RandomStream,
    terms: int = 6,
    bound: int = 5,
) -> PolySpinor:
    """Sparse random spinor: up to `terms` monomials of total degree <= degree."""
    if degree > cap:
        raise ValueError("degree must not exceed cap")
    coeffs: dict[tuple[int, ...], GaussianRational] = {}
    for _ in range(terms):
        remaining = stream.next_int(0, degree)
        alpha = [0] * l
        for v in range(l):
            e = stream.next_int(0, remaining)
            alpha[v] = e
            remaining -= e
        c = stream.next_gaussian(bound)
        if not c:
            c = GR_ONE
        key = tuple(alpha)
        coeffs[key] = coeffs.get(key, GR_ZERO) + c
    return PolySpinor(l, cap, coeffs)


# ---------------------------------------------------------------------------
# JSON wire format: {"l": int, "cap": int, "terms": [{"alpha": [...],
#                    "re": "p/q", "im": "p/q"}]}
# ---------------------------------------------------------------------------


def poly_spinor_to_json(s: PolySpinor) -> dict:
    terms = [
        {"alpha": list(alpha), "re": str(c.re), "im": str(c.im)}
        for alpha, c in sorted(s.coeffs.items())
    ]
    return {"l": s.l, "cap": s.cap, "terms": terms}


def poly_spinor_from_json(obj: dict) -> PolySpinor:
    coeffs = {
        tuple(t["alpha"]): GaussianRational(Fraction(t["re"]), Fraction(t["im"]))
        for t in obj["terms"]
    }
    return PolySpinor(obj["l"], obj["cap"], coeffs)
