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
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    RandomStream,
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


class DegreeCapError(ValueError):
    """A Clifford multiplication tried to exceed the spinor degree cap."""


class PolySpinor:
    """Sparse polynomial in l variables over Q(i), total degree <= cap.

    coeffs maps exponent tuples (length l) to nonzero GaussianRational
    coefficients; zero coefficients are never stored, so equality of the
    coefficient maps is equality of spinors.  The cap participates in
    arithmetic checks but not in equality.
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
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "coeffs", clean)

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
            s = out.get(a, GR_ZERO) + c
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        return PolySpinor(self.l, max(self.cap, other.cap), out)

    def __sub__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PolySpinor(self.l, self.cap, {a: -c for a, c in self.coeffs.items()})

    def scale(self, scalar) -> "PolySpinor":
        g = scalar if isinstance(scalar, GaussianRational) else GaussianRational(scalar)
        if not g:
            return PolySpinor(self.l, self.cap)
        return PolySpinor(self.l, self.cap, {a: c * g for a, c in self.coeffs.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, GaussianRational)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    # -- basic calculus -----------------------------------------------------

    def mult_x(self, var: int) -> "PolySpinor":
        """Multiply by the coordinate x^var (degree +1, cap-checked)."""
        out = {}
        for a, c in self.coeffs.items():
            if sum(a) + 1 > self.cap:
                raise DegreeCapError(
                    f"x^{var} * monomial {a} would exceed cap {self.cap}"
                )
            b = list(a)
            b[var] += 1
            out[tuple(b)] = c
        return PolySpinor(self.l, self.cap, out)

    def diff_x(self, var: int) -> "PolySpinor":
        """Partial derivative with respect to x^var (degree -1)."""
        out = {}
        for a, c in self.coeffs.items():
            k = a[var]
            if k == 0:
                continue
            b = list(a)
            b[var] -= 1
            out[tuple(b)] = c * k
        return PolySpinor(self.l, self.cap, out)


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
