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

Every operator on the identity paths has coefficients in {+-1, +-i, integer
exponents}, so spinors are stored as Gaussian integers over one shared
denominator (see `PolySpinor`) and the identities are decided in Z[i]:
`scale` negates or swaps the two parts of each numerator for +-1 and +-i
(over q for +-i/q, and keeps them over q for 1/q), and sums add integers
over the lcm of the denominators.  Each result is reduced once to lowest
terms, so equality stays an exact zero test.  The public `PolySpinor(...)`
validates its input; results derived from valid spinors are built through
the unchecked constructors.  The checked Fraction arithmetic lives on as
the test oracle.

A monomial x^alpha is keyed by one packed int: a `FIELD_BITS`-wide field per
exponent, alpha_v at bit FIELD_BITS * v, and the total degree |alpha| in the
top field at bit FIELD_BITS * l.  So x^v times a monomial adds a constant to
its key, the cap test is one comparison with cap << FIELD_BITS * l, and d/dx^v
reads one field with a shift and a mask.  `MAX_CAP` fills a field, so no
exponent of a capped spinor carries into the next one.  Every Clifford
product in the package goes through one kernel, `_clifford_into`, which adds
f * e_i.s for an int f straight into a dict of [re, im] accumulators; X and Y
sum whole forms through it over one denominator and reduce once per output
component (`_from_acc`, which can take a final i in that pass by swapping
the parts).  Every quadratic Clifford element sum f e_a.e_b.s (`sp_action`,
the curvature action and the displays) goes through `_quadratic_into`,
which merges each product with its mirror e_b.e_a.s = e_a.e_b.s + i
omega_ab s and forms each e_b.s and each e_a.(e_b.s) once for all slots.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from .exact import (
    GR_I,
    GR_ONE,
    GaussianRational,
    RandomStream,
    _as_fraction,
    _gr,
    _keyed,
    parse_rational,
    random_symmetric_matrix,
    symmetric_matrix,
)

__all__ = [
    "DegreeCapError",
    "MAX_CAP",
    "PolySpinor",
    "SpLieElement",
    "clifford_basis",
    "sp_action",
    "random_spinor",
    "poly_spinor_to_json",
    "poly_spinor_from_json",
]

_F0 = Fraction(0)

FIELD_BITS = 8                      # width of one exponent field of a packed key
_FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_CAP = _FIELD_MASK               # the largest cap whose exponents fit a field


def _pack(alpha) -> int:
    """The key of x^alpha: alpha_v at bit FIELD_BITS * v, |alpha| on top."""
    key = sum(alpha)
    for a in reversed(alpha):
        key = key << FIELD_BITS | a
    return key


def _unpack(key: int, l: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key over l variables."""
    return tuple(key >> FIELD_BITS * v & _FIELD_MASK for v in range(l))


class DegreeCapError(ValueError):
    """A Clifford multiplication tried to exceed the spinor degree cap."""


class PolySpinor:
    """Sparse polynomial in l variables over Q(i), total degree <= cap.

    The coefficient of x^alpha is (re + i im) / den, stored as the pair of
    ints num[key] = (re, im) under the packed key of alpha (`_pack`), over
    one shared int `den`, in lowest terms:

        den >= 1,   gcd(den, every part) == 1,   no (0, 0) is stored.

    So equality of (num, den) is equality of spinors.  The cap participates
    in arithmetic checks but not in equality.  `coeffs` is a read-only view
    of the same coefficients as GaussianRational values keyed by exponent
    tuples, built on each read.

    The public constructor checks every exponent tuple against l and the cap,
    the cap against `MAX_CAP`, and coerces every coefficient.  Arithmetic on
    valid spinors builds its results through the unchecked constructors
    `_spinor` (for results that are in lowest terms by construction) and
    `_reduced` (for the others).
    """

    __slots__ = ("l", "cap", "num", "den")

    def __init__(self, l: int, cap: int, coeffs: dict | None = None):
        if type(l) is not int or l < 1:
            raise ValueError(f"l must be an int >= 1, got {l!r}")
        if type(cap) is not int or not 0 <= cap <= MAX_CAP:
            raise ValueError(f"cap must be an int in 0..{MAX_CAP}, got {cap!r}")
        clean: dict[int, GaussianRational] = {}
        if coeffs:
            for alpha, c in coeffs.items():
                if len(alpha) != l or any(type(a) is not int or a < 0 for a in alpha):
                    raise ValueError(f"bad exponent tuple {alpha}")
                if sum(alpha) > cap:
                    raise DegreeCapError(
                        f"monomial {alpha} exceeds degree cap {cap}"
                    )
                g = c if isinstance(c, GaussianRational) else GaussianRational(c)
                if g:
                    clean[_pack(alpha)] = g
        # over the lcm of the reduced denominators, (num, den) is in lowest terms
        den = lcm(*(x.denominator for g in clean.values() for x in (g.re, g.im)))
        _set(self, "l", l)
        _set(self, "cap", cap)
        _set(self, "num", {
            a: (g.re.numerator * (den // g.re.denominator),
                g.im.numerator * (den // g.im.denominator))
            for a, g in clean.items()})
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("PolySpinor is immutable")

    @property
    def coeffs(self) -> dict[tuple[int, ...], GaussianRational]:
        """The nonzero coefficients as GaussianRational values."""
        den, l = self.den, self.l
        return {_unpack(a, l): _gr(Fraction(re, den), Fraction(im, den))
                for a, (re, im) in self.num.items()}

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
        return not self.num

    def degree(self) -> int:
        """Total degree; -1 for the zero spinor.  The degree is the top field,
        so the largest key has it."""
        if not self.num:
            return -1
        return max(self.num) >> FIELD_BITS * self.l

    def headroom(self) -> int:
        return self.cap - max(0, self.degree())

    def __eq__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        return self.l == other.l and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.l, self.den, frozenset(self.num.items())))

    def __repr__(self):
        if not self.num:
            return f"PolySpinor(l={self.l}, 0)"
        terms = ", ".join(f"{a}:{c!r}" for a, c in sorted(self.coeffs.items()))
        return f"PolySpinor(l={self.l}, {terms})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        return _sum(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        return _sum(self, other, -1)

    def __neg__(self):
        return _spinor(self.l, self.cap,
                       {a: (-re, -im) for a, (re, im) in self.num.items()}, self.den)

    def scale(self, scalar) -> "PolySpinor":
        """scalar * self; a unit (+-1, +-i) negates or swaps the two parts of
        each numerator, +-i/q swaps them over q, 1/q keeps them over q, and
        any other scalar p/q multiplies them by the Gaussian integer p over q;
        every result over q is reduced."""
        if isinstance(scalar, GaussianRational):
            re, im = scalar.re, scalar.im
        else:
            re, im = _as_fraction(scalar), _F0
        l, cap, num = self.l, self.cap, self.num
        if not im:
            if not re:
                return _spinor(l, cap, {}, 1)
            if re == 1:
                return self
            if re == -1:
                return -self
        elif not re:
            if im == 1:
                return _spinor(l, cap, {a: (-y, x) for a, (x, y) in num.items()}, self.den)
            if im == -1:
                return _spinor(l, cap, {a: (y, -x) for a, (x, y) in num.items()}, self.den)
        q = lcm(re.denominator, im.denominator)
        p = re.numerator * (q // re.denominator)
        r = im.numerator * (q // im.denominator)
        if not r:
            out = num if p == 1 else {a: (x * p, y * p) for a, (x, y) in num.items()}
        elif not p:
            if r == 1:
                out = {a: (-y, x) for a, (x, y) in num.items()}
            elif r == -1:
                out = {a: (y, -x) for a, (x, y) in num.items()}
            else:
                out = {a: (-y * r, x * r) for a, (x, y) in num.items()}
        else:
            out = {a: (x * p - y * r, x * r + y * p) for a, (x, y) in num.items()}
        return _reduced(l, cap, out, self.den * q)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, GaussianRational)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    # -- basic calculus -----------------------------------------------------

    def mult_x(self, var: int) -> "PolySpinor":
        """Multiply by the coordinate x^var (degree +1, cap-checked): e_var
        without its factor i."""
        if not 0 <= var < self.l:
            raise ValueError(f"variable {var} out of range for l={self.l}")
        return clifford_basis(var, self).scale(-GR_I)

    def diff_x(self, var: int) -> "PolySpinor":
        """Partial derivative with respect to x^var (degree -1): e_{var+l}."""
        if not 0 <= var < self.l:
            raise ValueError(f"variable {var} out of range for l={self.l}")
        return clifford_basis(var + self.l, self)


_set = object.__setattr__
_new = object.__new__


def _spinor(l: int, cap: int, num: dict, den: int) -> PolySpinor:
    """The unchecked constructor: `num` must already be valid for (l, cap),
    and (num, den) in lowest terms, as every unit multiple of a valid spinor
    is."""
    s = _new(PolySpinor)
    _set(s, "l", l)
    _set(s, "cap", cap)
    _set(s, "num", num)
    _set(s, "den", den)
    return s


def _reduced(l: int, cap: int, num: dict, den: int) -> PolySpinor:
    """The unchecked constructor for a result that may share a factor with
    its denominator (`num` valid and free of (0, 0)): one gcd divides it out,
    and the zero spinor ends with den == 1."""
    if den > 1:
        g = gcd(den, *chain.from_iterable(num.values()))
        if g > 1:
            den //= g
            num = {a: (re // g, im // g) for a, (re, im) in num.items()}
    return _spinor(l, cap, num, den)


def _from_acc(l: int, cap: int, acc: dict, den: int, times_i: bool = False) -> PolySpinor:
    """The spinor acc / den (i acc / den when `times_i`: the parts swap) from
    a kernel accumulator {key: [re, im]}, reduced by one gcd (a cancelled
    [0, 0] leaves it be) in the pass that drops them."""
    g = gcd(den, *chain.from_iterable(acc.values())) if den > 1 else 1
    items = acc.items()
    if times_i:
        num = ({a: (-im // g, re // g) for a, (re, im) in items if re or im} if g > 1
               else {a: (-im, re) for a, (re, im) in items if re or im})
    else:
        num = ({a: (re // g, im // g) for a, (re, im) in items if re or im} if g > 1
               else {a: (re, im) for a, (re, im) in items if re or im})
    return _spinor(l, cap, num, den // g)


def _common_den(dens) -> tuple[int, list[int]]:
    """The lcm D of the denominators `dens` and each one's factor D // d:
    numerators times their factors are summable over D."""
    den = lcm(*dens)
    return den, [den // d for d in dens]


def _sum(s: PolySpinor, t: PolySpinor, sign: int) -> PolySpinor:
    """s + sign * t over the lcm of the two denominators, reduced once."""
    if s.l != t.l:
        raise ValueError("mixed number of variables")
    if s.den == t.den:
        den, out, f = s.den, dict(s.num), sign
    else:
        den, (g, h) = _common_den((s.den, t.den))
        out = {a: (re * g, im * g) for a, (re, im) in s.num.items()}
        f = sign * h
    for a, (re, im) in t.num.items():
        cur = out.get(a)
        if cur is None:
            out[a] = (re * f, im * f)
            continue
        re = cur[0] + re * f
        im = cur[1] + im * f
        if re or im:
            out[a] = (re, im)
        else:
            del out[a]
    return _reduced(s.l, max(s.cap, t.cap), out, den)


# ---------------------------------------------------------------------------
# The Clifford accumulation kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _clifford_steps(l: int) -> tuple[tuple[int | None, int], ...]:
    """(shift, step) of each basis index over l variables.  e_i with i < l
    (shift None) adds `step` to a key: one to the x^i field and one to the
    degree.  e_{v+l} reads the x^v exponent at `shift` and subtracts `step`."""
    top = 1 << FIELD_BITS * l
    return (tuple((None, (1 << FIELD_BITS * v) + top) for v in range(l))
            + tuple((FIELD_BITS * v, (1 << FIELD_BITS * v) + top) for v in range(l)))


def _clifford_into(acc: dict, num: dict, i: int, l: int, cap: int, f: int) -> None:
    """acc += f * e_i.(num): the Clifford product of the basis vector e_i with
    the numerators `num` ({key: (re, im)}, or an accumulator) of a spinor over
    l variables, times the int f, summed in place into `acc` ({key: [re, im]}).

    e_i = i x^i (i < l) sends re + i im to -im + i re under the shifted key,
    and raises DegreeCapError when any term would pass `cap`, whether or not
    it would later cancel; e_{v+l} = d/dx^v multiplies by the exponent of
    x^v.  Nothing is reduced here; `_from_acc` does it once per result.
    """
    shift, step = _clifford_steps(l)[i]
    get = acc.get
    if shift is None:
        top = cap << FIELD_BITS * l
        for key, (re, im) in num.items():
            if key >= top:
                raise DegreeCapError(
                    f"x^{i} * monomial {_unpack(key, l)} would exceed cap {cap}")
            key += step
            cur = get(key)
            if cur is None:
                acc[key] = [-im * f, re * f]
            else:
                cur[0] -= im * f
                cur[1] += re * f
    else:
        for key, (re, im) in num.items():
            k = key >> shift & _FIELD_MASK
            if k:
                k *= f
                key -= step
                cur = get(key)
                if cur is None:
                    acc[key] = [re * k, im * k]
                else:
                    cur[0] += re * k
                    cur[1] += im * k


def clifford_basis(i: int, s: PolySpinor) -> PolySpinor:
    """Clifford action of the basis vector e_i (0-based)."""
    l = s.l
    if not (0 <= i < 2 * l):
        raise ValueError(f"basis index {i} out of range for l={l}")
    acc: dict = {}
    _clifford_into(acc, s.num, i, l, s.cap, 1)
    return _from_acc(l, s.cap, acc, s.den)


def _i_times_into(acc: dict, num: dict, f: int) -> None:
    """acc += i f num, for the numerators `num` of a spinor and an int f."""
    for key, (re, im) in num.items():
        cur = acc.setdefault(key, [0, 0])
        cur[0] -= im * f
        cur[1] += re * f


def _scatter_into(row, num: dict, i: int, l: int, cap: int, g: int) -> None:
    """acc += g f e_i.(num) for every (acc, f) in the nonempty `row`: g
    e_i.(num) is formed once and added, times f, in one pass over its terms."""
    if len(row) == 1:
        acc, f = row[0]
        _clifford_into(acc, num, i, l, cap, g * f)
        return
    prod: dict = {}
    _clifford_into(prod, num, i, l, cap, g)
    for key, (re, im) in prod.items():
        for acc, f in row:
            cur = acc.get(key)
            if cur is None:
                acc[key] = [re * f, im * f]
            else:
                cur[0] += re * f
                cur[1] += im * f


def _quadratic_into(s: PolySpinor, terms) -> dict:
    """The accumulators {slot: {key: [re, im]}} of the quadratic Clifford sums
    sum_b sum f e_a.(e_b.s) over (slot, a, f) in terms[b], for int f, all
    over the one denominator s.den.

    Where one slot holds f e_a.(e_b.s), a < b, and its mirror g e_b.(e_a.s),
    the Clifford relation merges them into (f + g) e_a.(e_b.s), plus the
    scalar i g s for a partner pair b = a + l.  So a merged partner pair no
    longer forms e_a.s, which raises the degree and fails at the cap; nothing
    is ever truncated.  Products without a mirror (lemma1's) stay as written.
    Each first product still needed is formed once (`clifford_basis`) and put
    back over s.den by the int s.den // (e_b.s).den.  Each e_a.(e_b.s) with
    a nonzero coefficient in some slot is formed once and added into every
    such slot (`_scatter_into`).  Nothing is reduced here."""
    l, cap = s.l, s.cap
    rows: list[dict] = [{} for _ in terms]
    for table, row in zip(rows, terms):
        for slot, a, f in row:
            table[slot, a] = table.get((slot, a), 0) + f
    accs: dict = defaultdict(dict)
    for b in reversed(range(len(rows))):       # a mirror sits in an earlier row
        groups: dict[int, list] = {}
        for (slot, a), f in rows[b].items():
            if a < b and (g := rows[a].pop((slot, b), None)) is not None:
                f += g
                if b == a + l:
                    _i_times_into(accs[slot], s.num, g)
            if f:
                groups.setdefault(a, []).append((accs[slot], f))
        if groups:
            eb = clifford_basis(b, s)
            num, g = eb.num, s.den // eb.den
            for a, row in groups.items():
                _scatter_into(row, num, a, l, cap, g)
    return accs


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
    """Infinitesimal metaplectic action: (i/2) * sum_ab A[a][b] e_a.e_b.s.

    A is cleared to the ints M = c A once; `_quadratic_into` sums
    M[a][b] e_a.(e_b.s) over the one denominator 2 c s.den, and i is taken
    in the read-off (`_from_acc`).
    """
    if A.l != s.l:
        raise ValueError("mismatched l")
    c = lcm(*(x.denominator for row in A.matrix for x in row))
    terms = [[(0, a, row[b].numerator * (c // row[b].denominator))
              for a, row in enumerate(A.matrix) if row[b]] for b in range(2 * s.l)]
    acc = _quadratic_into(s, terms).get(0, {})
    return _from_acc(s.l, s.cap, acc, 2 * c * s.den, times_i=True)


def random_spinor(
    l: int,
    degree: int,
    cap: int,
    stream: RandomStream,
    terms: int = 6,
    bound: int = 5,
) -> PolySpinor:
    """Sparse random spinor: up to `terms` monomials of total degree <= degree.

    Each coefficient is the two `next_ratio` draws of `next_gaussian(bound)`
    (a zero draw becomes 1); they are summed as Gaussian integers over the
    lcm of their denominators under packed keys and reduced once."""
    if type(l) is not int or l < 1:
        raise ValueError(f"l must be an int >= 1, got {l!r}")
    if type(cap) is not int or not 0 <= cap <= MAX_CAP:
        raise ValueError(f"cap must be an int in 0..{MAX_CAP}, got {cap!r}")
    if degree > cap:
        raise ValueError("degree must not exceed cap")
    draws = []
    for _ in range(terms):
        remaining = stream.next_int(0, degree)
        alpha = []
        for _v in range(l):
            e = stream.next_int(0, remaining)
            alpha.append(e)
            remaining -= e
        (re, re_den), (im, im_den) = stream.next_ratio(bound), stream.next_ratio(bound)
        if not (re or im):
            re = re_den = 1
        draws.append((_pack(alpha), re, re_den, im, im_den))
    den = lcm(*(d for _, _, re_den, _, im_den in draws for d in (re_den, im_den)))
    acc: dict = {}
    for key, re, re_den, im, im_den in draws:
        cur = acc.setdefault(key, [0, 0])
        cur[0] += re * (den // re_den)
        cur[1] += im * (den // im_den)
    return _from_acc(l, cap, acc, den)


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
    coeffs = {alpha: GaussianRational(parse_rational(t["re"]), parse_rational(t["im"]))
              for alpha, t in _keyed(obj["terms"], "alpha").items()}
    return PolySpinor(obj["l"], obj["cap"], coeffs)
