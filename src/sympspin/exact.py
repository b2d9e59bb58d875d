"""Exact scalars, deterministic sampling and sparse elimination over Q(i).

Every identity verified by this package is an exact-zero test, so the scalar
field is Q(i): complex numbers whose real and imaginary parts are
arbitrary-precision rationals.  Nothing in this module rounds, ever.

`nullspace_basis` is the package's one elimination routine.  It works on
sparse rows, which is what the curvature constraint systems and the graded
projector images are; nothing here stores a dense matrix.  Its
back-substitution runs from the highest pivot down, so each row pulls only
from rows that are already fully reduced.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

__all__ = [
    "GaussianRational",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "parse_rational",
    "parse_indices",
    "RandomStream",
    "symmetric_matrix",
    "random_symmetric_matrix",
    "nullspace_basis",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class GaussianRational:
    """An element of Q(i), kept in canonical reduced form.

    Both components are `fractions.Fraction`, which guarantees reduced
    numerator/denominator with positive denominator.  Instances are immutable;
    all arithmetic returns new values.  The public constructor coerces and
    checks its arguments; arithmetic builds its results, whose parts are
    already Fractions, through the unchecked `_gr`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set(self, "re", _as_fraction(re))
        _set(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(x) -> "GaussianRational | None":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _gr(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _gr(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _gr(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.im:
            return _gr(self.re * o.re, self.im * o.re)
        if not o.re:
            return _gr(-self.im * o.im, self.re * o.im)
        return _gr(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def conjugate(self) -> "GaussianRational":
        return _gr(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gr(self.re / n, -self.im / n)

    def __repr__(self):
        if not self.im:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im}i)"


_set = object.__setattr__
_new = object.__new__


def _gr(re: Fraction, im: Fraction) -> GaussianRational:
    """re + i im from two Fractions, unchecked: for results of exact arithmetic."""
    g = _new(GaussianRational)
    _set(g, "re", re)
    _set(g, "im", im)
    return g


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")     # q = 0 is refused


def parse_rational(s) -> Fraction:
    """The rational of a string in a form str(Fraction) writes, p or p/q; else
    ValueError.  Fraction would also expand "1e10000000" to 10^7 digits."""
    if type(s) is not str or not _RATIONAL.fullmatch(s):
        raise ValueError(f"expected a rational written as p or p/q, got {s!r}")
    return Fraction(s)


def parse_indices(idx, count: int, n: int) -> tuple[int, ...]:
    """`count` 1-based indices in 1..n, as the JSON writers emit them, made
    0-based; else ValueError, so no index wraps round to the end of a row."""
    if type(idx) is not list or len(idx) != count or any(
            type(x) is not int or not 1 <= x <= n for x in idx):
        raise ValueError(f"expected {count} indices in 1..{n}")
    return tuple(x - 1 for x in idx)


def _keyed(entries, name: str, parse=tuple) -> dict:
    """The JSON `entries` keyed by parse(entry[name]); ValueError on a repeated
    key, so a later entry never silently replaces an earlier one."""
    out = {}
    for entry in entries:
        if (key := parse(entry[name])) in out:
            raise ValueError(f"repeated {name!r} {entry[name]}")
        out[key] = entry
    return out


# ---------------------------------------------------------------------------
# Deterministic splittable PRNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Splittable splitmix64 stream.

    Golden vectors and counterexample replays are compared byte for byte, so
    the generator must produce identical output on every interpreter version;
    the stdlib generator only guarantees that for `random()`.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _mix64(seed & _MASK64) ^ _GOLDEN

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_int(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi].  Modulo reduction: deterministic, and the
        slight bias is irrelevant for sampling test inputs."""
        if hi < lo:
            raise ValueError("empty range")
        # next_u64, with the splitmix64 finalizer inlined: one call per draw
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)

    def next_ratio(self, bound: int) -> tuple[int, int]:
        """The draws (p, q) of a rational p/q: |p| <= bound, then 1 <= q <= bound."""
        return self.next_int(-bound, bound), self.next_int(1, bound)

    def next_fraction(self, bound: int) -> Fraction:
        """The rational of `next_ratio(bound)`."""
        return Fraction(*self.next_ratio(bound))

    def next_gaussian(self, bound: int) -> GaussianRational:
        re = self.next_fraction(bound)
        im = self.next_fraction(bound)
        return GaussianRational(re, im)

    def split(self, label: int) -> "RandomStream":
        """Independent child stream; does not advance this stream."""
        child = RandomStream.__new__(RandomStream)
        child._state = _mix64(self._state ^ _mix64(label & _MASK64))
        return child


# ---------------------------------------------------------------------------
# Symmetric rational matrices
# ---------------------------------------------------------------------------


def symmetric_matrix(n: int, entries) -> list[list[Fraction]]:
    """`entries` as an n x n matrix of Fractions; raises unless it is symmetric."""
    rows = [[Fraction(x) for x in row] for row in entries]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"matrix must be {n} x {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i}, {j})")
    return rows


def random_symmetric_matrix(n: int, stream: RandomStream, bound: int) -> list[list[Fraction]]:
    """Symmetric matrix drawing `next_fraction(bound)` for each i <= j, row by row."""
    m = [[_F0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = stream.next_fraction(bound)
    return m


# ---------------------------------------------------------------------------
# Sparse exact elimination
# ---------------------------------------------------------------------------


def nullspace_basis(rows: Iterable[dict], ncols: int) -> list[dict]:
    """Basis of {v : row . v = 0 for every row} over Q or Q(i).

    Each row maps columns in range(ncols) to nonzero scalars (ints, Fractions
    or Gaussian rationals); absent columns are zero.  The rows are reduced in
    order, each pivoting on its lowest surviving column.  Then, from the
    highest pivot down, each pivot row subtracts the finished rows of the
    other pivot columns it holds, once each, so the work follows the nonzeros
    rather than the rank squared.  A pivot of 1 or -1 is its own inverse, so
    int rows stay ints while every pivot is a unit; any other pivot is
    inverted as Fraction(1) / p, never rounded.  The basis holds one sparse
    vector per free column, in increasing column order, with 1 at that
    column and then the pivots in the order they were found; so its length
    is the nullity, and ncols minus it is the rank.

    `while row:` is the package's one loop that ends only because its work
    shrinks: each step's lowest column must lie above the last step's, or
    RuntimeError is raised rather than spinning.  Every other loop walks a
    finite collection: `forms._insert_index` a tuple,
    `symplectic.raise_lower_index` the nesting of its tensor, and replay's
    size check (`verify._check_replay_sizes`) a decoded JSON tree.
    """
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        last = -1
        while row:
            c = min(row)
            if c <= last:
                raise RuntimeError(f"row reduction made no progress at column {c}")
            last = c
            if c in pivot_rows:
                f = row.pop(c)
                for cc, vv in pivot_rows[c].items():
                    if cc == c:
                        continue
                    nv = row.get(cc, 0) - f * vv
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            else:
                p = row[c]
                inv = p if p == 1 or p == -1 else _F1 / p
                pivot_rows[c] = {cc: vv * inv for cc, vv in row.items()}
                break
    # full reduction, highest pivot first: every other column of a row lies
    # above its pivot, so the rows it pulls from are finished, holding their
    # pivot and free columns only, and no pivot column comes back
    for c in sorted(pivot_rows, reverse=True):
        row = pivot_rows[c]
        for c2 in [cc for cc in row if cc != c and cc in pivot_rows]:
            f = row.pop(c2)
            for cc, vv in pivot_rows[c2].items():
                if cc == c2:
                    continue
                nv = row.get(cc, 0) - f * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    basis = {fcol: {fcol: 1} for fcol in range(ncols) if fcol not in pivot_rows}
    for p, prow in pivot_rows.items():
        for fcol, coeff in prow.items():
            if fcol != p:
                basis[fcol][p] = -coeff
    return list(basis.values())
