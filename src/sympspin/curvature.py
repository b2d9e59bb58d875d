"""Symplectic curvature tensors: symmetries, Ricci trace, trace-free part.

A curvature-type tensor R_{ijkl} over (R^{2l}, omega) satisfies

    (A)  R_{ijkl} = -R_{ijlk}
    (B)  R_{ijkl} + R_{iklj} + R_{iljk} = 0     (first Bianchi identity)
    (C)  R_{ijkl} = R_{jikl}

and, as a consequence of (A)-(C), the four-term cyclic identity

    (D)  R_{ijkl} + R_{jkli} + R_{klij} + R_{lijk} = 0.

Every contraction with omega is a signed swap through the partner map
(i*, s_i) of `symplectic`.  The Ricci part is the trace

    sigma_ij = sum_{m,a} omega^{ma} R_{ajmi} = sum_m s_m R_{m* j m i},

which is symmetric and satisfies  R^{ijkl} omega_kl = 2 sigma^{ij}.  The
coordinate expression is derived from the trace definition and then pinned by
that raised-index identity in the test suite; if the identity suite fails,
the sign or slot choice here is wrong, whatever the derivation says.

sigma_tilde rebuilds a curvature-type tensor from a symmetric matrix:

    sigma_tilde_ijkl = (omega_il s_jk - omega_ik s_jl + omega_jl s_ik
                        - omega_jk s_il + 2 s_ij omega_kl) / (2(l+1))

and the trace-free remainder W = R - sigma_tilde(ricci(R)) has all six
omega-contractions equal to zero.

Tensors hold int numerators over one int denominator, settled once when they
are built: the public constructors clear and check their entries, and every
result computed here goes through the unchecked `_tensor` and `_ricci`.  The
identities are linear and homogeneous, so each check compares numerators.

Random tensors are drawn as exact rational combinations of a nullspace basis
of the linear constraints, materialized once per l and cached; membership in
the constraint space is therefore exact by construction.  Every pivot of the
constraint rows is +-1, so both bases come out of the elimination as int
vectors, and every draw sums its combination over ints on the lcm of its
coefficient denominators, with no clearing pass.  The constraint systems are
assembled over the (A)+(C)-reduced coordinates (i <= j, k < l) as sparse
rows for `exact.nullspace_basis`; elimination over the full (2l)^4
coordinates would be needlessly slow at l = 3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import gcd, lcm
from operator import itemgetter, neg
from typing import NamedTuple

from .exact import (
    RandomStream,
    _keyed,
    nullspace_basis,
    parse_indices,
    parse_rational,
    random_symmetric_matrix,
    symmetric_matrix,
)
from .symplectic import omega_partners, raise_lower_index

__all__ = [
    "CurvatureTensor",
    "RicciTensor",
    "WeylTensor",
    "IdentityCheck",
    "SymmetryReport",
    "check_symmetries",
    "ricci_of",
    "sigma_tilde_of",
    "weyl_of",
    "random_curvature",
    "random_weyl",
    "curvature_space_basis",
    "weyl_space_basis",
    "omega_traces",
    "curvature_to_json",
    "curvature_from_json",
    "ricci_to_json",
    "ricci_from_json",
]

_set = object.__setattr__


def _zero_ints(n: int):
    return [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def _flat(num):
    """The entries of a rank-4 array, in index order."""
    return (x for block in num for plane in block for row in plane for x in row)


def _cleared(e):
    """(ints, den): the rational rank-4 array e times den, the lcm of its
    reduced denominators.  So e = ints / den, in lowest terms."""
    den = lcm(*(x.denominator for x in _flat(e)))
    return [[[[x.numerator * (den // x.denominator) for x in row] for row in plane]
             for plane in block] for block in e], den


def _cleared_matrix(m):
    """(ints, den) of a rational matrix, as `_cleared` does for rank 4."""
    den = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def _init(obj, l: int, num, den: int):
    for name, value in (("l", l), ("num", num), ("den", den)):
        _set(obj, name, value)
    return obj


class CurvatureTensor:
    """Dense rank-4 array of rationals satisfying the curvature symmetries.

    R_ijkl = num[i][j][k][m] / den, with int numerators over one int den >= 1
    in lowest terms, so equality of (num, den) is equality of tensors;
    `entries` is a read-only Fraction view, built on each read.  The public
    constructor clears its rational entries and checks (A)-(C); results
    computed here are built through the unchecked `_tensor`.
    """

    __slots__ = ("l", "num", "den")

    def __init__(self, l: int, entries):
        if len(entries) != 2 * l:
            raise ValueError("entries must be (2l)^4")
        _init(self, l, *_cleared(entries))._check()

    def _check(self) -> None:
        if not _curvature_type(self):
            raise ValueError(f"symmetry violation: {check_symmetries(self)}")

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    @property
    def entries(self) -> list:
        den = self.den
        return [[[[Fraction(x, den) for x in row] for row in plane] for plane in block]
                for block in self.num]

    @classmethod
    def zero(cls, l: int) -> "CurvatureTensor":
        return _tensor(l, _zero_ints(2 * l), 1, cls)

    def entry(self, i: int, j: int, k: int, m: int) -> Fraction:
        return Fraction(self.num[i][j][k][m], self.den)

    def is_zero(self) -> bool:
        return not any(_flat(self.num))

    def __eq__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return self.l == other.l and self.den == other.den and self.num == other.num

    def __add__(self, other):
        return self._combine(other, 1) if isinstance(other, CurvatureTensor) else NotImplemented

    def __sub__(self, other):
        return self._combine(other, -1) if isinstance(other, CurvatureTensor) else NotImplemented

    def _combine(self, other: "CurvatureTensor", sign: int) -> "CurvatureTensor":
        """self + sign * other, summed over ints on the lcm of the denominators."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        num = [[[[a * x + b * y for x, y in zip(r, q)] for r, q in zip(p, o)]
                for p, o in zip(c, d)] for c, d in zip(self.num, other.num)]
        return _tensor(self.l, num, den)

    def __repr__(self):
        return f"{type(self).__name__}(l={self.l})"


def _tensor(l: int, num, den: int, cls=CurvatureTensor) -> CurvatureTensor:
    """The unchecked constructor: a (2l)^4 int array over den >= 1, reduced
    here to lowest terms.  No symmetry is checked."""
    g = gcd(den, *_flat(num))
    if g > 1:
        num, den = [[[[x // g for x in row] for row in plane] for plane in block]
                    for block in num], den // g
    return _init(object.__new__(cls), l, num, den)


class RicciTensor:
    """Symmetric 2l x 2l rational matrix, stored as a `CurvatureTensor` is;
    the public constructor checks the symmetry, the unchecked one is `_ricci`."""

    __slots__ = ("l", "num", "den")

    def __init__(self, l: int, entries):
        _init(self, l, *_cleared_matrix(symmetric_matrix(2 * l, entries)))

    def __setattr__(self, name, value):
        raise AttributeError("RicciTensor is immutable")

    @property
    def entries(self) -> list:
        return [[Fraction(x, self.den) for x in row] for row in self.num]

    @classmethod
    def zero(cls, l: int) -> "RicciTensor":
        return _ricci(l, [[0] * (2 * l) for _ in range(2 * l)], 1)

    @classmethod
    def random(cls, l: int, stream: RandomStream, bound: int = 5) -> "RicciTensor":
        return cls(l, random_symmetric_matrix(2 * l, stream, bound))

    def is_zero(self) -> bool:
        return not any(chain.from_iterable(self.num))

    def __eq__(self, other):
        if not isinstance(other, RicciTensor):
            return NotImplemented
        return self.l == other.l and self.den == other.den and self.num == other.num

    def __repr__(self):
        return f"RicciTensor(l={self.l})"


def _ricci(l: int, num, den: int) -> RicciTensor:
    """The unchecked constructor of `RicciTensor`, as `_tensor` is of tensors."""
    g = gcd(den, *chain.from_iterable(num))
    if g > 1:
        num, den = [[x // g for x in row] for row in num], den // g
    return _init(object.__new__(RicciTensor), l, num, den)


class WeylTensor(CurvatureTensor):
    """Curvature-type tensor whose six omega-traces all vanish.  The public
    constructor checks them on the lowered numerators: each raised trace is
    a signed permutation of a lowered one (see `omega_traces`)."""

    def _check(self) -> None:
        super()._check()
        for pair, mat in _lowered_traces(self.num, omega_partners(self.l)).items():
            if any(chain.from_iterable(mat)):
                raise ValueError(f"nonzero omega-trace on slots {pair}")


# ---------------------------------------------------------------------------
# Symmetry predicates
# ---------------------------------------------------------------------------


class IdentityCheck(NamedTuple):
    holds: bool
    first_violation: tuple[int, int, int, int] | None = None


class SymmetryReport(NamedTuple):
    """Per-identity verdicts; violations carry the first offending indices."""

    antisym_last_pair: IdentityCheck    # (A)
    first_bianchi: IdentityCheck        # (B)
    pair_symmetry: IdentityCheck        # (C)
    extended_bianchi: IdentityCheck     # (D)

    def curvature_type(self) -> bool:
        return (
            self.antisym_last_pair.holds
            and self.first_bianchi.holds
            and self.pair_symmetry.holds
        )

    def all_hold(self) -> bool:
        return self.curvature_type() and self.extended_bianchi.holds


_ALL_HOLD = SymmetryReport(*[IdentityCheck(True)] * 4)


def check_symmetries(R) -> SymmetryReport:
    """Check identities (A)-(D) on the numerators of a CurvatureTensor, or on
    a rank-4 array of ints or Fractions as it is: they are linear and
    homogeneous.  Quadruples are visited in lexicographic order, so each
    `first_violation` is the first offending (i, j, k, m) in that order.
    A tensor on which all four hold gets one shared report, after early exits.
    """
    e = R.num if isinstance(R, CurvatureTensor) else R
    n = len(e)
    # the (D) sum is invariant under rotating (i, j, k, m): start at the least
    if _curvature_type(e) and not any(
            e[i][j][k][m] + e[j][k][m][i] + e[k][m][i][j] + e[m][i][j][k]
            for i in range(n) for j, k, m in product(range(i, n), repeat=3)):
        return _ALL_HOLD
    anti = bianchi = pair = ext = None
    for i, j, k, m in product(range(n), repeat=4):
        if anti is None and e[i][j][k][m] != -e[i][j][m][k]:
            anti = (i, j, k, m)
        if pair is None and e[i][j][k][m] != e[j][i][k][m]:
            pair = (i, j, k, m)
        if bianchi is None and e[i][j][k][m] + e[i][k][m][j] + e[i][m][j][k] != 0:
            bianchi = (i, j, k, m)
        if ext is None and (
            e[i][j][k][m] + e[j][k][m][i] + e[k][m][i][j] + e[m][i][j][k] != 0
        ):
            ext = (i, j, k, m)
        if anti and bianchi and pair and ext:
            break
    return SymmetryReport(
        antisym_last_pair=IdentityCheck(anti is None, anti),
        first_bianchi=IdentityCheck(bianchi is None, bianchi),
        pair_symmetry=IdentityCheck(pair is None, pair),
        extended_bianchi=IdentityCheck(ext is None, ext),
    )


def _curvature_type(R) -> bool:
    """`check_symmetries(R).curvature_type()`, stopping at the first violation:
    (C) compares whole planes, (A) each plane with its negated transpose, and
    (B), alternating in its last three slots given (A), runs over j < k < l."""
    e = R.num if isinstance(R, CurvatureTensor) else R
    triples = list(combinations(range(len(e)), 3))
    for i, block in enumerate(e):
        for j, plane in enumerate(block):
            if plane != e[j][i] or plane != [list(map(neg, col)) for col in zip(*plane)]:
                return False
        if any(block[j][k][m] + block[k][m][j] + block[m][j][k] for j, k, m in triples):
            return False
    return True


# ---------------------------------------------------------------------------
# Ricci trace, sigma_tilde, trace-free part
# ---------------------------------------------------------------------------


def _ricci_entries(R: CurvatureTensor):
    """The Ricci trace sum_m s_m R[m*][j][m][i] as int numerators over R.den:
    with a = m*, s_a = -s_m, it is minus the slot-(0, 2) lowered trace at (j, i)."""
    trace = _lowered_traces(R.num, omega_partners(R.l), ((0, 2),))[(0, 2)]
    return [[-x for x in col] for col in zip(*trace)]


def ricci_of(R: CurvatureTensor) -> RicciTensor:
    """Ricci trace sigma_ij = sum_m s_m R[m*][j][m][i]."""
    if not _curvature_type(R):
        raise ValueError("input violates the curvature symmetries")
    return _ricci(R.l, _ricci_entries(R), R.den)


def sigma_tilde_of(sigma: RicciTensor) -> CurvatureTensor:
    """Curvature-type tensor built from a symmetric matrix.

    This is the unique (up to the fixed normalization 1/(2(l+1))) Ricci-type
    section: ricci_of(sigma_tilde_of(s)) = s exactly.  Each of the five terms
    of the display is nonzero only where its omega pairs a slot with its
    partner, so the sum runs over the partner map, on the numerators of s,
    over the one denominator den(s) * 2(l+1).
    """
    partners = omega_partners(sigma.l)
    n = len(partners)
    s = sigma.num
    out = _zero_ints(n)
    for x, (y, w) in enumerate(partners):     # omega_xy = w
        for a in range(n):
            for b in range(n):
                v = s[a][b] if w > 0 else -s[a][b]
                if not v:
                    continue
                out[x][a][b][y] += v            # omega_im s_jk
                out[x][a][y][b] -= v            # omega_ik s_jm
                out[a][x][b][y] += v            # omega_jm s_ik
                out[a][x][y][b] -= v            # omega_jk s_im
                out[a][b][x][y] += 2 * v        # 2 s_ij omega_km
    return _tensor(sigma.l, out, sigma.den * 2 * (sigma.l + 1))


def weyl_of(R: CurvatureTensor) -> WeylTensor:
    """Trace-free part W = R - sigma_tilde(ricci(R)); validated on the way out."""
    diff = R - sigma_tilde_of(ricci_of(R))
    W = _tensor(R.l, diff.num, diff.den, WeylTensor)
    W._check()
    return W


def raise_all(R: CurvatureTensor):
    """All four indices raised: R^{ijkl}."""
    t = R.entries
    for slot in range(4):
        t = raise_lower_index(t, slot, "raise")
    return t


_SLOT_PAIRS = tuple(combinations(range(4), 2))


@cache
def _trace_walk(partners: tuple, pairs: tuple) -> tuple:
    """(slot pair, cells) for each slot pair of `pairs`: cells[u][v] lists the
    (index quadruple, s_a) terms of the omega-contraction on that pair, with
    a, a* in its slots and u, v in the two free slots, in slot order."""
    n = len(partners)
    walk = []
    for pair in pairs:
        slots = [*pair, *(p for p in range(4) if p not in pair)]
        place = itemgetter(*(slots.index(p) for p in range(4)))
        walk.append((pair, [[[(place((a, b, u, v)), w) for a, (b, w) in enumerate(partners)]
                             for v in range(n)] for u in range(n)]))
    return tuple(walk)


def _lowered_traces(e, partners, pairs=_SLOT_PAIRS) -> dict:
    """The omega-contractions sum_a s_a e[..a..a*..] of a lowered rank-4
    array (ints or Fractions) over each slot pair of `pairs` (default: all
    six), keyed by slot pair; each value is a 2l x 2l matrix over the two
    free slots, in slot order."""
    return {pair: [[sum([w * e[i][j][k][m] for (i, j, k, m), w in cell]) for cell in row]
                   for row in rows]
            for pair, rows in _trace_walk(partners, pairs)}


def omega_traces(R: CurvatureTensor) -> dict:
    """The six contractions R^{ijkl} omega_(pair), keyed by slot pair.

    Each value is a 2l x 2l matrix of Fractions over the two free slots, in
    slot order.  Raising is the signed swap T'[i] = s_i T[i*] in every slot,
    so the raised trace at (u, v) is s_u s_v times the lowered trace at
    (u*, v*), read off `_lowered_traces` of the numerators, over R.den.
    """
    partners = omega_partners(R.l)
    lowered = _lowered_traces(R.num, partners)
    return {
        pair: [[Fraction(su * sv * mat[up][vp], R.den) for vp, sv in partners]
               for up, su in partners]
        for pair, mat in lowered.items()
    }


# ---------------------------------------------------------------------------
# Constraint spaces: nullspace bases over reduced coordinates
# ---------------------------------------------------------------------------


def _canonical_vars(n: int):
    """Coordinates after imposing (A) and (C): pairs i <= j times k < l."""
    variables = []
    index = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                for m in range(k + 1, n):
                    index[(i, j, k, m)] = len(variables)
                    variables.append((i, j, k, m))
    return variables, index


def _resolve(index, i, j, k, m):
    """Map an arbitrary index quadruple to (variable, sign); None when k == m."""
    if k == m:
        return None
    sign = 1
    if k > m:
        k, m = m, k
        sign = -1
    if i > j:
        i, j = j, i
    return index[(i, j, k, m)], sign


def _row(index, terms) -> dict[int, int]:
    """The constraint sum w R_idx over the (index quadruple, int w) terms, on
    reduced coordinates: each quadruple resolved to (variable, sign), summed
    in ints, zeros dropped."""
    row: dict[int, int] = {}
    for idx, w in terms:
        r = _resolve(index, *idx)
        if r is not None:
            row[r[0]] = row.get(r[0], 0) + w * r[1]
    return {v: x for v, x in row.items() if x}


def _bianchi_rows(n: int, index) -> list[dict[int, int]]:
    rows = (_row(index, [(q, 1) for q in ((i, j, k, m), (i, k, m, j), (i, m, j, k))])
            for i in range(n) for j, k, m in combinations(range(n), 3))
    return [row for row in rows if row]


def _trace_rows(n: int, index) -> list[dict[int, int]]:
    """Vanishing of the six omega-traces, expressed on lowered coordinates.

    A raised-pair trace W^{ijkl} omega_(slots s,t) = 0 is equivalent to the
    omega^{ab} contraction of the lowered tensor on the same slots.
    """
    rows = (_row(index, cell) for _, cells in _trace_walk(omega_partners(n // 2), _SLOT_PAIRS)
            for cell in chain.from_iterable(cells))
    return [row for row in rows if row]


@cache
def _space_basis(l: int, trace_free: bool):
    n = 2 * l
    variables, index = _canonical_vars(n)
    rows = _bianchi_rows(n, index) + (_trace_rows(n, index) if trace_free else [])
    return [(variables, vec) for vec in nullspace_basis(rows, len(variables))]


def curvature_space_basis(l: int):
    """Cached nullspace basis of constraints (A)+(B)+(C), reduced coordinates."""
    return _space_basis(l, False)


def weyl_space_basis(l: int):
    """Cached nullspace basis of (A)+(B)+(C) plus all six trace conditions."""
    return _space_basis(l, True)


def _expand_var_vector(l: int, variables, vec: dict):
    """The rank-4 array of a vector of ints or Fractions on reduced coordinates."""
    out = _zero_ints(2 * l)
    for var, coeff in vec.items():
        i, j, k, m = variables[var]
        out[i][j][k][m] += coeff
        out[i][j][m][k] -= coeff
        if i != j:
            out[j][i][k][m] += coeff
            out[j][i][m][k] -= coeff
    return out


def _random_combination(l: int, trace_free: bool, stream: RandomStream, bound: int):
    """(num, den) of a random combination of the basis: each coefficient is
    the pair p, q of `next_ratio(bound)`, and the sum runs over ints on the
    lcm of every q, as the basis vectors are int vectors; `_tensor` reduces it."""
    basis = _space_basis(l, trace_free)
    draws = []
    for _, vec in basis:
        p, q = stream.next_ratio(bound)
        if p:
            draws.append((p, q, vec))
    den = lcm(*(q for _, q, _ in draws))
    acc: dict[int, int] = {}
    for p, q, vec in draws:
        f = p * (den // q)
        for var, x in vec.items():
            acc[var] = acc.get(var, 0) + f * x
    return _expand_var_vector(l, basis[0][0] if basis else None, acc), den


def random_curvature(l: int, seed: int, bound: int = 9) -> CurvatureTensor:
    """Deterministic random element of the curvature constraint space."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return _tensor(l, *_random_combination(l, False, RandomStream(seed), bound))


def random_weyl(l: int, seed: int, bound: int = 9) -> WeylTensor:
    """Deterministic random trace-free curvature tensor; zero when l = 1."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return _tensor(l, *_random_combination(l, True, RandomStream(seed), bound), WeylTensor)


# ---------------------------------------------------------------------------
# JSON wire format: {"l": int, "entries": [{"ijkl": [..1-based..],
#                    "val": "p/q"}]} with only nonzero entries listed; values
# are read back by `exact.parse_rational`, in the written forms only.
# ---------------------------------------------------------------------------


def curvature_to_json(R: CurvatureTensor) -> dict:
    n = 2 * R.l
    items = []
    for i, j, k, m in product(range(n), repeat=4):
        v = R.num[i][j][k][m]
        if v:
            items.append({"ijkl": [i + 1, j + 1, k + 1, m + 1], "val": str(Fraction(v, R.den))})
    return {"l": R.l, "entries": items}


def curvature_from_json(obj: dict) -> CurvatureTensor:
    l = obj["l"]
    entries = _zero_ints(2 * l)
    for (i, j, k, m), item in _keyed(obj["entries"], "ijkl",
                                     lambda t: parse_indices(t, 4, 2 * l)).items():
        entries[i][j][k][m] = parse_rational(item["val"])
    return CurvatureTensor(l, entries)


def ricci_to_json(sigma: RicciTensor) -> dict:
    return {"l": sigma.l, "rows": [[str(x) for x in row] for row in sigma.entries]}


def ricci_from_json(obj: dict) -> RicciTensor:
    return RicciTensor(obj["l"], [[parse_rational(x) for x in row] for row in obj["rows"]])
