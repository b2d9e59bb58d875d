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

Random tensors are drawn as exact rational combinations of a nullspace basis
of the linear constraints, materialized once per l and cached; membership in
the constraint space is therefore exact by construction.  The constraint
systems are assembled over the (A)+(C)-reduced coordinates (i <= j, k < l)
as sparse rows for `exact.nullspace_basis`; elimination over the full
(2l)^4 coordinates would be needlessly slow at l = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import add, sub

from .exact import RandomStream, nullspace_basis, random_symmetric_matrix, symmetric_matrix
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

F0 = Fraction(0)


def _zero_entries(n: int):
    return [[[[F0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


class CurvatureTensor:
    """Dense rank-4 array of rationals satisfying the curvature symmetries."""

    __slots__ = ("l", "entries")

    def __init__(self, l: int, entries, validate: bool = True):
        n = 2 * l
        if len(entries) != n:
            raise ValueError("entries must be (2l)^4")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "entries", entries)
        if validate:
            report = check_symmetries(entries)
            if not report.curvature_type():
                raise ValueError(f"symmetry violation: {report}")

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureTensor is immutable")

    @classmethod
    def zero(cls, l: int) -> "CurvatureTensor":
        return cls(l, _zero_entries(2 * l), validate=False)

    def entry(self, i: int, j: int, k: int, m: int) -> Fraction:
        return self.entries[i][j][k][m]

    def is_zero(self) -> bool:
        n = 2 * self.l
        return all(
            not self.entries[i][j][k][m]
            for i, j, k, m in product(range(n), repeat=4)
        )

    def __eq__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return self.l == other.l and self.entries == other.entries

    def __add__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return self._combine(other, add)

    def __sub__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return self._combine(other, sub)

    def _combine(self, other: "CurvatureTensor", op) -> "CurvatureTensor":
        """op(self, other) entry by entry, for op in (add, sub); a zero entry
        of other leaves self's entry as it is."""
        out = [[[[op(x, y) if y else x for x, y in zip(r, q)] for r, q in zip(p, o)]
                for p, o in zip(b, c)] for b, c in zip(self.entries, other.entries)]
        return CurvatureTensor(self.l, out, validate=False)

    def __repr__(self):
        return f"{type(self).__name__}(l={self.l})"


class RicciTensor:
    """Symmetric 2l x 2l rational matrix."""

    __slots__ = ("l", "entries")

    def __init__(self, l: int, entries):
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "entries", symmetric_matrix(2 * l, entries))

    def __setattr__(self, name, value):
        raise AttributeError("RicciTensor is immutable")

    @classmethod
    def zero(cls, l: int) -> "RicciTensor":
        n = 2 * l
        return cls(l, [[F0] * n for _ in range(n)])

    @classmethod
    def random(cls, l: int, stream: RandomStream, bound: int = 5) -> "RicciTensor":
        return cls(l, random_symmetric_matrix(2 * l, stream, bound))

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def __eq__(self, other):
        if not isinstance(other, RicciTensor):
            return NotImplemented
        return self.l == other.l and self.entries == other.entries

    def __repr__(self):
        return f"RicciTensor(l={self.l})"


class WeylTensor(CurvatureTensor):
    """Curvature-type tensor whose six omega-traces all vanish."""

    def __init__(self, l: int, entries, validate: bool = True):
        super().__init__(l, entries, validate=validate)
        if validate:
            traces = omega_traces(self)
            for pair, mat in traces.items():
                for row in mat:
                    for x in row:
                        if x:
                            raise ValueError(f"nonzero omega-trace on slots {pair}")


# ---------------------------------------------------------------------------
# Symmetry predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    holds: bool
    first_violation: tuple[int, int, int, int] | None = None


@dataclass(frozen=True)
class SymmetryReport:
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


def _entries_of(R):
    return R.entries if isinstance(R, CurvatureTensor) else R


def _cleared(e):
    """(ints, den): the rational rank-4 array e times den, the lcm of its
    denominators.  The ints are the same array up to one positive factor, so
    they satisfy exactly the same linear identities, and e = ints / den."""
    den = lcm(*(x.denominator for block in e for plane in block for row in plane for x in row))
    return [[[[x.numerator * (den // x.denominator) for x in row] for row in plane]
             for plane in block] for block in e], den


def _cleared_matrix(m):
    """(ints, den) of a rational matrix, as `_cleared` does for rank 4."""
    den = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def check_symmetries(R) -> SymmetryReport:
    """Check identities (A)-(D) on a rank-4 array or CurvatureTensor.

    The entries (ints or Fractions) are cleared to integers once, and every
    identity is then an exact integer comparison.  Quadruples are visited in
    lexicographic order, so each `first_violation` is the first offending
    (i, j, k, m) in that order.
    """
    e, _ = _cleared(_entries_of(R))
    n = len(e)
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


# ---------------------------------------------------------------------------
# Ricci trace, sigma_tilde, trace-free part
# ---------------------------------------------------------------------------


def _ricci_entries(R: CurvatureTensor):
    e = R.entries
    partners = omega_partners(R.l)
    n = len(partners)
    out = [[F0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = F0
            for m, (a, w) in enumerate(partners):
                acc += w * e[a][j][m][i]
            out[i][j] = acc
    return out


def ricci_of(R: CurvatureTensor) -> RicciTensor:
    """Ricci trace sigma_ij = sum_m s_m R[m*][j][m][i]."""
    report = check_symmetries(R)
    if not report.curvature_type():
        raise ValueError("input violates the curvature symmetries")
    return RicciTensor(R.l, _ricci_entries(R))


def sigma_tilde_of(sigma: RicciTensor) -> CurvatureTensor:
    """Curvature-type tensor built from a symmetric matrix.

    This is the unique (up to the fixed normalization 1/(2(l+1))) Ricci-type
    section: ricci_of(sigma_tilde_of(s)) = s exactly.  Each of the five terms
    of the display is nonzero only where its omega pairs a slot with its
    partner, so the sum runs over the partner map.  The terms are summed over
    ints, from the entries of s cleared to the lcm c of their denominators;
    each entry is then one Fraction over c * 2(l+1).
    """
    partners = omega_partners(sigma.l)
    n = len(partners)
    s, c = _cleared_matrix(sigma.entries)
    out = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
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
    denom = c * 2 * (sigma.l + 1)
    entries = [[[[Fraction(v, denom) if v else F0 for v in row] for row in plane]
                for plane in block] for block in out]
    return CurvatureTensor(sigma.l, entries, validate=False)


def weyl_of(R: CurvatureTensor) -> WeylTensor:
    """Trace-free part W = R - sigma_tilde(ricci(R)); validated on the way out."""
    diff = R - sigma_tilde_of(ricci_of(R))
    return WeylTensor(R.l, diff.entries, validate=True)


def raise_all(R: CurvatureTensor):
    """All four indices raised: R^{ijkl}."""
    t = R.entries
    for slot in range(4):
        t = raise_lower_index(t, slot, "raise")
    return t


def _lowered_traces(e, partners, pairs=tuple(combinations(range(4), 2))) -> dict:
    """The omega-contractions sum_a s_a e[..a..a*..] of a lowered rank-4
    array (ints or Fractions) over each slot pair of `pairs` (default: all
    six), keyed by slot pair; each value is a 2l x 2l matrix over the two
    free slots, in slot order."""
    n = len(partners)
    out = {}
    for s, t in pairs:
        free = [p for p in range(4) if p not in (s, t)]
        mat = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(n):
                acc = 0
                for a, (b, w) in enumerate(partners):
                    idx = [0, 0, 0, 0]
                    idx[s], idx[t] = a, b
                    idx[free[0]], idx[free[1]] = u, v
                    acc += w * e[idx[0]][idx[1]][idx[2]][idx[3]]
                mat[u][v] = acc
        out[(s, t)] = mat
    return out


def omega_traces(R: CurvatureTensor) -> dict:
    """The six contractions R^{ijkl} omega_(pair), keyed by slot pair.

    Each value is a 2l x 2l matrix over the two free slots, in slot order.
    Raising is the signed swap T'[i] = s_i T[i*] in every slot, so the raised
    trace at (u, v) is s_u s_v times the lowered trace at (u*, v*); it is read
    off `_lowered_traces` without raising the tensor.
    """
    partners = omega_partners(R.l)
    lowered = _lowered_traces(R.entries, partners)
    return {
        pair: [[su * sv * Fraction(mat[up][vp]) for vp, sv in partners] for up, su in partners]
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


def _bianchi_rows(n: int, index) -> list[dict[int, Fraction]]:
    rows = []
    for i in range(n):
        for j, k, m in combinations(range(n), 3):
            row: dict[int, Fraction] = {}
            for (a, b, c, d) in ((i, j, k, m), (i, k, m, j), (i, m, j, k)):
                r = _resolve(index, a, b, c, d)
                if r is None:
                    continue
                var, sign = r
                row[var] = row.get(var, F0) + sign
            row = {v: x for v, x in row.items() if x}
            if row:
                rows.append(row)
    return rows


def _trace_rows(n: int, index) -> list[dict[int, Fraction]]:
    """Vanishing of the six omega-traces, expressed on lowered coordinates.

    A raised-pair trace W^{ijkl} omega_(slots s,t) = 0 is equivalent to the
    omega^{ab} contraction of the lowered tensor on the same slots.
    """
    partners = omega_partners(n // 2)
    rows = []
    for s, t in combinations(range(4), 2):
        free = [p for p in range(4) if p not in (s, t)]
        for u in range(n):
            for v in range(n):
                row: dict[int, Fraction] = {}
                for a, (b, w) in enumerate(partners):
                    idx = [0, 0, 0, 0]
                    idx[s], idx[t] = a, b
                    idx[free[0]], idx[free[1]] = u, v
                    r = _resolve(index, *idx)
                    if r is None:
                        continue
                    var, sign = r
                    val = row.get(var, F0) + w * sign
                    if val:
                        row[var] = val
                    else:
                        row.pop(var, None)
                if row:
                    rows.append(row)
    return rows


_curvature_basis_cache: dict[int, list] = {}
_weyl_basis_cache: dict[int, list] = {}


def curvature_space_basis(l: int):
    """Cached nullspace basis of constraints (A)+(B)+(C), reduced coordinates."""
    if l not in _curvature_basis_cache:
        n = 2 * l
        variables, index = _canonical_vars(n)
        rows = _bianchi_rows(n, index)
        basis = nullspace_basis(rows, len(variables))
        _curvature_basis_cache[l] = [(variables, vec) for vec in basis]
    return _curvature_basis_cache[l]


def weyl_space_basis(l: int):
    """Cached nullspace basis of (A)+(B)+(C) plus all six trace conditions."""
    if l not in _weyl_basis_cache:
        n = 2 * l
        variables, index = _canonical_vars(n)
        rows = _bianchi_rows(n, index) + _trace_rows(n, index)
        basis = nullspace_basis(rows, len(variables))
        _weyl_basis_cache[l] = [(variables, vec) for vec in basis]
    return _weyl_basis_cache[l]


def _expand_var_vector(l: int, variables, vec: dict[int, Fraction]):
    n = 2 * l
    out = _zero_entries(n)
    for var, coeff in vec.items():
        i, j, k, m = variables[var]
        out[i][j][k][m] += coeff
        out[i][j][m][k] -= coeff
        if i != j:
            out[j][i][k][m] += coeff
            out[j][i][m][k] -= coeff
    return out


def _random_combination(l: int, basis, stream: RandomStream, bound: int):
    acc: dict[int, Fraction] = {}
    variables = basis[0][0] if basis else None
    for _, vec in basis:
        c = stream.next_fraction(bound)
        if not c:
            continue
        for var, coeff in vec.items():
            val = acc.get(var, F0) + c * coeff
            if val:
                acc[var] = val
            else:
                acc.pop(var, None)
    if variables is None:
        return _zero_entries(2 * l)
    return _expand_var_vector(l, variables, acc)


def random_curvature(l: int, seed: int, bound: int = 9) -> CurvatureTensor:
    """Deterministic random element of the curvature constraint space."""
    if l < 1:
        raise ValueError("l must be >= 1")
    basis = curvature_space_basis(l)
    entries = _random_combination(l, basis, RandomStream(seed), bound)
    return CurvatureTensor(l, entries, validate=False)


def random_weyl(l: int, seed: int, bound: int = 9) -> WeylTensor:
    """Deterministic random trace-free curvature tensor; zero when l = 1."""
    if l < 1:
        raise ValueError("l must be >= 1")
    basis = weyl_space_basis(l)
    entries = _random_combination(l, basis, RandomStream(seed), bound)
    return WeylTensor(l, entries, validate=False)


# ---------------------------------------------------------------------------
# JSON wire format: {"l": int, "entries": [{"ijkl": [..1-based..],
#                    "val": "p/q"}]} with only nonzero entries listed.
# ---------------------------------------------------------------------------


def curvature_to_json(R: CurvatureTensor) -> dict:
    n = 2 * R.l
    items = []
    for i, j, k, m in product(range(n), repeat=4):
        v = R.entries[i][j][k][m]
        if v:
            items.append({"ijkl": [i + 1, j + 1, k + 1, m + 1], "val": str(v)})
    return {"l": R.l, "entries": items}


def curvature_from_json(obj: dict, validate: bool = True) -> CurvatureTensor:
    l = obj["l"]
    entries = _zero_entries(2 * l)
    for item in obj["entries"]:
        i, j, k, m = (x - 1 for x in item["ijkl"])
        entries[i][j][k][m] = Fraction(item["val"])
    return CurvatureTensor(l, entries, validate=validate)


def ricci_to_json(sigma: RicciTensor) -> dict:
    return {"l": sigma.l, "rows": [[str(x) for x in row] for row in sigma.entries]}


def ricci_from_json(obj: dict) -> RicciTensor:
    return RicciTensor(obj["l"], [[Fraction(x) for x in row] for row in obj["rows"]])
