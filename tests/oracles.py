"""Reference implementations for the tests, written against the explicit omega
matrices of `standard_symplectic_form`.

The package contracts with omega only through the partner map of
`sympspin.symplectic`; these copies sum over the written-out matrices
instead, so a test comparing the two catches a defect in either.

The naive spinor kernels below are the other half: checked arithmetic, in
which every result goes through the public `PolySpinor` and
`GaussianRational` constructors and every product of Gaussian rationals takes
four Fraction products: X and Y one (component, index) pair at a time, the
unfolded curvature action and eq. 9, 10 and 11 displays on raised indices,
and the two-form projectors.  The package's packed-key Clifford kernel and
its Gaussian-integer, unchecked and folded fast paths are tested against
them, and its integer `check_symmetries`,
`sigma_tilde_of`, `omega_traces` and curvature evaluation against the
Fraction ones kept here, which evaluate a `Poly` term by term.  The `Poly`
sums, products and partials are done here too, through the public
constructor, since the package computes only on a connection's integer
symbols.  The connection axioms are decided here by building every
difference of raised symbols, and the curvature jets by `poly_deriv` of the
raised table; the package compares symbol ids and differentiates integer
terms instead.  The omega-trace rows of the Weyl constraint space are built
here by their own index walk, for the package's shared, cached one.  The
Fraction samplers of curvature tensors and spinors are kept here for the
integer ones to match draw for draw, and so is the exact rank of each
projector on a graded piece, which only a test records.  So are connection
samplers that draw through `next_fraction` and build through the public
constructors, for the package's unchecked ones to match, and the draw of one
stream integer composed of `next_u64` and `_mix64`, which
`RandomStream.next_int` inlines.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import lcm

from sympspin.connections import ConnectionAxiomReport, Poly, PolynomialConnection, poly_to_json
from sympspin.curvature import (CurvatureTensor, IdentityCheck, SymmetryReport, _cleared,
                                 _expand_var_vector, _resolve, _tensor)
from sympspin.exact import GR_I, GR_ONE, GR_ZERO, GaussianRational, RandomStream, nullspace_basis
from sympspin.forms import PROJECTORS, SpinorForm
from sympspin.forms import op_X as _op_X
from sympspin.forms import project as _project
from sympspin.spinors import DegreeCapError, PolySpinor, SpLieElement, clifford_basis
from sympspin.symplectic import omega_partners, standard_symplectic_form


def omega_pairing(l, u, v):
    """omega(u, v) = sum_{ij} omega_lower[i][j] u[i] v[j]."""
    lo = standard_symplectic_form(l).omega_lower
    n = 2 * l
    return sum((lo[i][j] * u[i] * v[j] for i in range(n) for j in range(n)), Fraction(0))


def _a_omega(A: SpLieElement):
    """Matrix product A . omega_lower (the endomorphism of V)."""
    lo = standard_symplectic_form(A.l).omega_lower
    n = 2 * A.l
    return [[sum(A.matrix[m][p] * lo[p][q] for p in range(n)) for q in range(n)]
            for m in range(n)]


def sp_vector_image(A: SpLieElement, v):
    """(A v)^m = sum_pq A[m][p] omega_lower[p][q] v[q]."""
    ao = _a_omega(A)
    return [sum(row[q] * v[q] for q in range(len(v))) for row in ao]


def sp_covector_image(A: SpLieElement, eta):
    """Dual action on a covector: (A* eta)(v) = -eta(A v)."""
    ao = _a_omega(A)
    n = len(eta)
    return [-sum(eta[t] * ao[t][q] for t in range(n)) for q in range(n)]


def sp_bracket(A: SpLieElement, B: SpLieElement) -> SpLieElement:
    """Lie bracket in the symmetric-matrix presentation: A omega B - B omega A."""
    n = 2 * A.l
    ao, bo = _a_omega(A), _a_omega(B)
    ab = [[sum(ao[i][q] * B.matrix[q][j] for q in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(bo[i][q] * A.matrix[q][j] for q in range(n)) for j in range(n)] for i in range(n)]
    return SpLieElement(A.l, [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)])


def clifford_vector(v, s: PolySpinor) -> PolySpinor:
    """Clifford action of an arbitrary vector, extended linearly."""
    acc = PolySpinor.zero(s.l, s.cap)
    for i, c in enumerate(v):
        if c:
            acc = acc + clifford_basis(i, s).scale(c)
    return acc


def parity_decompose(s: PolySpinor) -> tuple[PolySpinor, PolySpinor]:
    """Split into (even, odd) total-degree parts; the parts sum to s."""
    even = {a: c for a, c in s.coeffs.items() if sum(a) % 2 == 0}
    odd = {a: c for a, c in s.coeffs.items() if sum(a) % 2 == 1}
    return PolySpinor(s.l, s.cap, even), PolySpinor(s.l, s.cap, odd)


def raise_lower_index(tensor, slot: int, direction: str):
    """Raise or lower one slot by summing against every matrix entry of omega:

        raise slot:  T'[.., i, ..] = sum_c omega_upper[i][c] * T[.., c, ..]
        lower slot:  T'[.., i, ..] = sum_t T[.., t, ..] * omega_lower[t][i]
    """
    shape, node = [], tensor
    while isinstance(node, list):
        shape.append(len(node))
        node = node[0]
    n = shape[0]
    space = standard_symplectic_form(n // 2)
    if direction == "raise":
        coeff = space.omega_upper            # coeff[out][bound]
    else:
        coeff = [[space.omega_lower[t][i] for t in range(n)] for i in range(n)]

    def get(idx):
        node = tensor
        for i in idx:
            node = node[i]
        return node

    zero = node * 0
    flat = {}
    for idx in product(range(n), repeat=len(shape)):
        acc = zero
        for c in range(n):
            w = coeff[idx[slot]][c]
            if w:
                acc = acc + get(idx[:slot] + (c,) + idx[slot + 1:]) * w
        flat[idx] = acc

    def build(prefix):
        if len(prefix) == len(shape):
            return flat[prefix]
        return [build(prefix + (i,)) for i in range(n)]

    return build(())


def op_X(phi: SpinorForm) -> SpinorForm:
    """X = - sum_i (e^i ∧ .) ⊗ e_i., one checked Clifford product and one
    checked sum per (component, index) pair."""
    l = phi.l
    if phi.r == 2 * l:
        return SpinorForm.zero(l, phi.r, phi.cap)
    out: dict = {}
    for tup, s in phi.components.items():
        for i in range(2 * l):
            if i in tup:
                continue
            pos = sum(1 for t in tup if t < i)      # e^i moves past pos indices
            term = clifford(i, s)
            _add_into(out, tup[:pos] + (i,) + tup[pos:], term if pos % 2 else spinor_neg(term))
    return SpinorForm(l, phi.r + 1, phi.cap, out)


def op_Y(phi: SpinorForm) -> SpinorForm:
    """Y = sum_ij omega_upper[i][j] (iota_{e_i} .) ⊗ e_j., summed over the
    matrix with checked arithmetic."""
    l = phi.l
    if phi.r == 0:
        return SpinorForm.zero(l, 0, phi.cap)
    upper = standard_symplectic_form(l).omega_upper
    out: dict = {}
    for tup, s in phi.components.items():
        for pos, i in enumerate(tup):
            reduced = tup[:pos] + tup[pos + 1:]
            contraction_sign = 1 if pos % 2 == 0 else -1
            for j in range(2 * l):
                w = upper[i][j]
                if w:
                    _add_into(out, reduced, spinor_scale(clifford(j, s), w * contraction_sign))
    return SpinorForm(l, phi.r - 1, phi.cap, out)


# ---------------------------------------------------------------------------
# Checked spinor arithmetic and the unfolded kernels
# ---------------------------------------------------------------------------


def gr_mul(a, b) -> GaussianRational:
    """(a.re + i a.im)(b.re + i b.im) with all four Fraction products."""
    a, b = GaussianRational._coerce(a), GaussianRational._coerce(b)
    return GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def spinor_add(s: PolySpinor, t: PolySpinor) -> PolySpinor:
    if s.l != t.l:
        raise ValueError("mixed number of variables")
    out = dict(s.coeffs)
    for a, c in t.coeffs.items():
        cur = out.get(a, GaussianRational(0))
        out[a] = GaussianRational(cur.re + c.re, cur.im + c.im)
    return PolySpinor(s.l, max(s.cap, t.cap), out)


def spinor_neg(s: PolySpinor) -> PolySpinor:
    return PolySpinor(s.l, s.cap, {a: GaussianRational(-c.re, -c.im) for a, c in s.coeffs.items()})


def spinor_scale(s: PolySpinor, scalar) -> PolySpinor:
    return PolySpinor(s.l, s.cap, {a: gr_mul(c, scalar) for a, c in s.coeffs.items()})


def spinor_mult_x(s: PolySpinor, var: int) -> PolySpinor:
    out = {}
    for a, c in s.coeffs.items():
        if sum(a) + 1 > s.cap:
            raise DegreeCapError(f"x^{var} * monomial {a} would exceed cap {s.cap}")
        b = list(a)
        b[var] += 1
        out[tuple(b)] = c
    return PolySpinor(s.l, s.cap, out)


def spinor_diff_x(s: PolySpinor, var: int) -> PolySpinor:
    out = {}
    for a, c in s.coeffs.items():
        if a[var]:
            b = list(a)
            b[var] -= 1
            out[tuple(b)] = gr_mul(c, a[var])
    return PolySpinor(s.l, s.cap, out)


def clifford(i: int, s: PolySpinor) -> PolySpinor:
    """e_i . s: i x^i s for i < l, d s / dx^{i-l} otherwise."""
    if i < s.l:
        return spinor_scale(spinor_mult_x(s, i), GR_I)
    return spinor_diff_x(s, i - s.l)


def _add_into(comps: dict, key, s: PolySpinor) -> None:
    comps[key] = spinor_add(comps[key], s) if key in comps else s


def _slot(k: int, m: int) -> tuple[tuple[int, int], int]:
    return ((k, m), 1) if k < m else ((m, k), -1)


def _raise_first_two(entries):
    return raise_lower_index(raise_lower_index(entries, 0, "raise"), 1, "raise")


def spinor_curvature_action(T, phi: PolySpinor) -> SpinorForm:
    """(i/2) T^{ij}_{kl} e^k ∧ e^l ⊗ e_i.e_j.phi, one term per (i, j, k, l)."""
    n = 2 * T.l
    raised = _raise_first_two(T.entries)
    half_i = GaussianRational(0, Fraction(1, 2))
    comps: dict = {}
    for i, j in product(range(n), repeat=2):
        s_ij = clifford(i, clifford(j, phi))
        for k, m in product(range(n), repeat=2):
            c = raised[i][j][k][m]
            if c and k != m:
                key, sign = _slot(k, m)
                _add_into(comps, key, spinor_scale(s_ij, gr_mul(half_i, c * sign)))
    return SpinorForm(T.l, 2, phi.cap, comps)


def literal_p20_ricci(sigma, phi: PolySpinor) -> SpinorForm:
    """i (1 + 1/l) sigma^{ij} omega_kl e^k ∧ e^l ⊗ e_i.e_j.phi, one term per
    (i, j, k, l), summed over every entry of omega_lower."""
    lo = standard_symplectic_form(sigma.l).omega_lower
    n = 2 * sigma.l
    sig_up = _raise_first_two(sigma.entries)
    coeff = GaussianRational(0, Fraction(sigma.l + 1, sigma.l))
    comps: dict = {}
    for i, j in product(range(n), repeat=2):
        if not sig_up[i][j]:
            continue
        s_ij = clifford(i, clifford(j, phi))
        for k, m in product(range(n), repeat=2):
            if lo[k][m] and k != m:
                key, sign = _slot(k, m)
                scalar = gr_mul(coeff, sig_up[i][j] * lo[k][m] * sign)
                _add_into(comps, key, spinor_scale(s_ij, scalar))
    return SpinorForm(sigma.l, 2, phi.cap, comps)


def literal_p21_ricci(sigma, phi: PolySpinor) -> SpinorForm:
    """i sigma^{ij} e^k ∧ e^l (2 omega_il e_k.e_j. - (1/l) omega_kl e_i.e_j.) phi,
    one term per (i, j, k, l), summed over every entry of omega_lower."""
    lo = standard_symplectic_form(sigma.l).omega_lower
    n = 2 * sigma.l
    sig_up = _raise_first_two(sigma.entries)
    comps: dict = {}
    for i, j in product(range(n), repeat=2):
        c = sig_up[i][j]
        if not c:
            continue
        for k, m in product(range(n), repeat=2):
            if k == m:
                continue
            key, sign = _slot(k, m)
            if lo[i][m]:
                term = clifford(k, clifford(j, phi))
                scalar = GaussianRational(0, 2 * c * lo[i][m] * sign)
                _add_into(comps, key, spinor_scale(term, scalar))
            if lo[k][m]:
                term = clifford(i, clifford(j, phi))
                scalar = GaussianRational(0, -c * lo[k][m] * sign / sigma.l)
                _add_into(comps, key, spinor_scale(term, scalar))
    return SpinorForm(sigma.l, 2, phi.cap, comps)


def literal_p21_weyl(W, phi: PolySpinor) -> SpinorForm:
    """(2i/(1-l)) W^{ijk}_l e^m ∧ e^l ⊗ e_m.e_k.e_i.e_j.phi, one term per
    (i, j, k, m, l)."""
    n = 2 * W.l
    t = W.entries
    for slot in range(3):
        t = raise_lower_index(t, slot, "raise")
    coeff = GaussianRational(0, Fraction(2, 1 - W.l))
    comps: dict = {}
    for i, j, k in product(range(n), repeat=3):
        s3 = clifford(k, clifford(i, clifford(j, phi)))
        for m in range(n):
            s4 = clifford(m, s3)
            for mm in range(n):
                c = t[i][j][k][mm]
                if c and m != mm:
                    key, sign = _slot(m, mm)
                    _add_into(comps, key, spinor_scale(s4, gr_mul(coeff, c * sign)))
    return SpinorForm(W.l, 2, phi.cap, comps)


def project(which: str, phi: SpinorForm) -> SpinorForm:
    """The isotypic projectors, each built from its own calls to the
    package's X and the matrix Y above."""
    if which not in PROJECTORS:
        raise ValueError(f"unknown projector {which!r}")
    l = phi.l
    if which in ("p10", "p11"):
        p10 = _op_X(op_Y(phi)).scale(GaussianRational(0, Fraction(1, l)))
        return p10 if which == "p10" else phi - p10
    x2y2 = _op_X(_op_X(op_Y(op_Y(phi))))
    if which == "p20":
        return x2y2.scale(Fraction(1, l))
    p21 = (_op_X(op_Y(phi)) - x2y2.scale(GaussianRational(0, Fraction(1, l)))).scale(
        GaussianRational(0, Fraction(1, l - 1)))
    if which == "p21":
        return p21
    return phi - x2y2.scale(Fraction(1, l)) - p21


def check_symmetries(e) -> SymmetryReport:
    """Identities (A)-(D) on a rank-4 array, compared entry by entry as
    Fractions, first violations in lexicographic order."""
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
# Curvature tensors over Fractions
# ---------------------------------------------------------------------------


def _zero4(n):
    return [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def unchecked_tensor(l, entries) -> CurvatureTensor:
    """A CurvatureTensor of the rational rank-4 array `entries`, whose
    symmetries are not checked: for planting defects."""
    return _tensor(l, *_cleared(entries))


def poly_eval(p, point) -> Fraction:
    """The Poly p at `point`, term by term, each power a repeated product."""
    if len(point) != p.n:
        raise ValueError("point has wrong dimension")
    acc = Fraction(0)
    for alpha, c in p.terms.items():
        term = c
        for x, e in zip(point, alpha):
            for _ in range(e):
                term *= x
        acc += term
    return acc


def poly_lincomb(n: int, pairs) -> Poly:
    """sum c p over the (c, p) pairs, as a Poly in n variables."""
    terms: dict = {}
    for c, p in pairs:
        for alpha, x in p.terms.items():
            terms[alpha] = terms.get(alpha, 0) + (x if c == 1 else -x if c == -1 else c * x)
    return Poly(n, terms)


def poly_mul(p: Poly, q: Poly) -> Poly:
    """The product p q, summed term by term."""
    terms: dict = {}
    for a, x in p.terms.items():
        for b, y in q.terms.items():
            key = tuple(s + t for s, t in zip(a, b))
            terms[key] = terms.get(key, 0) + x * y
    return Poly(p.n, terms)


def poly_deriv(p: Poly, v: int) -> Poly:
    """d/dx_v of p."""
    return Poly(p.n, {a[:v] + (a[v] - 1,) + a[v + 1:]: a[v] * c
                      for a, c in p.terms.items() if a[v]})


def gamma_upper(conn) -> dict:
    """Gamma^m_jk = sum_i omega^{mi} Gamma_ijk as Polys, summed over every
    entry of omega_upper."""
    up = standard_symplectic_form(conn.l).omega_upper
    n = 2 * conn.l
    return {(m, j, k): poly_lincomb(n, [(up[m][i], conn.entry(i, j, k)) for i in range(n)
                                        if up[m][i]])
            for m, j, k in product(range(n), repeat=3)}


def check_connection_axioms(conn) -> ConnectionAxiomReport:
    """Zero torsion and nabla(omega) = 0 decided by building every difference
    of raised symbols: Gamma^m_jk - Gamma^m_kj, and
    Gamma^m_ki omega_mj + Gamma^m_kj omega_im = -nabla_k omega_ij summed over
    every entry of omega_lower."""
    lo = standard_symplectic_form(conn.l).omega_lower
    n = 2 * conn.l
    gu = gamma_upper(conn)
    torsion_ok, omega_ok = True, True
    violation, poly = None, None
    for m, j, k in product(range(n), repeat=3):
        if j < k:
            diff = poly_lincomb(n, [(1, gu[(m, j, k)]), (-1, gu[(m, k, j)])])
            if not diff.is_zero():
                torsion_ok = False
                if violation is None:
                    violation, poly = ("torsion", m, j, k), poly_to_json(diff)
    for k, i, j in product(range(n), repeat=3):
        acc = poly_lincomb(n, [pair for m in range(n)
                               for pair in ((lo[m][j], gu[(m, k, i)]), (lo[i][m], gu[(m, k, j)]))])
        if not acc.is_zero():
            omega_ok = False
            if violation is None:
                violation, poly = ("nabla-omega", k, i, j), poly_to_json(acc)
            break
    return ConnectionAxiomReport(torsion_ok, omega_ok, violation, poly)


def evaluate_curvature_at(conn, point) -> CurvatureTensor:
    """R_ijkl at `point` from the raised table of the connection and its
    `poly_deriv` partials, every value a Fraction:
    R^m_jkl = d_k Gamma^m_lj - d_l Gamma^m_kj + Gamma^m_ka Gamma^a_lj
    - Gamma^m_la Gamma^a_kj, lowered with the omega matrix."""
    lo = standard_symplectic_form(conn.l).omega_lower
    n = 2 * conn.l
    pt = [Fraction(x) for x in point]
    gamma = gamma_upper(conn)
    g = {idx: poly_eval(p, pt) for idx, p in gamma.items()}
    dg = {(v, *idx): poly_eval(poly_deriv(p, v), pt) for idx, p in gamma.items() for v in range(n)}
    out = _zero4(n)
    for m, j, k, mm in product(range(n), repeat=4):
        if k == mm:
            continue
        acc = dg[(k, m, mm, j)] - dg[(mm, m, k, j)]
        for a in range(n):
            acc += g[(m, k, a)] * g[(a, mm, j)] - g[(m, mm, a)] * g[(a, k, j)]
        for i in range(n):
            out[i][j][k][mm] += acc * lo[m][i]
    return unchecked_tensor(conn.l, out)


def sigma_tilde_of(sigma) -> CurvatureTensor:
    """(omega_il s_jk - omega_ik s_jl + omega_jl s_ik - omega_jk s_il
    + 2 s_ij omega_kl) / (2(l+1)), summed over every entry of omega."""
    lo = standard_symplectic_form(sigma.l).omega_lower
    s = sigma.entries
    n = 2 * sigma.l
    out = _zero4(n)
    for i, j, k, m in product(range(n), repeat=4):
        out[i][j][k][m] = (lo[i][m] * s[j][k] - lo[i][k] * s[j][m] + lo[j][m] * s[i][k]
                           - lo[j][k] * s[i][m] + 2 * s[i][j] * lo[k][m]) / (2 * (sigma.l + 1))
    return unchecked_tensor(sigma.l, out)


def omega_traces(R) -> dict:
    """The six contractions R^{ijkl} omega_(pair) of the fully raised tensor,
    each summed over every entry of omega_lower."""
    lo = standard_symplectic_form(R.l).omega_lower
    n = 2 * R.l
    t = R.entries
    for slot in range(4):
        t = raise_lower_index(t, slot, "raise")
    out = {}
    for s, u in combinations(range(4), 2):
        free = [p for p in range(4) if p not in (s, u)]
        mat = [[Fraction(0)] * n for _ in range(n)]
        for idx in product(range(n), repeat=4):
            w = lo[idx[s]][idx[u]]
            if w:
                mat[idx[free[0]]][idx[free[1]]] += w * t[idx[0]][idx[1]][idx[2]][idx[3]]
        out[(s, u)] = mat
    return out


def trace_rows(n: int, index) -> list:
    """The rows of the six omega-trace conditions on lowered coordinates, as
    `curvature._trace_rows` built them with their own index walk: for each
    slot pair (s, t) and free indices (u, v), the signed sum over a of the
    coordinate at a, a* in slots s, t."""
    partners = omega_partners(n // 2)
    rows = []
    for s, t in combinations(range(4), 2):
        free = [p for p in range(4) if p not in (s, t)]
        for u in range(n):
            for v in range(n):
                row: dict = {}
                for a, (b, w) in enumerate(partners):
                    idx = [0, 0, 0, 0]
                    idx[s], idx[t] = a, b
                    idx[free[0]], idx[free[1]] = u, v
                    r = _resolve(index, *idx)
                    if r is None:
                        continue
                    var, sign = r
                    val = row.get(var, Fraction(0)) + w * sign
                    if val:
                        row[var] = val
                    else:
                        row.pop(var, None)
                if row:
                    rows.append(row)
    return rows


def next_int(stream: RandomStream, lo: int, hi: int) -> int:
    """`stream.next_int(lo, hi)` composed of `next_u64`, which calls `_mix64`."""
    if hi < lo:
        raise ValueError("empty range")
    return lo + stream.next_u64() % (hi - lo + 1)


def exponents(n: int, budget: int) -> list:
    """The exponent tuples of n variables of total degree <= budget, in
    lexicographic order, rebuilt on every call."""
    if n == 1:
        return [(e,) for e in range(budget + 1)]
    return [(e, *rest) for e in range(budget + 1) for rest in exponents(n - 1, budget - e)]


def random_poly(n: int, degree: int, stream: RandomStream, bound: int = 3) -> Poly:
    """The polynomial sampler over `next_fraction` draws, built through the
    public constructor."""
    terms = {}
    for alpha in exponents(n, degree):
        c = stream.next_fraction(bound)
        if c:
            terms[alpha] = c
    return Poly(n, terms)


def random_gamma(l: int, degree: int, seed: int, bound: int = 3) -> dict:
    """The connection sampler's Christoffel symbols as Polys, one per ordered
    triple: one draw per sorted triple, shared by its permutations."""
    n = 2 * l
    stream = RandomStream(seed)
    gamma = {}
    for idx in combinations_with_replacement(range(n), 3):
        p = random_poly(n, degree, stream, bound)
        for perm in permutations(idx):
            gamma[perm] = p
    return gamma


def random_connection(l: int, degree: int, seed: int, bound: int = 3) -> PolynomialConnection:
    """The connection sampler, built and checked through the public constructor."""
    return PolynomialConnection(l, degree, random_gamma(l, degree, seed, bound))


def random_combination(l: int, basis, stream: RandomStream, bound: int):
    """(num, den) of a random combination of a constraint-space basis, summed
    in Fractions from `next_fraction` draws and cleared at the end."""
    acc: dict[int, Fraction] = {}
    for _, vec in basis:
        c = stream.next_fraction(bound)
        if not c:
            continue
        for var, coeff in vec.items():
            val = acc.get(var, Fraction(0)) + c * coeff
            if val:
                acc[var] = val
            else:
                acc.pop(var, None)
    den = lcm(*(x.denominator for x in acc.values()))
    ints = {var: x.numerator * (den // x.denominator) for var, x in acc.items()}
    return _expand_var_vector(l, basis[0][0] if basis else None, ints), den


def random_spinor(l, degree, cap, stream: RandomStream, terms=6, bound=5) -> PolySpinor:
    """The sampler summed over `next_gaussian` draws and built through the
    public constructor."""
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


def graded_basis(l: int, r: int, degree: int, cap: int) -> list[SpinorForm]:
    """Basis of Lambda^r ⊗ (spinors of exact total degree `degree`)."""
    def monomials(vars_left, total):
        if vars_left == 1:
            yield (total,)
            return
        for e in range(total + 1):
            for rest in monomials(vars_left - 1, total - e):
                yield (e,) + rest

    return [SpinorForm(l, r, cap, {tup: PolySpinor.monomial(l, cap, alpha)})
            for tup in combinations(range(2 * l), r) for alpha in monomials(l, degree)]


def graded_projector_rank(which: str, l: int, degree: int) -> int:
    """Exact rank of the package's projector on the exact-degree graded piece:
    each image of a graded basis element is one sparse row, keyed by the
    (tuple, monomial) pairs it occupies, and the rank of those rows is the
    projector's rank."""
    cap = degree + 8
    r = 1 if which in ("p10", "p11") else 2
    images = [_project(which, b) for b in graded_basis(l, r, degree, cap)]
    columns: dict[tuple, int] = {}
    rows = [
        {columns.setdefault((tup, alpha), len(columns)): c
         for tup, s in img.components.items() for alpha, c in s.coeffs.items()}
        for img in images
    ]
    return len(columns) - len(nullspace_basis(rows, len(columns)))
