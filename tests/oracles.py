"""Reference implementations for the tests, written against the explicit omega
matrices of `standard_symplectic_form`.

The package contracts with omega only through the partner map of
`sympspin.symplectic`; these copies sum over the written-out matrices
instead, so a test comparing the two catches a defect in either.
"""

from fractions import Fraction
from itertools import product

from sympspin.forms import SpinorForm, _accumulate
from sympspin.spinors import PolySpinor, SpLieElement, clifford_basis
from sympspin.symplectic import standard_symplectic_form


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


def op_Y(phi: SpinorForm) -> SpinorForm:
    """Y = sum_ij omega_upper[i][j] (iota_{e_i} .) ⊗ e_j., summed over the matrix."""
    l = phi.l
    if phi.r == 0:
        return SpinorForm.zero(l, 0, phi.cap)
    upper = standard_symplectic_form(l).omega_upper
    out = {}
    for tup, s in phi.components.items():
        for pos, i in enumerate(tup):
            reduced = tup[:pos] + tup[pos + 1:]
            contraction_sign = 1 if pos % 2 == 0 else -1
            for j in range(2 * l):
                w = upper[i][j]
                if w:
                    term = clifford_basis(j, s).scale(w * contraction_sign)
                    if not term.is_zero():
                        _accumulate(out, reduced, term)
    return SpinorForm(l, phi.r - 1, phi.cap, out)
