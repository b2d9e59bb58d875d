"""The standard symplectic vector space and its index conventions.

Basis convention (0-based internally, 1-based only in formatted output):
omega_lower[i][j] = +1 iff i < l and j = i + l, -1 iff i >= l and j = i - l,
0 otherwise.  The inverse matrix omega_upper is defined by

    sum_k omega_lower[i][k] * omega_upper[j][k] = delta(i, j)

and is itself antisymmetric.

Raising and lowering contract against omega in a fixed slot order:

    raise slot:  T'[.., i, ..] = sum_c omega_upper[i][c] * T[.., c, ..]
    lower slot:  T'[.., i, ..] = sum_t T[.., t, ..] * omega_lower[t][i]

The two operations are mutually inverse; a round-trip test and the Ricci
trace identity downstream pin the sign of this choice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

__all__ = [
    "SymplecticSpace",
    "standard_symplectic_form",
    "raise_lower_index",
    "omega_pairing",
]

F0 = Fraction(0)
F1 = Fraction(1)


class SymplecticSpace:
    """(R^{2l}, omega) with both index forms of omega cached.

    Instances are immutable; the matrices are shared and must not be written.
    """

    __slots__ = ("l", "n", "omega_lower", "omega_upper")

    def __init__(self, l: int, omega_lower: list[list[Fraction]], omega_upper: list[list[Fraction]]):
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "n", 2 * l)
        object.__setattr__(self, "omega_lower", omega_lower)
        object.__setattr__(self, "omega_upper", omega_upper)
        _check_space(self)

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticSpace is immutable")

    def __repr__(self):
        return f"SymplecticSpace(l={self.l})"


def _check_space(space: SymplecticSpace) -> None:
    n = space.n
    lo, up = space.omega_lower, space.omega_upper
    for i in range(n):
        for j in range(n):
            if lo[i][j] != -lo[j][i] or up[i][j] != -up[j][i]:
                raise ValueError("omega matrices must be antisymmetric")
            s = sum(lo[i][k] * up[j][k] for k in range(n))
            if s != (F1 if i == j else F0):
                raise ValueError("omega_upper does not invert omega_lower")


@lru_cache(maxsize=None)
def standard_symplectic_form(l: int) -> SymplecticSpace:
    """Standard Darboux form on R^{2l}; cached, so callers share one instance."""
    if l < 1:
        raise ValueError("l must be >= 1")
    n = 2 * l
    lower = [[F0] * n for _ in range(n)]
    for i in range(l):
        lower[i][i + l] = F1
        lower[i + l][i] = -F1
    # In the Darboux basis omega_upper equals omega_lower; _check_space verifies it.
    upper = [row[:] for row in lower]
    return SymplecticSpace(l, lower, upper)


def _tensor_shape(tensor) -> list[int]:
    shape = []
    node = tensor
    while isinstance(node, list):
        shape.append(len(node))
        node = node[0]
    return shape


def _get(tensor, idx):
    node = tensor
    for i in idx:
        node = node[i]
    return node


def _build(shape, fill):
    if not shape:
        return fill()
    return [_build(shape[1:], fill) for _ in range(shape[0])]


def _set(tensor, idx, value):
    node = tensor
    for i in idx[:-1]:
        node = node[i]
    node[idx[-1]] = value


def raise_lower_index(tensor, slot: int, direction: str, space: SymplecticSpace):
    """Raise or lower one index slot of a dense multi-index array.

    Entries may be Fraction or GaussianRational; the result reuses the entry
    type.  `direction` is "raise" or "lower".
    """
    shape = _tensor_shape(tensor)
    rank = len(shape)
    if not (0 <= slot < rank):
        raise ValueError(f"slot {slot} out of range for rank-{rank} tensor")
    n = space.n
    if any(d != n for d in shape):
        raise ValueError("tensor dimensions must all equal 2l")
    if direction == "raise":
        coeff = space.omega_upper            # coeff[out][bound]
    elif direction == "lower":
        coeff = [[space.omega_lower[t][i] for t in range(n)] for i in range(n)]
    else:
        raise ValueError("direction must be 'raise' or 'lower'")
    sample = _get(tensor, tuple(0 for _ in range(rank)))
    zero = sample * 0
    out = _build(shape, lambda: zero)
    for idx in product(range(n), repeat=rank):
        acc = zero
        i = idx[slot]
        row = coeff[i]
        for c in range(n):
            w = row[c]
            if not w:
                continue
            src = idx[:slot] + (c,) + idx[slot + 1:]
            val = _get(tensor, src)
            if val:
                acc = acc + val * w
        _set(out, idx, acc)
    return out


def omega_pairing(space: SymplecticSpace, u, v):
    """omega(u, v) = sum_{ij} omega_lower[i][j] u[i] v[j]."""
    n = space.n
    if len(u) != n or len(v) != n:
        raise ValueError("vectors must have length 2l")
    acc = u[0] * v[0] * 0
    for i in range(n):
        ui = u[i]
        if not ui:
            continue
        row = space.omega_lower[i]
        for j in range(n):
            w = row[j]
            if not w or not v[j]:
                continue
            acc = acc + ui * v[j] * w
    return acc
