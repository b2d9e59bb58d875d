"""The standard symplectic vector space and its index conventions.

Everything works in the Darboux basis of R^{2l} (0-based internally, 1-based
only in formatted output).  There omega is one signed swap, the partner map

    i  |->  (i + l, +1)   for i < l,
    i  |->  (i - l, -1)   for i >= l,

read as: omega_{i i*} = omega^{i i*} = s_i for the partner (i*, s_i) of i,
and every other entry of either index form is 0.  The two index forms are
equal, and each is its own inverse up to sign; `standard_symplectic_form`
materializes them as matrices for callers that want to see omega written out,
and every contraction in the package goes through `omega_partners` instead.

Raising and lowering contract against omega in a fixed slot order:

    raise slot:  T'[.., i, ..] = sum_c omega^{ic} T[.., c, ..] =  s_i T[.., i*, ..]
    lower slot:  T'[.., i, ..] = sum_t T[.., t, ..] omega_{ti} = -s_i T[.., i*, ..]

The two operations are mutually inverse; a round-trip test and the Ricci
trace identity downstream pin the sign of this choice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "SymplecticSpace",
    "omega_partners",
    "standard_symplectic_form",
    "raise_lower_index",
]


@lru_cache(maxsize=None)
def omega_partners(l: int) -> tuple[tuple[int, int], ...]:
    """The partner map: entry i is (i*, s_i) with omega_{i i*} = s_i = +-1."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return tuple((i + l, 1) if i < l else (i - l, -1) for i in range(2 * l))


class SymplecticSpace:
    """(R^{2l}, omega) with both index forms of omega written out as matrices.

    Instances are immutable; the matrices are shared and must not be written.
    """

    __slots__ = ("l", "n", "omega_lower", "omega_upper")

    def __init__(self, l: int):
        n = 2 * l
        lower = [[Fraction(0)] * n for _ in range(n)]
        for i, (j, sign) in enumerate(omega_partners(l)):
            lower[i][j] = Fraction(sign)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "omega_lower", lower)
        object.__setattr__(self, "omega_upper", lower)

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticSpace is immutable")

    def __repr__(self):
        return f"SymplecticSpace(l={self.l})"


@lru_cache(maxsize=None)
def standard_symplectic_form(l: int) -> SymplecticSpace:
    """Standard Darboux form on R^{2l}; cached, so callers share one instance."""
    return SymplecticSpace(l)


def raise_lower_index(tensor, slot: int, direction: str):
    """Raise or lower one index slot of a dense multi-index array of side 2l.

    Entries may be Fraction or GaussianRational; each output entry is an input
    entry or its negation.  `direction` is "raise" or "lower".
    """
    if direction not in ("raise", "lower"):
        raise ValueError("direction must be 'raise' or 'lower'")
    n = len(tensor)
    if n < 2 or n % 2:
        raise ValueError("tensor dimensions must all equal 2l")
    rank, node = 0, tensor
    while isinstance(node, list):
        if len(node) != n:
            raise ValueError("tensor dimensions must all equal 2l")
        rank, node = rank + 1, node[0]
    if not (0 <= slot < rank):
        raise ValueError(f"slot {slot} out of range for rank-{rank} tensor")
    flip = -1 if direction == "lower" else 1
    pairs = [(j, sign * flip) for j, sign in omega_partners(n // 2)]

    def swap(node, depth, sign):
        if depth == rank:
            return node if sign > 0 else -node
        if len(node) != n:
            raise ValueError("tensor dimensions must all equal 2l")
        if depth == slot:
            return [swap(node[j], depth + 1, sign * s) for j, s in pairs]
        return [swap(child, depth + 1, sign) for child in node]

    return swap(tensor, 0, 1)
