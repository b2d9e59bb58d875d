"""The standard symplectic form and the raising/lowering conventions."""

from fractions import Fraction

import pytest

from sympspin.exact import RandomStream
from sympspin.symplectic import (
    SymplecticSpace,
    omega_pairing,
    raise_lower_index,
    standard_symplectic_form,
)

F = Fraction


def test_standard_form_l1():
    space = standard_symplectic_form(1)
    assert space.omega_lower == [[F(0), F(1)], [F(-1), F(0)]]
    # hand solution of the defining relation for l = 1
    assert space.omega_upper == [[F(0), F(1)], [F(-1), F(0)]]


def test_standard_form_l2_pattern():
    space = standard_symplectic_form(2)
    lo = space.omega_lower
    nonzero = {(i, j): lo[i][j] for i in range(4) for j in range(4) if lo[i][j]}
    assert nonzero == {(0, 2): F(1), (1, 3): F(1), (2, 0): F(-1), (3, 1): F(-1)}


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_omega_matrices_antisymmetric_and_inverse(l):
    space = standard_symplectic_form(l)
    n = 2 * l
    for i in range(n):
        for j in range(n):
            assert space.omega_lower[i][j] == -space.omega_lower[j][i]
            assert space.omega_upper[i][j] == -space.omega_upper[j][i]
            s = sum(space.omega_lower[i][k] * space.omega_upper[j][k] for k in range(n))
            assert s == (F(1) if i == j else F(0))


def test_zero_l_rejected():
    with pytest.raises(ValueError):
        standard_symplectic_form(0)


def test_omega_inverse_rejects_singular():
    # no omega_upper inverts a singular omega_lower
    zero = [[F(0), F(0)], [F(0), F(0)]]
    with pytest.raises(ValueError, match="does not invert"):
        SymplecticSpace(1, zero, [row[:] for row in zero])
    # nor may an antisymmetric omega_upper that is not the inverse stand
    lower = standard_symplectic_form(1).omega_lower
    with pytest.raises(ValueError, match="does not invert"):
        SymplecticSpace(1, lower, [[F(0), F(2)], [F(-2), F(0)]])


def test_omega_inverse_rejects_nonantisymmetric():
    identity = [[F(1), F(0)], [F(0), F(1)]]
    with pytest.raises(ValueError, match="antisymmetric"):
        SymplecticSpace(1, identity, [row[:] for row in identity])


# ---------------------------------------------------------------------------
# Raising and lowering
# ---------------------------------------------------------------------------


def _random_tensor(n, rank, stream):
    if rank == 1:
        return [stream.next_fraction(5) for _ in range(n)]
    return [_random_tensor(n, rank - 1, stream) for _ in range(n)]


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("rank,slot", [(1, 0), (2, 0), (2, 1), (3, 2)])
def test_raise_then_lower_round_trip(l, rank, slot):
    space = standard_symplectic_form(l)
    stream = RandomStream(1000 * l + 10 * rank + slot)
    t = _random_tensor(2 * l, rank, stream)
    up = raise_lower_index(t, slot, "raise", space)
    back = raise_lower_index(up, slot, "lower", space)
    assert back == t
    down = raise_lower_index(t, slot, "lower", space)
    assert raise_lower_index(down, slot, "raise", space) == t


def test_zero_tensor_maps_to_zero():
    space = standard_symplectic_form(2)
    z = [[F(0)] * 4 for _ in range(4)]
    assert raise_lower_index(z, 0, "raise", space) == z


def test_lowering_delta_gives_omega_transpose():
    # K^i_j = delta: lowering the first slot contracts K^t_j omega_{ti} = omega_{ji}
    space = standard_symplectic_form(1)
    delta = [[F(1), F(0)], [F(0), F(1)]]
    lowered = raise_lower_index(delta, 0, "lower", space)
    assert lowered == [[F(0), F(-1)], [F(1), F(0)]]


def test_slot_out_of_range():
    space = standard_symplectic_form(1)
    with pytest.raises(ValueError):
        raise_lower_index([[F(1), F(0)], [F(0), F(1)]], 2, "raise", space)


def test_omega_pairing_matches_matrix():
    space = standard_symplectic_form(2)
    u = [F(1), F(0), F(0), F(0)]
    v = [F(0), F(0), F(1), F(0)]
    assert omega_pairing(space, u, v) == F(1)
    assert omega_pairing(space, v, u) == F(-1)
    assert omega_pairing(space, u, u) == F(0)
