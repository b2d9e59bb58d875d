"""The standard symplectic form and the raising/lowering conventions."""

from fractions import Fraction

import pytest

import oracles
from sympspin.exact import GaussianRational, RandomStream
from sympspin.symplectic import omega_partners, raise_lower_index, standard_symplectic_form

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
    with pytest.raises(ValueError):
        omega_partners(0)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_partner_map_is_the_only_nonzero_entry_of_each_row(l):
    space = standard_symplectic_form(l)
    for i, (j, sign) in enumerate(omega_partners(l)):
        assert omega_partners(l)[j] == (i, -sign)        # an involution, antisymmetric
        for m in range(2 * l):
            expected = F(sign) if m == j else F(0)
            assert space.omega_lower[i][m] == expected
            assert space.omega_upper[i][m] == expected


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
    stream = RandomStream(1000 * l + 10 * rank + slot)
    t = _random_tensor(2 * l, rank, stream)
    up = raise_lower_index(t, slot, "raise")
    back = raise_lower_index(up, slot, "lower")
    assert back == t
    down = raise_lower_index(t, slot, "lower")
    assert raise_lower_index(down, slot, "raise") == t


def test_zero_tensor_maps_to_zero():
    z = [[F(0)] * 4 for _ in range(4)]
    assert raise_lower_index(z, 0, "raise") == z


def test_lowering_delta_gives_omega_transpose():
    # K^i_j = delta: lowering the first slot contracts K^t_j omega_{ti} = omega_{ji}
    delta = [[F(1), F(0)], [F(0), F(1)]]
    lowered = raise_lower_index(delta, 0, "lower")
    assert lowered == [[F(0), F(-1)], [F(1), F(0)]]


def test_slot_out_of_range():
    with pytest.raises(ValueError):
        raise_lower_index([[F(1), F(0)], [F(0), F(1)]], 2, "raise")


def test_omega_pairing_matches_matrix():
    u = [F(1), F(0), F(0), F(0)]
    v = [F(0), F(0), F(1), F(0)]
    assert oracles.omega_pairing(2, u, v) == F(1)
    assert oracles.omega_pairing(2, v, u) == F(-1)
    assert oracles.omega_pairing(2, u, u) == F(0)
    # omega(u, v) = sum_i s_i u^i v^{i*} through the partner map
    stream = RandomStream(17)
    for l in (1, 2, 3):
        u = [stream.next_fraction(5) for _ in range(2 * l)]
        v = [stream.next_fraction(5) for _ in range(2 * l)]
        swapped = sum(s * u[i] * v[j] for i, (j, s) in enumerate(omega_partners(l)))
        assert swapped == oracles.omega_pairing(l, u, v)


# ---------------------------------------------------------------------------
# The signed swap against the matrix sum
# ---------------------------------------------------------------------------


def _random_gaussian_tensor(n, rank, stream):
    if rank == 1:
        return [GaussianRational(stream.next_fraction(5), stream.next_fraction(5))
                for _ in range(n)]
    return [_random_gaussian_tensor(n, rank - 1, stream) for _ in range(n)]


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("entries", ["fraction", "gaussian"])
def test_swap_matches_the_matrix_sum(l, entries):
    make = _random_tensor if entries == "fraction" else _random_gaussian_tensor
    for rank in (1, 2, 3, 4):
        stream = RandomStream(100 * l + rank)
        t = make(2 * l, rank, stream)
        for slot in range(rank):
            for direction in ("raise", "lower"):
                assert raise_lower_index(t, slot, direction) == \
                    oracles.raise_lower_index(t, slot, direction), (rank, slot, direction)


def test_bad_direction_and_shape_rejected():
    with pytest.raises(ValueError, match="direction"):
        raise_lower_index([F(1), F(0)], 0, "sideways")
    with pytest.raises(ValueError, match="2l"):
        raise_lower_index([F(1), F(0), F(0)], 0, "raise")
    for slot in (0, 1):
        with pytest.raises(ValueError, match="2l"):
            raise_lower_index([[F(1), F(0)], [F(0)]], slot, "raise")
