"""The samplers draw straight into integers, and draw what the Fraction
samplers in `oracles` draw.

`random_curvature` and `random_weyl` read each coefficient as the two
`next_int` draws of `next_fraction` and sum the int basis vectors over the
lcm of the drawn denominators; `random_spinor` reads each coefficient as the
four draws of `next_gaussian` and sums Gaussian integers under packed keys.
Both must make the same stream calls in the same order as the oracles, so
every draw is bit-identical.
"""

import pytest

import oracles
from sympspin.curvature import (
    curvature_space_basis,
    random_curvature,
    random_weyl,
    weyl_space_basis,
)
from sympspin.exact import RandomStream
from sympspin.spinors import MAX_CAP, PolySpinor, random_spinor

SEEDS = range(50)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_integer_curvature_draws_match_the_fraction_oracle(l):
    for seed in SEEDS:
        for sample, basis in ((random_curvature, curvature_space_basis(l)),
                              (random_weyl, weyl_space_basis(l))):
            T = sample(l, seed)
            num, den = oracles.random_combination(l, basis, RandomStream(seed), 9)
            assert (T.num, T.den) == (num, den), (sample.__name__, seed)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_integer_spinor_draws_match_the_fraction_oracle(l):
    for seed in SEEDS:
        ours, theirs = RandomStream(seed), RandomStream(seed)
        for degree in range(7):
            s = random_spinor(l, degree, degree + 2, ours)
            expected = oracles.random_spinor(l, degree, degree + 2, theirs)
            assert s == expected, (seed, degree)
            assert list(s.num) == list(expected.num)      # the same key order
        assert ours.next_u64() == theirs.next_u64()      # the same number of draws


class _Scripted(RandomStream):
    """A stream whose `next_int` returns the scripted values in order;
    `next_fraction` and `next_gaussian` draw through it as they always do."""

    def __init__(self, values):
        self.values = list(values)

    def next_int(self, lo, hi):
        x = self.values.pop(0)
        assert lo <= x <= hi
        return x


# l = 1, degree 1: each term draws the degree budget, the exponent and then
# (re, re_den, im, im_den).  The first two terms put 2/3 and -2/3 on x, and
# the third draws 0 + 0i on 1, which becomes 1.
_CANCELLING = [1, 1, 2, 3, 0, 1,
               1, 1, -2, 3, 0, 1,
               0, 0, 0, 4, 0, 5]


@pytest.mark.parametrize("sampler", [random_spinor, oracles.random_spinor])
def test_a_cancelled_monomial_and_a_zero_draw(sampler):
    stream = _Scripted(_CANCELLING)
    s = sampler(1, 1, 3, stream, terms=3)
    assert stream.values == []
    assert s == PolySpinor.one(1, 3)
    assert s.den == 1


def test_random_spinor_keeps_the_constructor_checks():
    stream = RandomStream(1)
    for args in ((0, 1, 2), (2, 1, MAX_CAP + 1), (2, 1, -1), (2, 3, 2)):
        with pytest.raises(ValueError):
            random_spinor(*args, stream)
