import random
from fractions import Fraction

import pytest

from mpmath import mp

from weightedgen.numerics import (HARMONIC_EXACT_LIMIT, harmonic, one_minus_pow,
                                  rational_from_real, substream_seed)
from helpers import below


def test_one_minus_pow_small_exact():
    p = Fraction(1, 3)
    assert one_minus_pow(p, 0) == 0
    assert one_minus_pow(p, 2) == Fraction(5, 9)
    assert one_minus_pow(Fraction(1), 5) == 1


def test_one_minus_pow_float_matches_exact():
    p = Fraction(3, 7)
    exact = one_minus_pow(p, 40, exact=True)
    approx = one_minus_pow(p, 40, exact=False)
    assert abs(float(exact) - float(approx)) < 1e-15


def test_one_minus_pow_tiny_p_no_cancellation():
    p = Fraction(1, 10 ** 20)
    v = one_minus_pow(p, 1000, exact=False)
    # 1 - (1-p)^k ~ k*p for k*p << 1
    assert abs(float(v) / (1000 * 1e-20) - 1) < 1e-12


def test_harmonic_variants_agree():
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(0) == 0
    assert harmonic(5, 2) == Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 5)
    # the binary splitting gives the Fractions of the term-by-term sum
    for hi, lo in ((HARMONIC_EXACT_LIMIT, 4990), (HARMONIC_EXACT_LIMIT, 0),
                   (HARMONIC_EXACT_LIMIT, 4000), (7, 7), (HARMONIC_EXACT_LIMIT,) * 2):
        assert harmonic(hi, lo) == sum((Fraction(1, j) for j in range(lo + 1, hi + 1)),
                                       Fraction(0))
    big = harmonic(10 ** 15 + 10, 10 ** 15)
    assert abs(float(big) - 10 / 10 ** 15) < 1e-25
    # lo <= HARMONIC_EXACT_LIMIT < hi takes the float route, within 10^-39 * H_hi
    for hi, lo in ((HARMONIC_EXACT_LIMIT + 1, 0), (HARMONIC_EXACT_LIMIT + 10, 4990)):
        value = harmonic(hi, lo)
        assert isinstance(value, mp.mpf)
        with mp.workdps(60):
            oracle = mp.fsum(mp.mpf(1) / j for j in range(lo + 1, hi + 1))
            h_hi = mp.fsum(mp.mpf(1) / j for j in range(1, hi + 1))
            assert abs(value - oracle) <= mp.mpf(10) ** -39 * h_hi
    for hi, lo in ((-1, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError, match="lo <= hi"):
            harmonic(hi, lo)


def test_rational_from_real_precision():
    w = rational_from_real(2.0 ** 0.5, 12)
    assert abs(float(w) - 2 ** 0.5) < 1e-11
    assert rational_from_real(0, 30) == 0


def test_substream_seeds_distinct_and_stable():
    a = substream_seed(123)
    assert a == substream_seed(123)
    assert substream_seed(124) != a


def test_one_minus_pow_rejects_negative_k():
    with pytest.raises(ValueError):
        one_minus_pow(Fraction(1, 2), -1)


def test_one_minus_pow_policy_boundary_continuity():
    # forcing either policy around the automatic threshold gives the same
    # number to well below the documented 1e-12
    p = Fraction(12345, 99991)
    for k in (997, 1000, 5000):
        exact = one_minus_pow(p, k, exact=True)
        approx = one_minus_pow(p, k, exact=False)
        assert abs(float(exact) - float(approx)) < 1e-15


# 3^5700 has 9035 bits, near the draw bounds of RNA structures of length 100
@pytest.mark.parametrize("n", [1, 2, 3, 2 ** 10, 2 ** 10 + 1, 2 ** 64, 2 ** 64 + 1,
                               3 ** 5700])
def test_below_draws_what_randrange_draws(n):
    for seed in range(4):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [below(ours.getrandbits, n) for _ in range(40)] == \
            [theirs.randrange(n) for _ in range(40)]
        assert ours.getstate() == theirs.getstate()
