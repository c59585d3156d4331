"""Shared numeric helpers: exact rationals, high-precision floats, and
harmonic numbers from `harmonic`, whose default route reads
HARMONIC_EXACT_LIMIT (as does `urns.xi_estimate`, to take one route for all
its terms)."""

from __future__ import annotations

import hashlib
import math
import sys
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from mpmath import mp

# Default RNG seed used by the sampler, the simulator and the CLI whenever the
# caller does not supply one.  Arbitrary but fixed, so identical invocations
# reproduce byte-identical output.
DEFAULT_SEED = 123456789

# Bit-size budget for an exactly computed (1-p)^k.  Beyond it the occupancy
# formulas switch to the double-precision pass urns.occupancy, within a
# relative urns.OCCUPANCY_REL_ERROR = 12 * 2^-53 (1.3e-15) of the exact value.
EXACT_POW_BIT_LIMIT = 200_000

# Largest m for which `harmonic` keeps harmonic numbers as exact fractions by
# default.  H_m has a denominator of roughly e^m, so this is a hard practical wall.
HARMONIC_EXACT_LIMIT = 5_000

FLOAT_DPS = 40

# Python's default int-digit limit, which already refuses a longer `num/den`
# weight literal; decimal weights are held to it by `decimal_fraction`
MAX_WEIGHT_DIGITS = 4300


@contextmanager
def _unlimited_digits():
    """Lift Python's int-to-str digit limit inside the block, restoring it
    after.  The limit guards the parsing of input text (`grammar` relies on
    it to refuse a longer `num/den` weight); an exact int or Fraction turned
    into output text may have any number of digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def to_mpf(x):
    """Convert int/Fraction/float to an mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def decimal_fraction(text: str) -> Fraction:
    """The decimal literal `text` as a Fraction, refused with a ValueError
    unless it is finite and its numerator and denominator have at most
    MAX_WEIGHT_DIGITS digits, before any integer is built (`1e999999999`
    would hang)."""
    try:
        dec = Decimal(text)
        _, digits, exp = dec.as_tuple()
    except InvalidOperation:
        exp = None
    if not isinstance(exp, int) or max(len(digits) + max(exp, 0),
                                       1 - min(exp, 0)) > MAX_WEIGHT_DIGITS:
        raise ValueError(f"{text} is not a finite decimal of at most "
                         f"{MAX_WEIGHT_DIGITS} digits")
    return Fraction(dec)


def rational_from_real(x, sig_digits: int = 30) -> Fraction:
    """Round a real number to a rational with `sig_digits` significant digits,
    held to `decimal_fraction`'s limits."""
    with mp.workdps(sig_digits + 10):
        v = mp.mpf(x)
        if v == 0:
            return Fraction(0)
        s = mp.nstr(v, sig_digits)
    return decimal_fraction(s)


def collision_plug_in(alpha_2):
    """The plug-in first-collision time sqrt(pi / (2 * alpha_2)) of a
    distribution with second moment alpha_2, as a 50-digit mpf."""
    with mp.workdps(50):
        return mp.sqrt(mp.pi / (2 * to_mpf(alpha_2)))


def _ratio_pow_affordable(num: int, den: int, k: int) -> bool:
    """Whether (1 - num/den)^k fits the bit-size budget of the exact route:
    with g = gcd(num, den), 1 - num/den is (den - num)/g over den/g in lowest
    terms."""
    g = math.gcd(num, den)
    return k * (((den - num) // g).bit_length() + (den // g).bit_length()) \
        <= EXACT_POW_BIT_LIMIT


def one_minus_pow(p: Fraction, k: int, exact: bool | None = None):
    """1 - (1-p)^k, exactly when affordable (or when forced via `exact`).

    The float fallback evaluates -expm1(k*log1p(-p)) at 40 decimal digits,
    which is free of the cancellation the naive difference would suffer for
    tiny p.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Fraction(0)
    base = 1 - p
    if base == 0:
        return Fraction(1)
    if exact is None:
        exact = _ratio_pow_affordable(p.numerator, p.denominator, k)
    if exact:
        return 1 - base ** k
    with mp.workdps(FLOAT_DPS):
        return -mp.expm1(k * mp.log1p(to_mpf(-p)))


def harmonic(hi: int, lo: int = 0, *, exact: bool | None = None):
    """H_hi - H_lo for 0 <= lo <= hi: an exact Fraction, or a 40-digit mpf
    (mpmath's digamma-based H, valid for astronomically large hi) within an
    absolute 10^-39 * H_hi.  `exact` picks the route; by default it is the
    Fraction up to hi = HARMONIC_EXACT_LIMIT."""
    if not 0 <= lo <= hi:
        raise ValueError(f"harmonic difference needs 0 <= lo <= hi, got {lo}, {hi}")
    if exact is None:
        exact = hi <= HARMONIC_EXACT_LIMIT
    if exact:
        return Fraction(*_harmonic_split(lo, hi)) if lo < hi else Fraction(0)
    with mp.workdps(FLOAT_DPS):
        return mp.harmonic(to_mpf(hi)) - (mp.harmonic(to_mpf(lo)) if lo else 0)


def _harmonic_split(lo: int, hi: int) -> tuple:
    """(P, Q) with P / Q = sum of 1/j over lo < j <= hi and Q = hi! / lo!, by
    splitting the range in halves, so the one gcd is taken at the end."""
    if hi - lo == 1:
        return 1, hi
    mid = (lo + hi) // 2
    p1, q1 = _harmonic_split(lo, mid)
    p2, q2 = _harmonic_split(mid, hi)
    return p1 * q2 + p2 * q1, q1 * q2


def substream_seed(seed: int) -> int:
    """Derive a deterministic, well-mixed sub-seed from a user seed."""
    digest = hashlib.sha256(f"{seed}:0".encode()).digest()
    return int.from_bytes(digest[:8], "big")

