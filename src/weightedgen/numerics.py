"""Shared numeric helpers: exact rationals, high-precision floats, harmonic numbers."""

from __future__ import annotations

import hashlib
import math
from decimal import Decimal
from fractions import Fraction

from mpmath import mp

# Default RNG seed used by the sampler, the simulator and the CLI whenever the
# caller does not supply one (overridable via the WCFG_SEED environment variable
# in the CLI).  Arbitrary but fixed, so identical invocations reproduce byte-
# identical output.
DEFAULT_SEED = 123456789

# Bit-size budget for an exactly computed (1-p)^k.  Beyond it the occupancy
# formulas switch to high-precision floats (expm1/log1p at 40 decimal digits,
# relative error far below the documented 1e-12).
EXACT_POW_BIT_LIMIT = 200_000

# Largest m for which harmonic numbers are kept as exact fractions.  H_m has a
# denominator of roughly e^m, so this is a hard practical wall.
HARMONIC_EXACT_LIMIT = 5_000

FLOAT_DPS = 40


def bit_size(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def to_mpf(x):
    """Convert int/Fraction/float to an mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def rational_from_real(x, sig_digits: int = 30) -> Fraction:
    """Round a real number to a rational with `sig_digits` significant digits."""
    with mp.workdps(sig_digits + 10):
        v = mp.mpf(x)
        if v == 0:
            return Fraction(0)
        s = mp.nstr(v, sig_digits)
    return Fraction(Decimal(s))


def exact_pow_affordable(p: Fraction, k: int) -> bool:
    """Whether (1-p)^k fits the bit-size budget of the exact route."""
    return k * bit_size(1 - p) <= EXACT_POW_BIT_LIMIT


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
        exact = exact_pow_affordable(p, k)
    if exact:
        return 1 - base ** k
    with mp.workdps(FLOAT_DPS):
        return -mp.expm1(k * mp.log1p(to_mpf(-p)))


def harmonic_exact(m: int) -> Fraction:
    """H_m as an exact fraction; refuses silly sizes."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > HARMONIC_EXACT_LIMIT:
        raise ValueError(f"exact harmonic number for m={m} is impractical")
    return sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))


def harmonic_real(m):
    """H_m via mpmath (psi-based), valid for astronomically large m."""
    with mp.workdps(FLOAT_DPS):
        return mp.harmonic(to_mpf(m))


def harmonic_diff(hi, lo):
    """H_hi - H_lo for 0 <= lo <= hi, either exact or via mpmath."""
    if hi <= HARMONIC_EXACT_LIMIT:
        return sum((Fraction(1, j) for j in range(lo + 1, hi + 1)), Fraction(0))
    with mp.workdps(FLOAT_DPS):
        return mp.harmonic(to_mpf(hi)) - mp.harmonic(to_mpf(lo))


def substream_seed(seed: int, worker: int) -> int:
    """Derive a deterministic, well-mixed sub-seed for a worker index."""
    digest = hashlib.sha256(f"{seed}:{worker}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def log2log2(m) -> float:
    """log2(log2(m)) for m >= 3 (works on arbitrary-size ints)."""
    if m < 3:
        raise ValueError("needs m >= 3")
    # math.log2 accepts big ints directly
    return math.log2(math.log2(m))
