"""Non-uniform urn occupancy analytics: first collision, full collection,
distinct urns, and coverage.

An urn model is a multiset of urn weights, given as its class weights w_i
(strictly increasing) and their counts c_i: class i holds c_i urns, each of
probability p_i = w_i / mu, mu = sum c_i * w_i.  `UrnModel` derives once the
integers D and P_i with p_i = P_i / D that the routes below read.  The closed
forms implemented here:

    distinct urns after k throws   E[N_k] = sum c_i * (1 - (1-p_i)^k)
    coverage after k throws        E[P_k] = sum c_i * p_i * (1 - (1-p_i)^k)
    occupied weight after k throws E[W_k] = sum c_i * w_i * (1 - (1-p_i)^k)
    first collision                E[B]   = integral (1 + p_i t)^c_i e^-t dt
    full collection (uniform)      E[C]   = m * H_m
    full collection (general)      1/p_1 <= E[C] <= 2 * H_m / p_1,
                                   estimate Xi = sum over urn ranks 1/(i * p_i)

`occupancy` alone chooses the route of distinct urns, coverage and occupied
weight: exact rationals while every power (1-p)^k stays below a bit-size
budget, else one double-precision pass over the classes, within a relative
OCCUPANCY_REL_ERROR = 12 * 2^-53.  H_m is exact or 40-digit as
`numerics.harmonic` returns it.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_floor, mpf_le, mpi_div, mpi_log, to_int

from .counting import EmptyLanguageError, _extreme_row, _scaled, build_counts, second_moment
from .numerics import (DEFAULT_SEED, FLOAT_DPS, HARMONIC_EXACT_LIMIT, _ratio_pow_affordable,
                       _unlimited_digits, collision_plug_in, harmonic, substream_seed,
                       to_mpf)
# Unused here; the benchmark's self-test still expects the binding (bench/spans.py
# traces one_minus_pow in every module that imports it).
from .numerics import one_minus_pow  # noqa: F401
from .sampler import SamplerState, _share, sample_word


class QuadratureError(RuntimeError):
    """The birthday integral failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class UrnClass:
    probability: Fraction
    count: int
    weight: Fraction


@dataclass(frozen=True, init=False)
class UrnModel:
    """Urns given by class weights w_i (positive Fractions, strictly
    increasing) and counts c_i (positive ints), the only inputs.

    The model is held in integers: w_i = P_i * num / den with gcd(P) = 1 and
    (num, den) = unit in lowest terms, the masses c_i P_i, D = sum c_i P_i
    and m = sum c_i, so that p_i = P_i / D (D is the lcm of the reduced p_i
    denominators, as gcd(P) = 1), and the squares c_i P_i^2 with their sum
    moment2 = alpha_2 * D^2.  The weights alone fix these fields, so
    equal models have equal fields.  The constructor derives them with one
    lcm and one gcd: with L the lcm of the weight denominators, W_i = w_i L
    and g = gcd(W), P_i = W_i / g and unit = (g, L), coprime: for each prime
    q of L, the weight whose denominator holds the most factors q has W_i
    prime to q.  `from_spectrum` passes a spectrum's keys and unit, which
    are already this form.  The weights, the total weight mu = D * num / den
    and the classes are Fractions made on their first read."""
    counts: tuple
    numerators: tuple
    denominator: int
    unit: tuple
    m: int = field(compare=False)
    masses: tuple = field(compare=False, repr=False)
    squares: tuple = field(compare=False, repr=False)
    moment2: int = field(compare=False, repr=False)

    def __init__(self, weights, counts):
        weights = tuple(weights)
        scale = math.lcm(*(w.denominator for w in weights))
        keys = [w.numerator * (scale // w.denominator) for w in weights]
        g = math.gcd(*keys) or 1  # dividing by g > 0 keeps every refusal's verdict
        self._store(tuple(key // g for key in keys), tuple(counts), (g, scale))
        self.__dict__["weights"] = weights

    @classmethod
    def _from_keys(cls, keys: tuple, counts: tuple, unit: tuple) -> UrnModel:
        """The model of class weights keys_i * num / den, (num, den) = unit,
        for keys of gcd 1 and a unit in lowest terms; takes no gcd."""
        u = cls.__new__(cls)
        u._store(keys, counts, unit)
        return u

    def _store(self, nums: tuple, counts: tuple, unit: tuple) -> None:
        """Refuses an empty model, counts below 1 and P_i that are not
        positive and strictly increasing, then sets the fields."""
        if not nums:
            raise ValueError("empty urn model")
        if len(nums) != len(counts):
            raise ValueError(f"{len(nums)} class weights but {len(counts)} counts")
        prev = 0
        for c, num in zip(counts, nums):
            if c < 1:
                raise ValueError("class multiplicities must be positive")
            if num <= 0:
                raise ValueError("urn weights must be positive")
            if num <= prev:
                raise ValueError("class weights must strictly increase")
            prev = num
        masses = tuple(map(operator.mul, counts, nums))
        squares = tuple(map(operator.mul, masses, nums))
        for name, value in (("counts", counts), ("numerators", nums),
                            ("denominator", sum(masses)), ("unit", unit), ("m", sum(counts)),
                            ("masses", masses), ("squares", squares),
                            ("moment2", sum(squares))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def weights(self) -> tuple:
        """w_i = P_i * num / den per class."""
        num, den = self.unit
        return tuple(Fraction(p * num, den) for p in self.numerators)

    @functools.cached_property
    def mu(self) -> Fraction:
        """The total weight sum c_i w_i = D * num / den."""
        return Fraction(self.denominator * self.unit[0], self.unit[1])

    @functools.cached_property
    def classes(self) -> tuple:
        """UrnClass(p_i, c_i, w_i) per class, p_i = P_i / D."""
        return tuple(UrnClass(Fraction(num, self.denominator), c, w)
                     for num, c, w in zip(self.numerators, self.counts, self.weights))


    @property
    def alpha_2(self) -> Fraction:
        """The second moment sum over urns of p^2, made from `moment2` on each
        read."""
        return Fraction(self.moment2, self.denominator ** 2)

    @property
    def p_min(self) -> Fraction:
        return Fraction(self.numerators[0], self.denominator)

    @property
    def p_max(self) -> Fraction:
        return Fraction(self.numerators[-1], self.denominator)


def from_weights(weights) -> UrnModel:
    """Urn model from unnormalized urn weights (equal weights are merged)."""
    groups = sorted(collections.Counter(map(Fraction, weights)).items())
    return UrnModel(tuple(w for w, _ in groups), tuple(c for _, c in groups))


def from_spectrum(spectrum) -> UrnModel:
    """Urn model of a weight spectrum: one urn per word, p proportional to
    weight.  It takes the spectrum's integer keys, counts and unit as they
    are (see `counting.WeightSpectrum`): no Fraction and no gcd."""
    return UrnModel._from_keys(spectrum.keys, spectrum.counts, spectrum.unit)


def uniform_urns(m: int) -> UrnModel:
    return UrnModel((Fraction(1),), (m,))


# ---------------------------------------------------------------------------
# occupancy expectations


# Relative error bound of the double-precision occupancy pass (see occupancy).
OCCUPANCY_REL_ERROR = 12 * 2.0 ** -53

# Largest k of the double-precision pass: every k up to it is a double.
OCCUPANCY_K_LIMIT = 2 ** 53

# Below this probability (1 - (1-p)^k) / p is taken as k.
_FIRST_ORDER_P = 2.0 ** -1000


@dataclass(frozen=True)
class Occupancy:
    distinct: object         # E[N_k]: Fraction on the exact route, else an mpf of a double
    coverage: object         # E[P_k]: Fraction on the exact route, else alpha_2 * a double
    exponential: float       # sum c_i * (1 - exp(-p_i k)), the O(1)-error form
    model: UrnModel = field(repr=False)

    @functools.cached_property
    def occupied_weight(self):
        """E[W_k] = mu * coverage, of the coverage's type (the 40-digit mu on
        the double-precision route); mu is made only when this is read."""
        if isinstance(self.coverage, Fraction):
            return self.model.mu * self.coverage
        with mp.workdps(FLOAT_DPS):
            return to_mpf(self.model.mu) * self.coverage


def occupancy(u: UrnModel, k: int, *, exact: bool | None = None) -> Occupancy:
    """Distinct urns, coverage, occupied weight and the exponential form after
    k throws.  Exact when every (1-p_i)^k is affordable, when forced via
    `exact`, for k = 0 and for a single urn; else the double-precision pass,
    which also gives the exponential form on both routes.

    Exact route.  With p_i = P_i / D over the common denominator D, one power
    (D - P_i)^k per class feeds the integer numerators of both Fractions.

    Double-precision pass.  Each term is a weight correctly rounded from exact
    integers times g_i = (1 - (1-p_i)^k) / p_i, which lies in [1, k] for k >= 1:
    - distinct   = sum w_i g_i,          w_i = c_i P_i / D;
    - coverage   = alpha_2 * sum b_i g_i, b_i = c_i P_i^2 / (alpha_2 D^2), so
      the sum is at least 1 and the exact alpha_2 carries the scale;
    - exponential = sum w_i (1 - exp(-k p_i)) / p_i.
    g_i is -expm1(k log1p(-p_i)) / p_i, with log((D - P_i) / D) in place of
    log1p(-p_i) once p_i > 1/2, so p_i near 1 loses nothing.  Below
    p_i = 2^-1000, g_i = k, within a relative k * p_i < 2^-947.

    Error bound.  With log1p, log and expm1 within one ulp, each term is
    within a relative 10 * 2^-53 of its value: the weight, p_i and
    (D - P_i) / D round once each; 1 - (1-p)^k has condition number at most
    1 in p, in 1 - p (for p > 1/2) and in k log(1-p), so the rounding of p,
    of the log and of the product by k passes on at most its own size; expm1,
    the division and the product round once each (the exponential form
    likewise, with k p in place of the log).  Every term is nonnegative, so
    math.fsum keeps the sum within 11 * 2^-53, and one more rounding (to a
    double, or of alpha_2 to 40 digits) stays within OCCUPANCY_REL_ERROR =
    12 * 2^-53 (1.3e-15) of the exact value; occupied weight is the 40-digit
    mu times coverage.  k may not exceed OCCUPANCY_K_LIMIT on either route.
    """
    if not 0 <= k <= OCCUPANCY_K_LIMIT:
        raise ValueError(f"k must lie in [0, 2^53] for the occupancy pass, got {k}")
    if exact is None:
        exact = all(_ratio_pow_affordable(num, u.denominator, k) for num in u.numerators)
    scale, nums = u.denominator, u.numerators
    distinct, coverage, exponential = [], [], []
    for cp, num, square in zip(u.masses, nums, u.squares):
        p = num / scale
        if k == 0:
            g = e = 0.0
        elif p < _FIRST_ORDER_P:
            g = e = float(k)
        else:
            if p <= 0.5:
                log_miss = math.log1p(-p)
            else:
                miss = (scale - num) / scale
                log_miss = math.log(miss) if miss else -math.inf
            g = -math.expm1(k * log_miss) / p
            e = -math.expm1(-k * p) / p
        weight = cp / scale
        distinct.append(weight * g)
        coverage.append(square / u.moment2 * g)
        exponential.append(weight * e)
    if exact or k == 0 or nums[-1] == scale:
        hit = scale ** k
        missed = [c * (scale - num) ** k for c, num in zip(u.counts, nums)]
        cov = Fraction(scale * hit - sum(cm * num for cm, num in zip(missed, nums)),
                       scale * hit)
        return Occupancy(Fraction(u.m * hit - sum(missed), hit), cov,
                         math.fsum(exponential), u)
    with mp.workdps(FLOAT_DPS):
        cov = mp.mpf(math.fsum(coverage)) * u.moment2 / scale ** 2
        return Occupancy(mp.mpf(math.fsum(distinct)), cov, math.fsum(exponential), u)


@dataclass(frozen=True)
class Expectation:
    value: object        # Fraction on the exact route, mpf from `occupancy` otherwise
    exponential: float   # sum c_i * (1 - exp(-p_i k)), the O(1)-error form


def expected_distinct(u: UrnModel, k: int, *, exact: bool | None = None) -> Expectation:
    """Expected number of distinct urns hit by k throws, plus the exponential
    approximation (which carries an O(1) absolute error)."""
    occ = occupancy(u, k, exact=exact)
    return Expectation(occ.distinct, occ.exponential)


def expected_coverage(u: UrnModel, k: int, *, exact: bool | None = None):
    """Expected cumulated probability of the distinct urns hit by k throws."""
    return occupancy(u, k, exact=exact).coverage


def expected_occupied_weight(u: UrnModel, k: int, *, exact: bool | None = None):
    """Expected total unnormalized weight of the occupied urns; equals
    mu * expected_coverage."""
    return occupancy(u, k, exact=exact).occupied_weight


# Largest k * p_max at which the first-order coverage k * alpha_2 counts as valid.
FIRST_ORDER_THRESHOLD = 0.01


# ---------------------------------------------------------------------------
# birthday (first collision)


# h(x) below 1/2: the series S(v) = sum_j v^j / (2j+3), v <= 1/25, to 2^-53
_ATANH_SERIES = tuple(1 / (2 * j + 3) for j in reversed(range(12)))

# Class x node entries per block of the birthday integrand: bounded temporaries
# whatever the number of weight classes.
_BLOCK = 1 << 15

# Rounding budget of the birthday quadrature, relative to the integral.
_ROUNDING = 64 * 2.0 ** -52

# Relative error the birthday quadrature must prove; it cannot go much below
# 1e-14 (see birthday_exact), and `standard_report` quotes it in its note.
BIRTHDAY_REL_TOL = 1e-9


def _h(x):
    """h(x) = (log1p(x) - x) / x^2 for x >= 0, to a few ulp.

    Below 1/2, with d = 2 + x: log1p(x) = 2 atanh(x/d) gives
    h = (2x S((x/d)^2) / d^2 - 1) / d, where the product term stays below 6%
    of the 1 it is taken from.  From 1/2 on, the direct form loses at most a
    factor 6 to cancellation.
    """
    import numpy as np  # only the birthday quadrature loads numpy
    out = np.empty_like(x)
    small = x < 0.5
    xs = x[small]
    d = xs + 2
    v = (xs / d) ** 2
    series = np.full_like(xs, _ATANH_SERIES[0])
    for coeff in _ATANH_SERIES[1:]:
        series *= v
        series += coeff
    out[small] = (2 * xs * series / (d * d) - 1) / d
    xl = x[~small]
    out[~small] = (np.log1p(xl) - xl) / (xl * xl)
    return out


def _class_sum(b, q, s, f):
    """sum_i b_i f(q_i s) at every node s, over blocks of classes."""
    import numpy as np  # only the birthday quadrature loads numpy
    out = np.zeros_like(s)
    rows = max(1, _BLOCK // len(s))
    for lo in range(0, len(b), rows):
        out += b[lo:lo + rows] @ f(np.multiply.outer(q[lo:lo + rows], s))
    return out


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre (nodes, weights) on [-1, 1], by Newton's method on the
    Legendre recurrence.  At 64 points the weights are off by 2e-15 in sum,
    where numpy's leggauss is off by 2e-14 and needs LAPACK workspace."""
    import numpy as np  # only the birthday quadrature loads numpy
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):  # converges quadratically from these starting points
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / slope
    return x, 2 / ((1 - x * x) * slope * slope)


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for positive ints of any size, as a float."""
    half = (num.bit_length() - den.bit_length()) // 2
    ratio = num / (den << 2 * half) if half >= 0 else (num << -2 * half) / den
    return math.ldexp(math.sqrt(ratio), half)


def birthday_exact(u: UrnModel) -> float:
    """E[B] = integral over t >= 0 of e^-t prod (1 + p_i t)^c_i, in double precision.

    Rescaling.  With t = s / sqrt(alpha_2) and sum c_i p_i = 1 the integral is
    E[B] = (1/sqrt(alpha_2)) * integral exp(psi(s)) ds, where
    psi(s) = s^2 * sum b_i h(q_i s), h(x) = (log1p(x) - x) / x^2,
    b_i = c_i p_i^2 / alpha_2 (so sum b_i = 1) and q_i = p_i / sqrt(alpha_2) <= 1.
    b_i and q_i^2 are correctly rounded from exact rationals.  Every term of
    psi is negative, so nothing cancels and nothing overflows at any m.  As
    h(0) = -1/2 the result is the plug-in sqrt(pi / (2 alpha_2)) times the
    correction integral(exp psi) / sqrt(pi/2) >= 1.

    Error bound.  The integral is composite Gauss-Legendre with 32 and 64
    points on the panels [0, 1], [1, 2], [2, 4], ..., [S/2, S]; the 64-point
    sum is returned.  Its error is bounded by err = E_panel + E_tail + E_round,
    and a QuadratureError is raised unless err <= BIRTHDAY_REL_TOL * value:
    - E_panel = sum |G64 - G32| over the panels.  The branch points
      s = -1/q_i <= -1 of the integrand lie at least three half-widths from
      every panel, so both rules converge geometrically and the 32-point
      error overestimates the 64-point one;
    - E_tail = exp(psi(S)) / |psi'(S)| bounds the integral beyond S, because
      psi is concave; S is the first power of two where it falls below
      1e-3 * BIRTHDAY_REL_TOL (the integral is at least sqrt(pi/2) > 1, as
      h >= -1/2);
    - E_round = 64 * 2^-52 * value covers rounding: h to a few ulp, b_i, q_i,
      the Gauss weights, the class sums and exp.
    So the tolerance cannot go much below 1e-14.  Memory stays flat in the number
    of classes: the class x node matrix is built in blocks.  numpy is imported
    here and in the three helpers above, not with the module, so the sampling,
    counting and simulation routes do not load it.
    """
    import numpy as np
    b = np.array([sq / u.moment2 for sq in u.squares])
    q = np.sqrt([sq / (c * u.moment2) for c, sq in zip(u.counts, u.squares)])
    unscale = _sqrt_ratio(u.denominator ** 2, u.moment2)  # 1 / sqrt(alpha_2)

    # Candidate truncation points up to 1024, where exp(psi) < exp(-1000) for
    # every model, as psi(s) <= log1p(s) - s (the single urn).
    ends = 2.0 ** np.arange(11)
    slopes = ends * _class_sum(b, q, ends, lambda x: 1 / (1 + x))  # |psi'|
    tails = np.exp(ends * ends * _class_sum(b, q, ends, _h)) / slopes
    hits = np.flatnonzero(tails < 1e-3 * BIRTHDAY_REL_TOL)
    if not hits.size:
        raise QuadratureError(f"no truncation point up to t={ends[-1] * unscale:.6g}")
    last = hits[0]

    (x32, w32), (x64, w64) = _gauss_legendre(32), _gauss_legendre(64)
    lo, hi = np.concatenate(([0.0], ends[:last])), ends[:last + 1]
    half = (hi - lo) / 2
    nodes = ((hi + lo) / 2)[:, None] + half[:, None] * np.concatenate((x32, x64))
    s = nodes.ravel()
    f = np.exp(s * s * _class_sum(b, q, s, _h)).reshape(nodes.shape)
    g32 = half * (f[:, :len(x32)] @ w32)
    g64 = half * (f[:, len(x32):] @ w64)
    value = g64.sum()
    err = np.abs(g64 - g32).sum() + tails[last] + _ROUNDING * value
    if not err <= BIRTHDAY_REL_TOL * value:
        raise QuadratureError(
            f"birthday quadrature did not converge: value~{value * unscale:.8g}, "
            f"error~{err * unscale:.3g}, truncation t={ends[last] * unscale:.6g}, "
            f"{s.size} nodes")
    return float(value * unscale)


def birthday_asymptotic(u: UrnModel) -> float:
    """Plug-in estimate sqrt(pi / (2 * alpha_2)); accurate in the many-urn,
    no-dominant-urn regime."""
    return float(collision_plug_in(u.alpha_2))


# ---------------------------------------------------------------------------
# coupon collection


def xi_estimate(u: UrnModel):
    """Xi = sum over urn ranks i (nondecreasing p) of 1/(i * p_i).

    Computed per class, the ranks of class i summing to H_(e_i) - H_(e_i - c_i)
    with e_i = c_0 + ... + c_i, so models with astronomically many urns never
    get materialized.  The route is picked once, from m: an exact Fraction for
    m <= HARMONIC_EXACT_LIMIT, else every term at 40 digits, each difference
    of two 40-digit H at class ends (within an absolute 10^-39 * H_m, see
    `numerics.harmonic`) times D / P_i."""
    ends = list(itertools.accumulate(u.counts))
    if u.m <= HARMONIC_EXACT_LIMIT:
        return sum((harmonic(end, end - c) * Fraction(u.denominator, num)
                    for c, end, num in zip(u.counts, ends, u.numerators)), Fraction(0))
    with mp.workdps(FLOAT_DPS):
        h = [0, *(harmonic(end, exact=False) for end in ends)]
        scale = mp.mpf(u.denominator)
        return mp.fsum((hi - lo) * scale / num
                       for lo, hi, num in zip(h, h[1:], u.numerators))


@dataclass(frozen=True)
class CouponBounds:
    lower: Fraction             # 1/p_1
    upper: object               # 2 * H_m / p_1
    estimate: object            # Xi
    berenbrink: tuple | None    # (Xi / (3e log2 log2 m), 2 Xi) as mpfs, m >= 3 only
    m: int


def coupon_bounds(u: UrnModel) -> CouponBounds:
    """Bounds and the rank-harmonic estimate for the full-collection time.

    The guaranteed-factor interval around Xi uses base-2 iterated logarithms;
    with natural logs the stated constant is not valid down at m=3 (where the
    uniform model already sits exactly at Xi).
    """
    p1 = u.p_min
    lower = 1 / p1
    h_m = harmonic(u.m)
    with mp.workdps(FLOAT_DPS):
        upper = 2 * h_m / (p1 if isinstance(h_m, Fraction) else to_mpf(p1))
    xi = xi_estimate(u)
    berenbrink = None
    if u.m >= 3:
        with mp.workdps(FLOAT_DPS):
            xf = to_mpf(xi)
            berenbrink = (xf / (3 * mp.e * math.log2(math.log2(u.m))), 2 * xf)
    return CouponBounds(lower, upper, xi, berenbrink, u.m)


# ---------------------------------------------------------------------------
# Monte Carlo validation harness


@dataclass(frozen=True)
class SimResult:
    statistic: str
    mean: float
    stderr: float
    trials: int
    k: int | None = None


_STATISTICS = ("first_collision", "full_collection", "distinct", "coverage")

# Full collection draws every urn (or word) at least once: larger models are refused.
FULL_COLLECTION_CAP = 10 ** 7

# Most trials, and for distinct and coverage most trials * k draws, of one run.
SIMULATE_DRAW_CAP = 10 ** 9


def _word_law(table, n: int | None, statistic: str) -> SimpleNamespace:
    """The urns of the length-n words (derivations, as the sampler draws
    them) of `table`, each of probability weight / total(n) with the table's
    own total, and what the refusals of `statistic` read: alpha_2, or the
    word count m and p_min."""
    if n is None:
        raise ValueError("word-level simulation needs n")
    law = SimpleNamespace(table=table, n=n, total=table.total(n))
    if not law.total:
        raise EmptyLanguageError(f"no words of length {n}")
    g, weights = table.grammar, table.weights
    if statistic == "first_collision":
        law.alpha_2 = second_moment(table, n)
    elif statistic == "full_collection":
        law.m = int(build_counts(g, dict.fromkeys(g.terminals, 1), n).total(n))
        scale, row = _extreme_row(g, weights, n, largest=False)
        law.p_min = row[n] / (scale ** n * law.total)
    return law


def _refuse_long_waits(statistic: str, trials: int, law) -> None:
    """Refuse, before any draw, a first collision or full collection whose
    trials times a lower bound on one trial's expected throws exceeds
    SIMULATE_DRAW_CAP.  The bound is ceil(sqrt(pi / (2 alpha_2))) for first
    collision (the plug-in, at most E[B]; see birthday_exact) and
    ceil(1 / p_min) for full collection (the lightest urn alone waits that
    long), read from `law`: an UrnModel, or the `_word_law` of a table."""
    if statistic == "first_collision":
        wait = int(mp.ceil(collision_plug_in(law.alpha_2), prec=0))
    elif statistic == "full_collection":
        wait = math.ceil(1 / law.p_min)
    else:
        return
    if trials * wait > SIMULATE_DRAW_CAP:
        with _unlimited_digits():
            message = (f"{statistic} expects at least {wait} throws per trial, "
                       f"and trials * throws must be at most {SIMULATE_DRAW_CAP}")
        raise ValueError(message)


# Full collection skips repeat throws once the free mass F is at most
# D / _SKIP_SHARE (see _urn_trials).  On one core of an Intel Xeon under
# CPython 3.11, a throw costs 0.13-0.24 us and a skip step 1.0-1.4 us
# (uniform 323 urns; Motzkin W=2 at n = 9 and 12), so skipping pays once a
# new urn takes more than about 6-10 throws, D / F > 6-10.  On the
# benchmark's full-collection ops (n = 8, 9) D/4, D/8 and D/16 timed within
# 10% of each other, and D/32 about 20% slower.
_SKIP_SHARE = 16

# Uniform bits behind the float guess of a gap, and drawn at each refinement
# after it (see _repeat_throws).
_GUESS_BITS = 64

# The float guess's slack relative to x + spread + 1 / |ln q|: 2^8 times its
# proven error (see _repeat_throws).
_GUESS_SLACK = 2.0 ** -40


def _point(man: int, exp: int = 0) -> tuple:
    """The mpmath interval [man * 2^exp, man * 2^exp], exact."""
    x = from_man_exp(man, exp)
    return x, x


def _repeat_throws(free: int, scale: int, getrandbits) -> int:
    """The throws into occupied urns before the next new one, when the free
    urns hold mass F / D (F = free, D = scale, 0 < F <= D/2 or F = D): G >= 0
    with P(G >= g) = q^g exactly, q = O / D, O = D - F.  No power of D is
    raised.

    G = floor(ln U / ln q) for U uniform in (0, 1], as G >= g iff U <= q^g.
    The first _GUESS_BITS = b bits a leave U in (lo, hi] = (a, a + 1] / 2^b,
    over which x(U) = ln U / ln q falls from x(lo) to x(hi), with
    x(lo) - x(hi) = ln(1 + 1/a) / |ln q| <= 1 / (a |ln q|).  G is g on the
    whole interval iff g <= x(hi) and x(lo) <= g + 1.

    Float guess.  x = log(hi) / ln q and spread = 1 / (a |ln q|) in double
    precision, with ln q = log1p(-F/D).  F/D is correctly rounded, and ln q
    has condition number at most 1.45 in it for F <= D/2, so with log and
    log1p within 4 ulp ln q is within a relative 2^-49.  log(hi) is within
    2^-53 absolute (from the rounding of hi) plus 4 ulp, and the quotient
    rounds once, so |x - x(hi)| <= 2^-48 x(hi) + 2^-52 / |ln q|; spread is
    within a relative 2^-48.  The slack 2^-40 (x + spread + 1 / |ln q|)
    covers both and the roundings of the test itself, so g = floor(x - slack)
    is accepted when x + spread + slack <= g + 1.  The refusals of simulate
    keep F/D >= 1e-9 here, so x + spread stays below 5e10 and a guess fails
    only within about 2^-40 x of an integer.

    Exact fallback.  Otherwise each round draws b more bits of U and
    decides the same two inequalities by mpmath interval arithmetic at
    (bits drawn) + (bits of D) + 64 bits, where the enclosure of ln q lies
    below 0.  An interval that straddles, or just touches, an integer stays
    undecided, so the law is exact, and it is refined again; one touching
    at a tie (a dyadic q^g) shrinks by 2^-b a round.
    """
    occupied = scale - free
    if not occupied:
        return 0
    log_q = math.log1p(-free / scale)
    bits = _GUESS_BITS
    a = getrandbits(bits)
    if a:
        x = math.log(math.ldexp(a + 1, -bits)) / log_q
        spread = -1 / (a * log_q)
        slack = _GUESS_SLACK * (x + spread - 1 / log_q)
        g = math.floor(x - slack)
        if x + spread + slack <= g + 1:
            return g
    while True:
        a = a << _GUESS_BITS | getrandbits(_GUESS_BITS)
        bits += _GUESS_BITS
        if not a:
            continue
        prec = bits + scale.bit_length() + 64
        log_q = mpi_log(mpi_div(_point(occupied), _point(scale), prec), prec)
        x_hi = mpi_div(mpi_log(_point(a + 1, -bits), prec), log_q, prec)
        x_lo = mpi_div(mpi_log(_point(a, -bits), prec), log_q, prec)
        g = to_int(mpf_floor(x_hi[0]))
        if mpf_le(x_lo[1], from_int(g + 1)):
            return g


def _free_class(t: list, ends: list, r: int) -> int:
    """The class of r in [0, F) laid over the free ranges [T_i, E_i) of the
    walk's thresholds t (T_i = t[2i], E_i = ends[i]) in class order: class i
    for exactly E_i - T_i of the F values of r."""
    for i, end in enumerate(ends):
        r -= end - t[2 * i]
        if r < 0:
            return i


def _urn_trials(u: UrnModel, statistic: str, trials: int, k: int | None,
                getrandbits) -> list:
    """One int per trial of `statistic` on u: the throw that first hits an
    occupied urn, the throw that occupies the last urn, or after k throws
    the distinct urns or the coverage numerator (coverage times D).

    A throw is one r uniform in [0, D), drawn from `getrandbits` by the
    rejection loop of CPython's randrange(D), written out inline.
    Class i owns the values [S_i, S_i + c_i P_i), S_i = sum over l < i of
    c_l P_l, each of its urns P_i of them.  A trial takes the occ_i occupied
    urns of class i to be its lowest, which own [S_i, T_i) with
    T_i = S_i + occ_i P_i.  So j = bisect_right over the sorted
    [T_0, S_1, T_1, ..., S_{c-1}, T_{c-1}] is even for an occupied urn and
    odd for a new urn of class j >> 1, whose T_i then moves up by P_i.  Urns
    of one class are exchangeable, so this relabelling leaves the law of
    every throw's class and novelty, hence of every statistic, as if each
    urn were tracked by its own id.  A throw lands in class i with
    probability exactly c_i P_i / D, and a trial holds 2c - 1 ints whatever
    m is.

    Full collection throws so only while the free mass F = D - O (O the
    occupied mass) exceeds D / _SKIP_SHARE.  From then on each step finds
    the next new urn in two draws: the repeat throws before it, geometric
    with P(G >= g) = (O/D)^g (`_repeat_throws`), and its class, one r below F
    by the same rejection loop laid over the free ranges [T_i, S_(i+1))
    (`_free_class`), class i with probability F_i / F.  Throw by throw,
    each throw is new with probability F / D and then in class i with
    probability F_i / F, independently of the repeats before it, so the
    time of full collection keeps its law exactly.
    """
    scale, nums = u.denominator, u.numerators
    bits, find = scale.bit_length(), bisect.bisect_right
    starts = list(itertools.accumulate(u.masses, initial=0))[:-1]
    empty = sorted(starts * 2)[1:]  # every T_i = S_i
    step = [num for num in nums for _ in (0, 1)]  # step[j] = P_(j >> 1)
    values = []
    if statistic == "first_collision":
        for _ in range(trials):
            t, throws = empty.copy(), 1
            while True:
                r = getrandbits(bits)
                while r >= scale:
                    r = getrandbits(bits)
                j = find(t, r)
                if not j & 1:
                    break
                t[j - 1] += step[j]
                throws += 1
            values.append(throws)
    elif statistic == "full_collection":
        ends, cut = [*starts[1:], scale], scale // _SKIP_SHARE
        for _ in range(trials):
            t, throws, free = empty.copy(), 0, scale
            while free > cut:
                throws += 1
                r = getrandbits(bits)
                while r >= scale:
                    r = getrandbits(bits)
                j = find(t, r)
                if j & 1:
                    t[j - 1] += step[j]
                    free -= step[j]
            while free:
                throws += _repeat_throws(free, scale, getrandbits) + 1
                width = free.bit_length()
                r = getrandbits(width)
                while r >= free:
                    r = getrandbits(width)
                i = _free_class(t, ends, r)
                t[2 * i] += nums[i]
                free -= nums[i]
            values.append(throws)
    else:
        for _ in range(trials):
            t = empty.copy()
            for _ in range(k):
                r = getrandbits(bits)
                while r >= scale:
                    r = getrandbits(bits)
                j = find(t, r)
                if j & 1:
                    t[j - 1] += step[j]
            held = [hi - lo for hi, lo in zip(t[::2], starts)]  # occ_i P_i
            values.append(sum(held) if statistic == "coverage" else
                          sum(h // num for h, num in zip(held, nums)))
    return values


def _word_trials(law: SimpleNamespace, statistic: str, trials: int, k: int | None,
                 seed: int) -> list:
    """One value per trial of `statistic` over the words of `law`, kept in a
    set of seen words; full collection stops at the throw bound of simulate.
    Coverage sums the seen words' integer letter products over one scale^n
    (`counting._scaled` of the table's weights) and makes one Fraction per
    trial, the same rational as the sum of their weights."""
    stream = SamplerState(law.table, seed)
    draws = iter(lambda: sample_word(stream, law.n), None)
    if statistic == "full_collection":
        most = math.ceil((math.log(law.m) + 64 * math.log(2)) / float(law.p_min))
    elif statistic == "coverage":
        scale, letters = _scaled(law.table.grammar.terminals, law.table.weights)
        unit = scale ** law.n
    values = []
    for _ in range(trials):
        seen = set()
        if statistic == "first_collision":
            for word in draws:
                if word in seen:
                    break
                seen.add(word)
            values.append(len(seen) + 1)
        elif statistic == "full_collection":
            for throws, word in enumerate(itertools.islice(draws, most), 1):
                seen.add(word)
                if len(seen) == law.m:
                    break
            else:
                raise ValueError(f"full_collection saw {len(seen)} of {law.m} words in "
                                 f"{most} throws: the grammar is likely ambiguous")
            values.append(throws)
        else:
            seen.update(itertools.islice(draws, k))
            values.append(len(seen) if statistic == "distinct" else float(_share(Fraction(
                sum(math.prod(map(letters.__getitem__, word)) for word in seen), unit),
                law.table, law.n)))
    return values


def simulate(model, statistic: str, trials: int, *, seed: int | None = None,
             k: int | None = None, n: int | None = None) -> SimResult:
    """Monte Carlo estimate of a redundancy statistic, with standard error.

    `model` is either an UrnModel (urn-level simulation) or a SamplerState
    (word-level simulation over its grammar, at length n).  Identical calls
    give identical results: urn-level throws draw from substream 0 of
    `seed`, and word-level trials sample from a fresh SamplerState seeded
    with that substream, so their words come from its own substream 0.  A
    SamplerState contributes only its table, never its own stream.  k is
    the number of throws of distinct and coverage, and the other statistics
    refuse it.

    Urn level is exact: each throw is one integer below the common
    denominator D, placed by one bisect over the class occupancy thresholds
    (see _urn_trials), with no urn ids and memory linear in the number of
    classes; coverage is its integer numerator over D, correctly rounded.
    Full collection throws so only while the free mass exceeds D/16; then
    each new urn costs two draws, the geometric number of repeat throws
    before it (a float guess from 64 bits, accepted within a proven error
    bound and else decided by interval arithmetic on more bits) and its
    class below the free mass, with the law of the throw-by-throw walk.
    Word level keeps a set of the sampled words, and its refusals read the
    law its table draws from: total(n) from the table, alpha_2 from one
    table over the squared weights, m from the unit-weight table and p_min
    from one (min, x) pass (see _word_law).

    Refused before any draw, at either level: more than SIMULATE_DRAW_CAP
    trials, or trials * k draws; full collection over more than
    FULL_COLLECTION_CAP urns or words; first collision or full collection
    whose trials times a lower bound on the expected throws of one trial
    exceeds SIMULATE_DRAW_CAP, the bound being ceil(sqrt(pi / (2 alpha_2)))
    (see birthday_exact) or ceil(1 / p_min).  A word-level full collection
    short of m words (m counts derivations) after t = ceil((ln m + 64 ln 2) /
    p_min) throws raises ValueError, as an unambiguous grammar gets there
    with probability below m (1 - p_min)^t < 2^-64.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if not 1 <= trials <= SIMULATE_DRAW_CAP:
        raise ValueError(f"trials must lie in [1, {SIMULATE_DRAW_CAP}], got {trials}")
    if statistic in ("distinct", "coverage"):
        if k is None or k < 0:
            raise ValueError(f"statistic {statistic!r} needs k >= 0")
        if trials * k > SIMULATE_DRAW_CAP:
            raise ValueError(f"trials * k must be at most {SIMULATE_DRAW_CAP}, "
                             f"got {trials * k}")
        if k == 0:
            return SimResult(statistic, 0.0, 0.0, trials, 0)
    elif k is not None:
        raise ValueError(f"statistic {statistic!r} takes no k")
    law = model if isinstance(model, UrnModel) else _word_law(model.table, n, statistic)
    if statistic == "full_collection" and law.m > FULL_COLLECTION_CAP:
        raise ValueError(f"full collection needs at most {FULL_COLLECTION_CAP} "
                         f"urns or words, got {law.m}")
    _refuse_long_waits(statistic, trials, law)
    sub = substream_seed(DEFAULT_SEED if seed is None else seed)
    if law is model:
        values = _urn_trials(model, statistic, trials, k, random.Random(sub).getrandbits)
        if statistic == "coverage":
            values = [v / model.denominator for v in values]
    else:
        values = _word_trials(law, statistic, trials, k, sub)
    mean = math.fsum(values) / trials
    if trials > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = float("inf")
    return SimResult(statistic, mean, stderr, trials, k)


# ---------------------------------------------------------------------------
# reports


# the most digits of an integer that a text report prints in full; a 20-digit
# 1/p1 bound still does, while one of thousands of digits would widen every
# row.  CSV, the exact machine-read form, prints every integer in full.
REPORT_INT_DIGITS = 30


def _fmt_number(x, int_digits: int | None = None) -> str:
    """A report cell: an integer-valued Fraction in full, unless it has more
    than `int_digits` digits; any other number with 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, Fraction) and x.denominator == 1 \
            and (int_digits is None or abs(x.numerator) < 10 ** int_digits):
        with _unlimited_digits():
            return str(x.numerator)
    with mp.workdps(30):
        return mp.nstr(to_mpf(x), 12)


@dataclass(frozen=True, slots=True)
class ReportEntry:
    statistic: str
    method: str              # exact | bound | asymptotic | estimate | first_order
    value: object = None
    lower: object = None
    upper: object = None
    n: int | None = None
    k: int | None = None
    note: str = ""

    def __post_init__(self):
        if self.lower is not None and self.upper is not None:
            with mp.workdps(FLOAT_DPS):
                if not to_mpf(self.lower) <= to_mpf(self.upper):
                    raise ValueError("bound entry with lower > upper")


@dataclass(frozen=True)
class AnalyticsReport:
    entries: tuple

    def _rows(self, int_digits: int | None = None) -> list:
        """The header and one row of cells per entry; the note comes last.
        Integers of more than `int_digits` digits print as other numbers do."""
        rows = [("statistic", "method", "n", "k", "value", "lower", "upper", "note")]
        for e in self.entries:
            rows.append((e.statistic, e.method,
                         "" if e.n is None else str(e.n),
                         "" if e.k is None else str(e.k),
                         *(_fmt_number(x, int_digits) for x in (e.value, e.lower, e.upper)),
                         e.note))
        return rows

    def to_text(self) -> str:
        rows = self._rows(REPORT_INT_DIGITS)
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return "".join(",".join(row[:-1]) + "\n" for row in self._rows())


def standard_report(u: UrnModel, *, n: int | None = None,
                    k: int | None = None) -> AnalyticsReport:
    """The default analytics bundle for one urn model."""
    entries = [ReportEntry("first_collision", "exact", value=birthday_exact(u),
                           n=n, note="quadrature, rel tol 1e-9"),
               ReportEntry("first_collision", "asymptotic",
                           value=birthday_asymptotic(u), n=n,
                           note="sqrt(pi/(2*alpha2))")]
    cb = coupon_bounds(u)
    entries.append(ReportEntry("full_collection", "bound", lower=cb.lower,
                               upper=cb.upper, n=n, note="1/p1 .. 2*H_m/p1"))
    entries.append(ReportEntry("full_collection", "estimate", value=cb.estimate,
                               n=n, note="rank-harmonic estimate"))
    if cb.berenbrink is not None:
        entries.append(ReportEntry("full_collection", "bound",
                                   lower=cb.berenbrink[0], upper=cb.berenbrink[1],
                                   n=n, note="guaranteed factor around estimate"))
    if len(u.counts) == 1:  # equal weights: Xi is the exact collection time m*H_m
        entries.append(ReportEntry("full_collection", "exact", value=cb.estimate,
                                   n=n, note="uniform m*H_m"))
    if k is not None:
        occ = occupancy(u, k)
        entries.append(ReportEntry("distinct", "exact", value=occ.distinct, n=n, k=k))
        entries.append(ReportEntry("distinct", "asymptotic", value=occ.exponential,
                                   n=n, k=k, note="exponential form, O(1) error"))
        entries.append(ReportEntry("coverage", "exact", value=occ.coverage, n=n, k=k))
        kp = k * u.p_max
        entries.append(ReportEntry("coverage", "first_order", value=k * u.alpha_2,
                                   n=n, k=k,
                                   note="valid" if kp <= FIRST_ORDER_THRESHOLD else
                                   f"invalid: k*p_max={_fmt_number(kp)}"))
        entries.append(ReportEntry("occupied_weight", "exact",
                                   value=occ.occupied_weight, n=n, k=k))
    return AnalyticsReport(tuple(entries))
