"""Non-uniform urn occupancy analytics: first collision, full collection,
distinct urns, and coverage.

An urn model is a set of m urns grouped into classes of equal probability:
class i holds c_i urns of probability p_i each (p strictly increasing across
classes, sum c_i * p_i = 1).  The closed forms implemented here:

    distinct urns after k throws   E[N_k] = sum c_i * (1 - (1-p_i)^k)
    coverage after k throws        E[P_k] = sum c_i * p_i * (1 - (1-p_i)^k)
    occupied weight after k throws E[W_k] = sum c_i * chi_i * (1 - (1-p_i)^k)
    first collision                E[B]   = integral (1 + p_i t)^c_i e^-t dt
    full collection (uniform)      E[C]   = m * H_m
    full collection (general)      1/p_1 <= E[C] <= 2 * H_m / p_1,
                                   estimate Xi = sum over urn ranks 1/(i * p_i)

Everything with a closed form is computed exactly on rationals when the power
(1-p)^k stays below a bit-size budget, and with high-precision floats beyond.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .numerics import (DEFAULT_SEED, FLOAT_DPS, HARMONIC_EXACT_LIMIT,
                       exact_pow_affordable, harmonic_diff, harmonic_exact,
                       harmonic_real, log2log2, one_minus_pow, substream_seed,
                       to_mpf)


class QuadratureError(RuntimeError):
    """The birthday integral failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class UrnClass:
    probability: Fraction
    count: int
    weight: Fraction


@dataclass(frozen=True)
class UrnModel:
    classes: tuple          # UrnClass entries, strictly increasing probability
    m: int                  # total number of urns
    mu: Fraction            # total unnormalized weight

    def __post_init__(self):
        if not self.classes:
            raise ValueError("empty urn model")
        total = Fraction(0)
        prev = None
        for c in self.classes:
            if c.count < 1:
                raise ValueError("class multiplicities must be positive")
            if not 0 < c.probability <= 1:
                raise ValueError("urn probabilities must lie in (0, 1]")
            if prev is not None and c.probability <= prev:
                raise ValueError("class probabilities must strictly increase")
            prev = c.probability
            total += c.count * c.probability
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if self.m != sum(c.count for c in self.classes):
            raise ValueError("urn count does not match class multiplicities")

    @property
    def p_min(self) -> Fraction:
        return self.classes[0].probability

    @property
    def p_max(self) -> Fraction:
        return self.classes[-1].probability


def from_weights(weights) -> UrnModel:
    """Urn model from unnormalized urn weights (equal weights are merged)."""
    groups = {}
    for w in weights:
        w = Fraction(w)
        if w <= 0:
            raise ValueError("urn weights must be positive")
        groups[w] = groups.get(w, 0) + 1
    mu = sum((w * c for w, c in groups.items()), Fraction(0))
    classes = tuple(UrnClass(w / mu, c, w) for w, c in sorted(groups.items()))
    return UrnModel(classes, sum(groups.values()), mu)


def from_spectrum(spectrum) -> UrnModel:
    """Urn model of a weight spectrum: one urn per word, p proportional to weight."""
    if not spectrum.classes:
        raise ValueError("empty spectrum")
    mu = spectrum.total_weight()
    classes = tuple(UrnClass(c.weight / mu, c.count, c.weight)
                    for c in spectrum.classes)
    return UrnModel(classes, spectrum.total_count(), mu)


def uniform_urns(m: int) -> UrnModel:
    if m < 1:
        raise ValueError("need at least one urn")
    return UrnModel((UrnClass(Fraction(1, m), m, Fraction(1)),), m, Fraction(m))


# ---------------------------------------------------------------------------
# occupancy expectations


def alpha(u: UrnModel, j: int) -> Fraction:
    """j-th moment of the urn distribution, sum over urns of p^j."""
    return sum((c.count * c.probability ** j for c in u.classes), Fraction(0))


def _scaled_probabilities(u: UrnModel) -> tuple:
    """(D, [D * p_i]) with D the lcm of the class probability denominators."""
    scale = math.lcm(*(c.probability.denominator for c in u.classes))
    return scale, [c.probability.numerator * (scale // c.probability.denominator)
                   for c in u.classes]


def _occupancy_sum(u, k, power, factor, exact):
    """factor * sum over classes of c_i * p_i^power * (1 - (1-p_i)^k), power 0 or 1.

    One route serves every class.  Exact: with p_i = P_i/D over the common
    denominator D, the sum is one integer numerator over D^(k+power), using
    sum c_i P_i^power = m (power 0) or D (power 1).  Float: one_minus_pow at
    40 digits per class.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if exact is None:
        exact = all(exact_pow_affordable(c.probability, k) for c in u.classes)
    if exact or k == 0 or u.p_max == 1:
        scale, nums = _scaled_probabilities(u)
        hit = (u.m if power == 0 else scale) * scale ** k
        missed = sum(c.count * num ** power * (scale - num) ** k
                     for c, num in zip(u.classes, nums))
        return factor * Fraction(hit - missed, scale ** (k + power))
    with mp.workdps(FLOAT_DPS):
        return sum(to_mpf(factor * c.count * c.probability ** power)
                   * one_minus_pow(c.probability, k, False) for c in u.classes)


@dataclass(frozen=True)
class Expectation:
    value: object        # Fraction under the exact policy, mpf otherwise
    exponential: float   # sum c_i * (1 - exp(-p_i k)), the O(1)-error form


def expected_distinct(u: UrnModel, k: int, *, exact: bool | None = None) -> Expectation:
    """Expected number of distinct urns hit by k throws, plus the exponential
    approximation (which carries an O(1) absolute error)."""
    value = _occupancy_sum(u, k, 0, 1, exact)
    with mp.workdps(FLOAT_DPS):
        approx = float(sum(to_mpf(c.count) * (-mp.expm1(-to_mpf(c.probability) * k))
                           for c in u.classes))
    return Expectation(value, approx)


def expected_coverage(u: UrnModel, k: int, *, exact: bool | None = None):
    """Expected cumulated probability of the distinct urns hit by k throws."""
    return _occupancy_sum(u, k, 1, 1, exact)


def expected_occupied_weight(u: UrnModel, k: int, *, exact: bool | None = None):
    """Expected total unnormalized weight of the occupied urns; equals
    mu * expected_coverage."""
    return _occupancy_sum(u, k, 1, u.mu, exact)


@dataclass(frozen=True)
class FirstOrderCoverage:
    value: Fraction      # k * alpha_2
    valid: bool          # False once k * p_max exceeds the threshold
    k_p_max: Fraction


def coverage_first_order(u: UrnModel, k: int, *, threshold: float = 0.01) -> FirstOrderCoverage:
    """First-order coverage estimate k * alpha_2, valid only while k*p_max is small."""
    kp = k * u.p_max
    return FirstOrderCoverage(k * alpha(u, 2), kp <= threshold, kp)


# ---------------------------------------------------------------------------
# birthday (first collision)


# h(x) below 1/2: the series S(v) = sum_j v^j / (2j+3), v <= 1/25, to 2^-53
_ATANH_SERIES = tuple(1 / (2 * j + 3) for j in reversed(range(12)))

# Class x node entries per block of the birthday integrand: bounded temporaries
# whatever the number of weight classes.
_BLOCK = 1 << 15

# Rounding budget of the birthday quadrature, relative to the integral.
_ROUNDING = 64 * 2.0 ** -52


def _h(x):
    """h(x) = (log1p(x) - x) / x^2 for x >= 0, to a few ulp.

    Below 1/2, with d = 2 + x: log1p(x) = 2 atanh(x/d) gives
    h = (2x S((x/d)^2) / d^2 - 1) / d, where the product term stays below 6%
    of the 1 it is taken from.  From 1/2 on, the direct form loses at most a
    factor 6 to cancellation.
    """
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


def birthday_exact(u: UrnModel, *, rel_tol: float = 1e-9) -> float:
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
    and a QuadratureError is raised unless err <= rel_tol * value:
    - E_panel = sum |G64 - G32| over the panels.  The branch points
      s = -1/q_i <= -1 of the integrand lie at least three half-widths from
      every panel, so both rules converge geometrically and the 32-point
      error overestimates the 64-point one;
    - E_tail = exp(psi(S)) / |psi'(S)| bounds the integral beyond S, because
      psi is concave; S is the first power of two where it falls below
      1e-3 * rel_tol (the integral is at least sqrt(pi/2) > 1, as h >= -1/2);
    - E_round = 64 * 2^-52 * value covers rounding: h to a few ulp, b_i, q_i,
      the Gauss weights, the class sums and exp.
    So rel_tol cannot go much below 1e-14.  Memory stays flat in the number
    of classes: the class x node matrix is built in blocks.
    """
    scale, nums = _scaled_probabilities(u)
    squares = [num * num for num in nums]
    moment2 = sum(c.count * sq for c, sq in zip(u.classes, squares))  # alpha_2 * D^2
    b = np.array([c.count * sq / moment2 for c, sq in zip(u.classes, squares)])
    q = np.sqrt([sq / moment2 for sq in squares])
    unscale = _sqrt_ratio(scale * scale, moment2)  # 1 / sqrt(alpha_2)

    # Candidate truncation points up to 1024, where exp(psi) < exp(-1000) for
    # every model, as psi(s) <= log1p(s) - s (the single urn).
    ends = 2.0 ** np.arange(11)
    slopes = ends * _class_sum(b, q, ends, lambda x: 1 / (1 + x))  # |psi'|
    tails = np.exp(ends * ends * _class_sum(b, q, ends, _h)) / slopes
    hits = np.flatnonzero(tails < 1e-3 * rel_tol)
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
    if not err <= rel_tol * value:
        raise QuadratureError(
            f"birthday quadrature did not converge: value~{value * unscale:.8g}, "
            f"error~{err * unscale:.3g}, truncation t={ends[last] * unscale:.6g}, "
            f"{s.size} nodes")
    return float(value * unscale)


def birthday_asymptotic(u: UrnModel) -> float:
    """Plug-in estimate sqrt(pi / (2 * alpha_2)); accurate in the many-urn,
    no-dominant-urn regime."""
    with mp.workdps(50):
        return float(mp.sqrt(mp.pi / (2 * to_mpf(alpha(u, 2)))))


# ---------------------------------------------------------------------------
# coupon collection


def coupon_uniform_exact(m: int) -> Fraction:
    """Exact expected full-collection time m * H_m for m equiprobable urns."""
    return m * harmonic_exact(m)


def xi_estimate(u: UrnModel):
    """Xi = sum over urn ranks i (nondecreasing p) of 1/(i * p_i).

    Computed per class via harmonic-number differences, so models with
    astronomically many urns never get materialized.  Exact for small m.
    """
    start = 0
    total = Fraction(0) if u.m <= HARMONIC_EXACT_LIMIT else mp.mpf(0)
    for c in u.classes:
        end = start + c.count
        h = harmonic_diff(end, start)
        if isinstance(total, Fraction) and isinstance(h, Fraction):
            total += h / c.probability
        else:
            with mp.workdps(FLOAT_DPS):
                total = to_mpf(total) + to_mpf(h) / to_mpf(c.probability)
        start = end
    return total


@dataclass(frozen=True)
class CouponBounds:
    lower: Fraction             # 1/p_1
    upper: object               # 2 * H_m / p_1
    estimate: object            # Xi
    berenbrink: tuple | None    # (Xi / (3e log2 log2 m), 2 Xi), m >= 3 only
    m: int


def coupon_bounds(u: UrnModel) -> CouponBounds:
    """Bounds and the rank-harmonic estimate for the full-collection time.

    The guaranteed-factor interval around Xi uses base-2 iterated logarithms;
    with natural logs the stated constant is not valid down at m=3 (where the
    uniform model already sits exactly at Xi).
    """
    p1 = u.p_min
    lower = 1 / p1
    if u.m <= HARMONIC_EXACT_LIMIT:
        h_m = harmonic_exact(u.m)
        upper = 2 * h_m / p1
    else:
        with mp.workdps(FLOAT_DPS):
            upper = 2 * harmonic_real(u.m) / to_mpf(p1)
    xi = xi_estimate(u)
    berenbrink = None
    if u.m >= 3:
        with mp.workdps(FLOAT_DPS):
            xf = to_mpf(xi)
            berenbrink = (float(xf / (3 * mp.e * log2log2(u.m))), float(2 * xf))
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


def _simulate_urns(u, statistic, trials, rng, k, full_collection_cap):
    cum = []
    acc = 0.0
    for c in u.classes:
        acc += float(c.probability) * c.count
        cum.append(acc)
    cum[-1] = 1.0
    counts = [c.count for c in u.classes]
    probs = [float(c.probability) for c in u.classes]

    def draw():
        i = bisect.bisect_right(cum, rng.random())
        i = min(i, len(counts) - 1)
        return i, rng.randrange(counts[i])

    values = []
    if statistic == "first_collision":
        for _ in range(trials):
            seen = set()
            t = 0
            while True:
                t += 1
                ball = draw()
                if ball in seen:
                    values.append(t)
                    break
                seen.add(ball)
    elif statistic == "full_collection":
        if u.m > full_collection_cap:
            raise ValueError(f"full collection needs m <= {full_collection_cap}, got {u.m}")
        for _ in range(trials):
            seen = [set() for _ in counts]
            remaining = u.m
            t = 0
            while remaining:
                t += 1
                i, j = draw()
                if j not in seen[i]:
                    seen[i].add(j)
                    remaining -= 1
            values.append(t)
    elif statistic == "distinct":
        for _ in range(trials):
            seen = set()
            for _ in range(k):
                seen.add(draw())
            values.append(len(seen))
    elif statistic == "coverage":
        for _ in range(trials):
            seen = set()
            cov = 0.0
            for _ in range(k):
                ball = draw()
                if ball not in seen:
                    seen.add(ball)
                    cov += probs[ball[0]]
            values.append(cov)
    return values


def _simulate_words(state, statistic, trials, rng_seed, k, n, full_collection_cap):
    from . import sampler as sampler_mod
    from .counting import build_counts

    if n is None:
        raise ValueError("word-level simulation needs n")
    worker_state = sampler_mod.SamplerState(state.table, rng_seed)
    values = []
    if statistic == "first_collision":
        for _ in range(trials):
            seen = set()
            t = 0
            while True:
                t += 1
                w = sampler_mod.sample_word(worker_state, n)
                if w in seen:
                    values.append(t)
                    break
                seen.add(w)
    elif statistic == "full_collection":
        ones = {t: Fraction(1) for t in state.table.grammar.terminals}
        m_n = build_counts(state.table.grammar, ones, n).total(n)
        if m_n > full_collection_cap:
            raise ValueError(f"full collection needs |L_n| <= {full_collection_cap}")
        m_n = int(m_n)
        for _ in range(trials):
            seen = set()
            t = 0
            while len(seen) < m_n:
                t += 1
                seen.add(sampler_mod.sample_word(worker_state, n))
            values.append(t)
    elif statistic in ("distinct", "coverage"):
        total = state.table.total(n)
        for _ in range(trials):
            seen = set()
            for _ in range(k):
                seen.add(sampler_mod.sample_word(worker_state, n))
            if statistic == "distinct":
                values.append(len(seen))
            else:
                cov = sum(sampler_mod.word_weight(w, state.table.weights) for w in seen)
                values.append(float(cov / total))
    return values


def simulate(model, statistic: str, trials: int, *, seed: int | None = None,
             k: int | None = None, n: int | None = None,
             full_collection_cap: int = 10 ** 7) -> SimResult:
    """Monte Carlo estimate of a redundancy statistic, with standard error.

    `model` is either an UrnModel (urn-level simulation) or a SamplerState
    (word-level simulation over its grammar, at length n).  The trials draw
    from substream 0 of `seed`, so identical calls give identical results.
    """
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if statistic in ("distinct", "coverage"):
        if k is None or k < 0:
            raise ValueError(f"statistic {statistic!r} needs k >= 0")
        if k == 0:
            return SimResult(statistic, 0.0, 0.0, trials, 0)
    sub = substream_seed(DEFAULT_SEED if seed is None else seed, 0)
    if isinstance(model, UrnModel):
        values = _simulate_urns(model, statistic, trials, random.Random(sub), k,
                                full_collection_cap)
    else:
        values = _simulate_words(model, statistic, trials, sub, k, n,
                                 full_collection_cap)
    mean = math.fsum(values) / trials
    if trials > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = float("inf")
    return SimResult(statistic, mean, stderr, trials, k)


# ---------------------------------------------------------------------------
# reports


def _fmt_number(x) -> str:
    if x is None:
        return ""
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    with mp.workdps(30):
        return mp.nstr(to_mpf(x), 12)


@dataclass(frozen=True)
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

    def to_text(self) -> str:
        header = ("statistic", "method", "n", "k", "value", "lower", "upper", "note")
        rows = [header]
        for e in self.entries:
            rows.append((e.statistic, e.method,
                         "" if e.n is None else str(e.n),
                         "" if e.k is None else str(e.k),
                         _fmt_number(e.value), _fmt_number(e.lower),
                         _fmt_number(e.upper), e.note))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["statistic,method,n,k,value,lower,upper"]
        for e in self.entries:
            lines.append(",".join([
                e.statistic, e.method,
                "" if e.n is None else str(e.n),
                "" if e.k is None else str(e.k),
                _fmt_number(e.value), _fmt_number(e.lower), _fmt_number(e.upper)]))
        return "\n".join(lines) + "\n"


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
    if len(u.classes) == 1:  # equal weights: the collection time is exact
        entries.append(ReportEntry("full_collection", "exact",
                                   value=coupon_uniform_exact(u.m) if u.m <= HARMONIC_EXACT_LIMIT
                                   else float(u.m * harmonic_real(u.m)),
                                   n=n, note="uniform m*H_m"))
    if k is not None:
        d = expected_distinct(u, k)
        entries.append(ReportEntry("distinct", "exact", value=d.value, n=n, k=k))
        entries.append(ReportEntry("distinct", "asymptotic", value=d.exponential,
                                   n=n, k=k, note="exponential form, O(1) error"))
        entries.append(ReportEntry("coverage", "exact",
                                   value=expected_coverage(u, k), n=n, k=k))
        fo = coverage_first_order(u, k)
        entries.append(ReportEntry("coverage", "first_order", value=fo.value,
                                   n=n, k=k,
                                   note="valid" if fo.valid else
                                   f"invalid: k*p_max={_fmt_number(fo.k_p_max)}"))
        entries.append(ReportEntry("occupied_weight", "exact",
                                   value=expected_occupied_weight(u, k), n=n, k=k))
    return AnalyticsReport(tuple(entries))
