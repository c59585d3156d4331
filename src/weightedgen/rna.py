"""Secondary-structure case study: plateau-constrained Motzkin languages with a
Boltzmann weight per base pair.

Structures of length n are balanced dot-parenthesis words in which every
innermost pair encloses at least `theta` dots (theta=1 in combinatorial work,
theta=3 in folding practice).  Attaching weight w to every opening parenthesis
makes statistical sampling of the thermodynamic ensemble a weighted generation
problem, and everything in this package applies.  This module adds the
pair/plateau structure census that yields weight spectra in polynomial time,
and the closed forms specific to the family: the explicit generating-function
discriminant, its series and its dominant root.  The analytics read growth
rates from the grammar's own equations (`asymptotics`); the closed forms are
independent checks of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import mp

from . import asymptotics, urns
from .counting import WeightSpectrum, _spectrum
from .grammar import Rule, WeightedGrammar, normalize
from .numerics import rational_from_real

# The default RT in kcal/mol: the gas constant 0.0019872 kcal/(mol*K) times
# 310.15 K (37 C).
DEFAULT_RT = 0.6163

# Significant digits of the rational snapshot of a pair weight.
PAIR_WEIGHT_DIGITS = 30

OPEN, CLOSE, DOT = "(", ")", "."


class RootBracketError(RuntimeError):
    """No sign change of the discriminant was found inside (0, 1)."""


def pair_weight(energy: float, rt: float = DEFAULT_RT) -> Fraction:
    """Boltzmann weight exp(-energy/RT) of one base pair, as a rational
    snapshot of PAIR_WEIGHT_DIGITS significant digits.

    Stabilizing energies are negative, so their weight exceeds 1 and more
    stable structures are sampled more often (the calibration test pins this
    convention).  A weight that is not finite and positive, or whose snapshot
    has a numerator or denominator of more than MAX_WEIGHT_DIGITS digits (the
    limit of weight literals), is refused with a ValueError.
    """
    if not rt > 0:
        raise ValueError(f"RT must be positive, got {rt}")
    with mp.workdps(PAIR_WEIGHT_DIGITS + 15):
        w = mp.e ** (-mp.mpf(repr(energy)) / mp.mpf(repr(rt)))
    try:
        weight = rational_from_real(w, PAIR_WEIGHT_DIGITS)
        if not weight > 0:
            raise ValueError("it is not positive")
    except ValueError as exc:
        raise ValueError(f"pair weight exp(-E/RT) at E={energy}, RT={rt}: {exc}") from None
    return weight


@dataclass(frozen=True)
class RnaModel:
    theta: int = 3
    pair_energy: float = -1.0
    rt: float = DEFAULT_RT

    def __post_init__(self):
        if self.theta < 1:
            raise ValueError("theta must be >= 1")

    @property
    def w(self) -> Fraction:
        return pair_weight(self.pair_energy, self.rt)


def rna_grammar(theta: int, w=Fraction(1)) -> WeightedGrammar:
    """Unambiguous grammar of theta-constrained structures, weight w on '('.

    S generates every structure; T generates the structures that may sit
    directly inside a pair, i.e. those whose leading dot run has length >= theta.
    """
    if theta < 1:
        raise ValueError("theta must be >= 1")
    rules = (
        Rule("S", (OPEN, "T", CLOSE, "S")),
        Rule("S", (DOT, "S")),
        Rule("S", ()),
        Rule("T", (OPEN, "T", CLOSE, "S")),
        Rule("T", (DOT, "T")),
        Rule("T", (DOT,) * theta),
    )
    return WeightedGrammar(frozenset({OPEN, CLOSE, DOT}), frozenset({"S", "T"}),
                           rules, "S", {OPEN: Fraction(w)})


def rna_delta(w, theta: int) -> list:
    """Coefficients (ascending) of the discriminant polynomial of the GF.

    Exact rationals whenever w is rational.  Degree 2*theta + 4.  Only the
    closed-form checks (`rna_series`, `rna_rho`) read it.
    """
    w = Fraction(w)
    coeffs = [Fraction(0)] * (2 * theta + 5)
    coeffs[0] = Fraction(1)
    coeffs[1] = Fraction(-4)
    coeffs[2] = 6 - 2 * w
    coeffs[3] += 4 * (w - 1)
    coeffs[4] += (w - 1) ** 2
    coeffs[theta + 2] += -2 * w
    coeffs[theta + 3] += 4 * w
    coeffs[theta + 4] += -2 * w * (1 + w)
    coeffs[2 * theta + 4] += w ** 2
    return coeffs


def _series_sqrt(coeffs, n: int) -> list:
    """Taylor coefficients of sqrt(f) for a series with f(0) = 1."""
    s = [Fraction(0)] * (n + 1)
    s[0] = Fraction(1)
    for m in range(1, n + 1):
        f_m = coeffs[m] if m < len(coeffs) else Fraction(0)
        conv = sum(s[j] * s[m - j] for j in range(1, m))
        s[m] = (f_m - conv) / 2
    return s


def rna_series(w, theta: int, n: int) -> list:
    """Total weights per length from the closed-form generating function.

    (1 - 2z + (w+1)z^2 - w z^(theta+2) - sqrt(Delta)) / (2 w z^2 (1-z)),
    expanded exactly; independent of the grammar DP, which must agree with it.
    The w in the denominator is the leading coefficient of the quadratic the
    generating function satisfies; dropping it scales every coefficient by w,
    which the DP consistency check rejects immediately.
    """
    w = Fraction(w)
    delta = rna_delta(w, theta)
    root = _series_sqrt(delta, n + 2)
    numer = [Fraction(0)] * (n + 3)
    numer[0] = Fraction(1)
    numer[1] = Fraction(-2)
    numer[2] = w + 1
    if theta + 2 <= n + 2:
        numer[theta + 2] -= w
    for i in range(n + 3):
        numer[i] -= root[i]
    if numer[0] != 0 or numer[1] != 0:
        raise AssertionError("closed-form numerator must vanish to order 2")
    shifted = [numer[i + 2] / (2 * w) for i in range(n + 1)]
    out = []
    acc = Fraction(0)
    for c in shifted:       # multiply by 1/(1-z): cumulative sums
        acc += c
        out.append(acc)
    return out


@functools.lru_cache(maxsize=256)
def rna_rho(w, theta: int) -> float:
    """Smallest root of the discriminant in (0, 1): the dominant singularity.

    A closed-form check, not an analytic of the package: the benchmark checks
    the singularity fit against it, and the tests check
    `asymptotics.system_rho` and `collision_growth_base` against it at
    moderate weights.  It fails at strong ones: at theta=3, E=-60 it returns
    rho = 7.297e-22, where `system_rho` and a 256-term coefficient fit both
    give 7.2375e-22, and at E=30, where rho is within 1e-9 of 1, it finds no
    root (RootBracketError).

    Roots come from the companion matrix (mpmath polyroots) and the smallest
    real candidate is polished by Newton iteration at high precision.  Plain
    grid bracketing is hopeless here: for strong pair weights the discriminant
    dips below zero only on an interval narrower than any reasonable grid
    step.  z=1 is always a (double) root and is excluded.  The root depends
    on (w, theta) only, so it is memoized.
    """
    coeffs = rna_delta(w, theta)
    # z=1 is always a double root of the discriminant; deflating it exactly
    # keeps the iteration away from the multiple root it converges worst on
    descending = list(reversed(coeffs))
    for _ in range(2):
        quotient = []
        acc = Fraction(0)
        for b in descending:
            acc = b + acc
            quotient.append(acc)
        if quotient.pop() != 0:
            break
        descending = quotient
    with mp.workdps(60):
        poly = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in descending]
        try:
            roots = mp.polyroots(poly, maxsteps=500, extraprec=300)
        except mp.NoConvergence as exc:  # pragma: no cover
            raise RootBracketError(f"root finding did not converge: {exc}") from None
        real = [r.real for r in roots
                if abs(r.imag) < mp.mpf("1e-30") and 0 < r.real < 1 - mp.mpf("1e-9")]
        if not real:
            samples = [(i / 8, float(mp.polyval(poly, mp.mpf(i) / 8))) for i in range(9)]
            raise RootBracketError(
                f"no discriminant root in (0,1); samples: {samples}")
        root = min(real)
        df = [c * (len(poly) - 1 - i) for i, c in enumerate(poly[:-1])]
        for _ in range(6):  # Newton polish, guarded against the z=1 double root
            step = mp.polyval(poly, root) / mp.polyval(df, root)
            if abs(step) > mp.mpf("0.01"):
                break
            root -= step
        result = float(root)
    if not 0 < result < 1:
        raise RootBracketError(f"polished root {result} left (0,1)")
    return result


# ---------------------------------------------------------------------------
# structure census by pairs and plateaux


def narayana(k: int, i: int) -> int:
    """Number of balanced parenthesis words with k pairs and i innermost pairs."""
    if k == 0:
        return 1 if i == 0 else 0
    if not 1 <= i <= k:
        return 0
    return comb(k, i) * comb(k, i - 1) // k


def structure_counts(n: int, theta: int) -> dict:
    """{(pairs k, plateaux i): count} for structures of length n.

    A structure with i plateaux shortens, by deleting theta dots inside each
    plateau, to an unconstrained Motzkin word of length n - theta*i whose
    dot-free skeleton has k pairs and i innermost pairs; dots then land in any
    of the 2k+1 gaps.  Hence count = narayana(k, i) * C(n - theta*i, 2k).
    Beware: transposing k and i in this formula looks plausible and is wrong;
    the enumeration tests pin this index convention.
    """
    _check_census(n, theta)
    out = {(0, 0): 1}  # the all-dots structure (empty word for n=0)
    for k in range(1, n // 2 + 1):
        for i in range(1, min(k, (n - 2 * k) // theta) + 1):  # n - theta*i >= 2k
            out[k, i] = narayana(k, i) * comb(n - theta * i, 2 * k)
    return out


def _check_census(n: int, theta: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if theta < 1:
        raise ValueError("theta must be >= 1")


def class_counts_by_pairs(n: int, theta: int) -> list:
    """[(k, number of structures with k pairs)], ascending in k: the sum of
    `structure_counts` over i, with narayana(k, i) * k = C(k, i) * C(k, i-1)
    and one division by k per k."""
    _check_census(n, theta)
    return [(0, 1)] + [
        (k, sum(comb(k, i) * comb(k, i - 1) * comb(n - theta * i, 2 * k)
                for i in range(1, min(k, (n - 2 * k) // theta) + 1)) // k)
        for k in range(1, (n - theta) // 2 + 1)]


def pair_spectrum(n: int, theta: int, w) -> WeightSpectrum:
    """Weight spectrum of length-n structures under pair weight w.

    Classes are powers w^k with the census counts; must agree exactly with the
    grammar-DP spectrum of rna_grammar(theta, w).
    """
    w = Fraction(w)
    counts = class_counts_by_pairs(n, theta)
    if w == 1:
        return _spectrum(n, (), {}, {(): sum(count for _, count in counts)})
    return _spectrum(n, (OPEN,), {OPEN: w}, {(k,): count for k, count in counts})


# ---------------------------------------------------------------------------
# model-level analytics


def rna_report(n: int, model: RnaModel, k: int | None = None) -> urns.AnalyticsReport:
    """Full analytics bundle for length-n structures under the model."""
    w = model.w
    grammar = normalize(rna_grammar(model.theta, w))
    spectrum = pair_spectrum(n, model.theta, w)
    u = urns.from_spectrum(spectrum)
    entries = [
        urns.ReportEntry("first_collision", "asymptotic",
                         value=asymptotics.collision_envelope(grammar, n),
                         n=n, note="finite-n plug-in from exact totals"),
        urns.ReportEntry("collision_growth_base", "asymptotic",
                         value=asymptotics.collision_growth_base(grammar),
                         note="per-length factor of the first-collision time"),
    ]
    entries.extend(urns.standard_report(u, n=n, k=k).entries)
    return urns.AnalyticsReport(tuple(entries))


def coverage_rows(model: RnaModel, k: int, n_values) -> list:
    """(n, k, expected coverage, expected distinct fraction) per length, as
    floats from the double-precision pass `urns.occupancy`."""
    w = model.w
    rows = []
    for n in n_values:
        occ = urns.occupancy(urns.from_spectrum(pair_spectrum(n, model.theta, w)), k,
                             exact=False)
        rows.append((n, k, float(occ.coverage), float(occ.distinct) / k if k else 0.0))
    return rows
