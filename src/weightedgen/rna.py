"""Secondary-structure case study: plateau-constrained Motzkin languages with a
Boltzmann weight per base pair.

Structures of length n are balanced dot-parenthesis words in which every
innermost pair encloses at least `theta` dots (theta=1 in combinatorial work,
theta=3 in folding practice).  Attaching weight w to every opening parenthesis
makes statistical sampling of the thermodynamic ensemble a weighted generation
problem, and everything in this package applies.  This module adds the closed
forms specific to the family: the explicit generating-function discriminant,
its dominant root, and the pair/plateau structure census that yields weight
spectra in polynomial time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import mp

from . import asymptotics, urns
from .counting import WeightClass, WeightSpectrum
from .grammar import Rule, WeightedGrammar, normalize
from .numerics import rational_from_real

# Gas constant in kcal/(mol*K) and the default RT (310.15 K, i.e. 37 C).
R_KCAL = 0.0019872
DEFAULT_RT = 0.6163

OPEN, CLOSE, DOT = "(", ")", "."


class RootBracketError(RuntimeError):
    """No sign change of the discriminant was found inside (0, 1)."""


def pair_weight(energy: float, rt: float = DEFAULT_RT, *,
                invert_sign: bool = True, digits: int = 30) -> Fraction:
    """Boltzmann weight of one base pair, as a rational snapshot.

    Stabilizing energies are negative; with invert_sign the weight is
    exp(-energy/RT) > 1, so more stable structures are sampled more often
    (the calibration test pins this convention).  The literal
    exp(+energy/RT) < 1 convention remains available behind the flag.
    """
    if rt <= 0:
        raise ValueError("RT must be positive")
    sign = -1 if invert_sign else 1
    with mp.workdps(digits + 15):
        w = mp.e ** (sign * mp.mpf(repr(energy)) / mp.mpf(repr(rt)))
    return rational_from_real(w, digits)


@dataclass(frozen=True)
class RnaModel:
    theta: int = 3
    pair_energy: float = -1.0
    rt: float = DEFAULT_RT
    invert_sign: bool = True
    digits: int = 30

    def __post_init__(self):
        if self.theta < 1:
            raise ValueError("theta must be >= 1")

    @property
    def w(self) -> Fraction:
        return pair_weight(self.pair_energy, self.rt,
                           invert_sign=self.invert_sign, digits=self.digits)


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

    Exact rationals whenever w is rational.  Degree 2*theta + 4.
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


def rna_rho(w, theta: int) -> float:
    """Smallest root of the discriminant in (0, 1): the dominant singularity.

    Roots come from the companion matrix (mpmath polyroots) and the smallest
    real candidate is polished by Newton iteration at high precision.  Plain
    grid bracketing is hopeless here: for strong pair weights the discriminant
    dips below zero only on an interval narrower than any reasonable grid
    step.  z=1 is always a (double) root and is excluded.
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
    if n < 0:
        raise ValueError("n must be nonnegative")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    out = {(0, 0): 1}  # the all-dots structure (empty word for n=0)
    for k in range(1, n // 2 + 1):
        for i in range(1, k + 1):
            reduced = n - theta * i
            if reduced < 2 * k:
                continue
            s = narayana(k, i) * comb(reduced, 2 * k)
            if s:
                out[(k, i)] = s
    return out


def class_counts_by_pairs(n: int, theta: int) -> list:
    """[(k, number of structures with k pairs)], ascending in k."""
    totals = {}
    for (k, _), s in structure_counts(n, theta).items():
        totals[k] = totals.get(k, 0) + s
    return sorted(totals.items())


def pair_spectrum(n: int, theta: int, w) -> WeightSpectrum:
    """Weight spectrum of length-n structures under pair weight w.

    Classes are powers w^k with the census counts; must agree exactly with the
    grammar-DP spectrum of rna_grammar(theta, w).
    """
    w = Fraction(w)
    weighted = (OPEN,) if w != 1 else ()
    groups = {}
    for k, count in class_counts_by_pairs(n, theta):
        chi = w ** k
        entry = groups.setdefault(chi, [0, set()])
        entry[0] += count
        entry[1].add((k,) if weighted else ())
    classes = tuple(WeightClass(chi, cnt, tuple(sorted(comps)))
                    for chi, (cnt, comps) in sorted(groups.items()))
    return WeightSpectrum(n, weighted, classes)


# ---------------------------------------------------------------------------
# model-level analytics


def gamma_from_rho(model: RnaModel) -> float:
    """Collision growth base sqrt(rho_{w^2}) / rho_w via the closed-form roots.

    This is the per-length factor of the expected first-collision time
    total * sqrt(pi/2) / sqrt(total_sq): the totals grow like rho^(-n), so the
    ratio grows like (sqrt(rho_{w^2}) / rho_w)^n, which exceeds 1 exactly when
    the squared-weight singularity sits strictly beyond the square of the base
    one; the inverted ratio would decay instead of grow.
    """
    w = model.w
    return rna_rho(w * w, model.theta) ** 0.5 / rna_rho(w, model.theta)


def rna_report(n: int, model: RnaModel, k: int | None = None) -> urns.AnalyticsReport:
    """Full analytics bundle for length-n structures under the model."""
    w = model.w
    grammar = normalize(rna_grammar(model.theta, w))
    spectrum = pair_spectrum(n, model.theta, w)
    u = urns.from_spectrum(spectrum)
    entries = [
        urns.ReportEntry("first_collision", "asymptotic",
                         value=asymptotics.collision_envelope(grammar, None, n),
                         n=n, note="finite-n plug-in from exact totals"),
        urns.ReportEntry("collision_growth_base", "asymptotic",
                         value=gamma_from_rho(model),
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
        occ = urns.occupancy(urns.from_spectrum(pair_spectrum(n, model.theta, w)), k)
        rows.append((n, k, float(occ.coverage), float(occ.distinct) / k if k else 0.0))
    return rows
