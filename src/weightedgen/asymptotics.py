"""Singularity estimation from coefficient tails and from the grammar's
polynomial system, growth-condition probes, and the finite-n first-collision
estimates.

Coefficient sequences of the form c_n ~ kappa * rho^(-n) * n^(-k) are fitted
in two stages: rho from consecutive-ratio extrapolation (separately on the
even and odd subsequences, which detects period-2 behavior), then (kappa, k)
from a log-log least-squares fit of c_n * rho^n on the tail.  Ratio errors
decay like 1/n, so the extrapolation is Richardson/Neville in 1/n rather than
Aitken (geometric-error) acceleration; anything cruder leaks an O(1/n) bias
on rho that the exponent fit then amplifies by a factor of n.

`system_rho` reads rho from the source grammar's polynomial system
y = F(z, y) instead: Newton iteration from y = 0 converges exactly below rho
(the oracle of Pivoteau, Salvy and Soria, "Algorithms for combinatorial
structures: well-founded systems and Newton iterations", JCTA 119, 2012), and
Newton on {y = F(z, y), det(I - J) = 0} polishes the bracket.  The oracle
certifies each result within a relative CERTIFY = 1e-10.

Every analytic reads the grammar's own weights W (reweight with
`with_weights` before `normalize`): `fit_power`, the fit of the table for W^j
with the tail length and precision it is given; the condition probes and
`collision_growth_base` through `system_rho` and `max_weight_growth`, which
build no table.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from statistics import linear_regression

from mpmath import mp

from .counting import build_counts, second_moment
from .grammar import has_positive_pump
from .numerics import collision_plug_in, to_mpf


# tail share of the log-log fit, fewest usable coefficients, ratios per
# extrapolation
FIT_FRACTION = 0.25
MIN_TERMS = 64
RATIO_DEPTH = 10
# relative slack of the singularity-separation probe rho^k < rho_k
SEPARATION_MARGIN = 1e-3
# fewest bits of coefficient precision the ratio extrapolation can carry
MIN_FIT_PRECISION = 128
# relative width at which the bisection for log M stops
GROWTH_TOLERANCE = 1e-15
# Newton steps per oracle call; a step below CONVERGED times |y| has
# converged, and one that stops shrinking below STALL times |y| has stalled
ORACLE_STEPS = 200
CONVERGED = 1e-14
STALL = 1e-6
# relative bracket width at the first polish, its shrink factor between
# polishes, Newton steps per polish, and the relative offset of the two
# probes that certify a polished rho
POLISH_WIDTH = 3e-2
POLISH_RETRY = 1e-2
POLISH_STEPS = 12
CERTIFY = 1e-10
# the bracket search probes z = 2^e and 2^-e times the first probe, z = 1;
# doubles stop at 2^1023, mpfs go on to cover weights of 4300 digits
SEARCH_EXPONENTS = tuple(2 ** k - 1 for k in range(1, 18))


class InsufficientData(ValueError):
    """Too few (eventually positive) coefficients for a stable estimate."""


@dataclass(frozen=True)
class SingularityEstimate:
    rho: float
    kappa: float
    k_exp: float
    converged: bool
    residual: float        # RMS of the log-log fit residuals
    tail_len: int
    parity_gap: float      # relative spread between even/odd rho estimates
    notes: tuple = ()


def _neville(points, x0=0.0):
    """Polynomial extrapolation of (x, y) points to x0 (mpf arithmetic)."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            ys[i] = ((x0 - xs[i + level]) * ys[i] - (x0 - xs[i]) * ys[i + 1]) \
                / (xs[i] - xs[i + level])
    return ys[0]


def _ratio_limit(values, indices):
    """Extrapolated limit of c_n / c_{n+2} over the given index subsequence."""
    pts = [(mp.mpf(1) / n, values[n] / values[n + 2])
           for n in [n for n in indices if n][-RATIO_DEPTH:]]
    if len(pts) < 3:
        return None
    return _neville(pts)


def estimate_singularity(coeffs) -> SingularityEstimate:
    """Estimate (rho, kappa, k) from a coefficient sequence.

    Needs at least MIN_TERMS eventually-positive coefficients.  Disagreement
    between the even- and odd-subsequence estimates of rho lowers `converged`
    instead of raising: multiple dominant singularities on one circle are a
    diagnosis, not a crash.

    The coefficients need at least MIN_FIT_PRECISION = 128 bits: the
    RATIO_DEPTH-point extrapolation amplifies their rounding, and `converged`
    does not see it.  On Motzkin W=2 (256 terms), 64-bit coefficients give
    rho 0.249990255851 as converged, 96-bit ones are off in the 11th digit of
    kappa, and 128-bit ones agree with 256-bit ones on every printed digit.
    """
    n_total = len(coeffs)
    if n_total < MIN_TERMS:
        raise InsufficientData(f"need at least {MIN_TERMS} coefficients, got {n_total}")

    notes = []
    with mp.workprec(350):
        vals = [to_mpf(c) for c in coeffs]
        start = n_total
        for i in range(n_total - 1, -1, -1):
            if vals[i] <= 0:
                break
            start = i
        tail_len = n_total - start
        if tail_len < MIN_TERMS:
            raise InsufficientData(
                f"only {tail_len} trailing positive coefficients, need {MIN_TERMS}")
        if start > 0:
            notes.append(f"ignored {start} leading coefficients")

        per_parity = {}
        for parity in (0, 1):
            indices = [n for n in range(start, n_total - 2) if n % 2 == parity]
            limit = _ratio_limit(vals, indices)
            if limit is not None and limit > 0:
                per_parity[parity] = mp.sqrt(limit)

        if not per_parity:
            raise InsufficientData("could not form coefficient ratios")
        if len(per_parity) == 2:
            re_, ro = per_parity[0], per_parity[1]
            rho_mp = (re_ + ro) / 2
            parity_gap = float(abs(re_ - ro) / rho_mp)
        else:
            rho_mp = next(iter(per_parity.values()))
            parity_gap = float("inf")
            notes.append("single-parity support; period-2 structure suspected")
        converged = parity_gap < 1e-3

        # log-log fit of c_n * rho^n = kappa * n^(-k) on the tail
        window = max(16, int(FIT_FRACTION * tail_len))
        window = min(window, tail_len)
        log_rho = mp.log(rho_mp)
        xs, ys = [], []
        for n in range(n_total - window, n_total):
            xs.append(float(mp.log(n)))
            ys.append(float(mp.log(vals[n]) + n * log_rho))
        rho = float(rho_mp)

    slope, intercept = linear_regression(xs, ys)
    residual = math.sqrt(math.fsum((y - intercept - slope * x) ** 2
                                   for x, y in zip(xs, ys)) / len(xs))
    return SingularityEstimate(rho=rho, kappa=math.exp(intercept),
                               k_exp=-slope, converged=converged,
                               residual=residual, tail_len=tail_len,
                               parity_gap=parity_gap, notes=tuple(notes))


def fit_power(grammar, j: int, n_terms: int, precision: int) -> SingularityEstimate:
    """Singularity fit of the n_terms-term table, at `precision` bits, for
    the grammar's weights raised to the power j."""
    weights = {t: w ** j for t, w in grammar.weights.items()}
    table = build_counts(grammar, weights, n_terms, precision)
    return estimate_singularity(table.coefficients())


# ---------------------------------------------------------------------------
# the dominant singularity from the grammar's polynomial system


def _system(g, power: int):
    """The system y = F(z, y) of the source grammar g for the weights w^power,
    with z scaled by the largest of them, W: (unknowns, terms, W).

    Each rule is one term (lhs, c, d, children), the monomial
    c * z^d * prod(y[b] for b in children) of y[lhs], where d counts the
    rule's letters and c is the product of their weights over W.  The scaled
    system's rho is W times the grammar's.
    """
    index = {nt: i for i, nt in enumerate(sorted(g.nonterminals))}
    weights = {t: w ** power for t, w in g.weights.items()}
    top = max(weights.values())
    terms = []
    for r in g.rules:
        c, d, children = Fraction(1), 0, []
        for s in r.rhs:
            if s in index:
                children.append(index[s])
            else:
                c *= weights[s] / top
                d += 1
        terms.append((index[r.lhs], c, d, tuple(children)))
    return len(index), terms, top


def _evaluate(terms, n: int, z, y, u=None):
    """F(z, y) and the Jacobian J = dF/dy; given a vector u, also dF/dz,
    (dJ/dz) u and the matrix sum_b u_b dJ[.][b]/dy, which the polish needs.
    Works on any number type: z and y are floats or mpfs."""
    zero = z - z
    f = [zero] * n
    jac = [[zero] * n for _ in range(n)]
    if u is not None:
        fz, jzu, hess = [zero] * n, [zero] * n, [[zero] * n for _ in range(n)]
    for a, c, d, children in terms:
        base = c
        for _ in range(d):  # z^d may overflow where c * z^d does not
            base *= z
        # pre[i] = base * y[children[0]] * ... * y[children[i - 1]]
        pre = [base]
        for b in children:
            pre.append(pre[-1] * y[b])
        f[a] += pre[-1]
        after = 1
        for i in range(len(children) - 1, -1, -1):
            jac[a][children[i]] += pre[i] * after
            after *= y[children[i]]
        if u is None:
            continue
        if d:
            fz[a] += pre[-1] * d / z
        for i, b in enumerate(children):
            if d:
                jzu[a] += base * d / z * u[b] * math.prod(
                    y[e] for m, e in enumerate(children) if m != i)
            for k, e in enumerate(children):
                if k != i:
                    hess[a][e] += base * u[b] * math.prod(
                        y[x] for m, x in enumerate(children) if m not in (i, k))
    if u is None:
        return f, jac
    return f, jac, fz, jzu, hess


def _solve(a, b, m_matrix: bool):
    """x with a x = b by Gaussian elimination, or None.

    With m_matrix, no rows are swapped and a pivot <= 0 gives None: for a
    matrix I - J with J >= 0 that happens exactly when the spectral radius of
    J is 1 or more, i.e. unless I - J is a nonsingular M-matrix.  Otherwise
    rows are swapped for the largest pivot and only a zero pivot gives None.
    """
    n = len(b)
    a = [row[:] + [v] for row, v in zip(a, b)]
    for col in range(n):
        if not m_matrix:
            best = max(range(col, n), key=lambda r: abs(a[r][col]))
            a[col], a[best] = a[best], a[col]
        pivot = a[col][col]
        if pivot <= 0 if m_matrix else pivot == 0:
            return None
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            if factor:
                for k in range(col, n + 1):
                    a[r][k] -= factor * a[col][k]
    x = [None] * n
    for r in range(n - 1, -1, -1):
        x[r] = (a[r][n] - sum(a[r][k] * x[k] for k in range(r + 1, n))) / a[r][r]
    return x


def _identity_minus(jac):
    return [[(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(jac)]


def _oracle(terms, n: int, z, y):
    """Newton iteration for y = F(z, y) from y: its limit when z is below rho,
    None when z is above.

    y must be 0 or the solution at a smaller z.  Below rho the iterates rise
    monotonically to the solution; above it there is none, and they rise
    until I - J stops being a nonsingular M-matrix (det(I - J) <= 0 when
    there is one unknown), or overflow.  Only that decides "above": near rho
    the rounding of F(y) - y is amplified by 1/det(I - J), so a step that
    stops shrinking at rounding level means "converged", not "diverged".
    """
    prev = move = math.inf
    size = 0
    for _ in range(ORACLE_STEPS):
        f, jac = _evaluate(terms, n, z, y)
        step = _solve(_identity_minus(jac), [a - b for a, b in zip(f, y)], True)
        if step is None:
            return None
        # judged only once I - J has passed at the point the step reached
        if move <= CONVERGED * size or prev <= move <= STALL * size:
            return y
        y = [a + s for a, s in zip(y, step)]
        prev, move = move, max(abs(s) for s in step)
        size = max(abs(v) for v in y)
        if move - move != 0:  # overflowed to inf or nan
            return None
    return y


def _polish(terms, n: int, lo, hi, y):
    """Newton on y = F(z, y), (I - J) u = 0 and sum(u) = 1 from z = lo, the
    oracle's solution y there and u from (I - J) u = 1: the z it converges
    to within [lo, hi], else None.

    u is the Perron vector of J at rho, where det(I - J) = 0.  An iterate
    with a negative component of y has left the combinatorial branch for a
    spurious fold.  A pole (y infinite at rho) has no solution at all, yet
    from a narrow enough bracket its z iterates still settle on rho while y
    grows: S -> a S | b is certified at the 7th polish.
    """
    z = lo
    _, jac = _evaluate(terms, n, z, y)
    u = _solve(_identity_minus(jac), [z - z + 1] * n, True)
    if u is None:
        return None
    total = sum(u)
    u = [v / total for v in u]
    for _ in range(POLISH_STEPS):
        f, jac, fz, jzu, hess = _evaluate(terms, n, z, y, u)
        m = _identity_minus(jac)
        rows = ([[-fz[a]] + m[a] + [0] * n for a in range(n)]
                + [[-jzu[a]] + [-v for v in hess[a]] + m[a] for a in range(n)]
                + [[0] * (n + 1) + [1] * n])
        rhs = ([f[a] - y[a] for a in range(n)]
               + [-sum(v * w for v, w in zip(m[a], u)) for a in range(n)]
               + [1 - sum(u)])
        dx = _solve(rows, rhs, False)
        if dx is None:
            return None
        z += dx[0]
        y = [a + s for a, s in zip(y, dx[1:n + 1])]
        u = [a + s for a, s in zip(u, dx[n + 1:])]
        if min(y) < 0 or z - z != 0:
            return None
        if abs(dx[0]) <= CONVERGED * abs(z):
            return z if lo <= z <= hi else None
    return None


def _scaled_rho(terms, n: int, num):
    """rho of the scaled system in the number type num (float or to_mpf).

    The oracle brackets rho, first by z = 2^(+-e) from z = 1, then by
    geometric bisection.  Once the bracket is within POLISH_WIDTH, and again
    each time it shrinks by POLISH_RETRY more, the polish proposes a z; it is
    returned if the oracle puts z (1 - CERTIFY) below rho and z (1 + CERTIFY)
    above.  If no polish is certified, bisection runs to the last bit, until
    the bracket's midpoint is one of its ends; with the polish switched off
    it alone gives rho within CERTIFY on the Motzkin, pole and Dyck grammars.
    """
    terms = [(a, num(c), d, children) for a, c, d, children in terms]
    one = num(1)
    zeros = [one - one] * n
    lo = hi = y_lo = None

    def probe(z):
        nonlocal lo, hi, y_lo
        y = _oracle(terms, n, z, zeros if lo is None or z < lo else y_lo)
        if y is None:
            hi = z
        else:
            lo, y_lo = z, y
        return y is not None

    exponents = [e for e in SEARCH_EXPONENTS if num is not float or e < sys.float_info.max_exp]
    up = probe(one)
    for e in exponents:
        if lo is not None and hi is not None:
            break
        probe(one * 2 ** e if up else one / 2 ** e)
    if lo is None or hi is None:
        raise OverflowError(f"no singularity within a factor 2^{exponents[-1]} of the "
                            "largest weight")
    width = POLISH_WIDTH
    while True:
        if hi <= lo * (1 + width):
            width = (hi / lo - 1) * POLISH_RETRY
            z = _polish(terms, n, lo, hi, y_lo)
            if z is not None:
                below, above = z * (1 - CERTIFY), z * (1 + CERTIFY)
                if (below <= lo or probe(below)) and (above >= hi or not probe(above)):
                    return z
        mid = (lo ** 0.5) * (hi ** 0.5)
        if not lo < mid < hi:
            return (lo + hi) / 2
        probe(mid)


def _infinite(g):
    if not has_positive_pump(g, lambda t: 1.0):
        raise InsufficientData("a finite language has no singularity")


@functools.lru_cache(maxsize=256)
def _system_rho_scaled(g, power: int):
    """(rho_s, W): rho = rho_s / W for the source grammar g and the weights
    w^power, whose largest is W.  In doubles; on 53-bit mpfs, whose exponents
    do not overflow, when a scaled term coefficient leaves the double range.
    Memoised per (source grammar, power), so `system_rho`, `check_conditions`
    and `collision_growth_base` search each rho once."""
    _infinite(g)
    n, terms, top = _system(g, power)
    num = float if all(c >= sys.float_info.min for _, c, _, _ in terms) else to_mpf
    with mp.workprec(53):
        return _scaled_rho(terms, n, num), top


def system_rho(grammar, power: int = 1) -> float:
    """The dominant singularity rho (the radius of convergence of the
    generating function) for the grammar's weights raised to `power`, read
    from the polynomial system of its source grammar.

    The oracle certifies the result within a relative CERTIFY = 1e-10; the
    tests hold it to 1e-10 of the closed forms, and the polish usually lands
    within a few units of the last place.  A finite language has no
    singularity (InsufficientData), and a rho outside the normal double range
    raises OverflowError.
    """
    scaled, top = _system_rho_scaled(grammar.original, power)
    with mp.workprec(53):
        rho = float(to_mpf(scaled) / to_mpf(top))
    if not sys.float_info.min <= rho < math.inf:
        raise OverflowError(f"rho for the weights to the power {power} is outside "
                            "the double range")
    return rho


def max_weight_growth(grammar) -> float:
    """M = lim maxweight(n)^(1/n): log M is the largest mean log weight per
    letter over the pumps A =>* uAv, a maximum cycle mean in the (max, +)
    semiring (Karp, Discrete Math. 23, 1978).  With letters worth
    log w_t - lam, `has_positive_pump` tells lam < log M from lam >= log M;
    M is the upper end of the bracket that bisection of [min log w, max log w]
    leaves at a width of GROWTH_TOLERANCE * max(1, |log M|).  A finite
    language has none (InsufficientData).
    """
    g = grammar.original
    _infinite(g)
    logs = {t: math.log(w.numerator) - math.log(w.denominator) for t, w in g.weights.items()}
    lo, hi = min(logs.values()), max(logs.values())
    while hi - lo > GROWTH_TOLERANCE * max(1.0, abs(hi)):
        mid = (lo + hi) / 2
        if has_positive_pump(g, lambda t: logs[t] - mid):
            lo = mid
        else:
            hi = mid
    return math.exp(hi)


def collision_growth_base(grammar) -> float:
    """gamma = sqrt(rho_{W^2}) / rho_W >= 1, the per-length factor of the
    expected first-collision time total * sqrt(pi/2) / sqrt(total_sq), since
    the totals grow like rho^(-n).  Read as sqrt(rho_s2) / rho_s1
    (`_system_rho_scaled`), which stays in range where the rho do not."""
    rho_s1, _ = _system_rho_scaled(grammar.original, 1)
    rho_s2, _ = _system_rho_scaled(grammar.original, 2)
    with mp.workprec(53):
        return float(mp.sqrt(to_mpf(rho_s2)) / to_mpf(rho_s1))


# ---------------------------------------------------------------------------
# growth-condition probes


@dataclass(frozen=True)
class ConditionProbe:
    holds: bool | None
    detail: str
    data: tuple = ()


@dataclass(frozen=True)
class ConditionReport:
    diversity: ConditionProbe        # max word probability decays exponentially: rho * M < 1
    log_positive: ConditionProbe     # all weights > 1 (checked exactly)
    bounded_dependency: ConditionProbe  # rho_W^k < rho_{W^k} for k = 2, 3

    @property
    def all_pass(self) -> bool:
        return all(p.holds for p in
                   (self.diversity, self.log_positive, self.bounded_dependency))

    def summary(self) -> str:
        def tag(p):
            return {True: "pass", False: "FAIL", None: "inconclusive"}[p.holds]
        return "\n".join([
            f"diversity (rho*M < 1, certified): {tag(self.diversity)} - {self.diversity.detail}",
            f"log-positive weights (exact): {tag(self.log_positive)} - {self.log_positive.detail}",
            f"bounded dependency (rho^k < rho_k, certified): {tag(self.bounded_dependency)} - "
            f"{self.bounded_dependency.detail}",
        ])


def _log_positive(weights) -> bool:
    """No weight below 1 and at least one above: weight vectors are equivalent
    up to a positive constant, so the check is on this normalized form."""
    return all(w >= 1 for w in weights.values()) and any(w > 1 for w in weights.values())


def check_conditions(grammar) -> ConditionReport:
    """Probe the three growth conditions behind the collision asymptotics.

    None builds a count table.  The weight positivity check is exact.  The
    largest word probability maxweight(n) / total(n) behaves like (rho * M)^n
    up to subexponential factors: it decays exponentially, with base
    beta = 1 / (rho * M), exactly when rho * M < 1, and as rho * M <= 1 the
    probe passes when rho * M < 1 - 2 * CERTIFY.  The singularity-separation
    probe compares rho_W^k with rho_{W^k} for k = 2, 3, with a relative slack
    of SEPARATION_MARGIN.  Each rho is certified within a relative CERTIFY
    (`system_rho`).  Both probes are inconclusive for a finite language and
    for a rho outside the double range.
    """
    weights = grammar.weights
    below = sorted(t for t, w in weights.items() if w < 1)
    if _log_positive(weights):
        c2 = ConditionProbe(True, "weights normalized above 1")
    elif below:
        c2 = ConditionProbe(False, f"weights below 1 on {below}")
    else:
        c2 = ConditionProbe(False, "all weights equal 1 (uniform distribution)")

    try:
        rho = {1: system_rho(grammar, 1)}
    except (InsufficientData, OverflowError) as exc:
        probe = ConditionProbe(None, str(exc))
        return ConditionReport(probe, c2, probe)
    m = max_weight_growth(grammar)
    c1 = ConditionProbe(rho[1] * m < 1 - 2 * CERTIFY,
                        f"decay base beta={1 / (rho[1] * m):.6g} from rho={rho[1]:.6g}, "
                        f"M={m:.6g}", (rho[1], m))

    try:
        rho |= {j: system_rho(grammar, j) for j in (2, 3)}
        checks = [(k, rho[1] ** k < rho[k] * (1 + SEPARATION_MARGIN), rho[1] ** k, rho[k])
                  for k in (2, 3)]
        ok = all(c[1] for c in checks)
        detail = "; ".join(f"rho^{k}={a:.6g} vs rho_k={b:.6g}" for k, _, a, b in checks)
        c3 = ConditionProbe(ok, detail, tuple(checks))
    except OverflowError as exc:
        c3 = ConditionProbe(None, str(exc))

    return ConditionReport(c1, c2, c3)


# ---------------------------------------------------------------------------
# finite-n first-collision estimates


@dataclass(frozen=True)
class CollisionEstimates:
    plug_in: float        # from exact totals at this n
    fitted: float         # from the fitted singularity constants
    relative_gap: float
    agree: bool           # gap within COLLISION_GAP_TOLERANCE


# Largest relative gap at which the two first-collision estimates agree.
COLLISION_GAP_TOLERANCE = 0.05


def collision_estimates(grammar, n: int, base: SingularityEstimate,
                        squared: SingularityEstimate) -> CollisionEstimates:
    """Both first-collision estimates at length n >= 1 side by side: the
    finite-n plug-in, and the asymptote
    sqrt(pi*kappa_W^2 / (2*kappa_{W^2})) * gamma^n * n^(k_{W^2}/2 - k_W)
    from `base` and `squared`, the grammar's `fit_power` fits for W and W^2,
    with gamma = sqrt(rho_{W^2}) / rho_W read from those fits.

    The finite-n plug-in and the fitted asymptote describe the same curve, so
    a gap beyond COLLISION_GAP_TOLERANCE flags either a short coefficient tail
    or an n too small for the asymptotic regime.  A W^2 kappa that underflows
    to 0.0 raises InsufficientData.
    """
    if n < 1:
        raise ValueError(f"collision length must be at least 1, got {n}")
    if not squared.kappa:
        raise InsufficientData("kappa of the W^2 fit underflows to 0.0 in a double: "
                               "no fitted first-collision estimate")
    plug = collision_envelope(grammar, n)
    gamma = (squared.rho ** 0.5) / base.rho
    with mp.workdps(40):
        coeff = mp.sqrt(mp.pi * mp.mpf(base.kappa) ** 2 / (2 * mp.mpf(squared.kappa)))
        expo = squared.k_exp / 2 - base.k_exp
        fitted = float(coeff * mp.power(gamma, n) * mp.power(n, expo))
    gap = abs(fitted - plug) / plug
    return CollisionEstimates(plug, fitted, gap, gap <= COLLISION_GAP_TOLERANCE)


def collision_envelope(grammar, n: int) -> float:
    """Expected first-collision time at length n: sqrt(pi / (2 * alpha_2)).

    alpha_2 = total(w^2) / total(w)^2 is the exact second moment of the
    length-n distribution (`counting.second_moment` of the grammar's exact
    table), so the weight spectrum is never materialized.
    """
    return float(collision_plug_in(second_moment(build_counts(grammar, None, n), n)))

