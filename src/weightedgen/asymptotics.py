"""Singularity estimation from coefficient tails, growth-condition probes, and
the finite-n first-collision estimates.

Coefficient sequences of the form c_n ~ kappa * rho^(-n) * n^(-k) are fitted
in two stages: rho from consecutive-ratio extrapolation (separately on the
even and odd subsequences, which detects period-2 behavior), then (kappa, k)
from a log-log least-squares fit of c_n * rho^n on the tail.  Ratio errors
decay like 1/n, so the extrapolation is Richardson/Neville in 1/n rather than
Aitken (geometric-error) acceleration; anything cruder leaks an O(1/n) bias
on rho that the exponent fit then amplifies by a factor of n.

Every analytic reads the grammar's own weights W (reweight with
`with_weights` before `normalize`) through `_fit_power`, the fit of the table
for W^j: j = 1 and 2 for the growth base, j = 1, 2 and 3 for the condition
probes.  Only `growth_gamma` takes a tail length and precision; the probes fit
CONDITION_TERMS = 160 terms at 192 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .counting import _extreme_row, build_counts, moment
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
# lengths of the diversity probe; tail length and bits of the separation fits
LADDER = (8, 16, 32, 64)
CONDITION_TERMS = 160
CONDITION_PRECISION = 192


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

    import numpy as np  # only the fits load numpy, not every importer of the package
    design = np.vstack([np.ones(len(xs)), np.asarray(xs)]).T
    sol, *_ = np.linalg.lstsq(design, np.asarray(ys), rcond=None)
    intercept, slope = sol
    resid = np.asarray(ys) - design @ sol
    residual = float(np.sqrt(np.mean(resid ** 2)))
    return SingularityEstimate(rho=rho, kappa=float(np.exp(intercept)),
                               k_exp=float(-slope), converged=converged,
                               residual=residual, tail_len=tail_len,
                               parity_gap=parity_gap, notes=tuple(notes))


# ---------------------------------------------------------------------------
# growth base of the collision time


@dataclass(frozen=True)
class GammaEstimate:
    gamma: float
    base: SingularityEstimate       # for the weight vector itself
    squared: SingularityEstimate    # for the squared weights
    log_positive: bool              # weights normalized above 1 (estimate's regime)
    converged: bool

    def collision_asymptote(self, n: int) -> float:
        """First-collision envelope from the fitted constants alone:
        sqrt(pi*kappa_W^2 / (2*kappa_{W^2})) * gamma^n * n^(k_{W^2}/2 - k_W)."""
        with mp.workdps(40):
            coeff = mp.sqrt(mp.pi * mp.mpf(self.base.kappa) ** 2
                            / (2 * mp.mpf(self.squared.kappa)))
            expo = self.squared.k_exp / 2 - self.base.k_exp
            return float(coeff * mp.power(self.gamma, n) * mp.power(n, expo))


def _fit_power(grammar, j: int, n_terms: int, precision: int) -> SingularityEstimate:
    """Singularity fit of the n_terms-term table for the grammar's weights
    raised to the power j = 1, 2 or 3."""
    weights = {t: w ** j for t, w in grammar.weights.items()}
    table = build_counts(grammar, weights, n_terms, precision)
    return estimate_singularity(table.coefficients())


def _log_positive(weights) -> bool:
    """No weight below 1 and at least one above: weight vectors are equivalent
    up to a positive constant, so the check is on this normalized form."""
    return all(w >= 1 for w in weights.values()) and any(w > 1 for w in weights.values())


def growth_gamma(grammar, *, n_terms: int = 256, precision: int = 256) -> GammaEstimate:
    """gamma = sqrt(rho_{W^2}) / rho_W, from two coefficient-tail estimates.

    gamma is the per-length growth factor of the first-collision envelope
    total * sqrt(pi/2) / sqrt(total_sq), since the totals grow like rho^(-n).
    It exceeds 1 exactly in the bounded-dependency regime rho_W^2 < rho_{W^2}.
    Computed unconditionally; the flags report when the regime assumptions
    (log-positive weights, clean convergence) do not hold.
    """
    est_w = _fit_power(grammar, 1, n_terms, precision)
    est_w2 = _fit_power(grammar, 2, n_terms, precision)
    return GammaEstimate(gamma=(est_w2.rho ** 0.5) / est_w.rho, base=est_w,
                         squared=est_w2, log_positive=_log_positive(grammar.weights),
                         converged=est_w.converged and est_w2.converged)


# ---------------------------------------------------------------------------
# growth-condition probes (heuristic by construction)


@dataclass(frozen=True)
class ConditionProbe:
    holds: bool | None
    detail: str
    data: tuple = ()


@dataclass(frozen=True)
class ConditionReport:
    diversity: ConditionProbe        # max word probability decays exponentially
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
            f"diversity (heuristic probe): {tag(self.diversity)} - {self.diversity.detail}",
            f"log-positive weights (exact): {tag(self.log_positive)} - {self.log_positive.detail}",
            f"bounded dependency (heuristic probe): {tag(self.bounded_dependency)} - "
            f"{self.bounded_dependency.detail}",
        ])


def check_conditions(grammar) -> ConditionReport:
    """Probe the three growth conditions behind the collision asymptotics.

    Only the weight positivity check is exact; the exponential-decay and
    singularity-separation probes are finite-n heuristics and labeled so.
    """
    weights = grammar.weights
    below = sorted(t for t, w in weights.items() if w < 1)
    if _log_positive(weights):
        c2 = ConditionProbe(True, "weights normalized above 1")
    elif below:
        c2 = ConditionProbe(False, f"weights below 1 on {below}")
    else:
        c2 = ConditionProbe(False, "all weights equal 1 (uniform distribution)")

    # max word probability along a geometric ladder of lengths
    pts = []
    table = build_counts(grammar, None, LADDER[-1])
    scale, highs = _extreme_row(grammar, LADDER[-1], largest=True)
    for n in LADDER:
        total = table.total(n)
        if total == 0:
            continue
        pts.append((n, float(Fraction(highs[n], scale ** n) / total)))
    if len(pts) < 2:
        c1 = ConditionProbe(None, "too few nonempty lengths on the ladder", tuple(pts))
    else:
        import numpy as np  # only the fits load numpy, not every importer of the package
        xs = np.asarray([n for n, _ in pts], dtype=float)
        ys = np.log([p for _, p in pts])
        slope = np.polyfit(xs, ys, 1)[0]
        beta = float(np.exp(-slope))
        c1 = ConditionProbe(beta > 1.01,
                            f"fitted decay base beta~{beta:.4g} over n={list(int(x) for x in xs)}",
                            tuple(pts))

    try:
        rho = {j: _fit_power(grammar, j, CONDITION_TERMS, CONDITION_PRECISION).rho
               for j in (1, 2, 3)}
        checks = [(k, rho[1] ** k < rho[k] * (1 + SEPARATION_MARGIN), rho[1] ** k, rho[k])
                  for k in (2, 3)]
        ok = all(c[1] for c in checks)
        detail = "; ".join(f"rho^{k}={a:.6g} vs rho_k={b:.6g}" for k, _, a, b in checks)
        c3 = ConditionProbe(ok, detail, tuple(checks))
    except InsufficientData as exc:
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


def collision_estimates(grammar, n: int, gamma: GammaEstimate) -> CollisionEstimates:
    """Both first-collision estimates at length n >= 1 side by side, the
    fitted one from `gamma`, the grammar's `growth_gamma`.

    The finite-n plug-in and the fitted asymptote describe the same curve, so
    a gap beyond COLLISION_GAP_TOLERANCE flags either a short coefficient tail
    or an n too small for the asymptotic regime.
    """
    if n < 1:
        raise ValueError(f"collision length must be at least 1, got {n}")
    plug = collision_envelope(grammar, n)
    fitted = gamma.collision_asymptote(n)
    gap = abs(fitted - plug) / plug
    return CollisionEstimates(plug, fitted, gap, gap <= COLLISION_GAP_TOLERANCE)


def collision_envelope(grammar, n: int) -> float:
    """Expected first-collision time at length n: sqrt(pi / (2 * alpha_2)).

    alpha_2 = total(w^2) / total(w)^2 is the exact second moment of the
    length-n distribution, so the weight spectrum is never materialized.
    """
    return float(collision_plug_in(moment(grammar, 2, n)))

