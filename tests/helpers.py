"""Brute-force oracles and generators shared by the test modules.

Everything here is deliberately independent of the implementation paths it
checks: expectations are computed by exhaustive enumeration over outcome
sequences, absorbing-chain linear algebra on subsets, or direct generation
and filtering of words.  The routes that faster code replaced stay here as
oracles: the Fraction count table, the recursive method over every split,
the sampler's subtraction walk, the Fraction-power weight classes of a
spectrum and its integer form by Fraction gcd and lcm, the 45-digit birthday quadrature, the 40-digit per-class
occupancy sums and exponential form, the urn throws by explicit urn ids
with full collection's repeat throws by exact integer powers, its mean by
inclusion-exclusion over the classes, the Fraction route to an urn model's
probabilities, randrange's rejection loop (`below`) that the urn throws and the sampler write out inline,
the numpy least-squares line of the singularity fit, and the numpy birthday
quadrature with every class at every node.  So do the growth
routes the grammar's equations replaced: the cycle test for a finite
language, the diversity ladder of exact largest-word probabilities, and the
RNA growth base from the discriminant roots.  Exhaustive
enumeration of a source grammar's derivations (`enumerate_words`) and the
ambiguity probe built on it (`ambiguity_probe`) live here too: they are the
word-level oracle of normalization, counting, sampling and the RNA census.
"""

import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import accumulate, count, product
import math
import operator

import numpy as np
from mpmath import mp

from weightedgen import (Rule, WeightClass, WeightedGrammar, WeightSpectrum,
                         GrammarError, build_counts, counting, extreme_weights,
                         from_weights, normalize, parse_grammar, rna, sampler, urns)
from weightedgen.grammar import _min_lengths, inside
from weightedgen.numerics import one_minus_pow, to_mpf
from weightedgen.urns import QuadratureError, UrnClass, UrnModel


# ---------------------------------------------------------------------------
# exhaustive enumeration and the ambiguity probe


class EnumerationCap(RuntimeError):
    """Exhaustive enumeration exceeded its configured cap."""


# derivation steps `enumerate_words` may take before it gives up
EXPANSION_CAP = 5_000_000


def enumerate_words(g, n: int, *, word_cap: int = 200_000) -> list:
    """All length-n words of g, one entry per derivation (duplicates = ambiguity).

    Leftmost expansion with minimal-length pruning; raises EnumerationCap when
    either the derivation count or the expansion budget is exceeded.
    """
    minlen = _min_lengths(g)
    out = []
    expansions = 0
    stack = [(g.axiom,)]
    while stack:
        form = stack.pop()
        idx = next((i for i, s in enumerate(form) if s in g.nonterminals), None)
        if idx is None:
            if len(form) == n:
                out.append(form)
                if len(out) > word_cap:
                    raise EnumerationCap(f"more than {word_cap} derivations at length {n}")
            continue
        for r in g.rules:
            if r.lhs != form[idx]:
                continue
            nf = form[:idx] + r.rhs + form[idx + 1:]
            if sum(minlen[s] for s in nf) <= n:
                expansions += 1
                if expansions > EXPANSION_CAP:
                    raise EnumerationCap(f"expansion budget exceeded at length {n}")
                stack.append(nf)
    return out


@dataclass(frozen=True)
class AmbiguityReport:
    ambiguous: bool
    n_max: int
    first_mismatch: int | None = None
    derivation_count: int | None = None
    distinct_count: int | None = None

    def __str__(self):
        if not self.ambiguous:
            return f"no ambiguity detected up to n={self.n_max}"
        return (f"ambiguity detected at n={self.first_mismatch}: "
                f"{self.derivation_count} derivations for "
                f"{self.distinct_count} distinct words")


def ambiguity_probe(g: WeightedGrammar, n_max: int, *,
                    word_cap: int = 200_000) -> AmbiguityReport:
    """Compare derivation counts against distinct-word counts for n <= n_max.

    A mismatch is evidence of ambiguity; agreement proves nothing (this is a
    probe, not a decision procedure).
    """
    ng = normalize(g)
    ones = {t: Fraction(1) for t in g.terminals}
    table = build_counts(ng, ones, n_max)
    for n in range(n_max + 1):
        derivations = table.total(n)
        distinct = len(set(enumerate_words(g, n, word_cap=word_cap)))
        if derivations != distinct:
            return AmbiguityReport(True, n_max, n, int(derivations), distinct)
    return AmbiguityReport(False, n_max)


# ---------------------------------------------------------------------------
# normal-form shape


def assert_chains_shared(ng):
    """A chain rule is a pair rule whose lhs is neither a source nonterminal
    nor the start symbol; that lhs has exactly one rule, and no two chain
    rules share a right-hand side."""
    heads = ng.original.nonterminals | {ng.axiom}
    chains = [r for r in ng.rules if r.kind == "pair" and r.lhs not in heads]
    assert all(ng.alternatives(r.lhs) == (r,) for r in chains)
    assert len({r.rhs for r in chains}) == len(chains)


# S and the start symbol reach three nonterminals with pair rules by unit
# paths; on fixed-point tables their options exceed the draw bound by more
# than 2^q
UNIT_CHAIN = parse_grammar(
    "axiom S\nterminal a weight 3/7\nterminal b weight 9/5\nterminal c weight 13/3\n"
    "S -> a S | T | c\nT -> b T | U\nU -> c U | b\n")


def pair_paths(ng):
    """{nonterminal: its unit paths, the empty one included, that end at a
    nonterminal with pair rules}.  On a fixed-point table the options of a
    cell exceed its draw bound by less than 2^q per such path."""
    paths = {}
    for nt in ng.nonterminals:  # unit-rule targets come first
        rules = ng.alternatives(nt)
        paths[nt] = any(r.kind == "pair" for r in rules) + sum(
            paths[r.rhs[0]] for r in rules if r.kind == "unit")
    return paths


def _concatenations(xs, ys):
    """Derivation-word semiring product: every concatenation, pair by pair."""
    return [wb + wc for wbs, wcs in zip(xs, ys) for wb in wbs for wc in wcs]


def normalize_checked(g, depth):
    """normalize(g), after asserting that the source and normal forms derive
    the same word multiset at every length n <= depth (exhaustive
    enumeration against the derivation-word instance of `inside`)."""
    ng = normalize(g)
    derived = inside(ng, depth, lambda t: [(t,)], [()], [],
                     operator.add, _concatenations)[ng.axiom]
    for n in range(depth + 1):
        assert Counter(enumerate_words(g, n)) == Counter(derived[n]), \
            f"normalization changed the word multiset at length {n}"
    return ng


# ---------------------------------------------------------------------------
# count-table, sampler and spectrum oracles


def fraction_count_table(ng, weights, horizon):
    """{nonterminal: [total weight at length m for m = 0..horizon]} of a
    normalized grammar, by the recursive method written out in plain Fraction
    arithmetic, independently of `grammar.inside`."""
    vals = {nt: [Fraction(0)] * (horizon + 1) for nt in ng.nonterminals}
    for m in range(horizon + 1):
        for nt in ng.nonterminals:
            acc = Fraction(0)
            for r in ng.alternatives(nt):
                if r.kind == "term":
                    if m == 1:
                        acc += Fraction(weights[r.rhs[0]])
                elif r.kind == "eps":
                    if m == 0:
                        acc += 1
                elif r.kind == "unit":
                    acc += vals[r.rhs[0]][m]
                elif m >= 2:
                    b, c = r.rhs
                    for j in range(1, m):
                        acc += vals[b][j] * vals[c][m - j]
            vals[nt][m] = acc
    return vals


def inside_unpruned(ng, horizon, letter, one, zero, add, dot):
    """`grammar.inside` with every pair rule dotting all m - 1 splits at
    length m, empty child cells included: the route the pruned loop
    replaced, and its oracle."""
    vals = {nt: [] for nt in ng.nonterminals}
    for m in range(horizon + 1):
        for nt in ng.nonterminals:
            cell = zero
            xs, ys = [], []
            for r in ng.alternatives(nt):
                if r.kind == "term":
                    if m == 1:
                        cell = add(cell, letter(r.rhs[0]))
                elif r.kind == "eps":
                    if m == 0:
                        cell = add(cell, one)
                elif r.kind == "unit":
                    cell = add(cell, vals[r.rhs[0]][m])
                elif m >= 2:
                    xs += vals[r.rhs[0]][1:m]
                    ys += vals[r.rhs[1]][m - 1:0:-1]
            if xs:
                cell = add(cell, dot(xs, ys))
            vals[nt].append(cell)
    return vals


def below(getrandbits, n: int) -> int:
    """A uniform int in [0, n) for n >= 1: draws of n.bit_length() bits from
    `getrandbits` until one falls below n.

    It is the rejection loop of CPython's randrange(n), so a Random seeded
    alike gives the same ints on any platform.  Every urn throw of
    `urns.simulate`, and `sampler`'s top-bits loop at a bound of at most
    `sampler.LIMB_BITS` bits, write this loop out inline; it is their
    oracle."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def choices(table, nt, m):
    """The (weight, rule, split) options at (nt, m) in draw order: those of
    `CountTable.options`, each weighed by `CountTable.weight` when it is
    reached."""
    _, rules, splits = table.options(nt, m)
    for rule, j in zip(rules, splits):
        yield table.weight(rule, j, m), rule, j


def walk_sample_word(state, n):
    """One word of length n by the subtraction walk, the route the memoised
    bisect of `sample_word` replaced, under the sampler's stream rule.  At a
    node whose draw bound B has s = B.bit_length() - LIMB_BITS > 0 bits past
    the limb, a draw starts as the range [h << s, (h + 1) << s) of its top
    bits h, redrawn while the range reaches B; at h = B >> s the s low bits
    are drawn at once and only a draw of B or more is redrawn.  The walk
    subtracts the options of `choices` in order from the range until all of
    it is negative, and draws the low bits the first time a prefix sum falls
    inside it.  With s = 0 the draw is `below` the bound.  It consumes the
    stream alike, so it is the oracle of every seeded sampler stream."""
    table = state.table
    getrandbits = state.rng.getrandbits
    limb = sampler.LIMB_BITS
    out = []
    stack = [(table.grammar.axiom, n)]
    while stack:
        nt, m = stack.pop()
        bound = table.options(nt, m)[0]
        s = max(0, bound.bit_length() - limb)
        if s:
            top = bound >> s
            while True:
                h = getrandbits(limb)
                lo, up = h << s, (h + 1 << s) - 1
                if h == top:
                    lo = up = lo | getrandbits(s)
                if up < bound:
                    break
        else:
            lo = up = below(getrandbits, bound)
        for weight, rule, j in choices(table, nt, m):
            lo -= weight
            up -= weight
            if lo < up and lo <= 0 <= up:
                lo = up = lo + getrandbits(s)
            if up < 0:
                break
        if rule.kind == "term":
            out.append(rule.rhs[0])
        elif rule.kind == "pair":
            b, c = rule.rhs
            stack.append((c, m - j))
            stack.append((b, j))
    return tuple(out)


def fraction_route_classes(weighted, weights, profile):
    """The WeightClasses of a {composition: word count} map with each
    composition's weight a product of Fraction powers, one per weighted
    terminal: the route `counting._spectrum` replaced."""
    bases = [weights[t] for t in weighted]
    groups = {}
    for comp, count in profile.items():
        chi = math.prod(map(pow, bases, comp), start=Fraction(1))
        entry = groups.setdefault(chi, [0, []])
        entry[0] += count
        entry[1].append(comp)
    return tuple(WeightClass(chi, cnt, tuple(sorted(comps)))
                 for chi, (cnt, comps) in sorted(groups.items()))


def fraction_route_spectrum(n, weighted, weights, profile):
    """The length-n WeightSpectrum of `fraction_route_classes`, put in the
    integer form by Fraction arithmetic: the unit is the gcd of the class
    weights' numerators over the lcm of their denominators (the largest
    rational dividing every weight) and each key a weight over it."""
    classes = fraction_route_classes(weighted, weights, profile)
    unit = Fraction(math.gcd(*(c.weight.numerator for c in classes)),
                    math.lcm(*(c.weight.denominator for c in classes)))
    keys = tuple(c.weight / unit for c in classes)
    assert all(key.denominator == 1 for key in keys)
    return WeightSpectrum(n, tuple(weighted), tuple(key.numerator for key in keys),
                          (unit.numerator, unit.denominator),
                          tuple(c.count for c in classes),
                          tuple(c.compositions for c in classes))


def expand_urns(u):
    """[(p, chi)] with one entry per urn."""
    out = []
    for c in u.classes:
        out.extend([(c.probability, c.weight)] * c.count)
    return out


def oracle_occupancy(u, k):
    """(E[distinct], E[coverage], E[occupied weight]) by exhaustive expectation
    over all m^k outcome sequences, exact."""
    urns = expand_urns(u)
    m = len(urns)
    e_distinct = Fraction(0)
    e_coverage = Fraction(0)
    e_weight = Fraction(0)
    for seq in product(range(m), repeat=k):
        prob = Fraction(1)
        for i in seq:
            prob *= urns[i][0]
        hit = set(seq)
        e_distinct += prob * len(hit)
        e_coverage += prob * sum((urns[i][0] for i in hit), Fraction(0))
        e_weight += prob * sum((urns[i][1] for i in hit), Fraction(0))
    return e_distinct, e_coverage, e_weight


def mp_birthday(u, rel_tol=1e-9):
    """E[B] by 45-digit tanh-sinh quadrature of exp(psi(t)),
    psi = sum c_i*log1p(p_i t) - t, truncated where the integrand drops below
    1e-15 of its peak at t=0 (psi is concave with maximum zero there).

    psi cancels about log10(1/sqrt(alpha_2)) of its 45 digits, so this is an
    oracle only while 1/alpha_2 stays well below 10^60."""
    with mp.workdps(45):
        params = [(to_mpf(c.probability), to_mpf(c.count)) for c in u.classes]

        def psi(t):
            return mp.fsum(cnt * mp.log1p(p * t) for p, cnt in params) - t

        target = mp.log(mp.mpf("1e-15"))
        upper = mp.mpf(1)
        for _ in range(300):
            if psi(upper) < target:
                break
            upper *= 2
        else:
            raise QuadratureError("could not locate the truncation point")

        scale = 1 / mp.sqrt(to_mpf(u.alpha_2))
        points = [mp.mpf(0)]
        for pt in (scale, 4 * scale, upper):
            if points[-1] < pt <= upper:
                points.append(pt)
        if points[-1] != upper:
            points.append(upper)

        value, err = mp.quad(lambda t: mp.exp(psi(t)), points,
                             error=True, maxdegree=8)
        if not (err <= rel_tol * abs(value)):
            value, err = mp.quad(lambda t: mp.exp(psi(t)), points,
                                 error=True, maxdegree=11)
        if not (err <= rel_tol * abs(value)):
            raise QuadratureError(
                f"birthday quadrature did not converge: value~{mp.nstr(value, 8)}, "
                f"error~{mp.nstr(err, 3)}")
        return float(value)


# Class x node entries per block of the numpy birthday integrand.
_BLOCK = 1 << 15


def _numpy_h(x):
    """`urns._h` over an array: the atanh series below 1/2, the direct form above."""
    out = np.empty_like(x)
    small = x < 0.5
    xs = x[small]
    d = xs + 2
    v = (xs / d) ** 2
    series = np.full_like(xs, urns._ATANH_SERIES[0])
    for coeff in urns._ATANH_SERIES[1:]:
        series *= v
        series += coeff
    out[small] = (2 * xs * series / (d * d) - 1) / d
    xl = x[~small]
    out[~small] = (np.log1p(xl) - xl) / (xl * xl)
    return out


def _numpy_class_sum(b, q, s, f):
    """sum_i b_i f(q_i s) at every node s, over blocks of classes."""
    out = np.zeros_like(s)
    rows = max(1, _BLOCK // len(s))
    for lo in range(0, len(b), rows):
        out += b[lo:lo + rows] @ f(np.multiply.outer(q[lo:lo + rows], s))
    return out


def _numpy_gauss_legendre(n):
    """Gauss-Legendre (nodes, weights) on [-1, 1] as arrays, by Newton's
    method on the Legendre recurrence."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):  # converges quadratically from these starting points
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / slope
    return x, 2 / ((1 - x * x) * slope * slope)


def numpy_birthday(u):
    """E[B] by the numpy route `urns.birthday_exact` replaced: the same
    panels, Gauss-Legendre pair and error bound, with every class summed by
    h at every node (class x node matrices in blocks) and the truncation
    point chosen over all eleven candidate ends at once."""
    b = np.array([sq / u.moment2 for sq in u.squares])
    q = np.sqrt([sq / (c * u.moment2) for c, sq in zip(u.counts, u.squares)])
    unscale = urns._sqrt_ratio(u.denominator ** 2, u.moment2)  # 1 / sqrt(alpha_2)

    ends = 2.0 ** np.arange(11)
    slopes = ends * _numpy_class_sum(b, q, ends, lambda x: 1 / (1 + x))  # |psi'|
    tails = np.exp(ends * ends * _numpy_class_sum(b, q, ends, _numpy_h)) / slopes
    hits = np.flatnonzero(tails < 1e-3 * urns.BIRTHDAY_REL_TOL)
    if not hits.size:
        raise QuadratureError(f"no truncation point up to t={ends[-1] * unscale:.6g}")
    last = hits[0]

    (x32, w32), (x64, w64) = _numpy_gauss_legendre(32), _numpy_gauss_legendre(64)
    lo, hi = np.concatenate(([0.0], ends[:last])), ends[:last + 1]
    half = (hi - lo) / 2
    nodes = ((hi + lo) / 2)[:, None] + half[:, None] * np.concatenate((x32, x64))
    s = nodes.ravel()
    f = np.exp(s * s * _numpy_class_sum(b, q, s, _numpy_h)).reshape(nodes.shape)
    g32 = half * (f[:, :len(x32)] @ w32)
    g64 = half * (f[:, len(x32):] @ w64)
    value = g64.sum()
    err = np.abs(g64 - g32).sum() + tails[last] + urns._ROUNDING * value
    if not err <= urns.BIRTHDAY_REL_TOL * value:
        raise QuadratureError(
            f"birthday quadrature did not converge: value~{value * unscale:.8g}, "
            f"error~{err * unscale:.3g}, truncation t={ends[last] * unscale:.6g}, "
            f"{s.size} nodes")
    return float(value * unscale)


def urn_model(classes):
    """UrnModel from (weight, count) pairs, counts of any size."""
    classes = sorted((Fraction(w), c) for w, c in classes)
    return UrnModel(tuple(w for w, _ in classes), tuple(c for _, c in classes))


def fraction_route_urn_model(weights, counts):
    """(denominator, numerators, mu, m, classes) of an urn model by the
    Fraction route: mu = sum c_i w_i, p_i = w_i / mu, D the lcm of the
    reduced p_i denominators and P_i = p_i D.  The reference for `UrnModel`,
    which derives them from integers."""
    mu = sum((w * c for w, c in zip(weights, counts)), Fraction(0))
    probs = [w / mu for w in weights]
    scale = math.lcm(*(p.denominator for p in probs))
    return (scale, tuple(p.numerator * (scale // p.denominator) for p in probs),
            mu, sum(counts),
            tuple(UrnClass(p, c, w) for p, c, w in zip(probs, counts, weights)))


def occupancy_sum_per_class(u, k, coeff, exact=None):
    """sum of coeff(class) * (1 - (1-p)^k), one Fraction add per class when
    every term is exact, else summed at 40 digits."""
    terms = [(coeff(c), one_minus_pow(c.probability, k, exact)) for c in u.classes]
    if all(isinstance(v, Fraction) for _, v in terms):
        return sum((f * v for f, v in terms), Fraction(0))
    with mp.workdps(40):
        return sum(to_mpf(f) * to_mpf(v) for f, v in terms)


def exponential_per_class(u, k):
    """sum c_i * (1 - exp(-p_i k)) at 40 digits, one expm1 per class."""
    with mp.workdps(40):
        return mp.fsum(c.count * -mp.expm1(-to_mpf(c.probability) * k)
                       for c in u.classes)


def urn_ball_trial(u, statistic, draws, k=None, getrandbits=None):
    """One trial of `statistic` by explicit urn ids, the route the occupancy
    walk `urns._urn_trials` replaced, in its return convention.  Class i owns
    the values [S_i, S_i + c_i P_i) of an integer draw r in [0, D), and r
    there throws into urn O_i + (r - S_i) // P_i, where O_i counts the urns
    of the classes before i; a seen-set of urn ids tracks the occupied ones.
    `draws` is an iterator of such r.

    Given the `getrandbits` that `draws` reads, full collection follows the
    walk draw for draw.  A new urn takes the lowest unseen id of its class,
    the walk's relabelling in id form (the slot an r hits is occupied iff
    it is below the class's seen count), which keeps the law, as
    `test_urn_walk_has_the_law_of_urn_ids` checks without it.  The throws
    stop once the free mass F is at most D / urns._SKIP_SHARE; from then on
    each new urn takes the repeat throws before it (`exact_gap`) and one r
    below F (`below`) laid over the unseen urn ids in id order, each P_i
    values wide."""
    nums = u.numerators
    starts = list(accumulate((c.count * p for c, p in zip(u.classes, nums)), initial=0))
    offsets = list(accumulate((c.count for c in u.classes), initial=0))
    seen, free = {}, u.denominator  # urn id -> P_i, and the mass of the others
    held = [0] * len(nums)  # seen urns per class
    for throws in range(1, k + 1) if k is not None else count(1):
        r = next(draws)
        i = bisect.bisect_right(starts, r) - 1
        urn = offsets[i] + (r - starts[i]) // nums[i]
        if urn in seen:
            if statistic == "first_collision":
                return throws
            continue
        if getrandbits:
            urn = offsets[i] + held[i]
        held[i] += 1
        seen[urn] = nums[i]
        free -= nums[i]
        if statistic == "full_collection" and len(seen) == u.m:
            return throws
        if getrandbits and statistic == "full_collection" \
                and free * urns._SKIP_SHARE <= u.denominator:
            break
    else:
        return len(seen) if statistic == "distinct" else sum(seen.values())
    ids = [(urn, nums[i]) for i in range(len(nums)) for urn in range(offsets[i], offsets[i + 1])]
    while free:
        throws += exact_gap(free, u.denominator, getrandbits, urns._GUESS_BITS) + 1
        r = below(getrandbits, free)
        for urn, weight in ids:
            if urn not in seen:
                if r < weight:
                    break
                r -= weight
        seen[urn] = weight
        free -= weight
    return throws


def exact_gap(free, scale, getrandbits, bits):
    """G >= 0 with P(G >= g) = q^g, q = (scale - free) / scale, by exact
    integer comparisons: U in (a, a + 1] / 2^k, from `bits` bits at a time,
    is refined until one g has q^(g+1) <= a / 2^k and (a + 1) / 2^k <= q^g,
    and G = g.  It consumes the stream as `urns._repeat_throws` does
    wherever that decides at the same depth, which its float guess does
    except within about 2^-40 x of an integer."""
    occupied = scale - free
    if not occupied:
        return 0
    a, k = getrandbits(bits), bits
    while True:
        g, top, bottom = 0, occupied, scale  # q^(g+1) = top / bottom
        while (a + 1) * bottom <= top << k:
            g, top, bottom = g + 1, top * occupied, bottom * scale
        if top << k <= a * bottom:
            return g
        a, k = a << bits | getrandbits(bits), k + bits


def oracle_birthday(u):
    """E[B] = sum_j P(first j draws all distinct), exact, by exhaustive tuples."""
    urns = [p for p, _ in expand_urns(u)]
    m = len(urns)
    total = Fraction(0)
    for j in range(m + 1):
        p_distinct = Fraction(0)
        for seq in product(range(m), repeat=j):
            if len(set(seq)) == j:
                prob = Fraction(1)
                for i in seq:
                    prob *= urns[i]
                p_distinct += prob
        total += p_distinct
    return total


def oracle_birthday_uniform(m):
    """E[B] for m equiprobable urns: sum_j m!/(m-j)! / m^j, exact."""
    total = Fraction(0)
    falling = 1
    for j in range(m + 1):
        total += Fraction(falling, m ** j)
        falling *= m - j
    return total


def oracle_coupon(probs):
    """Expected full-collection time by the absorbing chain over subsets."""
    m = len(probs)
    full = (1 << m) - 1
    memo = {full: Fraction(0)}

    def expect(state):
        if state in memo:
            return memo[state]
        collected = Fraction(0)
        acc = Fraction(1)
        for i in range(m):
            if state & (1 << i):
                collected += probs[i]
            else:
                acc += probs[i] * expect(state | (1 << i))
        memo[state] = acc / (1 - collected)
        return memo[state]

    return expect(0)


def oracle_coupon_classes(u):
    """Expected full-collection time by inclusion-exclusion over the classes:
    E[C] = sum over nonempty urn sets S of (-1)^(|S|+1) / p(S), taking s_i
    urns of class i in C(c_i, s_i) ways.  Exact, for models whose
    prod (c_i + 1) is small."""
    total = Fraction(0)
    for taken in product(*(range(c + 1) for c in u.counts)):
        if any(taken):
            ways = math.prod(map(math.comb, u.counts, taken))
            mass = sum(map(operator.mul, taken, u.numerators))
            total += (-1) ** (sum(taken) + 1) * ways * Fraction(u.denominator, mass)
    return total


# ---------------------------------------------------------------------------
# secondary-structure enumeration


def motzkin_words(n):
    """All balanced dot-parenthesis words of length n."""
    out = []

    def rec(prefix, open_count):
        rest = n - len(prefix)
        if rest == 0:
            if open_count == 0:
                out.append("".join(prefix))
            return
        if open_count > rest:
            return
        for ch in "(.)":
            if ch == "(" and open_count + 1 <= rest - 1:
                prefix.append(ch)
                rec(prefix, open_count + 1)
                prefix.pop()
            elif ch == ".":
                prefix.append(ch)
                rec(prefix, open_count)
                prefix.pop()
            elif ch == ")" and open_count > 0:
                prefix.append(ch)
                rec(prefix, open_count - 1)
                prefix.pop()

    rec([], 0)
    return out


def plateau_profile(word):
    """(pairs, plateaux, min plateau length) where a plateau is a pair
    enclosing only dots; min length is None without plateaux."""
    pairs = word.count("(")
    plateaux = 0
    shortest = None
    i = 0
    while i < len(word):
        if word[i] == "(":
            j = i + 1
            while j < len(word) and word[j] == ".":
                j += 1
            if j < len(word) and word[j] == ")":
                t = j - i - 1
                plateaux += 1
                shortest = t if shortest is None else min(shortest, t)
        i += 1
    return pairs, plateaux, shortest


def secondary_structures(n, theta):
    """All length-n structures: Motzkin words whose plateaux all have >= theta dots."""
    out = []
    for word in motzkin_words(n):
        _, plateaux, shortest = plateau_profile(word)
        if plateaux == 0 or shortest >= theta:
            out.append(word)
    return out


# ---------------------------------------------------------------------------
# random model generators (deterministic given a seed)


# ---------------------------------------------------------------------------
# growth-rate oracles


def finite_language(g) -> bool:
    """True when no nonterminal of the source grammar g reaches itself.
    Validation rejects same-length rewrite cycles, so every cycle adds
    letters: the language is finite exactly when there is none."""
    graph = {nt: {s for r in g.rules if r.lhs == nt for s in r.rhs if s in g.nonterminals}
             for nt in g.nonterminals}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return False
    return True


def ladder_decay_base(ng, lengths):
    """The diversity ladder: exp(-slope) of the least-squares line through
    (n, log(maxweight(n) / total(n))) at the given lengths that carry words,
    from an exact count table and `extreme_weights`."""
    table = build_counts(ng, None, max(lengths))
    rows = [(n, math.log(extreme_weights(ng, n)[1] / table.total(n)))
            for n in lengths if table.total(n)]
    mx = math.fsum(n for n, _ in rows) / len(rows)
    my = math.fsum(y for _, y in rows) / len(rows)
    slope = math.fsum((n - mx) * (y - my) for n, y in rows) \
        / math.fsum((n - mx) ** 2 for n, _ in rows)
    return math.exp(-slope)


def rna_growth_base(w, theta):
    """sqrt(rho_{w^2}) / rho_w from the discriminant roots (`rna.rna_rho`)."""
    return rna.rna_rho(w * w, theta) ** 0.5 / rna.rna_rho(w, theta)


def lstsq_line(xs, ys):
    """(intercept, slope, RMS residual) of the least-squares line through the
    points (xs, ys) by numpy's lstsq: the route by which `estimate_singularity`
    fitted its log-log tail before `statistics.linear_regression`."""
    design = np.vstack([np.ones(len(xs)), np.asarray(xs)]).T
    sol, *_ = np.linalg.lstsq(design, np.asarray(ys), rcond=None)
    resid = np.asarray(ys) - design @ sol
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean(resid ** 2)))


WEIGHT_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
               Fraction(1, 3), Fraction(5, 2), Fraction(4, 3)]


def random_urn_model(rng, max_urns=5):
    m = rng.randint(1, max_urns)
    weights = [Fraction(rng.randint(1, 9)) for _ in range(m)]
    return from_weights(weights)


def random_candidate(rng):
    """The rules of a random grammar with axiom S, valid or not:
    (terminals, nonterminals, rules)."""
    terminals = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    nts = ["S", "A", "B"][: rng.randint(1, 3)]
    rules = []
    for nt in nts:
        for _ in range(rng.randint(1, 3)):
            length = rng.choice((0, 1, 1, 2, 2, 3, 3, 4))
            rhs = tuple(rng.choice(terminals + nts) for _ in range(length))
            rules.append(Rule(nt, rhs))
    return terminals, nts, tuple(rules)


def random_valid_grammar(rng):
    """A random valid weighted grammar, possibly ambiguous (rejection sampling)."""
    for _ in range(2000):
        terminals, nts, rules = random_candidate(rng)
        weights = {t: rng.choice(WEIGHT_POOL) for t in terminals}
        try:
            return WeightedGrammar(terminals, nts, rules, "S", weights)
        except GrammarError:
            continue
    raise RuntimeError("could not generate a valid grammar")


def random_grammar(rng, probe_depth=8):
    """A random valid, probe-clean weighted grammar (rejection sampling)."""
    for _ in range(2000):
        g = random_valid_grammar(rng)
        try:
            report = ambiguity_probe(g, probe_depth, word_cap=60_000)
        except EnumerationCap:
            continue
        if report.ambiguous:
            continue
        # require an actually interesting language in the probed range
        sizes = [len(set(enumerate_words(g, n))) for n in range(probe_depth + 1)]
        if sum(sizes) < 12 or max(sizes) < 4:
            continue
        return g
    raise RuntimeError("could not generate a random grammar")


def spectrum_from_enumeration(g, n):
    """{weight: multiplicity} of length-n words, by enumeration."""
    words = set(enumerate_words(g, n))
    grouped = {}
    for w in words:
        chi = Fraction(1)
        for t in w:
            chi *= g.weights[t]
        grouped[chi] = grouped.get(chi, 0) + 1
    return grouped
