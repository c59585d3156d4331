"""Brute-force oracles and generators shared by the test modules.

Everything here is deliberately independent of the implementation paths it
checks: expectations are computed by exhaustive enumeration over outcome
sequences, absorbing-chain linear algebra on subsets, or direct generation
and filtering of words.  The routes that faster code replaced stay here as
oracles: the Fraction count table, the 45-digit birthday quadrature, and the
40-digit per-class occupancy sums and exponential form.
"""

from fractions import Fraction
from itertools import product
import random

from mpmath import mp

from weightedgen import (Rule, WeightedGrammar, GrammarError, ambiguity_probe,
                         enumerate_words, from_weights)
from weightedgen.grammar import EnumerationCap
from weightedgen.numerics import one_minus_pow, to_mpf
from weightedgen.urns import QuadratureError, UrnClass, UrnModel, alpha


# ---------------------------------------------------------------------------
# count-table oracle


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
                elif m >= 2:
                    b, c = r.rhs
                    for j in range(1, m):
                        acc += vals[b][j] * vals[c][m - j]
            vals[nt][m] = acc
    return vals


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

        scale = 1 / mp.sqrt(to_mpf(alpha(u, 2)))
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


def urn_model(classes):
    """UrnModel from (weight, count) pairs, counts of any size."""
    mu = sum((Fraction(w) * c for w, c in classes), Fraction(0))
    return UrnModel(tuple(UrnClass(Fraction(w) / mu, c, Fraction(w))
                          for w, c in sorted(classes)),
                    sum(c for _, c in classes), mu)


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


WEIGHT_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
               Fraction(1, 3), Fraction(5, 2), Fraction(4, 3)]


def random_urn_model(rng, max_urns=5):
    m = rng.randint(1, max_urns)
    weights = [Fraction(rng.randint(1, 9)) for _ in range(m)]
    return from_weights(weights)


def random_valid_grammar(rng):
    """A random valid weighted grammar, possibly ambiguous (rejection sampling)."""
    for _ in range(2000):
        terminals = rng.sample(["a", "b", "c"], rng.randint(1, 3))
        nts = ["S", "A", "B"][: rng.randint(1, 3)]
        rules = []
        for nt in nts:
            for _ in range(rng.randint(1, 3)):
                length = rng.choice((0, 1, 1, 2, 2, 3, 3, 4))
                rhs = tuple(rng.choice(terminals + nts) for _ in range(length))
                rules.append(Rule(nt, rhs))
        weights = {t: rng.choice(WEIGHT_POOL) for t in terminals}
        try:
            return WeightedGrammar(frozenset(terminals), frozenset(nts),
                                   tuple(rules), "S", weights)
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
