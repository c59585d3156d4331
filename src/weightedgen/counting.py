"""Weighted counting: count tables, the second moment alpha_2, weight-class spectra.

The central object is the count table of the recursive method: for every
nonterminal A of a binary-form grammar and every length m, the total weight of
the words A derives at that length.  Every table in this module is one
instance of `grammar.inside` over its own semiring.

Count-table cells are plain ints under one of two scales, and no other module
knows about either.  Exact cells scale each letter weight by D, the lcm of
the weight denominators, so the cell at length m holds D^m times its value,
and `value()`, `total()` and `coefficients()` divide the scale back out into
Fractions.  Fixed-point cells (`precision=p`, for long coefficient tails where
exactness is pointless) hold floor(value * 2^(q - b*m)) with q = p + 64 and b
= floor(log2) of the smallest letter weight: every length-m word weighs at
least 2^(b*m), so every nonempty cell is at least 2^q - 2m, and one
truncation of each cell's own pair sum keeps that part within a relative
(2m-1) * 2^-q below its value.  A unit rule adds its target's cell, which
meets the same bound, so the whole cell does too.  Their `value()` rounds
the cell to a p-bit mpf.

A weight spectrum counts the words of each composition: how many letters of
each of the t terminals of non-unit weight a word has.  With t <= 1 it is an
exact table too, over a packed letter (Kronecker substitution): the weighted
terminal gets the letter 2^B and every other terminal the letter 1, where B
is the bit length of the largest axiom cell of the unweighted table among
the lengths read, rounded up to whole bytes.  An axiom cell is then the
polynomial, evaluated at 2^B, whose coefficient at e counts the words with e
weighted letters; no such count reaches 2^B, so the cell's B-bit digits are
the coefficients.  The
packed layout has one digit per composition only for t <= 1: (n+1)^t digits
against C(n+t, t) compositions.  With t >= 2 the spectrum is an instance of
`inside` over {composition vector: word count} dicts, which hold only the
compositions that occur, and `CLASS_CAP` bounds them.  Either way the
spectrum is held in integers (`WeightSpectrum`): class i weighs K_i * u, the
keys K_i strictly increasing with gcd 1 and the unit u in lowest terms.  With
t <= 1 the keys are products of powers of the weight's numerator and
denominator, with no gcd; with t >= 2 they are a composition's weight over
the common denominator L^n (L the lcm of the weights' denominators), divided
by one gcd.  `urns.from_spectrum` takes the keys as the urn model's P_i, and
a class's weight becomes a Fraction only when it is read.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import floor, gcd, lcm, prod

from mpmath import mp

from .grammar import NormalizedGrammar, inside
from .numerics import _unlimited_digits

# bits a fixed-point table keeps beyond its precision
GUARD_BITS = 64

# weight classes the spectrum DP may hold in one cell before it gives up
CLASS_CAP = 200_000


class EmptyLanguageError(ValueError):
    """The language has no word of the requested length."""


class ClassCapExceeded(RuntimeError):
    """The weight-class DP grew past its configured cap."""


def _fractions(grammar: NormalizedGrammar, weights) -> dict:
    """{terminal: Fraction weight}, refusing a terminal of the grammar with no weight."""
    weights = {t: Fraction(w) for t, w in weights.items()}
    for t in grammar.terminals:
        if t not in weights:
            raise ValueError(f"missing weight for terminal {t!r}")
    return weights


def _scaled(terminals, weights) -> tuple:
    """(D, {terminal: D * weight}) over `terminals`, with D the lcm of their
    weight denominators."""
    scale = lcm(*(weights[t].denominator for t in terminals))
    return scale, {t: weights[t].numerator * (scale // weights[t].denominator)
                   for t in terminals}


def _floor_log2(w: Fraction) -> int:
    b = w.numerator.bit_length() - w.denominator.bit_length()
    return b if Fraction(2) ** b <= w else b - 1


def _splits(m: int):
    """Split points 1..m-1 from both ends inwards: 1, m-1, 2, m-2, ..."""
    lo, hi = 1, m - 1
    while lo < hi:
        yield lo
        yield hi
        lo += 1
        hi -= 1
    if lo == hi:
        yield lo


class CountTable:
    """Per-(nonterminal, length) total weights for a normalized grammar.

    With `precision` unset the cells are exact scaled ints; with precision p
    they are fixed-point ints whose `value()` is a p-bit mpf within a relative
    (2m-1) * 2^-(p+64) + 2^-p of the exact value (see the module docstring).
    Both are built by the same int instance of `grammar.inside`; only the
    letter scale and the shift after each dot differ.  Construction costs
    at most O(|rules| * horizon^2) products, and O(horizon) per pair rule
    with a child of bounded length (see `grammar.inside`).
    """

    def __init__(self, grammar: NormalizedGrammar, weights, horizon: int,
                 precision: int | None = None):
        self.grammar = grammar
        self.horizon = horizon
        self.precision = precision
        self.weights = _fractions(grammar, weights)
        if precision is None:
            self._shift = 0
            self._scale, self._letters = _scaled(grammar.terminals, self.weights)
        else:
            q = self._shift = precision + GUARD_BITS
            b = self._slope = _floor_log2(min((self.weights[t] for t in grammar.terminals),
                                              default=Fraction(1)))
            self._letters = {t: floor(self.weights[t] * Fraction(2) ** (q - b))
                             for t in grammar.terminals}
        shift = self._shift
        self._one = 1 << shift

        def dot(xs, ys):
            return sum(map(operator.mul, xs, ys)) >> shift

        self._cells = inside(grammar, horizon, self._letters.__getitem__,
                             self._one, 0, operator.add, dot)
        self.nodes = {}  # the sampler's memo (see `sampler`); never read here

    def cell(self, nt: str, m: int) -> int:
        """The stored cell at (nt, m): value(nt, m) in the table's own scale."""
        if not 0 <= m <= self.horizon:
            raise ValueError(f"length {m} outside horizon {self.horizon}")
        return self._cells[nt][m]

    def value(self, nt: str, m: int):
        cell = self.cell(nt, m)
        if self.precision is None:
            return Fraction(cell, self._scale ** m)
        with mp.workprec(self.precision):
            return mp.mpf((cell, self._slope * m - self._shift))

    def total(self, m: int):
        """Total weight of length-m words of the language."""
        return self.value(self.grammar.axiom, m)

    def coefficients(self) -> list:
        return [self.total(m) for m in range(self.horizon + 1)]

    def options(self, nt: str, m: int) -> tuple:
        """(bound, rules, splits): the draw bound of the recursive method at
        (nt, m) and the rule and split of each nonzero option, in draw order;
        computes no product (`weight` gives each option's weight).

        A unit rule nt -> B stands, in its place, for B's options in B's
        order, so no rule is a unit rule.  A split is the length of a pair
        rule's first child, from both ends inwards, where these grammars put
        most of the weight.  The options sum to at least the bound, exactly
        on an exact table and at lengths 0 and 1.  On a fixed-point table a
        pair option is a product of two cells, so the bound is the cell
        shifted up by q, and the options exceed it by less than 2^q per unit
        path out of nt (the empty path included) that ends at a nonterminal
        with pair rules: each such cell is the floor of its pair options'
        sum shifted down by q.
        """
        cell = self.cell(nt, m)
        rules, splits = [], []

        def add(nt):
            for r in self.grammar.alternatives(nt):
                if r.kind == "unit":
                    add(r.rhs[0])
                elif r.kind != "pair":
                    if m == len(r.rhs):  # a letter at m = 1, the empty word at m = 0
                        rules.append(r)
                        splits.append(m)
                elif m >= 2:
                    vb, vc = self._cells[r.rhs[0]], self._cells[r.rhs[1]]
                    js = [j for j in _splits(m) if vb[j] and vc[m - j]]
                    rules.extend([r] * len(js))
                    splits.extend(js)

        add(nt)
        return (cell << self._shift if m >= 2 else cell), rules, splits

    def weight(self, rule, j: int, m: int) -> int:
        """The weight of option (rule, j) at length m, in the scale of the
        bound of `options`."""
        if rule.kind == "pair":
            return self._cells[rule.rhs[0]][j] * self._cells[rule.rhs[1]][m - j]
        return self._letters[rule.rhs[0]] if rule.kind == "term" else self._one


def build_counts(grammar: NormalizedGrammar, weights=None, n: int = 0,
                 precision: int | None = None) -> CountTable:
    """Count table up to length n (weights default to the grammar's own)."""
    if weights is None:
        weights = grammar.weights
    return CountTable(grammar, weights, n, precision)


def second_moment(table: CountTable, n: int):
    """alpha_2 = total_{w^2}(n) / total(n)^2, the second moment of the
    table's length-n law, from one table over the squared weights at the
    table's precision: a Fraction on an exact table, a p-bit mpf on a p-bit
    one."""
    squared = build_counts(table.grammar, {t: w * w for t, w in table.weights.items()},
                           n, table.precision)
    total = table.total(n)
    if not total:
        raise EmptyLanguageError(f"no words of length {n}")
    with mp.workprec(table.precision or mp.prec):  # Fractions ignore it
        return squared.total(n) / total ** 2


# ---------------------------------------------------------------------------
# weight-class spectrum


@dataclass(frozen=True)
class WeightClass:
    weight: Fraction
    count: int
    compositions: tuple  # composition vectors over the weighted terminals


@dataclass(frozen=True)
class WeightSpectrum:
    """Distinct word weights within the length-n slice, with multiplicities.

    Held in integers: class i holds counts[i] words, whose compositions over
    `weighted_terminals` are compositions[i], and weighs keys[i] * num / den
    with (num, den) = unit.  The keys strictly increase and have gcd 1, and
    the unit is in lowest terms, so the class weights alone fix both (the
    unit is the largest rational of which every weight is an integer
    multiple) and equal spectra have equal fields.  `classes` makes one
    WeightClass per class on its first read, of weight keys[i] * num / den;
    the first/last class has the minimal/maximal word weight.
    """

    n: int
    weighted_terminals: tuple
    keys: tuple
    unit: tuple
    counts: tuple
    compositions: tuple

    @functools.cached_property
    def classes(self) -> tuple:
        num, den = self.unit
        return tuple(WeightClass(Fraction(key * num, den), count, comps)
                     for key, count, comps in zip(self.keys, self.counts, self.compositions))

    def total_weight(self) -> Fraction:
        num, den = self.unit
        return Fraction(sum(map(operator.mul, self.counts, self.keys)) * num, den)

    def to_csv(self) -> str:
        lines = ["weight_num,weight_den,multiplicity"]
        with _unlimited_digits():
            for c in self.classes:
                lines.append(f"{c.weight.numerator},{c.weight.denominator},{c.count}")
        return "\n".join(lines) + "\n"


def _packed_profiles(grammar: NormalizedGrammar, weighted: tuple, n: int,
                     lengths) -> list:
    """The axiom's {composition: word count} maps at `lengths` (each at most
    n) over at most one weighted terminal, unpacked from exact count tables
    (see the module docstring).  With none, the unweighted table alone holds
    the counts."""
    ones = dict.fromkeys(grammar.terminals, 1)
    row = CountTable(grammar, ones, n)._cells[grammar.axiom]
    if not weighted:
        return [{(): row[m]} if row[m] else {} for m in lengths]
    width = -(-max(row[m] for m in lengths).bit_length() // 8) or 1
    (t,) = weighted
    packed = CountTable(grammar, {**ones, t: 1 << 8 * width}, n)._cells[grammar.axiom]
    profiles = []
    for m in lengths:
        raw = packed[m].to_bytes(-(-packed[m].bit_length() // 8), "little")
        digits = (int.from_bytes(raw[i:i + width], "little")
                  for i in range(0, len(raw), width))
        profiles.append({(e,): count for e, count in enumerate(digits) if count})
    return profiles


def _dict_profiles(grammar: NormalizedGrammar, weighted: tuple, n: int,
                   lengths) -> list:
    """The axiom's {composition: word count} maps at `lengths` (each at most
    n), by `inside` over {composition: word count} dicts; raises
    ClassCapExceeded when a merge holds more than CLASS_CAP compositions."""
    unit = {t: tuple(int(t == u) for u in weighted) for t in grammar.terminals}

    def add(x, y):
        out = dict(x)
        for comp, count in y.items():
            out[comp] = out.get(comp, 0) + count
        if len(out) > CLASS_CAP:
            raise ClassCapExceeded(f"more than {CLASS_CAP} weight classes")
        return out

    def dot(xs, ys):
        out = {}
        for px, py in zip(xs, ys):
            if px and py:
                for cx, nx in px.items():
                    for cy, ny in py.items():
                        comp = tuple(map(operator.add, cx, cy))
                        out[comp] = out.get(comp, 0) + nx * ny
        return out

    row = inside(grammar, n, lambda t: {unit[t]: 1}, {(0,) * len(weighted): 1},
                 {}, add, dot)[grammar.axiom]
    return [row[m] for m in lengths]


def _profiles(grammar: NormalizedGrammar, weights, n: int, lengths) -> tuple:
    """(weighted terminals, {terminal: Fraction weight}, the axiom's
    {composition: word count} map at each of `lengths`): packed tables for
    t <= 1 weighted terminals, the dict DP for more."""
    weights = _fractions(grammar, grammar.weights if weights is None else weights)
    weighted = tuple(sorted(t for t in grammar.terminals if weights[t] != 1))
    route = _packed_profiles if len(weighted) <= 1 else _dict_profiles
    return weighted, weights, route(grammar, weighted, n, lengths)


def weight_spectra(grammar: NormalizedGrammar, weights=None, n: int = 0) -> list:
    """WeightSpectrum for every length 0..n (None where the slice is empty).

    Compositions only track the t terminals with non-unit weight, which
    keeps the class count at (n+1)^t instead of (n+1)^|V|.  With t <= 1
    they come from exact count tables over a packed letter, with t >= 2
    from a dict DP (see the module docstring).  Raises ClassCapExceeded
    when a cell of the dict DP holds more than CLASS_CAP compositions, and
    ValueError when a terminal has no weight.
    """
    weighted, weights, profiles = _profiles(grammar, weights, n, range(n + 1))
    return [_spectrum(m, weighted, weights, profile) if profile else None
            for m, profile in enumerate(profiles)]


def weight_spectrum(grammar: NormalizedGrammar, weights=None, n: int = 0) -> WeightSpectrum:
    """The weight-class spectrum of the length-n slice (exact): the spectrum
    `weight_spectra` gives at n, built from the axiom's length-n cell
    alone."""
    weighted, weights, (profile,) = _profiles(grammar, weights, n, (n,))
    if not profile:
        raise EmptyLanguageError(f"no words of length {n}")
    return _spectrum(n, weighted, weights, profile)


def _powers(base: int, top: int) -> list:
    """base ** e for e = 0..top."""
    return list(accumulate(repeat(base, top), operator.mul, initial=1))


def _spectrum(n: int, weighted: tuple, weights, profile: dict) -> WeightSpectrum:
    """The length-n spectrum of a nonempty {composition vector over
    `weighted`: word count} map, in the integer form of `WeightSpectrum`.

    With one weighted terminal, of weight a/b in lowest terms, each
    composition (e,) is its own class of weight a^e / b^e; over the
    compositions' range lo..hi that is a^(e-lo) * b^(hi-e) times the unit
    a^lo / b^hi, whose keys have gcd 1 (those of lo and hi are coprime
    powers) and sort by e, descending when a < b.  No gcd is taken.
    Otherwise L is the lcm of the weights' denominators and W_j = w_j * L; a
    composition e weighs key / L^n for the integer key
    prod(W_j ** e_j) * L^(n - sum(e)), so compositions of equal key share a
    class and classes sort by key; one gcd g of the keys and the Fraction
    g / L^n give the form (with no weighted terminal, the one key 1 and the
    unit 1)."""
    if len(weighted) == 1:
        a, b = weights[weighted[0]].as_integer_ratio()
        exps = sorted(e for (e,) in profile)
        lo, hi = exps[0], exps[-1]
        if a < b:
            exps.reverse()
        rows_a, rows_b = _powers(a, hi - lo), _powers(b, hi - lo)
        return WeightSpectrum(n, weighted,
                              tuple(rows_a[e - lo] * rows_b[hi - e] for e in exps),
                              (a ** lo, b ** hi), tuple(profile[e,] for e in exps),
                              tuple(((e,),) for e in exps))
    scale, letters = _scaled(weighted, weights)
    rows = [_powers(letters[t], n) for t in weighted]
    lengths = _powers(scale, n)
    groups = {}
    for comp, count in profile.items():
        key = prod(map(operator.getitem, rows, comp), start=lengths[n - sum(comp)])
        entry = groups.setdefault(key, [0, []])
        entry[0] += count
        entry[1].append(comp)
    keys = sorted(groups)
    g = gcd(*keys)
    unit = Fraction(g, lengths[n])
    return WeightSpectrum(n, weighted, tuple(key // g for key in keys),
                          (unit.numerator, unit.denominator),
                          tuple(groups[key][0] for key in keys),
                          tuple(tuple(sorted(groups[key][1])) for key in keys))


def _min_word(x, y):
    return min(x, y) if x and y else x or y


def _min_dot(xs, ys):
    return min(filter(None, map(operator.mul, xs, ys)), default=0)


def _max_dot(xs, ys):
    return max(map(operator.mul, xs, ys), default=0)


def _extreme_row(grammar: NormalizedGrammar, weights, horizon: int, largest: bool) -> tuple:
    """(D, row): row[m] is D^m times the minimal (or, if `largest`, maximal)
    word weight at length m under the Fraction `weights`, by a (min, x) or
    (max, x) DP over their scaled int values, with 0 meaning "no word"."""
    scale, letters = _scaled(grammar.terminals, weights)
    add, dot = (max, _max_dot) if largest else (_min_word, _min_dot)
    return scale, inside(grammar, horizon, letters.__getitem__, 1, 0, add, dot)[grammar.axiom]


def extreme_weights(grammar: NormalizedGrammar, n: int) -> tuple:
    """(minimal, maximal) word weight at length n, by (min, x) and (max, x) DPs.

    Cheaper than the full spectrum and immune to its class-count cap.
    """
    scale, lows = _extreme_row(grammar, grammar.weights, n, largest=False)
    _, highs = _extreme_row(grammar, grammar.weights, n, largest=True)
    if not highs[n]:
        raise EmptyLanguageError(f"no words of length {n}")
    return Fraction(lows[n], scale ** n), Fraction(highs[n], scale ** n)
