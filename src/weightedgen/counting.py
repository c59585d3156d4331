"""Exact weighted counting: totals, distribution moments, weight-class spectra.

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
truncation per cell keeps it within a relative (2m-1) * 2^-q below its value.
Their `value()` rounds the cell to a p-bit mpf.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from mpmath import mp

from .grammar import NormalizedGrammar, inside

# bits a fixed-point table keeps beyond its precision
GUARD_BITS = 64


class EmptyLanguageError(ValueError):
    """The language has no word of the requested length."""


class ClassCapExceeded(RuntimeError):
    """The weight-class DP grew past its configured cap."""


def _scaled(grammar: NormalizedGrammar, weights) -> tuple:
    """(D, {terminal: D * weight}) with D the lcm of the weight denominators."""
    scale = lcm(*(weights[t].denominator for t in grammar.terminals))
    return scale, {t: weights[t].numerator * (scale // weights[t].denominator)
                   for t in grammar.terminals}


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
    O(|rules| * horizon^2) products; completed tables are immutable and safe
    to share.
    """

    def __init__(self, grammar: NormalizedGrammar, weights, horizon: int,
                 precision: int | None = None):
        self.grammar = grammar
        self.horizon = horizon
        self.precision = precision
        self.weights = {t: Fraction(w) for t, w in weights.items()}
        for t in grammar.terminals:
            if t not in self.weights:
                raise ValueError(f"missing weight for terminal {t!r}")
        if precision is None:
            self._shift = 0
            self._scale, self._letters = _scaled(grammar, self.weights)
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

    def draw_bound(self, nt: str, m: int) -> int:
        """The bound a sampler draws r below at (nt, m), in the scale of `choices`.

        The options of `choices(nt, m)` sum to at least this bound, exactly on
        an exact table and at lengths 0 and 1.  On a fixed-point table a pair
        option is a product of two cells, so it sits 2^q above the cell's
        scale, and the cell is the floor of the options' sum shifted down by q.
        """
        cell = self.cell(nt, m)
        return cell << self._shift if m >= 2 else cell

    def choices(self, nt: str, m: int):
        """The nonzero (weight, rule, split) options of the recursive method at (nt, m).

        Weights are ints in the scale of `draw_bound(nt, m)`; a walk that
        subtracts them from a draw below that bound in this order always
        stops at an option.  `split` is the length of a pair rule's first
        child.  Split points come from both ends inwards, where these grammars
        put most of the weight, so a walk that stops at a drawn option
        computes few products.
        """
        self.cell(nt, m)
        cells = self._cells
        for r in self.grammar.alternatives(nt):
            if r.kind == "term":
                if m == 1:
                    yield self._letters[r.rhs[0]], r, 1
            elif r.kind == "eps":
                if m == 0:
                    yield self._one, r, 0
            elif m >= 2:
                vb, vc = cells[r.rhs[0]], cells[r.rhs[1]]
                for j in _splits(m):
                    weight = vb[j] * vc[m - j]
                    if weight:
                        yield weight, r, j


def build_counts(grammar: NormalizedGrammar, weights=None, n: int = 0,
                 precision: int | None = None) -> CountTable:
    """Count table up to length n (weights default to the grammar's own)."""
    if weights is None:
        weights = grammar.weights
    return CountTable(grammar, weights, n, precision)


def moment(grammar: NormalizedGrammar, weights, k: int, n: int) -> Fraction:
    """k-th moment of the length-n weighted distribution.

    Equals the total weight under the pointwise k-th power of the weight
    vector, divided by the k-th power of the plain total.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights is None:
        weights = grammar.weights
    weights = {t: Fraction(w) for t, w in weights.items()}
    total = build_counts(grammar, weights, n).total(n)
    if total == 0:
        raise EmptyLanguageError(f"no words of length {n}")
    powered = {t: w ** k for t, w in weights.items()}
    total_k = build_counts(grammar, powered, n).total(n)
    return total_k / total ** k


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

    Classes are sorted by strictly increasing weight; the first/last entries
    are the minimal/maximal word weight.
    """

    n: int
    weighted_terminals: tuple
    classes: tuple

    def total_count(self) -> int:
        return sum(c.count for c in self.classes)

    def total_weight(self) -> Fraction:
        return sum((c.count * c.weight for c in self.classes), Fraction(0))

    def min_weight(self) -> Fraction:
        return self.classes[0].weight

    def max_weight(self) -> Fraction:
        return self.classes[-1].weight

    def to_csv(self) -> str:
        lines = ["weight_num,weight_den,multiplicity"]
        for c in self.classes:
            lines.append(f"{c.weight.numerator},{c.weight.denominator},{c.count}")
        return "\n".join(lines) + "\n"


def weight_spectra(grammar: NormalizedGrammar, weights=None, n: int = 0, *,
                   class_cap: int = 200_000) -> list:
    """WeightSpectrum for every length 0..n (None where the slice is empty).

    The semiring values are {composition vector: word count} maps.  Vectors
    only track terminals with non-unit weight, which keeps the class count at
    (n+1)^#weighted instead of (n+1)^|V|.
    """
    if weights is None:
        weights = grammar.weights
    weights = {t: Fraction(w) for t, w in weights.items()}
    weighted = tuple(sorted(t for t in grammar.terminals if weights[t] != 1))
    unit = {t: tuple(int(t == u) for u in weighted) for t in grammar.terminals}

    def add(x, y):
        out = dict(x)
        for comp, count in y.items():
            out[comp] = out.get(comp, 0) + count
        if len(out) > class_cap:
            raise ClassCapExceeded(f"more than {class_cap} weight classes")
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

    profiles = inside(grammar, n, lambda t: {unit[t]: 1}, {(0,) * len(weighted): 1},
                      {}, add, dot)[grammar.axiom]
    spectra = []
    for m, profile in enumerate(profiles):
        if not profile:
            spectra.append(None)
            continue
        groups = {}
        for comp, count in profile.items():
            chi = Fraction(1)
            for t, e in zip(weighted, comp):
                chi *= weights[t] ** e
            entry = groups.setdefault(chi, [0, []])
            entry[0] += count
            entry[1].append(comp)
        classes = tuple(
            WeightClass(chi, cnt, tuple(sorted(comps)))
            for chi, (cnt, comps) in sorted(groups.items()))
        spectra.append(WeightSpectrum(m, weighted, classes))
    return spectra


def weight_spectrum(grammar: NormalizedGrammar, weights=None, n: int = 0, *,
                    class_cap: int = 200_000) -> WeightSpectrum:
    """The weight-class spectrum of the length-n slice (exact)."""
    sp = weight_spectra(grammar, weights, n, class_cap=class_cap)[n]
    if sp is None:
        raise EmptyLanguageError(f"no words of length {n}")
    return sp


def _min_word(x, y):
    return min(x, y) if x and y else x or y


def _min_dot(xs, ys):
    return min(filter(None, map(operator.mul, xs, ys)), default=0)


def _max_dot(xs, ys):
    return max(map(operator.mul, xs, ys), default=0)


def _extreme_row(grammar: NormalizedGrammar, weights, horizon: int, largest: bool) -> tuple:
    """(D, row): row[m] is D^m times the minimal (or, if `largest`, maximal)
    word weight at length m, by a (min, x) or (max, x) DP over the scaled int
    weights, with 0 meaning "no word"."""
    scale, letters = _scaled(grammar, {t: Fraction(w) for t, w in weights.items()})
    add, dot = (max, _max_dot) if largest else (_min_word, _min_dot)
    return scale, inside(grammar, horizon, letters.__getitem__, 1, 0, add, dot)[grammar.axiom]


def extreme_weights(grammar: NormalizedGrammar, weights=None, n: int = 0) -> tuple:
    """(minimal, maximal) word weight at length n, by (min, x) and (max, x) DPs.

    Cheaper than the full spectrum and immune to its class-count cap.
    """
    if weights is None:
        weights = grammar.weights
    scale, lows = _extreme_row(grammar, weights, n, largest=False)
    _, highs = _extreme_row(grammar, weights, n, largest=True)
    if not highs[n]:
        raise EmptyLanguageError(f"no words of length {n}")
    return Fraction(lows[n], scale ** n), Fraction(highs[n], scale ** n)
