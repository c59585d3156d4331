"""Random generation of fixed-length words under the weighted distribution.

Words are drawn top-down by the recursive method: at each node (A, m) an r is
drawn below the count-table cell and the options of `CountTable.choices` are
subtracted from it until it goes negative.  On an exact table the cells are
ints, r is a uniform integer below the cell and the options sum exactly to it,
so a word w of length n is produced with probability exactly
weight(w) / total(n).  On an mpf table (precision p bits) r is a double in
[0, 1) times the cell, and the subtraction runs at p bits, rounding to
nearest: each option's probability is within 2**-53 + 10*k*2**-p of its
share of the stored cell, for k options at the node, so within 2**-52
whenever k <= 2**(p-57).  The 2**-53 is the grid of the double draw; the rest
bounds the shift of the option boundaries by the roundings of the draw, the
products, the subtractions and the cell itself.  The test suite's
statistical checks use exact tables only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .counting import CountTable, EmptyLanguageError
from .numerics import DEFAULT_SEED, substream_seed


@dataclass
class SamplerState:
    """Seeded sampling stream over a shared (read-only) count table.

    Identical (seed, worker, grammar, weights, n, precision) produce an
    identical word sequence on any platform.  Use one state per worker;
    `spawn` derives independent substreams.
    """

    table: CountTable
    seed: int = DEFAULT_SEED
    worker: int = 0
    rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = random.Random(substream_seed(self.seed, self.worker))

    def spawn(self, worker: int) -> "SamplerState":
        return SamplerState(self.table, self.seed, worker)


def sample_word(state: SamplerState, n: int) -> tuple:
    """One word of length exactly n, distributed proportionally to its weight."""
    table = state.table
    if n > table.horizon:
        raise ValueError(f"length {n} beyond table horizon {table.horizon}")
    axiom = table.grammar.axiom
    if not table.cell(axiom, n):
        raise EmptyLanguageError(f"no words of length {n}")
    rng = state.rng
    exact = table.precision is None

    out = []
    stack = [(axiom, n)]
    with mp.workprec(table.precision or mp.prec):
        while stack:
            nt, m = stack.pop()
            cell = table.cell(nt, m)
            r = rng.randrange(cell) if exact else cell * rng.random()
            for weight, rule, j in table.choices(nt, m):
                r -= weight
                if r < 0:
                    break
            # an mpf walk that rounds past the last option keeps that option
            if rule.kind == "term":
                out.append(rule.rhs[0])
            elif rule.kind == "pair":
                b, c = rule.rhs
                stack.append((c, m - j))
                stack.append((b, j))
    return tuple(out)


def word_weight(word, weights) -> Fraction:
    """Product of letter weights; defined for any terminal sequence."""
    total = Fraction(1)
    for t in word:
        if t not in weights:
            raise ValueError(f"unknown terminal {t!r}")
        total *= weights[t]
    return total


def word_probability(word, table: CountTable) -> Fraction:
    """weight(word) / total(len(word)) under the table's weights."""
    n = len(word)
    if n > table.horizon:
        raise ValueError(f"length {n} beyond table horizon {table.horizon}")
    total = table.total(n)
    if total == 0:
        raise EmptyLanguageError(f"no words of length {n}")
    return word_weight(word, table.weights) / total


def branch_distribution(table: CountTable, n: int, *, word_cap: int = 10_000) -> dict:
    """Exact sampling distribution, by walking every branch of the decision tree.

    Walks the same `CountTable.choices` as sample_word, symbolically, so it
    checks that the sampler's choice probabilities multiply out to
    weight(w)/total(n) word for word.  Exponential in n; guarded by word_cap.
    """
    if table.precision is not None:
        raise ValueError("branch analysis requires an exact count table")
    memo = {}

    def dist(nt, m):
        key = (nt, m)
        if key in memo:
            return memo[key]
        cell = table.cell(nt, m)
        acc = {}
        for weight, rule, j in table.choices(nt, m):
            p = Fraction(weight, cell)
            if rule.kind == "pair":
                b, c = rule.rhs
                dc = dist(c, m - j)
                for wb, pb in dist(b, j).items():
                    for wc, pc in dc.items():
                        acc[wb + wc] = acc.get(wb + wc, 0) + p * pb * pc
            else:
                acc[rule.rhs] = acc.get(rule.rhs, 0) + p
        if len(acc) > word_cap:
            raise RuntimeError(f"more than {word_cap} words in branch analysis")
        memo[key] = acc
        return acc

    if table.total(n) == 0:
        raise EmptyLanguageError(f"no words of length {n}")
    return dict(dist(table.grammar.axiom, n))
