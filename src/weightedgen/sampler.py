"""Random generation of fixed-length words under the weighted distribution.

Words are drawn top-down by the recursive method: at each node (A, m) an
integer r is drawn uniformly below `CountTable.draw_bound(A, m)` and the
options of `CountTable.choices` are subtracted from it until it goes
negative.  The options always sum to at least the bound, so the walk always
stops at an option; one that the bound cuts short is taken with the part of
its weight below the bound.  Every table thus gives each word an exact
rational probability, a product of ratios of stored integers.

On an exact table the options sum exactly to the bound, so a word w of
length n is produced with probability exactly weight(w) / total(n).  On a
fixed-point table (precision p, q = p + 64 bits; see `counting`) each stored
cell is within a relative (2m-1) * 2^-q below its value, and the product of
a word's option probabilities telescopes to its letters over the axiom cell:
w is produced with probability within a relative 2n * 2^-q of
weight(w) / total(n), for n <= 2^(q/2 - 2).  `branch_distribution` computes
those probabilities exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import CountTable, EmptyLanguageError
from .numerics import DEFAULT_SEED, substream_seed


@dataclass
class SamplerState:
    """Seeded sampling stream over a shared (read-only) count table.

    Identical (seed, grammar, weights, n, precision) produce an identical
    word sequence on any platform.  The stream is substream 0 of the seed.
    """

    table: CountTable
    seed: int = DEFAULT_SEED
    rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = random.Random(substream_seed(self.seed, 0))


def sample_word(state: SamplerState, n: int) -> tuple:
    """One word of length exactly n, distributed proportionally to its weight."""
    table = state.table
    if n > table.horizon:
        raise ValueError(f"length {n} beyond table horizon {table.horizon}")
    axiom = table.grammar.axiom
    if not table.cell(axiom, n):
        raise EmptyLanguageError(f"no words of length {n}")
    rng = state.rng

    out = []
    stack = [(axiom, n)]
    while stack:
        nt, m = stack.pop()
        r = rng.randrange(table.draw_bound(nt, m))
        for weight, rule, j in table.choices(nt, m):
            r -= weight
            if r < 0:
                break
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

    Walks the same `CountTable.choices` below the same `draw_bound` as
    sample_word, symbolically, so it gives each word the exact probability
    the sampler draws it with: weight(w)/total(n) on an exact table, and
    within the bound of the module docstring on a fixed-point one.
    Exponential in n; guarded by word_cap.
    """
    memo = {}

    def dist(nt, m):
        key = (nt, m)
        if key in memo:
            return memo[key]
        bound = left = table.draw_bound(nt, m)
        acc = {}
        for weight, rule, j in table.choices(nt, m):
            if left <= 0:
                break
            p = Fraction(min(weight, left), bound)
            left -= weight
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
