"""Random generation of fixed-length words under the weighted distribution.

Words are drawn top-down by the recursive method: at each node (A, m) an
integer r is drawn uniformly below `CountTable.draw_bound(A, m)` by
`numerics.below`, and the pick is the first option of `CountTable.choices`
whose prefix sum exceeds r: the option at which subtracting the options
from r in order makes it negative.  The options always sum to at least the
bound, so there always is one; an option that the bound cuts short is taken
with the part of its weight below the bound.  Every table thus gives each
word an exact rational probability, a product of ratios of stored integers.

The pick is found by bisection over the node that `CountTable.node`
memoises on its first visit: with s = max(0, bound.bit_length() - 64), it
keeps hi[i] = (sum of the first i + 1 options) >> s for the options summed
so far, and the exact last of those sums.  With t = r >> s, i =
bisect_right(hi, t) is the pick, except in two cases that exact arithmetic
settles.  If hi[i - 1] == t and s > 0, the top bits tie and cannot tell
whether that sum exceeds r, so `CountTable.walk` subtracts the exact
options from r; that happens with probability about 2^-63 per draw.  If r
reaches past every known sum (or ties the last, which the exact last sum
settles), `CountTable.extend` adds the next options' weights to the last
sum until it exceeds r.  So a node computes each option's weight at most
once, and on its first visit no more than the walk would, and every seeded
stream is the walk's, on exact and fixed-point tables alike.

On an exact table the options sum exactly to the bound, so a word w of
length n is produced with probability exactly weight(w) / total(n).  On a
fixed-point table (precision p, q = p + 64 bits; see `counting`) each stored
cell is within a relative (2m-1) * 2^-q below its value, and the product of
a word's option probabilities telescopes to its letters over the axiom cell.
Let U be the most unit paths, the empty one included, that lead from one
nonterminal to nonterminals with pair rules (U = 1 for the built-in
grammars).  The axiom cell raises w's probability by at most a relative
(2n-1) * 2^-q.  Two things lower it: each of its n letters is floored by
less than a relative 2^-q, and at each of its at most n-1 nodes of length
m >= 2 the bound cuts less than the slack U * 2^q of `draw_bound` off an
option of at least (2^q - 2m)^2.  So w is produced with probability within
a relative (U+1) * n * 2^-q of weight(w) / total(n), for n <= 2^(q/2 - 2);
that is 2n * 2^-q when U = 1.  `branch_distribution` computes those
probabilities exactly.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import CountTable, EmptyLanguageError
from .numerics import DEFAULT_SEED, below, substream_seed

# distinct words one node of `branch_distribution` may hold before it gives up
BRANCH_WORD_CAP = 10_000


@dataclass
class SamplerState:
    """Seeded sampling stream over a count table that any number may share.

    Identical (seed, grammar, weights, n, precision) produce an identical
    word sequence on any platform: the stream is substream 0 of the seed, and
    every draw is a `numerics.below` over its bits.
    """

    table: CountTable
    seed: int = DEFAULT_SEED
    rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = random.Random(substream_seed(self.seed))


def sample_word(state: SamplerState, n: int) -> tuple:
    """One word of length exactly n, distributed proportionally to its weight."""
    table = state.table
    if n > table.horizon:
        raise ValueError(f"length {n} beyond table horizon {table.horizon}")
    axiom = table.grammar.axiom
    if not table.cell(axiom, n):
        raise EmptyLanguageError(f"no words of length {n}")
    getrandbits = state.rng.getrandbits
    node_at = table.node

    out = []
    stack = [(axiom, n)]
    while stack:
        node = node_at(*stack.pop())
        r = below(getrandbits, node.bound)
        hi, last = node.known
        top = r >> node.shift
        i = bisect_right(hi, top)
        if i == len(hi) and last <= r:
            i = table.extend(node, r)
        else:
            if i == len(hi):
                i -= 1  # the last known sum exceeds r: a tie settled by `last`
            if i and hi[i - 1] == top and node.shift:
                i = table.walk(node, r)
        rule = node.rules[i]
        if rule.kind == "term":
            out.append(rule.rhs[0])
        elif rule.kind == "pair":
            b, c = rule.rhs
            j = node.splits[i]
            stack.append((c, node.m - j))
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


def branch_distribution(table: CountTable, n: int) -> dict:
    """Exact sampling distribution, by walking every branch of the decision tree.

    Walks the same `CountTable.choices` below the same `draw_bound` as
    sample_word, symbolically, so it gives each word the exact probability
    the sampler draws it with: weight(w)/total(n) on an exact table, and
    within the bound of the module docstring on a fixed-point one.
    Exponential in n; guarded by BRANCH_WORD_CAP.
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
        if len(acc) > BRANCH_WORD_CAP:
            raise RuntimeError(f"more than {BRANCH_WORD_CAP} words in branch analysis")
        memo[key] = acc
        return acc

    if table.total(n) == 0:
        raise EmptyLanguageError(f"no words of length {n}")
    return dict(dist(table.grammar.axiom, n))
