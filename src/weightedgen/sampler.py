"""Random generation of fixed-length words under the weighted distribution.

Words are drawn top-down by the recursive method: at each node (A, m) an
integer r is drawn uniformly below the bound B of `CountTable.options(A,
m)`, and the pick is the first of its options, weighed by
`CountTable.weight`, whose prefix sum exceeds r: the option at which
subtracting the options from r in order makes it negative.  The options
always sum to at least the bound, so there always is one; an option that
the bound cuts short is taken with the part of its weight below the bound.
Every table thus gives each word an exact rational probability, a product
of ratios of stored integers.

r is drawn top bits first, and its low bits only when they matter (Denise
and Zimmermann, TCS 218, 1999).  With s = max(0, B.bit_length() -
LIMB_BITS), every node draws the top bits h = r >> s as
getrandbits(B.bit_length() - s) and rejects h > B >> s.  At h = B >> s it
rejects too if s = 0, and otherwise draws the s low bits at once and
rejects r >= B.  Below that, it draws the low bits only if some exact
prefix sum S of the options ties with h (S >> s == h); without a tie every
r with top bits h has the same pick.  So r is exactly uniform below B, and
a node's draws depend on nothing but the stream and its exact sums.  At
s = 0 the loop is the rejection loop of CPython's randrange(B), so bounds
below 2^LIMB_BITS keep the streams that randrange gave them.

The pick is found by bisection over a `Node`, made on the first visit to
(A, m) and kept in the table's `nodes` dict, which every sampler of the
table shares.  Besides the bound, s and the options' rules and splits, a
node keeps known = (hi, last): hi[i] = (sum of the first i + 1 options) >>
s for the options summed so far, and last the exact last of those sums.
When no known sum's top bits exceed h, `_extend` first adds the next
options' weights to last until one does, or every option is in; it draws
nothing, and it replaces `known` whole, never edits it.  Then i =
bisect_right(hi, h) is the pick unless s > 0 and hi[i - 1] == h: a tie,
which draws the low bits if they are not drawn yet and subtracts the exact
options from r (`_walk`); it has probability at most 2^-63 per sum.  So
outside a tie a node computes each option's weight at most once, and on
its first visit no more than the subtraction walk would, and the draws
depend only on h and the node's exact sums, never on how much of it is
known: cold, warm and shared tables give one stream, on exact and
fixed-point tables alike.  A node holds two list slots per option, one
LIMB_BITS-bit int per option summed so far and one exact sum, so a fully
visited table holds about its cells' size again plus some 60 bytes per
option; tracemalloc measured 0.81 MB after 1000 RNA words (theta=3, E=-3)
at n=100 and 1.9 MB after 100 at n=200.

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
m >= 2 the bound cuts less than the slack U * 2^q of `CountTable.options`
off an option of at least (2^q - 2m)^2.  So w is produced with probability
within a relative (U+1) * n * 2^-q of weight(w) / total(n), for n <=
2^(q/2 - 2); that is 2n * 2^-q when U = 1.  `branch_distribution` computes
those probabilities exactly.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from .counting import CountTable, EmptyLanguageError
from .numerics import DEFAULT_SEED, substream_seed, to_mpf

# top bits of a draw compared with a node's prefix sums before the rest is drawn
LIMB_BITS = 64

# distinct words one node of `branch_distribution` may hold before it gives up
BRANCH_WORD_CAP = 10_000


@dataclass
class SamplerState:
    """Seeded sampling stream over a count table that any number may share.

    Identical (seed, grammar, weights, n, precision) produce an identical
    word sequence on any platform: the stream is substream 0 of the seed,
    and every draw takes its bits from it by the rule of the module
    docstring, top bits first.  How much of the table is memoised, by this
    state or any other, does not change the stream.
    """

    table: CountTable
    seed: int = DEFAULT_SEED
    rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = random.Random(substream_seed(self.seed))


class Node:
    """One (nonterminal, length) node of the module docstring: its length m,
    bound, shift, the bound's top bits `top` and their number `bits`, its
    options' rules and splits, and `known`."""

    __slots__ = ("m", "bound", "shift", "bits", "top", "rules", "splits", "known")

    def __init__(self, m: int, bound: int, rules: list, splits: list):
        self.m, self.bound, self.rules, self.splits = m, bound, rules, splits
        self.shift = max(0, bound.bit_length() - LIMB_BITS)
        self.bits = bound.bit_length() - self.shift
        self.top = bound >> self.shift
        self.known = [], 0


def _extend(node: Node, h: int, weight) -> list:
    """The known top bits of `node` once a known sum's top bits exceed h, or
    every option is in."""
    s, rules, splits, m = node.shift, node.rules, node.splits, node.m
    hi, last = node.known
    hi = list(hi)
    while last >> s <= h and len(hi) < len(rules):
        i = len(hi)
        last += weight(rules[i], splits[i], m)
        hi.append(last >> s)
    node.known = hi, last
    return hi


def _walk(node: Node, r: int, weight) -> int:
    """The index of the first option of `node` whose exact prefix sum exceeds r."""
    for i, (rule, j) in enumerate(zip(node.rules, node.splits)):
        r -= weight(rule, j, node.m)
        if r < 0:
            return i


def sample_word(state: SamplerState, n: int) -> tuple:
    """One word of length exactly n, distributed proportionally to its weight."""
    table = state.table
    axiom = table.grammar.axiom
    if not table.cell(axiom, n):
        raise EmptyLanguageError(f"no words of length {n}")
    getrandbits = state.rng.getrandbits
    nodes, options, weight = table.nodes, table.options, table.weight

    out = []
    stack = [(axiom, n)]
    while stack:
        key = stack.pop()
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = Node(key[1], *options(*key))
        s, bits = node.shift, node.bits
        h, r = getrandbits(bits), None
        while h >= node.top:  # h > top rejects; h == top needs the low bits, if any
            if h == node.top and s:
                r = h << s | getrandbits(s)
                if r < node.bound:
                    break
            h, r = getrandbits(bits), None
        hi = node.known[0]
        i = bisect_right(hi, h)
        if i == len(hi):
            hi = _extend(node, h, weight)
            i = bisect_right(hi, h)
        if s and i and hi[i - 1] == h:  # a tie: only the exact r tells
            if r is None:
                r = h << s | getrandbits(s)
            i = _walk(node, r, weight)
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


def word_probability(word, table: CountTable):
    """weight(word) / total(len(word)) under the table's weights (`_share`)."""
    return _share(word_weight(word, table.weights), table, len(word))


def _share(weight: Fraction, table: CountTable, n: int):
    """weight / total(n) in the table's own number type: a Fraction on an
    exact table, a mpf at the table's precision on a fixed-point one."""
    total = table.total(n)
    if total == 0:
        raise EmptyLanguageError(f"no words of length {n}")
    if table.precision is None:
        return weight / total
    with mp.workprec(table.precision):
        return to_mpf(weight) / total


def branch_distribution(table: CountTable, n: int) -> dict:
    """Exact sampling distribution, by walking every branch of the decision tree.

    Walks the same `CountTable.options` below the same bound as
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
        bound, rules, splits = table.options(nt, m)
        left = bound
        acc = {}
        for rule, j in zip(rules, splits):
            if left <= 0:
                break
            weight = table.weight(rule, j, m)
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
