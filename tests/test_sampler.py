import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest

from weightedgen import (EmptyLanguageError, RnaModel, SamplerState,
                         branch_distribution, build_counts, counting, normalize,
                         parse_grammar, rna_grammar, sample_word, sampler,
                         word_probability, word_weight)
from helpers import choices, enumerate_words, random_grammar, walk_sample_word

# chi-square upper quantiles at significance 0.001
CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266, 5: 20.515, 8: 26.124,
             13: 34.528, 20: 45.315}

# one node of five options at length 1
FIVE_LETTERS = ("axiom S\nterminal a weight 1/3\nterminal b weight 7\nterminal c weight 5/11\n"
                "terminal d weight 2\nterminal e weight 13/3\nS -> a | b | c | d | e\n")


def test_branch_distribution_weighted(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 2)
    dist = branch_distribution(table, 2)
    assert dist == {(".", "."): Fraction(4, 5), ("(", ")"): Fraction(1, 5)}


def test_branch_distribution_equals_weight_ratio():
    rng = random.Random(31337)
    for _ in range(4):
        g = random_grammar(rng, probe_depth=6)
        ng = normalize(g)
        table = build_counts(ng, None, 6)
        for n in range(7):
            if table.total(n) == 0:
                continue
            dist = branch_distribution(table, n)
            words = set(enumerate_words(g, n))
            assert set(dist) == words
            for w in words:
                assert dist[w] == word_probability(w, table)


def test_sampled_words_are_in_language(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 6)
    state = SamplerState(table, seed=99)
    lang = set(enumerate_words(motzkin_h2_norm.original, 6))
    for _ in range(50):
        w = sample_word(state, 6)
        assert len(w) == 6
        assert w in lang


def test_determinism_under_seed(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 5)
    def words(state):
        return [sample_word(state, 5) for _ in range(25)]

    a = words(SamplerState(table, seed=4242))
    assert a == words(SamplerState(table, seed=4242))
    assert a != words(SamplerState(table, seed=4243))


def test_single_word_languages():
    g = normalize(parse_grammar("axiom S\nterminal a\nS -> a S | a\n"))
    table = build_counts(g, None, 4)
    state = SamplerState(table, seed=1)
    assert all(sample_word(state, 4) == ("a",) * 4 for _ in range(10))


def test_empty_length_raises(motzkin_norm):
    g = normalize(parse_grammar("axiom S\nterminal a\nterminal b\nS -> a S b | a b\n"))
    table = build_counts(g, None, 5)
    state = SamplerState(table, seed=1)
    with pytest.raises(EmptyLanguageError):
        sample_word(state, 3)


DYCK = "axiom S\nterminal (\nterminal )\nS -> ( S ) S | _\n"


@pytest.mark.parametrize("entry", [
    lambda g: word_probability(("(", ")", "("), build_counts(g, None, 3)),
    lambda g: branch_distribution(build_counts(g, None, 3), 3),
    lambda g: counting.extreme_weights(g, 3),
], ids=["word_probability", "branch_distribution", "extreme_weights"])
def test_empty_length_refusals(entry):
    with pytest.raises(EmptyLanguageError, match="no words of length 3"):
        entry(normalize(parse_grammar(DYCK)))


def test_word_probability_refuses_a_word_beyond_the_table(motzkin_h2_norm):
    with pytest.raises(ValueError, match="length 4 outside"):
        word_probability((".",) * 4, build_counts(motzkin_h2_norm, None, 3))


def test_branch_distribution_refuses_past_the_word_cap(motzkin_norm):
    # unit Motzkin has 15511 words of length 12
    with pytest.raises(RuntimeError, match=f"more than {sampler.BRANCH_WORD_CAP} words"):
        branch_distribution(build_counts(motzkin_norm, None, 12), 12)


def test_empirical_weighted_frequencies(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 2)
    state = SamplerState(table, seed=2024)
    n_draws = 20_000
    hits = sum(1 for _ in range(n_draws)
               if sample_word(state, 2) == (".", "."))
    p = 0.8
    sigma = math.sqrt(p * (1 - p) / n_draws)
    assert abs(hits / n_draws - p) < 3 * sigma


def test_uniform_chi_square(motzkin_norm):
    table = build_counts(motzkin_norm, None, 5)
    state = SamplerState(table, seed=60601)
    n_draws = 20_000
    counts = Counter(sample_word(state, 5) for _ in range(n_draws))
    support = set(enumerate_words(motzkin_norm.original, 5))
    assert set(counts) <= support
    expected = n_draws / len(support)
    stat = sum((counts.get(w, 0) - expected) ** 2 / expected for w in support)
    assert stat < CHI2_CRIT[len(support) - 1]


def test_word_weight_examples(motzkin_h2):
    w = motzkin_h2.weights
    assert word_weight((), w) == 1
    assert word_weight(("(", ".", ")"), w) == 2
    # defined regardless of language membership
    assert word_weight((".", ".", "("), w) == 4


def test_word_weight_unknown_terminal(motzkin_h2):
    with pytest.raises(ValueError, match="unknown terminal"):
        word_weight(("x",), motzkin_h2.weights)


def test_word_probability(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 3)
    assert word_probability((".", ".", "."), table) == Fraction(8, 14)
    assert word_probability(("(", ".", ")"), table) == Fraction(2, 14)


def test_mpf_table_samples_words(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 4, precision=128)
    lang = set(enumerate_words(motzkin_h2_norm.original, 4))
    state = SamplerState(table, seed=5)
    assert all(sample_word(state, 4) in lang for _ in range(50))


def test_fixed_point_node_probabilities_are_exact_ratios():
    # One node with k=5 options at p=24 bits: the draw is an integer below the
    # node's bound, so each option's probability is its stored weight over
    # that bound, within the sampler docstring's 2n * 2^-(p+64) (n = 1) of
    # its exact share.
    g = normalize(parse_grammar(FIVE_LETTERS))
    p = 24
    table = build_counts(g, None, 1, precision=p)
    options = list(choices(table, g.axiom, 1))
    bound = table.options(g.axiom, 1)[0]
    assert sum(w for w, _, _ in options) == bound
    dist = branch_distribution(table, 1)
    assert dist == {rule.rhs: Fraction(w, bound) for w, rule, _ in options}
    exact = build_counts(g, None, 1)
    for word, probability in dist.items():
        share = word_probability(word, exact)
        assert abs(probability - share) <= Fraction(2, 2 ** (p + 64)) * share


# ---------------------------------------------------------------------------
# the memoised pick: every branch gives the subtraction walk's word


class Scripted:
    """A stand-in for `random.Random` whose getrandbits returns the scripted
    draws in turn, then zeros; `used` counts the calls."""

    def __init__(self, draws):
        self.draws = iter(draws)
        self.used = 0

    def getrandbits(self, k):
        self.used += 1
        return next(self.draws, 0)


def memo_node(table, nt, m):
    """The sampler's memoised Node at (nt, m), made as sample_word makes it
    on the first visit."""
    nodes = table.nodes
    if (nt, m) not in nodes:
        nodes[nt, m] = sampler.Node(m, *table.options(nt, m))
    return nodes[nt, m]


def top_low(node, r):
    """The two draws that make r at `node`: its top bits, then its low bits."""
    return divmod(r, 1 << node.shift)


def scripted_words(table, draws, count):
    """`count` words of sample_word on `table` and of the subtraction walk on a
    fresh table alike, from one script each; asserts that they agree and
    that both use all of the script and then the same number of zeros."""
    n = table.horizon
    state, oracle = SamplerState(table), SamplerState(
        build_counts(table.grammar, None, n, table.precision))
    state.rng, oracle.rng = Scripted(draws), Scripted(draws)
    words = [sample_word(state, n) for _ in range(count)]
    assert words == [walk_sample_word(oracle, n) for _ in range(count)]
    assert state.rng.used == oracle.rng.used >= len(draws)
    return words


@pytest.fixture
def five_letters(monkeypatch):
    """(table, node, exact prefix sums, walk calls) at the one node of a
    p = 24 table with five letters, whose prefix sums are not multiples of
    2^s, so a draw just below one shares its top bits."""
    g = normalize(parse_grammar(FIVE_LETTERS))
    table = build_counts(g, None, 1, precision=24)
    sums = list(accumulate(w for w, _, _ in choices(table, g.axiom, 1)))
    node = memo_node(table, g.axiom, 1)
    assert node.shift > 0 and all((x - 1) >> node.shift == x >> node.shift for x in sums)
    assert sums[-1] == node.bound
    walks = []
    walk = sampler._walk
    monkeypatch.setattr(sampler, "_walk",
                        lambda node, r, weight: walks.append(r) or walk(node, r, weight))
    return table, node, sums, walks


def test_cold_node_is_extended_across_draws(five_letters):
    # top bits 0 tie with no sum: one draw; r = sums[1] and r = sums[3] tie
    # with the sum they equal once the node is extended past their top bits,
    # so their low bits are drawn and the exact walk picks
    table, node, sums, walks = five_letters
    state = SamplerState(table)
    state.rng = Scripted([0, *top_low(node, sums[1]), *top_low(node, sums[3])])
    for letter, known, used in (("a", 1, 1), ("c", 3, 3), ("e", 5, 5)):
        assert sample_word(state, 1) == (letter,)
        assert len(node.known[0]) == known and state.rng.used == used
    assert node.known[1] == sums[-1] and walks == [sums[1], sums[3]]


def test_tie_at_the_last_known_sum_is_settled_exactly(five_letters):
    # r = sums[0] - 1 shares the top bits of the only known sum: the node is
    # extended by one sum, whose top bits exceed them, and the exact walk
    # picks option 0; r = sums[0] ties alike and picks option 1
    table, node, sums, walks = five_letters
    words = scripted_words(table, [0, *top_low(node, sums[0] - 1),
                                   *top_low(node, sums[0])], 3)
    assert words == [("a",), ("a",), ("b",)]
    assert len(node.known[0]) == 2 and walks == [sums[0] - 1, sums[0]]


def test_tie_inside_the_known_sums_walks(five_letters):
    # r = bound - 1 has the bound's top bits, so its low bits come at once,
    # and it ties with the last sum; with every sum known, r just below
    # sums[1] and r = sums[1] share its top bits: only the exact walk tells
    # option 1 from option 2.  A draw
    # halfway between sums[2] and sums[3] ties with neither: its top bits pick
    table, node, sums, walks = five_letters
    middle = (sums[2] + sums[3]) // 2
    words = scripted_words(table, [*top_low(node, sums[-1] - 1), *top_low(node, sums[1] - 1),
                                   *top_low(node, sums[1]), middle >> node.shift], 4)
    assert words == [("e",), ("b",), ("c",), ("d",)]
    assert walks == [sums[-1] - 1, sums[1] - 1, sums[1]]


def test_extend_past_a_draw_gives_the_walks_pick(five_letters):
    # extend stops at the first sum whose top bits exceed h and draws
    # nothing; a node that another sampler extended past a draw is only
    # bisected, and a tie there still walks
    table, node, sums, walks = five_letters
    s = node.shift
    hi = sampler._extend(node, sums[2] >> s, table.weight)
    assert hi == [x >> s for x in sums[:4]] and node.known == (hi, sums[3])
    assert sampler._extend(node, sums[1] >> s, table.weight) == hi and node.known[1] == sums[3]
    middle = (sums[0] + sums[1]) // 2
    words = scripted_words(table, [*top_low(node, sums[1]), middle >> s], 2)
    assert words == [("c",), ("b",)]
    assert len(node.known[0]) == 4 and walks == [sums[1]]


def test_clipped_last_option_on_a_fixed_point_table(motzkin):
    # with '.' weighing 5/3 the pair options at the axiom sum to more than the
    # bound, and the last one is cut short: r = bound - 1 is the last draw
    # that reaches it, and it has the bound's top bits
    g = normalize(motzkin.with_weights({".": Fraction(5, 3)}))
    table = build_counts(g, None, 6, precision=24)
    axiom = g.axiom
    sums = list(accumulate(w for w, _, _ in choices(table, axiom, 6)))
    node = memo_node(table, axiom, 6)
    top, low = top_low(node, node.bound - 1)
    assert sums[-2] < node.bound < sums[-1] and top == node.top
    scripted_words(table, [top, low], 1)
    assert len(node.known[0]) == len(sums)


# ---------------------------------------------------------------------------
# the law of one draw, and one stream however much of a table is memoised


class Branch(Exception):
    """An unscripted draw of `k` bits."""

    def __init__(self, k):
        self.k = k


class Rejected(Exception):
    """A draw past the last one of an attempt: the attempt was rejected."""


class Picked(Exception):
    """sample_word moved on to the first child of its pick."""


class Attempt:
    """A getrandbits over the first attempt at `node`: returns the scripted
    (bits, value) draws in turn and raises Branch for the next one.  An
    attempt draws once at a bound of at most LIMB_BITS bits or at top bits
    above the bound's, twice otherwise; a draw past those raises Rejected."""

    def __init__(self, node, script):
        self.script = script
        first = script[0][1] if script else 0
        self.length = 1 if not node.shift or first > node.top else 2
        self.used = 0

    def getrandbits(self, k):
        if self.used == self.length:
            raise Rejected
        if self.used == len(self.script):
            raise Branch(k)
        bits, value = self.script[self.used]
        assert bits == k
        self.used += 1
        return value


def attempt_law(table, n, monkeypatch) -> dict:
    """{(first child or letter, split): probability} of the first attempt
    of sample_word at the axiom node (nt, n), with None for a rejection, by
    running it on every sequence of draws; a sequence weighs 2^-(its bits).
    Each sequence runs from a cold node, from every partly known one and
    from a fully known one, which must all draw alike."""
    axiom = table.grammar.axiom
    node = memo_node(table, axiom, n)
    sums = [0, *accumulate(w for w, _, _ in choices(table, axiom, n))]
    # every prefix of the sums that a draw may reach, as earlier draws,
    # tied or not, may have left the node
    hi = sampler._extend(node, node.top, table.weight)
    prefixes = [(hi[:j], sums[j]) for j in range(len(hi) + 1)]

    class AxiomOnly(dict):
        """A memo that holds the axiom node and stops the walk at any other."""

        def get(self, key, default=None):
            if key != (axiom, n):
                raise Picked(*key)
            return node

    monkeypatch.setattr(table, "nodes", AxiomOnly())
    state = SamplerState(table)
    law = Counter()
    pending = [()]
    while pending:
        script = pending.pop()
        outcomes = []
        for node.known in prefixes:
            state.rng = Attempt(node, script)
            try:
                (letter,) = sample_word(state, n)
                outcomes.append((letter, 1))
            except Picked as picked:
                outcomes.append(picked.args)
            except Rejected:
                outcomes.append(None)
            except Branch as branch:
                outcomes.append(branch.k)
        assert outcomes == outcomes[:1] * len(outcomes)
        if isinstance(outcomes[0], int):
            k = outcomes[0]
            pending += [script + ((k, v),) for v in range(2 ** k)]
        else:
            law[outcomes[0]] += Fraction(1, 2 ** sum(k for k, _ in script))
    return law


# two letters whose two sums share the top bits of the bound at 2- and 3-bit
# limbs, exact and at p = 2
TEN_ONE = "axiom S\nterminal a weight 10\nterminal b weight 1\nS -> a | b\n"

# a pair rule S -> S S at every split, one with a letter first, and two letters
SPLITS = ("axiom S\nterminal a weight 5/3\nterminal b weight 1/2\nterminal c\n"
          "S -> S S | a S | b | c\n")


@pytest.mark.parametrize("limb", [2, 3])
@pytest.mark.parametrize("source,n,precision", [
    pytest.param(FIVE_LETTERS, 1, None, id="letters-exact"),
    pytest.param(FIVE_LETTERS, 1, 2, id="letters-p2"),
    pytest.param(TEN_ONE, 1, None, id="ten-one-exact"),
    pytest.param(TEN_ONE, 1, 2, id="ten-one-p2"),
    pytest.param(SPLITS, 2, None, id="splits2-exact"),
    pytest.param(SPLITS, 3, None, id="splits3-exact"),
    pytest.param(SPLITS, 2, 2, id="splits2-p2"),
    pytest.param(SPLITS, 3, 2, id="splits3-p2"),
    pytest.param(SPLITS, 3, 3, id="splits3-p3")])
def test_one_attempt_draws_each_option_with_its_exact_share(monkeypatch, limb, source,
                                                             n, precision):
    # With a limb of 2 or 3 bits every node draws top bits first, and
    # GUARD_BITS = 0 keeps fixed-point cells a few bits wide, so every draw
    # sequence of an attempt can be run.  Accepted with probability B / 2^L
    # at a bound B of L bits, an attempt picks each option with its weight
    # over B, the last one cut short at the bound (SPLITS at n = 3 on either
    # fixed-point table), as `branch_distribution` weighs it.
    monkeypatch.setattr(sampler, "LIMB_BITS", limb)
    monkeypatch.setattr(counting, "GUARD_BITS", 0)
    g = normalize(parse_grammar(source))
    table = build_counts(g, None, n, precision)
    bound = left = table.options(g.axiom, n)[0]
    expected = {}
    for weight, rule, j in choices(table, g.axiom, n):
        if left > 0:
            expected[rule.rhs[0], j] = Fraction(min(weight, left), bound)
        left -= weight
    assert sum(expected.values()) == 1 and bound.bit_length() > limb
    law = attempt_law(table, n, monkeypatch)
    accepted = 1 - law.pop(None)
    assert accepted == Fraction(bound, 2 ** bound.bit_length())
    assert {key: p / accepted for key, p in law.items()} == expected


@pytest.mark.parametrize("source,n,precision", [
    ("rna", 100, None), ("rna", 200, None), ("motzkin", 40, 256)])
def test_cold_warm_and_shared_tables_give_one_stream(motzkin, source, n, precision):
    # the RNA draws run to some 18000 bits at n = 200, the float256 ones
    # to some 700: most picks are made by top bits, and the rest of each
    # draw is drawn alike whether the node was cold, warm or extended by
    # another stream
    if source == "rna":
        g = normalize(rna_grammar(3, RnaModel(theta=3, pair_energy=-3.0).w))
    else:
        g = normalize(motzkin.with_weights({".": 2}))

    def words(table, seed=7, count=30):
        state = SamplerState(table, seed)
        return [sample_word(state, n) for _ in range(count)]

    table = build_counts(g, None, n, precision)
    cold = words(table)
    words(table, 8, 100)
    assert words(table) == cold
    shared = build_counts(g, None, n, precision)
    ours, other = SamplerState(shared, seed=7), SamplerState(shared, seed=8)
    drawn = []
    for _ in cold:
        sample_word(other, n)
        drawn.append(sample_word(ours, n))
    assert drawn == cold


def test_each_option_weight_is_computed_once_and_never_more_than_the_walk(monkeypatch):
    # a cold first word computes no more option weights than the walk, so a
    # short run cannot get slower; later words reuse the memoised sums
    g = normalize(rna_grammar(3, RnaModel(theta=3, pair_energy=-3.0).w))
    table, oracle = build_counts(g, None, 60), build_counts(g, None, 60)
    counts = Counter()

    def count_weights(t, name):
        weight = t.weight

        def counted(*args):
            counts[name] += 1
            return weight(*args)
        monkeypatch.setattr(t, "weight", counted)

    count_weights(table, "memo")
    count_weights(oracle, "walk")
    state, walked = SamplerState(table, seed=3), SamplerState(oracle, seed=3)
    for _ in range(40):
        assert sample_word(state, 60) == walk_sample_word(walked, 60)
        assert counts["memo"] <= counts["walk"]
    nodes = table.nodes.values()
    assert counts["memo"] == sum(len(node.known[0]) for node in nodes) \
        <= sum(len(node.rules) for node in nodes)
    assert counts["memo"] * 10 < counts["walk"]


def test_warm_rna_stream_is_pinned():
    # 1000 words of RNA theta=3, E=-3 at n=100 from seed 1, most drawn at
    # warm nodes; the hash is that of the subtraction walk's stream, whose
    # draws take top bits first (`walk_sample_word`)
    g = normalize(rna_grammar(3, RnaModel(theta=3, pair_energy=-3.0).w))
    state = SamplerState(build_counts(g, None, 100), seed=1)
    text = "".join("".join(sample_word(state, 100)) + "\n" for _ in range(1000))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "74ffd26fd067c5e108b1516361e4217b783de16f7bb98102dddca7de9a6a2ec6"
