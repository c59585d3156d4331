import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from weightedgen import (EmptyLanguageError, SamplerState, branch_distribution,
                         build_counts, enumerate_words, normalize,
                         parse_grammar, sample_word,
                         word_probability, word_weight)
from helpers import random_grammar

# chi-square upper quantiles at significance 0.001
CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266, 5: 20.515, 8: 26.124,
             13: 34.528, 20: 45.315}


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


def test_substreams_differ(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 5)
    base = SamplerState(table, seed=4242)
    one, two = base.spawn(1), base.spawn(2)
    assert [sample_word(one, 5) for _ in range(25)] != \
        [sample_word(two, 5) for _ in range(25)]


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


class _FixedDraw:
    """Stands in for a state's rng: every draw returns the same double."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_mpf_draw_bias_within_stated_bound():
    # One node with k=5 options at p=24 bits.  The option taken is monotone in
    # the double drawn, so a binary search over the 2**53 grid of doubles in
    # [0, 1) gives each option's exact probability under the draw.
    g = normalize(parse_grammar(
        "axiom S\nterminal a weight 1/3\nterminal b weight 7\nterminal c weight 5/11\n"
        "terminal d weight 2\nterminal e weight 13/3\nS -> a | b | c | d | e\n"))
    p, grid = 24, 2 ** 53
    table = build_counts(g, None, 1, precision=p)
    options = list(table.choices(g.axiom, 1))
    k = len(options)
    exact = [w.man * Fraction(2) ** w.exp for w, _, _ in options]
    state = SamplerState(table)
    state.rng = _FixedDraw(0.0)

    def option_at(i):
        state.rng.u = i / grid
        return [rule.rhs for _, rule, _ in options].index(sample_word(state, 1))

    def first_grid_point_of(option):
        lo, hi = 0, grid
        while lo < hi:
            mid = (lo + hi) // 2
            if option_at(mid) >= option:
                hi = mid
            else:
                lo = mid + 1
        return lo

    edges = [first_grid_point_of(i) for i in range(k)] + [grid]
    bound = Fraction(1, grid) + Fraction(10 * k, 2 ** p)
    for i in range(k):
        probability = Fraction(edges[i + 1] - edges[i], grid)
        assert abs(probability - exact[i] / sum(exact)) <= bound
