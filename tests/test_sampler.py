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


def test_fixed_point_node_probabilities_are_exact_ratios():
    # One node with k=5 options at p=24 bits: the draw is an integer below the
    # node's bound, so each option's probability is its stored weight over
    # that bound, within the sampler docstring's 2n * 2^-(p+64) (n = 1) of
    # its exact share.
    g = normalize(parse_grammar(
        "axiom S\nterminal a weight 1/3\nterminal b weight 7\nterminal c weight 5/11\n"
        "terminal d weight 2\nterminal e weight 13/3\nS -> a | b | c | d | e\n"))
    p = 24
    table = build_counts(g, None, 1, precision=p)
    options = list(table.choices(g.axiom, 1))
    bound = table.draw_bound(g.axiom, 1)
    assert sum(w for w, _, _ in options) == bound
    dist = branch_distribution(table, 1)
    assert dist == {rule.rhs: Fraction(w, bound) for w, rule, _ in options}
    exact = build_counts(g, None, 1)
    for word, probability in dist.items():
        share = word_probability(word, exact)
        assert abs(probability - share) <= Fraction(2, 2 ** (p + 64)) * share
