"""Property-based differential tests between routes to the same numbers.

Grammars come from `random_valid_grammar` under a drawn seed (ambiguous ones
included: every route here counts derivations), with letter weights redrawn
as random positive rationals.  Examples are derandomized and few, so the
module runs in a few seconds and never changes between runs.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from weightedgen import (branch_distribution, build_counts, enumerate_words,
                         extreme_weights, normalize, weight_spectra, word_weight)
from weightedgen.grammar import EnumerationCap
from helpers import fraction_count_table, random_valid_grammar

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

WEIGHTS = st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64)


@st.composite
def weighted_grammars(draw):
    g = random_valid_grammar(random.Random(draw(st.integers(0, 2 ** 32))))
    return g.with_weights({t: draw(WEIGHTS) for t in sorted(g.terminals)})


def mpf_to_fraction(x):
    return x.man * Fraction(2) ** x.exp


@PROPERTY
@given(weighted_grammars(), st.integers(0, 10))
def test_int_table_equals_fraction_oracle(g, horizon):
    ng = normalize(g)
    table = build_counts(ng, None, horizon)
    oracle = fraction_count_table(ng, g.weights, horizon)
    for nt in ng.nonterminals:
        assert [table.value(nt, m) for m in range(horizon + 1)] == oracle[nt]
        assert all(isinstance(table.cell(nt, m), int) for m in range(horizon + 1))


@PROPERTY
@given(weighted_grammars(), st.integers(0, 10), st.sampled_from((24, 53, 64, 128, 256)))
def test_mpf_table_within_relative_bound_of_exact(g, horizon, precision):
    ng = normalize(g)
    exact = build_counts(ng, None, horizon)
    approx = build_counts(ng, None, horizon, precision)
    bound = Fraction(1, 2 ** (precision - 8))
    for nt in ng.nonterminals:
        for m in range(horizon + 1):
            v, a = exact.value(nt, m), mpf_to_fraction(approx.value(nt, m))
            assert abs(a - v) <= bound * v, (nt, m)


@PROPERTY
@given(weighted_grammars(), st.integers(0, 7))
def test_extreme_weights_are_the_spectrum_ends(g, n):
    ng = normalize(g)
    spectrum = weight_spectra(ng, None, n)[n]
    assume(spectrum is not None)
    assert extreme_weights(ng, None, n) == (spectrum.min_weight(), spectrum.max_weight())


@PROPERTY
@given(weighted_grammars(), st.integers(0, 6))
def test_branch_distribution_is_derivations_times_weight_over_total(g, n):
    ng = normalize(g)
    table = build_counts(ng, None, n)
    total = table.total(n)
    assume(total != 0)
    try:
        derivations = Counter(enumerate_words(g, n, word_cap=2000))
    except EnumerationCap:
        assume(False)
    dist = branch_distribution(table, n)
    assert dist == {w: c * word_weight(w, g.weights) / total
                    for w, c in derivations.items()}
