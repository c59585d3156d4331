"""Property-based differential tests between routes to the same numbers.

Grammars come from `random_valid_grammar` under a drawn seed (ambiguous ones
included: every route here counts derivations), with letter weights redrawn
as random positive rationals.  Urn models draw up to five classes with
weights spread over twelve decades and counts up to 10^45, so they include
tiny probabilities, astronomical urn counts and dominant urns.  Examples are
derandomized and few, so the module runs in a few seconds and never changes
between runs.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from weightedgen import (birthday_exact, branch_distribution, build_counts,
                         enumerate_words, expected_coverage, expected_distinct,
                         expected_occupied_weight, extreme_weights, normalize,
                         weight_spectra, word_weight)
from weightedgen.grammar import EnumerationCap
from weightedgen.urns import OCCUPANCY_REL_ERROR
from helpers import (fraction_count_table, mp_birthday, occupancy_sum_per_class,
                     random_valid_grammar, urn_model)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

WEIGHTS = st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64)


@st.composite
def weighted_grammars(draw):
    g = random_valid_grammar(random.Random(draw(st.integers(0, 2 ** 32))))
    return g.with_weights({t: draw(WEIGHTS) for t in sorted(g.terminals)})


@st.composite
def urn_models(draw):
    classes = {}
    for _ in range(draw(st.integers(1, 5))):
        w = Fraction(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
        c = draw(st.one_of(st.integers(1, 50), st.integers(1, 10 ** 45)))
        classes[w] = classes.get(w, 0) + c
    return urn_model(list(classes.items()))


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
@given(weighted_grammars(), st.integers(0, 6), st.sampled_from((None, 24, 53)))
def test_branch_distribution_is_derivations_times_weight_over_total(g, n, precision):
    ng = normalize(g)
    total = build_counts(ng, None, n).total(n)
    assume(total != 0)
    try:
        derivations = Counter(enumerate_words(g, n, word_cap=2000))
    except EnumerationCap:
        assume(False)
    dist = branch_distribution(build_counts(ng, None, n, precision), n)
    expected = {w: c * word_weight(w, g.weights) / total for w, c in derivations.items()}
    assert set(dist) == set(expected) and sum(dist.values()) == 1
    # the sampler docstring's bound: a relative 2n * 2^-(precision + 64)
    bound = 0 if precision is None else Fraction(2 * n, 2 ** (precision + 64))
    for w, p in expected.items():
        assert abs(dist[w] - p) <= bound * p, w


@settings(PROPERTY, max_examples=20)
@given(urn_models())
def test_birthday_exact_matches_mp_oracle_on_random_urns(u):
    oracle = mp_birthday(u, rel_tol=1e-14)
    assert abs(birthday_exact(u) - oracle) <= 1e-12 * oracle


@PROPERTY
@given(urn_models(), st.integers(0, 3000), st.sampled_from((True, None, False)))
def test_occupancy_sums_equal_per_class_oracle(u, k, exact):
    routes = ((lambda c: c.count, lambda: expected_distinct(u, k, exact=exact).value),
              (lambda c: c.count * c.probability, lambda: expected_coverage(u, k, exact=exact)),
              (lambda c: c.count * c.weight, lambda: expected_occupied_weight(u, k, exact=exact)))
    for coeff, value in routes:
        oracle = occupancy_sum_per_class(u, k, coeff, exact)
        if isinstance(oracle, Fraction):
            assert value() == oracle
        else:
            assert abs(mpf_to_fraction(value()) - mpf_to_fraction(oracle)) \
                <= Fraction(OCCUPANCY_REL_ERROR) * mpf_to_fraction(oracle)
