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
from unittest.mock import patch

from hypothesis import assume, example, given, settings, strategies as st

from weightedgen import (SamplerState, UrnModel, birthday_exact, branch_distribution,
                         build_counts, counting, expected_coverage, expected_distinct,
                         expected_occupied_weight, extreme_weights, from_spectrum, normalize,
                         parse_grammar, sample_word, weight_spectra, weight_spectrum,
                         word_weight)
from weightedgen.grammar import inside
from weightedgen.numerics import EXACT_POW_BIT_LIMIT, _ratio_pow_affordable
from weightedgen.urns import OCCUPANCY_REL_ERROR, _urn_trials, _word_law
from helpers import (UNIT_CHAIN, EnumerationCap, assert_chains_shared, below,
                     enumerate_words, fraction_count_table, fraction_route_classes,
                     fraction_route_spectrum, inside_unpruned, mp_birthday, normalize_checked,
                     numpy_birthday, fraction_route_urn_model, occupancy_sum_per_class, pair_paths,
                     random_valid_grammar, urn_model, walk_sample_word)

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
@given(weighted_grammars())
def test_normalize_with_shared_chains_keeps_word_multisets(g):
    try:
        ng = normalize_checked(g, 6)  # raises on a mismatch
    except EnumerationCap:
        assume(False)
    assert_chains_shared(ng)


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


def _weighted(text):
    g = parse_grammar(text)
    return g.with_weights({t: Fraction(2 + i, 1 + 2 * i)
                           for i, t in enumerate(sorted(g.terminals))})


def _every_inside_instance(ng, horizon, route):
    """The full {nonterminal: cells} of the exact, fixed-point (p = 24),
    spectrum, minimal- and maximal-weight instances of `inside`, each
    computed by `route`."""
    cells = []

    def record(*args):
        cells.append(route(*args))
        return cells[-1]

    with patch.object(counting, "inside", record):
        build_counts(ng, None, horizon)
        build_counts(ng, None, horizon, 24)
        weight_spectra(ng, None, horizon)
        counting._extreme_row(ng, ng.weights, horizon, largest=False)
        counting._extreme_row(ng, ng.weights, horizon, largest=True)
    return cells


@PROPERTY
@given(weighted_grammars(), st.integers(0, 12))
# lengths 2 mod 4 only, lengths 1 mod 3 only, the empty word only
@example(_weighted("axiom S\nterminal a\nterminal b\nS -> a S b S | a b\n"), 22)
@example(_weighted("axiom S\nterminal a\nterminal b\nS -> a S S S | b S S S | a | b\n"), 16)
@example(_weighted("axiom S\nS -> _\n"), 4)
@example(UNIT_CHAIN, 12)
def test_inside_skipping_empty_splits_keeps_every_cell(g, horizon):
    ng = normalize(g)
    pruned = _every_inside_instance(ng, horizon, inside)
    # the spectrum is one table, or two with exactly one weight other than 1
    assert len(pruned) == 5 + (sum(ng.weights[t] != 1 for t in ng.terminals) == 1)
    assert pruned == _every_inside_instance(ng, horizon, inside_unpruned)


@PROPERTY
@given(weighted_grammars(), st.integers(0, 7))
def test_extreme_weights_are_the_spectrum_ends(g, n):
    ng = normalize(g)
    spectrum = weight_spectra(ng, None, n)[n]
    assume(spectrum is not None)
    assert extreme_weights(ng, n) == (spectrum.classes[0].weight, spectrum.classes[-1].weight)


@PROPERTY
@given(weighted_grammars(), st.integers(0, 6), st.booleans(), st.data())
def test_word_law_is_the_spectrum_urn_model(g, n, own_weights, data):
    # tables of the grammar's own weights and of other weights: the
    # word-level refusals read the urn model of the law the table draws from
    ng = normalize(g)
    weights = None if own_weights else {t: data.draw(WEIGHTS) for t in sorted(ng.terminals)}
    table = build_counts(ng, weights, n)
    assume(table.total(n))
    u = from_spectrum(weight_spectrum(table.grammar, table.weights, n))
    assert _word_law(table, n, "first_collision").alpha_2 == u.alpha_2
    law = _word_law(table, n, "full_collection")
    assert (law.p_min, law.m) == (u.p_min, u.m)


@PROPERTY
@given(weighted_grammars(), st.integers(0, 10))
# every word of a length has one 'a': the axiom cell at length 8 is the
# largest, 128 = 2^7, and its digit at e = 1 holds all of it
@example(parse_grammar("axiom S\nterminal a\nterminal b\nterminal c\n"
                       "S -> b S | c S | a\n"), 8)
def test_packed_profiles_equal_dict_profiles(g, horizon):
    ng = normalize(g)
    for weighted in [(), *((t,) for t in sorted(ng.terminals))]:
        lengths = range(horizon + 1)
        assert counting._packed_profiles(ng, weighted, horizon, lengths) \
            == counting._dict_profiles(ng, weighted, horizon, lengths), weighted


EIGHT_PRIMES = parse_grammar(
    "axiom S\n" + "".join(f"terminal {t} weight {p}\n"
                          for t, p in zip("abcdefgh", (2, 3, 5, 7, 11, 13, 17, 19)))
    + "S -> " + " | ".join(f"{t} S" for t in "abcdefgh") + " | _\n")


@PROPERTY
@given(weighted_grammars(), st.integers(0, 8))
# one weighted letter, two, three with a weight below 1, and eight
@example(parse_grammar("axiom S\nterminal a weight 3\nterminal b\nS -> a S b | b S | _\n"), 8)
@example(parse_grammar("axiom S\nterminal a weight 4\nterminal b weight 2\nterminal c\n"
                       "S -> a S | b S | c S | _\n"), 6)
@example(parse_grammar("axiom S\nterminal a weight 2\nterminal b weight 3\n"
                       "terminal c weight 1/2\nterminal d\nS -> a S | b S | c S | d S | _\n"), 8)
@example(EIGHT_PRIMES, 6)
def test_spectrum_integer_keys_equal_the_fraction_power_route(g, n):
    ng = normalize(g)
    weights = counting._fractions(ng, ng.weights)
    weighted = tuple(sorted(t for t in ng.terminals if weights[t] != 1))
    profiles = counting._dict_profiles(ng, weighted, n, range(n + 1))
    expected = [fraction_route_spectrum(m, weighted, weights, profile) if profile else None
                for m, profile in enumerate(profiles)]
    spectra = weight_spectra(ng, None, n)
    assert spectra == expected
    assert [sp.classes if sp else None for sp in spectra] == \
        [fraction_route_classes(weighted, weights, profile) if profile else None
         for profile in profiles]


@PROPERTY
@given(weighted_grammars(), st.integers(0, 10), st.sampled_from((None, 24)),
       st.integers(0, 2 ** 32), st.lists(st.booleans(), min_size=1, max_size=40))
@example(UNIT_CHAIN, 10, 24, 7, [False, True] * 20)
def test_sample_word_streams_equal_the_subtraction_walk(g, n, precision, seed, turns):
    # exact tables and p = 24 ones, where the last option of a pair node is cut
    # short at the bound; two streams interleave their draws on one table
    ng = normalize(g)
    table = build_counts(ng, None, n, precision)
    assume(table.cell(ng.axiom, n))
    states = [SamplerState(table, seed + k) for k in (0, 1)]
    words = [[], []]
    for turn in turns:
        words[turn].append(sample_word(states[turn], n))
    for k, drawn in enumerate(words):
        oracle = SamplerState(build_counts(ng, None, n, precision), seed + k)
        assert drawn == [walk_sample_word(oracle, n) for _ in drawn]


@PROPERTY
@given(weighted_grammars(), st.integers(0, 6), st.sampled_from((None, 24, 53)))
@example(UNIT_CHAIN, 6, 24)
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
    # the sampler docstring's bound: a relative (U+1) * n * 2^-(precision + 64)
    unit_paths = max(pair_paths(ng).values())
    bound = 0 if precision is None else Fraction((unit_paths + 1) * n, 2 ** (precision + 64))
    for w, p in expected.items():
        assert abs(dist[w] - p) <= bound * p, w


@PROPERTY
@given(urn_models())
@example(urn_model([(6, 1), (10, 2), (14, 3)]))  # weights with a common factor
@example(urn_model([(Fraction(1, 6), 2), (Fraction(3, 4), 1), (Fraction(5, 2), 7)]))
@example(urn_model([(Fraction(4, 9), 3), (Fraction(8, 3), 1), (12, 5)]))  # both
def test_urn_model_integers_equal_the_fraction_route(u):
    assert (u.denominator, u.numerators, u.mu, u.m, u.classes) == \
        fraction_route_urn_model(u.weights, u.counts)
    assert UrnModel._from_keys(u.numerators, u.counts, u.unit) == u


@PROPERTY
@given(weighted_grammars(), st.integers(0, 2), st.integers(0, 8))
def test_spectrum_urn_models_equal_the_fraction_route(g, t, n):
    # t weighted terminals (0, 1 or 2), the rest of weight 1; the reference
    # reads the spectrum's Fraction class weights
    heavy = sorted(g.terminals)[:t]
    g = g.with_weights({x: g.weights[x] if x in heavy else 1 for x in g.terminals})
    spectrum = weight_spectra(normalize(g), None, n)[n]
    assume(spectrum is not None)
    u = from_spectrum(spectrum)
    weights = [c.weight for c in spectrum.classes]
    assert (u.denominator, u.numerators, u.mu, u.m, u.classes) == \
        fraction_route_urn_model(weights, spectrum.counts)
    assert u == UrnModel(weights, spectrum.counts)


@settings(PROPERTY, max_examples=20)
@given(urn_models())
def test_birthday_exact_matches_mp_oracle_on_random_urns(u):
    # and the numpy route it replaced, to rounding
    value = birthday_exact(u)
    assert abs(value - numpy_birthday(u)) <= 1e-14 * value
    oracle = mp_birthday(u, rel_tol=1e-14)
    assert abs(value - oracle) <= 1e-12 * oracle


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


@PROPERTY
@given(urn_models())
@example(urn_model([(1, 1)]))  # p = 1: 1 - p = 0
def test_pow_affordable_from_integers_equals_fraction_rule(u):
    # with P_i / D not in lowest terms, the budget is still k * bit size of 1 - p_i
    for c, num in zip(u.classes, u.numerators):
        q = 1 - c.probability
        last = EXACT_POW_BIT_LIMIT // (q.numerator.bit_length() + q.denominator.bit_length())
        assert _ratio_pow_affordable(num, u.denominator, last)
        assert not _ratio_pow_affordable(num, u.denominator, last + 1)


@PROPERTY
@given(urn_models(), st.integers(0, 2 ** 64 - 1))
def test_urn_throws_take_the_draws_of_below(u, seed):
    # the walk writes `below` out: it must consume the stream alike
    rng = random.Random(seed)
    draws = iter([below(rng.getrandbits, u.denominator) for _ in range(60)])
    expected = _urn_trials(u, "coverage", 3, 20, lambda bits: next(draws))
    assert _urn_trials(u, "coverage", 3, 20, random.Random(seed).getrandbits) == expected
