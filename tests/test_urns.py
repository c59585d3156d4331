import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from mpmath import mp

from weightedgen import (EmptyLanguageError, ReportEntry, SamplerState, UrnModel,
                         WeightSpectrum,
                         birthday_asymptotic, birthday_exact, build_counts,
                         coupon_bounds, expected_coverage, expected_distinct,
                         expected_occupied_weight, from_spectrum, from_weights,
                         normalize, occupancy, parse_grammar, simulate,
                         rna, standard_report, uniform_urns, weight_spectrum,
                         word_probability, xi_estimate)
from weightedgen import counting, grammar as grammar_module, urns as urns_module
from weightedgen.numerics import (HARMONIC_EXACT_LIMIT, _ratio_pow_affordable, harmonic,
                                  substream_seed, to_mpf)
from weightedgen.sampler import _share, sample_word, word_weight
from weightedgen.urns import (FULL_COLLECTION_CAP, OCCUPANCY_K_LIMIT,
                              OCCUPANCY_REL_ERROR, SIMULATE_DRAW_CAP, QuadratureError,
                              SimResult)
from helpers import (below, enumerate_words, exponential_per_class, mp_birthday,
                     numpy_birthday, occupancy_sum_per_class,
                     oracle_birthday, oracle_birthday_uniform, oracle_coupon,
                     oracle_coupon_classes, oracle_occupancy, expand_urns,
                     random_urn_model, urn_ball_trial, urn_model)


@pytest.fixture(scope="module")
def motzkin_h2_urns(motzkin_h2_norm):
    return from_spectrum(weight_spectrum(motzkin_h2_norm, None, 3))


H, Q = Fraction(1, 2), Fraction(1, 4)


@pytest.mark.parametrize("weights, counts, message", [
    ((), (), "empty urn model"),
    ((Q, H), (1,), "2 class weights but 1 counts"),
    ((Q, H), (0, 2), "multiplicities must be positive"),
    ((Fraction(0), Fraction(1)), (1, 1), "weights must be positive"),
    ((Fraction(-1, 2), Fraction(3, 2)), (1, 1), "weights must be positive"),
    ((H, Q), (1, 2), "strictly increase"),
    ((H, H), (1, 1), "strictly increase"),
], ids=["empty", "length-mismatch", "zero-count", "p-zero", "p-negative", "p-decreasing",
        "p-equal"])
def test_urn_model_refusals(weights, counts, message):
    with pytest.raises(ValueError, match=message):
        UrnModel(weights, counts)


@pytest.mark.parametrize("keys, counts, message", [
    ((), (), "empty urn model"),
    ((1, 2), (1,), "2 class weights but 1 counts"),
    ((1, 2), (0, 2), "multiplicities must be positive"),
    ((0, 1), (1, 1), "weights must be positive"),
    ((-1, 3), (1, 1), "weights must be positive"),
    ((2, 1), (1, 2), "strictly increase"),
    ((1, 1), (1, 1), "strictly increase"),
], ids=["empty", "length-mismatch", "zero-count", "key-zero", "key-negative",
        "key-decreasing", "key-equal"])
def test_integer_urn_model_refusals(keys, counts, message):
    # the integer route of from_spectrum refuses what the constructor refuses
    with pytest.raises(ValueError, match=message):
        UrnModel._from_keys(keys, counts, (1, 2))
    spectrum = WeightSpectrum(3, ("a",), keys, (1, 2), counts,
                              tuple(((e,),) for e in range(len(counts))))
    with pytest.raises(ValueError, match=message):
        from_spectrum(spectrum)
    with pytest.raises(ValueError, match=message):
        UrnModel(tuple(Fraction(key, 2) for key in keys), counts)


def test_integer_urn_model_equals_the_constructor():
    u = UrnModel._from_keys((3, 4, 10), (2, 1, 5), (5, 7))
    assert u == UrnModel((Fraction(15, 7), Fraction(20, 7), Fraction(50, 7)), (2, 1, 5))
    assert u.weights == (Fraction(15, 7), Fraction(20, 7), Fraction(50, 7))
    assert (u.denominator, u.mu, u.m) == (60, Fraction(300, 7), 8)
    assert hash(u) == hash(UrnModel(u.weights, u.counts))


def test_urn_model_common_denominator():
    u = urn_model([(1, 3), (4, 2), (6, 1)])  # p = 1/17, 4/17, 6/17
    assert u.denominator == 17 and u.numerators == (1, 4, 6)
    assert [c.probability for c in u.classes] == \
        [Fraction(n, u.denominator) for n in u.numerators]


def test_from_spectrum_classes(motzkin_h2_urns):
    u = motzkin_h2_urns
    assert [(c.probability, c.count) for c in u.classes] == \
        [(Fraction(1, 7), 3), (Fraction(4, 7), 1)]
    assert u.m == 4
    assert u.mu == 14


def test_uniform_and_single():
    u = uniform_urns(5)
    assert u.classes[0].probability == Fraction(1, 5)
    single = uniform_urns(1)
    assert single.classes[0].probability == 1


def test_expected_distinct_basics():
    u = uniform_urns(2)
    assert expected_distinct(u, 0).value == 0
    assert expected_distinct(u, 2).value == Fraction(3, 2)
    # monotone convergence to m
    big = expected_distinct(u, 10 ** 6, exact=False).value
    assert abs(float(big) - 2) < 1e-9


def test_expected_distinct_monotone(motzkin_h2_urns):
    vals = [expected_distinct(motzkin_h2_urns, k).value for k in range(8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(v <= min(k, motzkin_h2_urns.m) for k, v in enumerate(vals))


def test_expected_coverage_basics():
    u3 = uniform_urns(3)
    assert expected_coverage(u3, 0) == 0
    assert expected_coverage(u3, 2) == Fraction(5, 9)
    # uniform: coverage is distinct/m
    assert expected_coverage(u3, 2) == expected_distinct(u3, 2).value / 3
    two = from_weights([Fraction(1), Fraction(2)])
    assert expected_coverage(two, 1) == Fraction(5, 9)
    assert expected_coverage(two, 1) == two.alpha_2


def _first_order_row(u, k):
    (row,) = [e for e in standard_report(u, k=k).entries
              if (e.statistic, e.method) == ("coverage", "first_order")]
    return row


def test_coverage_first_order():
    two = from_weights([Fraction(1), Fraction(2)])
    row = _first_order_row(two, 1)
    assert row.value == Fraction(5, 9)
    assert row.value == expected_coverage(two, 1)
    assert row.note == "invalid: k*p_max=0.666666666667"  # over the threshold
    assert 2 * uniform_urns(200).p_max == Fraction(1, 100)
    row = _first_order_row(uniform_urns(200), 2)  # k * p_max = 0.01
    assert row.note == "valid"
    assert row.value == Fraction(1, 100)
    row = _first_order_row(uniform_urns(199), 2)  # k * p_max = 2/199
    assert row.note == "invalid: k*p_max=0.0100502512563"


def test_occupied_weight_reductions(motzkin_h2_urns):
    u = motzkin_h2_urns
    assert expected_occupied_weight(u, 0) == 0
    for k in (1, 2, 5):
        assert expected_occupied_weight(u, k) == u.mu * expected_coverage(u, k)
    unit = uniform_urns(4)
    for k in (1, 3):
        assert expected_occupied_weight(unit, k) == expected_distinct(unit, k).value
    big = expected_occupied_weight(u, 10 ** 6, exact=False)
    assert abs(float(big) - float(u.mu)) < 1e-6


def test_occupancy_oracle_exact_equality():
    rng = random.Random(424242)
    for _ in range(8):
        u = random_urn_model(rng, max_urns=4)
        for k in (0, 1, 2, 3, 4):
            dn, cov, wt = oracle_occupancy(u, k)
            assert expected_distinct(u, k, exact=True).value == dn
            assert expected_coverage(u, k, exact=True) == cov
            assert expected_occupied_weight(u, k, exact=True) == wt
            occ = occupancy(u, k, exact=True)
            assert (occ.distinct, occ.coverage, occ.occupied_weight) == (dn, cov, wt)


def test_rescaling_invariance():
    rng = random.Random(7)
    base = [Fraction(rng.randint(1, 9)) for _ in range(4)]
    u1 = from_weights(base)
    u2 = from_weights([5 * w for w in base])
    for k in (1, 3):
        assert expected_distinct(u1, k).value == expected_distinct(u2, k).value
        assert expected_coverage(u1, k) == expected_coverage(u2, k)
        assert expected_occupied_weight(u2, k) == 5 * expected_occupied_weight(u1, k)
    assert birthday_asymptotic(u1) == birthday_asymptotic(u2)


def test_birthday_exact_small_models():
    assert abs(birthday_exact(uniform_urns(1)) - 2.0) < 1e-9
    assert abs(birthday_exact(uniform_urns(2)) - 2.5) < 1e-9
    three = uniform_urns(3)
    assert abs(birthday_exact(three) - float(oracle_birthday(three))) < 1e-9


def test_birthday_exact_vs_oracle_weighted():
    rng = random.Random(2718)
    for _ in range(5):
        u = random_urn_model(rng, max_urns=5)
        expected = float(oracle_birthday(u))
        assert abs(birthday_exact(u) - expected) < 1e-8 * max(1.0, expected)


@pytest.mark.parametrize("u", [uniform_urns(m) for m in (1, 2, 3, 365, 10 ** 40)]
                         + [urn_model([(1, 10 ** 6), (10 ** 9, 1)]),
                            urn_model([(1, 3), (10 ** 6, 1)])],
                         ids=["m=1", "m=2", "m=3", "m=365", "m=1e40",
                              "dominant-among-1e6", "dominant-among-3"])
def test_birthday_exact_matches_mp_oracle(u):
    oracle = mp_birthday(u, rel_tol=1e-14)
    assert abs(birthday_exact(u) - oracle) <= 1e-12 * oracle


def random_weight_urns(seed, urns, draw):
    rng = random.Random(seed)
    return from_weights([draw(rng) for _ in range(urns)])


@pytest.mark.parametrize("u", [
    random_weight_urns(1, 1000, lambda rng: rng.randint(1, 10 ** 6)),
    random_weight_urns(2, 10_000, lambda rng: rng.randint(1, 10 ** 6)),
    random_weight_urns(3, 1000, lambda rng: round(10 ** rng.uniform(0, 12))),
    urn_model([(1, 10 ** 4), (10 ** 6, 1)]),
    uniform_urns(10 ** 400),
], ids=["1000-urns", "10000-urns", "heavy-tailed-1000-urns", "dominant", "m=1e400"])
def test_birthday_exact_matches_numpy_route(u):
    # power sums alone (on several series lengths) and next to classes summed
    # one by one (the heavy tail, the dominant urn)
    value = birthday_exact(u)
    assert abs(value - numpy_birthday(u)) <= 1e-14 * value


def test_birthday_exact_within_its_tolerance(monkeypatch):
    u = urn_model([(1, 7), (5, 2), (40, 1)])
    oracle = mp_birthday(u, rel_tol=1e-14)
    for rel_tol in (1e-3, 1e-6, 1e-9, 1e-12):
        monkeypatch.setattr(urns_module, "BIRTHDAY_REL_TOL", rel_tol)
        assert abs(birthday_exact(u) - oracle) <= rel_tol * oracle


def test_birthday_exact_beyond_double_range():
    # 1/alpha_2 = 10^400 is no double, E[B] ~ sqrt(pi m / 2) is
    u = uniform_urns(10 ** 400)
    assert abs(birthday_exact(u) / (math.sqrt(math.pi / 2) * 1e200) - 1) < 1e-12


def test_birthday_exact_refuses_tolerance_beyond_doubles(monkeypatch):
    monkeypatch.setattr(urns_module, "BIRTHDAY_REL_TOL", 1e-20)
    with pytest.raises(QuadratureError, match="did not converge"):
        birthday_exact(uniform_urns(365))


def test_mixed_routes_sum_in_floats():
    # (1-p)^k fits the exact budget for p = 1/11 but not for p = 1/22000
    u = urn_model([(1, 20_000), (2_000, 1)])
    k = 10_000
    assert [_ratio_pow_affordable(num, u.denominator, k)
            for num in u.numerators] == [False, True]
    value = expected_distinct(u, k).value
    assert not isinstance(value, Fraction)
    oracle = occupancy_sum_per_class(u, k, lambda c: c.count)
    assert abs(value - oracle) <= OCCUPANCY_REL_ERROR * oracle


@pytest.mark.parametrize("u", [uniform_urns(10 ** 400),
                               urn_model([(1, 10 ** 400), (10 ** 420, 1)]),
                               uniform_urns(1)],
                         ids=["uniform_1e400", "dominant_beside_1e400", "single"])
@pytest.mark.parametrize("k", [0, 1, 1000, 10 ** 12])
def test_occupancy_within_bound_of_per_class_oracle(u, k):
    # p = 10^-400 underflows a double and c = 10^400 overflows one; p = 1 has
    # no log1p(-p); the dominant urn's p rounds to 1.0 as a double
    occ = occupancy(u, k, exact=False)
    oracles = ((occ.distinct, occupancy_sum_per_class(u, k, lambda c: c.count, False)),
               (occ.coverage, occupancy_sum_per_class(
                   u, k, lambda c: c.count * c.probability, False)),
               (occ.exponential, exponential_per_class(u, k)))
    with mp.workdps(40):
        for value, oracle in oracles:
            oracle = to_mpf(oracle)
            assert abs(to_mpf(value) - oracle) <= OCCUPANCY_REL_ERROR * oracle
            assert (value == 0) == (k == 0)


def test_occupancy_refuses_k_beyond_doubles():
    u = uniform_urns(3)
    assert occupancy(u, OCCUPANCY_K_LIMIT, exact=False).distinct == 3
    for k in (-1, OCCUPANCY_K_LIMIT + 1):
        for exact in (True, False):
            with pytest.raises(ValueError, match="occupancy pass"):
                occupancy(u, k, exact=exact)


@pytest.mark.parametrize("u, k, route", [
    (urn_model([(1, 3), (4, 1)]), 5, Fraction),
    (urn_model([(1, 20_000), (3, 50)]), 10_000, mp.mpf),
    (urn_model([(1, 20_000), (2_000, 1)]), 10_000, mp.mpf),  # one class affordable
    (urn_model([(1, 20_000), (2_000, 1)]), 0, Fraction),
    (uniform_urns(1), 10 ** 12, Fraction),
], ids=["exact", "float", "mixed", "k=0", "single"])
def test_report_occupancy_rows_equal_expectations(u, k, route):
    rows = {(e.statistic, e.method): e.value
            for e in standard_report(u, k=k).entries
            if e.statistic in ("distinct", "coverage", "occupied_weight")}
    d = expected_distinct(u, k)
    assert rows == {("distinct", "exact"): d.value,
                    ("distinct", "asymptotic"): d.exponential,
                    ("coverage", "exact"): expected_coverage(u, k),
                    ("coverage", "first_order"): k * u.alpha_2,
                    ("occupied_weight", "exact"): expected_occupied_weight(u, k)}
    for key in (("distinct", "exact"), ("coverage", "exact"), ("occupied_weight", "exact")):
        assert isinstance(rows[key], route)


def test_birthday_classic_365():
    u = uniform_urns(365)
    exact = birthday_exact(u)
    assert abs(exact - float(oracle_birthday_uniform(365))) < 1e-7
    asym = birthday_asymptotic(u)
    assert abs(asym - math.sqrt(365 * math.pi / 2)) < 1e-12


def test_birthday_asymptotic_values(motzkin_h2_urns):
    single = uniform_urns(1)
    # plug-in value is defined even where the regime is invalid (exact is 2)
    assert abs(birthday_asymptotic(single) - math.sqrt(math.pi / 2)) < 1e-12
    expected = math.sqrt(math.pi / (2 * (19 / 49)))
    assert abs(birthday_asymptotic(motzkin_h2_urns) - expected) < 1e-12


def test_coupon_uniform_exact():
    # on m equiprobable urns Xi is the exact full-collection time m * H_m: a
    # Fraction up to HARMONIC_EXACT_LIMIT, the 40-digit value above it
    assert xi_estimate(uniform_urns(1)) == 1
    assert xi_estimate(uniform_urns(3)) == Fraction(11, 2)
    assert abs(float(xi_estimate(uniform_urns(365))) - 2364.646) < 5e-3
    assert xi_estimate(uniform_urns(51)) == 51 * harmonic(51)  # Motzkin, n = 6
    m = HARMONIC_EXACT_LIMIT + 1
    with mp.workdps(40):
        exact = m * harmonic(m, exact=True)
        assert abs(xi_estimate(uniform_urns(m)) - to_mpf(exact)) <= mp.mpf("1e-38") * exact


def test_coupon_bounds_uniform3():
    cb = coupon_bounds(uniform_urns(3))
    assert cb.lower == 3
    assert cb.upper == 11
    assert cb.estimate == Fraction(11, 2)
    lo, hi = cb.berenbrink
    assert lo <= 5.5 <= hi


def test_coupon_bounds_single_urn():
    cb = coupon_bounds(uniform_urns(1))
    assert cb.lower == 1
    assert cb.estimate == 1
    assert cb.berenbrink is None


def test_coupon_bounds_keep_the_berenbrink_interval_past_the_double_range():
    # Xi is about 10^400 here: both ends stay finite 40-digit mpfs
    u = from_weights([Fraction(1), Fraction(1), Fraction(1, 10 ** 400)])
    cb = coupon_bounds(u)
    lo, hi = cb.berenbrink
    with mp.workdps(40):
        xi = to_mpf(cb.estimate)
        assert mp.isfinite(lo) and mp.isfinite(hi) and lo < xi < hi
        assert hi == 2 * xi and mp.log10(hi) > 400


def test_text_report_prints_integers_in_full_up_to_the_digit_limit():
    digits = urns_module.REPORT_INT_DIGITS
    assert digits >= 20  # the 20-digit 1/p1 bound of a Motzkin W=3 report
    fmt, limit = urns_module._fmt_number, 10 ** digits
    assert fmt(Fraction(limit - 1), digits) == str(limit - 1)
    assert fmt(Fraction(1 - limit), digits) == str(1 - limit)
    assert fmt(Fraction(limit), digits) == f"1.0e+{digits}"
    assert fmt(Fraction(7 * 10 ** 12900 + 1), digits) == "7.0e+12900"
    assert fmt(Fraction(limit)) == str(limit)


def test_coupon_two_urns():
    u = from_weights([Fraction(1), Fraction(2)])
    cb = coupon_bounds(u)
    assert cb.lower == 3
    assert cb.estimate == Fraction(15, 4)
    chain = oracle_coupon([Fraction(1, 3), Fraction(2, 3)])
    assert chain == Fraction(7, 2)
    assert cb.lower <= chain <= 2 * cb.estimate


def test_coupon_chain_inside_bounds():
    rng = random.Random(99)
    for _ in range(6):
        m = rng.randint(3, 8)
        weights = [Fraction(rng.randint(1, 9)) for _ in range(m)]
        u = from_weights(weights)
        chain = oracle_coupon([p for p, _ in expand_urns(u)])
        cb = coupon_bounds(u)
        assert cb.lower <= chain <= cb.upper
        lo, hi = cb.berenbrink
        assert lo <= float(chain) <= hi


def test_xi_closed_form_matches_rank_sum():
    rng = random.Random(13)
    for _ in range(5):
        u = random_urn_model(rng, max_urns=5)
        direct = sum((Fraction(1, i) / p for i, (p, _) in
                      enumerate(expand_urns(u), start=1)), Fraction(0))
        assert xi_estimate(u) == direct


@pytest.mark.parametrize("classes", [
    [(1, 1), (2, 999), (3, 4000)],
    [(Fraction(1, 10 ** 30), 2), (Fraction(7, 3), 4997), (10 ** 40, 1)],
])
@pytest.mark.parametrize("extra", [0, 1])
def test_xi_estimate_at_the_harmonic_limit_matches_a_60_digit_oracle(classes, extra):
    # m = HARMONIC_EXACT_LIMIT takes the exact route for every term, one more
    # urn the 40-digit route for every term
    classes = classes[:-1] + [(classes[-1][0], classes[-1][1] + extra)]
    u = urn_model(classes)
    assert u.m == HARMONIC_EXACT_LIMIT + extra
    xi = xi_estimate(u)
    assert isinstance(xi, Fraction) == (extra == 0)
    with mp.workdps(60):
        ranks, oracle = 0, mp.mpf(0)
        for c, num in zip(u.counts, u.numerators):
            h = mp.harmonic(ranks + c) - mp.harmonic(ranks)
            oracle += h * u.denominator / num
            ranks += c
        assert abs(to_mpf(xi) - oracle) <= mp.mpf("1e-35") * oracle


def test_simulate_first_collision():
    r = simulate(uniform_urns(2), "first_collision", 30_000, seed=101)
    assert abs(r.mean - 2.5) < 3 * r.stderr + 1e-12


def test_simulate_full_collection():
    r = simulate(uniform_urns(3), "full_collection", 30_000, seed=102)
    assert abs(r.mean - 5.5) < 3 * r.stderr + 1e-12


def test_simulate_distinct_and_coverage(motzkin_h2_urns):
    u = motzkin_h2_urns
    r = simulate(u, "distinct", 20_000, seed=103, k=3)
    assert abs(r.mean - float(expected_distinct(u, 3).value)) < 3 * r.stderr
    r = simulate(u, "coverage", 20_000, seed=104, k=3)
    assert abs(r.mean - float(expected_coverage(u, 3))) < 3 * r.stderr
    zero = simulate(u, "distinct", 100, seed=105, k=0)
    assert zero.mean == 0.0 and zero.stderr == 0.0


def test_simulate_same_seed_repeats_other_seed_differs():
    u = uniform_urns(4)
    a = simulate(u, "distinct", 500, seed=7, k=3)
    b = simulate(u, "distinct", 500, seed=7, k=3)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = simulate(u, "distinct", 500, seed=8, k=3)
    assert (a.mean, a.stderr) != (c.mean, c.stderr)


def test_simulate_words_reads_only_the_table_of_its_state(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 6)
    for statistic, k in (("first_collision", None), ("distinct", 4)):
        a = simulate(SamplerState(table, seed=1), statistic, 200, seed=5, k=k, n=6)
        b = simulate(SamplerState(table, seed=2), statistic, 200, seed=5, k=k, n=6)
        assert a == b


def test_simulate_words_matches_urn_level(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 3)
    state = SamplerState(table, seed=11)
    u = from_spectrum(weight_spectrum(motzkin_h2_norm, None, 3))
    r = simulate(state, "first_collision", 4000, seed=11, n=3)
    assert abs(r.mean - birthday_exact(u)) < 4 * r.stderr
    r = simulate(state, "full_collection", 1500, seed=12, n=3)
    chain = oracle_coupon([p for p, _ in expand_urns(u)])
    assert abs(r.mean - float(chain)) < 4 * r.stderr
    r = simulate(state, "distinct", 4000, seed=13, k=3, n=3)
    assert abs(r.mean - float(expected_distinct(u, 3).value)) < 4 * r.stderr
    r = simulate(state, "coverage", 4000, seed=14, k=3, n=3)
    assert abs(r.mean - float(expected_coverage(u, 3))) < 4 * r.stderr


@pytest.mark.parametrize("statistic", [None, "first_collision", "full_collection",
                                       "distinct", "coverage"])
def test_word_level_reads_of_a_fixed_point_table(motzkin_h2_norm, statistic):
    # a fixed-point table's total is a p-bit mpf: a word's probability is
    # one division in that type, within a few roundings of the exact share,
    # and every word-level statistic agrees with the urn model within 4 SE
    n, p, k = 4, 64, 6
    fixed = build_counts(motzkin_h2_norm, None, n, p)
    if statistic is None:
        exact = build_counts(motzkin_h2_norm, None, n)
        for word in set(enumerate_words(motzkin_h2_norm.original, n)):
            share, x = word_probability(word, exact), word_probability(word, fixed)
            assert x.man.bit_length() <= p
            assert abs(x.man * Fraction(2) ** x.exp - share) <= share / 2 ** (p - 4)
        return
    u = from_spectrum(weight_spectrum(motzkin_h2_norm, None, n))
    expected = {"first_collision": lambda: birthday_exact(u),
                "full_collection": lambda: oracle_coupon([p for p, _ in expand_urns(u)]),
                "distinct": lambda: expected_distinct(u, k).value,
                "coverage": lambda: expected_coverage(u, k)}[statistic]()
    r = simulate(SamplerState(fixed), statistic, 400, seed=3,
                 k=k if statistic in ("distinct", "coverage") else None, n=n)
    assert abs(r.mean - float(expected)) < 4 * r.stderr


class _Exhausted(Exception):
    pass


def _scripted(u, draws):
    """A getrandbits that returns `draws` in order, each below D, and raises
    _Exhausted after the last."""
    draws = iter(draws)

    def getrandbits(bits):
        assert bits == u.denominator.bit_length()
        for r in draws:
            return r
        raise _Exhausted

    return getrandbits


def _censored(run):
    try:
        return run()
    except (_Exhausted, StopIteration):
        return "beyond"


# (weights, counts) with D <= 8 in two or three classes; weight w_i is P_i.
# D <= 8 keeps full collection throw by throw here: a free urn leaves
# F >= 1 > D / 16, so the skip phase of _urn_trials never starts.
WALK_MODELS = [((1, 2), (2, 1)), ((1, 2), (1, 3)), ((1, 3), (2, 1)), ((1, 5), (1, 1)),
               ((1, 2, 3), (1, 1, 1)), ((1, 2, 4), (1, 1, 1))]


@pytest.mark.parametrize("weights, counts", WALK_MODELS)
def test_urn_walk_has_the_law_of_urn_ids(weights, counts):
    # Every sequence in [0, D)^L is equally likely, so equal multisets of the
    # outcomes over all of them mean equal laws.  The outcome of one sequence
    # is joint: first collision and full collection ("beyond" when L throws
    # do not end them), distinct urns and coverage numerator after L throws.
    u = urn_model(list(zip(weights, counts)))
    assert u.numerators == weights and u.denominator <= 8
    statistics = (("first_collision", None), ("full_collection", None))
    for length in range(u.m + 2):
        walk, ids = Counter(), Counter()
        for seq in product(range(u.denominator), repeat=length):
            cases = statistics + (("distinct", length), ("coverage", length))
            walk[tuple(_censored(lambda: urns_module._urn_trials(
                u, statistic, 1, k, _scripted(u, seq))[0]) for statistic, k in cases)] += 1
            ids[tuple(_censored(lambda: urn_ball_trial(u, statistic, iter(seq), k))
                      for statistic, k in cases)] += 1
        assert walk == ids, length
        # a second trial starts with every urn empty again
        one = urns_module._urn_trials(u, "coverage", 1, length, _scripted(u, seq))
        assert urns_module._urn_trials(u, "coverage", 2, length,
                                       _scripted(u, seq + seq)) == 2 * one


@pytest.fixture(scope="module")
def rna80_urns():
    """RNA theta=1, E=-1 at n=80: 40 classes, D of 3917 bits."""
    return from_spectrum(rna.pair_spectrum(80, 1, rna.pair_weight(-1.0)))


def test_urn_walk_throws_into_every_class_up_to_its_last_value(rna80_urns):
    # The last of these 40 classes has mass 3.3e-18, below the resolution of
    # a double next to 1, so a float cumulative class table never reaches it.
    u = rna80_urns
    assert len(u.classes) == 40
    start = 0
    for c, num in zip(u.classes, u.numerators):
        for r in (start, start + c.count * num - 1):  # a first throw is always new
            assert urns_module._urn_trials(u, "coverage", 1, 1, _scripted(u, [r])) == [num]
        start += c.count * num
    assert start == u.denominator


class _More(Exception):
    """A draw past the scripted ones."""


def _gap_laws(free, scale, rounds):
    """[(decided {g: probability}, undecided probability)] of
    _repeat_throws(free, scale) after 0, 1, ..., rounds draws, by running it
    on every sequence of draws that has not decided yet."""
    bits = urns_module._GUESS_BITS
    law, laws, pending = Counter(), [], [()]
    for depth in range(rounds + 1):
        undecided = []
        for script in pending:
            draws = iter(script)

            def getrandbits(k):
                assert k == bits
                for v in draws:
                    return v
                raise _More

            try:
                law[urns_module._repeat_throws(free, scale, getrandbits)] += \
                    Fraction(1, 2 ** (bits * depth))
            except _More:
                undecided.append(script)
        laws.append((law.copy(), Fraction(len(undecided), 2 ** (bits * depth))))
        pending = [script + (v,) for script in undecided for v in range(2 ** bits)]
    return laws


@pytest.mark.parametrize("bits,rounds", [(2, 7), (3, 5)])
@pytest.mark.parametrize("free,scale", [(1, 16), (2, 40), (3, 8), (1, 2), (3, 3)])
def test_repeat_throws_has_the_exact_geometric_law(monkeypatch, bits, rounds, free, scale):
    # At a 2- or 3-bit first guess most draws leave an interval of U that
    # the float guess cannot place, so the interval fallback runs at every
    # depth; q = 15/16 and q = 1/2 have dyadic powers q^g, where an interval
    # can touch a boundary exactly.  After each depth every g has received
    # at most q^g (1 - q) and lacks at most the undecided probability.
    monkeypatch.setattr(urns_module, "_GUESS_BITS", bits)
    q = Fraction(scale - free, scale)
    laws = _gap_laws(free, scale, rounds)
    for law, undecided in laws:
        assert sum(law.values()) + undecided == 1
        for g in range(max(law, default=0) + 2):
            assert 0 <= q ** g * (1 - q) - law[g] <= undecided, (g, law[g])
    if not q:  # no occupied urn: no repeat throw, and no draw
        assert laws[0] == ({0: 1}, 0)
        return
    guessed = sum(laws[1][0].values())
    assert laws[-1][1] < Fraction(1, 64)
    assert 1 - laws[-1][1] - guessed > Fraction(1, 2)  # decided by the fallback
    if bits == 3 and free * 16 > scale:
        assert guessed > 0  # and some by the float guess


def test_free_class_picks_each_class_with_its_free_mass():
    # every occupancy of urns of weights 1, 2, 5 (3, 2 and 2 of them): of
    # the F values below the free mass, class i takes exactly its F_i
    u = urn_model([(1, 3), (2, 2), (5, 2)])
    starts = [0, 3, 7]
    ends = [3, 7, u.denominator]
    for held in product(*(range(c + 1) for c in u.counts)):
        lows = [s + h * p for s, h, p in zip(starts, held, u.numerators)]
        t = [lows[0], *(x for i in (1, 2) for x in (starts[i], lows[i]))]
        gaps = [end - low for end, low in zip(ends, lows)]
        hits = Counter(urns_module._free_class(t, ends, r) for r in range(sum(gaps)))
        assert hits == {i: gap for i, gap in enumerate(gaps) if gap}


@pytest.mark.parametrize("name", ["one urn", "uniform 40", "weights 1 and 30",
                                  "motzkin W=2 n=5"])
def test_full_collection_mean_through_the_skip_phase(motzkin_h2_norm, monkeypatch, name):
    u = {"one urn": lambda: uniform_urns(1),
         "uniform 40": lambda: uniform_urns(40),
         "weights 1 and 30": lambda: from_weights([1, 30]),
         "motzkin W=2 n=5": lambda: from_spectrum(weight_spectrum(motzkin_h2_norm, None, 5)),
         }[name]()
    steps = Counter()
    real = urns_module._repeat_throws

    def counted(free, scale, getrandbits):
        steps[free * 16 <= scale] += 1
        return real(free, scale, getrandbits)

    monkeypatch.setattr(urns_module, "_repeat_throws", counted)
    expected = oracle_coupon_classes(u)
    if len(u.counts) == 1:
        assert expected == u.m * harmonic(u.m)
    r = simulate(u, "full_collection", 3000, seed=28)
    if u.m == 1:  # one throw occupies the only urn, before any skip
        assert (r.mean, r.stderr, steps) == (1.0, 0.0, {})
        return
    assert set(steps) == {True} and steps[True] >= 2000  # gaps only at F <= D/16
    assert abs(r.mean - float(expected)) <= 5 * r.stderr


def test_coupon_classes_oracle_matches_the_subset_chain():
    u = urn_model([(1, 2), (2, 1), (3, 2)])
    assert oracle_coupon_classes(u) == oracle_coupon([p for p, _ in expand_urns(u)])


def test_full_collection_draws_a_few_times_per_urn(motzkin_h2_norm):
    # Motzkin W=2 at n=12: m = 15511 urns, about 4e6 throws per trial, of
    # which the skip phase draws a gap and a class per new urn instead
    u = from_spectrum(weight_spectrum(motzkin_h2_norm, None, 12))
    assert u.m == 15511
    rng, calls = random.Random(28), Counter()

    def getrandbits(k):
        calls[k] += 1
        return rng.getrandbits(k)

    (throws,) = urns_module._urn_trials(u, "full_collection", 1, None, getrandbits)
    assert throws > 10 ** 6 and sum(calls.values()) <= 20 * u.m


def test_id_oracle_reproduces_the_full_collection_golden(motzkin_h2_norm):
    # explicit urn ids, integer-power gaps and id-order placement follow the
    # walk draw for draw from the golden's stream
    u = from_spectrum(weight_spectrum(motzkin_h2_norm, None, 5))
    sub = substream_seed(2026)
    getrandbits = random.Random(sub).getrandbits
    draws = iter(lambda: below(getrandbits, u.denominator), None)
    values = [urn_ball_trial(u, "full_collection", draws, getrandbits=getrandbits)
              for _ in range(50)]
    assert values == urns_module._urn_trials(u, "full_collection", 50, None,
                                             random.Random(sub).getrandbits)
    assert math.fsum(values) / 50 == GOLDEN_SIMULATIONS["urns", "full_collection"][0]


def test_simulate_refuses_urn_waits_beyond_the_draw_cap(rna80_urns, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a throw was drawn")

    monkeypatch.setattr(urns_module, "_urn_trials", no_draw)
    # one urn: E[B] = 2 >= ceil(sqrt(pi/2)) = 2; four urns: E[C] >= 1/p_min = 4;
    # p = 2/5, 3/5: E[C] >= ceil(5/2) = 3
    for u, statistic, wait in ((uniform_urns(1), "first_collision", 2),
                               (uniform_urns(4), "full_collection", 4),
                               (from_weights([2, 3]), "full_collection", 3)):
        with pytest.raises(ValueError, match=f"{statistic} expects at least {wait} throws"):
            simulate(u, statistic, SIMULATE_DRAW_CAP // wait + 1)
        with pytest.raises(AssertionError, match="a throw was drawn"):
            simulate(u, statistic, SIMULATE_DRAW_CAP // wait)
    # E[B] >= the plug-in 5.7e13, so one trial is refused
    with pytest.raises(ValueError, match="first_collision expects at least 57"):
        simulate(rna80_urns, "first_collision", 1)
    # two urns, one of probability 1/(10^10 + 1)
    with pytest.raises(ValueError, match="full_collection expects at least 10000000001"):
        simulate(from_weights([1, 10 ** 10]), "full_collection", 1)
    # a wait past Python's int-to-str digit limit is printed in full
    wait = "1" + "0" * 4399 + "1"
    with pytest.raises(ValueError, match=f"full_collection expects at least {wait} throws"):
        simulate(from_weights([1, 10 ** 4400]), "full_collection", 1)


def test_simulate_refuses_word_waits_as_at_urn_level(motzkin, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(urns_module, "sample_word", no_draw)
    # W=2 at n=2: "()" and ".." with p = 1/5, 4/5; ceil(sqrt(pi/(2*17/25))) = 2
    g = normalize(motzkin.with_weights({".": 2}))
    state = SamplerState(build_counts(g, None, 2))
    u = from_spectrum(weight_spectrum(g, None, 2))
    for statistic, wait in (("first_collision", 2), ("full_collection", 5)):
        for model in (state, u):
            with pytest.raises(ValueError,
                               match=f"{statistic} expects at least {wait} throws"):
                simulate(model, statistic, SIMULATE_DRAW_CAP // wait + 1, n=2)
        with pytest.raises(AssertionError, match="a word was drawn"):
            simulate(state, statistic, SIMULATE_DRAW_CAP // wait, n=2)


def test_word_waits_read_the_law_of_the_table(motzkin, monkeypatch):
    # Motzkin at n=40: with "." = 1000 the word of dots has probability 0.999,
    # so a first collision takes about 2 throws; with unit weights about 3e8
    heavy = {".": Fraction(1000), "(": Fraction(1), ")": Fraction(1)}
    unit = {t: Fraction(1) for t in heavy}
    plain, dotted = normalize(motzkin), normalize(motzkin.with_weights(heavy))
    runs = simulate(SamplerState(build_counts(plain, heavy, 40)), "first_collision", 10,
                    n=40)
    assert runs == simulate(SamplerState(build_counts(dotted, None, 40)),
                            "first_collision", 10, n=40)
    assert runs.mean == 2

    def no_draw(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(urns_module, "sample_word", no_draw)
    for grammar in (plain, dotted):
        with pytest.raises(ValueError, match="first_collision expects at least 322879118"):
            simulate(SamplerState(build_counts(grammar, unit, 40)), "first_collision", 10,
                     n=40)


def test_word_level_simulate_builds_only_its_statistic_s_tables(motzkin, monkeypatch):
    # Motzkin W=2 at n=8, from a table of its own grammar and from one whose
    # weights differ from its grammar's: alpha_2 takes one table, m and p_min
    # one table and one (min, x) pass, and the W total is the table's own
    own = build_counts(normalize(motzkin.with_weights({".": 2})), None, 8)
    other = build_counts(normalize(motzkin), {".": 2, "(": 1, ")": 1}, 8)
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(counting, "inside", counted("inside", counting.inside))
    for module in (grammar_module, urns_module):
        monkeypatch.setattr(module, "normalize",
                            counted("normalize", grammar_module.normalize), raising=False)
    for table in (own, other):
        for statistic, trials, k, inside in (("first_collision", 20, None, 1),
                                             ("full_collection", 1, None, 2),
                                             ("distinct", 5, 10, 0), ("coverage", 5, 10, 0)):
            calls.clear()
            simulate(SamplerState(table), statistic, trials, k=k, n=8)
            assert (calls["inside"], calls["normalize"]) == (inside, 0), statistic


@pytest.mark.parametrize("precision", [None, 64])
def test_word_coverage_sums_letter_products_as_the_word_weights(motzkin, precision):
    # fractional letter weights, so the letter scale is 6; on the p = 64
    # table too the coverage of each trial is the seen words' weight sum
    weights = {".": Fraction(3, 2), "(": Fraction(2, 3), ")": Fraction(1)}
    table = build_counts(normalize(motzkin), weights, 10, precision)
    sub = substream_seed(5)
    values = urns_module._word_trials(urns_module._word_law(table, 10, "coverage"),
                                      "coverage", 20, 30, sub)
    stream, expected = SamplerState(table, sub), []
    for _ in range(20):
        seen = {sample_word(stream, 10) for _ in range(30)}
        expected.append(float(_share(sum(word_weight(word, weights) for word in seen),
                                     table, 10)))
    assert values == expected and len(set(values)) > 10


# Pinned SimResults, Motzkin W=2 at n=5 (21 words in 3 weight classes), 50
# trials, seed 2026: any change to a draw source or the trial loop shows here.
GOLDEN_SIMULATIONS = {
    ("urns", "first_collision"): (4.84, 0.28336174327354147),
    ("urns", "full_collection"): (197.68, 13.93970807529662),
    ("urns", "distinct"): (7.9, 0.19846348556356863),
    ("urns", "coverage"): (0.5715151515151515, 0.01109644653610012),
    ("words", "first_collision"): (5.12, 0.2468412693309163),
    ("words", "full_collection"): (191.68, 10.186563378754768),
    ("words", "distinct"): (8.32, 0.1967905755168293),
    ("words", "coverage"): (0.6015151515151514, 0.010228274762520051),
}


@pytest.mark.parametrize("level,statistic", sorted(GOLDEN_SIMULATIONS))
def test_simulate_golden(motzkin_h2_norm, level, statistic):
    if level == "urns":
        model = from_spectrum(weight_spectrum(motzkin_h2_norm, None, 5))
    else:
        model = SamplerState(build_counts(motzkin_h2_norm, None, 5))
    k = 12 if statistic in ("distinct", "coverage") else None
    mean, stderr = GOLDEN_SIMULATIONS[level, statistic]
    assert simulate(model, statistic, 50, seed=2026, k=k, n=5) == \
        SimResult(statistic, mean, stderr, 50, k)


def test_simulate_full_collection_cap_starts_no_draws(motzkin_norm, monkeypatch):
    message = f"at most {FULL_COLLECTION_CAP} urns or words"
    assert FULL_COLLECTION_CAP == 10 ** 7
    with pytest.raises(ValueError, match=message):
        simulate(uniform_urns(10 ** 7 + 1), "full_collection", 1)

    def no_draw(state, n):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(urns_module, "sample_word", no_draw)
    state = SamplerState(build_counts(motzkin_norm, None, 30))
    with pytest.raises(ValueError, match=message):
        simulate(state, "full_collection", 1, n=30)


@pytest.mark.parametrize("statistic, k", [("first_collision", None),
                                          ("full_collection", None), ("coverage", 3)])
def test_simulate_words_at_an_empty_length_raises(statistic, k):
    g = normalize(parse_grammar("axiom S\nterminal a\nS -> a a T\nT -> a T | _\n"))
    state = SamplerState(build_counts(g, None, 4))
    with pytest.raises(EmptyLanguageError, match="no words of length 1"):
        simulate(state, statistic, 5, k=k, n=1)


def test_simulate_draw_cap_starts_no_draws(motzkin_norm, monkeypatch):
    assert SIMULATE_DRAW_CAP == 10 ** 9

    def no_draw(*args):
        raise AssertionError("a draw source was used")

    monkeypatch.setattr(urns_module, "sample_word", no_draw)
    monkeypatch.setattr(urns_module, "_urn_trials", no_draw)
    state = SamplerState(build_counts(motzkin_norm, None, 30))
    for model in (uniform_urns(5), state):
        with pytest.raises(ValueError, match=r"trials must lie in \[1, 1000000000\]"):
            simulate(model, "first_collision", SIMULATE_DRAW_CAP + 1, n=30)
        for statistic, trials, k in (("distinct", 1000, 10 ** 6 + 1),
                                     ("coverage", SIMULATE_DRAW_CAP, 2)):
            with pytest.raises(ValueError, match=r"trials \* k must be at most"):
                simulate(model, statistic, trials, k=k, n=30)
        # at the cap, k = 0 draws nothing
        assert simulate(model, "distinct", SIMULATE_DRAW_CAP, k=0, n=30) == \
            SimResult("distinct", 0.0, 0.0, SIMULATE_DRAW_CAP, 0)


@pytest.mark.parametrize("level, statistic, n, message", [
    ("urns", "collisions", None, "unknown statistic 'collisions'"),
    ("words", "collisions", 5, "unknown statistic 'collisions'"),
    ("words", "first_collision", None, "word-level simulation needs n"),
])
def test_simulate_refuses_unknown_statistic_and_missing_n(motzkin_norm, level, statistic,
                                                           n, message):
    model = uniform_urns(5) if level == "urns" else SamplerState(
        build_counts(motzkin_norm, None, 5))
    with pytest.raises(ValueError, match=message):
        simulate(model, statistic, 10, n=n)


def test_report_structure(motzkin_h2_urns):
    rep = standard_report(motzkin_h2_urns, n=3, k=2)
    stats = {e.statistic for e in rep.entries}
    assert {"first_collision", "full_collection", "distinct", "coverage",
            "occupied_weight"} <= stats
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "statistic,method,n,k,value,lower,upper"
    assert len(csv.splitlines()) == len(rep.entries) + 1


def test_report_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="lower > upper"):
        ReportEntry("x", "bound", lower=2, upper=1)


def test_report_handles_astronomical_bounds():
    # exact bounds can overflow double precision; validation must not
    lo = Fraction(10) ** 400
    hi = 3 * lo
    entry = ReportEntry("full_collection", "bound", lower=lo, upper=hi)
    assert entry.lower == lo
    with pytest.raises(ValueError):
        ReportEntry("full_collection", "bound", lower=hi, upper=lo)


def test_simulate_deterministic_and_within_4_se():
    u = uniform_urns(5)
    a = simulate(u, "distinct", 600, seed=9, k=4)
    b = simulate(u, "distinct", 600, seed=9, k=4)
    assert (a.mean, a.stderr, a.trials) == (b.mean, b.stderr, b.trials)
    exact = float(expected_distinct(u, 4).value)
    assert abs(a.mean - exact) < 4 * a.stderr
