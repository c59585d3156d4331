import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from weightedgen import (ReportEntry, SamplerState, birthday_asymptotic,
                         birthday_exact, build_counts, coupon_bounds,
                         coupon_uniform_exact, coverage_first_order,
                         expected_coverage, expected_distinct,
                         expected_occupied_weight, from_spectrum, from_weights,
                         normalize, occupancy, simulate, standard_report,
                         uniform_urns, weight_spectrum, xi_estimate)
from weightedgen import urns as urns_module
from weightedgen.numerics import exact_pow_affordable, to_mpf
from weightedgen.urns import (FULL_COLLECTION_CAP, OCCUPANCY_K_LIMIT,
                              OCCUPANCY_REL_ERROR, QuadratureError, SimResult,
                              alpha)
from helpers import (exponential_per_class, mp_birthday, occupancy_sum_per_class,
                     oracle_birthday, oracle_birthday_uniform, oracle_coupon,
                     oracle_occupancy, expand_urns, random_urn_model, urn_model)


@pytest.fixture(scope="module")
def motzkin_h2_urns(motzkin_h2_norm):
    return from_spectrum(weight_spectrum(motzkin_h2_norm, None, 3))


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
    assert expected_coverage(two, 1) == alpha(two, 2)


def test_coverage_first_order():
    two = from_weights([Fraction(1), Fraction(2)])
    fo = coverage_first_order(two, 1)
    assert fo.value == Fraction(5, 9)
    assert fo.value == expected_coverage(two, 1)
    assert not fo.valid  # k * p_max = 2/3 over the default threshold
    assert coverage_first_order(two, 1, threshold=0.7).valid


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


def test_birthday_exact_within_its_tolerance():
    u = urn_model([(1, 7), (5, 2), (40, 1)])
    oracle = mp_birthday(u, rel_tol=1e-14)
    for rel_tol in (1e-3, 1e-6, 1e-9, 1e-12):
        assert abs(birthday_exact(u, rel_tol=rel_tol) - oracle) <= rel_tol * oracle


def test_birthday_exact_beyond_double_range():
    # 1/alpha_2 = 10^400 is no double, E[B] ~ sqrt(pi m / 2) is
    u = uniform_urns(10 ** 400)
    assert abs(birthday_exact(u) / (math.sqrt(math.pi / 2) * 1e200) - 1) < 1e-12


def test_birthday_exact_refuses_tolerance_beyond_doubles():
    with pytest.raises(QuadratureError, match="did not converge"):
        birthday_exact(uniform_urns(365), rel_tol=1e-20)


def test_mixed_routes_sum_in_floats():
    # (1-p)^k fits the exact budget for p = 1/11 but not for p = 1/22000
    u = urn_model([(1, 20_000), (2_000, 1)])
    k = 10_000
    assert [exact_pow_affordable(c.probability, k) for c in u.classes] == [False, True]
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
    occ = occupancy(u, k)
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
    assert occupancy(u, OCCUPANCY_K_LIMIT).distinct == 3
    for k in (-1, OCCUPANCY_K_LIMIT + 1):
        with pytest.raises(ValueError, match="occupancy pass"):
            occupancy(u, k)


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
    assert coupon_uniform_exact(1) == 1
    assert coupon_uniform_exact(3) == Fraction(11, 2)
    assert abs(float(coupon_uniform_exact(365)) - 2364.646) < 5e-3


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


# Pinned SimResults, Motzkin W=2 at n=5 (21 words in 3 weight classes), 50
# trials, seed 2026: any change to a draw source or the trial loop shows here.
GOLDEN_SIMULATIONS = {
    ("urns", "first_collision"): (5.1, 0.2917225408094591),
    ("urns", "full_collection"): (208.68, 10.923722173437449),
    ("urns", "distinct"): (7.84, 0.18151291627735533),
    ("urns", "coverage"): (0.5742424242424241, 0.012184820731634252),
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
