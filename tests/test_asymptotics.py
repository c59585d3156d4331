import math
import random
from fractions import Fraction
from unittest.mock import patch

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from weightedgen import (asymptotics, birthday_asymptotic, build_counts,
                         check_conditions, collision_envelope,
                         collision_estimates, counting, estimate_singularity,
                         fit_power, from_spectrum,
                         normalize, parse_grammar, rna, weight_spectrum)
from weightedgen.asymptotics import (InsufficientData,
                                     collision_growth_base, max_weight_growth,
                                     system_rho)
from weightedgen.cli import motzkin_grammar
from weightedgen.grammar import has_positive_pump
from helpers import finite_language, ladder_decay_base, lstsq_line, random_valid_grammar


def synthetic(a, b, n_terms=512):
    with mp.workdps(50):
        return [mp.mpf(a) ** n * mp.mpf(n) ** (-b) if n else mp.mpf(1)
                for n in range(n_terms)]


def test_plain_geometric():
    est = estimate_singularity(synthetic(2, 0, 128))
    assert abs(est.rho - 0.5) < 1e-6
    assert abs(est.k_exp) < 1e-6
    assert abs(est.kappa - 1) < 1e-6
    assert est.converged


def test_algebraic_decay():
    est = estimate_singularity(synthetic(4, 1.5, 512))
    assert abs(est.rho - 0.25) < 1e-2 * 0.25
    assert abs(est.k_exp - 1.5) < 1e-2


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        estimate_singularity([1.0] * 20)


def assert_fit_matches_lstsq(coeffs):
    # the log-log line of the estimate against numpy's lstsq on the same points
    with patch.object(asymptotics, "linear_regression",
                      wraps=asymptotics.linear_regression) as spy:
        est = estimate_singularity(coeffs)
    intercept, slope, residual = lstsq_line(*spy.call_args.args)
    assert math.isclose(est.kappa, math.exp(intercept), rel_tol=1e-12)
    assert math.isclose(est.k_exp, -slope, rel_tol=1e-12)
    assert abs(est.residual - residual) <= 1e-9


@pytest.mark.parametrize("grammar", [
    motzkin_grammar().with_weights({".": 2}),
    rna.rna_grammar(1, rna.pair_weight(-1.0)),
    rna.rna_grammar(3, rna.pair_weight(-3.0)),
], ids=["motzkin-w2", "rna-t1-e1", "rna-t3-e3"])
def test_fit_matches_lstsq_on_256_term_tails(grammar):
    assert_fit_matches_lstsq(build_counts(normalize(grammar), None, 256, 256).coefficients())


@pytest.mark.parametrize("a", [1.5, 3, 9])
@pytest.mark.parametrize("b", [0, 0.5, 1.5])
def test_fit_matches_lstsq_on_synthetic_tails(a, b):
    # the tails of acceptance criterion 11
    assert_fit_matches_lstsq(synthetic(a, b))


def test_motzkin_singularity(motzkin_norm):
    coeffs = build_counts(motzkin_norm, None, 320, precision=256).coefficients()
    est = estimate_singularity(coeffs)
    assert abs(est.rho - 1 / 3) < 1e-6
    assert abs(est.k_exp - 1.5) < 0.05
    assert est.converged


def test_collision_growth_base_uniform(motzkin_norm):
    # squared unit weights leave the singularity alone: gamma = 1/sqrt(rho)
    assert abs(collision_growth_base(motzkin_norm) - math.sqrt(3)) < 1e-10


def test_fitted_collision_asymptote_weighted(motzkin_h2_norm):
    base = fit_power(motzkin_h2_norm, 1, 192)
    squared = fit_power(motzkin_h2_norm, 2, 192)
    assert base.converged and squared.converged
    # the fitted asymptote should land near the finite-n plug-in
    assert collision_estimates(motzkin_h2_norm, 40, base, squared).relative_gap < 0.2


def test_conditions_uniform(motzkin_norm):
    rep = check_conditions(motzkin_norm)
    assert rep.log_positive.holds is False
    assert not rep.all_pass


def test_conditions_weighted(motzkin_h2_norm):
    rep = check_conditions(motzkin_h2_norm)
    assert rep.log_positive.holds
    assert rep.diversity.holds           # decay base beta = 1/(rho*M) > 1
    assert rep.bounded_dependency.holds
    assert rep.all_pass
    assert "beta" in rep.diversity.detail


def test_conditions_degenerate_language():
    g = normalize(parse_grammar("axiom S\nterminal a\nS -> a S | a\n"))
    rep = check_conditions(g)
    assert rep.diversity.holds is False  # single word per length, p_max = 1
    rho, m = rep.diversity.data
    assert abs(rho * m - 1) <= 1e-10     # rho = M = 1


PERIODIC = {
    # lengths 2 mod 4 only
    "even-lengths-only": "axiom S\nterminal a\nterminal b\nS -> a S b S | a b\n",
    # lengths 1 mod 3 only
    "lengths-1-mod-3": "axiom S\nterminal a\nterminal b\nS -> a S S S | b S S S | a | b\n",
}


@pytest.mark.parametrize("text, ladder", [
    ("axiom S\nterminal (\nterminal )\nterminal .\nS -> ( S ) S | . S | _\n",
     (8, 16, 32, 64)),
    (PERIODIC["even-lengths-only"], (6, 14, 30, 62)),
    (PERIODIC["lengths-1-mod-3"], (7, 16, 31, 64)),
], ids=["motzkin", "even-lengths-only", "lengths-1-mod-3"])
def test_diversity_probe_reads_extreme_weights(text, ladder):
    # maxweight(n)/total(n) ~ C n^a (rho*M)^n: the exact ladder up to n=64
    # reads the decay base about 5% low, the n^a factor's share
    grammar = parse_grammar(text)
    g = normalize(grammar.with_weights(
        {t: Fraction(2 + i, 1 + 2 * i) for i, t in enumerate(sorted(grammar.terminals))}))
    rep = check_conditions(g)
    rho, m = rep.diversity.data
    beta = 1 / (rho * m)
    assert rep.diversity.holds and beta > 1
    assert 0.9 * beta < ladder_decay_base(g, ladder) < beta


@pytest.mark.parametrize("W", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
def test_diversity_probe_matches_motzkin_closed_forms(W):
    g = normalize(motzkin_grammar().with_weights({".": W}))
    assert abs(max_weight_growth(g) - max(W, 1)) <= 1e-12 * max(W, 1)
    rho, m = check_conditions(g).diversity.data
    beta = (W + 2) / max(W, 1)
    assert abs(1 / (rho * m) - beta) <= 1e-9 * beta


@pytest.mark.parametrize("theta, energy", [(1, -1.0), (1, -3.0), (3, -1.0), (3, -3.0)])
def test_max_weight_growth_matches_rna_closed_form(theta, energy):
    w = rna.pair_weight(energy)
    expected = max(math.sqrt(w), 1)
    assert abs(max_weight_growth(normalize(rna.rna_grammar(theta, w))) - expected) \
        <= 1e-12 * expected


# maxweight(n) is M^n up to a factor bounded in n: n * |log M - log(maxweight(n))/n|
# stayed at or below 19 over 206 infinite random grammars with weights in
# [1/8, 8], at n = 200 and 400
GROWTH_ROW_SLACK = 40


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.one_of(st.sampled_from(sorted(PERIODIC)), st.integers(0, 2 ** 32)),
       st.lists(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
                min_size=3, max_size=3))
def test_max_weight_growth_matches_largest_weight_rows(source, weights):
    if isinstance(source, str):
        grammar = parse_grammar(PERIODIC[source])
    else:
        grammar = random_valid_grammar(random.Random(source))
    g = normalize(grammar.with_weights(dict(zip(sorted(grammar.terminals), weights))))
    try:
        log_m = math.log(max_weight_growth(g))
    except InsufficientData:
        assert finite_language(grammar)
        return
    scale, row = counting._extreme_row(g, g.weights, 400, largest=True)
    for n in (200, 400):
        k = max(i for i in range(n + 1) if row[i])  # the last length with words
        gap = log_m - (math.log(row[k]) - k * math.log(scale)) / k
        assert abs(gap) <= GROWTH_ROW_SLACK / k, (k, gap)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32))
def test_pump_test_tells_infinite_languages(seed):
    g = random_valid_grammar(random.Random(seed))
    assert has_positive_pump(g, lambda t: 1.0) == (not finite_language(g))


def test_collision_envelope_identity(motzkin_h2_norm):
    # two routes, one formula: spectrum plug-in vs exact-total plug-in
    for n in (5, 12, 20, 30):
        u = from_spectrum(weight_spectrum(motzkin_h2_norm, None, n))
        a = birthday_asymptotic(u)
        b = collision_envelope(motzkin_h2_norm, n)
        assert abs(a - b) / b < 1e-12


def test_singularity_with_parity_oscillation():
    # period-2 modulation of the constant: both parity ratio tracks still
    # converge to the same radius
    with mp.workdps(40):
        coeffs = [mp.mpf(2) ** n * (3 + (-1) ** n) for n in range(256)]
    est = estimate_singularity(coeffs)
    assert abs(est.rho - 0.5) < 1e-8
    assert est.converged


def test_gamma_exceeds_one_when_conditions_pass(motzkin_h2_norm):
    from weightedgen import rna
    corpus = [
        motzkin_h2_norm,
        normalize(rna.rna_grammar(1, Fraction(2))),
        normalize(rna.rna_grammar(3, Fraction(5))),
    ]
    for g in corpus:
        if check_conditions(g).all_pass:
            assert collision_growth_base(g) > 1, g.original.to_text()
    # at least the weighted-Motzkin member must actually exercise the branch
    assert check_conditions(motzkin_h2_norm).all_pass


def test_collision_estimates_pair():
    from weightedgen import rna
    g = normalize(rna.rna_grammar(1, Fraction(2)))
    ce = collision_estimates(g, 36, fit_power(g, 1, 192), fit_power(g, 2, 192))
    assert ce.plug_in > 1
    assert ce.relative_gap == abs(ce.fitted - ce.plug_in) / ce.plug_in
    assert ce.agree == (ce.relative_gap <= 0.05)


@pytest.mark.parametrize("n", [0, -3])
def test_collision_estimates_refuse_length_below_one(motzkin_h2_norm, n):
    base = fit_power(motzkin_h2_norm, 1, 128)
    squared = fit_power(motzkin_h2_norm, 2, 128)
    with pytest.raises(ValueError, match="at least 1"):
        collision_estimates(motzkin_h2_norm, n, base, squared)


def test_fitted_gamma_matches_root_route():
    from weightedgen import rna
    g = normalize(rna.rna_grammar(3, rna.pair_weight(-3.0)))
    series_gamma = fit_power(g, 2, 192).rho ** 0.5 / fit_power(g, 1, 192).rho
    root_gamma = collision_growth_base(g)
    assert abs(series_gamma - root_gamma) < 5e-3


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32),
       st.lists(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
                min_size=3, max_size=3))
def test_growth_base_is_at_least_one(seed, weights):
    # sum w^2 <= (sum w)^2 at every length, so rho_W^2 <= rho_{W^2}; the two
    # rho carry a few units of rounding each
    grammar = random_valid_grammar(random.Random(seed))
    g = normalize(grammar.with_weights(dict(zip(sorted(grammar.terminals), weights))))
    try:
        gamma = collision_growth_base(g)
    except InsufficientData:
        return
    assert gamma >= 1 - 1e-12


# ---------------------------------------------------------------------------
# rho from the polynomial system


@pytest.mark.parametrize("W", [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_system_rho_matches_motzkin_closed_form(W, j):
    g = normalize(motzkin_grammar().with_weights({".": W}))
    expected = 1 / (float(W) ** j + 2)
    assert abs(system_rho(g, j) - expected) <= 1e-10 * expected


@pytest.mark.parametrize("theta, energy", [(1, -1.0), (1, -3.0), (3, -1.0), (3, -3.0)])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_system_rho_matches_rna_discriminant_root(theta, energy, j):
    w = rna.RnaModel(theta=theta, pair_energy=energy).w
    expected = rna.rna_rho(w ** j, theta)
    assert abs(system_rho(normalize(rna.rna_grammar(theta, w)), j) - expected) \
        <= 1e-10 * expected


@pytest.mark.parametrize("text, expected", [
    # a pole: y = 3zy + z
    ("axiom S\nterminal a weight 3\nterminal b\nS -> a S | b\n", 1 / 3),
    # Dyck words, even lengths only: y = z^2 y^2 + 1
    ("axiom S\nterminal (\nterminal )\nS -> ( S ) S | _\n", 1 / 2),
], ids=["pole", "dyck"])
def test_system_rho_of_pole_and_periodic_languages(text, expected):
    assert abs(system_rho(normalize(parse_grammar(text))) - expected) <= 1e-10 * expected


@pytest.fixture
def fresh_rho_memo():
    # a rho memoised by an earlier call would skip a patched search
    asymptotics._system_rho_scaled.cache_clear()
    yield
    asymptotics._system_rho_scaled.cache_clear()


def test_a_polished_z_off_rho_fails_certification(monkeypatch, fresh_rho_memo):
    polish, calls = asymptotics._polish, []

    def off(terms, n, lo, hi, y):
        calls.append(hi)
        z = polish(terms, n, lo, hi, y)
        return None if z is None else min(hi, z * (1 + 1e-7))

    monkeypatch.setattr(asymptotics, "_polish", off)
    g = normalize(motzkin_grammar().with_weights({".": Fraction(2)}))
    assert abs(system_rho(g, 2) * 6 - 1) <= 1e-10
    assert calls


@pytest.mark.parametrize("text, j, expected", [
    *(("axiom S\nterminal (\nterminal )\nterminal . weight 2\nS -> ( S ) S | . S | _\n",
       j, 1 / (2 ** j + 2)) for j in (1, 2, 3)),
    ("axiom S\nterminal a weight 3\nterminal b\nS -> a S | b\n", 1, 1 / 3),
    ("axiom S\nterminal (\nterminal )\nS -> ( S ) S | _\n", 1, 1 / 2),
], ids=["motzkin-w2-j1", "motzkin-w2-j2", "motzkin-w2-j3", "pole", "dyck"])
def test_bisection_alone_reaches_rho(monkeypatch, fresh_rho_memo, text, j, expected):
    # with no polish, the bracket is bisected until its midpoint is one of
    # its ends
    calls = []
    monkeypatch.setattr(asymptotics, "_polish", lambda *args: calls.append(args))
    rho = system_rho(normalize(parse_grammar(text)), j)
    assert abs(rho - expected) <= 1e-10 * expected
    assert calls


@pytest.mark.parametrize("grammar", [
    motzkin_grammar().with_weights({".": 2}),
    rna.rna_grammar(1, rna.pair_weight(-1.0)),
    rna.rna_grammar(3, rna.pair_weight(-3.0)),
], ids=["motzkin-w2", "rna-t1-e1", "rna-t3-e3"])
def test_the_rho_memo_serves_every_reader(monkeypatch, fresh_rho_memo, grammar):
    # check_conditions, system_rho and collision_growth_base share one search
    # per (grammar, power): a repeat call makes no oracle call
    g = normalize(grammar)
    first = check_conditions(g)
    oracle, calls = asymptotics._oracle, []
    monkeypatch.setattr(asymptotics, "_oracle", lambda *args: calls.append(args) or oracle(*args))
    assert check_conditions(g) == first
    gamma = collision_growth_base(g)
    assert calls == []
    expected = math.sqrt(system_rho(g, 2)) / system_rho(g, 1)
    assert abs(gamma - expected) <= 1e-12 * expected


def test_finite_language_leaves_the_separation_probe_inconclusive():
    g = normalize(parse_grammar("axiom S\nterminal a\nterminal b\nS -> a b\n"))
    with pytest.raises(InsufficientData):
        system_rho(g)
    probe = check_conditions(g).bounded_dependency
    assert probe.holds is None and probe.data == ()


@pytest.mark.parametrize("W", [Fraction(10) ** 150, Fraction(1, 10 ** 150)])
def test_system_rho_at_extreme_weights_is_right_or_refused(W):
    g = normalize(motzkin_grammar().with_weights({".": W}))
    answered = 0
    for j in (1, 2, 3):
        try:
            rho = system_rho(g, j)
        except OverflowError:
            continue
        answered += 1
        assert abs(rho * (W ** j + 2) - 1) <= 1e-10
    assert answered >= 2
    probe = check_conditions(g).bounded_dependency
    assert probe.holds in (True, None)


def test_check_conditions_builds_no_fixed_point_table(motzkin_h2_norm, monkeypatch):
    built = []
    init = counting.CountTable.__init__

    def record(self, grammar, weights, horizon, precision=None):
        built.append(precision)
        init(self, grammar, weights, horizon, precision)

    monkeypatch.setattr(counting.CountTable, "__init__", record)
    assert check_conditions(motzkin_h2_norm).all_pass
    assert built == []


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32), st.integers(1, 3),
       st.lists(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8),
                min_size=3, max_size=3))
def test_system_rho_agrees_with_converged_fits(seed, j, weights):
    grammar = random_valid_grammar(random.Random(seed))
    g = normalize(grammar.with_weights(dict(zip(sorted(grammar.terminals), weights))))
    try:
        fit = fit_power(g, j, 256)
    except InsufficientData:
        return
    if fit.converged:
        assert abs(system_rho(g, j) - fit.rho) <= 1e-3 * fit.rho
