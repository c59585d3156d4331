import random
from fractions import Fraction

import pytest

from weightedgen import (SamplerState, build_counts, enumerate_words,
                         expected_coverage, expected_distinct, from_spectrum,
                         normalize, sample_word, weight_spectrum)
from weightedgen import rna
from weightedgen.urns import OCCUPANCY_REL_ERROR
from helpers import motzkin_words, plateau_profile, secondary_structures

WATERMAN = [1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283]


@pytest.fixture(scope="module")
def theta1_norm():
    return normalize(rna.rna_grammar(1, 1))


def test_grammar_theta1_counts(theta1_norm):
    table = build_counts(theta1_norm, None, 12)
    assert [int(c) for c in table.coefficients()] == WATERMAN


def test_grammar_theta1_l3(theta1_norm):
    words = {"".join(w) for w in enumerate_words(theta1_norm.original, 3)}
    assert words == {"...", "(.)"}


def test_grammar_theta3_n4():
    g = rna.rna_grammar(3, 1)
    assert {"".join(w) for w in enumerate_words(g, 4)} == {"...."}


def test_grammar_matches_plateau_filter():
    for theta in (1, 2, 3):
        g = rna.rna_grammar(theta, 1)
        for n in range(9):
            got = {"".join(w) for w in enumerate_words(g, n)}
            assert got == set(secondary_structures(n, theta)), (theta, n)


def test_delta_theta1_unit_weight():
    assert rna.rna_delta(Fraction(1), 1) == \
        [1, -4, 4, -2, 4, -4, 1]


def test_delta_constant_term():
    for theta in (1, 2, 3):
        for w in (Fraction(1), Fraction(7, 2)):
            assert rna.rna_delta(w, theta)[0] == 1


def test_series_matches_dp():
    for theta in (1, 3):
        for w in (Fraction(2), Fraction(1, 3)):
            series = rna.rna_series(w, theta, 40)
            g = normalize(rna.rna_grammar(theta, w))
            dp = build_counts(g, None, 40).coefficients()
            assert series == dp


def test_rho_theta1_uniform(theta1_norm):
    r = rna.rna_rho(Fraction(1), 1)
    # golden-ratio growth of the unit-weight model; cross-check against the
    # coefficient-tail estimator, the stated independent route
    assert abs(r - 0.3819660113) < 1e-9
    from weightedgen import estimate_singularity
    coeffs = build_counts(theta1_norm, None, 320, precision=256).coefficients()
    est = estimate_singularity(coeffs)
    assert abs(est.rho - r) < 1e-6


def test_rho_theta3_uniform():
    # the often-quoted 2.2888 growth constant belongs to the theta=3 family
    assert abs(1 / rna.rna_rho(Fraction(1), 3) - 2.288795) < 1e-5


def test_rho_is_series_radius_weighted():
    from weightedgen import estimate_singularity
    w = Fraction(7, 2)
    g = normalize(rna.rna_grammar(3, w))
    coeffs = build_counts(g, None, 320, precision=256).coefficients()
    est = estimate_singularity(coeffs)
    assert abs(est.rho - rna.rna_rho(w, 3)) < 1e-6


def test_structure_counts_examples():
    s = rna.structure_counts(3, 1)
    assert s[(1, 1)] == 1       # (.)
    assert s[(0, 0)] == 1       # ...
    s5 = rna.structure_counts(5, 1)
    assert s5[(2, 1)] == 1      # ((.)): printed index order would make this 0


def test_structure_counts_against_enumeration():
    for theta in (1, 3):
        for n in range(13):
            table = {}
            for word in secondary_structures(n, theta):
                pairs, plateaux, _ = plateau_profile(word)
                key = (pairs, plateaux)
                table[key] = table.get(key, 0) + 1
            assert rna.structure_counts(n, theta) == table, (theta, n)


def test_structure_totals_match_counts():
    for theta in (1, 2, 3):
        g = normalize(rna.rna_grammar(theta, 1))
        table = build_counts(g, None, 14)
        for n in range(15):
            total = sum(rna.structure_counts(n, theta).values())
            assert total == int(table.total(n))


def test_class_counts_examples():
    assert rna.class_counts_by_pairs(3, 1) == [(0, 1), (1, 1)]
    assert rna.class_counts_by_pairs(4, 3) == [(0, 1)]


def test_pair_spectrum_matches_grammar_spectrum():
    cases = [(1, Fraction(2)), (2, Fraction(3)), (3, Fraction(5))]
    for theta, w in cases:
        g = normalize(rna.rna_grammar(theta, w))
        for n in (0, 5, 11, 20):
            assert rna.pair_spectrum(n, theta, w) == \
                weight_spectrum(g, None, n), (theta, w, n)


def test_pair_spectrum_matches_grammar_spectrum_n40():
    w = Fraction(5)
    g = normalize(rna.rna_grammar(3, w))
    assert rna.pair_spectrum(40, 3, w) == weight_spectrum(g, None, 40)


def test_pair_spectrum_matches_grammar_spectrum_n60():
    w = Fraction(7, 3)
    g = normalize(rna.rna_grammar(2, w))
    assert rna.pair_spectrum(60, 2, w) == weight_spectrum(g, None, 60)


def test_collection_growth_bases():
    # the full-collection time grows like (1/rho_w)^n: the minimal word weight
    # is 1 at every length (the all-dots structure), so only rho_w enters
    w1 = rna.pair_weight(-1.0, invert_sign=True)
    assert abs(1 / rna.rna_rho(w1, 1) - 4.33) < 5e-3
    w3 = rna.pair_weight(-3.0, invert_sign=True)
    assert abs(1 / rna.rna_rho(w3, 3) - 12.65) < 1e-2
    from weightedgen import extreme_weights
    g = normalize(rna.rna_grammar(3, w3))
    for n in (7, 12, 17):
        assert extreme_weights(g, None, n)[0] == 1


def test_bijection_strip_theta_dots():
    # deleting theta dots inside each plateau maps structures of length n with
    # i plateaux bijectively onto Motzkin words of length n - theta*i with i
    # pairs enclosing only dots
    for theta in (1, 2, 3):
        for n in range(3, 12):
            images = {}
            for word in secondary_structures(n, theta):
                _, plateaux, _ = plateau_profile(word)
                stripped = _strip_plateaux(word, theta)
                images.setdefault((n - theta * plateaux, plateaux), []).append(stripped)
            for (length, plateaux), stripped_words in images.items():
                assert len(set(stripped_words)) == len(stripped_words)
                targets = {w for w in motzkin_words(length)
                           if plateau_profile(w)[1] == plateaux}
                assert set(stripped_words) == targets, (theta, n, length, plateaux)


def _strip_plateaux(word, theta):
    out = []
    i = 0
    while i < len(word):
        if word[i] == "(":
            j = i + 1
            while j < len(word) and word[j] == ".":
                j += 1
            if j < len(word) and word[j] == ")":
                dots = j - i - 1
                out.append("(" + "." * (dots - theta) + ")")
                i = j + 1
                continue
        out.append(word[i])
        i += 1
    return "".join(out)


def test_sampled_structures_respect_theta():
    # structural property, so a (faster) float table is fine here
    w = Fraction(5)
    g = normalize(rna.rna_grammar(3, w))
    table = build_counts(g, None, 25, precision=128)
    state = SamplerState(table, seed=314)
    for _ in range(10_000):
        word = "".join(sample_word(state, 25))
        _, plateaux, shortest = plateau_profile(word)
        assert plateaux == 0 or shortest >= 3


def test_pair_weight_conventions():
    w_inv = rna.pair_weight(-1.0, 0.6163, invert_sign=True)
    w_lit = rna.pair_weight(-1.0, 0.6163, invert_sign=False)
    assert w_inv > 1 > w_lit
    assert abs(w_inv * w_lit - 1) < Fraction(1, 10 ** 25)
    assert abs(float(w_inv) - 5.06617) < 1e-4


def test_model_gamma_values():
    # stabilizing energies must raise the pair weight above 1 to reproduce the
    # published per-length collision factors
    g1 = rna.gamma_from_rho(rna.RnaModel(theta=1, pair_energy=-1.0))
    g3 = rna.gamma_from_rho(rna.RnaModel(theta=3, pair_energy=-3.0))
    assert abs(g1 - 1.5441) < 5e-4
    assert abs(g3 - 1.10530) < 5e-4


def test_report_bundle():
    rep = rna.rna_report(20, rna.RnaModel(theta=3, pair_energy=-3.0), k=100)
    stats = [e.statistic for e in rep.entries]
    assert "collision_growth_base" in stats
    assert stats.count("first_collision") >= 2
    assert "coverage" in stats


def test_coverage_rows_shape():
    rows = rna.coverage_rows(rna.RnaModel(theta=3, pair_energy=-3.0), 50, range(4, 8))
    assert [r[0] for r in rows] == [4, 5, 6, 7]
    for _, k, cov, frac in rows:
        assert k == 50
        assert 0 <= cov <= 1
        assert 0 <= frac <= 1


def test_coverage_rows_match_exact_route():
    model = rna.RnaModel(theta=1, pair_energy=-1.0)
    k = 100
    for n, _, cov, frac in rna.coverage_rows(model, k, range(2, 41)):
        u = from_spectrum(rna.pair_spectrum(n, 1, model.w))
        exact_cov = float(expected_coverage(u, k, exact=True))
        exact_frac = float(expected_distinct(u, k, exact=True).value / k)
        assert abs(cov - exact_cov) <= OCCUPANCY_REL_ERROR * exact_cov, n
        assert abs(frac - exact_frac) <= OCCUPANCY_REL_ERROR * exact_frac, n


def test_invalid_model_parameters():
    with pytest.raises(ValueError):
        rna.RnaModel(theta=0)
    with pytest.raises(ValueError):
        rna.pair_weight(-1.0, 0.0)
