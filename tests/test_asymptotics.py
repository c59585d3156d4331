import math
from fractions import Fraction

import mpmath as mp
import pytest

from weightedgen import (birthday_asymptotic, build_counts, check_conditions,
                         collision_envelope, collision_estimates,
                         estimate_singularity, extreme_weights, from_spectrum,
                         growth_gamma, normalize, parse_grammar, weight_spectrum)
from weightedgen.asymptotics import LADDER, InsufficientData


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


def test_motzkin_singularity(motzkin_norm):
    coeffs = build_counts(motzkin_norm, None, 320, precision=256).coefficients()
    est = estimate_singularity(coeffs)
    assert abs(est.rho - 1 / 3) < 1e-6
    assert abs(est.k_exp - 1.5) < 0.05
    assert est.converged


def test_growth_gamma_uniform_flagged(motzkin_norm):
    gam = growth_gamma(motzkin_norm, n_terms=160, precision=192)
    # squared unit weights leave the singularity alone: gamma = 1/sqrt(rho)
    assert abs(gam.gamma - math.sqrt(3)) < 1e-4
    assert not gam.log_positive


def test_growth_gamma_weighted(motzkin_h2_norm):
    gam = growth_gamma(motzkin_h2_norm, n_terms=192, precision=192)
    assert gam.log_positive
    assert gam.converged
    assert gam.gamma > 1
    # the fitted asymptote should land near the finite-n plug-in
    n = 40
    plug = collision_envelope(motzkin_h2_norm, n)
    fitted = gam.collision_asymptote(n)
    assert abs(fitted - plug) / plug < 0.2


def test_conditions_uniform(motzkin_norm):
    rep = check_conditions(motzkin_norm)
    assert rep.log_positive.holds is False
    assert not rep.all_pass


def test_conditions_weighted(motzkin_h2_norm):
    rep = check_conditions(motzkin_h2_norm)
    assert rep.log_positive.holds
    assert rep.diversity.holds           # fitted decay base beta > 1
    assert rep.bounded_dependency.holds
    assert rep.all_pass
    assert "beta" in rep.diversity.detail


def test_conditions_degenerate_language():
    g = normalize(parse_grammar("axiom S\nterminal a\nS -> a S | a\n"))
    rep = check_conditions(g)
    assert rep.diversity.holds is False  # single word per length, p_max = 1


@pytest.mark.parametrize("text", [
    "axiom S\nterminal (\nterminal )\nterminal .\nS -> ( S ) S | . S | _\n",
    # lengths 2 mod 4 only: every ladder length is empty
    "axiom S\nterminal a\nterminal b\nS -> a S b S | a b\n",
    # lengths 1 mod 3 only: 16 and 64 are on the ladder, 8 and 32 are empty
    "axiom S\nterminal a\nterminal b\nS -> a S S S | b S S S | a | b\n",
], ids=["motzkin", "even-lengths-only", "lengths-1-mod-3"])
def test_diversity_probe_reads_extreme_weights(text):
    grammar = parse_grammar(text)
    g = normalize(grammar.with_weights(
        {t: Fraction(2 + i, 1 + 2 * i) for i, t in enumerate(sorted(grammar.terminals))}))
    table = build_counts(g, None, LADDER[-1])
    expected = tuple((n, float(extreme_weights(g, n)[1] / table.total(n)))
                     for n in LADDER if table.total(n))
    rep = check_conditions(g)
    assert rep.diversity.data == expected


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
        rep = check_conditions(g)
        gam = growth_gamma(g, n_terms=128, precision=160)
        if rep.all_pass:
            assert gam.gamma > 1, g.original.to_text()
    # at least the weighted-Motzkin member must actually exercise the branch
    assert check_conditions(motzkin_h2_norm).all_pass


def test_collision_estimates_pair():
    from weightedgen import rna
    g = normalize(rna.rna_grammar(1, Fraction(2)))
    ce = collision_estimates(g, 36, growth_gamma(g, n_terms=192, precision=192))
    assert ce.plug_in > 1
    assert ce.relative_gap == abs(ce.fitted - ce.plug_in) / ce.plug_in
    assert ce.agree == (ce.relative_gap <= 0.05)


@pytest.mark.parametrize("n", [0, -3])
def test_collision_estimates_refuse_length_below_one(motzkin_h2_norm, n):
    gam = growth_gamma(motzkin_h2_norm, n_terms=128, precision=128)
    with pytest.raises(ValueError, match="at least 1"):
        collision_estimates(motzkin_h2_norm, n, gam)


def test_growth_gamma_series_route_matches_root_route():
    from weightedgen import rna
    w = rna.pair_weight(-3.0)
    series_gamma = growth_gamma(normalize(rna.rna_grammar(3, w)),
                                n_terms=192, precision=256).gamma
    root_gamma = rna.gamma_from_rho(rna.RnaModel(theta=3, pair_energy=-3.0))
    assert abs(series_gamma - root_gamma) < 5e-3
