import random
from fractions import Fraction

import pytest

from weightedgen import (ClassCapExceeded, EmptyLanguageError, build_counts,
                         extreme_weights, moment, normalize,
                         parse_grammar, rna, weight_spectra, weight_spectrum)
from helpers import random_grammar, spectrum_from_enumeration


def test_motzkin_totals(motzkin_norm):
    table = build_counts(motzkin_norm, None, 5)
    assert [int(t) for t in table.coefficients()] == [1, 1, 2, 4, 9, 21]


def test_weighted_total_n2(motzkin_h2_norm):
    assert build_counts(motzkin_h2_norm, None, 2).total(2) == 5


def test_empty_slice_is_zero():
    g = normalize(parse_grammar("axiom S\nterminal a\nterminal b\nS -> a S b | a b\n"))
    table = build_counts(g, None, 5)
    assert table.total(3) == 0
    assert table.total(4) == 1


@pytest.mark.parametrize("precision", [None, 64])
def test_epsilon_only_language(precision):
    g = normalize(parse_grammar("axiom S\nS -> _\n"))
    assert build_counts(g, None, 3, precision).coefficients() == [1, 0, 0, 0]


def test_float_backend_tracks_exact(motzkin_h2_norm):
    exact = build_counts(motzkin_h2_norm, None, 30)
    approx = build_counts(motzkin_h2_norm, None, 30, precision=128)
    for n in (10, 20, 30):
        rel = abs(float(exact.total(n)) - float(approx.total(n))) / float(exact.total(n))
        assert rel < 1e-20


def _rna3(motzkin):
    return normalize(rna.rna_grammar(3, rna.RnaModel(theta=3, pair_energy=-3.0).w))


@pytest.mark.parametrize("build,n", [
    (lambda motzkin: normalize(motzkin.with_weights({".": Fraction(2)})), 256),
    (_rna3, 100),
    # one word per length, a^m: its cells grow by only (3/7) / 2^b = 12/7 per
    # length at b = floor(log2 3/7) = -2, and would shrink at any higher slope
    (lambda _: normalize(parse_grammar("axiom S\nterminal a weight 3/7\nS -> a S | a\n")), 256),
], ids=["motzkin-W2", "rna-theta3-E-3", "min-weight-chain"])
def test_fixed_point_table_within_truncation_bound_of_exact(motzkin, build, n):
    # each cell is within a relative (2m-1) * 2^-q below its value, q = p + 64,
    # and value() adds one p-bit rounding
    g = build(motzkin)
    p = 256
    q = p + 64
    exact = build_counts(g, None, n)
    fixed = build_counts(g, None, n, precision=p)
    for nt in g.nonterminals:
        for m in range(n + 1):
            v, x = exact.value(nt, m), fixed.value(nt, m)
            assert x.man.bit_length() <= p
            bound = (Fraction(max(2 * m - 1, 0), 2 ** q) + Fraction(1, 2 ** p)) * v
            assert abs(x.man * Fraction(2) ** x.exp - v) <= bound, (nt, m)
            assert not v or fixed.cell(nt, m) >= 2 ** q - 2 * m
            if m >= 2:
                # the sampler's walk stops below the bound within the options
                options = sum(w for w, _, _ in fixed.choices(nt, m))
                assert fixed.draw_bound(nt, m) <= options < fixed.draw_bound(nt, m) + 2 ** q


def test_moment_normalization(motzkin_h2_norm):
    assert moment(motzkin_h2_norm, None, 1, 4) == 1


def test_moment_uniform_is_inverse_count(motzkin_norm):
    # with unit weights the k-th moment is M_n^(1-k)
    assert moment(motzkin_norm, None, 2, 4) == Fraction(1, 9)


def test_moment_weighted_example(motzkin_h2_norm):
    assert moment(motzkin_h2_norm, None, 2, 2) == Fraction(17, 25)


def test_moment_empty_language():
    g = normalize(parse_grammar("axiom S\nterminal a\nterminal b\nS -> a S b | a b\n"))
    with pytest.raises(EmptyLanguageError):
        moment(g, None, 2, 3)


def test_spectrum_motzkin_h2_n3(motzkin_h2_norm):
    sp = weight_spectrum(motzkin_h2_norm, None, 3)
    assert [(c.weight, c.count) for c in sp.classes] == [(2, 3), (8, 1)]
    assert sp.total_count() == 4
    assert sp.total_weight() == 14
    assert (sp.min_weight(), sp.max_weight()) == (2, 8)


def test_spectrum_uniform_single_class(motzkin_norm):
    sp = weight_spectrum(motzkin_norm, None, 5)
    assert len(sp.classes) == 1
    assert sp.classes[0].weight == 1
    assert sp.classes[0].count == 21


def test_spectrum_n0(motzkin_norm):
    sp = weight_spectrum(motzkin_norm, None, 0)
    assert [(c.weight, c.count) for c in sp.classes] == [(1, 1)]


def test_spectrum_matches_enumeration_random_grammars():
    rng = random.Random(1009)
    for _ in range(6):
        g = random_grammar(rng, probe_depth=7)
        ng = normalize(g)
        spectra = weight_spectra(ng, None, 7)
        for n in range(8):
            expected = spectrum_from_enumeration(g, n)
            got = {} if spectra[n] is None else \
                {c.weight: c.count for c in spectra[n].classes}
            assert got == expected, f"length {n} of {g.to_text()!r}"


def test_spectrum_scaling_invariance(motzkin_h2_norm):
    rng = random.Random(5)
    base = weight_spectrum(motzkin_h2_norm, None, 6)
    for _ in range(3):
        c = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        scaled_weights = {t: c * w for t, w in
                          motzkin_h2_norm.original.weights.items()}
        sp = weight_spectrum(motzkin_h2_norm, scaled_weights, 6)
        assert [cl.count for cl in sp.classes] == [cl.count for cl in base.classes]
        assert [cl.weight for cl in sp.classes] == \
            [c ** 6 * cl.weight for cl in base.classes]
        total_base = build_counts(motzkin_h2_norm, None, 6).total(6)
        total_scaled = build_counts(motzkin_h2_norm, scaled_weights, 6).total(6)
        assert total_scaled == c ** 6 * total_base


def test_moment_spectrum_consistency(motzkin_h2_norm):
    # alpha_2 * total^2 == sum of count * weight^2, exactly
    n = 6
    sp = weight_spectrum(motzkin_h2_norm, None, n)
    total = build_counts(motzkin_h2_norm, None, n).total(n)
    a2 = moment(motzkin_h2_norm, None, 2, n)
    assert a2 * total ** 2 == sum(c.count * c.weight ** 2 for c in sp.classes)


def test_spectrum_merges_equal_weights_across_compositions():
    # one 'a' weighs as much as two 'b's: distinct compositions, same class
    g = normalize(parse_grammar(
        "axiom S\nterminal a weight 4\nterminal b weight 2\n"
        "S -> a S | b S | a | b\n"))
    sp = weight_spectrum(g, None, 2)
    # words: aa(16) ab(8) ba(8) bb(4)
    assert [(c.weight, c.count) for c in sp.classes] == [(4, 1), (8, 2), (16, 1)]
    sp3 = weight_spectrum(g, None, 3)
    by_weight = {c.weight: c for c in sp3.classes}
    # abb, bab, bba vs a single... weight 16 words: aab? 4*4*2=32; abb 4*2*2=16,
    # bab, bba likewise, and aaa? 64. Check the merged class keeps both shapes
    assert by_weight[16].count == 3
    assert by_weight[32].count == 3
    assert by_weight[64].count == 1
    assert by_weight[8].count == 1  # bbb
    comps = by_weight[16].compositions
    assert len(comps) == 1  # (1 a, 2 b) is the only composition at weight 16
    g2 = normalize(parse_grammar(
        "axiom S\nterminal a weight 4\nterminal b weight 2\n"
        "S -> a | b b\n"))
    sp_mixed = weight_spectrum(g2, None, 1)
    assert [(c.weight, c.count) for c in sp_mixed.classes] == [(4, 1)]
    sp_mixed2 = weight_spectrum(g2, None, 2)
    assert [(c.weight, c.count) for c in sp_mixed2.classes] == [(4, 1)]
    # different lengths, same weight: spectra stay per-length so no merge there


def test_spectrum_equal_weight_merge_within_length():
    # length 2: 'a c' (4*1) and 'b b' (2*2) share weight 4 with different
    # compositions; they must land in one class carrying both vectors
    g = normalize(parse_grammar(
        "axiom S\nterminal a weight 4\nterminal b weight 2\nterminal c\n"
        "S -> a c | b b\n"))
    sp = weight_spectrum(g, None, 2)
    assert len(sp.classes) == 1
    cls = sp.classes[0]
    assert cls.weight == 4 and cls.count == 2
    assert len(cls.compositions) == 2
    assert sp.weighted_terminals == ("a", "b")


def test_spectrum_class_cap():
    g = normalize(parse_grammar(
        "axiom S\nterminal a weight 2\nterminal b weight 3\nS -> a S | b S | _\n"))
    with pytest.raises(ClassCapExceeded):
        weight_spectrum(g, None, 12, class_cap=5)


def test_spectrum_csv(motzkin_h2_norm):
    sp = weight_spectrum(motzkin_h2_norm, None, 3)
    assert sp.to_csv() == "weight_num,weight_den,multiplicity\n2,1,3\n8,1,1\n"


def test_extreme_weights_match_spectrum(motzkin_h2_norm):
    for n in range(1, 9):
        sp = weight_spectrum(motzkin_h2_norm, None, n)
        assert extreme_weights(motzkin_h2_norm, None, n) == \
            (sp.min_weight(), sp.max_weight())


def test_choices_sum_to_cell(motzkin_h2_norm):
    table = build_counts(motzkin_h2_norm, None, 6)
    for nt in motzkin_h2_norm.nonterminals:
        for m in range(7):
            assert sum(w for w, _, _ in table.choices(nt, m)) == table.cell(nt, m)


@pytest.mark.parametrize("entry", [
    lambda g: build_counts(g, None, -1),
    lambda g: moment(g, None, 2, -1),
    lambda g: weight_spectra(g, None, -1),
    lambda g: extreme_weights(g, None, -1),
], ids=["build_counts", "moment", "weight_spectra", "extreme_weights"])
def test_negative_length_is_a_value_error(motzkin_h2_norm, entry):
    with pytest.raises(ValueError, match="nonnegative"):
        entry(motzkin_h2_norm)
