import random
from collections import Counter
from fractions import Fraction

import pytest

from weightedgen import (GrammarError, GrammarSyntaxError, ambiguity_probe,
                         build_counts, enumerate_words, normalize,
                         parse_grammar)
from weightedgen.grammar import _parse_weight
from helpers import random_grammar


def test_parse_minimal():
    g = parse_grammar("axiom S\nterminal a weight 2\nS -> a S | _\n")
    assert g.terminals == {"a"}
    assert g.nonterminals == {"S"}
    assert len(g.rules) == 2
    assert g.weights["a"] == 2
    assert g.axiom == "S"


def test_parse_motzkin_shape():
    g = parse_grammar(
        "axiom S\nterminal (\nterminal )\nterminal .\nS -> ( S ) S | . S | _\n")
    assert len(g.rules) == 3
    assert len(g.terminals) == 3
    assert g.weights["("] == 1


def test_parse_unknown_symbol_position():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("axiom S\nterminal a\nS -> a T\n")
    assert "unknown symbol T" in str(err.value)
    assert err.value.line == 3
    assert err.value.column == 8


@pytest.mark.parametrize("text,fragment", [
    ("axiom S\nterminal a weight 0\nS -> a\n", "positive"),
    ("axiom S\nterminal a weight -1/2\nS -> a\n", "positive"),
    ("axiom S\nterminal a weight x\nS -> a\n", "malformed"),
    ("axiom S\nterminal a weight inf\nS -> a\n", "malformed"),
    ("axiom S\naxiom S\nterminal a\nS -> a\n", "duplicate axiom"),
    ("terminal a\nS -> a\n", "missing axiom"),
    ("axiom S\nterminal a\nS -> a _\n", "only symbol"),
    ("axiom S\nterminal a\nS -> a |\n", "empty alternative"),
    ("axiom S\nterminal a\nterminal a\nS -> a\n", "duplicate terminal"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert fragment in str(err.value)


def test_decimal_weights_are_exact():
    g = parse_grammar("axiom S\nterminal a weight 0.25\nS -> a\n")
    assert g.weights["a"] == Fraction(1, 4)


def test_parse_weight_digit_limit():
    # 4300 digits in numerator or denominator pass; one more is refused
    # from the literal's digit count and exponent
    assert _parse_weight("1e4299") == 10 ** 4299
    assert _parse_weight("1e-4299") == Fraction(1, 10 ** 4299)
    for tok in ("1e4300", "1e-4300", "1" * 4301 + "e-1"):
        with pytest.raises(GrammarSyntaxError, match="malformed weight"):
            _parse_weight(tok)


def test_unproductive_rejected():
    with pytest.raises(GrammarError, match="unproductive"):
        parse_grammar("axiom S\nterminal a\nS -> a T\nT -> a T\n")


def test_unreachable_rejected():
    with pytest.raises(GrammarError, match="unreachable"):
        parse_grammar("axiom S\nterminal a\nS -> a\nT -> a\n")


def test_unit_cycle_rejected():
    with pytest.raises(GrammarError, match="without producing terminals"):
        parse_grammar("axiom S\nterminal a\nS -> S | a\n")


def test_ambiguous_epsilon_rejected():
    text = "axiom S\nterminal a\nS -> B a\nB -> C | _\nC -> _\n"
    with pytest.raises(GrammarError, match="empty word"):
        parse_grammar(text)


def test_roundtrip(motzkin_h2):
    assert parse_grammar(motzkin_h2.to_text()) == motzkin_h2


def test_file_format_matches_builtin(motzkin):
    from conftest import MOTZKIN_TEXT
    assert parse_grammar(MOTZKIN_TEXT) == motzkin


def test_roundtrip_comments_and_defaults():
    text = "axiom S        # the axiom\nterminal a weight 3/2\nterminal b\nS -> a S b | _\n"
    g = parse_grammar(text)
    assert parse_grammar(g.to_text()) == g
    assert g.weights["b"] == 1


def test_enumerate_counts_derivations():
    g = parse_grammar("axiom S\nterminal a\nS -> S S | a\n")
    # length 3 has two derivations of the single word aaa
    words = enumerate_words(g, 3)
    assert len(words) == 2
    assert set(words) == {("a", "a", "a")}


def test_normalize_motzkin_counts(motzkin_norm):
    table = build_counts(motzkin_norm, None, 6)
    assert [int(c) for c in table.coefficients()] == [1, 1, 2, 4, 9, 21, 51]


def test_normalize_epsilon_grammar():
    g = parse_grammar("axiom S\nterminal a weight 2\nS -> a S | _\n")
    ng = normalize(g, check_depth=6)
    assert ng.axiom_nullable
    kinds = {r.kind for r in ng.rules}
    assert kinds <= {"pair", "term", "eps"}
    table = build_counts(ng, None, 5)
    assert table.coefficients() == [Fraction(2) ** n for n in range(6)]


def test_normalize_already_binary():
    g = parse_grammar("axiom S\nterminal a\nterminal b\nS -> a b | a\n")
    ng = normalize(g, check_depth=4)
    assert {r.kind for r in ng.rules} <= {"pair", "term"}
    assert build_counts(ng, None, 2).total(2) == 1


def test_normalize_preserves_word_multisets(motzkin):
    ng = normalize(motzkin, check_depth=7)  # raises on mismatch
    assert ng.axiom_nullable


def test_normalize_preserves_weighted_totals_random_weights(motzkin):
    rng = random.Random(20240817)
    for _ in range(5):
        w = {t: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for t in motzkin.terminals}
        g = motzkin.with_weights(w)
        ng = normalize(g)
        table = build_counts(ng, None, 7)
        for n in range(8):
            direct = sum(
                (Counter({word: 1})[word] * _word_weight(word, g.weights)
                 for word in enumerate_words(g, n)), Fraction(0))
            assert table.total(n) == direct


def _word_weight(word, weights):
    out = Fraction(1)
    for t in word:
        out *= weights[t]
    return out


def test_provenance_map(motzkin_norm):
    prov = motzkin_norm.provenance()
    origins = {o for o in prov.values() if o is not None}
    assert origins <= set(range(len(motzkin_norm.original.rules)))
    assert origins  # at least some rules trace back to the source


def test_ambiguity_probe_motzkin(motzkin):
    report = ambiguity_probe(motzkin, 8)
    assert not report.ambiguous
    assert "no ambiguity detected" in str(report)


def test_ambiguity_probe_detects():
    g = parse_grammar("axiom S\nterminal a\nS -> S S | a\n")
    report = ambiguity_probe(g, 3)
    assert report.ambiguous
    assert report.first_mismatch == 3
    assert report.derivation_count == 2
    assert report.distinct_count == 1


def test_ambiguity_probe_trivial_n0(motzkin):
    report = ambiguity_probe(motzkin, 0)
    assert not report.ambiguous


def test_random_grammars_normalize_cleanly():
    rng = random.Random(77)
    for _ in range(6):
        g = random_grammar(rng, probe_depth=6)
        normalize(g, check_depth=5)
