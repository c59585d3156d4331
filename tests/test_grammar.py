import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from weightedgen import (GrammarError, GrammarSyntaxError, Rule, WeightedGrammar,
                         build_counts, normalize, parse_grammar)
from weightedgen.cli import motzkin_grammar
from weightedgen.grammar import _min_lengths, _parse_weight
from weightedgen.rna import rna_grammar
from helpers import (ambiguity_probe, assert_chains_shared, enumerate_words,
                     normalize_checked, random_candidate, random_grammar)


# sha256 of the lines written by `_verdict` for 3000 seeded candidates,
# recorded while `normalize` still copied the rules of unit-rule targets
VERDICT_DIGEST = "9811acee83f0ad4a1361f3d2fd029698e5ff63ab7c2f1e0e00f8597c09bc37ca"


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
    ("axiom S\nterminal a\nS -> a ->\n", "'->' cannot be used as a symbol"),
    ("axiom S T\nterminal a\nS -> a\n", "expected: axiom"),
    ("axiom S\nterminal a weight\nS -> a\n", "expected: terminal"),
    ("axiom S\nterminal a\nS a\n", "expected a rule"),
    ("axiom S\nterminal a\n", "no rules"),
    ("axiom S\nterminal a\nS -> a\na -> S\n", "declared terminal but used as a rule lhs"),
    ("axiom T\nterminal a\nS -> a\n", "axiom 'T' has no rules"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("terminals, nonterminals, rules, axiom, weights, fragment", [
    ({"a"}, set(), (), "S", {}, "no nonterminals"),
    ({"a"}, {"S"}, (Rule("S", ("a",)),), "T", {}, "axiom 'T' is not a nonterminal"),
    ({"a", "S"}, {"S"}, (Rule("S", ("a",)),), "S", {}, "both terminal and nonterminal"),
    ({"a"}, {"S"}, (Rule("S", ("a",)),), "S", {"b": 2}, "unknown terminal 'b'"),
    ({"a"}, {"S"}, (Rule("S", ("a",)),), "S", {"a": 0}, "nonpositive weight"),
    ({"a"}, {"S"}, (Rule("S", ("a",)), Rule("T", ("a",))), "S", {},
     "rule lhs 'T' is not a nonterminal"),
    ({"a"}, {"S"}, (Rule("S", ("a", "b")),), "S", {}, "unknown symbol 'b'"),
])
def test_direct_construction_refusals(terminals, nonterminals, rules, axiom, weights,
                                      fragment):
    with pytest.raises(GrammarError, match=fragment):
        WeightedGrammar(terminals, nonterminals, rules, axiom, weights)


def test_a_nonterminal_named_like_the_fresh_start_is_renamed_around():
    # `normalize` names its start symbol @S; a source nonterminal of that
    # name makes it pick the next free name, and the totals stay as they were
    rules = "S -> a S b | b S | a a\n"
    plain = parse_grammar("axiom S\nterminal a weight 3\nterminal b\n" + rules)
    clash = parse_grammar("axiom @S\nterminal a weight 3\nterminal b\n"
                          + rules.replace("S", "@S"))
    ng = normalize(clash)
    assert "@S" in ng.nonterminals and ng.axiom not in clash.nonterminals
    assert (build_counts(ng, None, 12).coefficients()
            == build_counts(normalize(plain), None, 12).coefficients())


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
    for rules in ("S -> S | a\n",
                  # through a nullable sibling
                  "S -> B S | a\nB -> b | _\n",
                  "S -> S S | a | _\n"):
        with pytest.raises(GrammarError, match="without producing terminals"):
            parse_grammar("axiom S\nterminal a\nterminal b\n" + rules)


def test_nullable_siblings_without_cycle_accepted():
    g = parse_grammar("axiom S\nterminal a\nterminal b\nS -> A A | a\nA -> _ | b\n")
    ng = normalize_checked(g, 4)
    assert build_counts(ng, None, 2).coefficients() == [1, 3, 1]


def _verdict(terminals, nts, rules):
    """(kind, line): the full message of an unproductive or unreachable
    grammar, `cycle` or `empty-word` for the other two rejections, and for an
    accepted grammar the nonterminals of its normal form, its totals up to
    length 10 and its minimum lengths."""
    try:
        g = WeightedGrammar(terminals, nts, rules, "S", {})
    except GrammarError as exc:
        msg = str(exc)
        if "without producing terminals" in msg:
            return "cycle", "cycle"
        if "empty word" in msg:
            return "empty-word", "empty-word"
        return msg.split(" ", 1)[0], msg
    ng = normalize(g)
    minlen = _min_lengths(g)
    return "accepted", repr((sorted(ng.nonterminals),
                             build_counts(ng, None, 10).coefficients(),
                             sorted((nt, minlen[nt]) for nt in g.nonterminals)))


def test_validation_verdicts_pinned():
    # 3000 seeded candidate grammars: every verdict, normal-form nonterminal,
    # total and minimum length stays as it was when the digest was recorded
    rng = random.Random(0)
    verdicts = [_verdict(*random_candidate(rng)) for _ in range(3000)]
    assert Counter(kind for kind, _ in verdicts) == {
        "accepted": 852, "unproductive": 1290, "unreachable": 483,
        "cycle": 308, "empty-word": 67}
    digest = hashlib.sha256("\n".join(line for _, line in verdicts).encode())
    assert digest.hexdigest() == VERDICT_DIGEST


def test_ambiguous_epsilon_rejected():
    text = "axiom S\nterminal a\nS -> B a\nB -> C | _\nC -> _\n"
    with pytest.raises(GrammarError, match="empty word"):
        parse_grammar(text)


def test_roundtrip(motzkin_h2):
    assert parse_grammar(motzkin_h2.to_text()) == motzkin_h2


def test_equal_grammars_hash_equal(motzkin_h2):
    copy = parse_grammar(motzkin_h2.to_text())
    assert hash(copy) == hash(motzkin_h2)
    assert {motzkin_h2: "h2"}[copy] == "h2"
    # weights take part in equality, not in the hash
    assert motzkin_h2.with_weights({".": 3}) != motzkin_h2


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
    ng = normalize_checked(g, 6)
    assert ng.alternatives(ng.axiom)[-1].kind == "eps"
    kinds = {r.kind for r in ng.rules}
    assert kinds <= {"pair", "term", "unit", "eps"}
    table = build_counts(ng, None, 5)
    assert table.coefficients() == [Fraction(2) ** n for n in range(6)]


def test_normalize_already_binary():
    g = parse_grammar("axiom S\nterminal a\nterminal b\nS -> a b | a\n")
    ng = normalize_checked(g, 4)
    assert {r.kind for r in ng.rules} <= {"pair", "term", "unit"}
    assert build_counts(ng, None, 2).total(2) == 1


def test_normalize_preserves_word_multisets(motzkin):
    ng = normalize_checked(motzkin, 7)  # raises on mismatch
    assert ng.alternatives(ng.axiom)[-1].kind == "eps"
    # two unit paths from S to B, each of which must count its derivation
    normalize_checked(parse_grammar(
        "axiom S\nterminal a\nterminal b\nS -> A | B\nA -> B | a\nB -> b\n"), 3)


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


@pytest.mark.parametrize("grammar, nonterminals, pairs", [
    (motzkin_grammar(), 8, 8),
    (rna_grammar(1), 9, 9),
    (rna_grammar(3), 10, 11),
])
def test_normalize_shares_binarization_chains(grammar, nonterminals, pairs):
    # the epsilon-eliminated variants of `( S ) S` and of the RNA pair rules
    # end in equal suffixes, which share one chain of binary rules, and the
    # start symbol reaches the axiom's rules by a unit rule, not by copies
    ng = normalize_checked(grammar, 8)
    assert len(ng.nonterminals) == nonterminals
    assert sum(r.kind == "pair" for r in ng.rules) == pairs
    assert_chains_shared(ng)


def _word_weight(word, weights):
    out = Fraction(1)
    for t in word:
        out *= weights[t]
    return out


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
        normalize_checked(g, 5)
