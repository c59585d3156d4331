"""Weighted context-free grammars: parsing, validation, normalization to binary form.

A grammar file is UTF-8 text, one statement per line::

    # comment
    axiom S
    terminal a weight 2
    terminal b            # weight defaults to 1
    S -> a S b | a b | _

Symbols are whitespace-separated tokens; ``_`` denotes the empty word and is
only valid as a complete alternative.  Weights are positive rationals, written
as integers, ``num/den`` fractions, or decimal literals (converted exactly).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from graphlib import TopologicalSorter
from itertools import count, product

from .numerics import decimal_fraction

RESERVED_TOKENS = {"->", "|", "_"}
EPSILON_MARK = "_"


class GrammarError(ValueError):
    """The grammar is structurally or semantically invalid."""


class GrammarSyntaxError(GrammarError):
    """Parse failure, with 1-based line/column of the offending token."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            where += ": "
        super().__init__(where + message)


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: tuple[str, ...]

    def __str__(self):
        return f"{self.lhs} -> {' '.join(self.rhs) if self.rhs else EPSILON_MARK}"


@dataclass(frozen=True, eq=True)
class WeightedGrammar:
    """A validated weighted CFG.

    Immutable after construction; every constructor path runs full validation
    (membership, positive weights, productivity, reachability, and rejection
    of grammars whose derivations the counting pipeline cannot represent
    faithfully: same-length rewrite cycles and ambiguous empty derivations).
    """

    terminals: frozenset[str]
    nonterminals: frozenset[str]
    rules: tuple[Rule, ...]
    axiom: str
    weights: dict = field(compare=True, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "rules", tuple(self.rules))
        weights = {t: Fraction(w) for t, w in (self.weights or {}).items()}
        for t in self.terminals:
            weights.setdefault(t, Fraction(1))
        object.__setattr__(self, "weights", weights)
        _validate(self)

    # -- accessors ---------------------------------------------------------

    def with_weights(self, overrides) -> "WeightedGrammar":
        """New grammar with some terminal weights replaced."""
        merged = dict(self.weights)
        for t, w in overrides.items():
            if t not in self.terminals:
                raise GrammarError(f"unknown terminal {t!r} in weight override")
            merged[t] = Fraction(w)
        return WeightedGrammar(self.terminals, self.nonterminals, self.rules,
                               self.axiom, merged)

    def to_text(self) -> str:
        """Render in the grammar file format (reparses to an equal grammar)."""
        lines = [f"axiom {self.axiom}"]
        for t in sorted(self.terminals):
            w = self.weights[t]
            if w == 1:
                lines.append(f"terminal {t}")
            else:
                lines.append(f"terminal {t} weight {w}")
        seen_order = []
        for r in self.rules:
            if r.lhs not in seen_order:
                seen_order.append(r.lhs)
        for lhs in seen_order:
            alts = [" ".join(r.rhs) if r.rhs else EPSILON_MARK
                    for r in self.rules if r.lhs == lhs]
            lines.append(f"{lhs} -> {' | '.join(alts)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


def _fixed_point(initial, step):
    current = set(initial)
    while True:
        new = step(current)
        if new <= current:
            return current
        current |= new


def _least_solution(g, letter, one, zero, add, mul, rounds=None) -> dict | None:
    """The least solution of the grammar's equations in a semiring, or None
    when `rounds` rounds do not settle it.

    {symbol: value}: letter(t) for each terminal t, and for each nonterminal
    A the `add`-sum over A's rules of the `mul`-product of their symbols'
    values, `one` for an empty right-hand side.  This is the source-grammar
    counterpart of `inside`.  Kleene iteration from `zero`: each round
    recomputes every nonterminal from the previous round's values, and the
    first round that changes nothing ends it; every round after it would
    change nothing either.  That happens when the values that can occur are
    finitely many (counts clamped at 2 take at most 2|nonterminals| + 1
    rounds), and for (min, +) lengths after at most |nonterminals| + 1
    rounds: round k covers every derivation tree of height k, and some
    shortest word of each nonterminal has a tree repeating no nonterminal
    along a path.
    """
    start = {t: letter(t) for t in g.terminals} | dict.fromkeys(g.nonterminals, zero)
    val = start
    for _ in count() if rounds is None else range(rounds):
        new = dict(start)
        for r in g.rules:
            new[r.lhs] = add(new[r.lhs], reduce(mul, (val[s] for s in r.rhs), one))
        if new == val:
            return val
        val = new
    return None


def has_positive_pump(g, letter) -> bool:
    """True when some derivation A =>* uAv of the source grammar g has a
    positive sum of letter(t) (a float) over the letters t of uv.  Without
    one, some best (max, +) tree of each nonterminal repeats none along a
    path, so |nonterminals| + 2 rounds settle the values; with one, they grow
    without bound.  Every pump has letters (`_validate`), so letter(t) = 1
    tells an infinite language from a finite one."""
    return _least_solution(g, letter, 0.0, -math.inf, max, operator.add,
                           len(g.nonterminals) + 2) is None


def _min_lengths(g) -> dict:
    """Shortest word length per symbol; inf for an unproductive nonterminal."""
    return _least_solution(g, lambda t: 1, 0, math.inf, min, operator.add)


def _epsilon_counts(g) -> dict:
    """Derivations of the empty word per symbol, clamped at 2: 1 or more is
    nullable, 2 is ambiguous on the empty word.  Clamping commutes with + and
    *, so this is the true count clamped, same-length cycles or not."""
    return _least_solution(g, lambda t: 0, 1, 0, lambda x, y: min(x + y, 2),
                           lambda x, y: min(x * y, 2))


def _validate(g):
    if not g.nonterminals:
        raise GrammarError("grammar has no nonterminals")
    if g.axiom not in g.nonterminals:
        raise GrammarError(f"axiom {g.axiom!r} is not a nonterminal")
    overlap = g.terminals & g.nonterminals
    if overlap:
        raise GrammarError(f"symbols are both terminal and nonterminal: {sorted(overlap)}")
    for t, w in g.weights.items():
        if t not in g.terminals:
            raise GrammarError(f"weight given for unknown terminal {t!r}")
        if w <= 0:
            raise GrammarError(f"nonpositive weight {w} for terminal {t!r}")
    for r in g.rules:
        if r.lhs not in g.nonterminals:
            raise GrammarError(f"rule lhs {r.lhs!r} is not a nonterminal")
        for s in r.rhs:
            if s not in g.terminals and s not in g.nonterminals:
                raise GrammarError(f"unknown symbol {s!r} in rule {r}")
    minlen = _min_lengths(g)
    missing = {nt for nt in g.nonterminals if minlen[nt] == math.inf}
    if missing:
        raise GrammarError(f"unproductive nonterminal(s): {sorted(missing)}")
    unreachable = g.nonterminals - _fixed_point({g.axiom}, lambda reach: {
        s for r in g.rules if r.lhs in reach for s in r.rhs if s in g.nonterminals})
    if unreachable:
        raise GrammarError(f"unreachable nonterminal(s): {sorted(unreachable)}")
    eps = _epsilon_counts(g)
    # A -> x B y with x and y nullable rewrites A to B at the same length
    steps = {(r.lhs, s) for r in g.rules for i, s in enumerate(r.rhs)
             if s in g.nonterminals and all(eps[x] for x in r.rhs[:i] + r.rhs[i + 1:])}
    closure = _fixed_point(steps, lambda pairs: {
        (a, c) for a, b in pairs for b2, c in steps if b2 == b})
    cyclic = sorted(a for a, b in closure if a == b)
    if cyclic:
        raise GrammarError(
            f"nonterminal {cyclic[0]!r} can rewrite to itself without producing "
            "terminals; such grammars are infinitely ambiguous")
    ambiguous = sorted(nt for nt in g.nonterminals if eps[nt] >= 2)
    if ambiguous:
        raise GrammarError(
            f"nonterminal {ambiguous[0]!r} derives the empty word in more than one "
            "way; the grammar is ambiguous")


# ---------------------------------------------------------------------------
# parsing


def _tokenize(line):
    content = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", content)]


def _parse_weight(tok, line=None, col=None) -> Fraction:
    """A positive weight literal: an integer, a fraction `3/2` or a decimal
    `0.25` / `1e-3`, with numerator and denominator of at most
    numerics.MAX_WEIGHT_DIGITS digits (`decimal_fraction`).  Grammar files and
    the CLI's --weight share it."""
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = decimal_fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise GrammarSyntaxError(f"malformed weight {tok!r}", line, col) from None
    if value <= 0:
        raise GrammarSyntaxError(f"weight must be positive, got {tok!r}", line, col)
    return value


def _check_symbol(tok, line, col, what="symbol"):
    if tok in RESERVED_TOKENS:
        raise GrammarSyntaxError(f"{tok!r} cannot be used as a {what}", line, col)
    return tok


def parse_grammar(text: str) -> WeightedGrammar:
    """Parse the grammar file format; raises GrammarSyntaxError with position."""
    axiom = None
    weights = {}
    terminals = set()
    rules = []
    rhs_positions = []  # (symbol, line, col) for post-hoc membership checks

    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _tokenize(raw)
        if not toks:
            continue
        head, hcol = toks[0]
        if head == "axiom":
            if len(toks) != 2:
                raise GrammarSyntaxError("expected: axiom <nonterminal>", lineno, hcol)
            if axiom is not None:
                raise GrammarSyntaxError("duplicate axiom declaration", lineno, hcol)
            axiom = _check_symbol(toks[1][0], lineno, toks[1][1])
        elif head == "terminal":
            if len(toks) not in (2, 4) or (len(toks) == 4 and toks[2][0] != "weight"):
                raise GrammarSyntaxError(
                    "expected: terminal <symbol> [weight <value>]", lineno, hcol)
            sym, scol = toks[1]
            _check_symbol(sym, lineno, scol, "terminal")
            if sym in terminals:
                raise GrammarSyntaxError(f"duplicate terminal {sym!r}", lineno, scol)
            terminals.add(sym)
            if len(toks) == 4:
                weights[sym] = _parse_weight(toks[3][0], lineno, toks[3][1])
        else:
            if len(toks) < 2 or toks[1][0] != "->":
                raise GrammarSyntaxError(
                    f"expected a rule '<NT> -> ...', an 'axiom' or a 'terminal' "
                    f"line, got {head!r}", lineno, hcol)
            lhs = _check_symbol(head, lineno, hcol, "nonterminal")
            alts = [[]]
            for tok, col in toks[2:]:
                if tok == "|":
                    alts.append([])
                else:
                    alts[-1].append((tok, col))
            for alt in alts:
                if not alt:
                    raise GrammarSyntaxError("empty alternative", lineno, hcol)
                syms = [t for t, _ in alt]
                if EPSILON_MARK in syms:
                    if len(syms) != 1:
                        bad = next(c for t, c in alt if t == EPSILON_MARK)
                        raise GrammarSyntaxError(
                            f"{EPSILON_MARK!r} must be the only symbol of its "
                            "alternative", lineno, bad)
                    rules.append(Rule(lhs, ()))
                else:
                    for t, c in alt:
                        _check_symbol(t, lineno, c)
                        rhs_positions.append((t, lineno, c))
                    rules.append(Rule(lhs, tuple(syms)))

    if axiom is None:
        raise GrammarSyntaxError("missing axiom declaration")
    if not rules:
        raise GrammarSyntaxError("grammar has no rules")
    nonterminals = {r.lhs for r in rules}
    both = terminals & nonterminals
    if both:
        sym = sorted(both)[0]
        raise GrammarSyntaxError(f"symbol {sym!r} is declared terminal but used as a rule lhs")
    for sym, line, col in rhs_positions:
        if sym not in terminals and sym not in nonterminals:
            raise GrammarSyntaxError(f"unknown symbol {sym}", line, col)
    if axiom not in nonterminals:
        raise GrammarSyntaxError(f"axiom {axiom!r} has no rules")
    return WeightedGrammar(frozenset(terminals), frozenset(nonterminals),
                           tuple(rules), axiom, weights)


# ---------------------------------------------------------------------------
# normalization to binary form


@dataclass(frozen=True)
class NormalizedRule:
    lhs: str
    kind: str                 # "pair" | "term" | "unit" | "eps"
    rhs: tuple[str, ...]      # (B, C) | (t,) | (B,) | ()


@dataclass
class NormalizedGrammar:
    """Binary-form grammar equivalent to its source, derivation for derivation.

    Rules are A->BC ("pair"), A->t ("term"), A->B ("unit"), and at most one
    S0->eps rule at a fresh start symbol (present iff the source axiom derives
    the empty word).  `nonterminals` lists each unit rule's target before its
    left-hand side, so a pass over them in order at one length can read the
    target's value at that length.  Binarization-chain nonterminals have
    exactly one rule each, and no two of them share a right-hand side.  Treat
    instances as immutable.
    """

    original: WeightedGrammar
    axiom: str
    nonterminals: tuple[str, ...]
    rules: tuple[NormalizedRule, ...]

    def __post_init__(self):
        by_lhs = {}
        for r in self.rules:
            by_lhs.setdefault(r.lhs, []).append(r)
        self._by_lhs = {k: tuple(v) for k, v in by_lhs.items()}

    @property
    def terminals(self):
        return self.original.terminals

    @property
    def weights(self):
        return self.original.weights

    def alternatives(self, nt: str) -> tuple[NormalizedRule, ...]:
        return self._by_lhs.get(nt, ())


def inside(ng: NormalizedGrammar, horizon: int, letter, one, zero, add, dot) -> dict:
    """The recursive method over a semiring: {nonterminal: [value at m for m in 0..horizon]}.

    The value of A at length m is the semiring sum, over the derivations of A
    into length-m words, of the product of their letters: letter(t) for each
    terminal t and `one` for the empty word.  `add(x, y)` is the semiring sum
    and `dot(xs, ys)` the sum of the pairwise products of two equally long
    sequences; for m >= 2 each cell is one `dot` over the split points of all
    its pair rules, added to `zero`, and a unit rule A -> B adds B's cell at
    the same length.  `zero` must be the neutral element of `add`, absorb
    products and stand for "no word": a split whose child cell is `zero`
    adds nothing, so a pair rule A -> B C at length m only dots the splits j
    with lo(B) <= j <= hi(B) and lo(C) <= m - j <= hi(C), where lo and hi are
    the first and last lengths below m at which a cell is not `zero`, and a
    rule with a child that has no such cell yet dots nothing.  Cost:
    |nonterminals| * (horizon + 1) cells, |unit rules| * (horizon + 1) sums
    and, per pair rule and cell, one product per split in that range: O(1)
    when a child has bounded length (the terminal wrappers `@T` have only
    length 1), at most m - 1 otherwise.  `normalize` keeps the rules few by
    sharing its binarization chains and keeping unit rules.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    vals = {nt: [] for nt in ng.nonterminals}
    lo, hi = {}, {}  # first and last length so far whose cell is not zero
    for m in range(horizon + 1):
        for nt in ng.nonterminals:
            cell = zero
            xs, ys = [], []
            for r in ng.alternatives(nt):
                if r.kind == "term":
                    if m == 1:
                        cell = add(cell, letter(r.rhs[0]))
                elif r.kind == "eps":
                    if m == 0:
                        cell = add(cell, one)
                elif r.kind == "unit":
                    cell = add(cell, vals[r.rhs[0]][m])
                elif m >= 2 and r.rhs[0] in hi and r.rhs[1] in hi:
                    b, c = r.rhs
                    first = max(1, lo[b], m - hi[c])
                    last = min(m - 1, hi[b], m - lo[c])
                    xs += vals[b][first:last + 1]
                    ys += vals[c][m - first:m - last - 1:-1]
            if xs:
                cell = add(cell, dot(xs, ys))
            vals[nt].append(cell)
            if cell != zero:
                lo.setdefault(nt, m)
                hi[nt] = m
    return vals


def _fresh(names: set, base: str) -> str:
    cand = base
    while cand in names:
        cand += "'"
    names.add(cand)
    return cand


def normalize(g: WeightedGrammar) -> NormalizedGrammar:
    """Convert to binary form, preserving the (word, weight) multiset per length.

    Epsilon rules are eliminated with their multiplicities, so derivations
    stay one to one.  Unit rules A -> B are kept, the fresh start symbol's
    S0 -> axiom among them, and the nonterminals are listed so that each unit
    rule's target comes before its left-hand side: `_validate` rejects
    same-length rewrite cycles, so such an order exists.  Terminals inside
    longer right-hand sides get a wrapper nonterminal.  A right-hand side
    X1..Xk with k >= 3 becomes A -> X1 B2, B2 -> X2 B3, ..., Bk-1 -> Xk-1 Xk,
    where the first rule keeps A and each chain nonterminal Bi stands for
    the suffix Xi..Xk.  Chains are built from the end and keyed by (symbol,
    tail), so every suffix shared by several right-hand sides (the epsilon
    variants of Motzkin's `( S ) S` or of the RNA pair rules) gets one chain
    nonterminal, and every table has fewer cells to fill: Motzkin normalizes
    to 8 nonterminals and 8 pair rules, RNA at theta 1 to 9 and 9, at theta 3
    to 10 and 11.  Each nonterminal's rules keep the order of the source
    rules they come from.
    """
    eps = _epsilon_counts(g)
    names = set(g.terminals) | set(g.nonterminals)

    # nonterminals that derive at least one non-empty word; occurrences of the
    # others (the epsilon-only ones) can never be kept
    positive = _fixed_point(set(), lambda pos: {
        r.lhs for r in g.rules
        if any(s in g.terminals or s in pos for s in r.rhs)})

    # epsilon elimination: every way of dropping nullable occurrences becomes
    # its own variant, keeping a one-to-one mapping of derivations; an axiom
    # that derives only the empty word leaves the start symbol only its eps rule
    start = _fresh(names, "@S")
    work = [(start, (g.axiom,))] if g.axiom in positive else []  # (lhs, rhs tuple)
    for rule in g.rules:
        forced = {i for i, s in enumerate(rule.rhs) if eps[s] and s not in positive}
        optional = [i for i, s in enumerate(rule.rhs) if eps[s] and s in positive]
        for mask in product((False, True), repeat=len(optional)):
            dropped = forced | {i for i, d in zip(optional, mask) if d}
            rhs = tuple(s for i, s in enumerate(rule.rhs) if i not in dropped)
            if rhs:
                work.append((rule.lhs, rhs))

    # terminal isolation and binarization
    final = []
    wrapper = {}

    def wrap_terminal(t):
        if t not in wrapper:
            wrapper[t] = _fresh(names, f"@T{t}")
            final.append(NormalizedRule(wrapper[t], "term", (t,)))
        return wrapper[t]

    # one chain nonterminal per distinct (symbol, tail) pair
    chains = {}
    for lhs, rhs in work:
        if len(rhs) == 1:
            final.append(NormalizedRule(lhs, "term" if rhs[0] in g.terminals else "unit", rhs))
            continue
        *head, tail = [wrap_terminal(s) if s in g.terminals else s for s in rhs]
        for sym in reversed(head[1:]):
            key = (sym, tail)
            if key not in chains:
                chains[key] = _fresh(names, f"@B{len(chains)}")
                final.append(NormalizedRule(chains[key], "pair", key))
            tail = chains[key]
        final.append(NormalizedRule(lhs, "pair", (head[0], tail)))

    if eps[g.axiom]:
        final.append(NormalizedRule(start, "eps", ()))

    # each nonterminal after the targets of its unit rules
    targets = {}
    for r in final:
        targets.setdefault(r.lhs, []).extend(r.rhs if r.kind == "unit" else ())
    nts = tuple(TopologicalSorter(targets).static_order())
    return NormalizedGrammar(g, start, nts, tuple(final))

