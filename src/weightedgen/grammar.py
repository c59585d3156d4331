"""Weighted context-free grammars: parsing, validation, normalization, enumeration.

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

import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import product

RESERVED_TOKENS = {"->", "|", "_"}
EPSILON_MARK = "_"
# Python's default int-digit limit, which already refuses a longer `num/den`;
# decimals are held to it before any integer is built (`1e999999999` would hang)
MAX_WEIGHT_DIGITS = 4300


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


class EnumerationCap(RuntimeError):
    """Exhaustive enumeration exceeded its configured cap."""


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
    weights: dict = field(compare=True)

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

    def alternatives(self, nt: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.lhs == nt)

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


def _productive_set(g):
    def step(prod):
        out = set()
        for r in g.rules:
            if all(s in g.terminals or s in prod for s in r.rhs):
                out.add(r.lhs)
        return out
    return _fixed_point(set(), step)


def _reachable_set(g):
    reach = {g.axiom}
    frontier = [g.axiom]
    while frontier:
        nt = frontier.pop()
        for r in g.rules:
            if r.lhs != nt:
                continue
            for s in r.rhs:
                if s in g.nonterminals and s not in reach:
                    reach.add(s)
                    frontier.append(s)
    return reach


def nullable_set(g) -> set:
    def step(nullable):
        out = set()
        for r in g.rules:
            if all(s in nullable for s in r.rhs):
                out.add(r.lhs)
        return out
    return _fixed_point(set(), step)


def _same_length_edges(g, nullable):
    """Edges A->B such that A can rewrite to B with all siblings nullable."""
    edges = set()
    for r in g.rules:
        for i, s in enumerate(r.rhs):
            if s not in g.nonterminals:
                continue
            rest = r.rhs[:i] + r.rhs[i + 1:]
            if all(x in nullable for x in rest):
                edges.add((r.lhs, s))
    return edges


def _find_cycle(nodes, edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for start in nodes:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(adj.get(start, ())))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, WHITE) == GREY:
                    return nxt
                if color.get(nxt, WHITE) == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def _epsilon_derivation_counts(g, nullable):
    """Number of distinct derivations of the empty word per nullable nonterminal.

    Counts are clamped at 2; anything >= 2 means the grammar is ambiguous on
    empty derivations and cannot be counted faithfully.
    """
    # The nullable-restricted dependency graph is acyclic here (cycle check ran
    # first), so a simple memoized recursion terminates.
    memo = {}

    def count(nt):
        if nt in memo:
            return memo[nt]
        memo[nt] = 0  # placeholder; acyclicity makes re-entry impossible
        total = 0
        for r in g.rules:
            if r.lhs != nt:
                continue
            if not all(s in nullable for s in r.rhs):
                continue
            prod = 1
            for s in r.rhs:
                prod *= count(s)
                if prod >= 2:
                    break
            total += prod
            if total >= 2:
                break
        memo[nt] = min(total, 2)
        return memo[nt]

    return {nt: count(nt) for nt in nullable}


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
    prod = _productive_set(g)
    missing = g.nonterminals - prod
    if missing:
        raise GrammarError(f"unproductive nonterminal(s): {sorted(missing)}")
    unreachable = g.nonterminals - _reachable_set(g)
    if unreachable:
        raise GrammarError(f"unreachable nonterminal(s): {sorted(unreachable)}")
    nullable = nullable_set(g)
    cyc = _find_cycle(g.nonterminals, _same_length_edges(g, nullable))
    if cyc is not None:
        raise GrammarError(
            f"nonterminal {cyc!r} can rewrite to itself without producing "
            "terminals; such grammars are infinitely ambiguous")
    for nt, c in _epsilon_derivation_counts(g, nullable).items():
        if c >= 2:
            raise GrammarError(
                f"nonterminal {nt!r} derives the empty word in more than one "
                "way; the grammar is ambiguous")


# ---------------------------------------------------------------------------
# parsing


def _tokenize(line):
    content = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", content)]


def _parse_weight(tok, line=None, col=None) -> Fraction:
    """A positive weight literal: an integer, a fraction `3/2` or a decimal
    `0.25` / `1e-3`, with numerator and denominator of at most
    MAX_WEIGHT_DIGITS digits.  Grammar files and the CLI's --weight share it."""
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            dec = Decimal(tok)
            _, digits, exp = dec.as_tuple()
            if not isinstance(exp, int) or max(len(digits) + max(exp, 0),
                                               1 - min(exp, 0)) > MAX_WEIGHT_DIGITS:
                raise ValueError
            value = Fraction(dec)
    except (ValueError, ZeroDivisionError, InvalidOperation, OverflowError):
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
# exhaustive enumeration (test oracle and ambiguity probe)


def _min_lengths(g):
    INF = float("inf")
    minlen = {t: 1 for t in g.terminals}
    for nt in g.nonterminals:
        minlen[nt] = INF
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            cand = sum(minlen[s] for s in r.rhs)
            if cand < minlen[r.lhs]:
                minlen[r.lhs] = cand
                changed = True
    return minlen


def enumerate_words(g, n: int, *, word_cap: int = 200_000,
                    expansion_cap: int = 5_000_000) -> list:
    """All length-n words of g, one entry per derivation (duplicates = ambiguity).

    Leftmost expansion with minimal-length pruning; raises EnumerationCap when
    either the derivation count or the expansion budget is exceeded.
    """
    minlen = _min_lengths(g)
    out = []
    expansions = 0
    stack = [(g.axiom,)]
    while stack:
        form = stack.pop()
        idx = next((i for i, s in enumerate(form) if s in g.nonterminals), None)
        if idx is None:
            if len(form) == n:
                out.append(form)
                if len(out) > word_cap:
                    raise EnumerationCap(f"more than {word_cap} derivations at length {n}")
            continue
        for r in g.rules:
            if r.lhs != form[idx]:
                continue
            nf = form[:idx] + r.rhs + form[idx + 1:]
            if sum(minlen[s] for s in nf) <= n:
                expansions += 1
                if expansions > expansion_cap:
                    raise EnumerationCap(f"expansion budget exceeded at length {n}")
                stack.append(nf)
    return out


# ---------------------------------------------------------------------------
# normalization to binary form


@dataclass(frozen=True)
class NormalizedRule:
    lhs: str
    kind: str                 # "pair" | "term" | "eps"
    rhs: tuple[str, ...]      # (B, C) | (t,) | ()
    origin: int | None        # index into the source grammar's rules


@dataclass
class NormalizedGrammar:
    """Binary-form grammar equivalent to its source, derivation for derivation.

    Rules are A->BC ("pair"), A->t ("term"), and at most one S0->eps rule at a
    fresh start symbol (present iff the source axiom derives the empty word).
    Treat instances as immutable.
    """

    original: WeightedGrammar
    axiom: str
    nonterminals: tuple[str, ...]
    rules: tuple[NormalizedRule, ...]
    axiom_nullable: bool

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

    def provenance(self) -> dict[int, int | None]:
        """Normalized rule index -> source rule index (None for plumbing rules)."""
        return {i: r.origin for i, r in enumerate(self.rules)}


def inside(ng: NormalizedGrammar, horizon: int, letter, one, zero, add, dot) -> dict:
    """The recursive method over a semiring: {nonterminal: [value at m for m in 0..horizon]}.

    The value of A at length m is the semiring sum, over the derivations of A
    into length-m words, of the product of their letters: letter(t) for each
    terminal t and `one` for the empty word.  `add(x, y)` is the semiring sum
    and `dot(xs, ys)` the sum of the pairwise products of two equally long
    sequences; for m >= 2 each cell is one `dot` over the split points of all
    its pair rules, added to `zero`.  `zero` must be the neutral element of
    `add` and absorb products.  Cost: O(|rules| * horizon^2) products.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    vals = {nt: [] for nt in ng.nonterminals}
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
                elif m >= 2:
                    xs += vals[r.rhs[0]][1:m]
                    ys += vals[r.rhs[1]][m - 1:0:-1]
            if xs:
                cell = add(cell, dot(xs, ys))
            vals[nt].append(cell)
    return vals


def _fresh(names: set, base: str) -> str:
    cand = base
    while cand in names:
        cand += "'"
    names.add(cand)
    return cand


def normalize(g: WeightedGrammar, *, check_depth: int | None = None) -> NormalizedGrammar:
    """Convert to binary form, preserving the (word, weight) multiset per length.

    With check_depth set, the word multisets of source and normalized grammars
    are compared by exhaustive enumeration for every n <= check_depth.
    """
    nullable = nullable_set(g)
    names = set(g.terminals) | set(g.nonterminals)

    # nonterminals that derive at least one non-empty word; occurrences of the
    # others (the epsilon-only ones) can never be kept
    positive = _fixed_point(set(), lambda pos: {
        r.lhs for r in g.rules
        if any(s in g.terminals or s in pos for s in r.rhs)})

    # epsilon elimination: every way of dropping nullable occurrences becomes
    # its own variant, keeping a one-to-one mapping of derivations
    work = []  # (lhs, rhs tuple, origin)
    for idx, rule in enumerate(g.rules):
        forced = {i for i, s in enumerate(rule.rhs)
                  if s in nullable and s not in positive}
        optional = [i for i, s in enumerate(rule.rhs)
                    if s in nullable and s in positive]
        for mask in product((False, True), repeat=len(optional)):
            dropped = forced | {i for i, d in zip(optional, mask) if d}
            rhs = tuple(s for i, s in enumerate(rule.rhs) if i not in dropped)
            if rhs:
                work.append((rule.lhs, rhs, idx))

    start = _fresh(names, "@S")
    work.insert(0, (start, (g.axiom,), None))

    # unit elimination over the (acyclic) unit graph, multiplicities included
    unit_edges = {}
    nonunit = []
    for lhs, rhs, origin in work:
        if len(rhs) == 1 and rhs[0] in g.nonterminals:
            unit_edges.setdefault(lhs, []).append(rhs[0])
        else:
            nonunit.append((lhs, rhs, origin))

    path_memo = {}

    def unit_paths(a):
        """Counter of nonterminals reachable from a via unit chains (a included)."""
        if a in path_memo:
            return path_memo[a]
        acc = Counter({a: 1})
        for b in unit_edges.get(a, ()):
            acc.update(unit_paths(b))
        path_memo[a] = acc
        return acc

    lhss = {lhs for lhs, _, _ in work}
    expanded = []
    nonunit_by_lhs = {}
    for lhs, rhs, origin in nonunit:
        nonunit_by_lhs.setdefault(lhs, []).append((rhs, origin))
    for a in sorted(lhss):
        for c, mult in sorted(unit_paths(a).items()):
            for rhs, origin in nonunit_by_lhs.get(c, ()):
                expanded.extend([(a, rhs, origin)] * mult)

    # terminal isolation and binarization
    final = []
    wrapper = {}

    def wrap_terminal(t):
        if t not in wrapper:
            wrapper[t] = _fresh(names, f"@T{t}")
            final.append(NormalizedRule(wrapper[t], "term", (t,), None))
        return wrapper[t]

    chain_counter = 0
    for lhs, rhs, origin in expanded:
        if len(rhs) == 1:
            final.append(NormalizedRule(lhs, "term", (rhs[0],), origin))
            continue
        syms = [wrap_terminal(s) if s in g.terminals else s for s in rhs]
        cur = lhs
        for i in range(len(syms) - 2):
            nxt = _fresh(names, f"@B{chain_counter}")
            chain_counter += 1
            final.append(NormalizedRule(cur, "pair", (syms[i], nxt),
                                        origin if i == 0 else None))
            cur = nxt
        final.append(NormalizedRule(cur, "pair", (syms[-2], syms[-1]),
                                    origin if len(syms) == 2 else None))

    axiom_nullable = g.axiom in nullable
    if axiom_nullable:
        final.append(NormalizedRule(start, "eps", (), None))

    nts = []
    for r in final:
        if r.lhs not in nts:
            nts.append(r.lhs)
    ng = NormalizedGrammar(g, start, tuple(nts), tuple(final), axiom_nullable)

    if check_depth is not None:
        derived = inside(ng, check_depth, lambda t: [(t,)], [()], [],
                         operator.add, _concatenations)[ng.axiom]
        for n in range(check_depth + 1):
            if Counter(enumerate_words(g, n)) != Counter(derived[n]):
                raise GrammarError(
                    f"normalization changed the word multiset at length {n}")
    return ng


def _concatenations(xs, ys):
    """Derivation-word semiring product: every concatenation, pair by pair."""
    return [wb + wc for wbs, wcs in zip(xs, ys) for wb in wbs for wc in wcs]


# ---------------------------------------------------------------------------
# ambiguity probe


@dataclass(frozen=True)
class AmbiguityReport:
    ambiguous: bool
    n_max: int
    first_mismatch: int | None = None
    derivation_count: int | None = None
    distinct_count: int | None = None

    def __str__(self):
        if not self.ambiguous:
            return f"no ambiguity detected up to n={self.n_max}"
        return (f"ambiguity detected at n={self.first_mismatch}: "
                f"{self.derivation_count} derivations for "
                f"{self.distinct_count} distinct words")


def ambiguity_probe(g: WeightedGrammar, n_max: int, *,
                    word_cap: int = 200_000) -> AmbiguityReport:
    """Compare derivation counts against distinct-word counts for n <= n_max.

    A mismatch is evidence of ambiguity; agreement proves nothing (this is a
    probe, not a decision procedure).
    """
    from .counting import build_counts  # local import to avoid a module cycle

    ng = normalize(g)
    ones = {t: Fraction(1) for t in g.terminals}
    table = build_counts(ng, ones, n_max)
    for n in range(n_max + 1):
        derivations = table.total(n)
        distinct = len(set(enumerate_words(g, n, word_cap=word_cap)))
        if derivations != distinct:
            return AmbiguityReport(True, n_max, n, int(derivations), distinct)
    return AmbiguityReport(False, n_max)
