"""Command-line front end.

Subcommands: count, spectrum, sample, analyze, simulate, asymptotics, rna,
figure.  Grammars come from a file (--grammar) or a builtin (--builtin
motzkin | rna); CSV output is plot-ready and fully written or not at all.
The RNG seed defaults to a fixed constant, overridable by --seed, so
identical invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from mpmath import mp

from . import asymptotics, counting, rna, sampler, urns
from .grammar import (GrammarError, Rule, WeightedGrammar, _parse_weight, normalize,
                      parse_grammar)
from .numerics import DEFAULT_SEED, _unlimited_digits, to_mpf

BUILTINS = ("motzkin", "rna")


def motzkin_grammar() -> WeightedGrammar:
    rules = (
        Rule("S", ("(", "S", ")", "S")),
        Rule("S", (".", "S")),
        Rule("S", ()),
    )
    return WeightedGrammar(frozenset({"(", ")", "."}), frozenset({"S"}),
                           rules, "S", {})


def _num(x) -> str:
    if isinstance(x, Fraction):
        with _unlimited_digits():
            return str(x)
    with mp.workdps(30):
        return mp.nstr(to_mpf(x), 12)


def _parse_precision(spec: str) -> int | None:
    if spec == "exact":
        return None
    m = re.fullmatch(r"float(\d+)", spec)
    if not m or int(m.group(1)) < 24:
        raise ValueError(f"--precision expects 'exact' or 'floatBITS', got {spec!r}")
    return int(m.group(1))


def _load_grammar(args) -> WeightedGrammar:
    if (args.grammar is None) == (args.builtin is None):
        raise ValueError("exactly one of --grammar and --builtin is required")
    if args.grammar is not None:
        with open(args.grammar, encoding="utf-8") as fh:
            g = parse_grammar(fh.read())
    elif args.builtin == "motzkin":
        g = motzkin_grammar()
    elif args.builtin == "rna":
        model = _rna_model(args)
        g = rna.rna_grammar(model.theta, model.w)
    else:
        raise ValueError(f"unknown builtin {args.builtin!r}")
    overrides = {}
    for spec in args.weight or ():
        if "=" not in spec:
            raise ValueError(f"--weight expects SYM=VALUE, got {spec!r}")
        sym, val = spec.split("=", 1)
        overrides[sym] = _parse_weight(val)
    return g.with_weights(overrides) if overrides else g


def _rna_model(args) -> rna.RnaModel:
    return rna.RnaModel(theta=args.theta, pair_energy=args.energy, rt=args.rt)


def _emit_csv(header, rows):
    # rows are fully materialized before any output: no partial CSV on error
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    print("\n".join(lines))


def _add_rna_args(p):
    p.add_argument("--theta", type=int, default=3,
                   help="minimal dot-run inside a pair (builtin rna)")
    p.add_argument("--energy", type=float, default=-1.0,
                   help="free energy per pair, kcal/mol (builtin rna)")
    p.add_argument("--rt", type=float, default=rna.DEFAULT_RT,
                   help="RT in kcal/mol; the pair weight is exp(-E/RT)")


def _add_grammar_args(p):
    p.add_argument("--grammar", metavar="PATH", help="grammar file")
    p.add_argument("--builtin", choices=BUILTINS, help="builtin grammar")
    p.add_argument("--weight", action="append", metavar="SYM=VALUE",
                   help="terminal weight override (repeatable)")
    _add_rna_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightedgen",
        description="Weighted random generation of context-free languages and "
                    "its redundancy analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="total weight of length-n words")
    _add_grammar_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("spectrum", help="weight classes of the length-n slice")
    _add_grammar_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("sample", help="draw words of length n")
    _add_grammar_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=10, help="number of words")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--sep", default=" ", help="separator between terminals")
    p.add_argument("--precision", default="exact",
                   help="'exact' or 'floatBITS' count table to draw from")

    p = sub.add_parser("analyze", help="collision/collection/coverage report")
    _add_grammar_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="sample size for distinct/coverage")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("simulate", help="Monte Carlo over the urn model")
    _add_grammar_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--statistic", required=True,
                   choices=("first_collision", "full_collection", "distinct", "coverage"))
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", choices=("urns", "words"), default="urns")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("asymptotics", help="singularity estimate and condition probes")
    _add_grammar_args(p)
    p.add_argument("--n-terms", type=int, default=256)
    p.add_argument("--precision", default="float256")
    p.add_argument("--collision-n", type=int,
                   help="also compare the plug-in and fitted collision estimates at this length")
    p.add_argument("--format", choices=("text", "csv"), default="text",
                   help="csv emits the (n, coefficient) tail")

    p = sub.add_parser("rna", help="secondary-structure model analytics")
    _add_rna_args(p)
    p.add_argument("--n", type=int, help="structure length")
    p.add_argument("--k", type=int, help="sample size for distinct/coverage")
    p.add_argument("--sweep", metavar="N1..N2", help="emit CSV over a length range")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("figure", help="CSV data behind the two built-in plots")
    p.add_argument("fig", type=int, choices=(1, 2))
    p.add_argument("--W", default="2", help="horizontal-step weight (figure 1)")
    p.add_argument("--k", type=int, default=1000, help="sample size (figure 2)")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int, default=40)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def cmd_count(args) -> int:
    g = normalize(_load_grammar(args))
    table = counting.build_counts(g, None, args.n)
    if args.format == "csv":
        _emit_csv(("n", "total_weight"),
                  [(m, _num(v)) for m, v in enumerate(table.coefficients())])
    else:
        print(_num(table.total(args.n)))
    return 0


def cmd_spectrum(args) -> int:
    g = normalize(_load_grammar(args))
    sp = counting.weight_spectrum(g, None, args.n)
    if args.format == "csv":
        print(sp.to_csv(), end="")
    else:
        with _unlimited_digits():
            print(f"n={sp.n}  words={sum(sp.counts)}  "
                  f"total_weight={_num(sp.total_weight())}")
            for c in sp.classes:
                print(f"  weight {c.weight}  multiplicity {c.count}")
    return 0


def cmd_sample(args) -> int:
    if args.k < 0:
        raise ValueError(f"--k must be nonnegative, got {args.k}")
    g = normalize(_load_grammar(args))
    precision = _parse_precision(args.precision)
    table = counting.build_counts(g, None, args.n, precision)
    state = sampler.SamplerState(table, args.seed)
    for _ in range(args.k):
        print(args.sep.join(sampler.sample_word(state, args.n)))
    return 0


def cmd_analyze(args) -> int:
    g = normalize(_load_grammar(args))
    sp = counting.weight_spectrum(g, None, args.n)
    u = urns.from_spectrum(sp)
    report = urns.standard_report(u, n=args.n, k=args.k)
    print(report.to_csv() if args.format == "csv" else report.to_text(), end="")
    return 0


def cmd_simulate(args) -> int:
    g = normalize(_load_grammar(args))
    if args.mode == "urns":
        sp = counting.weight_spectrum(g, None, args.n)
        model = urns.from_spectrum(sp)
    else:
        table = counting.build_counts(g, None, args.n)
        model = sampler.SamplerState(table)
    result = urns.simulate(model, args.statistic, args.trials,
                           seed=args.seed, k=args.k, n=args.n)
    if args.format == "csv":
        _emit_csv(("statistic", "k", "trials", "mean", "stderr"),
                  [(result.statistic, "" if result.k is None else result.k,
                    result.trials, _num(result.mean), _num(result.stderr))])
    else:
        print(f"{result.statistic}: mean={_num(result.mean)} "
              f"stderr={_num(result.stderr)} trials={result.trials}")
    return 0


def cmd_asymptotics(args) -> int:
    if args.collision_n is not None and args.collision_n < 1:
        raise ValueError(f"--collision-n must be at least 1, got {args.collision_n}")
    g = normalize(_load_grammar(args))
    precision = _parse_precision(args.precision)
    if precision is None or precision < asymptotics.MIN_FIT_PRECISION:
        raise ValueError("asymptotics needs a float count table of at least "
                         f"{asymptotics.MIN_FIT_PRECISION} bits: --precision floatBITS")
    if args.format == "csv":
        table = counting.build_counts(g, None, args.n_terms, precision)
        _emit_csv(("n", "coefficient"),
                  [(m, _num(v)) for m, v in enumerate(table.coefficients())])
        return 0
    # everything is computed before the first line is printed
    est = asymptotics.fit_power(g, 1, args.n_terms, precision)
    ce = None
    if args.collision_n is not None:
        ce = asymptotics.collision_estimates(
            g, args.collision_n, est, asymptotics.fit_power(g, 2, args.n_terms, precision))
    report = asymptotics.check_conditions(g)
    print(f"rho      {est.rho:.12g}")
    print(f"kappa    {est.kappa:.12g}")
    print(f"k_exp    {est.k_exp:.12g}")
    print(f"converged {est.converged}  parity_gap {est.parity_gap:.3g}  "
          f"residual {est.residual:.3g}  tail {est.tail_len}")
    for note in est.notes:
        print(f"note: {note}")
    print(report.summary())
    if ce is not None:
        tag = "agree" if ce.agree else "DISAGREE"
        print(f"first collision at n={args.collision_n}: plug-in {_num(ce.plug_in)}  "
              f"fitted {_num(ce.fitted)}  ({tag}, gap {ce.relative_gap:.1%})")
    return 0


def cmd_rna(args) -> int:
    model = _rna_model(args)
    if args.sweep:
        m = re.fullmatch(r"(\d+)\.\.(\d+)", args.sweep)
        if not m:
            raise ValueError(f"--sweep expects N1..N2, got {args.sweep!r}")
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ValueError(f"--sweep needs N1 <= N2, got {args.sweep!r}")
        if args.k is None:
            raise ValueError("--sweep needs --k")
        rows = rna.coverage_rows(model, args.k, range(lo, hi + 1))
        _emit_csv(("n", "k", "expected_distinct", "expected_coverage"),
                  [(n, k, _num(dist * k), _num(cov)) for n, k, cov, dist in rows])
        return 0
    if args.n is None:
        raise ValueError("rna needs --n (or --sweep)")
    report = rna.rna_report(args.n, model, k=args.k)
    print(report.to_csv() if args.format == "csv" else report.to_text(), end="")
    return 0


def cmd_figure(args) -> int:
    n_min = (4 if args.fig == 1 else 2) if args.n_min is None else args.n_min
    if n_min < 0:
        raise ValueError(f"--n-min must be nonnegative, got {n_min}")
    if n_min > args.n_max:
        raise ValueError(f"figure needs --n-min <= --n-max, got {n_min} > {args.n_max}")
    if args.fig == 1:
        w = _parse_weight(args.W)
        g = normalize(motzkin_grammar().with_weights({".": w}))
        spectra = counting.weight_spectra(g, None, args.n_max)
        rows = []
        for n in range(n_min, args.n_max + 1):
            sp = spectra[n]
            if sp is None:
                continue
            u = urns.from_spectrum(sp)
            value = to_mpf(u.p_min) * to_mpf(urns.xi_estimate(u))
            rows.append((n, _num(float(value))))
        _emit_csv(("n", "p1_times_Xi"), rows)
        return 0
    rows = []
    for theta, energy in ((1, -1.0), (1, -3.0), (3, -1.0), (3, -3.0)):
        model = rna.RnaModel(theta=theta, pair_energy=energy)
        for n, k, cov, dist in rna.coverage_rows(model, args.k,
                                                 range(n_min, args.n_max + 1)):
            rows.append((theta, _num(energy), n, k, _num(cov), _num(dist)))
    _emit_csv(("theta", "energy", "n", "k", "coverage", "distinct_fraction"), rows)
    return 0


COMMANDS = {
    "count": cmd_count,
    "spectrum": cmd_spectrum,
    "sample": cmd_sample,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "asymptotics": cmd_asymptotics,
    "rna": cmd_rna,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (GrammarError, counting.EmptyLanguageError, counting.ClassCapExceeded,
            asymptotics.InsufficientData, urns.QuadratureError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
