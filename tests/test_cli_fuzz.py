"""A derandomized fuzzer of the command line, run in process through `cli.main`.

Each example is one argument list for one subcommand, over a grammar from
`random_valid_grammar` (ambiguous ones included) or a built-in model at
drawn weights, θ and energies.  Every call must exit 0 or 2, print nothing
to stdout when it exits 2, and agree with the other routes to its numbers:
`count`'s total is `spectrum`'s total weight, `analyze`'s expected distinct
count is at most min(k, m), and every word `sample` prints has length n and
a positive `word_probability` under the table it was drawn from.
`SIMULATE_DRAW_CAP` is lowered to 20,000 so that the simulations it admits
stay short; that still admits the default 10,000 trials of the pinned
ambiguous repros, whose wait is 2 throws.  Lengths stay small, so an example
takes milliseconds; the fixed-point cells of an RNA model at energy E grow by
about |E|/(RT ln 2) bits per length, which a cost cap on count tables has
yet to bound, so `asymptotics` energies stay within ±200.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from weightedgen import build_counts, cli, normalize, urns, word_probability
from helpers import random_valid_grammar

# stands in an argument list for the path of the drawn grammar's file
GRAMMAR = "<grammar>"

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=600)

WEIGHTS = st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16)
ENERGIES = st.one_of(st.integers(-20, 20), st.integers(-200, 200))
LENGTHS = st.integers(-1, 12)
THETAS = st.sampled_from([3, 1, 2, 4, 5, 0])  # 0 is refused
FORMATS = st.sampled_from(["text", "csv"])


@st.composite
def grammar_options(draw):
    """(grammar file text or None, the options of argv that choose the grammar)."""
    kind = draw(st.sampled_from(["file", "file", "motzkin", "rna"]))
    if kind == "file":
        g = random_valid_grammar(random.Random(draw(st.integers(0, 2 ** 32))))
        return g.to_text(), ["--grammar", GRAMMAR]
    options = ["--builtin", kind]
    if kind == "rna":
        options += [f"--theta={draw(THETAS)}", f"--energy={draw(ENERGIES)}"]
    if draw(st.booleans()):
        symbol = draw(st.sampled_from([".", ".", "(", ")", "x"]))  # x is no terminal
        options += ["--weight", f"{symbol}={draw(WEIGHTS)}"]
    return None, options


@st.composite
def invocations(draw):
    """(grammar file text or None, argv) of one subcommand."""
    text, source = draw(grammar_options())
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    n = ["--n", str(draw(LENGTHS))]
    form = ["--format", draw(FORMATS)]
    if command in ("count", "spectrum"):
        argv = [command, *source, *n, *form]
    elif command == "sample":
        argv = ["sample", *source, *n, "--k", str(draw(st.integers(-1, 4))),
                "--seed", str(draw(st.integers(0, 9))),
                "--precision", draw(st.sampled_from(["exact", "exact", "float24",
                                                     "float64", "float8"]))]
    elif command == "analyze":
        k = ["--k", str(draw(st.integers(0, 1000)))] if draw(st.booleans()) else []
        argv = ["analyze", *source, *n, *k, *form]
    elif command == "simulate":
        statistic = draw(st.sampled_from(urns._STATISTICS))
        # k belongs to distinct and coverage alone; one call in five gets it wrong
        wrong = draw(st.integers(0, 4)) == 0
        k = (["--k", str(draw(st.integers(-1, 30)))]
             if wrong != (statistic in ("distinct", "coverage")) else [])
        argv = ["simulate", *source, *n, "--statistic", statistic, *k,
                "--trials", str(draw(st.integers(0, 20))),
                "--mode", draw(st.sampled_from(["urns", "words"])),
                "--seed", str(draw(st.integers(0, 9))), *form]
    elif command == "asymptotics":
        collision = (["--collision-n", str(draw(st.integers(-1, 30)))]
                     if draw(st.booleans()) else [])
        argv = ["asymptotics", *source, "--n-terms", str(draw(st.integers(32, 96))),
                *collision, *form]
    elif command == "rna":
        model = [f"--theta={draw(THETAS)}", f"--energy={draw(ENERGIES)}"]
        k = ["--k", str(draw(st.integers(0, 1000)))] if draw(st.booleans()) else []
        if draw(st.booleans()):
            lo = draw(st.integers(0, 20))
            argv = ["rna", *model, "--sweep", f"{lo}..{lo + draw(st.integers(-2, 10))}", *k]
        else:
            argv = ["rna", *model, "--n", str(draw(st.integers(-1, 40))), *k, *form]
    else:
        fig = draw(st.sampled_from(["1", "2"]))
        low = ["--n-min", str(draw(st.integers(-1, 6)))] if draw(st.booleans()) else []
        argv = ["figure", fig, "--n-max", str(draw(st.integers(-1, 12 if fig == "2" else 24))),
                *low, "--W", str(draw(WEIGHTS)), "--k", str(draw(st.integers(1, 1000)))]
    return text, argv


def run(argv):
    """(exit code, stdout, stderr) of one in-process call; argparse's
    refusals exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_call(argv):
    code, out, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert out == "", argv
    return code, out, err


def spectrum_line(argv):
    """The words of `spectrum`'s first text line for the grammar and n of
    argv, or None if it exits 2."""
    rest, source = iter(argv[1:]), []
    for a in rest:
        if a in ("--format", "--k"):
            next(rest)
        else:
            source.append(a)
    code, out, _ = check_call(["spectrum", *source])
    return out.split("\n")[0].split() if code == 0 else None


def check_identities(argv, out):
    command = argv[0]
    if command == "count":
        total = out.split()[-1].split(",")[-1]
        line = spectrum_line(argv)
        assert (line[2] if line else "total_weight=0") == f"total_weight={total}", argv
    elif command == "analyze" and "--k" in argv:
        k = int(argv[argv.index("--k") + 1])
        (row,) = [cells for cells in map(str.split, out.replace(",", " ").splitlines())
                  if cells[:2] == ["distinct", "exact"]]
        m = int(spectrum_line(argv)[1].removeprefix("words="))
        assert float(row[4]) <= min(k, m), argv
    elif command == "sample":
        args = cli.build_parser().parse_args(argv)
        table = build_counts(normalize(cli._load_grammar(args)), None, args.n,
                             cli._parse_precision(args.precision))
        lines = out.split("\n")[:-1]
        assert len(lines) == args.k
        for line in lines:
            word = tuple(line.split(args.sep)) if line else ()
            assert len(word) == args.n and word_probability(word, table) > 0, argv


@pytest.fixture(scope="module")
def grammar_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.wcfg"


# an ambiguous grammar's word-level full collection ends after its throw bound
@example(("axiom S\nterminal a\nS -> _ | S a | a\n",
          ["simulate", "--grammar", GRAMMAR, "--n", "7", "--statistic", "full_collection",
           "--mode", "words"]))
@example(("axiom S\nterminal a\nS -> a | S S\n",
          ["simulate", "--grammar", GRAMMAR, "--n", "3", "--statistic", "full_collection",
           "--mode", "words"]))
# kappa of the W^2 fit underflows in a double: exit 2, not a ZeroDivisionError
@example((None, ["asymptotics", "--builtin", "rna", "--theta", "5", "--energy=-200",
                 "--n-terms", "128", "--collision-n", "5"]))
# an empty length range: figure 1's default --n-min is 4
@example((None, ["figure", "1", "--n-max", "3"]))
@FUZZ
@given(invocations())
def test_cli_exits_0_or_2_and_its_routes_agree(grammar_path, invocation):
    text, argv = invocation
    if text is not None:
        grammar_path.write_text(text)
    argv = [str(grammar_path) if a == GRAMMAR else a for a in argv]
    with patch.object(urns, "SIMULATE_DRAW_CAP", 20_000):
        code, out, _ = check_call(argv)
        if code == 0:
            check_identities(argv, out)
