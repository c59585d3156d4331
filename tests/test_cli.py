import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import weightedgen
from weightedgen import counting, urns
from weightedgen.cli import main

# stdout of report commands, pinned byte for byte
GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_count_motzkin():
    code, out, _ = run_cli("count", "--builtin", "motzkin", "--n", "5")
    assert code == 0
    assert out.strip() == "21"


def test_count_csv_header_and_rows():
    code, out, _ = run_cli("count", "--builtin", "motzkin", "--n", "4",
                           "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,total_weight"
    assert lines[1:] == ["0,1", "1,1", "2,2", "3,4", "4,9"]


def test_spectrum_csv():
    code, out, _ = run_cli("spectrum", "--builtin", "motzkin",
                           "--weight", ".=2", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == \
        ["weight_num,weight_den,multiplicity", "2,1,3", "8,1,1"]


def test_spectrum_class_cap_exits_2(monkeypatch):
    monkeypatch.setattr(counting, "CLASS_CAP", 5)
    code, out, err = run_cli("spectrum", "--builtin", "motzkin", "--weight", ".=2",
                             "--weight", "(=3", "--n", "12")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "weight classes" in err


def test_sample_deterministic_and_sep():
    args = ("sample", "--builtin", "motzkin", "--n", "5", "--k", "4",
            "--seed", "11", "--sep", "")
    code, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert code == 0
    assert out1 == out2
    words = out1.strip().splitlines()
    assert len(words) == 4
    assert all(len(w) == 5 for w in words)


def test_sample_refuses_negative_k():
    code, out, err = run_cli("sample", "--builtin", "motzkin", "--n", "5", "--k", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--k" in err


def test_analyze_contains_expected_distinct():
    code, out, _ = run_cli("analyze", "--builtin", "motzkin", "--weight", ".=2",
                           "--n", "3", "--k", "2")
    assert code == 0
    # E[N] at k=2 on the 2-class model is 79/49 = 1.6122...
    assert "1.61224489796" in out
    assert "first_collision" in out and "coverage" in out


def test_analyze_csv_deterministic():
    args = ("analyze", "--builtin", "motzkin", "--weight", ".=2", "--n", "4",
            "--k", "3", "--format", "csv")
    code, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert code == 0 and out1 == out2
    assert out1.splitlines()[0] == "statistic,method,n,k,value,lower,upper"


def test_simulate_text():
    code, out, _ = run_cli("simulate", "--builtin", "motzkin", "--n", "4",
                           "--statistic", "first_collision", "--trials", "500",
                           "--seed", "3")
    assert code == 0
    assert out.startswith("first_collision: mean=")


def test_simulate_refuses_an_urn_first_collision_beyond_the_draw_cap(monkeypatch):
    # E[B] >= the plug-in 5.3e10 throws: refused before the first throw
    def no_draw(*args):
        raise AssertionError("a throw was drawn")

    monkeypatch.setattr(urns, "_urn_trials", no_draw)
    code, out, err = run_cli("simulate", "--builtin", "rna", "--n", "80",
                             "--statistic", "first_collision", "--trials", "1")
    assert (code, out) == (2, "")
    assert err == ("error: first_collision expects at least 53112539681 throws per "
                   "trial, and trials * throws must be at most 1000000000\n")


@pytest.mark.parametrize("argv, wait", [
    (("--builtin", "rna", "--n", "80", "--statistic", "first_collision"), 53112539681),
    # the all-dots word of Motzkin n = 6 has probability about 2e-73
    (("--builtin", "motzkin", "--weight", ".=1e-12", "--n", "6",
      "--statistic", "full_collection"),
     5000000000000000000000030000000000000000000000015000000000000000000000001),
], ids=["rna-first-collision", "motzkin-full-collection"])
def test_simulate_refuses_a_word_wait_beyond_the_draw_cap(monkeypatch, argv, wait):
    # the urn level's bound, from exact tables, before the first word
    def no_draw(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(urns, "sample_word", no_draw)
    code, out, err = run_cli("simulate", *argv, "--mode", "words", "--trials", "1")
    assert (code, out) == (2, "")
    assert err == (f"error: {argv[-1]} expects at least {wait} throws per "
                   "trial, and trials * throws must be at most 1000000000\n")


@pytest.mark.parametrize("statistic", ["first_collision", "full_collection"])
def test_simulate_refuses_k_it_would_not_use(statistic):
    code, out, err = run_cli("simulate", "--builtin", "motzkin", "--n", "4",
                             "--statistic", statistic, "--k", "7", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == f"error: statistic '{statistic}' takes no k\n"


def test_asymptotics_text_and_csv():
    code, out, _ = run_cli("asymptotics", "--builtin", "motzkin",
                           "--n-terms", "96")
    assert code == 0
    assert "rho" in out and "0.333333" in out
    code, out, _ = run_cli("asymptotics", "--builtin", "motzkin",
                           "--n-terms", "8", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert len(lines) == 10


def test_asymptotics_prints_its_notes(tmp_path):
    # no word shorter than 4 letters: the fit skips the four leading zeros
    path = tmp_path / "g.wcfg"
    path.write_text("axiom S\nterminal a weight 2\nterminal b\nS -> a S | b S | a a a a\n")
    code, out, err = run_cli("asymptotics", "--grammar", str(path), "--n-terms", "96")
    assert (code, err) == (0, "")
    assert "note: ignored 4 leading coefficients\n" in out


def test_asymptotics_collision_comparison():
    code, out, _ = run_cli("asymptotics", "--builtin", "motzkin",
                           "--weight", ".=2", "--n-terms", "128",
                           "--collision-n", "20")
    assert code == 0
    assert "first collision at n=20" in out
    assert "plug-in" in out and "fitted" in out and "gap" in out


@pytest.mark.parametrize("n", ["0", "-3"])
def test_asymptotics_refuses_collision_length_below_one(n, monkeypatch):
    built = []
    monkeypatch.setattr(counting.CountTable, "__init__",
                        lambda self, *args, **kwargs: built.append(args))
    code, out, err = run_cli("asymptotics", "--builtin", "motzkin", "--weight", ".=2",
                             "--collision-n", n)
    assert code == 2 and out == "" and built == []
    assert err.startswith("error:") and "--collision-n" in err


def test_asymptotics_empty_collision_length_prints_nothing(tmp_path):
    # words at every length from 3 on: the fits succeed, the plug-in at n=2 fails
    path = tmp_path / "g.wcfg"
    path.write_text("axiom S\nterminal a weight 2\nterminal b\nS -> a a a T\n"
                    "T -> a T | b T | _\n")
    code, out, err = run_cli("asymptotics", "--grammar", str(path), "--n-terms", "128",
                             "--collision-n", "2")
    assert code == 2 and out == ""
    assert err == "error: no words of length 2\n"


def test_asymptotics_refuses_an_underflowing_squared_kappa():
    # kappa of the W^2 fit is exp(intercept) = 0.0 in a double: no fitted estimate
    code, out, err = run_cli("asymptotics", "--builtin", "rna", "--theta", "5",
                             "--energy=-200", "--n-terms", "64", "--collision-n", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: kappa of the W^2 fit underflows to 0.0")


@pytest.mark.parametrize("rules, n", [("S -> _ | S a | a", 7), ("S -> a | S S", 3)])
def test_word_full_collection_ends_on_an_ambiguous_grammar(tmp_path, rules, n):
    # one word of two derivations: the word count 2 is never seen, and each
    # trial stops after ceil((ln 2 + 64 ln 2) / (1/2)) = 91 throws
    path = tmp_path / "g.wcfg"
    path.write_text(f"axiom S\nterminal a\n{rules}\n")
    code, out, err = run_cli("simulate", "--grammar", str(path), "--n", str(n),
                             "--mode", "words", "--statistic", "full_collection")
    assert code == 2 and out == ""
    assert err == ("error: full_collection saw 1 of 2 words in 91 throws: the grammar "
                   "is likely ambiguous\n")


def test_asymptotics_builds_each_table_once(monkeypatch):
    built = []
    init = counting.CountTable.__init__

    def record(self, grammar, weights, horizon, precision=None):
        built.append((tuple(sorted(weights.items())), horizon, precision))
        init(self, grammar, weights, horizon, precision)

    monkeypatch.setattr(counting.CountTable, "__init__", record)
    code, _, _ = run_cli("asymptotics", "--builtin", "motzkin", "--weight", ".=2",
                         "--collision-n", "40")
    assert code == 0
    # W and W^2 fitted at 256 terms, and the exact W and W^2 tables at n=40;
    # the condition probes build none
    assert len(built) == len(set(built)) == 4


@pytest.mark.parametrize("energy", ["-6102", "-440", "6059"])
def test_rna_growth_base_at_extreme_energies(energy):
    # the extremes pair_weight accepts; below about E=-437 the scaled
    # system's rho for w^2 lies beyond 2^1023
    code, out, err = run_cli("rna", "--n", "10", "--energy", energy, "--format", "csv")
    assert code == 0 and err == ""
    (row,) = [line for line in out.splitlines() if line.startswith("collision_growth_base,")]
    assert row.split(",")[4] == "1.0"


def test_rna_report_rows_stay_narrow_and_finite_at_the_weakest_energy():
    # at E=-6102 the 1/p1 bound is an integer of 12901 digits and the
    # Berenbrink interval passes the double range: in the text report the
    # integer prints with 12 significant digits like the other numbers, and
    # the interval as finite mpfs there and in CSV, which keeps the integer
    code, text, err = run_cli("rna", "--n", "10", "--energy=-6102")
    assert code == 0 and err == ""
    assert max(map(len, text.splitlines())) < 200
    bounds = [cells[3:5] for cells in map(str.split, text.splitlines())
              if cells[:2] == ["full_collection", "bound"]]
    assert bounds == [["5.28513850949e+12900", "5.03068606464e+12901"],
                      ["2.50198904378e+12899", "1.0570277019e+12901"]]
    code, csv, _ = run_cli("rna", "--n", "10", "--energy=-6102", "--format", "csv")
    bounds = [line.split(",")[5:] for line in csv.splitlines()
              if line.startswith("full_collection,bound,")]
    assert len(bounds[0][0]) == 12901
    assert bounds[1] == ["2.50198904378e+12899", "1.0570277019e+12901"]


def test_rna_report_and_sweep():
    code, out, _ = run_cli("rna", "--theta", "3", "--energy", "-3",
                           "--n", "15", "--k", "50")
    assert code == 0
    assert "collision_growth_base" in out
    code, out, _ = run_cli("rna", "--theta", "3", "--energy", "-3",
                           "--k", "100", "--sweep", "4..6")
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,expected_distinct,expected_coverage"
    assert len(lines) == 4


def test_rna_sweep_refuses_empty_range():
    code, out, err = run_cli("rna", "--sweep", "5..2", "--k", "10")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--sweep" in err


def test_figure1_csv():
    code, out, _ = run_cli("figure", "1", "--W", "2", "--n-max", "10")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,p1_times_Xi"
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(4, 11))


def test_figure2_csv():
    code, out, _ = run_cli("figure", "2", "--k", "20", "--n-min", "4",
                           "--n-max", "5")
    lines = out.strip().splitlines()
    assert lines[0] == "theta,energy,n,k,coverage,distinct_fraction"
    assert len(lines) == 1 + 4 * 2  # four (theta, energy) panels, two lengths


@pytest.mark.parametrize("fig", ["1", "2"])
def test_figure_refuses_negative_n_min(fig):
    # figure 1 once read n = -2 and -1 as the spectra of n = 4 and 5
    code, out, err = run_cli("figure", fig, "--k", "10", "--n-min", "-2", "--n-max", "5")
    assert code == 2 and out == ""
    assert "--n-min must be nonnegative" in err


@pytest.mark.parametrize("fig, argv, n_min, n_max", [
    ("2", ("--n-min", "5", "--n-max", "3"), 5, 3),
    ("1", ("--n-min", "9", "--n-max", "5"), 9, 5),
    ("1", ("--n-max", "3"), 4, 3),  # figure 1's default --n-min is 4
], ids=["fig2", "fig1", "fig1-default-n-min"])
def test_figure_refuses_an_empty_length_range(fig, argv, n_min, n_max):
    # these once printed the CSV header alone and exited 0
    code, out, err = run_cli("figure", fig, "--k", "10", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{n_min} > {n_max}" in err


def test_grammar_file_roundtrip(tmp_path):
    path = tmp_path / "g.wcfg"
    path.write_text("axiom S\nterminal a weight 2\nS -> a S | _\n")
    code, out, _ = run_cli("count", "--grammar", str(path), "--n", "6")
    assert code == 0
    assert out.strip() == "64"


def test_error_exit_codes(tmp_path):
    code, out, err = run_cli("count", "--builtin", "motzkin", "--n", "3",
                             "--weight", "x=2")
    assert code == 2 and "error:" in err and out == ""
    for argv, message in ((("count", "--builtin", "motzkin", "--n", "3", "--weight", "x"),
                           "--weight expects SYM=VALUE"),
                          (("rna", "--k", "3"), "rna needs --n"),
                          (("rna", "--sweep", "3-5", "--k", "3"), "--sweep expects N1..N2")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "") and err.startswith("error:") and message in err
    bad = tmp_path / "bad.wcfg"
    bad.write_text("axiom S\nterminal a\nS -> a T\n")
    code, out, err = run_cli("count", "--grammar", str(bad), "--n", "3")
    assert code == 2 and "unknown symbol T" in err
    code, _, err = run_cli("count", "--n", "3")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli("spectrum", "--builtin", "motzkin", "--n", "-1")
    assert code == 2


@pytest.mark.parametrize("rules, seeds, named", [
    # a same-length cycle S -> T -> U -> S
    ("S -> T | a\nT -> U\nU -> S | a\n", ("1", "3"), "S"),
    # A and D each derive the empty word twice
    ("S -> A a | D b\nA -> B | C\nD -> B | C\nB -> _\nC -> _\n", ("1", "6"), "A"),
], ids=["cycle", "empty-word"])
def test_validation_error_independent_of_hash_seed(tmp_path, rules, seeds, named):
    # the error names the first offending nonterminal in sorted order, under
    # every string-hash seed
    path = tmp_path / "g.wcfg"
    path.write_text("axiom S\nterminal a\nterminal b\n" + rules)
    src = str(Path(weightedgen.__file__).parents[1])
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "weightedgen.cli", "count", "--grammar", str(path),
             "--n", "3"], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: nonterminal {named!r} "), proc.stderr


def test_cli_routes_leave_numpy_unloaded():
    # no library route imports numpy: not the asymptotics fits or the
    # condition probes, and not the birthday quadrature (`analyze`, `rna`)
    script = (
        "import sys\n"
        "from weightedgen import check_conditions, normalize, rna\n"
        "from weightedgen.cli import main\n"
        "for argv in (['sample', '--builtin', 'rna', '--n', '20', '--k', '3'],\n"
        "             ['count', '--builtin', 'motzkin', '--n', '10'],\n"
        "             ['simulate', '--builtin', 'motzkin', '--n', '6', '--mode', 'urns',\n"
        "              '--statistic', 'distinct', '--k', '5', '--trials', '50'],\n"
        "             ['asymptotics', '--builtin', 'motzkin', '--weight', '.=2'],\n"
        "             ['asymptotics', '--builtin', 'motzkin', '--weight', '.=2',\n"
        "              '--collision-n', '40']):\n"
        "    assert main(argv) == 0\n"
        "assert check_conditions(normalize(rna.rna_grammar(3, 5))).all_pass\n"
        "before = 'numpy' in sys.modules\n"
        "for argv in (['analyze', '--builtin', 'motzkin', '--n', '6'],\n"
        "             ['rna', '--n', '80', '--k', '1000'], ['figure', '2']):\n"
        "    assert main(argv) == 0\n"
        "print(before, 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(weightedgen.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"


def test_reports_run_with_numpy_blocked():
    # the runtime dependencies alone: an import of numpy raises here
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from weightedgen.cli import main\n"
        "assert main(['analyze', '--builtin', 'motzkin', '--weight', '.=2', '--n', '22',\n"
        "             '--k', '1000']) == 0\n"
        "assert main(['rna', '--n', '80', '--k', '1000']) == 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(weightedgen.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ((GOLDEN / "analyze_motzkin_w2_n22_k1000.txt").read_text()
                           + (GOLDEN / "rna_n80_k1000.txt").read_text())


@pytest.mark.parametrize("argv", [
    ("count", "--builtin", "motzkin", "--n", "3", "--weight", ".=1/0"),
    ("count", "--builtin", "motzkin", "--n", "3", "--weight", ".=abc"),
    ("count", "--builtin", "motzkin", "--n", "3", "--weight", ".=inf"),
    ("figure", "1", "--W", "1/0"),
    ("count", "--builtin", "motzkin", "--n", "3", "--weight", ".=1e4301"),
    ("count", "--builtin", "motzkin", "--n", "3", "--weight", ".=1e-4301"),
])
def test_bad_weight_literal_is_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "malformed weight" in err


# one word per length, of weight 10^(4299 n): totals past Python's int-to-str
# digit limit of 4300
HUGE_WEIGHT = "axiom S\nterminal a weight 1e4299\nS -> a S | a\n"
HUGE_TOTAL = "1" + "0" * 8598


@pytest.mark.parametrize("argv, expected", [
    (("count",), f"{HUGE_TOTAL}\n"),
    (("count", "--format", "csv"),
     f"n,total_weight\n0,0\n1,1{'0' * 4299}\n2,{HUGE_TOTAL}\n"),
    (("spectrum",), f"n=2  words=1  total_weight={HUGE_TOTAL}\n"
                    f"  weight {HUGE_TOTAL}  multiplicity 1\n"),
    (("spectrum", "--format", "csv"),
     f"weight_num,weight_den,multiplicity\n{HUGE_TOTAL},1,1\n"),
    (("analyze", "--k", "2", "--format", "csv"), f"occupied_weight,exact,2,2,{HUGE_TOTAL},,\n"),
], ids=["count", "count-csv", "spectrum", "spectrum-csv", "analyze-csv"])
def test_exact_output_past_the_int_digit_limit(tmp_path, argv, expected):
    path = tmp_path / "huge.wcfg"
    path.write_text(HUGE_WEIGHT, encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(argv[0], "--grammar", str(path), "--n", "2", *argv[1:])
    assert (code, err) == (0, "")
    assert out.endswith(expected)
    assert sys.get_int_max_str_digits() == limit


def test_weight_override_fraction():
    code, out, _ = run_cli("count", "--builtin", "motzkin",
                           "--weight", ".=1/2", "--n", "2")
    assert code == 0
    assert out.strip() == "5/4"


def test_rna_energy_sign_flag():
    _, inv, _ = run_cli("count", "--builtin", "rna", "--theta", "1",
                        "--energy", "-1", "--n", "4")
    _, lit, _ = run_cli("count", "--builtin", "rna", "--theta", "1",
                        "--energy", "1", "--n", "4")
    # stabilizing energies weigh pairs above 1, destabilizing below: totals differ
    assert inv != lit
    num_inv = eval_fraction(inv)
    num_lit = eval_fraction(lit)
    assert num_inv > 4 > num_lit  # 3 dots-only words + paired ones


@pytest.mark.parametrize("argv", [
    ("count", "--builtin", "rna", "--n", "2", "--energy=-inf"),
    ("count", "--builtin", "rna", "--n", "2", "--energy=inf"),
    ("count", "--builtin", "rna", "--n", "2", "--energy=1e308"),
    ("count", "--builtin", "rna", "--n", "2", "--energy", "nan"),
    ("count", "--builtin", "rna", "--n", "2", "--rt", "nan"),
    ("rna", "--n", "10", "--energy=2e4"),
    ("rna", "--n", "10", "--energy=1e5"),
], ids=["energy-minus-inf", "energy-inf", "energy-1e308", "energy-nan", "rt-nan",
        "energy-2e4", "energy-1e5"])
def test_rna_refuses_pair_weights_past_the_digit_limit(argv, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(counting, "build_counts", no_table)
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_readme_cli_examples_run():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("weightedgen ")]
    assert lines
    for line in lines:
        code, out, err = run_cli(*shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, ""), line
        assert out, line


def eval_fraction(text):
    text = text.strip()
    if "/" in text:
        a, b = text.split("/")
        return int(a) / int(b)
    return float(text)


def test_analyze_empty_slice_is_error():
    # even-length-only language has no words at odd lengths
    import pathlib, tempfile
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "g.wcfg"
        path.write_text("axiom S\nterminal a\nterminal b\nS -> a S b | a b\n")
        code, out, err = run_cli("analyze", "--grammar", str(path), "--n", "3")
    assert code == 2 and "length 3" in err and out == ""


def test_figure_outputs_deterministic():
    a = run_cli("figure", "1", "--W", "2", "--n-max", "12")
    b = run_cli("figure", "1", "--W", "2", "--n-max", "12")
    assert a == b
    a = run_cli("figure", "2", "--k", "10", "--n-min", "3", "--n-max", "4")
    b = run_cli("figure", "2", "--k", "10", "--n-min", "3", "--n-max", "4")
    assert a == b


@pytest.mark.parametrize("name, argv", [
    ("rna_n80_k1000", ("rna", "--n", "80", "--k", "1000")),
    ("rna_sweep_2_40_k100", ("rna", "--sweep", "2..40", "--k", "100")),
    ("figure2_nmax20", ("figure", "2", "--n-max", "20")),
    # occupancy on the exact route
    ("analyze_motzkin_w2_n22_k1000", ("analyze", "--builtin", "motzkin", "--weight",
                                      ".=2", "--n", "22", "--k", "1000")),
    # occupancy on the double-precision route
    ("analyze_motzkin_w3_n30_k10000_csv", ("analyze", "--builtin", "motzkin", "--weight",
                                           ".=3", "--n", "30", "--k", "10000",
                                           "--format", "csv")),
    # m = 15511 equal weights: H_m beyond the exact harmonic limit
    ("analyze_motzkin_n12_k1000", ("analyze", "--builtin", "motzkin", "--n", "12",
                                   "--k", "1000")),
    # the rank-harmonic estimate crosses the exact harmonic limit
    ("figure1_nmax40", ("figure", "1", "--n-max", "40")),
    ("asymptotics_motzkin_w2_collision40", ("asymptotics", "--builtin", "motzkin",
                                            "--weight", ".=2", "--collision-n", "40")),
    ("asymptotics_rna_t3_e3_collision40", ("asymptotics", "--builtin", "rna", "--theta",
                                           "3", "--energy", "-3", "--collision-n", "40")),
    ("asymptotics_rna_t1_e1", ("asymptotics", "--builtin", "rna", "--theta", "1",
                               "--energy", "-1")),
    ("asymptotics_motzkin_w2_nterms16_csv", ("asymptotics", "--builtin", "motzkin",
                                             "--weight", ".=2", "--n-terms", "16",
                                             "--format", "csv")),
    # seeded sampler streams: an exact and a fixed-point table
    ("sample_rna_n200_k10", ("sample", "--builtin", "rna", "--n", "200", "--k", "10")),
    ("sample_motzkin_w2_n40_k20_float256", ("sample", "--builtin", "motzkin", "--weight",
                                            ".=2", "--n", "40", "--k", "20",
                                            "--precision", "float256")),
    ("count_rna_t1_e1_n80_csv", ("count", "--builtin", "rna", "--theta", "1", "--energy",
                                 "-1", "--n", "80", "--format", "csv")),
    ("spectrum_motzkin_w2_n16_csv", ("spectrum", "--builtin", "motzkin", "--weight",
                                     ".=2", "--n", "16", "--format", "csv")),
    # seeded word-level simulation
    ("simulate_motzkin_w2_n9_coverage_k43_words", ("simulate", "--builtin", "motzkin",
                                                   "--weight", ".=2", "--n", "9",
                                                   "--statistic", "coverage", "--k", "43",
                                                   "--mode", "words", "--trials", "300")),
    # seeded urn-level simulation: the throw stream through the CLI
    ("simulate_motzkin_n8_first_collision_urns_csv", ("simulate", "--builtin", "motzkin",
                                                      "--n", "8", "--statistic",
                                                      "first_collision", "--mode", "urns",
                                                      "--format", "csv")),
    ("simulate_motzkin_n8_full_collection_urns_csv", ("simulate", "--builtin", "motzkin",
                                                      "--n", "8", "--statistic",
                                                      "full_collection", "--mode", "urns",
                                                      "--format", "csv")),
    # two weighted terminals: the spectrum from the dict DP over compositions
    ("spectrum_motzkin_w2_open3_n24", ("spectrum", "--builtin", "motzkin", "--weight",
                                       ".=2", "--weight", "(=3", "--n", "24")),
])
def test_cli_stdout_golden(name, argv):
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}.txt").read_text()
