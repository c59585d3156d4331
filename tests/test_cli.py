import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from weightedgen.cli import main

# stdout of report commands, pinned byte for byte
GOLDEN = Path(__file__).parent / "data" / "cli_golden"


def run_cli(*argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
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


def test_sample_env_seed(monkeypatch):
    monkeypatch.setenv("WCFG_SEED", "555")
    _, with_env, _ = run_cli("sample", "--builtin", "motzkin", "--n", "5", "--k", "3")
    monkeypatch.delenv("WCFG_SEED")
    _, explicit, _ = run_cli("sample", "--builtin", "motzkin", "--n", "5", "--k", "3",
                             "--seed", "555")
    assert with_env == explicit


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


def test_asymptotics_refuses_exact_precision():
    code, out, err = run_cli("asymptotics", "--builtin", "motzkin",
                             "--n-terms", "96", "--precision", "exact")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "floatBITS" in err


@pytest.mark.parametrize("precision, refused", [("float64", True), ("float127", True),
                                               ("float128", False)])
def test_asymptotics_precision_floor(precision, refused):
    code, out, err = run_cli("asymptotics", "--builtin", "motzkin",
                             "--n-terms", "96", "--precision", precision)
    if refused:
        assert code == 2 and out == ""
        assert err.startswith("error:") and "128" in err
    else:
        assert code == 0 and out.startswith("rho")


def test_asymptotics_collision_comparison():
    code, out, _ = run_cli("asymptotics", "--builtin", "motzkin",
                           "--weight", ".=2", "--n-terms", "128",
                           "--collision-n", "20")
    assert code == 0
    assert "first collision at n=20" in out
    assert "plug-in" in out and "fitted" in out and "gap" in out


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
    bad = tmp_path / "bad.wcfg"
    bad.write_text("axiom S\nterminal a\nS -> a T\n")
    code, out, err = run_cli("count", "--grammar", str(bad), "--n", "3")
    assert code == 2 and "unknown symbol T" in err
    code, _, err = run_cli("count", "--n", "3")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli("spectrum", "--builtin", "motzkin", "--n", "-1")
    assert code == 2


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


def test_weight_override_fraction():
    code, out, _ = run_cli("count", "--builtin", "motzkin",
                           "--weight", ".=1/2", "--n", "2")
    assert code == 0
    assert out.strip() == "5/4"


def test_rna_energy_sign_flag():
    _, inv, _ = run_cli("count", "--builtin", "rna", "--theta", "1",
                        "--energy", "-1", "--n", "4")
    _, lit, _ = run_cli("count", "--builtin", "rna", "--theta", "1",
                        "--energy", "-1", "--energy-sign", "literal", "--n", "4")
    # inverted convention weighs pairs above 1, literal below: totals differ
    assert inv != lit
    num_inv = eval_fraction(inv)
    num_lit = eval_fraction(lit)
    assert num_inv > 4 > num_lit  # 3 dots-only words + paired ones


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
])
def test_cli_stdout_golden(name, argv):
    code, out, err = run_cli(*argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}.txt").read_text()
