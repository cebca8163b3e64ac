"""End-to-end command tests: outputs, exit codes, JSON round trips."""

import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from coeffsharp import cli, verifier
from coeffsharp.cli import main
from coeffsharp.exprs import parse_expr, parse_number
from coeffsharp.verifier import SearchConfig, verify_all

DEFAULT_CONFIG = {"grid_tau1": 101, "grid_r": 21, "grid_theta": 72, "refinement_rounds": 6}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- expression grammar -------------------------------------------------------

def test_parse_expr_rationals():
    assert parse_expr("2") == F(2)
    assert parse_expr("2/3") == F(2, 3)
    assert parse_expr("-1/32") == F(-1, 32)


def test_parse_expr_surds():
    assert parse_expr("sqrt(2/11)") == pytest.approx(0.42640143271122083)
    assert parse_expr("-sqrt(8/3)") == pytest.approx(-1.632993161855452)


def test_parse_expr_rejects_garbage():
    for bad in ("", "1/0", "sqrt(-1)", "2*3", "0.5", "--1/2", "sqrt(--4)", "- -1"):
        with pytest.raises(ValueError):
            parse_expr(bad)
    assert parse_number("0.5") == 0.5
    for bad in ("abc", "--1/2", "sqrt(--4)", "- -1"):  # one leading minus at most
        with pytest.raises(ValueError):
            parse_number(bad)


# --- series ---------------------------------------------------------------------

def test_series_f1_golden(capsys):
    code, out, _ = run(capsys, "series", "f1", "--order", "4")
    assert code == 0
    assert out.strip() == "0, 1, 1, 3/4, 5/12"


def test_series_f2_and_f3_golden(capsys):
    code, out, _ = run(capsys, "series", "f2", "--order", "5")
    assert code == 0 and out.strip() == "0, 1, 0, 1/2, 0, 1/4"
    code, out, _ = run(capsys, "series", "f3", "--order", "7")
    assert code == 0 and out.strip() == "0, 1, 0, 0, 1/3, 0, 0, 5/36"


def test_series_phi0(capsys):
    code, out, _ = run(capsys, "series", "phi0", "--order", "4")
    assert code == 0 and out.strip() == "1, 1, 1/2, 0, 1/24"


def test_series_truncation_below_first_correction(capsys):
    code, out, _ = run(capsys, "series", "f2", "--order", "2")
    assert code == 0 and out.strip() == "0, 1, 0"


def test_series_custom_omega(capsys):
    code, out, _ = run(capsys, "series", "custom-omega", "--omega", "0", "1",
                       "--order", "4")
    assert code == 0 and out.strip() == "0, 1, 1, 3/4, 5/12"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_series_comments_match_the_cli(monkeypatch, capsys):
    # "coeffsharp series ...  # coefficients (note)" lines of the README
    examples = re.findall(r"^coeffsharp (series [^#\n]+?)\s+#\s*([^(\n]+?)\s*(?:\(.*\))?$",
                          README.read_text(), re.M)
    assert len(examples) == 2, examples
    for argv, comment in examples:
        monkeypatch.setattr(sys, "argv", ["coeffsharp", *argv.split()])
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == 0, argv
        assert capsys.readouterr().out.strip() == comment, argv


def test_series_custom_omega_decimal_needs_dec_format(capsys):
    code, _, err = run(capsys, "series", "custom-omega", "--omega", "0", "0.5",
                       "--order", "3")
    assert code == 2 and "dec" in err
    code, out, _ = run(capsys, "series", "custom-omega", "--omega", "0", "0.5",
                       "--order", "3", "--format", "dec")
    assert code == 0
    assert [float(tok) for tok in out.strip().split(", ")] == \
        pytest.approx([0.0, 1.0, 0.5, 0.1875])


def test_series_usage_errors(capsys):
    code, _, _ = run(capsys, "series", "f1", "--order", "-2")
    assert code == 2
    code, _, _ = run(capsys, "series", "custom-omega", "--order", "3")
    assert code == 2
    code, _, _ = run(capsys, "series", "custom-omega", "--omega", "1", "1")
    assert code == 2
    code, _, _ = run(capsys, "series", "bogus")
    assert code == 2


def test_series_order_is_capped(capsys):
    # the cap is inclusive; one past it is refused before any series work
    code, out, _ = run(capsys, "series", "phi0", "--order", str(cli.SERIES_ORDER_MAX))
    assert code == 0 and len(out.split(", ")) == cli.SERIES_ORDER_MAX + 1
    code, out, err = run(capsys, "series", "f1", "--order", str(cli.SERIES_ORDER_MAX + 1))
    assert code == 2 and out == "" and "--order" in err


def test_negative_exact_constants_as_option_values(capsys):
    code, out, _ = run(capsys, "series", "custom-omega", "--omega", "0", "-1/2", "--order", "4")
    assert (code, out.strip()) == (0, "0, 1, -1/2, 3/16, -5/96")
    code, out, _ = run(capsys, "eval", "gamma2", "--tau", "1/2", "-1/4", "0")
    payload = json.loads(out)
    assert code == 0
    assert payload["inputs"]["tau"][1] == {"num": -1, "den": 4}
    assert payload["value"] == {"re": -1 / 64, "im": 0.0}
    code, out, _ = run(capsys, "eval", "gamma1", "--c", "-1/2", "-sqrt(2)")
    assert code == 0 and json.loads(out)["inputs"]["c"][0] == {"num": -1, "den": 2}


@pytest.mark.parametrize("argv", [
    ("series", "f1", "--bogus", "-1"),
    ("series", "custom-omega", "--omega", "0", "-x"),
    ("eval", "gamma1", "--c", "1", "--bogus"),
    ("eval", "gamma1", "--c", "-1/2", "-c"),
    ("verify", "gamma1", "--config", "x.cfg"),  # verify searches at its one default config
])
def test_unknown_options_still_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


# --- eval -----------------------------------------------------------------------

def test_eval_hankel_log_case_two(capsys):
    code, out, _ = run(capsys, "eval", "H21_log", "--tau", "0", "1", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"re": -0.0625, "im": 0.0}
    assert payload["magnitude"] == 0.0625


def test_eval_gamma1(capsys):
    code, out, _ = run(capsys, "eval", "gamma1", "--c", "2", "0", "0")
    assert code == 0
    assert json.loads(out)["magnitude"] == 0.5


def test_eval_inverse_hankel_alias(capsys):
    code, out, _ = run(capsys, "eval", "H21_inverse", "--tau", "1", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["functional"] == "H21_log_inverse"
    assert payload["magnitude"] == 0.046875


def test_eval_diff_real_valued(capsys):
    code, out, _ = run(capsys, "eval", "diff_gamma", "--c", "0", "2")
    assert code == 0
    assert json.loads(out)["value"] == 0.25


def test_eval_surd_inputs(capsys):
    code, out, _ = run(capsys, "eval", "H21_inverse", "--c",
                       "sqrt(8/11)", "2", "sqrt(8/11)")
    assert code == 0
    assert json.loads(out)["magnitude"] == pytest.approx(3 / 44, abs=1e-12)


def test_eval_usage_errors(capsys):
    code, _, _ = run(capsys, "eval", "gamma1")
    assert code == 2
    code, _, _ = run(capsys, "eval", "gamma1", "--c", "2", "--tau", "1", "0", "0")
    assert code == 2
    code, _, _ = run(capsys, "eval", "bogus", "--c", "2")
    assert code == 2
    code, _, _ = run(capsys, "eval", "gamma1", "--c", "3")  # violates |c| <= 2
    assert code == 2


@pytest.mark.parametrize("values", [("2", "2", "2", "2"), ("--1/2",), ("1/2", "sqrt(--4)")])
def test_eval_rejects_a_fourth_coefficient_and_a_doubled_minus(capsys, values):
    code, out, _ = run(capsys, "eval", "gamma1", "--c", *values)
    assert code == 2 and out == ""


NON_FINITE = ("nan", "inf", "-inf")


@pytest.mark.parametrize("bad", NON_FINITE)
def test_eval_rejects_non_finite_coefficients(capsys, bad):
    code, out, err = run(capsys, "eval", "gamma1", f"--c={bad}")
    assert code == 2 and out == "" and "finite" in err
    code, out, _ = run(capsys, "eval", "gamma3", "--c", "0", "0", bad)
    assert code == 2 and out == ""
    code, out, err = run(capsys, "eval", "gamma1", "--c", bad)
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("bad", NON_FINITE)
def test_eval_rejects_non_finite_tau(capsys, bad):
    # named as not finite, not as out of range
    for i, taus in enumerate(((bad, "0", "0"), ("0", bad, "0"), ("0", "0", bad))):
        code, out, err = run(capsys, "eval", "H21_log", "--tau", *taus)
        assert code == 2 and out == "", taus
        assert f"tau{i + 1} must be finite, got '{bad}'" in err, taus


@pytest.mark.parametrize("bad", NON_FINITE)
def test_lemma_l41_rejects_non_finite(capsys, bad):
    for params in (("1", bad, "1"), (bad, "1", "1"), ("1", "1", bad)):
        for side in ("plus", "minus"):
            code, out, err = run(capsys, "lemma", "L41", "--", side, *params)
            assert code == 2 and out == "" and "finite" in err, (side, params)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_lemma_l24_rejects_non_finite(capsys, bad):
    # named as not finite, not as outside the hypothesis
    for params in ((bad, "0"), ("1/2", bad)):
        code, out, err = run(capsys, "lemma", "L24", "--", *params)
        assert code == 2 and out == "" and "finite" in err, params


@pytest.mark.parametrize("argv", [
    ("Y", "1e308", "1e308", "1e308"),
    ("L23", "1e308", "--oracle"),
    ("L23", "--", "-1e308"),
    ("L41", "plus", "1e308", "1e308", "1e308"),
    ("L41", "minus", "1e308", "1e308", "1e308"),
    ("Y", "--", "-3e160", "2e160", "1e160"),
])
def test_lemma_rejects_overflowing_results(capsys, argv):
    # finite inputs whose closed form, or a branch condition of Y, overflows
    code, out, err = run(capsys, "lemma", *argv)
    assert code == 2 and out == "" and "finite" in err


HUGE = "1" + "0" * 400  # an exact integer of 401 digits, past the float range
SQRT_HUGE = f"sqrt({HUGE})"  # its square root is a float, but the integer is not
DEEP = 3000  # sqrt( layers, far past the interpreter's recursion limit
# an integer of more digits than the interpreter converts from text
PAST_DIGITS = "1" + "0" * sys.get_int_max_str_digits()
DIGITS_CAUSE = f"integer with more than {sys.get_int_max_str_digits()} digits in "


@pytest.mark.parametrize("argv", [
    ("eval", "gamma1", "--c", HUGE),
    ("eval", "gamma1", "--tau", "0", HUGE, "0"),
    ("lemma", "Y", HUGE, "0", "0"),
    ("lemma", "L23", HUGE),
    ("lemma", "L24", HUGE, "0"),
    ("lemma", "L41", "plus", "1", "1", f"-{HUGE}"),
    ("eval", "gamma1", "--c", SQRT_HUGE),
    ("eval", "gamma1", "--tau", "0", SQRT_HUGE, "0"),
    ("lemma", "Y", SQRT_HUGE, "0", "0"),
    ("series", "custom-omega", "--omega", "0", SQRT_HUGE),
    ("eval", "gamma1", "--c", "sqrt(" * DEEP + HUGE + ")" * DEEP),
    ("lemma", "Y", "sqrt(" * DEEP + "-2" + ")" * DEEP, "0", "0"),
], ids=["eval-c", "eval-tau", "Y", "L23", "L24", "L41", "eval-c-sqrt", "eval-tau-sqrt",
        "Y-sqrt", "series-sqrt", "eval-c-deep-sqrt", "Y-deep-sqrt-negative"])
def test_huge_exact_input_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("text, cause", [
    ("1/0", "zero denominator in '1/0'"),
    ("-1/0", "zero denominator in '-1/0'"),
    ("sqrt(-1)", "sqrt of a negative value in 'sqrt(-1)'"),
    ("-sqrt(-1)", "sqrt of a negative value in '-sqrt(-1)'"),
    (SQRT_HUGE, "sqrt of a value past the float range in 'sqrt(1000"),
    ("sqrt(" * DEEP + HUGE + ")" * DEEP, "sqrt of a value past the float range in 'sqrt(sqrt("),
    (PAST_DIGITS, DIGITS_CAUSE + "'1000"),
    (f"-{PAST_DIGITS}/3", DIGITS_CAUSE + "'-1000"),
    (f"3/{PAST_DIGITS}", DIGITS_CAUSE + "'3/1000"),
    (f"sqrt({PAST_DIGITS})", DIGITS_CAUSE + "'sqrt(1000"),
], ids=["zero-denominator", "negative-zero-denominator", "sqrt-negative",
        "negative-sqrt-negative", "sqrt-huge", "deep-sqrt-huge", "past-digits",
        "negative-past-digits-ratio", "past-digits-denominator", "sqrt-past-digits"])
def test_eval_names_why_a_constant_is_refused(capsys, text, cause):
    # the reason parse_expr gives survives the decimal fallback, and the
    # argument it echoes is cut short; a refused value with a leading minus
    # is still a value, not an option
    code, out, err = run(capsys, "eval", "gamma1", "--c", text)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {cause}") and len(err) < 120


@pytest.mark.parametrize("argv, cause", [
    (("--c", HUGE), "|c1| must be <= 2, got '1000"),
    (("--c", "0", f"-{HUGE}"), "|c2| must be <= 2, got '-1000"),
    (("--tau", "0", HUGE, "0"), "|tau2| must be <= 1, got '1000"),
    (("--tau", "0", "0", f"{HUGE}/3"), "|tau3| must be <= 1, got '1000"),
    (("--tau", HUGE, "0", "0"), "tau1 must lie in [0, 1], got '1000"),
], ids=["c1", "c2", "tau2", "tau3", "tau1"])
def test_eval_cuts_an_oversized_argument_out_of_range(capsys, argv, cause):
    code, out, err = run(capsys, "eval", "gamma1", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {cause}") and err.rstrip().endswith("'...")
    assert len(err) < 120


def test_parse_number_outside_the_grammar_gives_the_hint():
    with pytest.raises(ValueError, match="cannot parse 'abc'; use an integer"):
        parse_number("abc")
    with pytest.raises(ValueError, match=r"cannot parse '1{40}'\.\.\.; use an integer"):
        parse_number("1" * 40 + "x" * 400)


def test_deeply_nested_sqrt_parses(capsys):
    # the sqrt( layers are read in a loop: any depth is a number
    deep = "sqrt(" * DEEP + "4" + ")" * DEEP
    assert parse_expr(deep) == 1.0 and parse_expr(f"-{deep}") == -1.0
    code, out, _ = run(capsys, "eval", "gamma1", "--c", deep)
    assert code == 0 and json.loads(out)["magnitude"] == 0.25


def test_series_takes_a_huge_exact_omega(capsys):
    code, out, _ = run(capsys, "series", "custom-omega", "--omega", "0", HUGE, "--order", "3")
    big = F(int(HUGE))
    assert code == 0 and out.strip() == f"0, 1, {big}, {3 * big * big / 4}"


@pytest.mark.parametrize("fmt, omega1, message", [
    ("dec", HUGE, "the z^2 coefficient is beyond float range"),
    ("frac", "1" + "0" * 3000,
     f"the z^3 coefficient has more than {sys.get_int_max_str_digits()} digits"),
], ids=["dec-past-float-range", "frac-past-digit-limit"])
def test_series_coefficients_without_text_exit_two(tmp_path, capsys, fmt, omega1, message):
    path = tmp_path / "s.json"
    code, out, err = run(capsys, "series", "custom-omega", "--omega", "0", omega1,
                         "--order", "3", "--format", fmt, "--json", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert err == f"error: {message}" + ("; use --format frac\n" if fmt == "dec" else "\n")
    assert "set_int_max_str_digits" not in err


def test_series_overflow_names_the_computation(capsys):
    # a finite float omega whose cosh overflows: the series is blamed, not the input
    code, out, err = run(capsys, "series", "custom-omega", "--omega", "0", "1e308",
                         "--order", "3", "--format", "dec")
    assert code == 2 and out == ""
    assert err == ("error: complex-mode coefficient of z^2 is not finite: "
                   "the series overflows the float range\n")


def test_manifest_refuses_non_finite_json(tmp_path):
    from coeffsharp.cli import _write_manifest

    path = tmp_path / "bad.json"
    with pytest.raises(ValueError):
        _write_manifest(str(path), "eval", {}, "now", {"value": float("nan")})
    assert not path.exists()


# --- verify ---------------------------------------------------------------------

def test_verify_single_with_config_and_json(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "gamma2", "--json", str(out_json))
    assert code == 0
    assert "1/1 passed" in out

    text = out_json.read_text()
    payload = json.loads(text)
    assert payload["schema"] == 3
    # verify always searches at the defaults, and records them
    assert payload["config"] == DEFAULT_CONFIG
    assert payload["results"][0]["theorem"] == "gamma2"
    assert payload["results"][0]["passed"] is True
    # byte-identical round trip
    assert json.dumps(payload, indent=2) + "\n" == text


def test_verify_results_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "verify", "diff_gamma_lower", "--json", str(p))
        assert code == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert a["config"] == b["config"] == DEFAULT_CONFIG
    assert a["results"] == b["results"]


GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_all_results_match_the_golden_file(tmp_path, capsys, name):
    # made by the scan/refine loop that rebuilt each window with linspace and
    # np.unique, and np.polyval per polynomial: the results must not move by
    # a bit.  The evaluation counts are those of the loop that scans each
    # window's linspace points, repeated floats included, and stops at the
    # first collapsed window; they differ from the first loop's only where
    # a window held repeated floats or had collapsed.  The default is the
    # command's own search; the other entries, refinement_rounds=40 through
    # collapsed windows among them, are library configs.  No numpy warning
    # may leak.
    overrides = GOLDEN[name]["overrides"]
    if overrides:
        got = [cli._report_json(rep) for rep in verify_all(SearchConfig(**overrides))]
    else:
        out_json = tmp_path / "v.json"
        code, _, _ = run(capsys, "verify", "all", "--json", str(out_json))
        assert code == 0
        got = json.loads(out_json.read_text())["results"]
    assert json.dumps(got) == json.dumps(GOLDEN[name]["results"])


SERIES_GOLDEN = json.loads((Path(__file__).parent / "data" / "series_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(SERIES_GOLDEN))
def test_series_results_match_the_golden_file(tmp_path, capsys, name):
    # made by the series engine that summed each coefficient's terms as
    # Fractions one by one, in both modes: not a bit may move
    out_json = tmp_path / "s.json"
    code, _, _ = run(capsys, *SERIES_GOLDEN[name]["args"], "--json", str(out_json))
    assert code == 0
    got = json.loads(out_json.read_text())["results"]
    assert json.dumps(got) == json.dumps(SERIES_GOLDEN[name]["results"])


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2 and "unknown theorem" in err


def test_verify_failed_attainment_exits_one(monkeypatch, capsys):
    # a grid this coarse undershoots the off-grid minimum of the inverse
    # moduli difference: sound but not attained, so the command reports it
    coarse = SearchConfig(grid_tau1=31, grid_r=9, grid_theta=24, refinement_rounds=3)
    search = verifier.verify
    monkeypatch.setattr(verifier, "verify", lambda theorem_id, cfg: search(theorem_id, coarse))
    code, out, _ = run(capsys, "verify", "diff_Gamma_lower")
    assert code == 1
    assert "\nFAILED: {" in out and "0/1 passed" in out


def test_verify_unwritable_json_exits_two(tmp_path, capsys):
    # every command writes its report before it prints, so exit 2 prints nothing
    path = str(tmp_path / "no" / "dir" / "x.json")
    for argv in (("series", "f1", "--order", "4"), ("eval", "gamma1", "--c", "2"),
                 ("verify", "gamma1"), ("lemma", "Y", "--oracle", "-0.2", "0.5", "0.3")):
        code, out, err = run(capsys, *argv, "--json", path)
        assert code == 2 and out == "" and "cannot write" in err, argv


@pytest.mark.parametrize("key", ["grid_r", "grid_theta"])
def test_verify_polar_grid_below_two_exits_two(monkeypatch, capsys, key):
    # the command builds its SearchConfig at run time: a polar grid below 2 is
    # refused there, and the refusal exits 2 before any search prints
    monkeypatch.setattr(verifier, "SearchConfig", lambda: SearchConfig(**{key: 1}))
    code, out, err = run(capsys, "verify", "all")
    assert code == 2 and out == "" and f"{key} must be >= 2" in err


# --- lemma ----------------------------------------------------------------------

def test_lemma_y_with_oracle(tmp_path, capsys):
    path = tmp_path / "y.json"
    code, out, _ = run(capsys, "lemma", "Y", "--oracle", "--json", str(path),
                       "--", "-0.2", "0.5", "0.3")
    assert code == 0
    closed = float(out.split("closed form: ")[1].split()[0])
    oracle = float(out.split("oracle: ")[1].split()[0])
    assert abs(closed - oracle) <= 1e-12 * max(1.0, abs(closed))
    # the oracle's counts are fixed, so the envelope has no config to record
    payload = json.loads(path.read_text())
    assert (payload["schema"], payload["config"]) == (3, {})
    assert payload["results"]["oracle"] == oracle


@pytest.mark.parametrize("params, line", [
    (("-1", "0", "1e-200"), "closed form: 2.0  (branch ii.parabola-plus)"),
    (("-1e300", "0", "1e10"), "closed form: 1e+300  (branch R.sqrt)"),
    (("-1e-200", "1e-30", "1e-150"), "closed form: 1.0  (branch ii.parabola-plus)"),
    (("-0.5", "1e17", "0.5"), "closed form: 1e+17  (branch R.sqrt)"),
])
def test_lemma_y_past_the_float_range(capsys, params, line):
    # branch quantities that underflow, overflow or absorb a smaller term, but
    # still decide the branch
    code, out, err = run(capsys, "lemma", "Y", "--", *params)
    assert (code, out.strip(), err) == (0, line, "")
    # the separator is optional: a negative constant is never read as an option
    assert run(capsys, "lemma", "Y", *params) == (code, out, err)


# the oracles scan at fixed counts: --grid and --samples are unknown options,
# refused at every value, the former defaults (200 radii, 48 and 21 samples)
# included

@pytest.mark.parametrize("grid", ["99", "2001", "100000"])
def test_lemma_y_grid_out_of_range_exits_two(capsys, grid):
    code, out, err = run(capsys, "lemma", "Y", "0.1", "0.2", "0.3", "--oracle", "--grid", grid)
    assert code == 2 and out == "" and "unrecognized arguments: --grid" in err


@pytest.mark.parametrize("argv", [("L23", "1/4", "--oracle"), ("L24", "1/4", "0")])
@pytest.mark.parametrize("samples", ["1", "0", "-3"])
def test_lemma_samples_below_two_exit_two(capsys, argv, samples):
    code, out, err = run(capsys, "lemma", *argv, "--samples", samples)
    assert code == 2 and out == "" and "unrecognized arguments: --samples" in err


@pytest.mark.parametrize("argv", [("L23", "1/4", "--oracle"), ("L24", "1/4", "0")])
@pytest.mark.parametrize("samples", ["100001", "1000000000"])
def test_lemma_samples_above_the_cap_exit_two(capsys, argv, samples):
    code, out, err = run(capsys, "lemma", *argv, "--samples", samples)
    assert code == 2 and out == "" and "unrecognized arguments: --samples" in err


@pytest.mark.parametrize("argv", [
    ("Y", "--oracle", "--grid", "200", "--", "-0.2", "0.5", "0.3"),
    ("L23", "--oracle", "--samples", "48", "1/4"),
    ("L24", "--samples", "21", "1/4", "0"),
], ids=["Y-grid-200", "L23-samples-48", "L24-samples-21"])
def test_lemma_count_options_exit_two_at_their_former_defaults(capsys, argv):
    code, out, err = run(capsys, "lemma", *argv)
    assert code == 2 and out == "" and "unrecognized arguments" in err


def test_lemma_l23(capsys):
    code, out, _ = run(capsys, "lemma", "L23", "0.25")
    assert code == 0 and out.strip().startswith("bound: 2.0")


def test_lemma_l41_plus(capsys):
    code, out, _ = run(capsys, "lemma", "L41", "plus", "0.25", "-0.03125", "0.125")
    assert code == 0 and "bound: 0.25" in out


@pytest.mark.parametrize("argv, lines, keys", [
    (("L23", "--oracle", "1/4"),
     ["bound: 2.0", "oracle: 2.0  |difference|: 0.000e+00"],
     {"lemma", "inputs", "bound", "oracle", "discrepancy"}),
    (("L24", "1/4", "0"),
     ["empirical max: 2.0  <= 2 (pass)"],
     {"lemma", "inputs", "empirical_max", "passed"}),
    (("L41", "--oracle", "plus", "1/4", "-0.03125", "1/8"),
     ["bound: 0.25", "oracle extreme: 0.25  |difference|: 0.000e+00"],
     {"lemma", "side", "inputs", "bound", "oracle_min", "oracle_max", "discrepancy"}),
], ids=["L23-oracle", "L24", "L41-oracle"])
def test_lemma_readme_examples_print_and_report(tmp_path, capsys, argv, lines, keys):
    path = tmp_path / "lemma.json"
    code, out, err = run(capsys, "lemma", *argv, "--json", str(path))
    assert (code, out.splitlines(), err) == (0, lines, "")
    results = json.loads(path.read_text())["results"]
    assert results.keys() == keys
    assert results["lemma"] == argv[0]


@pytest.mark.parametrize("argv", [("--oracle", "1/4", "0"), ("1/4", "0", "--oracle"),
                                  ("--oracle", "0.9", "0.95")])
def test_lemma_l24_refuses_an_oracle(tmp_path, capsys, argv):
    # its check is itself a scan: --oracle would add nothing, so it is refused,
    # before the check runs and before a report is written
    path = tmp_path / "lemma.json"
    code, out, err = run(capsys, "lemma", "L24", *argv, "--json", str(path))
    assert (code, out) == (2, "")
    assert err == "error: lemma L24 takes no --oracle: its check is its own scan\n"
    assert not path.exists()


def test_lemma_l24_hypothesis_violation(capsys):
    code, _, err = run(capsys, "lemma", "L24", "0.9", "0.95")
    assert code == 2 and "hypothesis" in err


def test_lemma_usage_errors(capsys):
    assert run(capsys, "lemma", "Y", "1")[0] == 2
    assert run(capsys, "lemma", "L41", "up", "1", "1", "1")[0] == 2
    assert run(capsys, "lemma", "bogus", "1")[0] == 2


def test_manifest_embeds_config_and_version(tmp_path, capsys):
    out_json = tmp_path / "lemma.json"
    code, _, _ = run(capsys, "lemma", "L23", "1/4", "--json", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["command"] == "lemma"
    assert payload["tool_version"]
    assert payload["started"] <= payload["finished"]
    assert payload["results"]["bound"] == 2.0
