"""Command-line surface: parsing, subcommands, exit codes, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import picardfuchs
from picardfuchs.bipoly import X, Y
from picardfuchs.cli import main
from picardfuchs.errors import ParseError
from picardfuchs.parsing import MAX_DEGREE, MAX_NESTING, parse_polynomial
from picardfuchs import periods
from picardfuchs.periods import MAX_STEP
from picardfuchs.sampling import MAX_SAMPLES, MIN_SAMPLES


def test_parse_examples():
    quintic = parse_polynomial("x^5+y^5+x^2*y^2+x+y")
    assert quintic == X**5 + Y**5 + X**2 * Y**2 + X + Y
    assert parse_polynomial("x^2 + y^2") == X**2 + Y**2
    assert parse_polynomial("3/2 x y - y^3") == Fraction(3, 2) * X * Y - Y**3


def test_parse_implicit_and_parens():
    assert parse_polynomial("x^2y^2") == X**2 * Y**2
    assert parse_polynomial("2(x+y)") == 2 * X + 2 * Y
    assert parse_polynomial("(x+y)^2") == (X + Y) ** 2
    assert parse_polynomial("-x^2") == -(X**2)
    assert parse_polynomial("  - 3 x ") == -3 * X


@pytest.mark.parametrize("text", [
    "x - x", "2*x*y - x*y - x*y + 1", "-x + x - 1/2 + 1/2", "1/3*x - 1/6*x - 1/6*x + y^2",
    "-(x - y)^2 + x^2 + y^2", "3/4 - (x + 1/4)*2 + 2x", "x^3 + y^3 - 3*x*y - x^3 - y^3",
])
def test_sums_that_cancel_match_sympy(text):
    # the sum of the products is formed once; terms that cancel, to zero too, leave no zero term
    p = parse_polynomial(text)
    assert all(c != 0 for c in p.terms.values())
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    expected = sympy.Poly(sympy.sympify(text.replace("^", "**").replace("2x", "2*x")), x, y, domain="QQ")
    assert p.terms == {m: Fraction(int(c.p), int(c.q)) for m, c in expected.terms() if c}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^5 + z")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_polynomial("x^(2)")
    with pytest.raises(ParseError):
        parse_polynomial("x/2")
    with pytest.raises(ParseError):
        parse_polynomial("x +")


def test_exponent_is_an_integer_literal(capsys):
    # 3/3 and 4/2 are one rational literal each, of integer value; as exponents they are input errors
    for text in ("x^3/3+y^3/3-x*y", "x^4/2+y^4"):
        assert main(["--json-errors", "check", text]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ParseError" and doc["position"] == 2
        assert "1/2*x^2" in doc["message"]
    assert parse_polynomial("x^2*1/2") == Fraction(1, 2) * X**2
    assert parse_polynomial("3/2*x^2") == Fraction(3, 2) * X**2


def test_prefix_minus_negates_the_power_after_it():
    assert parse_polynomial("y^2+2*-x^2") == Y**2 - 2 * X**2
    assert parse_polynomial("x^3+y^3+-x^2") == X**3 + Y**3 - X**2
    assert parse_polynomial("x*--y^3") == X * Y**3
    assert parse_polynomial("(-x)^2") == X**2
    # powers do not chain, with a sign before them or not
    for text, position in (("x^2^3", 3), ("-x^2^3", 4), ("2*-x^2^3", 6)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    ("x^3+y^3+x\u0663", 9),  # ARABIC-INDIC DIGIT THREE, which str.isdigit accepts
    ("x\u00b2+y^3", 1),  # SUPERSCRIPT TWO, which int() rejects
], ids=["arabic-indic", "superscript"])
def test_only_ascii_digits_are_numbers(text, position, capsys):
    assert main(["check", text]) == 2
    assert capsys.readouterr().out == ""
    assert main(["--json-errors", "check", text]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ParseError" and doc["position"] == position
    assert "is not one of the ASCII digits 0-9" in doc["message"]


def test_literal_longer_than_the_int_conversion_limit_is_a_parse_error(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert parse_polynomial("9" * 4300 + "*x") == int("9" * 4300) * X
        long = "9" * 4301
        for text, position in ((f"x^3+y^3+{long}*x", 8), (f"x^3+y^3+1/{long}*x", 10)):
            assert main(["--json-errors", "check", text]) == 2
            doc = json.loads(capsys.readouterr().err)
            assert doc["error"] == "ParseError" and doc["position"] == position
            assert "longer than the 4300 digits" in doc["message"]
    finally:
        sys.set_int_max_str_digits(limit)


def test_nesting_limit_is_an_input_error(capsys):
    # parentheses and prefix signs each recurse once per level
    for depth, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
        assert main(["check", "(" * depth + "x^3+y^3" + ")" * depth]) == code
        assert main(["check", "x^3+y^3+" + "-" * depth + "x"]) == code
    assert capsys.readouterr().err.count(f"nest deeper than {MAX_NESTING} levels") == 2


def test_size_cap_is_an_input_error(capsys):
    # exactly at the cap is accepted; one past it, through a power or a
    # product, is a parse failure at the exponent or the factor
    assert main(["check", f"x^{MAX_DEGREE}+y^{MAX_DEGREE}"]) == 0
    assert parse_polynomial(f"x^{MAX_DEGREE - 1}*y").degree() == MAX_DEGREE
    capsys.readouterr()
    power = f"x^{MAX_DEGREE + 1}+y"
    product = f"x^{MAX_DEGREE}*y"
    for text, position in ((power, 2), (product, len(product) - 1),
                           (f"(x+y)^{MAX_DEGREE}(x+1)", len(f"(x+y)^{MAX_DEGREE}"))):
        assert main(["--json-errors", "check", text]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ParseError"
        assert doc["position"] == position
        assert f"above the cap {MAX_DEGREE}" in doc["message"]


def test_check_rejection_exit_code(capsys):
    code = main(["check", "y^2+x^3-x"])
    out = capsys.readouterr().out
    assert code == 2
    assert "repeated factor" in out
    assert "x^3" in out


def test_check_not_regular_reports_the_reason(capsys):
    # the report on stdout, then the reason as every other input error has it
    reason = "highest homogeneous part x^3 has a repeated factor"
    for fmt in ("text", "json"):
        assert main(["--json-errors", "check", "y^2+x^3-x", "--format", fmt]) == 2
        flagged = capsys.readouterr()
        assert json.loads(flagged.err) == {"error": "NotRegularError", "message": reason}
        assert main(["check", "y^2+x^3-x", "--format", fmt]) == 2
        plain = capsys.readouterr()
        assert plain.out == flagged.out and reason in plain.out
        assert plain.err == f"error: {reason}\n"


def test_check_accepts_quintic(capsys):
    code = main(["check", "x^5+y^5+x^2y^2+x+y", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["regular"] is True and doc["n"] == 4 and doc["mu"] == 16


def test_basis_listing(capsys):
    code = main(["basis", "x^3+y^3-3xy", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(e["a"], e["b"]) for e in doc["basis"]] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_system_json_golden_entry(capsys):
    code = main(["system", "x^5+y^5+x^2y^2+x+y", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    basis = [(e["a"], e["b"]) for e in doc["basis"]]
    row = doc["B1"][basis.index((3, 3))]
    assert row[basis.index((0, 0))] == "1/175"
    assert {v for j, v in enumerate(row) if j != basis.index((0, 0))} == {"0"}
    assert doc["classification"]["infinity_fuchsian_form"] is False
    assert all(doc["validation"].values())


def test_system_json_sparse_septic(capsys):
    # mu 36: the Yun split of char_poly(A) runs on a degree-36 polynomial
    # with large coefficients
    code = main(["system", "x^7+y^7+x^2y^4+x+2y", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["mu"] == 36
    assert all(doc["validation"].values()), doc["validation"]
    assert doc["classification"]["finite_fuchsian"] is True


def test_system_out_file(tmp_path, capsys):
    target = tmp_path / "system.json"
    code = main(["system", "x^2+y^2", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["A"] == [["0"]]


def test_reduce_command(capsys):
    code = main(["reduce", "x^2+y^2", "--form", "y,0", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["p"] == ["-1"]
    assert doc["zero_class"] is False


def test_verify_numeric(capsys):
    code = main(["verify", "x^3+y^3-3xy", "--numeric", "--t", "-0.5", "--seed", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectrum_ok: pass" in out
    assert "residual at t = -0.5" in out


def test_verify_fails_on_bad_residual_tol(capsys):
    code = main(["verify", "x^3+y^3-3xy", "--numeric", "--t", "-0.5",
                 "--seed", "1,1", "--residual-tol", "1e-18"])
    assert code == 1


def test_periods_command_and_cycle_file(tmp_path, capsys):
    cycle_file = tmp_path / "cycle.json"
    code = main(["periods", "x^2+y^2", "--t", "1", "--seed", "1,0",
                 "--out-cycle", str(cycle_file)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["residual"] < 1e-10
    assert abs(doc["I"][0][0] - 3.14159265358979) < 1e-9
    stored = json.loads(cycle_file.read_text())
    assert set(stored) == {"t", "samples"}

    # the file carries the level, so --cycle needs no --t and no --seed
    code = main(["periods", "x^2+y^2", "--cycle", str(cycle_file)])
    doc2 = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc2["I"][0][0] - doc["I"][0][0]) < 1e-12
    assert {k: doc2[k] for k in ("t", "I", "Idot", "residual", "samples")} == \
        {k: doc[k] for k in ("t", "I", "Idot", "residual", "samples")}


@pytest.mark.parametrize("argv, message", [
    (["--t", "1", "--cycle", "c.json"], "--t and --seed trace a cycle; give neither with --cycle"),
    (["--seed", "1,0", "--cycle", "c.json"], "--t and --seed trace a cycle; give neither with --cycle"),
    (["--t", "1", "--seed", "1,0", "--cycle", "c.json"], "--t and --seed trace a cycle; give neither with --cycle"),
    (["--seed", "1,0"], "the following arguments are required: --t"),
    (["--t", "1"], "the following arguments are required: --seed"),
    ([], "the following arguments are required: --t, --seed"),
], ids=["t-with-cycle", "seed-with-cycle", "both-with-cycle", "no-t", "no-seed", "neither"])
def test_periods_level_flags_only_when_tracing(argv, message, capsys):
    argv = ["periods", "x^2+y^2", *argv]
    assert main(["--json-errors", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc == {"error": "UsageError", "message": message}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("samples", ["0", "-3", str(MIN_SAMPLES - 1), str(MAX_SAMPLES + 1)])
@pytest.mark.parametrize("verb", [
    ["periods", "x^3+y^3", "--t", "1", "--seed", "2,-1.26", "--mode", "x_loop"],
    ["verify", "x^3+y^3", "--numeric", "--t", "1", "--seed", "2,-1.26", "--mode", "x_loop"],
], ids=["periods", "verify"])
def test_samples_out_of_range_are_usage_errors(verb, samples, capsys):
    message = f"argument --samples: must be between {MIN_SAMPLES} and {MAX_SAMPLES}, got {samples}"
    assert main(["--json-errors", *verb, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "UsageError", "message": message}
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--samples", samples])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n") and "Warning" not in err


@pytest.mark.parametrize("turns", ["0", "-2"])
@pytest.mark.parametrize("verb", [
    ["periods", "x^3+y^3-3xy", "--t", "-0.5", "--seed", "1,1", "--mode", "x_loop"],
    ["verify", "x^3+y^3-3xy", "--numeric", "--t", "-0.5", "--mode", "x_loop"],
], ids=["periods", "verify"])
def test_loop_turns_below_one_are_usage_errors(verb, turns, capsys):
    message = f"argument --loop-turns: must be at least 1, got {turns}"
    assert main(["--json-errors", *verb, "--loop-turns", turns]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "UsageError", "message": message}
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--loop-turns", turns])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"error: {message}\n")


def test_minimum_samples_are_accepted(capsys):
    code = main(["periods", "x^3+y^3", "--t", "1", "--seed", "2,-1.26", "--mode", "x_loop",
                 "--samples", str(MIN_SAMPLES)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["samples"] == MIN_SAMPLES


@pytest.mark.parametrize("verb", [
    ["periods", "x^3+y^3", "--t", "1", "--seed", "2,-1.26", "--mode", "x_loop"],
    ["verify", "x^3+y^3", "--numeric", "--t", "1", "--seed", "2,-1.26", "--mode", "x_loop"],
], ids=["periods", "verify"])
def test_x_loop_needs_the_minimum_samples_per_turn(verb, capsys):
    # 512 samples over 100 turns put consecutive samples 70 degrees apart on the
    # circle; the lift they sample read as a residual FAIL of a correct system
    assert main([*verb, "--loop-center", "0", "--loop-turns", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: x_loop needs at least {100 * MIN_SAMPLES} samples, got 512: "
                            f"{MIN_SAMPLES} per turn over 100 turns\n")


def test_periods_real_oval_at_large_level(capsys):
    code = main(["periods", "x^2+y^2", "--t", "10000", "--seed", "100,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["I"][0][0] - math.pi * 1e4) < 1e-9 * math.pi * 1e4


def test_periods_small_oval_is_traced_once(capsys):
    # the first step, MAX_STEP, is longer than this oval's radius; the period is the area, not twice it
    code = main(["periods", "x^2+y^2", "--t", "0.001", "--seed", "0.0316,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["I"][0][0] - math.pi * 1e-3) < 1e-9 * math.pi * 1e-3


def test_periods_x_loop_mode(capsys):
    code = main(["periods", "x^3+y^3", "--t", "1", "--seed", "2,-1.26",
                 "--mode", "x_loop", "--loop-center", "0", "--loop-turns", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["residual"] < 1e-8
    # the infinity loop pairs with the two degree-3 forms: periods +-(2 pi/3) i
    assert abs(abs(doc["I"][1][1]) - 2.0943951023931953) < 1e-8


def test_json_errors_flag(capsys):
    code = main(["--json-errors", "system", "x^5 + w"])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.err)
    assert doc["error"] == "ParseError"
    assert doc["position"] == 6


def test_json_errors_cover_usage_errors(capsys):
    # rejected by the main parser, by a subcommand's parser, and removed flags
    # (a radius and tracing tolerances); without --json-errors argparse exits as before
    cases = (
        (["check", "--bogus", "x^2+y^2"], "unrecognized arguments: --bogus"),
        (["verify", "x^2+y^2", "--samples", "abc"], "argument --samples: invalid int value: 'abc'"),
        (["periods", "x^2+y^2", "--t", "1", "--seed", "1,0", "--cluster-radius", "1e-6"],
         "unrecognized arguments: --cluster-radius 1e-6"),
        (["verify", "x^2+y^2", "--max-step", "0.1"], "unrecognized arguments: --max-step 0.1"),
        (["periods", "x^2+y^2", "--t", "1", "--seed", "1,0", "--newton-tol", "1e-9"],
         "unrecognized arguments: --newton-tol 1e-9"),
        (["periods", "x^2+y^2", "--t", "1", "--seed", "1,0", "--noncritical-tol", "0"],
         "unrecognized arguments: --noncritical-tol 0"),
    )
    for argv, message in cases:
        assert main(["--json-errors", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "UsageError", "message": message}
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["periods", "x^2+y^2", "--t", "nan", "--seed", "1,0"],
    ["periods", "x^2+y^2", "--t", "inf", "--seed", "1,0"],
    ["periods", "x^2+y^2", "--t", "1", "--seed", "nan,0"],
    ["verify", "x^2+y^2", "--numeric", "--t", "1", "--seed", "1,0", "--residual-tol", "nan"],
], ids=["t-nan", "t-inf", "seed-nan", "residual-tol-nan"])
def test_non_finite_numbers_are_usage_errors(argv, capsys):
    assert main(["--json-errors", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "UsageError"
    assert "not a finite number" in doc["message"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a finite number" in err and "Warning" not in err


@pytest.mark.parametrize("argv, position", [
    (["check", "1/0+x^2+y^2"], 0),
    (["check", "x^2+y^2+3/00"], 8),
    (["reduce", "x^3+y^3", "--form", "1/0,y"], 0),
], ids=["check", "check-zeros", "reduce-form"])
def test_zero_denominator_is_a_parse_error(argv, position, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "zero denominator in a rational literal" in captured.err
    assert main(["--json-errors", *argv]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ParseError" and doc["position"] == position


@pytest.mark.parametrize("argv, reason", [
    (["periods", "x^2+y^2", "--t", "1", "--seed", "1e300,0"], "float overflow while walking the real oval"),
    (["verify", "x^2+y^2", "--numeric", "--t", "1e300", "--seed", "1,0"], "float overflow while walking the real oval"),
], ids=["periods", "verify"])
def test_float_overflow_while_tracing_is_an_input_error(argv, reason, capsys):
    # H overflows at the seed or on the first Newton step: no traceback, no warnings
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "x^3+y^3", "--numeric", "--t", "1e300", "--seed", "2,-1.26", "--mode", "x_loop", "--loop-center", "0"],
    ["periods", "x^3+y^3", "--t", "1e200", "--seed", "1e100,-1e100", "--mode", "x_loop", "--loop-center", "0"],
], ids=["verify", "periods"])
def test_float_overflow_in_the_quadrature_is_declined(argv, capsys):
    # the cycles trace, but |H_y|^2 (and in periods the integrands) leave the float range:
    # exit 2 with the level, not a residual FAIL beside passing exact checks or NaN in the JSON
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: float overflow in the quadrature on the level t = 1e+")
    assert "Warning" not in captured.err


def test_overflowing_x_loop_fiber_is_an_input_error(capsys):
    # the fiber coefficients at x = 1e300 overflow before any eigenvalue call
    assert main(["periods", "x^3+y^3", "--t", "1", "--seed", "1e300,0", "--mode", "x_loop"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Warning" not in captured.err
    assert "fiber of H(x, .) = t overflows float arithmetic at x = (1e+300+0j)" in captured.err


def test_real_oval_lap_budget_ends_the_search_at_once(monkeypatch, capsys):
    # the circle of radius 1000 needs about 125000 steps of 0.05: the first lap
    # spends the whole budget, and halving the step would only spend it again
    monkeypatch.setattr(periods, "MAX_STEPS", 2000)
    steps = []
    explore = periods._explore
    monkeypatch.setattr(periods, "_explore", lambda *args: steps.append(args[-1]) or explore(*args))
    assert main(["periods", "x^2+y^2", "--t", "1e6", "--seed", "1000,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "within the budget of 2000 steps of length 0.05" in captured.err
    assert steps == [MAX_STEP]


def _assert_newton_stall_ends_the_search_at_once(t, seed, point, tolerance, monkeypatch, capsys):
    steps = []
    explore = periods._explore
    monkeypatch.setattr(periods, "_explore", lambda *args: steps.append(args[-1]) or explore(*args))
    start = time.perf_counter()
    assert main(["periods", "x^3+y^3-3*x*y", "--t", t, "--seed", seed]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: Newton correction stalls at {point}")
    assert "float rounding of H" in captured.err and f"at least the tolerance {tolerance}" in captured.err
    assert steps == [MAX_STEP]
    assert elapsed < 1.0


def test_real_oval_newton_stall_in_rounding_ends_the_search_at_once(monkeypatch, capsys):
    # the t = 0.5 branch through the seed is unbounded; near (-13.8, 12.8) the float
    # rounding of H's terms exceeds the Newton tolerance 1e-12 at every step size
    _assert_newton_stall_ends_the_search_at_once("0.5", "2,0", "(-13.", "1e-12", monkeypatch, capsys)


def test_newton_stall_is_bounded_by_the_rounding_of_the_sum(monkeypatch, capsys):
    # the t = 5 branch follows the asymptote x + y = -1; at (-22.06, 21.06) the rounding
    # bound of one term, 4.77e-12, stays under the tolerance 5e-12 and ten laps walked
    # on, while the bound of the sum of H's terms, 1.43e-11, ends the first lap
    _assert_newton_stall_ends_the_search_at_once("5", "2,2", "(-22.", "5e-12", monkeypatch, capsys)


def test_real_oval_step_below_float_spacing_ends_the_search_at_once(capsys):
    # a step of 0.05 cannot move x = 1e150 (float spacing about 1e134): the
    # search stops at the seed instead of walking the whole budget in y
    start = time.perf_counter()
    assert main(["periods", "x^2+y^2", "--t", "1e300", "--seed", "1e150,0"]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: step 0.05 is below the float spacing at the seed (1e+150, 0); "
                            "no lap can move that coordinate\n")
    assert elapsed < 0.5


def test_verify_numeric_needs_a_level(capsys):
    message = "--numeric needs at least one --t level value"
    assert main(["--json-errors", "verify", "x^2+y^2", "--numeric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "UsageError", "message": message}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "x^2+y^2", "--numeric"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_verify_level_needs_numeric(capsys):
    message = "--t needs --numeric; without it no level is traced"
    assert main(["--json-errors", "verify", "x^2+y^2", "--t", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "UsageError", "message": message}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "x^2+y^2", "--t", "0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_file_errors_exit_2_with_a_reason(tmp_path, capsys):
    def document(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    sample = {"x": [1.0, 0.0], "y": [0.0, 0.0]}
    periods = ["periods", "x^2+y^2"]
    unwritable = str(tmp_path / "no_such_directory" / "out.json")
    cases = (
        ([*periods, "--cycle", str(tmp_path / "missing.json")],
         "FileNotFoundError", "missing.json"),
        ([*periods, "--cycle", document("no_t.json", {"samples": [sample] * 16})],
         "ValueError", "KeyError('t')"),
        ([*periods, "--cycle", document("no_samples.json", {"t": [1.0, 0.0]})],
         "ValueError", "KeyError('samples')"),
        ([*periods, "--cycle", document("empty.json", {"t": [1.0, 0.0], "samples": []})],
         "ValueError", "has 0 samples"),
        ([*periods, "--cycle", document("short.json", {"t": [1.0, 0.0], "samples": [sample] * 8})],
         "ValueError", "has 8 samples; the quadrature needs at least 9"),
        # 33 samples on the upper half of the unit circle: the path does not close
        ([*periods, "--cycle", document("half.json", {"t": [1.0, 0.0], "samples": [
            {"x": [math.cos(math.pi * k / 32), 0.0], "y": [math.sin(math.pi * k / 32), 0.0]}
            for k in range(33)]})],
         "ValueError", "the cycle document is an open path"),
        ([*periods, "--cycle", document("nan.json", {"t": [1.0, 0.0], "samples":
                                                    [{"x": [math.nan, 0.0], "y": [0.0, 0.0]}] * 16})],
         "NumericalFailure", "leave the level curve by nan"),
        # every sample the same point of the circle: on the curve, but encloses nothing
        ([*periods, "--cycle", document("one_point.json", {"t": [1.0, 0.0], "samples": [sample] * 16})],
         "ValueError", "samples are all one point"),
        # H overflows at the samples
        ([*periods, "--cycle", document("huge.json", {"t": [1.0, 0.0], "samples":
                                                     [{"x": [1e200, 0.0], "y": [0.0, 0.0]}] * 16})],
         "NumericalFailure", "leave the level curve by"),
        (["system", "x^2+y^2", "--out", unwritable], "FileNotFoundError", "out.json"),
        (["system", "x^2+y^2", "--out", str(tmp_path)], "IsADirectoryError", str(tmp_path)),
        ([*periods, "--t", "1", "--seed", "1,0", "--out-cycle", unwritable],
         "FileNotFoundError", "out.json"),
    )
    for argv, error, fragment in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err, err
        assert main(["--json-errors", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        doc = json.loads(captured.err)
        assert doc["error"] == error and fragment in doc["message"], doc


def test_critical_t_is_input_error(capsys):
    code = main(["periods", "x^2+y^2", "--t", "0", "--seed", "0,0"])
    assert code == 2


def _python(*args):
    """Run a child interpreter that imports the same picardfuchs as this one."""
    src = os.path.dirname(os.path.dirname(picardfuchs.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_cli_deterministic_bytes():
    cmd = ["-m", "picardfuchs.cli", "system", "x^3+y^3-3xy", "--format", "json"]
    first = _python(*cmd).stdout
    second = _python(*cmd).stdout
    assert first == second
    doc = json.loads(first.decode())
    assert doc["mu"] == 4


def test_leading_minus_is_a_hamiltonian(capsys):
    assert main(["check", "-x^2+y^2"]) == 0
    assert "H = -x^2 + y^2" in capsys.readouterr().out
    assert main(["system", "-x^2+y^2"]) == 0
    assert json.loads(capsys.readouterr().out)["hamiltonian"] == "-x^2 + y^2"
    assert main(["reduce", "x^2+y^2", "--form", "-y,x"]) == 0
    assert main(["--json-errors", "check", "-x^2+"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
    with pytest.raises(SystemExit) as exc:
        main(["check", "--bogus", "x^2+y^2"])
    assert exc.value.code == 2


def test_system_command_does_not_import_scipy():
    script = (
        "import sys\n"
        "from picardfuchs.cli import main\n"
        "code = main(['system', 'x^3+y^3-3xy'])\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        "sys.exit(code)\n"
    )
    done = _python("-c", script)
    assert done.stderr.decode() == "[]"


def test_exact_library_calls_do_not_import_numpy():
    script = (
        "import sys\n"
        "import picardfuchs\n"
        "from picardfuchs import (OneForm, monomial_basis, parse_polynomial, petrov_decompose,\n"
        "                         reduce_mod_gradient)\n"
        "H = parse_polynomial('x^3+y^3-3xy')\n"
        "basis = monomial_basis(H)\n"
        "reduction = reduce_mod_gradient(parse_polynomial('x^3*y'), basis)\n"
        "dec = petrov_decompose(OneForm(parse_polynomial('x^2*y'), parse_polynomial('2*y^3')), basis)\n"
        "assert basis.mu == 4 and not dec.is_zero_class()\n"
        "sys.stderr.write(repr('numpy' in sys.modules))\n"
    )
    assert _python("-c", script).stderr.decode() == "False"


@pytest.mark.parametrize("argv, loads_numpy", [
    (["check", "x^3+y^3-3xy"], False),
    (["basis", "x^3+y^3-3xy"], False),
    (["reduce", "x^3+y^3-3xy", "--form", "x^2*y,2*y^3"], False),
    (["system", "x^3+y^3-3xy"], True),
], ids=["check", "basis", "reduce", "system"])
def test_numpy_loads_only_for_the_float_layer_commands(argv, loads_numpy):
    # check, basis and reduce, in text and in json, run on the exact modules;
    # system loads numpy, so the probe is seen to work
    script = (
        "import sys\n"
        "from picardfuchs.cli import main\n"
        "formats = [[], ['--format', 'json']] if sys.argv[1] != 'system' else [[]]\n"
        "codes = [main(sys.argv[1:] + extra) for extra in formats]\n"
        "sys.stderr.write(repr('numpy' in sys.modules))\n"
        "sys.exit(max(codes))\n"
    )
    assert _python("-c", script, *argv).stderr.decode() == repr(loads_numpy)


def test_numpy_fft_loads_on_first_resampled_oval():
    script = (
        "import sys\n"
        "from picardfuchs.cli import main\n"
        "loaded = 'numpy.fft' in sys.modules\n"
        "code = main(['periods', 'x^2+y^2', '--t', '1', '--seed', '1,0'])\n"
        "sys.stderr.write(repr((loaded, 'numpy.fft' in sys.modules)))\n"
        "sys.exit(code)\n"
    )
    assert _python("-c", script).stderr.decode() == "(False, True)"


def _saddle_cycle(path):
    """A t = 0 cycle file for x^2 - y^2 whose samples run along y = x through the saddle and back."""
    line = [k / 8 - 1 for k in range(17)]
    samples = [{"x": [s, 0.0], "y": [s, 0.0]} for s in line + line[-2:0:-1]]
    path.write_text(json.dumps({"t": [0.0, 0.0], "samples": samples}))
    return str(path)


@pytest.mark.parametrize("case", ["verify-critical-level", "verify-x-loop-sheet", "periods-saddle"])
def test_input_errors_after_the_build_write_nothing(case, tmp_path, capsys):
    out_cycle = tmp_path / "out.json"
    argv = {
        "verify-critical-level": ["verify", "x^2+y^2", "--numeric", "--t", "0", "--seed", "1,0"],
        "verify-x-loop-sheet": ["verify", "x^3+y^3-3xy", "--numeric", "--t", "-0.5",
                                "--mode", "x_loop", "--seed", "1,1"],
        "periods-saddle": ["periods", "x^2-y^2", "--cycle", _saddle_cycle(tmp_path / "saddle.json"),
                           "--out-cycle", str(out_cycle)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert main(["--json-errors", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
    assert not out_cycle.exists()


def _readme_block(language, after):
    """The first fenced block of the given language after the heading line `after` in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = text[text.index(after + "\n"):]
    start = text.index(f"```{language}\n") + len(language) + 4
    return text[start:text.index("```", start)]


def test_readme_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _readme_block("bash", "## CLI").splitlines() if line.startswith("pf ")]
    assert len(lines) == 10
    for line in lines:
        expected = 2 if line == 'pf check "y^2+x^3-x"' else 0
        assert main(shlex.split(line)[1:]) == expected, line
    capsys.readouterr()

    namespace = {}
    exec(_readme_block("python", "## Library"), namespace)
    assert namespace["system"].B1[15, 0] == Fraction(1, 175)
    assert namespace["validate_system"](namespace["system"]).all_ok()
