"""Command-line surface: parsing, subcommands, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import picardfuchs
from picardfuchs.bipoly import X, Y
from picardfuchs.cli import main
from picardfuchs.errors import ParseError
from picardfuchs.parsing import MAX_DEGREE, MAX_NESTING, parse_polynomial
from picardfuchs.periods import MAX_SAMPLES, MIN_SAMPLES


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
    # mu 36: the squarefree splits of char_poly(A) and min_poly(A) run on
    # degree-36 polynomials with large coefficients
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


def test_periods_real_oval_at_large_level(capsys):
    code = main(["periods", "x^2+y^2", "--t", "10000", "--seed", "100,0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["I"][0][0] - math.pi * 1e4) < 1e-9 * math.pi * 1e4


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
        ([*periods, "--cycle", document("nan.json", {"t": [1.0, 0.0], "samples":
                                                    [{"x": [math.nan, 0.0], "y": [0.0, 0.0]}] * 16})],
         "NumericalFailure", "leave the level curve by nan"),
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
