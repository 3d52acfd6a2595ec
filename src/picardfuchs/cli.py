"""Command-line front end: parse Hamiltonians, build/check/verify systems.

Subcommands:

  pf check H                      regularity-at-infinity report
  pf basis H                      quotient-ring monomial basis listing
  pf system H [--format ...]      build and serialize the Picard-Fuchs system
  pf reduce H --form P,Q          Petrov decomposition of the 1-form P dx + Q dy
  pf verify H [--numeric ...]     structural validation (+ cycle residuals)
  pf periods H --t V --seed X,Y   trace one cycle and evaluate the system on it
  pf periods H --cycle FILE       evaluate the system on a cycle read from a file

Exit codes: 0 success, 1 validation/residual failure, 2 input error.  With
--json-errors every input error, a rejected command line included, is
reported as one machine-readable JSON object on stderr.
"""

import argparse
import cmath
import json
import math
import sys

from .errors import NotRegularError, ParseError, PicardFuchsError
from .forms import OneForm
from .milnor import check_regular_at_infinity, monomial_basis
from .parsing import parse_polynomial
from .periods import (MAX_SAMPLES, MIN_SAMPLES, cycle_from_json, cycle_to_json, system_residual,
                      trace_cycle)
from .petrov import petrov_decompose
from .serialize import basis_to_list, monomial_str, serialize_system
from .system import build_system, classify_singularities, validate_system


class UsageError(Exception):
    """A command line that argparse rejects, raised so that main can report it as JSON."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a word with one leading minus as a value, so "-x^2+y^2" is a Hamiltonian.

    The only single-dash option is -h; every other option starts with "--".
    """

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise UsageError(self, message)


def _build_parser():
    parser = _ArgumentParser(
        prog="pf",
        description="Exact Picard-Fuchs systems for Abelian integrals of bivariate Hamiltonians.",
    )
    parser.add_argument("--json-errors", action="store_true",
                        help="report failures as JSON on stderr")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text, command):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("hamiltonian", help="polynomial in x and y, e.g. 'x^3+y^3-3xy'")
        p.set_defaults(command=command)
        return p

    p_check = add("check", "decide regularity at infinity", _cmd_check)
    p_check.add_argument("--format", choices=["text", "json"], default="text")

    p_basis = add("basis", "list the quotient-ring monomial basis", _cmd_basis)
    p_basis.add_argument("--format", choices=["text", "json"], default="text")

    p_system = add("system", "build the Picard-Fuchs system", _cmd_system)
    p_system.add_argument("--format", choices=["json", "latex", "text"], default="json")
    p_system.add_argument("--out", help="write output to this file instead of stdout")

    p_reduce = add("reduce", "decompose a 1-form in the Petrov module basis", _cmd_reduce)
    p_reduce.add_argument("--form", required=True, metavar="EXPR_DX,EXPR_DY",
                          help="coefficients of dx and dy, comma separated")
    p_reduce.add_argument("--format", choices=["text", "json"], default="text")

    p_verify = add("verify", "validate the structural properties of the system", _cmd_verify)
    p_verify.add_argument("--numeric", action="store_true",
                          help="also trace cycles and check system residuals")
    p_verify.set_defaults(parser=p_verify)  # to report --numeric without --t and --t without --numeric
    p_verify.add_argument("--t", action="append", default=[], type=_parse_complex,
                          help="level value for a numeric check (repeatable)")
    p_verify.add_argument("--seed", default="1,1", type=_parse_seed,
                          help="seed point X,Y for cycle tracing")
    p_verify.add_argument("--residual-tol", type=_parse_real, default=1e-6)
    _cycle_flags(p_verify)

    p_periods = add("periods", "trace one cycle and evaluate periods/residual", _cmd_periods)
    p_periods.set_defaults(parser=p_periods)  # to report --t and --seed against --cycle
    p_periods.add_argument("--t", type=_parse_complex,
                           help="level value (complex literal); needed to trace")
    p_periods.add_argument("--seed", type=_parse_seed, help="seed point X,Y; needed to trace")
    p_periods.add_argument("--cycle", help="read the cycle and its level from this JSON file instead of tracing")
    p_periods.add_argument("--out-cycle", help="write the traced cycle to this JSON file")
    _cycle_flags(p_periods)

    return parser


def _cycle_flags(p):
    """The options that describe a traced cycle, shared by verify and periods."""
    p.add_argument("--mode", choices=["real_oval", "x_loop"], default="real_oval")
    p.add_argument("--loop-center", default="0", type=_parse_complex,
                   help="x_loop center (complex literal)")
    p.add_argument("--loop-turns", type=_bounded_int(1), default=1)
    p.add_argument("--samples", type=_bounded_int(MIN_SAMPLES, MAX_SAMPLES), default=512,
                   help=f"samples per traced cycle, {MIN_SAMPLES} to {MAX_SAMPLES}")


def _parse_complex(text):
    """argparse type of a finite real or complex number."""
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a numeric literal: {text!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_real(text):
    value = _parse_complex(text)
    if value.imag:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}")
    return value.real


def _bounded_int(low, high=math.inf):
    """argparse type of an integer in [low, high], for counts the tracer accepts."""
    bounds = f"at least {low}" if high == math.inf else f"between {low} and {high}"

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


def _parse_seed(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("seed must be two comma-separated numbers X,Y")
    return _parse_complex(parts[0]), _parse_complex(parts[1])


def main(argv=None):
    parser = _build_parser()
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, args)
        return args.command(args, parse_polynomial(args.hamiltonian))
    except (UsageError, PicardFuchsError, ValueError, OSError) as exc:
        if args.json_errors:
            doc = {"error": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, ParseError):
                doc["position"] = exc.position
            print(json.dumps(doc), file=sys.stderr)
        elif isinstance(exc, UsageError):
            argparse.ArgumentParser.error(exc.parser, str(exc))  # usage text, SystemExit(2)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_check(args, H):
    report = check_regular_at_infinity(H)
    doc = {
        "hamiltonian": str(H),
        "degree": report.degree_H,
        "n": report.n,
        "mu": report.mu,
        "regular": report.regular,
        "reason": report.reason,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"H = {H}")
        print(f"degree = {report.degree_H}, n = {report.n}, mu = {report.mu}")
        if report.regular:
            print("regular at infinity: yes")
        else:
            print("regular at infinity: no")
            print(f"reason: {report.reason}")
    if not report.regular:
        raise NotRegularError(report.reason)
    return 0


def _cmd_basis(args, H):
    basis = monomial_basis(H)
    if args.format == "json":
        doc = {
            "hamiltonian": str(H),
            "n": basis.n,
            "mu": basis.mu,
            "basis": basis_to_list(basis),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"H = {H}: mu = {basis.mu} basis monomials (graded order)")
        for i, (a, b) in enumerate(basis.monomials):
            omega = basis.primitives[i]
            print(f"  m_{i} = {monomial_str(a, b)}   deg omega = {a + b + 2}   omega = {omega}")
    return 0


def _cmd_system(args, H):
    sys_obj = build_system(H)
    payload = serialize_system(sys_obj, format=args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return 0


def _cmd_reduce(args, H):
    parts = args.form.split(",")
    if len(parts) != 2:
        raise ValueError("--form needs exactly one comma: EXPR_DX,EXPR_DY")
    omega = OneForm(parse_polynomial(parts[0]), parse_polynomial(parts[1]))
    basis = monomial_basis(H)
    dec = petrov_decompose(omega, basis)
    if args.format == "json":
        doc = {
            "hamiltonian": str(H),
            "form": {"dx": str(omega.P), "dy": str(omega.Q)},
            "p": [str(p) for p in dec.coeff_polys],
            "witness_g": str(dec.witness_g),
            "witness_f": str(dec.witness_f),
            "zero_class": dec.is_zero_class(),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"omega = ({omega.P}) dx + ({omega.Q}) dy over H = {H}")
        for i, ((a, b), p) in enumerate(zip(basis.monomials, dec.coeff_polys)):
            if not p.is_zero():
                print(f"  p_{i}(t) = {p}   (basis form of {monomial_str(a, b)})")
        if dec.is_zero_class():
            print("  all Petrov coefficients vanish (form is g*dH + df)")
        print(f"  witness g = {dec.witness_g}")
        print(f"  witness f = {dec.witness_f}")
    return 0


def _trace(args, H, t, seed):
    """The cycle on {H = t} through seed that the cycle flags of args describe."""
    return trace_cycle(H, t, seed, mode=args.mode, samples=args.samples,
                       loop_center=args.loop_center, turns=args.loop_turns)


def _cmd_verify(args, H):
    if args.numeric and not args.t:
        raise UsageError(args.parser, "--numeric needs at least one --t level value")
    if args.t and not args.numeric:
        raise UsageError(args.parser, "--t needs --numeric; without it no level is traced")
    sys_obj = build_system(H)
    report = validate_system(sys_obj)
    classification = classify_singularities(sys_obj)
    # every level is traced before anything is printed, so an input error leaves stdout empty
    samples = [system_residual(sys_obj, _trace(args, H, t, args.seed)) for t in args.t]
    ok = report.all_ok()
    for name, value in report.as_dict().items():
        print(f"{name}: {'pass' if value else 'FAIL'}")
    print(f"finite_fuchsian: {classification['finite_fuchsian']}")
    print(f"infinity_fuchsian_form: {classification['infinity_fuchsian_form']}")
    if not ok:
        print(f"details: {report.details}")
    for t, sample in zip(args.t, samples):
        passed = sample.residual < args.residual_tol
        ok = ok and passed
        print(f"residual at t = {t.real if t.imag == 0 else t!r}: {sample.residual:.3e} "
              f"({'pass' if passed else 'FAIL'})")
    return 0 if ok else 1


def _cmd_periods(args, H):
    missing = [flag for flag, value in (("--t", args.t), ("--seed", args.seed)) if value is None]
    if args.cycle and len(missing) < 2:
        raise UsageError(args.parser, "--t and --seed trace a cycle; give neither with --cycle")
    if not args.cycle and missing:
        raise UsageError(args.parser, f"the following arguments are required: {', '.join(missing)}")
    sys_obj = build_system(H)
    if args.cycle:
        with open(args.cycle) as fh:
            cycle = cycle_from_json(json.load(fh), H)
    else:
        cycle = _trace(args, H, args.t, args.seed)
    sample = system_residual(sys_obj, cycle)  # before --out-cycle, so an input error writes nothing
    if args.out_cycle:
        with open(args.out_cycle, "w") as fh:
            fh.write(json.dumps(cycle_to_json(cycle), indent=2) + "\n")
    doc = {
        "t": [sample.t.real, sample.t.imag],
        "I": [[v.real, v.imag] for v in sample.I],
        "Idot": [[v.real, v.imag] for v in sample.Idot],
        "residual": sample.residual,
        "closure_error": cycle.closure_error,
        "samples": len(cycle),
    }
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
