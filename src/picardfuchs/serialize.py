"""Deterministic serialization of Picard-Fuchs systems.

JSON carries every rational as a canonical "p/q" string (integers without
the "/1") and matrices as row-major arrays of arrays, so Fraction() of each
entry reproduces the exact matrices; the entries are printed as the
Fractions the system holds, with str().  LaTeX renders the system
(t - A) \\dot X = (B_0 + B_1 t) X with \\frac{p}{q} entries; text is an
aligned human-readable report.
"""

import json

from .bipoly import _monomial_text
from .system import validate_system, classify_singularities


def monomial_str(a, b):
    return _monomial_text(a, b) or "1"


def matrix_to_strings(m):
    return [[str(v) for v in row] for row in m.entries]


def basis_to_list(basis):
    """The JSON basis listing: each monomial's exponents and the degree of its form."""
    return [{"a": a, "b": b, "deg_form": a + b + 2} for a, b in basis.monomials]


def system_to_dict(sys):
    """The full JSON document for a built system, validation included."""
    validation = validate_system(sys)
    classification = classify_singularities(sys)
    return {
        "hamiltonian": str(sys.H),
        "n": sys.n,
        "mu": sys.mu,
        "basis": basis_to_list(sys.basis),
        "A": matrix_to_strings(sys.A),
        "B0": matrix_to_strings(sys.B0),
        "B1": matrix_to_strings(sys.B1),
        "D": [str(d) for d in sys.D],
        "critical_values": [
            {"re": float(t.real), "im": float(t.imag), "mult": m} for t, m in sys.critical_values()
        ],
        "classification": {
            "finite_fuchsian": classification["finite_fuchsian"],
            "infinity_fuchsian_form": classification["infinity_fuchsian_form"],
        },
        "validation": validation.as_dict(),
    }


def serialize_system(sys, format="json"):
    """Render a built system as bytes in json, latex or text format."""
    if format == "json":
        return (json.dumps(system_to_dict(sys), indent=2) + "\n").encode()
    if format == "latex":
        return _latex(sys).encode()
    if format == "text":
        return _text(sys).encode()
    raise ValueError(f"unknown format {format!r}; expected json, latex or text")


def _latex_rational(q):
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _latex_matrix(m):
    body = " \\\\\n".join(" & ".join(_latex_rational(v) for v in row) for row in m.entries)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def _latex(sys):
    lines = [
        "% Picard-Fuchs system (t - A) \\dot X = (B_0 + B_1 t) X",
        f"% H = {sys.H},  mu = {sys.mu}",
        "\\[",
        "(t - A)\\,\\dot X(t) = (B_0 + B_1 t)\\,X(t),",
        "\\]",
        "\\[",
        "A = " + _latex_matrix(sys.A) + ",",
        "\\]",
        "\\[",
        "B_0 = " + _latex_matrix(sys.B0) + ",",
        "\\]",
        "\\[",
        "B_1 = " + _latex_matrix(sys.B1) + ".",
        "\\]",
    ]
    return "\n".join(lines) + "\n"


def _format_matrix_block(name, m):
    cells = matrix_to_strings(m)
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    lines = [f"{name} ="]
    for row in cells:
        lines.append("  [ " + "  ".join(v.rjust(w) for v, w in zip(row, widths)) + " ]")
    return lines


def _text(sys):
    lines = [
        f"Picard-Fuchs system for H = {sys.H}",
        f"n = {sys.n}, mu = {sys.mu}, system: (t - A) X' = (B0 + B1*t) X",
        "basis (graded order): " + ", ".join(
            monomial_str(a, b) for a, b in sys.basis.monomials
        ),
        "form degrees D: " + ", ".join(map(str, sys.D)),
    ]
    for name, m in (("A", sys.A), ("B0", sys.B0), ("B1", sys.B1)):
        lines.extend(_format_matrix_block(name, m))
    lines.append("critical values (numeric):")
    for t, mult in sys.critical_values():
        lines.append(f"  t = {t.real:+.12g}{t.imag:+.12g}i  (multiplicity {mult})")
    return "\n".join(lines) + "\n"
