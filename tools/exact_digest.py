"""Print SHA-256 digests of the package's exact outputs on a fixed input set.

Run from any directory against one source tree:

    PYTHONPATH=<tree>/src python3 tools/exact_digest.py > digest.txt

and compare the files of two trees with ``diff``: a change that must keep
every exact output prints the same lines.  Per Hamiltonian it digests A, B0,
B1, D, every eta_i and its Petrov certificate and ``critical_values`` of
``build_system`` (or the error it raises), its ``critical_points`` in full
(x, y, t and multiplicity, every bit of the floats), and the stdout,
stderr and exit code of ``pf system H`` in each of the formats json, text
and latex (the text and LaTeX printers are compared too); for the named ones
also the ``classify_singularities`` details, as text (the JSON leaves out
that string, which prints the minimal polynomial), and the stdout and exit
code of ``pf verify H``.  Then come the resultants of 40 seeded pairs with
rational coefficients and of 24 seeded pairs whose degree in y is below
their total degree, of 16 seeded pairs whose leading y-coefficients vanish at
an interpolation node (one of them, both, or a whole argument against one
constant in y), the squarefree decompositions (and ``is_squarefree``)
of seeded products of random factors, most with repeated factors, and of
the inputs where the one-prime squarefree certificate does not apply
(x^2 + 2^61 - 1, a leading coefficient divisible by 2^61 - 1), every bit
of the numeric roots, with their multiplicities, of seeded products whose
Yun factors are several of one degree, one with the root 0 and linear ones
(the resultants of the Hamiltonians above are mostly squarefree, so they
seldom root more than one factor), Petrov
decompositions of seeded rational forms, ``char_poly`` and
``pencil_determinant`` of the derogatory x^4 + y^4, gradient reductions of
seeded rational polynomials, and Petrov decompositions and reductions of
one query per degree asked of one basis twice, in descending and then in
ascending degree (a result that depended on what the basis had answered
before would print two different lines).
Last come the flags and failure notes of ``validate_system`` on seeded
tamperings of six systems, one per input of the identity check (A, eta_i,
the witnesses g and f, a Petrov coefficient and a basis primitive), printed
as text, so the failing branch of the check is compared too.

The Hamiltonians: the tests' named ones, the sparse family d = 3..6, the
``system_json`` and ``build_random`` inputs of the benchmark at seeds 1-3
(with the quartic the oracle fails on), rational rescalings of some of them
and draws with coefficients divided by 1..12.  Standard library only,
besides the package under test and the benchmark's input generator.
"""

import contextlib
import dataclasses
import hashlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from pfbench import inputs
from pfbench.workloads import KNOWN_FAILING, BuildRandom, SystemJson, sparse_family

from picardfuchs.bipoly import BiPoly
from picardfuchs.cli import main
from picardfuchs.errors import PicardFuchsError
from picardfuchs.forms import OneForm
from picardfuchs.linalg import RatMatrix, char_poly, pencil_determinant, resultant
from picardfuchs.milnor import monomial_basis, reduce_mod_gradient
from picardfuchs.petrov import petrov_decompose
from picardfuchs.system import build_system, classify_singularities, validate_system
from picardfuchs.unipoly import UniPoly, is_squarefree, roots_with_multiplicity, squarefree_decomposition

NAMED = (
    {(3, 0): 1, (0, 3): 1, (1, 1): -3},
    {(3, 0): 1, (1, 2): 3, (0, 1): 1},
    {(4, 0): 1, (0, 4): 1},
    {(4, 0): Fraction(2, 3), (0, 4): Fraction(-5, 7), (1, 1): Fraction(1, 2), (0, 1): -3},
    {(3, 0): Fraction(2, 3), (0, 3): 1, (1, 1): Fraction(-3, 5)},
    {(5, 0): 1, (0, 5): 1, (2, 2): 1, (1, 0): 1, (0, 1): 1},
    {(2, 0): 1, (0, 2): 1},
    {(4, 0): 1, (0, 4): 1, (2, 0): -1, (0, 2): -1},
    {(6, 0): 1, (0, 6): 1, (2, 0): -1, (0, 2): -1},
    # derogatory and not diagonalizable: minimal polynomial of degree 8 with a repeated root
    {(5, 0): 1, (0, 5): 1, (4, 0): 1, (2, 2): 1},
)


def hamiltonians():
    """(label, terms) pairs of the input set, in a fixed order."""
    out = [(f"named {i}", h) for i, h in enumerate(NAMED)]
    out += [(f"sparse d={d}", sparse_family(d)) for d in range(3, 7)]
    for seed in (1, 2, 3):
        for name, ns in (("system_json", SystemJson.RANDOM_NS), ("build_random", BuildRandom.NS)):
            rng = random.Random(seed)
            out += [(f"{name} seed {seed} #{i}", inputs.reflect(h, rng))
                    for i, h in enumerate(inputs.baseline_draws(ns))]
    out.append(("known quartic", KNOWN_FAILING))
    rng = random.Random(99)
    scaled = [(label, h) for label, h in out if label in ("named 0", "named 5") or "system_json seed 1" in label]
    for label, h in scaled:
        out.append((f"{label} times 3/7", {e: Fraction(3, 7) * c for e, c in h.items()}))
    for i, h in enumerate(inputs.baseline_draws((2, 3, 3, 4))):
        out.append((f"draw {i} over 1..12", {e: Fraction(c, rng.randint(1, 12)) for e, c in h.items()}))
    return out


def sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def terms(poly):
    return sorted(poly.terms.items())


def system_record(system):
    return (
        [m.entries for m in (system.A, system.B0, system.B1)],
        list(system.D),
        [(terms(eta.P), terms(eta.Q)) for eta in system.etas],
        [petrov_record(cert) for cert in system.certificates],
        system.critical_values(),
    )


def petrov_record(dec):
    return [p.coeffs for p in dec.coeff_polys], terms(dec.witness_g), terms(dec.witness_f)


def reduction_record(red):
    return list(red.remainder_coeffs), terms(red.quotA), terms(red.quotB)


def cli_record(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return out.getvalue(), err.getvalue(), code


def random_poly(rng, degree, size):
    return BiPoly({(a, rng.randint(0, degree - a)): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                   for a in (rng.randint(0, degree) for _ in range(size))})


def vanishing_lead(rng, dy, roots):
    """A seeded polynomial of degree dy in y whose y^dy coefficient is a rational times the product of (x - r)."""
    lead = BiPoly.constant(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    for r in roots:
        lead = lead * BiPoly({(1, 0): 1, (0, 0): -r})
    low = BiPoly({(rng.randint(0, 3), rng.randint(0, dy - 1)): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 5))})
    return lead.shift(0, dy) + low


def random_product(rng, squarefree):
    """A seeded product of random rational factors, each squared or cubed at times unless squarefree."""
    p = UniPoly([Fraction(rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 6))])
    for _ in range(rng.randint(1, 4)):
        factor = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 4))] + [1])
        for _ in range(1 if squarefree else rng.choice((1, 2, 3))):
            p = p * factor
    return p


def yun_stack(rng, i):
    """A seeded product of one random factor per multiplicity k.

    The factors have one degree but for a linear one, and one of them has the root 0.
    """
    degree = rng.randint(2, 4)
    p = UniPoly([Fraction(rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 6))])
    for k in range(1, rng.randint(4, 5)):
        size = 1 if k == 3 + i % 2 else degree
        factor = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)] + [1])
        if k == 1 + i % 3:
            factor = UniPoly([0, 1]) * UniPoly(factor.coeffs[1:])  # the root 0, the degree kept
        for _ in range(k):
            p = p * factor
    return p


TAMPERED_SYSTEMS = ("named 0", "named 3", "named 4", "named 5", "sparse d=4", "system_json seed 1 #2")
TAMPERED_FIELDS = ("A", "eta", "g", "f", "coeff_polys", "primitive")


def tampered(system, field, rng):
    """(system with one input of the identity check changed by a seeded amount, the row changed)."""
    i = rng.randrange(system.mu)
    bump = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 9))
    monomial = BiPoly.monomial(*rng.choice(((1, 0), (0, 1), (1, 1), (2, 0))), bump)
    if field == "A":
        entries = [list(row) for row in system.A.entries]
        entries[i][rng.randrange(system.mu)] += bump
        return dataclasses.replace(system, A=RatMatrix(entries)), i
    if field == "eta":
        etas = list(system.etas)
        etas[i] = etas[i] + OneForm(monomial, 0)
        return dataclasses.replace(system, etas=tuple(etas)), i
    if field == "primitive":
        primitives = list(system.basis.primitives)
        primitives[i] = primitives[i] + OneForm(0, monomial)
        return dataclasses.replace(system, basis=dataclasses.replace(system.basis, primitives=tuple(primitives))), i
    cert = system.certificates[i]
    if field == "coeff_polys":
        polys = list(cert.coeff_polys)
        j = rng.randrange(system.mu)
        coeffs = [*polys[j].coeffs, 0, 0]
        coeffs[rng.randrange(2)] += bump
        polys[j] = UniPoly(coeffs)
        cert = dataclasses.replace(cert, coeff_polys=tuple(polys))
    else:
        name = f"witness_{field}"
        cert = dataclasses.replace(cert, **{name: getattr(cert, name) + monomial})
    return dataclasses.replace(system, certificates=system.certificates[:i] + (cert,) + system.certificates[i + 1:]), i


def main_digest():
    for label, h in hamiltonians():
        H = BiPoly({e: Fraction(c) for e, c in h.items()})
        try:
            system = build_system(H)
            built = sha(system_record(system))
        except PicardFuchsError as exc:
            system, built = None, f"{type(exc).__name__}: {exc}"
        print(f"{label}: build {built}")
        if system is not None:
            print(f"{label}: critical points {sha([dataclasses.astuple(p) for p in system.critical_points])}")
        for fmt in ("json", "text", "latex"):
            print(f"{label}: pf system {fmt} {sha(cli_record('system', inputs.poly_text(h), '--format', fmt))}")
        if label.startswith("named"):
            if system is not None:
                print(f"{label}: classification {classify_singularities(system)['details']}")
            out, _, code = cli_record("verify", inputs.poly_text(h))
            print(f"{label}: pf verify exit {code}: {out.strip().replace(chr(10), '; ')}")

    rng = random.Random(2024)
    for i in range(40):
        # p is constant in y in every eighth pair; both argument orders
        p = random_poly(rng, 0 if i % 8 == 0 else rng.randint(1, 4), rng.randint(1, 6))
        if p.degree_in("y") <= 0:
            p = p + BiPoly.monomial(rng.randint(0, 3), 0, Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        q = random_poly(rng, rng.randint(1, 4), rng.randint(1, 6)) + BiPoly.monomial(0, 5)
        print(f"resultant {i}: {sha(terms(resultant(p, q)))} {sha(terms(resultant(q, p)))}")

    # degree in y below the total degree: the total-degree node bound is below the x-degree one, or above it
    rng = random.Random(2025)
    for i in range(24):
        p = random_poly(rng, rng.randint(2, 5), rng.randint(2, 7)) + BiPoly.monomial(rng.randint(1, 4), 1)
        q = random_poly(rng, rng.randint(2, 5), rng.randint(2, 7)) + BiPoly.monomial(rng.randint(0, 2), 2)
        if i % 3 == 0:
            q = q + BiPoly.monomial(0, rng.randint(3, 5))
        print(f"resultant low y-degree {i}: {sha(terms(resultant(p, q)))} {sha(terms(resultant(q, p)))}")

    # leading y-coefficients that vanish at an interpolation node: p's alone, (x - 1)(x - 3) against a q
    # of the same y-degree, both at one node, and p identically zero at a node against q constant in y
    rng = random.Random(2028)
    for i in range(16):
        r, dp, dq = rng.randint(0, 2), rng.randint(1, 4), rng.randint(1, 4)
        if i % 4 == 0:
            p, q = vanishing_lead(rng, dp, [r]), vanishing_lead(rng, dq, [])
        elif i % 4 == 1:
            p, q = vanishing_lead(rng, dp, [1, 3]), vanishing_lead(rng, dp, [rng.choice((0, 2, 3))])
        elif i % 4 == 2:
            p, q = vanishing_lead(rng, dp, [r]), vanishing_lead(rng, dq, [r, rng.randint(0, 4)])
        else:
            p = BiPoly({(1, 0): 1, (0, 0): -r}) * vanishing_lead(rng, dp, [])
            q = BiPoly({(rng.randint(0, 2), 0): Fraction(rng.randint(1, 9), rng.randint(1, 5)), (0, 0): 1})
        print(f"resultant vanishing lead {i}: {sha(terms(resultant(p, q)))} {sha(terms(resultant(q, p)))}")

    rng = random.Random(2026)
    prime = 2**61 - 1  # the prime of the squarefree certificate
    cases = [(f"product {i}", random_product(rng, squarefree=i % 4 == 0)) for i in range(24)]
    cases += [("x^2 + 2^61 - 1", UniPoly([prime, 0, 1])),
              ("2^61 - 1 times (x^3 - 2x + 1/3)", UniPoly([Fraction(prime, 3), -2 * prime, 0, prime])),
              ("(2^61 - 1) x^2 + x + 1", UniPoly([1, 1, prime])),
              ("x^2 (2^61 - 1) / 5 + x", UniPoly([0, 1, Fraction(prime, 5)])),
              ("((2^61 - 1) x + 1)^2 (x - 3)", UniPoly([1, prime]) * UniPoly([1, prime]) * UniPoly([-3, 1]))]
    for label, p in cases:
        lead, factors = squarefree_decomposition(p)
        print(f"squarefree {label}: {lead} {sha(factors)} {is_squarefree(p)}")

    rng = random.Random(2027)
    for i in range(16):
        p = yun_stack(rng, i)
        factors = squarefree_decomposition(p)[1]
        roots = [(z.real.hex(), z.imag.hex(), m) for z, m in roots_with_multiplicity(p)]
        print(f"roots {i}, Yun factor degrees {[f.degree() for f, _ in factors]}: {roots}")

    rng = random.Random(31)
    for i, h in enumerate(NAMED[:5]):
        basis = monomial_basis(BiPoly(h))
        for j in range(5):
            degree = rng.randint(basis.n + 1, 3 * basis.n + 2)
            dec = petrov_decompose(OneForm(random_poly(rng, degree, 8), random_poly(rng, degree, 8)), basis)
            print(f"petrov named {i} form {j}: {sha(petrov_record(dec))}")

    system = build_system(BiPoly(NAMED[2]))
    print(f"x^4+y^4 char_poly(A): {char_poly(system.A)}")
    print(f"x^4+y^4 pencil_determinant(B0, B1): {pencil_determinant(system.B0, system.B1)}")

    rng = random.Random(37)
    for i, h in enumerate(NAMED[:5]):
        basis = monomial_basis(BiPoly(h))
        for j in range(5):
            red = reduce_mod_gradient(random_poly(rng, rng.randint(basis.n + 1, 3 * basis.n + 2), 10), basis)
            print(f"reduction named {i} poly {j}: {sha(reduction_record(red))}")

    # one basis answers every query, first in descending then in ascending degree
    rng = random.Random(43)
    for label, h in (("named 5", NAMED[5]), ("sparse d=5", sparse_family(5))):
        basis = monomial_basis(BiPoly({e: Fraction(c) for e, c in h.items()}))
        queries = {D: (OneForm(random_poly(rng, D - 1, 8), random_poly(rng, D - 1, 8)), random_poly(rng, D, 10))
                   for D in range(basis.n + 1, 3 * basis.n + 1)}
        for order in ("descending", "ascending"):
            for D in sorted(queries, reverse=order == "descending"):
                form, P = queries[D]
                dec, red = petrov_decompose(form, basis), reduce_mod_gradient(P, basis)
                print(f"reuse {label} {order} degree {D}: {sha(petrov_record(dec))} {sha(reduction_record(red))}")

    rng = random.Random(53)
    for label, h in hamiltonians():
        if label not in TAMPERED_SYSTEMS:
            continue
        system = build_system(BiPoly({e: Fraction(c) for e, c in h.items()}))
        for field in TAMPERED_FIELDS:
            changed, row = tampered(system, field, rng)
            report = validate_system(changed)
            failing = [name for name, ok in report.as_dict().items() if not ok]
            print(f"tampered {label} {field} row {row}: fails {failing}: {report.details}")


if __name__ == "__main__":
    main_digest()
