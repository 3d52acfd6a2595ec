"""System assembly, structural validation, classification, serialization."""

import collections
import dataclasses
import json
import random
from fractions import Fraction

import pytest

from picardfuchs.bipoly import BiPoly, X, Y, integer_terms
from picardfuchs.cli import main
from picardfuchs.critical import critical_points_numeric
from picardfuchs.errors import InternalRankError
from picardfuchs.forms import OneForm, canonical_primitive
from picardfuchs.linalg import RatMatrix, char_poly, min_poly
from picardfuchs.milnor import MilnorBasis, divide_two_form, monomial_basis, reduce_mod_gradient
from picardfuchs.petrov import petrov_decompose
from picardfuchs.serialize import serialize_system
from picardfuchs.system import build_system, classify_singularities, validate_system
from picardfuchs.unipoly import UniPoly, is_squarefree, roots_with_multiplicity, squarefree_decomposition
from tests.conftest import random_regular_hamiltonian
from tests.reference import wedge_with_dH

QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + Y
SPARSE_QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + 2 * Y
CUBIC = X**3 + Y**3 - 3 * X * Y
# rational coefficients: h = 30 H and the etas have denominators above 1
RATIONAL = Fraction(1, 2) * X**3 + Fraction(1, 3) * Y**3 - X * Y + Fraction(1, 5) * X


def _first_draws(seed, ns):
    rng = random.Random(seed)
    return [random_regular_hamiltonian(rng, n) for n in ns]


@pytest.mark.parametrize("H", [CUBIC, SPARSE_QUINTIC, *_first_draws(1, (2, 3))],
                         ids=["cubic", "sparse-quintic", "draw-n2", "draw-n3"])
def test_rational_rescaling_of_H(H):
    # the periods of H/c at level s are those of H at c*s, so the system of H/c
    # is (s - A/c) X' = (B0 + c*B1 s) X; the peel must clear the thirds exactly
    c = Fraction(7, 3)
    sys, scaled = build_system(H), build_system(H * (1 / c))
    assert scaled.basis.monomials == sys.basis.monomials
    assert scaled.A == sys.A.scale(1 / c)
    assert scaled.B0 == sys.B0
    assert scaled.B1 == sys.B1.scale(c)
    assert validate_system(scaled).all_ok()


def test_mu_one_system():
    sys = build_system(X**2 + Y**2)
    assert sys.A == RatMatrix([[0]])
    assert sys.B0 == RatMatrix([[1]])
    assert sys.B1 == RatMatrix([[0]])
    assert validate_system(sys).all_ok()


def test_homogeneous_systems_degenerate_to_tD():
    for H in (X**2 + Y**2, X**3 + Y**3, X**4 + Y**4):
        sys = build_system(H)
        assert sys.A.is_zero()
        assert sys.B1.is_zero()
        expected = RatMatrix(
            [[sys.D[i] if i == j else 0 for j in range(sys.mu)] for i in range(sys.mu)]
        )
        assert sys.B0 == expected
        # one critical point of multiplicity mu; spectrum check must still pass
        assert validate_system(sys).all_ok()


def test_quintic_golden_row():
    sys = build_system(QUINTIC)
    i33 = sys.basis.monomials.index((3, 3))
    i00 = sys.basis.monomials.index((0, 0))
    row = sys.B1.entries[i33]
    assert row[i00] == Fraction(1, 175)
    assert all(v == 0 for j, v in enumerate(row) if j != i00)
    for i, (a, b) in enumerate(sys.basis.monomials):
        assert sys.B0[i, i] == Fraction(a + b + 2, 5)
    assert (sys.B1 @ sys.B1).is_zero()


def test_validation_and_classification():
    sysq = build_system(QUINTIC)
    report = validate_system(sysq)
    assert report.all_ok(), report.details
    cls = classify_singularities(sysq)
    assert cls["infinity_fuchsian_form"] is False
    assert cls["finite_fuchsian"] is True

    sysc = build_system(CUBIC)
    assert validate_system(sysc).all_ok()
    cp = char_poly(sysc.A)
    assert cp == UniPoly([0, 1, 3, 3, 1])  # t(t+1)^3
    spectrum = sorted((z for z, m in roots_with_multiplicity(cp) for _ in range(m)), key=lambda z: z.real)
    assert [round(z.real, 9) for z in spectrum] == [-1, -1, -1, 0]
    cls = classify_singularities(sysc)
    assert cls["finite_fuchsian"] is True          # minimal polynomial t^2 + t
    assert cls["infinity_fuchsian_form"] is True   # cubic: B1 = 0 forced

    for H in (X**3 + Y**3, X**2 + Y**2):
        cls = classify_singularities(build_system(H))
        assert cls["finite_fuchsian"] and cls["infinity_fuchsian_form"]


def test_division_identities_exact(rng):
    for n in (2, 3):
        H = random_regular_hamiltonian(rng, n)
        sys = build_system(H)
        for i, (a, b) in enumerate(sys.basis.monomials):
            lhs = H * BiPoly.monomial(a, b)
            rhs = wedge_with_dH(H, sys.etas[i])
            for j, (aj, bj) in enumerate(sys.basis.monomials):
                rhs = rhs + BiPoly.monomial(aj, bj, sys.A[i, j])
            assert lhs == rhs
            assert sys.etas[i].is_zero() or sys.etas[i].degree() <= (a + b + 2)


def test_trace_equals_sum_of_critical_values():
    for H in (QUINTIC, CUBIC):
        sys = build_system(H)
        total = sum(t * m for t, m in sys.critical_values())
        assert abs(complex(sum(sys.A[i, i] for i in range(sys.mu))) - total) < 1e-8


def test_ordering_invariance_same_degree_permutation():
    sys = build_system(QUINTIC)
    basis = sys.basis
    # swap the two degree-1 monomials (1,0) <-> (0,1) and (2,1) <-> (1,2)
    order = list(range(sys.mu))
    i10, i01 = basis.monomials.index((1, 0)), basis.monomials.index((0, 1))
    i21, i12 = basis.monomials.index((2, 1)), basis.monomials.index((1, 2))
    order[i10], order[i01] = order[i01], order[i10]
    order[i21], order[i12] = order[i12], order[i21]
    permuted = MilnorBasis(
        H=basis.H, n=basis.n, mu=basis.mu,
        monomials=tuple(basis.monomials[k] for k in order),
        primitives=tuple(basis.primitives[k] for k in order),
    )
    sys2 = build_system(QUINTIC, basis=permuted)
    perm = RatMatrix([[1 if order[i] == j else 0 for j in range(sys.mu)] for i in range(sys.mu)])
    perm_t = RatMatrix([list(col) for col in zip(*perm.entries)])
    for m1, m2 in ((sys.A, sys2.A), (sys.B0, sys2.B0), (sys.B1, sys2.B1)):
        assert perm @ m1 @ perm_t == m2
    r1, r2 = validate_system(sys), validate_system(sys2)
    assert r1.as_dict() == r2.as_dict()
    assert sorted(map(str, char_poly(sys.A).coeffs)) == sorted(map(str, char_poly(sys2.A).coeffs))


def test_json_round_trip():
    sys = build_system(CUBIC)
    doc = json.loads(serialize_system(sys, format="json").decode())
    for key in ("A", "B0", "B1"):
        assert RatMatrix([[Fraction(v) for v in row] for row in doc[key]]) == getattr(sys, key)
    assert doc["mu"] == 4
    assert doc["basis"][0] == {"a": 0, "b": 0, "deg_form": 2}
    assert doc["validation"]["identity_ok"] is True


def test_serialization_deterministic_and_latex():
    sys = build_system(QUINTIC)
    blob1 = serialize_system(sys, format="json")
    blob2 = serialize_system(sys, format="json")
    assert blob1 == blob2
    latex = serialize_system(sys, format="latex").decode()
    assert "\\frac{1}{175}" in latex
    text = serialize_system(sys, format="text").decode()
    assert "1/175" in text
    doc = json.loads(blob1.decode())
    assert any("1/175" in row for row in [cell for r in doc["B1"] for cell in r])


def test_mu_one_json_shape():
    sys = build_system(X**2 + Y**2)
    doc = json.loads(serialize_system(sys, format="json").decode())
    assert doc["n"] == 1 and doc["mu"] == 1
    assert doc["A"] == [["0"]]
    assert doc["B0"] == [["1"]]
    assert doc["B1"] == [["0"]]


# (Hamiltonian, matrix, row monomial, column monomial, new value, flags that
# fail).  The quintic's form degrees run 2..8 with n + 1 = 5 and its only
# nonzero B1 entry sits at (x^3y^3, 1); expectations are those of computing
# the pencil determinant and B1 @ B1 outright.  On the cubic A[x, 1] is 0.
TAMPERED = {
    "b0_above_degree_diagonal": (QUINTIC, "B0", (0, 0), (1, 0), 1, {"b0_triangular_ok"}),
    "b0_same_degree_off_diagonal": (QUINTIC, "B0", (1, 0), (0, 1), 1, {"b0_diagonal_ok"}),
    "b0_diagonal_changed": (
        QUINTIC, "B0", (1, 1), (1, 1), 7, {"b0_diagonal_ok", "b_invertible_ok"},
    ),
    "b1_gap_below_n_plus_1": (QUINTIC, "B1", (3, 3), (2, 2), 1, {"b1_triangular_ok"}),
    "b1_diagonal": (
        QUINTIC, "B1", (2, 1), (2, 1), 1,
        {"b1_triangular_ok", "b1_square_zero_ok", "b_invertible_ok"},
    ),
    "b1_back_edge": (
        QUINTIC, "B1", (0, 0), (3, 3), 1,
        {"b1_triangular_ok", "b1_square_zero_ok", "b_invertible_ok"},
    ),
    "a_entry_changed_cubic": (CUBIC, "A", (1, 0), (0, 0), 1, {"identity_ok", "eigenvector_ok"}),
}
TAMPERED_DETAILS = {"a_entry_changed_cubic": "division identity fails for row 1; "}


@pytest.fixture(scope="module")
def built_systems():
    return {H: build_system(H) for H in (QUINTIC, CUBIC)}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_validation_flags_tampered_systems(built_systems, case):
    H, field, row, col, value, failing = TAMPERED[case]
    sys = built_systems[H]
    i, j = sys.basis.monomials.index(row), sys.basis.monomials.index(col)
    entries = [list(r) for r in getattr(sys, field).entries]
    entries[i][j] = Fraction(value)
    tampered = dataclasses.replace(sys, **{field: RatMatrix(entries)})
    report = validate_system(tampered)
    flags = report.as_dict()
    assert flags == {name: name not in failing for name in flags}
    assert report.details.startswith(TAMPERED_DETAILS.get(case, ""))


IDENTITY_INPUTS = ("A", "eta", "witness_g", "witness_f", "coeff_polys", "primitive")


def _tamper(sys, field):
    """sys with one input of the identity check changed by a seventh, and the identity notes expected.

    The row changed is the last one; the primitive changed is omega_0, which
    every row using it then fails, and whose derivative is no longer m_0.
    """
    last, seventh = sys.mu - 1, Fraction(1, 7)
    cert = sys.certificates[last]
    division, petrov = f"division identity fails for row {last}", f"Petrov certificate fails for row {last}"
    if field == "A":
        entries = [list(r) for r in sys.A.entries]
        entries[last][0] += seventh
        return dataclasses.replace(sys, A=RatMatrix(entries)), [division]
    if field == "eta":
        etas = list(sys.etas)
        etas[last] = etas[last] + OneForm(0, seventh)   # + dy/7: the Q components only
        return dataclasses.replace(sys, etas=tuple(etas)), [division, petrov]
    if field == "primitive":
        primitives = list(sys.basis.primitives)
        primitives[0] = primitives[0].scale(2)
        notes = []
        for i, c in enumerate(sys.certificates):
            if not c.coeff_polys[0].is_zero():
                notes.append(f"Petrov certificate fails for row {i}")
            if i == 0:
                notes.append("primitive 0 does not differentiate to its monomial")
        return dataclasses.replace(sys, basis=dataclasses.replace(sys.basis, primitives=tuple(primitives))), notes
    if field == "coeff_polys":
        polys = list(cert.coeff_polys)
        polys[0] = polys[0] + UniPoly.constant(seventh)
        changed = dataclasses.replace(cert, coeff_polys=tuple(polys))
    else:   # g + x/7 adds x dH/7; f + x/7 adds dx/7, the P component only
        changed = dataclasses.replace(cert, **{field: getattr(cert, field) + seventh * X})
    certificates = sys.certificates[:last] + (changed,)
    return dataclasses.replace(sys, certificates=certificates), [petrov]


@pytest.fixture(scope="module")
def identity_systems():
    return {"cubic": build_system(CUBIC), "rational": build_system(RATIONAL)}


def test_rational_hamiltonian_clears_denominators_above_one(identity_systems):
    sys = identity_systems["rational"]
    assert integer_terms(sys.H)[1] == 30
    assert any(integer_terms(eta.P + eta.Q)[1] > 1 for eta in sys.etas)
    assert validate_system(sys).all_ok()


@pytest.mark.parametrize("field", IDENTITY_INPUTS[1:])
@pytest.mark.parametrize("name", ["cubic", "rational"])
def test_every_identity_input_reaches_identity_ok(identity_systems, name, field):
    tampered, notes = _tamper(identity_systems[name], field)
    report = validate_system(tampered)
    flags = report.as_dict()
    assert flags == {flag: flag != "identity_ok" for flag in flags}
    assert report.details == "; ".join(notes)


def test_valid_system_validates_without_bipoly_products(monkeypatch):
    # the identities are re-checked on integer terms: no Fraction BiPoly product
    calls = []
    for H in (CUBIC, SPARSE_QUINTIC):
        sys = build_system(H)
        with monkeypatch.context() as patch:
            for name in ("__mul__", "__rmul__"):
                product = getattr(BiPoly, name)
                patch.setattr(BiPoly, name, lambda self, other, product=product: calls.append(1) or product(self, other))
            assert validate_system(sys).all_ok()
        assert len(calls) == 0, H


def _identities_hold_in_sympy(sys):
    """Both identities and d(omega_i) = m_i of every row, re-expanded in sympy over QQ."""
    import sympy

    x, y = sympy.symbols("x y")
    QQ = sympy.QQ

    def poly(p):
        return sympy.Poly.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()} or {(0, 0): 0},
                                    x, y, domain=QQ)

    def scaled(p, c):
        return p.mul_ground(QQ(c.numerator, c.denominator))

    H, zero = poly(sys.H), poly(BiPoly.zero())
    Hx, Hy = H.diff(x), H.diff(y)
    primitives = [(poly(omega.P), poly(omega.Q)) for omega in sys.basis.primitives]
    monomials = [poly(BiPoly.monomial(a, b)) for a, b in sys.basis.monomials]
    for i, m in enumerate(monomials):
        P, Q = poly(sys.etas[i].P), poly(sys.etas[i].Q)
        division = H * m - (Hx * Q - Hy * P)
        for j, mj in enumerate(monomials):
            division -= scaled(mj, sys.A[i, j])
        cert = sys.certificates[i]
        g, f = poly(cert.witness_g), poly(cert.witness_f)
        defect_P, defect_Q = P - g * Hx - f.diff(x), Q - g * Hy - f.diff(y)
        for k in range(max(len(p.coeffs) for p in cert.coeff_polys)):
            c = [p.coeffs[k] if k < len(p.coeffs) else Fraction(0) for p in cert.coeff_polys]
            defect_P -= H**k * sum((scaled(omega[0], cj) for cj, omega in zip(c, primitives)), zero)
            defect_Q -= H**k * sum((scaled(omega[1], cj) for cj, omega in zip(c, primitives)), zero)
        d_primitive = primitives[i][1].diff(x) - primitives[i][0].diff(y)
        if any(p.as_expr() != 0 for p in (division, defect_P, defect_Q, d_primitive - m)):
            return False
    return True


@pytest.mark.parametrize("name", ["cubic", "rational", "draw-mu16"])
def test_identity_ok_agrees_with_sympy(identity_systems, name):
    pytest.importorskip("sympy")
    sys = identity_systems[name] if name in identity_systems else build_system(_first_draws(3, (4,))[0])
    assert validate_system(sys).identity_ok is _identities_hold_in_sympy(sys) is True
    for field in IDENTITY_INPUTS:
        tampered, _ = _tamper(sys, field)
        assert validate_system(tampered).identity_ok is _identities_hold_in_sympy(tampered) is False, field


def test_spectrum_mismatch_note_says_what_failed(built_systems):
    # one of the three oracle points at t = -1 moved to -0.999: the eigenvalue
    # -1 of multiplicity 3 now meets an oracle cluster of multiplicity 2, and
    # the oracle cluster at -0.999 meets no eigenvalue
    sys = built_systems[CUBIC]
    points = list(sys.critical_points)
    k = next(i for i, p in enumerate(points) if p.t == -1)
    points[k] = dataclasses.replace(points[k], t=complex(-0.999))
    report = validate_system(dataclasses.replace(sys, critical_points=tuple(points)))
    flags = report.as_dict()
    assert flags == {name: name not in {"spectrum_ok", "eigenvector_ok"} for name in flags}
    assert report.details.startswith(
        "spectrum mismatch: eigenvalue and oracle clusters do not pair off; "
        "worst distance 1.000e-03, tolerance 1e-08 * max(1, |t|); "
        "eigenvalue -1+0j has multiplicity 3, oracle 2; "
    )


def test_non_diagonalizable_multiplication_matrix(capsys):
    # A is derogatory and not diagonalizable: its minimal polynomial has
    # degree 8 and a repeated root, its characteristic polynomial the Yun
    # multiplicities 1 and 10; the system itself validates
    H = X**5 + Y**5 + X**4 + X**2 * Y**2
    sys = build_system(H)
    minimal = min_poly(sys.A)
    assert minimal.degree() == 8 and not is_squarefree(minimal)
    _, factors = squarefree_decomposition(char_poly(sys.A))
    assert sorted(k for _, k in factors) == [1, 10]
    assert validate_system(sys).all_ok()
    classification = classify_singularities(sys)
    assert classification["finite_fuchsian"] is False
    assert "A not diagonalizable" in classification["details"]
    assert main(["system", "x^5+y^5+x^4+x^2y^2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"]["finite_fuchsian"] is False
    assert all(doc["validation"].values())


# derogatory A: ann(e_0) is t^2 + t for mu 4, t for mu 9 and of degree 8 for mu 16
DEROGATORY = (CUBIC, X**4 + Y**4, X**5 + Y**5 + X**4 + X**2 * Y**2)


def _count_calls(monkeypatch, calls, module, name):
    """Count calls to module.name in calls[name], under every package binding of it.

    A binding is a name a module holds: the package's lazy exports are not
    bound there, and reading them would bind them for good.
    """
    import sys as _sys

    original = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)

    for loaded in list(_sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("picardfuchs") and vars(loaded).get(name) is original:
            monkeypatch.setattr(loaded, name, counted)


def test_one_krylov_pass_per_system(monkeypatch, capsys):
    # PFSystem.spectrum derives the spectral polynomials of A once: one
    # Krylov pass (plus the pencil determinant when A is derogatory) and one
    # Yun split, shared by validation and classification
    import picardfuchs.linalg as linalg
    import picardfuchs.unipoly as unipoly

    calls = collections.Counter()
    for module, name in ((linalg, "_annihilator"), (unipoly, "squarefree_decomposition"), (unipoly, "gcd")):
        _count_calls(monkeypatch, calls, module, name)

    def passes(run):
        calls.clear()
        run()
        return calls["_annihilator"], calls["squarefree_decomposition"], calls["gcd"]

    for H in (*_first_draws(1, (2, 3)), *DEROGATORY):  # the two draws are nonderogatory
        sys = build_system(H)
        assert passes(lambda: serialize_system(sys))[:2] == (1, 1)
        assert (sys.spectrum.minimal.degree() < sys.mu) == (H in DEROGATORY)
        assert passes(lambda: classify_singularities(sys)) == (0, 0, 0)
        for command in ("system", "verify"):
            assert passes(lambda: main([command, str(H)]))[0] == 1
    capsys.readouterr()


@pytest.mark.parametrize("H", [*DEROGATORY, *_first_draws(5, (2, 3, 3)), *_first_draws(11, (2, 3))],
                         ids=["cubic", "quartic", "quintic-16", "draw5-n2", "draw5-n3", "draw5-n3b",
                              "draw11-n2", "draw11-n3"])
def test_degree_rule_matches_squarefree_minimal_polynomial(H):
    # deg(minimal) == sum deg f_k over the Yun factors of the characteristic
    # polynomial decides squarefreeness without a gcd; here it meets the gcd test
    sys = build_system(H)
    assert classify_singularities(sys)["finite_fuchsian"] == is_squarefree(min_poly(sys.A))


def test_oracle_failure_comes_before_any_row(monkeypatch):
    # the quartic the oracle cannot split fails at once, and a cubic still makes 4 divisions and 1 oracle call
    import picardfuchs.system as system
    from picardfuchs.errors import NumericalFailure

    calls = collections.Counter()
    for name in ("divide_two_form", "critical_points_numeric"):
        _count_calls(monkeypatch, calls, system, name)
    with pytest.raises(NumericalFailure) as failure:
        build_system(X**4 + Y**4 - 2 * Y**2 + X**2 * Y)
    assert str(failure.value) == "x-cluster of multiplicity 5 at x = 0j does not split evenly over 3 critical points"
    assert (calls["divide_two_form"], calls["critical_points_numeric"]) == (0, 1)
    calls.clear()
    build_system(CUBIC)
    assert (calls["divide_two_form"], calls["critical_points_numeric"]) == (4, 1)


@pytest.mark.parametrize("H", [CUBIC, SPARSE_QUINTIC, RATIONAL], ids=["cubic", "sparse-quintic", "rational"])
def test_one_regularity_check_per_build(monkeypatch, H):
    # build_system hands its report to the basis and to the oracle, whose
    # critical points are those it finds with a report of its own
    import picardfuchs.milnor as milnor

    expected = critical_points_numeric(H)
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, milnor, "check_regular_at_infinity")
    sys = build_system(H)
    assert calls["check_regular_at_infinity"] == 1
    assert list(map(repr, sys.critical_points)) == list(map(repr, expected))  # bit for bit


def _out_of_order(basis, order):
    """The basis with its monomials and primitives in the given order."""
    return MilnorBasis(basis.H, basis.n, basis.mu, tuple(basis.monomials[k] for k in order),
                       tuple(basis.primitives[k] for k in order))


# (H, order of its basis or None); sparse-d6 is x^6 + y^6 + x^2 y^3 + x + 2y of mu 25, and the
# out-of-order cubic puts xy before x and y, so row 1 has no earlier predecessor and is divided whole
RECURRENCE_CASES = {
    "cubic": (CUBIC, None),
    "x^4+y^4": (X**4 + Y**4, None),
    "x^5+y^5+x^4+x^2y^2": (X**5 + Y**5 + X**4 + X**2 * Y**2, None),
    "sparse-d6": (X**6 + Y**6 + X**2 * Y**3 + X + 2 * Y, None),
    "greedy": (X**3 + 3 * X * Y**2 + Y, None),
    "rational": (RATIONAL, None),
    "cubic-out-of-order": (CUBIC, (0, 3, 1, 2)),
}


@pytest.mark.parametrize("name", list(RECURRENCE_CASES))
def test_rows_by_recurrence_match_the_whole_division(monkeypatch, name):
    import picardfuchs.system as system

    H, order = RECURRENCE_CASES[name]
    basis = monomial_basis(H)
    if order is not None:
        basis = _out_of_order(basis, order)
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, system, "divide_two_form")
    sys = build_system(H, basis=basis)
    assert calls["divide_two_form"] == basis.mu
    fresh = _out_of_order(basis, range(basis.mu))  # an empty slice store
    for i, (a, b) in enumerate(basis.monomials):
        eta, a_row = divide_two_form(H.shift(a, b), fresh)
        cert = petrov_decompose(eta, fresh)
        b_rows = [[p.coeffs[k] if len(p.coeffs) > k else 0 for p in cert.coeff_polys] for k in (0, 1)]
        assert [sys.A.entries[i], sys.B0.entries[i], sys.B1.entries[i]] == [a_row, *b_rows], (name, i)
        rhs = wedge_with_dH(H, sys.etas[i])
        for (aj, bj), c in zip(basis.monomials, sys.A.entries[i]):
            rhs = rhs + BiPoly.monomial(aj, bj, c)
        assert rhs == H.shift(a, b)
        assert sys.etas[i].is_zero() or sys.etas[i].degree() <= a + b + 2
    if order is not None:
        assert sys.etas[1] == divide_two_form(H.shift(1, 1), fresh)[0]


def test_border_only_target_over_an_invalid_basis_raises():
    # the basis of test_peel_failures_keep_their_messages: xy and y^2 are border monomials of it
    good = monomial_basis(CUBIC)
    monos = tuple((2, 0) if m == (1, 1) else m for m in good.monomials)
    bad = MilnorBasis(CUBIC, good.n, good.mu, monos, tuple(canonical_primitive(a, b) for a, b in monos))
    assert {(1, 1), (0, 2)} <= set(bad.slice_store.border)
    for _ in range(2):
        with pytest.raises(InternalRankError):
            reduce_mod_gradient(Fraction(2, 3) * Y**2 + X * Y, bad)
