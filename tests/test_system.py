"""System assembly, structural validation, classification, serialization."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from picardfuchs.bipoly import BiPoly, X, Y
from picardfuchs.cli import main
from picardfuchs.forms import TwoForm, wedge_with_dH
from picardfuchs.linalg import RatMatrix, char_poly, min_poly
from picardfuchs.milnor import MilnorBasis
from picardfuchs.serialize import serialize_system, system_from_dict
from picardfuchs.system import build_system, classify_singularities, validate_system
from picardfuchs.unipoly import UniPoly, is_squarefree, roots_with_multiplicity, squarefree_decomposition
from tests.conftest import random_regular_hamiltonian

QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + Y
SPARSE_QUINTIC = X**5 + Y**5 + X**2 * Y**2 + X + 2 * Y
CUBIC = X**3 + Y**3 - 3 * X * Y


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
            lhs = TwoForm(H * BiPoly.monomial(a, b))
            rhs = wedge_with_dH(H, sys.etas[i])
            for j, (aj, bj) in enumerate(sys.basis.monomials):
                rhs = rhs + TwoForm(BiPoly.monomial(aj, bj, sys.A[i, j]))
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
    parsed = system_from_dict(doc)
    assert parsed["A"] == sys.A
    assert parsed["B0"] == sys.B0
    assert parsed["B1"] == sys.B1
    assert parsed["mu"] == 4
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
