"""Decomposition of 1-forms in the C[t]-module basis [omega_1..omega_mu].

Every polynomial 1-form omega satisfies, for the basis attached to a
Hamiltonian regular at infinity,

    omega = sum_i p_i(H) * omega_i + g*dH + df,      p_i in Q[t],

with the degree bounds (n+1)*deg p_i + deg omega_i <= deg omega,
deg g <= deg omega - (n+1) and deg f <= deg omega.  The p_i are unique
(forms with zero periods are exactly g*dH + df); the witnesses g, f are not.

The solve equates exterior derivatives, d omega = sum c_ik d(H^k omega_i)
+ dg^dH, and peels it one top slice at a time (milnor.peel_top_slices),
which meets the degree bounds above.  The columns of slice d are
d(H^k omega_i) for (n+1)k + deg omega_i = d+2 (top slice a nonzero multiple
of Hhat^k m_i), then dg^dH for the monomials g of degree d-n+1 >= 1 (top
slice dg^dHhat).  Every slice is solvable by the graded freeness of the
Petrov module of Hhat (Gavrilov, Bull. Sci. Math. 1998).  The p-columns
are cleared of denominators; the g-columns a x^(a-1) y^b H_y - b x^a y^(b-1) H_x
are the integer gradient of H with its exponents shifted, scaled by a and b.

The c-columns are checked unique in every slice, and that makes the p_i
unique: if sum c_ik d(H^k omega_i) = dg^dH with the largest nonzero c_ik in
slice d, first lower deg g to at most d-n+1 (while it is larger, the top
part of g has dg_top^dHhat = 0, so g_top = lambda*Hhat^j as Hhat is
squarefree, and g - lambda*H^j has the same dg^dH); then the degree-d
slices are a nullspace vector of slice d with a nonzero c-part.

The remaining closed defect is integrated in closed form (radial homotopy)
to produce f, so the certificate identity holds exactly as 1-forms.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .errors import InternalRankError, NoSolutionError
from .forms import OneForm, differential, exterior_derivative
from .milnor import integer_gradient, integer_terms, peel_top_slices, shifted
from .unipoly import UniPoly


@dataclass(frozen=True)
class PetrovDecomposition:
    """omega = sum_i coeff_polys[i](H) * omega_i + witness_g*dH + d(witness_f)."""

    coeff_polys: tuple      # of UniPoly, one per basis element
    witness_g: BiPoly
    witness_f: BiPoly

    def is_zero_class(self):
        return all(p.is_zero() for p in self.coeff_polys)


def petrov_decompose(omega, basis):
    """Decompose a polynomial 1-form over the Petrov-module basis, exactly."""
    mu, n, H = basis.mu, basis.n, basis.H
    hx, hy, s = integer_gradient(H)
    degrees = basis.form_degrees()
    powers = [BiPoly.constant(1)]
    forms = {}      # (i, k) -> H^k omega_i

    def slice_columns(d):
        p_labels = [(i, (d + 2 - deg) // (n + 1)) for i, deg in enumerate(degrees)
                    if deg <= d + 2 and (d + 2 - deg) % (n + 1) == 0]
        for i, k in p_labels:
            while len(powers) <= k:
                powers.append(powers[-1] * H)
            forms[i, k] = basis.primitives[i].multiply(powers[k])
        e = d - n + 1
        g_monos = [(a, e - a) for a in range(e, -1, -1) if e > 0]
        columns = [integer_terms(exterior_derivative(forms[label])) for label in p_labels]
        columns += [(_dg_wedge_dH(a, b, hx, hy), s) for a, b in g_monos]
        return len(p_labels), [("p", label) for label in p_labels] + [("g", m) for m in g_monos], columns

    values = peel_top_slices(exterior_derivative(omega), slice_columns, NoSolutionError)
    p_values = {key: v for (kind, key), v in values.items() if kind == "p"}
    coeff_polys = tuple(UniPoly([p_values.get((i, k), 0) for k in range(len(powers))]) for i in range(mu))
    witness_g = BiPoly({m: v for (kind, m), v in values.items() if kind == "g"})
    assembled = OneForm.zero()
    for key, value in p_values.items():
        assembled = assembled + forms[key].scale(value)

    # the remaining defect is closed; integrate it radially to get f
    defect = omega - assembled - differential_coefficient(witness_g, H)
    witness_f = closed_primitive(defect)
    if differential(witness_f) != defect:
        raise InternalRankError("closed defect failed to integrate; basis invalid")

    return PetrovDecomposition(coeff_polys, witness_g, witness_f)


def _dg_wedge_dH(a, b, hx, hy):
    """s * d(x^a y^b) ^ dH = a x^(a-1) y^b hy - b x^a y^(b-1) hx, for H_x = hx/s, H_y = hy/s."""
    terms = shifted(hy, a - 1, b, a) if a else {}
    for e, c in (shifted(hx, a, b - 1, -b) if b else {}).items():
        terms[e] = terms.get(e, 0) + c
    return {e: c for e, c in terms.items() if c}


def differential_coefficient(g, H):
    """The 1-form g*dH."""
    return OneForm(g * H.partial("x"), g * H.partial("y"))


def closed_primitive(nu):
    """Exact polynomial primitive of a closed 1-form (radial homotopy formula).

    For nu = P dx + Q dy closed, f = int_0^1 [x P(sx,sy) + y Q(sx,sy)] ds
    termwise; d f = nu whenever nu is closed.
    """
    terms = {}
    for (a, b), c in nu.P.terms.items():
        e = (a + 1, b)
        terms[e] = terms.get(e, Fraction(0)) + c / (a + b + 1)
    for (a, b), c in nu.Q.terms.items():
        e = (a, b + 1)
        terms[e] = terms.get(e, Fraction(0)) + c / (a + b + 1)
    return BiPoly(terms)
