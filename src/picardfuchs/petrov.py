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
Petrov module of Hhat (Gavrilov, Bull. Sci. Math. 1998).  The slice matrix
M of these columns depends only on Hhat, the basis and d, so it is reduced
once per basis and kept in the basis's SliceStore with the powers h^k (see
milnor).  A slice solves U x = E b with U = E M, the integers a fresh
elimination of [M | b] gives, so a decomposition, the length of its
coeff_polys included (the largest solved k), does not depend on earlier
queries.

The p-columns have a closed form.  With omega_i = m_i (x dy - y dx)/deg_i
for m_i = x^a y^b, deg_i = a+b+2, and any polynomial F,

    d(F omega_i) = m_i (deg_i F + E(F)) / deg_i dx^dy,   E(F) = x F_x + y F_y,

since d(F x m_i dy) = (x F_x m_i + (a+1) F m_i) dx^dy and
d(-F y m_i dx) = (y F_y m_i + (b+1) F m_i) dx^dy.  E is a derivation, so for
F = H^k this is m_i H^(k-1) (H + k E(H)/deg_i).  E multiplies the degree-j
part of a polynomial by j, so with the integer h = s*H the column is h^k
with its degree-j part scaled by deg_i + j, shifted by m_i, over deg_i s^k:
one shifted copy of the slice base of h^k that the SliceStore keeps (see
milnor), its slice of degree j weighted by deg_i + j.  The g-columns
a x^(a-1) y^b H_y - b x^a y^(b-1) H_x are two shifted copies of the slice
bases of the integer gradient of H, weighted by a and -b.

The c-columns are checked unique in every slice, and that makes the p_i
unique: if sum c_ik d(H^k omega_i) = dg^dH with the largest nonzero c_ik in
slice d, first lower deg g to at most d-n+1 (while it is larger, the top
part of g has dg_top^dHhat = 0, so g_top = lambda*Hhat^j as Hhat is
squarefree, and g - lambda*H^j has the same dg^dH); then the degree-d
slices are a nullspace vector of slice d with a nonzero c-part.

The input is read on integers once: omega = (P dx + Q dy)/s_omega with
integer terms P, Q from the integer views of its coefficients (see bipoly;
build_system sets them when it assembles eta_i from integers, so its etas
are not cleared again), and d omega = (Q_x - P_y)/s_omega is the peel's
integer target.

The remaining defect omega - sum c_ik H^k omega_i - g dH is closed, and f
is its radial primitive, which depends on a closed form P dx + Q dy only
through its radial contraction x P + y Q:

    f = sum_(a+b>=1) (P[a-1,b] + Q[a,b-1]) / (a+b) x^a y^b,

since E(f) = x P + y Q by construction, closedness gives
(x P + y Q)_x = P + E(P), so 1 + E (degree j times j+1) kills f_x - P, and
likewise f_y - Q.  The radial contraction of every F omega_i is
F m_i (y*x - x*y)/deg_i = 0, so f is the primitive of rest = omega - g dH
and needs no sum over the basis.  With g = g_int/s_g, rest is integer terms
over R = lcm(s_omega, s_g*s), g dH taken from the integer products g_int*hx
and g_int*hy, and f has the numerators above over (a+b) R.  With L the lcm
of the degrees a+b present, f = f_int / (L R) for the integer terms f_int
with the numerators times L/(a+b), read straight from rest.  The
certificate identity omega - g dH - df = sum c_ik H^k omega_i is then
checked exactly on integer terms: the left side is (L rest - df_int) /
(L R), and the right side is shifts of the powers h^k, each weighted by
the numerator of p_ik times common / q_ik with q_ik = den(p_ik) deg_i s^k,
over common = lcm of the q_ik.  Neither scale need be the least one; the
identity checked is the same at any common scale.

The witness and the inputs of that check take one pass each: rest is
accumulated in place, u (P, Q) and then -v g_int (hx, hy) product term by
product term, with no product dict to combine afterwards; one loop over
the radial terms then writes the Fraction terms of f, and subtracts the
partials of f_int (a and b times the numerator times L/(a+b)) from L rest,
which leaves the integer terms nu of (L rest - df_int).  The peel's values
reach the results as they are: the p-values go into coeff_polys only for
the basis forms that have one (the others share one zero UniPoly), and the
g-values become witness_g without a second normalisation.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bipoly import ZERO, BiPoly, _raw, combine, integer_terms, partials, shifted
from .errors import InternalRankError, NoSolutionError
from .forms import integer_one_form
from .milnor import base_terms, peel_top_slices
from .unipoly import UniPoly

ZERO_POLY = UniPoly()  # the coefficient of every basis form a decomposition does not use


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
    mu, n = basis.mu, basis.n
    store = basis.slice_store
    hx, hy, s = store.hx, store.hy, store.s
    degrees = basis.form_degrees()

    def column(label):
        kind, key = label
        if kind == "p":
            i, k = key
            return _p_column(basis.monomials[i], k, store)
        return _g_column(*key, store)

    def slice_labels(d):
        p_labels = [(i, (d + 2 - deg) // (n + 1)) for i, deg in enumerate(degrees)
                    if deg <= d + 2 and (d + 2 - deg) % (n + 1) == 0]
        e = d - n + 1
        g_monos = [(a, e - a) for a in range(e, -1, -1) if e > 0]
        return len(p_labels), [("p", label) for label in p_labels] + [("g", m) for m in g_monos]

    P, Q, s_omega = integer_one_form(omega)
    d_omega = combine((1, partials(Q)[0]), (-1, partials(P)[1]))
    values = peel_top_slices((d_omega, s_omega), store.operators["petrov"], slice_labels, column, NoSolutionError)
    p_values, by_row = {}, {}
    for (kind, key), v in values.items():
        if kind == "p":
            i, k = key
            p_values[key] = by_row.setdefault(i, {})[k] = v
    coeff_polys = [ZERO_POLY] * mu
    for i, row in by_row.items():
        coeff_polys[i] = UniPoly([row.get(k, ZERO) for k in range(max(row) + 1)])
    witness_g = _raw({m: v for (kind, m), v in values.items() if kind == "g"})

    # every H^k omega_i has zero radial contraction, so f integrates rest = omega - g dH
    g, sg = integer_terms(witness_g)
    # rest over R = lcm(s_omega, s_g s): P / s_omega = u P / R, g H_x = v g hx / R
    R = lcm(s_omega, sg * s)
    u, v = R // s_omega, R // (sg * s)
    rest_P, rest_Q = shifted(P, 0, 0, u), shifted(Q, 0, 0, u)
    for (a1, b1), c1 in g.items():
        w = -v * c1
        for rest, dh in ((rest_P, hx), (rest_Q, hy)):
            for (a2, b2), c2 in dh.items():
                e = (a1 + a2, b1 + b2)
                rest[e] = rest.get(e, 0) + w * c2
    radial = {(a + 1, b): c for (a, b), c in rest_P.items()}
    for (a, b), c in rest_Q.items():
        radial[a, b + 1] = radial.get((a, b + 1), 0) + c
    radial = {e: c for e, c in radial.items() if c}

    # f = f_int / (L R) with L the lcm of the degrees a+b present, so rest - df = (L rest - df_int) / (L R);
    # one loop over the radial terms writes f and subtracts df_int from L rest
    L = lcm(*{a + b for a, b in radial})
    f_terms = {}
    nu_P, nu_Q = shifted(rest_P, 0, 0, L), shifted(rest_Q, 0, 0, L)
    for (a, b), c in radial.items():
        f_terms[a, b] = Fraction(c, (a + b) * R)
        f = c * (L // (a + b))
        if a:
            nu_P[a - 1, b] = nu_P.get((a - 1, b), 0) - a * f
        if b:
            nu_Q[a, b - 1] = nu_Q.get((a, b - 1), 0) - b * f
    witness_f = _raw(f_terms)
    nu_P = {e: c for e, c in nu_P.items() if c}
    nu_Q = {e: c for e, c in nu_Q.items() if c}
    powers = {k: base_terms(store.power(k)) for k in {k for _, k in p_values}}
    if not _is_radial_combination(nu_P, nu_Q, L * R, p_values, basis.monomials, powers, s):
        raise InternalRankError("closed defect failed to integrate; basis invalid")

    return PetrovDecomposition(tuple(coeff_polys), witness_g, witness_f)


def _p_column(monomial, k, store):
    """d(H^k omega_i) as (pieces, denominator), from the stored h^k = (s H)^k.

    The one piece is m_i (deg_i h^k + E(h^k)): the slice base of h^k with
    its degree-j slice weighted by deg_i + j, shifted by m_i; the
    denominator is deg_i s^k.
    """
    a, b = monomial
    deg = a + b + 2
    return [(deg, 1, store.power(k), a, b)], deg * store.s**k


def _g_column(a, b, store):
    """d(x^a y^b)^dH as (pieces, s): a x^(a-1) y^b hy - b x^a y^(b-1) hx over s, zero weights left out."""
    pieces = [(a, 0, store.hy_base, a - 1, b)] if a else []
    return pieces + ([(-b, 0, store.hx_base, a, b - 1)] if b else []), store.s


def _is_radial_combination(nu_P, nu_Q, denom, p_values, monomials, powers, s):
    """Whether (nu_P dx + nu_Q dy) / denom = sum_(i,k) p_values[i, k] H^k omega_i, on integer terms.

    The sum is S (x dy - y dx) with S = sum p_ik h^k m_i / (deg_i s^k), the
    integer terms total over common, the lcm of the q_ik = den(p_ik) deg_i s^k:
    the weight of h^k m_i is num(p_ik) common / q_ik.
    """
    denominators = [v.denominator * (sum(monomials[i]) + 2) * s**k for (i, k), v in p_values.items()]
    common = lcm(*denominators)
    weights = [v.numerator * (common // d) for v, d in zip(p_values.values(), denominators)]
    total = combine(*((w, shifted(powers[k], *monomials[i])) for (i, k), w in zip(p_values, weights)))
    return (shifted(nu_P, 0, 0, common) == shifted(total, 0, 1, -denom)
            and shifted(nu_Q, 0, 0, common) == shifted(total, 1, 0, denom))
