"""Plain reference forms of package operations, for the tests only.

The package computes these on integer terms inside its solvers; here they
are the textbook formulas on Fraction polynomials, so a test can state an
identity the way the paper writes it.
"""

from fractions import Fraction

from picardfuchs.bipoly import BiPoly
from picardfuchs.forms import OneForm
from picardfuchs.linalg import RatMatrix
from picardfuchs.milnor import reduce_mod_gradient


def exterior_derivative(omega):
    """d(P dx + Q dy) = (dQ/dx - dP/dy) dx^dy, returned as its coefficient."""
    return omega.Q.partial("x") - omega.P.partial("y")


def differential(f):
    """df = f_x dx + f_y dy for a polynomial f."""
    return OneForm(f.partial("x"), f.partial("y"))


def wedge_with_dH(H, eta):
    """dH ^ eta = (H_x * Q - H_y * P) dx^dy for eta = P dx + Q dy, returned as its coefficient."""
    return H.partial("x") * eta.Q - H.partial("y") * eta.P


def differential_coefficient(g, H):
    """The 1-form g*dH."""
    return OneForm(g * H.partial("x"), g * H.partial("y"))


def multiplication_matrix(basis):
    """Matrix of multiplication by H on the quotient: H*m_i = sum_j A_ij m_j."""
    rows = []
    for a, b in basis.monomials:
        red = reduce_mod_gradient(basis.H * BiPoly.monomial(a, b), basis)
        rows.append(list(red.remainder_coeffs))
    return RatMatrix(rows)


def matvec(matrix, vec):
    """The exact product of a RatMatrix with a vector of ints or Fractions, as a list of Fractions."""
    if len(vec) != matrix.cols:
        raise ValueError("shape mismatch")
    vec = [Fraction(v) for v in vec]
    return [sum((row[k] * vec[k] for k in range(matrix.cols)), Fraction(0)) for row in matrix.entries]
