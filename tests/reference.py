"""Plain reference forms of package operations, for the tests only.

The package computes these on integer terms inside its solvers; here they
are the textbook formulas on Fraction polynomials, so a test can state an
identity the way the paper writes it.
"""

import math
from fractions import Fraction

import numpy as np

from picardfuchs import periods
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


def column_polynomial(pieces, den):
    """The polynomial of a peel column given as pieces (w0, w1, base, i, j), over den.

    Each piece is x^i y^j times its base with the slice of degree e weighted by w0 + w1 e.
    """
    total = BiPoly.zero()
    for w0, w1, base, i, j in pieces:
        for e, row in base.items():
            total = total + BiPoly({(e - b + i, b + j): Fraction((w0 + w1 * e) * c, den) for b, c in row})
    return total


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


def x_loop_points(H, t, seed, samples, loop_center=0j, turns=1):
    """The samples of an x-loop lifted one x value at a time by periods._continue_root.

    The per-sample form of trace_cycle(..., mode="x_loop"): the nearest root
    at the seed x starts the lift, and every x on the circle continues it
    from the previous x with the fiber roots computed in advance.
    """
    center, x_seed, y_seed = complex(loop_center), complex(seed[0]), complex(seed[1])
    roots = next(periods._fiber_roots(H, t, [x_seed]))
    y = complex(roots[np.argmin(np.abs(roots - y_seed))])
    angles = 2.0 * math.pi * turns * np.arange(samples + 1) / samples
    xs = center + (x_seed - center) * np.exp(1j * angles)
    points, prev_x = [], x_seed
    for xk, roots in zip(xs.tolist(), periods._fiber_roots(H, t, xs)):
        y = periods._continue_root(H, t, prev_x, y, xk, roots)
        points.append((xk, y))
        prev_x = xk
    return tuple(points[:-1])  # the sample at angle 2 pi turns closes the loop
