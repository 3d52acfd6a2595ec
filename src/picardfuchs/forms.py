"""Polynomial differential forms on the plane.

OneForm is P dx + Q dy with BiPoly coefficients.  Every 2-form on the plane
is F dx^dy, so a 2-form is passed as its coefficient F, a BiPoly.  Degree
bookkeeping follows the convention deg(x^a y^b dx) = a + b + 1 and
deg(F dx^dy) = deg F + 2, so division degree bounds hold verbatim.

The canonical primitive of a monomial 2-form is the radial (Euler) one,

    x^a y^b dx^dy  =  d( (x^{a+1} y^b dy - x^a y^{b+1} dx) / (a+b+2) ),

which is homogeneous and degree-minimal; with it, a monomial basis of size mu
automatically carries total form degree mu * deg H.
"""

from fractions import Fraction

from .bipoly import NEG_INFINITY, BiPoly, _frac, cleared


class OneForm:
    """P dx + Q dy with polynomial coefficients."""

    __slots__ = ("P", "Q")

    def __init__(self, P, Q):
        object.__setattr__(self, "P", P if isinstance(P, BiPoly) else BiPoly.constant(P))
        object.__setattr__(self, "Q", Q if isinstance(Q, BiPoly) else BiPoly.constant(Q))

    @classmethod
    def zero(cls):
        return cls(BiPoly.zero(), BiPoly.zero())

    def is_zero(self):
        return self.P.is_zero() and self.Q.is_zero()

    def degree(self):
        if self.is_zero():
            return NEG_INFINITY
        return 1 + max(self.P.degree(), self.Q.degree())

    def __add__(self, other):
        return OneForm(self.P + other.P, self.Q + other.Q)

    def __sub__(self, other):
        return OneForm(self.P - other.P, self.Q - other.Q)

    def __neg__(self):
        return OneForm(-self.P, -self.Q)

    def scale(self, c):
        return self.multiply(BiPoly.constant(_frac(c)))

    def multiply(self, poly):
        """Multiply both coefficients by a polynomial (module action)."""
        return OneForm(self.P * poly, self.Q * poly)

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.P == other.P and self.Q == other.Q

    def __hash__(self):
        return hash((self.P, self.Q))

    def __str__(self):
        return f"({self.P}) dx + ({self.Q}) dy"

    __repr__ = __str__


def integer_one_form(omega):
    """(P, Q, denom): omega = (P dx + Q dy) / denom with integer terms P, Q, denom > 0."""
    P, Q = omega.P.terms, omega.Q.terms
    ints, denom = cleared([*P.values(), *Q.values()])
    return dict(zip(P, ints)), dict(zip(Q, ints[len(P):])), denom


def canonical_primitive(a, b):
    """Radial primitive of x^a y^b dx^dy.

    Returns (x^{a+1} y^b dy - x^a y^{b+1} dx) / (a+b+2); its exterior
    derivative is exactly x^a y^b dx^dy and its degree is a + b + 2.
    """
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    scale = Fraction(1, a + b + 2)
    return OneForm(BiPoly.monomial(a, b + 1, -scale), BiPoly.monomial(a + 1, b, scale))
