"""Exact sparse bivariate polynomials over the rationals.

A polynomial is a map from exponent pairs to nonzero rational coefficients:

    x^2*y + 3/2  ->  {(2, 1): Fraction(1), (0, 0): Fraction(3, 2)}

Zero coefficients are never stored; the zero polynomial is the empty map and
has degree -inf.  Instances are immutable (all operations return new values),
hashable, and safe to share between threads.

The one monomial order used across the package is graded lexicographic with x
before y: monomials are compared by total degree first, and within the same
degree the x-heavy monomial comes first (x^2 > x*y > y^2).
"""

from fractions import Fraction

NEG_INFINITY = float("-inf")


def _frac(value):
    """Coerce ints, strings like '3/2' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def grlex_key(exponents):
    """Sort key realizing graded lex with x before y (ascending)."""
    a, b = exponents
    return (a + b, b)


class BiPoly:
    """Immutable sparse polynomial in x and y with Fraction coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for (a, b), coeff in terms.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in {(a, b)}")
                c = _frac(coeff)
                if c != 0:
                    canonical[(int(a), int(b))] = c
        object.__setattr__(self, "terms", canonical)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, value):
        return cls({(0, 0): _frac(value)})

    @classmethod
    def monomial(cls, a, b, coeff=1):
        return cls({(a, b): _frac(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INFINITY
        return max(a + b for a, b in self.terms)

    def degree_in(self, var):
        """Degree in a single variable ('x' or 'y'); -inf for zero."""
        if not self.terms:
            return NEG_INFINITY
        idx = _var_index(var)
        return max(e[idx] for e in self.terms)

    def coefficient(self, a, b):
        return self.terms.get((a, b), Fraction(0))

    def homogeneous_slice(self, d):
        """The sum of all terms of total degree exactly d."""
        return BiPoly({e: c for e, c in self.terms.items() if e[0] + e[1] == d})

    def highest_part(self):
        """Highest homogeneous part; raises on the zero polynomial."""
        from .errors import ZeroPolynomialError

        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no highest homogeneous part")
        return self.homogeneous_slice(self.degree())

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = BiPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, var):
        """Formal partial derivative with respect to 'x' or 'y'."""
        idx = _var_index(var)
        out = {}
        for (a, b), c in self.terms.items():
            e = (a, b)[idx]
            if e == 0:
                continue
            new = (a - 1, b) if idx == 0 else (a, b - 1)
            out[new] = out.get(new, Fraction(0)) + c * e
        return _raw({e: c for e, c in out.items() if c != 0})

    # -- evaluation --------------------------------------------------------

    def eval_at(self, x, y):
        """Evaluate at a point; exact for Fraction/int inputs, complex otherwise."""
        total = 0
        for (a, b), c in self.terms.items():
            if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
                total += c * x**a * y**b
            else:
                total += complex(c) * (x**a) * (y**b)
        return total

    def y_coefficients(self, x_value):
        """Complex coefficients in y (ascending) after substituting x = x_value."""
        deg = self.degree_in("y")
        if deg == NEG_INFINITY:
            return []
        coeffs = [0j] * (deg + 1)
        for (a, b), c in self.terms.items():
            coeffs[b] += complex(c) * x_value**a
        return coeffs

    def swap_variables(self):
        return _raw({(b, a): c for (a, b), c in self.terms.items()})

    # -- comparisons / hashing / printing -----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"BiPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        # graded order, highest degree first, x-heavy first within a degree
        for (a, b), c in sorted(self.terms.items(), key=lambda term: (-sum(term[0]), term[0][1])):
            mono = []
            if a == 1:
                mono.append("x")
            elif a > 1:
                mono.append(f"x^{a}")
            if b == 1:
                mono.append("y")
            elif b > 1:
                mono.append(f"y^{b}")
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(mono)
            else:
                body = "*".join([str(abs(c))] + mono)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


def _var_index(var):
    if var == "x":
        return 0
    if var == "y":
        return 1
    raise ValueError(f"variable must be 'x' or 'y', got {var!r}")


def _coerce(value):
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BiPoly.constant(value)
    return NotImplemented


def _raw(terms):
    """Wrap an already-canonical term dict without re-normalizing."""
    p = BiPoly.__new__(BiPoly)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
