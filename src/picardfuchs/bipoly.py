"""Exact sparse bivariate polynomials over the rationals.

A polynomial is a map from exponent pairs to nonzero rational coefficients:

    x^2*y + 3/2  ->  {(2, 1): Fraction(1), (0, 0): Fraction(3, 2)}

Zero coefficients are never stored; the zero polynomial is the empty map and
has degree -inf.  Instances are immutable (all operations return new values),
hashable, and safe to share between threads.

The one monomial order used across the package is graded lexicographic with x
before y: monomials are compared by total degree first, and within the same
degree the x-heavy monomial comes first (x^2 > x*y > y^2).

The exact layers compute on integer terms, {(a, b): int} without zeros over
one positive denominator that the caller keeps.  Their whole arithmetic is
here: ``cleared`` (the one place denominators are cleared), ``integer_terms``,
``shifted``, ``add_into``/``combine``, ``times`` and ``partials``.  BiPoly's
ring operators and ``partial`` run on it too: each clears its operands once
with ``integer_terms``, computes on the integer terms and divides the result
once by its denominator (``from_integer_terms``).

Each polynomial keeps one integer view, the pair ``integer_terms`` returns:
the integer terms over the least positive denominator, the lcm of the
coefficients' denominators.  It is made on the first ``integer_terms`` call,
or set by ``from_integer_terms``, which has the integers at hand and only
divides out their content with the denominator; ``integer_terms`` hands out
a copy of the terms, so callers may change what they get.

The float side reads one complex view per polynomial, ``complex_terms``:
each coefficient converted to complex once, on first use, and kept like the
hash.  ``eval_at`` at a non-exact point, ``y_coefficients`` and the
oracle's and cycle tracing's fiber rows read it.
"""

from fractions import Fraction
from math import gcd, lcm

NEG_INFINITY = float("-inf")
ZERO = Fraction(0)  # the one zero the exact layers hand out for a missing coefficient


def _frac(value):
    """Coerce ints, strings like '3/2' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


# -- integer terms -----------------------------------------------------------


def cleared(values):
    """(ints, denom): values[k] = ints[k] / denom, ints a new list, denom the positive lcm of the denominators."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    denom = lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def integer_terms(poly):
    """(terms, denominator): poly = terms / denominator, integer terms, the least positive denominator.

    The terms are a new dict, a copy of the polynomial's integer view.
    """
    terms, denom = _integer_view(poly)
    return dict(terms), denom


def _integer_view(poly):
    """The kept (terms, denominator) of poly, made on first use; the terms must not be changed."""
    if poly._ints is None:
        ints, denom = cleared(list(poly.terms.values()))
        object.__setattr__(poly, "_ints", (dict(zip(poly.terms, ints)), denom))
    return poly._ints


def shifted(terms, i, j, scale=1):
    """The terms of scale * x^i y^j * terms: exponents moved, coefficients times scale."""
    return {(a + i, b + j): scale * c for (a, b), c in terms.items()}


def add_into(out, w, p):
    """out += w * p in place, for integer terms; coefficients that cancel are removed."""
    for e, c in p.items():
        s = out.get(e, 0) + w * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)


def combine(*weighted):
    """The integer terms sum_k w_k * p_k of (w_k, p_k) pairs of integers and integer terms."""
    out = {}
    for w, p in weighted:
        add_into(out, w, p)
    return out


def times(p, q):
    """The product of two polynomials given as integer terms."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def partials(terms):
    """(d/dx, d/dy) of a polynomial given as integer terms, as integer terms."""
    return ({(a - 1, b): a * c for (a, b), c in terms.items() if a},
            {(a, b - 1): b * c for (a, b), c in terms.items() if b})


def grlex_key(exponents):
    """Sort key realizing graded lex with x before y (ascending)."""
    a, b = exponents
    return (a + b, b)


class BiPoly:
    """Immutable sparse polynomial in x and y with Fraction coefficients."""

    __slots__ = ("terms", "_hash", "_complex", "_ints")

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
        object.__setattr__(self, "_complex", None)
        object.__setattr__(self, "_ints", None)

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
        return self.terms.get((a, b), ZERO)

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
        (p, sp), (q, sq) = integer_terms(self), integer_terms(other)
        return from_integer_terms(combine((sq, p), (sp, q)), sp * sq)

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
        (p, sp), (q, sq) = integer_terms(self), integer_terms(other)
        return from_integer_terms(times(p, q), sp * sq)

    __rmul__ = __mul__

    def shift(self, a, b):
        """x^a y^b * self, by moving the exponents: no coefficient arithmetic."""
        return _raw({(i + a, j + b): c for (i, j), c in self.terms.items()})

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        base, denom = integer_terms(self)
        result = {(0, 0): 1}
        e = exponent
        while e:
            if e & 1:
                result = times(result, base)
            base = times(base, base)
            e >>= 1
        return from_integer_terms(result, denom**exponent)

    # -- calculus ----------------------------------------------------------

    def partial(self, var):
        """Formal partial derivative with respect to 'x' or 'y'."""
        terms, denom = integer_terms(self)
        return from_integer_terms(partials(terms)[_var_index(var)], denom)

    # -- evaluation --------------------------------------------------------

    def complex_terms(self):
        """The terms as a tuple of ((a, b), complex(c)) pairs in the order of ``terms``, made once on first use."""
        if self._complex is None:
            object.__setattr__(self, "_complex", tuple((e, complex(c)) for e, c in self.terms.items()))
        return self._complex

    def eval_at(self, x, y):
        """Evaluate at a point; exact for Fraction/int inputs, complex (on ``complex_terms``) otherwise."""
        if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
            return sum(c * x**a * y**b for (a, b), c in self.terms.items())
        total = 0
        for (a, b), c in self.complex_terms():
            total += c * (x**a) * (y**b)
        return total

    def y_coefficients(self, x_value):
        """Complex coefficients in y (ascending) after substituting x = x_value."""
        deg = self.degree_in("y")
        if deg == NEG_INFINITY:
            return []
        coeffs = [0j] * (deg + 1)
        for (a, b), c in self.complex_terms():
            coeffs[b] += c * x_value**a
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
        # graded order, highest degree first, x-heavy first within a degree
        order = sorted(self.terms.items(), key=lambda term: (-sum(term[0]), term[0][1]))
        return signed_terms((c, _monomial_text(a, b)) for (a, b), c in order)


def _monomial_text(a, b):
    """x^a*y^b as text, without the factors of exponent 0: x^2*y, y, "" for a = b = 0."""
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in (("x", a), ("y", b)) if e)


def monomial_str(a, b):
    """x^a*y^b as text as the basis listings print it: "1" for a = b = 0."""
    return _monomial_text(a, b) or "1"


def signed_terms(terms):
    """The sum of (coefficient, monomial text) pairs, in their order, as text; "0" when there are none.

    The monomial text of a constant term is "", and a coefficient of modulus
    1 before a monomial is left out: -x^2 + 3/2*x*y - 1.
    """
    pieces = []
    for c, mono in terms:
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = ("+ " if c > 0 else "- ") if pieces else ("" if c > 0 else "-")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


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


def from_integer_terms(terms, denom):
    """The BiPoly terms / denom, for integer terms without zeros and a positive denom.

    The pair, its content divided out, becomes the polynomial's integer
    view, so ``terms`` belongs to the polynomial: the caller must not
    change it afterwards.
    """
    content = gcd(denom, *terms.values())
    if content > 1:
        terms = {e: c // content for e, c in terms.items()}
        denom //= content
    p = _raw({e: Fraction(c, denom) for e, c in terms.items()})
    object.__setattr__(p, "_ints", (terms, denom))
    return p


def _raw(terms):
    """Wrap an already-canonical term dict without re-normalizing."""
    p = BiPoly.__new__(BiPoly)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    object.__setattr__(p, "_complex", None)
    object.__setattr__(p, "_ints", None)
    return p


X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
