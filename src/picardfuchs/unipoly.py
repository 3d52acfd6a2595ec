"""Univariate polynomials over the rationals (dense, ascending coefficients).

Hosts the pieces of exact linear algebra output that live in one variable:
characteristic/minimal polynomials, resultants after elimination, and the
determinant of the matrix pencil B0 + t*B1.  Numeric root extraction goes
through an exact Yun squarefree decomposition first, so multiple roots are
found as simple roots of squarefree factors and keep full double accuracy.

The gcd under every squarefree split is Brown's primitive pseudo-remainder
sequence over Z (W. S. Brown, "On Euclid's algorithm and the computation of
polynomial greatest common divisors", JACM 18, 1971): Euclid on integer
coefficient lists, with each pseudo-remainder divided by its content.  Euclid
over Q lets the numerators and denominators of the remainders grow far past
the size of the gcd; the primitive parts stay near it.
"""

from fractions import Fraction
from math import gcd as _igcd, lcm

from .bipoly import _frac


class UniPoly:
    """Immutable dense polynomial in one variable t over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, c):
        return cls([c])

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        if len(rem) - 1 < d:
            return UniPoly(), self
        quot = [Fraction(0)] * (len(rem) - d)
        lead = other.leading()
        for k in range(len(rem) - 1 - d, -1, -1):
            factor = rem[k + d] / lead
            quot[k] = factor
            if factor != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= factor * b
        return UniPoly(quot), UniPoly(rem[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative(self):
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly([c / lead for c in self.coeffs])

    def evaluate(self, value):
        """Exact Horner evaluation at an int or Fraction."""
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def __str__(self):
        if self.is_zero():
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"UniPoly({self})"


def _coerce(value):
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly.constant(value)
    raise TypeError(f"cannot mix UniPoly with {value!r}")


def gcd(p, q):
    """Monic gcd over Q by the primitive pseudo-remainder sequence over Z.

    Each argument is scaled to its primitive integer part, then a, b becomes
    b, pp(c*a mod b) until b = 0, with c an integer dividing
    lc(b)^(deg a - deg b + 1).  Every remainder is a nonzero rational multiple
    of the one Euclid over Q would reach, so the last nonzero one made monic is
    the same monic gcd.  gcd(p, 0) is monic p and gcd(0, 0) is 0.
    """
    a, b = _primitive(p.coeffs), _primitive(q.coeffs)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return UniPoly(a).monic()


def _primitive(coeffs):
    """The integer list proportional to coeffs with content 1 and positive lead ([] for zero)."""
    if not coeffs:
        return []
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = _igcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _pseudo_remainder(a, b):
    """An integer multiple of a mod b, for integer lists with b nonzero.

    Each step cancels the top term of r by m*r - s*t^k*b, with m and s the
    leading coefficients of b and r over their gcd.
    """
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    while len(r) > d:
        top = r.pop()
        g = _igcd(lead, top)
        m, s = lead // g, top // g
        r = [m * c for c in r]
        k = len(r) - d
        for j in range(d):
            r[k + j] -= s * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def is_squarefree(p):
    """True iff p has no repeated roots (gcd with its derivative is constant)."""
    if p.degree() <= 1:
        return True
    return gcd(p, p.derivative()).degree() == 0


def squarefree_decomposition(p):
    """Yun's algorithm: p = lead * prod f_k^k with f_k squarefree, coprime.

    Returns (leading coefficient, list of (f_k, k) with deg f_k >= 1).
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    lead = p.leading()
    p = p.monic()
    if p.degree() == 0:
        return lead, []
    dp = p.derivative()
    a = gcd(p, dp)
    b = p // a
    c = dp // a
    d = c - b.derivative()
    factors = []
    k = 1
    while b.degree() >= 1:
        f = gcd(b, d)
        if f.degree() >= 1:
            factors.append((f.monic(), k))
        b = b // f
        c = d // f
        d = c - b.derivative()
        k += 1
    return lead, factors


def roots_with_multiplicity(p):
    """Numeric complex roots with exact multiplicities.

    Each squarefree factor from Yun's decomposition is rooted separately
    (companion-matrix eigenvalues), so repeated roots of p are simple roots of
    their factor and come back at full double precision.  Linear factors are
    solved exactly.
    """
    import numpy as np

    _, factors = squarefree_decomposition(p)
    out = []
    for f, mult in factors:
        if f.degree() == 1:
            out.append((complex(-f[0] / f[1]), mult))
            continue
        coeffs = _float_coefficients(f)
        for r in np.roots(coeffs[::-1]):
            out.append((complex(r), mult))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _float_coefficients(p):
    """Ascending float coefficients, rescaled exactly to avoid overflow."""
    scale = max(abs(c) for c in p.coeffs)
    return [float(c / scale) for c in p.coeffs]


def lagrange_interpolate(points):
    """The unique UniPoly of degree < len(points) through exact (x, y) pairs.

    Newton divided differences c_k, then Horner expansion of
    c_0 + (t - x_0)(c_1 + (t - x_1)(c_2 + ...)): O(N^2) operations.
    """
    xs = [_frac(x) for x, _ in points]
    coeffs = [_frac(y) for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - k])
    acc = coeffs[-1:]
    for x, c in zip(reversed(xs[:-1]), reversed(coeffs[:-1])):
        acc = [c - x * acc[0]] + [a - x * b for a, b in zip(acc, acc[1:])] + [acc[-1]]
    return UniPoly(acc)
