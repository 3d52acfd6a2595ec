"""Univariate polynomials over the rationals (dense, ascending coefficients).

Hosts the pieces of exact linear algebra output that live in one variable:
characteristic/minimal polynomials, resultants after elimination, and the
determinant of the matrix pencil B0 + t*B1.  Numeric root extraction goes
through an exact Yun squarefree decomposition first, so multiple roots are
found as simple roots of squarefree factors and keep full double accuracy;
the factors are rooted by fibers.companion_roots, by the rule stated there.
Most polynomials the package splits are squarefree, and one prime proves
it in O(deg^2) operations on integers below 2^61: squarefree_decomposition
returns at once when that certificate holds, and runs Yun's split only when
it does not apply; is_squarefree reads its answer from that decomposition.

The gcd under every squarefree split is Brown's primitive pseudo-remainder
sequence over Z (W. S. Brown, "On Euclid's algorithm and the computation of
polynomial greatest common divisors", JACM 18, 1971): Euclid on integer
coefficient lists, with each pseudo-remainder divided by its content.  Euclid
over Q lets the numerators and denominators of the remainders grow far past
the size of the gcd; the primitive parts stay near it.  Interpolation, too,
runs over Z: its callers sample at the integer nodes 0..N, where Newton's
forward differences of integer values stay integers.
"""

from fractions import Fraction
from math import factorial, gcd as _igcd

import numpy as np

from .bipoly import ZERO, _frac, cleared, signed_terms
from .fibers import companion_roots


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
        return self.coeffs[-1] if self.coeffs else ZERO

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

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

    def __str__(self):
        terms = [(c, "" if k == 0 else "t" if k == 1 else f"t^{k}") for k, c in enumerate(self.coeffs) if c]
        return signed_terms(reversed(terms))

    def __repr__(self):
        return f"UniPoly({self})"


def horner(coeffs, value):
    """The polynomial with ascending coefficients coeffs at value, exact for ints and Fractions."""
    total = 0
    for c in reversed(coeffs):
        total = total * value + c
    return total


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
    ints, _ = cleared(coeffs)
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


CERTIFICATE_PRIME = 2**61 - 1  # the one prime of the squarefree certificate


def _squarefree_mod_prime(p):
    """Whether one prime certifies p squarefree: False only means the certificate does not apply.

    Let P be the integer multiple of p with its denominators cleared and q
    the prime CERTIFICATE_PRIME.  If q does not divide lc(P) and
    gcd(P mod q, P' mod q) is constant, then p is squarefree.  For if it is
    not, P has a factor f^2 with f primitive and deg f >= 1 (a repeated
    factor over Q, made primitive, divides P over Z by Gauss's lemma).
    lc(f)^2 divides lc(P), which q does not divide, so f keeps its degree
    mod q, and f mod q divides both P = f^2 g and P' = f (2 f' g + f g')
    mod q: their gcd mod q is not constant.  Euclid mod q runs on int lists
    in O(deg^2) operations, against the gcds over Z of Yun's split.
    """
    q = CERTIFICATE_PRIME
    a, _ = cleared(p.coeffs)
    if a[-1] % q == 0:
        return False
    a = [c % q for c in a]
    b = _stripped([k * c % q for k, c in enumerate(a)][1:])
    while len(b) > 1:
        inverse = pow(b[-1], -1, q)
        d = len(b) - 1
        while len(a) > d:
            top = a.pop() * inverse % q
            k = len(a) - d
            if top:
                a[k:] = [(c - top * e) % q for c, e in zip(a[k:], b)]
        a, b = b, _stripped(a)
    return len(b) == 1


def _stripped(coeffs):
    """coeffs without its zero top coefficients, in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def is_squarefree(p):
    """True iff p has no repeated roots: p is zero, or every factor of its squarefree decomposition is simple."""
    return p.is_zero() or all(k == 1 for _, k in squarefree_decomposition(p)[1])


def squarefree_decomposition(p):
    """Yun's algorithm: p = lead * prod f_k^k with f_k squarefree, coprime.

    Returns (leading coefficient, list of (f_k, k) with deg f_k >= 1).
    When the one-prime certificate of _squarefree_mod_prime holds, p is
    squarefree and Yun's own answer is [(p.monic(), 1)]: gcd(p, p') = 1, so
    its first factor is gcd(p, 0) = monic p and its loop stops.  That answer
    is returned at once; Yun runs only when the certificate does not apply.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    lead = p.leading()
    p = p.monic()
    if p.degree() == 0:
        return lead, []
    if _squarefree_mod_prime(p):
        return lead, [(p, 1)]
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
    """Numeric complex roots with exact multiplicities: the roots of p's Yun factors."""
    return roots_of_factors(squarefree_decomposition(p)[1])


def roots_of_factors(factors):
    """Numeric complex roots of squarefree factors (f_k, k), each with multiplicity k, sorted.

    Each factor is rooted on its own float coefficients, scaled exactly by
    their largest modulus, so a repeated root of prod f_k^k is a simple root
    of its factor and comes back at full double precision.  The factors go
    to fibers.companion_roots together, which roots the factors of one
    degree in one eigenproblem; linear factors are solved exactly.
    """
    rows = []
    for f, _ in factors:
        scale = max(abs(c) for c in f.coeffs)
        rows.append(None if f.degree() == 1 else np.array([float(c / scale) for c in reversed(f.coeffs)]))
    out = []
    for (f, mult), roots in zip(factors, companion_roots(rows)):
        out += [(complex(r), mult) for r in ([-f[0] / f[1]] if roots is None else roots)]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def lagrange_interpolate(values):
    """The unique UniPoly of degree < len(values) with the value values[k] at t = k, k = 0..N.

    With the values cleared to integers over one denominator s, the forward
    differences D^k y_0 are integers, and N! times Newton's forward formula
    sum_k D^k y_0 / k! * t (t-1) ... (t-k+1) has the integer weights
    c_k = D^k y_0 * N!/k!.  Horner expansion of c_0 + t (c_1 + (t-1) (c_2 + ...))
    runs over Z, with one division by N! s at the end: O(N^2) operations.
    """
    diffs, denom = cleared(values)
    last = len(diffs) - 1
    for k in range(1, last + 1):
        for i in range(last, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    acc = [diffs[last]]
    weight = 1      # N!/k!
    for k in range(last - 1, -1, -1):
        weight *= k + 1
        c = diffs[k] * weight
        acc = [c - k * acc[0]] + [a - k * b for a, b in zip(acc, acc[1:])] + [acc[-1]]
    scale = factorial(last) * denom
    return UniPoly([Fraction(c, scale) for c in acc])
