"""Parser for polynomial expressions in x and y with rational coefficients.

Accepts + - * ^, parentheses, implicit multiplication ("x^2y^2", "3x",
"2(x+y)"), integer and rational literals ("3/2") of the ASCII digits 0-9, each
digit run at most as long as int() converts (sys.get_int_max_str_digits());
whitespace is ignored.
The '/' character is only legal inside a rational literal.  An exponent is
an integer literal, so x^4/2 is an error (write 1/2*x^4), and powers do not
chain.  A prefix minus negates the power after it, as a leading one does:
2*-x^2 is -2*x^2, while (-x)^2 is x^2.  Parentheses and prefix signs nest at
most MAX_NESTING levels deep.  Exponents, and the total degree of every
power and product, are at most MAX_DEGREE; the cap is checked before the
power or product is expanded.  Raises ParseError with the offending
position.  str(BiPoly) output round-trips through this parser.
"""

import sys
from fractions import Fraction
from math import lcm

from .bipoly import BiPoly, combine, from_integer_terms, integer_terms
from .errors import ParseError

# each level is a recursive call, so the limit keeps deep input off the stack
MAX_NESTING = 100
# mu = (degree - 1)^2 grows quadratically; the cap keeps input like x^100000 from
# starting unbounded work (every test and benchmark input has degree <= 8)
MAX_DEGREE = 32
DIGITS = "0123456789"  # only ASCII digits are numbers: str.isdigit also accepts '²' and '٣'


class _Tokenizer:
    def __init__(self, src):
        self.src = src
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0
        self.depth = 0

    def _scan(self):
        src = self.src
        i = 0
        while i < len(src):
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch in "xy":
                self.tokens.append(("var", ch, i))
                i += 1
                continue
            if ch in DIGITS:
                start = i
                i = self._digits(start)
                numerator = int(src[start:i])
                if i < len(src) and src[i] == "/":
                    j = i + 1
                    if j >= len(src) or src[j] not in DIGITS:
                        raise ParseError("expected digits after '/'", i)
                    i = self._digits(j)
                    if not int(src[j:i]):
                        raise ParseError("zero denominator in a rational literal", start)
                    value = Fraction(numerator, int(src[j:i]))
                else:
                    value = numerator
                self.tokens.append(("number", value, start))
                continue
            if ch.isdigit():
                raise ParseError(f"digit {ch!r} is not one of the ASCII digits 0-9", i)
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", None, len(src)))

    def _digits(self, start):
        """The end of the run of ASCII digits at start; ParseError if int() cannot convert it."""
        src = self.src
        i = start
        while i < len(src) and src[i] in DIGITS:
            i += 1
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit and i - start > limit:
            raise ParseError(f"number of {i - start} digits is longer than the {limit} digits "
                             "an integer literal may have", start)
        return i

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


def parse_polynomial(src):
    """Parse source text into an exact BiPoly."""
    tokens = _Tokenizer(src)
    poly = _parse_sum(tokens)
    kind, _, pos = tokens.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return poly


def _parse_sum(tokens):
    """A signed sum of products, added once: each product is cleared once and the sum divided once."""
    products = []
    while True:
        kind, _, _ = tokens.peek()
        if products and kind not in ("+", "-"):
            break
        sign = 1
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            tokens.advance()
        products.append((sign, *integer_terms(_parse_product(tokens))))
    denom = lcm(*(s for _, _, s in products))
    return from_integer_terms(combine(*((sign * (denom // s), p) for sign, p, s in products)), denom)


def _parse_product(tokens):
    total = _parse_power(tokens)
    while True:
        kind, _, _ = tokens.peek()
        if kind == "*":
            tokens.advance()
        elif kind not in ("number", "var", "("):  # else implicit multiplication
            return total
        pos = tokens.peek()[2]
        factor = _parse_power(tokens)
        if total.degree() + factor.degree() > MAX_DEGREE:
            raise ParseError(f"product has degree above the cap {MAX_DEGREE}", pos)
        total = total * factor


def _parse_power(tokens):
    base = _parse_atom(tokens)
    kind, _, pos = tokens.peek()
    if kind != "^":
        return base
    tokens.advance()
    kind, exponent, pos = tokens.advance()
    if kind != "number" or not isinstance(exponent, int):  # a rational literal such as 4/2 is a Fraction
        raise ParseError("exponent must be a nonnegative integer literal; "
                         "write a rational coefficient before its power, as in 1/2*x^2", pos)
    if max(base.degree(), 1) * exponent > MAX_DEGREE:
        raise ParseError(f"power has exponent or degree above the cap {MAX_DEGREE}", pos)
    kind, _, pos = tokens.peek()
    if kind == "^":
        raise ParseError("a power cannot be raised again; write (x^2)^3", pos)
    return base ** exponent


def _parse_atom(tokens):
    kind, value, pos = tokens.advance()
    if kind == "number":
        return BiPoly.constant(value)
    if kind == "var":
        return BiPoly.monomial(1, 0) if value == "x" else BiPoly.monomial(0, 1)
    if kind not in ("(", "-"):
        raise ParseError("expected a number, variable or '('", pos)
    tokens.depth += 1
    if tokens.depth > MAX_NESTING:
        raise ParseError(f"parentheses and signs nest deeper than {MAX_NESTING} levels", pos)
    if kind == "(":
        inner = _parse_sum(tokens)
        kind, _, pos = tokens.advance()
        if kind != ")":
            raise ParseError("expected ')'", pos)
    else:  # a prefix minus negates the power after it: 2*-x^2 is -2*x^2
        inner = -_parse_power(tokens)
    tokens.depth -= 1
    return inner
