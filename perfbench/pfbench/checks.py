"""Correctness checks made apart from the program.

Every check takes plain data (``{(a, b): Fraction}`` term dicts, lists of
``Fraction`` rows, floats) and returns a list of failure messages; an empty
list is a pass.  Exact identities are re-expanded with sympy over QQ or
recomputed with ``fractions.Fraction``; nothing here calls the program.
"""

from fractions import Fraction

import numpy as np
import sympy

X, Y = sympy.symbols("x y")


def poly(terms):
    """sympy Poly over QQ from a ``{(a, b): number}`` dict."""
    data = {}
    for (a, b), c in terms.items():
        c = Fraction(c)
        if c:
            data[(a, b)] = sympy.QQ(c.numerator, c.denominator)
    return sympy.Poly.from_dict(data or {(0, 0): sympy.QQ(0)}, X, Y, domain=sympy.QQ)


def monomial(a, b, c=1):
    return poly({(a, b): c})


def degree(p):
    """Total degree of a sympy Poly; -1 for the zero polynomial."""
    return -1 if p.is_zero else max(a + b for a, b in p.monoms())


def form_degree(P, Q):
    """deg(P dx + Q dy) with deg(x^a y^b dx) = a + b + 1; -1 for the zero form."""
    top = max(degree(P), degree(Q))
    return -1 if top < 0 else top + 1


def primitive(a, b):
    """The basis 1-form (x m dy - y m dx)/(deg m + 2) of m = x^a y^b, as (P, Q)."""
    scale = Fraction(1, a + b + 2)
    return monomial(a, b + 1, -scale), monomial(a + 1, b, scale)


# -- the quotient ring: rows of A against a Groebner basis ------------------------------


def quotient_checks(h_terms, n, monomials, A):
    """Rows of A: H m_i - sum_j A_ij m_j lies in <H_x, H_y>; the m_i are a basis mod it."""
    failures = []
    mu = len(monomials)
    if mu != n * n:
        failures.append(f"basis has {mu} monomials, expected n^2 = {n * n}")
    H = poly(h_terms)
    G = sympy.groebner([H.diff(X), H.diff(Y)], X, Y, order="grevlex", domain=sympy.QQ)
    normal_forms = [G.reduce(monomial(a, b))[1] for a, b in monomials]
    support = sorted({m for nf in normal_forms for m in nf.monoms()})
    rows = [[Fraction(int(c.numerator), int(c.denominator))
             for c in (dict(nf.terms()).get(m, sympy.QQ(0)) for m in support)]
            for nf in normal_forms]
    if rank(rows) != mu:
        failures.append("basis monomials are dependent modulo <H_x, H_y>")
    for i, (a, b) in enumerate(monomials):
        rest = H * monomial(a, b)
        for j, (aj, bj) in enumerate(monomials):
            if A[i][j]:
                rest -= monomial(aj, bj, A[i][j])
        if not G.reduce(rest)[1].is_zero:
            failures.append(f"row {i} of A: H*m_{i} - sum_j A_ij m_j is not in <H_x, H_y>")
    return failures


# -- B0 and B1: the structure the paper proves ------------------------------------------


def pencil_checks(n, monomials, B0, B1, D):
    """B0, B1 lower triangular by degree, diag(B0) = D, B1 gap >= n+1, B1^2 = 0, det = prod D."""
    failures = []
    mu = len(monomials)
    degrees = [a + b + 2 for a, b in monomials]
    expected_D = [Fraction(d, n + 1) for d in degrees]
    if list(D) != expected_D:
        failures.append("D is not deg(omega_i)/(n+1)")
    for i in range(mu):
        for j in range(mu):
            if degrees[i] < degrees[j] and B0[i][j]:
                failures.append(f"B0[{i}][{j}] above the degree diagonal")
            if i != j and degrees[i] == degrees[j] and B0[i][j]:
                failures.append(f"B0[{i}][{j}] off-diagonal within one degree")
            if degrees[i] - degrees[j] < n + 1 and B1[i][j]:
                failures.append(f"B1[{i}][{j}] where the degree gap is below n+1")
        if B0[i][i] != expected_D[i]:
            failures.append(f"B0[{i}][{i}] = {B0[i][i]}, expected {expected_D[i]}")
    square = [[sum((B1[i][k] * B1[k][j] for k in range(mu) if B1[i][k] and B1[k][j]),
                   Fraction(0)) for j in range(mu)] for i in range(mu)]
    if any(v for row in square for v in row):
        failures.append("B1^2 != 0")
    product = Fraction(1)
    for d in expected_D:
        product *= d
    # a polynomial of degree <= mu equal to prod D at mu + 1 points is that constant
    for t in range(mu + 1):
        pencil = [[B0[i][j] + t * B1[i][j] for j in range(mu)] for i in range(mu)]
        if determinant(pencil) != product:
            failures.append(f"det(B0 + {t}*B1) != prod D_i")
            break
    return failures


def determinant(rows):
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [list(map(Fraction, row)) for row in rows]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
    return det


def rank(rows):
    m = [list(row) for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col] / m[r][col]
                m[i] = [u - factor * v for u, v in zip(m[i], m[r])]
        r += 1
    return r


# -- certificates ------------------------------------------------------------------------


def division_checks(h_terms, n, monomials, A, etas):
    """H m_i dx^dy = dH ^ eta_i + sum_j A_ij m_j dx^dy, with deg eta_i <= deg omega_i."""
    failures = []
    H = poly(h_terms)
    Hx, Hy = H.diff(X), H.diff(Y)
    for i, ((a, b), (P, Q)) in enumerate(zip(monomials, etas)):
        P, Q = poly(P), poly(Q)
        rest = H * monomial(a, b) - (Hx * Q - Hy * P)
        for j, (aj, bj) in enumerate(monomials):
            if A[i][j]:
                rest -= monomial(aj, bj, A[i][j])
        if not rest.is_zero:
            failures.append(f"division identity fails for row {i}")
        if form_degree(P, Q) > a + b + 2:
            failures.append(f"deg eta_{i} exceeds deg omega_{i}")
    return failures


def petrov_checks(h_terms, n, monomials, form, coeff_polys, g_terms, f_terms):
    """omega = sum_j p_j(H) omega_j + g dH + df with the degree bounds of the paper."""
    failures = []
    H = poly(h_terms)
    P, Q = poly(form[0]), poly(form[1])
    g, f = poly(g_terms), poly(f_terms)
    rest_P = P - g * H.diff(X) - f.diff(X)
    rest_Q = Q - g * H.diff(Y) - f.diff(Y)
    D = form_degree(P, Q)
    powers = [poly({(0, 0): 1})]
    for j, ((a, b), coeffs) in enumerate(zip(monomials, coeff_polys)):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            continue
        if (n + 1) * (len(coeffs) - 1) + a + b + 2 > D:
            failures.append(f"deg p_{j} breaks (n+1) deg p_j + deg omega_j <= deg omega")
        while len(powers) < len(coeffs):
            powers.append(powers[-1] * H)
        p_of_H = sum((powers[k] * poly({(0, 0): c}) for k, c in enumerate(coeffs) if c),
                     poly({}))
        w_P, w_Q = primitive(a, b)
        rest_P -= p_of_H * w_P
        rest_Q -= p_of_H * w_Q
    if not (rest_P.is_zero and rest_Q.is_zero):
        failures.append("Petrov certificate does not re-expand to the form")
    if not g.is_zero and degree(g) > D - (n + 1):
        failures.append("deg g exceeds deg omega - (n+1)")
    if not f.is_zero and degree(f) > D:
        failures.append("deg f exceeds deg omega")
    return failures


def perturbation(h_terms, g_terms, f_terms):
    """The 1-form g dH + df as a pair of term dicts."""
    H, g, f = poly(h_terms), poly(g_terms), poly(f_terms)
    return _terms(g * H.diff(X) + f.diff(X)), _terms(g * H.diff(Y) + f.diff(Y))


def reduction_checks(n, monomials, h_terms, p_terms, coeffs, quot_a, quot_b):
    """P = sum_i c_i m_i + B H_x - A H_y with deg A, deg B <= deg P - n."""
    failures = []
    H = poly(h_terms)
    P, A, B = poly(p_terms), poly(quot_a), poly(quot_b)
    rest = P - B * H.diff(X) + A * H.diff(Y)
    for (a, b), c in zip(monomials, coeffs):
        if c:
            rest -= monomial(a, b, c)
    if not rest.is_zero:
        failures.append("gradient reduction does not re-expand to P")
    if max(degree(A), degree(B)) > degree(P) - n:
        failures.append("quotient degree exceeds deg P - n")
    return failures


def _terms(p):
    return {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in p.terms() if c}


# -- periods: the area of a real oval ------------------------------------------------


def oval_area(h_terms, t, center, angles=4096, radius=4.0, steps=400):
    """Area of the real oval {H = t} seen from ``center``, by the shoelace formula.

    Along each ray from the center the first crossing of H = t is bracketed
    on a grid and refined by bisection; the polygon through the crossings is
    a dense trace of the oval made without the program's tracer.  The
    polygon's area error falls as angles^-2, so the areas of the polygon and
    of its every-other-vertex half are combined (Richardson) to cancel it.
    """
    theta = 2 * np.pi * np.arange(angles) / angles
    u, v = np.cos(theta), np.sin(theta)
    cx, cy = center

    def level(r):
        x, y = cx + r * u, cy + r * v
        return sum(float(c) * x**a * y**b for (a, b), c in h_terms.items()) - t

    grid = np.linspace(0.0, radius, steps + 1)
    values = np.array([level(np.full(angles, r)) for r in grid])
    if (values[0] >= 0).any():
        raise ValueError("oval center is not inside {H < t}")
    crossed = values >= 0
    if not crossed.any(axis=0).all():
        raise ValueError("a ray leaves the search radius without meeting the oval")
    first = crossed.argmax(axis=0)
    lo, hi = grid[first - 1], grid[first]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = level(mid) < 0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    r = 0.5 * (lo + hi)
    x, y = cx + r * u, cy + r * v
    fine, coarse = _shoelace(x, y), _shoelace(x[::2], y[::2])
    return fine + (fine - coarse) / 3


def _shoelace(x, y):
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
