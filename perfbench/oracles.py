"""Closed forms the benchmark checks outputs against.

Plain integer and Fraction code only: nothing here imports psi_umbral, so a
kernel that goes wrong cannot agree with these by sharing the fault.
Polynomials and series are lists of Fractions, constant term first.
"""

from fractions import Fraction
from math import comb, factorial


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def stirling_first_kind(n):
    """Signed s(n, k) for k = 0..n from s(n+1, k) = s(n, k-1) - n s(n, k)."""
    row = [1]
    for m in range(n):
        nxt = [0] * (m + 2)
        for k in range(m + 2):
            nxt[k] = (row[k - 1] if k >= 1 else 0) - (m * row[k] if k <= m else 0)
        row = nxt
    return [Fraction(v) for v in row]


def step_falling(n, h):
    """Basic polynomials of the forward difference of step h, classical weights:
    x (x - h) ... (x - (n-1) h) / h^n.  Step 1 gives the Stirling rows."""
    if h == 1:
        return stirling_first_kind(n)
    p = [Fraction(1)]
    for i in range(n):
        p = _poly_mul(p, [Fraction(-i) * h, Fraction(1)])
    return [c / h ** n for c in p]


def abel(n, a):
    """Abel polynomial x (x - a n)^(n-1), basic for the indicator z e^(a z)."""
    if n == 0:
        return [Fraction(1)]
    shift = Fraction(-a * n)
    tail = [comb(n - 1, k) * shift ** (n - 1 - k) for k in range(n)]
    return [Fraction(0)] + tail


def log1p_series(cap):
    """log(1 + z), the reversion of e^z - 1."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, cap + 1)]


def lambert_series(cap, a):
    """Reversion of z e^(a z): coefficients (-a n)^(n-1) / n! (Lagrange)."""
    return [Fraction(0)] + [Fraction(-a * n) ** (n - 1) / factorial(n)
                            for n in range(1, cap + 1)]


def catalan_series(cap):
    """Reversion of z - z^2: the Catalan numbers C_(n-1) at z^n."""
    return [Fraction(0)] + [Fraction(comb(2 * n - 2, n - 1), n)
                            for n in range(1, cap + 1)]


def bernoulli_series(cap):
    """z / (e^z - 1) = sum B_n z^n / n!, B from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, cap + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return [b[n] / factorial(n) for n in range(cap + 1)]


def gaussian_binomials(q, n_max):
    """Rows [n, k]_q for n <= n_max from the q-Pascal rule
    [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    q = Fraction(q)
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [Fraction(1)]
        for k in range(1, n):
            row.append(prev[k - 1] + q ** k * prev[k])
        row.append(Fraction(1))
        rows.append(row)
    return rows


def jackson_translate(q, y, poly):
    """Shift of sum c_n x^n by y under Jackson weights:
    x^n -> sum_k [n, k]_q y^k x^(n-k)."""
    y = Fraction(y)
    rows = gaussian_binomials(q, max(len(poly) - 1, 0))
    out = [Fraction(0)] * max(len(poly), 1)
    for n, c in enumerate(poly):
        for k in range(n + 1):
            out[n - k] += c * rows[n][k] * y ** k
    while out and out[-1] == 0:
        out.pop()
    return out
