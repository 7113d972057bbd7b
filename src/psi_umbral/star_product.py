"""The weighted star product and what it buys.

Substituting the weighted raising operator for the variable of the left
factor defines a (noncommutative) product on polynomials and truncated
series: f * g is f(R) applied to g.  Star powers of x deviate from plain
powers by the ratio of classical to weighted factorials, the exponential
in the raising operator applied to 1 materializes the weighted exponential
series, and the product gives the weighted analog of the Poisson weights
in closed form.  Leibniz-type product rules for the Jackson, rational and
general weighted derivatives live here too.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import comb, factorial, perm

from .algebra import Polynomial, TruncatedSeries, _over_lcm, _series, as_scalar
from .errors import SelfCheckError
from .operators import divided_difference, psi_derivative, weight_multiplier
from .psi import PsiSequence, RationalFunction
from .special import psi_exp_scaled


def _numerators(f):
    """(numerators, denominator, cap) of a series, or of a polynomial with
    cap None."""
    if isinstance(f, TruncatedSeries):
        return f._num, f._den, f._cap
    if isinstance(f, Polynomial):
        return f._num, f._den, None
    raise TypeError("expected Polynomial or TruncatedSeries")


def _top_degree(a, b, cap: int) -> int:
    """The highest degree i + j <= cap of a pair with a_j b_i != 0 and
    j >= 1, or 0 when there is none."""
    degrees = [i for i, y in enumerate(b[: cap + 1]) if y]
    top = 0
    for j, x in enumerate(a[1: cap + 1], 1):
        k = bisect_right(degrees, cap - j) if x else 0
        if k:
            top = max(top, j + degrees[k - 1])
    return top


def star_mul(f, g, psi: PsiSequence, cap: int | None = None) -> TruncatedSeries:
    """f * g = f(R) applied to g, R the weighted raising operator.

    Polynomial times polynomial is exact; as soon as a truncated series is
    involved the result carries the smallest cap in sight.  The product is
    linear in both slots but deliberately not commutative.

    R^j maps x^i to (i+j)! i_psi!/(i! (i+j)_psi!) x^(i+j), so with
    f = sum a_j x^j and g = sum b_i x^i the coefficient at x^d is
    a_0 b_d + s_d/d_psi!, s_d = sum_(i+j=d, j>=1) a_j u_i perm(d, j) for
    u_i = b_i i_psi!.  That runs on ints, by the weights' cofactors M i_psi!
    and L/d_psi!, over M L, with one reduction.  Reads the weights up to
    the highest degree a pair with j >= 1 reaches within the cap, and none
    for the a_0 terms.
    """
    a, a_den, fcap = _numerators(f)
    b, b_den, gcap = _numerators(g)
    caps = [c for c in (fcap, gcap, cap) if c is not None]
    out_cap = min(caps) if caps else max(len(a) - 1, 0) + max(len(b) - 1, 0)
    if out_cap < 0:
        raise ValueError("series cap must be >= 0")
    b = b[: out_cap + 1]
    top = _top_degree(a, b, out_cap)
    m_den, up = psi.cofactors(top, 1)
    l_den, down = psi.cofactors(top)
    terms = [(j, x) for j, x in enumerate(a[1: top + 1], 1) if x]
    sums = [0] * (top + 1)
    for i, (w, y) in enumerate(zip(up, b)):
        if y:
            u = y * w
            for j, x in terms:
                d = i + j
                if d > top:
                    break
                sums[d] += x * u * perm(d, j)
    scale = l_den * m_den
    a_0 = a[0] * scale if a else 0
    nums = [a_0 * y for y in b] + [0] * (out_cap + 1 - len(b))
    for d, (s, w) in enumerate(zip(sums, down)):
        if s:
            nums[d] += s * w
    return _series(nums, scale * a_den * b_den, out_cap)


def star_power(n: int, psi: PsiSequence) -> Polynomial:
    """x * x * ... * x (n factors), with the closed form cross-checked.

    Equals (n!/n_psi!) x^n; the recursive product must land on the same
    polynomial, and does, by construction of the raising coefficients.
    """
    if n < 0:
        raise ValueError("star powers are indexed by naturals")
    closed = Polynomial.monomial(n, psi.raising_ratio(0, n))
    acc = Polynomial.one()
    for _ in range(n):
        acc = star_mul(Polynomial.x(), acc, psi).as_polynomial()
    if acc != closed:
        raise SelfCheckError("star power recursion disagrees with closed form")
    return closed


# -- Poisson-type weights ----------------------------------------------


def poisson_weights(psi: PsiSequence, lam, m_max: int, cap: int):
    """Weights p_m = ((lam x)^m / m!) * exp_psi(-lam x) and their normalizer.

    Returns (list of p_m as truncated series, N) where N is the star
    product of the classical exponential of lam x with the weighted
    exponential of -lam x.
    """
    lam = as_scalar(lam)
    expm = psi_exp_scaled(psi, -lam, cap)
    weights = []
    for m in range(m_max + 1):
        prefactor = Polynomial.monomial(m, lam ** m / Fraction(factorial(m)))
        weights.append(star_mul(prefactor, expm, psi))
    classical = psi_exp_scaled(PsiSequence.classical(cap), lam, cap)
    normalizer = star_mul(classical.as_polynomial(),
                          expm, psi, cap=cap)
    return weights, normalizer


def poisson_weights_recursion(psi: PsiSequence, lam, m_max: int, cap: int):
    """Independent route: solve the lowering system coefficient by coefficient.

    d_psi p_0 = -lam p_0 with p_0(0) = 1, and for m >= 1
    d_psi p_m + lam p_m = lam p_(m-1) with p_m(0) = 0.  With lam = p/q and
    n_psi(i) = u_i/v_i every coefficient is an int over
    D = |q^cap u_1 ... u_cap|, and each step
    c_(i+1) = lam (c'_i - c_i) / n_psi(i+1), c' the row of p_(m-1), divides
    exactly on those ints: times p v_(i+1), then by q u_(i+1).
    """
    lam = as_scalar(lam)
    p, q = lam.numerator, lam.denominator
    steps = [psi.n_psi(i) for i in range(1, cap + 1)]
    den = q ** cap
    for w in steps:
        den *= w.numerator
    den = abs(den)
    rows = []
    prev = [0] * (cap + 1)
    for m in range(m_max + 1):
        c = [den if m == 0 else 0]
        for i, w in enumerate(steps):
            c.append(p * w.denominator * (prev[i] - c[i])
                     // (q * w.numerator))
        rows.append(c)
        prev = c
    return [_series(row, den, cap) for row in rows]


def poisson_weights_raising(psi: PsiSequence, lam, m_max: int, cap: int):
    """Third route: scalar series in the raising variable, applied to 1.

    p_m is ((lam t)^m / m!) e^(-lam t) as a commuting series in t, whose
    coefficient at t^k is lam^k (-1)^(k-m) C(k, m)/k!, with t^k then
    realized as the k-th star power of x, raising_ratio(0, k) x^k.  With
    lam = p/q and the star powers r_k/r over one denominator, every row is
    ints over q^cap cap! r, reduced once.
    """
    lam = as_scalar(lam)
    p, q = lam.numerator, lam.denominator
    star_powers, r_den = _over_lcm([psi.raising_ratio(0, k)
                                    for k in range(cap + 1)])
    scaled = [p ** k * q ** (cap - k) * (factorial(cap) // factorial(k)) * r
              for k, r in enumerate(star_powers)]
    den = q ** cap * factorial(cap) * r_den
    return [_series([(-1) ** (k - m) * comb(k, m) * e if k >= m else 0
                     for k, e in enumerate(scaled)], den, cap)
            for m in range(m_max + 1)]


# -- product rules ------------------------------------------------------


def q_leibniz(q, f: Polynomial, g: Polynomial) -> Polynomial:
    """Jackson product rule: (d_q f) g + (dilated f)(d_q g)."""
    q = as_scalar(q)
    psi = PsiSequence.jackson(q, max(len(f.coeffs), len(g.coeffs), 1))
    df = psi_derivative(psi, f)
    dg = psi_derivative(psi, g)
    dilated = Polynomial(tuple(c * q ** i for i, c in enumerate(f.coeffs)))
    return df * g + dilated * dg


def r_leibniz(rat: RationalFunction, q, f: Polynomial, g: Polynomial) -> Polynomial:
    """Rational-weight product rule.

    The divided-difference split (d0 f) g + f(0) (d0 g) is corrected by the
    diagonal operator that multiplies x^m by R(q^(m+1)).
    """
    q = as_scalar(q)
    inner = divided_difference(f) * g + f.constant_term * divided_difference(g)
    return Polynomial(tuple(c * rat(q ** (m + 1))
                            for m, c in enumerate(inner.coeffs)))


def psi_leibniz(psi: PsiSequence, f: Polynomial, g: Polynomial) -> Polynomial:
    """General weighted product rule via the weight multiplier.

    d_psi (f g) = weight_multiplier((d0 f) g + f(0) (d0 g)); exact because
    the weighted derivative factors through the divided difference.
    """
    inner = divided_difference(f) * g + f.constant_term * divided_difference(g)
    return weight_multiplier(psi, inner)
