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

from fractions import Fraction
from math import factorial

from .algebra import Polynomial, TruncatedSeries, as_scalar
from .errors import SelfCheckError
from .operators import divided_difference, psi_derivative, weight_multiplier
from .psi import PsiSequence, RationalFunction
from .special import psi_exp_scaled


def _ordinary_coeffs(f):
    if isinstance(f, TruncatedSeries):
        return f.coeffs, f.cap
    if isinstance(f, Polynomial):
        return f.coeffs, None
    raise TypeError("expected Polynomial or TruncatedSeries")


def star_mul(f, g, psi: PsiSequence, cap: int | None = None) -> TruncatedSeries:
    """f * g = f(R) applied to g, R the weighted raising operator.

    Polynomial times polynomial is exact; as soon as a truncated series is
    involved the result carries the smallest cap in sight.  The product is
    linear in both slots but deliberately not commutative.
    """
    fc, fcap = _ordinary_coeffs(f)
    gc, gcap = _ordinary_coeffs(g)
    caps = [c for c in (fcap, gcap, cap) if c is not None]
    out_cap = min(caps) if caps else (len(fc) - 1 if fc else 0) + \
        (len(gc) - 1 if gc else 0)
    out = [Fraction(0)] * (out_cap + 1)
    for i, b in enumerate(gc):
        if b == 0 or i > out_cap:
            continue
        for j, a in enumerate(fc):
            if a == 0:
                continue
            d = i + j
            if d > out_cap:
                break
            out[d] += a * b * psi.raising_ratio(i, j)
    return TruncatedSeries(out, out_cap)


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
    d_psi p_m + lam p_m = lam p_(m-1) with p_m(0) = 0.
    """
    lam = as_scalar(lam)
    rows = []
    for m in range(m_max + 1):
        c = [Fraction(0)] * (cap + 1)
        c[0] = Fraction(1) if m == 0 else Fraction(0)
        for i in range(cap):
            source = rows[m - 1][i] if m >= 1 else Fraction(0)
            c[i + 1] = lam * (source - c[i]) / psi.n_psi(i + 1)
        rows.append(c)
    return [TruncatedSeries(row, cap) for row in rows]


def poisson_weights_raising(psi: PsiSequence, lam, m_max: int, cap: int):
    """Third route: scalar series in the raising variable, applied to 1.

    p_m is ((lam t)^m / m!) e^(-lam t) as a commuting series in t, with
    t^j then realized as the j-th star power of x.
    """
    lam = as_scalar(lam)
    expm = psi_exp_scaled(PsiSequence.classical(cap), -lam, cap)
    star_powers = [psi.raising_ratio(0, j) for j in range(cap + 1)]
    out = []
    for m in range(m_max + 1):
        pre = TruncatedSeries.from_polynomial(
            Polynomial.monomial(m, lam ** m / Fraction(factorial(m))), cap)
        scalar_series = pre * expm
        coeffs = [c * r for c, r in zip(scalar_series.coeffs, star_powers)]
        out.append(TruncatedSeries(coeffs, cap))
    return out


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
