"""Right inverses of the generalized derivatives.

Each integral lifts x^n to x^(n+1) divided by the weight of n+1; taking
the matching derivative afterwards gives back the original polynomial
exactly.  The other order loses the constant term, as it must.  No
boundary data is involved anywhere: these are formal antiderivatives
normalized to vanish at zero.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Polynomial, as_scalar
from .errors import AdmissibilityError
from .psi import PsiSequence, RationalFunction, jackson_bracket


def q_integral(q, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / (n+1)_q, with (n+1)_q = 1 + q n_q kept along the
    coefficients; errors where the bracket vanishes."""
    q = as_scalar(q)
    out = [Fraction(0)]
    w = Fraction(0)
    for n, c in enumerate(p.coeffs):
        w = 1 + q * w if n else jackson_bracket(q, 1)
        if w == 0:
            raise AdmissibilityError(
                "q-bracket vanishes at n=%d; monomial x^%d has no q-antiderivative"
                % (n + 1, n), n=n + 1)
        out.append(c / w)
    return Polynomial(out)


def r_integral(rat: RationalFunction, q, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / R(q^(n+1)); errors where R vanishes or is undefined."""
    q = as_scalar(q)
    out = [Fraction(0)]
    for n, c in enumerate(p.coeffs):
        try:
            w = rat(q ** (n + 1))
        except ZeroDivisionError as exc:
            raise AdmissibilityError(str(exc), n=n + 1)
        if w == 0:
            raise AdmissibilityError(
                "weight R(q^%d) vanishes; x^%d has no antiderivative here"
                % (n + 1, n), n=n + 1)
        out.append(c / w)
    return Polynomial(out)


def psi_integral(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / (n+1)_psi; admissibility guarantees the division."""
    out = [Fraction(0)]
    for n, c in enumerate(p.coeffs):
        out.append(c / psi.n_psi(n + 1))
    return Polynomial(out)
