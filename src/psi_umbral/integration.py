"""Right inverses of the generalized derivatives.

Each integral lifts x^n to x^(n+1) divided by the weight of n+1; taking
the matching derivative afterwards gives back the original polynomial
exactly.  The other order loses the constant term, as it must.  No
boundary data is involved anywhere: these are formal antiderivatives
normalized to vanish at zero.  Each integral walks its own weights and
hands their reciprocals to the weighted shift ``operators._weighted_shift``.
"""

from __future__ import annotations

from .algebra import Polynomial, as_scalar
from .errors import AdmissibilityError
from .operators import _weighted_shift
from .psi import PsiSequence, RationalFunction, jackson_bracket


def q_integral(q, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / (n+1)_q, with (n+1)_q = 1 + q n_q kept along the
    coefficients as an int pair u/v; errors where the bracket vanishes.
    Every degree's bracket is read, a zero coefficient's too."""
    q = as_scalar(q)
    a, b = q.numerator, q.denominator
    weights = []
    for n in range(len(p._num)):
        if n:
            u, v = v * b + u * a, v * b
        else:
            jackson_bracket(q, 1)  # 1_q = 1, and q = 1 is refused here
            u = v = 1
        if not u:
            raise AdmissibilityError(
                "q-bracket vanishes at n=%d; monomial x^%d has no q-antiderivative"
                % (n + 1, n), n=n + 1)
        weights.append((v, u))
    return _weighted_shift(p, weights, 1)


def r_integral(rat: RationalFunction, q, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / R(q^(n+1)); errors where R vanishes or is undefined."""
    q = as_scalar(q)
    weights = []
    power = q
    for n in range(len(p._num)):
        try:
            w = rat(power)
        except ZeroDivisionError as exc:
            raise AdmissibilityError(str(exc), n=n + 1)
        if w == 0:
            raise AdmissibilityError(
                "weight R(q^%d) vanishes; x^%d has no antiderivative here"
                % (n + 1, n), n=n + 1)
        weights.append((w.denominator, w.numerator))
        power *= q
    return _weighted_shift(p, weights, 1)


def psi_integral(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / (n+1)_psi; admissibility guarantees the division."""
    return _weighted_shift(
        p, [(v, u) for u, v in psi.weight_pairs(len(p._num))], 1)
