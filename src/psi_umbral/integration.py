"""Right inverses of the generalized derivatives.

Each integral lifts x^n to x^(n+1) divided by the weight of n+1; taking
the matching derivative afterwards gives back the original polynomial
exactly.  The other order loses the constant term, as it must.  No
boundary data is involved anywhere: these are formal antiderivatives
normalized to vanish at zero.
"""

from __future__ import annotations

from .algebra import Polynomial, _from_ints, _pairs_over_lcm, as_scalar
from .errors import AdmissibilityError
from .psi import PsiSequence, RationalFunction, jackson_bracket


def q_integral(q, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / (n+1)_q, with (n+1)_q = 1 + q n_q kept along the
    coefficients as an int pair u/v; errors where the bracket vanishes.
    Every degree's bracket is read, a zero coefficient's too."""
    q = as_scalar(q)
    a, b = q.numerator, q.denominator
    pairs = []
    for n, x in enumerate(p._num):
        if n:
            u, v = v * b + u * a, v * b
        else:
            jackson_bracket(q, 1)  # 1_q = 1, and q = 1 is refused here
            u = v = 1
        if not u:
            raise AdmissibilityError(
                "q-bracket vanishes at n=%d; monomial x^%d has no q-antiderivative"
                % (n + 1, n), n=n + 1)
        pairs.append((x * v, u))
    nums, den = _pairs_over_lcm(pairs)
    return _from_ints([0] + nums, den * p._den)


def r_integral(rat: RationalFunction, q, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / R(q^(n+1)); errors where R vanishes or is undefined."""
    q = as_scalar(q)
    pairs = []
    power = q
    for n, x in enumerate(p._num):
        try:
            w = rat(power)
        except ZeroDivisionError as exc:
            raise AdmissibilityError(str(exc), n=n + 1)
        if w == 0:
            raise AdmissibilityError(
                "weight R(q^%d) vanishes; x^%d has no antiderivative here"
                % (n + 1, n), n=n + 1)
        pairs.append((x * w.denominator, w.numerator))
        power *= q
    nums, den = _pairs_over_lcm(pairs)
    return _from_ints([0] + nums, den * p._den)


def psi_integral(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """x^n -> x^(n+1) / (n+1)_psi; admissibility guarantees the division."""
    pairs = []
    for n, x in enumerate(p._num, 1):
        w = psi.n_psi(n)
        pairs.append((x * w.denominator, w.numerator))
    nums, den = _pairs_over_lcm(pairs)
    return _from_ints([0] + nums, den * p._den)
