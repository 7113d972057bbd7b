"""Weighted exponential-type series and their residue-class slices.

The weighted exponential has coefficients 1/k_psi!.  Keeping only the
indices in one residue class mod m yields the m-th order hyperbolic
family, whose members sum back to the exponential and pass into each
other under the weighted derivative (index class drops by one, cyclically,
once the weights act).  The divided-difference exponential is the
geometric series, the classical one is exp.
"""

from __future__ import annotations

from .algebra import TruncatedSeries, _series, as_scalar
from .psi import PsiSequence


def psi_exp_scaled(psi: PsiSequence, alpha, cap: int) -> TruncatedSeries:
    """Weighted exponential series of alpha*x: sum alpha^k x^k / k_psi!.

    As a series in the weighted derivative this is the generalized
    translation by alpha; with classical weights it is exp(alpha*x).
    With alpha = p/q the coefficient at x^k is p^k q^(cap-k) (l/k_psi!)
    over q^cap l, for l/k_psi! the weights' cofactors over their lcm l:
    ints over one denominator, reduced once.
    """
    if cap < 0:
        raise ValueError("series cap must be >= 0")
    alpha = as_scalar(alpha)
    p, q = alpha.numerator, alpha.denominator
    l, cofactors = psi.cofactors(cap)
    nums = []
    p_pow, q_pow = 1, q ** cap
    for c in cofactors:
        nums.append(p_pow * q_pow * c)
        p_pow *= p
        q_pow //= q
    return _series(nums, q ** cap * l, cap)


def exp_psi_series(psi: PsiSequence, cap: int) -> TruncatedSeries:
    """Coefficients 1/k_psi! up to the cap."""
    return psi_exp_scaled(psi, 1, cap)


def psi_hyperbolic(psi: PsiSequence, m: int, j: int, cap: int) -> TruncatedSeries:
    """The slice of the weighted exponential with indices = j (mod m).

    The coefficient at x^k is l/k_psi! over l, for l/k_psi! the weights'
    cofactors up to the last index of the class within the cap: ints over
    one denominator, reduced once.  Reads the weights up to that index.
    """
    if m < 1:
        raise ValueError("residue modulus must be positive")
    if not 0 <= j < m:
        raise ValueError("residue class out of range")
    if cap < 0:
        raise ValueError("series cap must be >= 0")
    top = cap - (cap - j) % m
    nums = [0] * (cap + 1)
    if top < 0:
        return _series(nums, 1, cap)
    l, cofactors = psi.cofactors(top)
    nums[j::m] = cofactors[j::m]
    return _series(nums, l, cap)


def cos_psi_series(psi: PsiSequence, cap: int) -> TruncatedSeries:
    """Alternating even slice: class 0 minus class 2 of the mod-4 partition."""
    return psi_hyperbolic(psi, 4, 0, cap) - psi_hyperbolic(psi, 4, 2, cap)


def sin_psi_series(psi: PsiSequence, cap: int) -> TruncatedSeries:
    """Alternating odd slice: class 1 minus class 3 of the mod-4 partition."""
    return psi_hyperbolic(psi, 4, 1, cap) - psi_hyperbolic(psi, 4, 3, cap)
