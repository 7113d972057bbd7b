"""Exponential slices, and the one deliberate float crossing.

Everything in the package kernel is exact rational arithmetic.  The final
two tests here cross-check residue-class slices against the classical
root-of-unity averaging trick evaluated in complex floats; that comparison
lives only in this file and tolerates 1e-12.
"""

import cmath
from fractions import Fraction

import pytest

from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.errors import CapExceededError
from psi_umbral.operators import psi_derivative
from psi_umbral.psi import PsiSequence
from psi_umbral.special import (cos_psi_series, exp_psi_series,
                                psi_exp_scaled, psi_hyperbolic,
                                sin_psi_series)


# weight sets through n = 16; the custom one has negative factorials
WEIGHTS = pytest.mark.parametrize("make", [
    lambda: PsiSequence.classical(16),
    lambda: PsiSequence.jackson(-2, 16),
    lambda: PsiSequence.custom([Fraction(-2, 3), 5, Fraction(-7, 4), -1,
                                Fraction(9, 2), 3, Fraction(-1, 6), 2, -4,
                                Fraction(5, 3), 1, -6, Fraction(11, 7), 2,
                                Fraction(-3, 5), 8])],
    ids=["classical", "q=-2", "custom"])


@WEIGHTS
def test_scaled_exponential_is_the_fraction_construction(make):
    # the int route stores exactly the numerators, denominator and cap of
    # the series built from the Fractions alpha^k / k_psi!
    psi = make()
    for alpha in (0, 1, -1, Fraction(3, 7), Fraction(-5, 2)):
        for cap in range(17):
            got = psi_exp_scaled(psi, alpha, cap)
            want = TruncatedSeries([Fraction(alpha) ** k / psi.factorial(k)
                                    for k in range(cap + 1)], cap)
            assert ((got._num, got._den, got._cap)
                    == (want._num, want._den, want._cap)), (alpha, cap)


@WEIGHTS
def test_slice_is_the_fraction_construction(make):
    # the int route stores exactly the numerators, denominator and cap of
    # the series built from the Fractions 1/k_psi! on the residue class
    psi = make()
    for m in range(1, 6):
        for j in range(m):
            for cap in range(17):
                got = psi_hyperbolic(psi, m, j, cap)
                want = TruncatedSeries(
                    [Fraction(1) / psi.factorial(k) if k % m == j else 0
                     for k in range(cap + 1)], cap)
                assert ((got._num, got._den, got._cap)
                        == (want._num, want._den, want._cap)), (m, j, cap)


def test_slice_reads_weights_only_through_its_class():
    # the class 0 mod 4 ends at x^4 below cap 6, so weights 5 and 6 are
    # never read; the class 1 mod 4 reaches x^5 and needs weight 5
    short = PsiSequence.custom([1, 2, 3, 4])
    assert psi_hyperbolic(short, 4, 0, 6) == TruncatedSeries(
        [1, 0, 0, 0, Fraction(1, 24)], 6)
    with pytest.raises(CapExceededError):
        psi_hyperbolic(short, 4, 1, 6)


def test_divided_difference_exponential_is_geometric():
    psi = PsiSequence.divided_difference(10)
    assert exp_psi_series(psi, 10) == TruncatedSeries([1] * 11, 10)


def test_q_zero_exponential_is_geometric():
    psi = PsiSequence.jackson(0, 10)
    assert exp_psi_series(psi, 10) == TruncatedSeries([1] * 11, 10)


def test_classical_exponential_coefficients():
    psi = PsiSequence.classical(8)
    e = exp_psi_series(psi, 8)
    fact = 1
    for k in range(1, 9):
        fact *= k
        assert e.coefficient(k) == Fraction(1, fact)


def test_slices_partition_the_exponential():
    psi = PsiSequence.jackson(2, 12)
    e = exp_psi_series(psi, 12)
    for m in range(1, 6):
        total = TruncatedSeries.zero(12)
        for j in range(m):
            total = total + psi_hyperbolic(psi, m, j, 12)
        assert total == e


def test_slices_rotate_under_the_derivative():
    psi = PsiSequence.jackson(Fraction(1, 2), 12)
    m = 3
    for j in range(m):
        sliced = psi_hyperbolic(psi, m, j, 12).as_polynomial()
        want = psi_hyperbolic(psi, m, (j - 1) % m, 11)
        got = TruncatedSeries.from_polynomial(psi_derivative(psi, sliced), 11)
        assert got == want


def test_cos_sin_derivative_cycle():
    psi = PsiSequence.classical(12)
    s = sin_psi_series(psi, 12).as_polynomial()
    c = cos_psi_series(psi, 12).as_polynomial()
    ds = TruncatedSeries.from_polynomial(psi_derivative(psi, s), 11)
    dc = TruncatedSeries.from_polynomial(psi_derivative(psi, c), 11)
    assert ds == cos_psi_series(psi, 11)
    assert dc == -sin_psi_series(psi, 11)


def test_slice_argument_validation():
    psi = PsiSequence.classical(4)
    with pytest.raises(ValueError):
        psi_hyperbolic(psi, 0, 0, 4)
    with pytest.raises(ValueError):
        psi_hyperbolic(psi, 3, 3, 4)
    with pytest.raises(ValueError):
        psi_hyperbolic(psi, 3, -1, 4)


def _float_eval(series: TruncatedSeries, z: complex) -> complex:
    acc = 0j
    for c in reversed(series.coeffs):
        acc = acc * z + float(c)
    return acc


def _root_of_unity_average(psi, m, j, alpha, cap):
    e = exp_psi_series(psi, cap)
    total = 0j
    for k in range(m):
        omega_k = cmath.exp(2j * cmath.pi * k / m)
        total += cmath.exp(-2j * cmath.pi * k * j / m) * _float_eval(e, omega_k * alpha)
    return total / m


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["classical", "jackson"])
def test_slices_match_root_of_unity_average(m, kind):
    cap = 30
    psi = (PsiSequence.classical(cap) if kind == "classical"
           else PsiSequence.jackson(Fraction(1, 2), cap))
    alpha = 0.5
    for j in range(m):
        exact = psi_hyperbolic(psi, m, j, cap)
        want = float(exact.as_polynomial()(Fraction(1, 2)))
        got = _root_of_unity_average(psi, m, j, alpha, cap)
        assert abs(got.imag) < 1e-12
        assert abs(got.real - want) < 1e-12
