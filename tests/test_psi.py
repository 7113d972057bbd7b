from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import Polynomial
from psi_umbral.errors import AdmissibilityError, CapExceededError
from psi_umbral.operators import psi_raise
from psi_umbral.psi import (PsiSequence, RationalFunction, jackson_bracket,
                            validate_admissible)


def test_classical_weights():
    psi = PsiSequence.classical(8)
    assert psi.values(5) == [1, 2, 3, 4, 5]
    assert psi.factorial(4) == 24
    assert psi.binomial(5, 2) == 10


def test_jackson_weights_at_two():
    psi = PsiSequence.jackson(2, 8)
    assert psi.values(4) == [1, 3, 7, 15]
    assert psi.factorial(3) == 21
    assert psi.binomial(4, 2) == 35


def test_jackson_weights_at_half():
    psi = PsiSequence.jackson(Fraction(1, 2), 8)
    assert psi.n_psi(2) == Fraction(3, 2)
    assert psi.n_psi(3) == Fraction(7, 4)


def test_jackson_zero_is_all_ones():
    psi = PsiSequence.jackson(0, 8)
    assert psi.values(6) == [1] * 6
    assert psi.factorial(6) == 1


def test_jackson_rejects_q_equal_one():
    with pytest.raises(AdmissibilityError):
        jackson_bracket(Fraction(1), 3)
    with pytest.raises(AdmissibilityError):
        PsiSequence.jackson(1, 4)


def test_root_of_unity_weight_vanishes():
    # q = -1 makes the bracket vanish at n = 2
    report = validate_admissible(PsiSequence.jackson(-1, 1), 4)
    assert not report.ok
    assert report.first_violation == 2


def test_divided_difference_weights():
    psi = PsiSequence.divided_difference(6)
    assert psi.values(6) == [1] * 6
    assert psi.n_psi(0) == 0


def test_rational_weights_follow_the_bracket():
    # R(x) = (1 - x)/(1 - q) along x = q^n reproduces the Jackson bracket
    q = Fraction(1, 2)
    rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
    psi = PsiSequence.rational(rat, q, 8)
    jackson = PsiSequence.jackson(q, 8)
    assert psi.values(8) == jackson.values(8)


def test_rational_weights_can_be_inadmissible():
    # R(x) = 1 - x vanishes at x = q^0... but n starts at 1; make it vanish at q^2
    q = Fraction(2)
    rat = RationalFunction(Polynomial((-4, 1)), Polynomial((1,)))
    report = validate_admissible(PsiSequence.rational(rat, q, 1), 5)
    assert not report.ok
    assert report.first_violation == 2


def test_custom_weights_and_exhaustion():
    psi = PsiSequence.custom([1, 4, 9])
    assert psi.n_psi(3) == 9
    with pytest.raises(CapExceededError):
        psi.n_psi(4)
    with pytest.raises(CapExceededError):
        PsiSequence.custom([1, 2], cap=5)


def test_custom_zero_weight_is_caught():
    psi = PsiSequence.custom([1, 0, 3], cap=1)
    with pytest.raises(AdmissibilityError):
        psi.n_psi(2)


def test_lazy_extension_past_construction_cap():
    psi = PsiSequence.classical(2)
    assert psi.n_psi(10) == 10
    assert psi.stored_cap >= 10


def test_falling_factorial():
    psi = PsiSequence.jackson(2, 8)
    # 4_psi * 3_psi = 15 * 7
    assert psi.falling(4, 2) == 105
    assert psi.falling(4, 0) == 1
    assert psi.falling(3, 4) == 0  # hits the zero weight at n = 0


def test_raising_ratio():
    psi = PsiSequence.jackson(2, 8)
    # weights 1, 3, 7: (2/3) * (3/7)
    assert psi.raising_ratio(1, 2) == Fraction(2, 7)
    assert psi.raising_ratio(5, 0) == 1
    assert PsiSequence.classical(8).raising_ratio(3, 4) == 1


def test_raising_ratio_is_the_raising_operator_power():
    psi = PsiSequence.jackson(Fraction(1, 2), 12)
    for k in range(4):
        p = Polynomial.monomial(k)
        for j in range(5):
            assert p == Polynomial.monomial(k + j, psi.raising_ratio(k, j))
            p = psi_raise(psi, p)


def test_binomial_edges():
    psi = PsiSequence.jackson(2, 8)
    assert psi.binomial(5, -1) == 0
    assert psi.binomial(3, 5) == 0
    assert psi.binomial(6, 0) == 1
    assert psi.binomial(6, 6) == 1


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
@settings(max_examples=60)
def test_binomial_symmetry(n, k):
    for psi in (PsiSequence.classical(12), PsiSequence.jackson(Fraction(1, 2), 12),
                PsiSequence.jackson(3, 12)):
        assert psi.binomial(n, k) == psi.binomial(n, n - k)


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=30)
def test_factorial_ratio_is_weight(n):
    psi = PsiSequence.jackson(Fraction(2, 3), 12)
    assert psi.factorial(n) / psi.factorial(n - 1) == psi.n_psi(n)


def test_json_roundtrip_all_kinds():
    q = Fraction(3, 4)
    rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
    for psi in (PsiSequence.classical(6),
                PsiSequence.divided_difference(6),
                PsiSequence.jackson(q, 6),
                PsiSequence.rational(rat, q, 6),
                PsiSequence.custom([1, 3, 7], 3)):
        back = PsiSequence.from_json(psi.to_json(), cap=6)
        assert back.kind == psi.kind
        n = min(6, psi.stored_cap, back.stored_cap)
        assert back.values(n) == psi.values(n)


def test_validate_admissible_ok():
    report = validate_admissible(PsiSequence.jackson(2, 4), 10)
    assert report.ok
    assert report.to_json()["ok"] is True
