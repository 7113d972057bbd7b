from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import Polynomial
from psi_umbral.errors import AdmissibilityError
from psi_umbral.integration import psi_integral, q_integral, r_integral
from psi_umbral.operators import psi_derivative
from psi_umbral.psi import PsiSequence, RationalFunction, jackson_bracket


def test_q_integral_golden():
    # integrating x^2 at q = 2 divides by the bracket 1 + 2 + 4
    got = q_integral(2, Polynomial((0, 0, 1)))
    assert got == Polynomial((0, 0, 0, Fraction(1, 7)))


def test_q_integral_rejects_q_one():
    with pytest.raises(AdmissibilityError):
        q_integral(1, Polynomial.x())


def test_q_integral_rejects_vanishing_bracket():
    # at q = -1 the bracket of 2 is zero, so x has no antiderivative
    assert jackson_bracket(-1, 2) == 0
    with pytest.raises(AdmissibilityError):
        q_integral(-1, Polynomial.x())
    # constants are still fine: they only need the bracket of 1
    assert q_integral(-1, Polynomial.one()) == Polynomial.x()


def test_psi_integral_with_square_weights():
    psi = PsiSequence.custom([Fraction(n * n) for n in range(1, 8)])
    got = psi_integral(psi, Polynomial((0, 0, 1)))
    assert got == Polynomial((0, 0, 0, Fraction(1, 9)))


def test_r_integral_matches_q_integral():
    q = Fraction(2)
    rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
    p = Polynomial((3, 0, -2, 1))
    assert r_integral(rat, q, p) == q_integral(q, p)


def test_r_integral_rejects_vanishing_weight():
    q = Fraction(2)
    # R has a root at q^2, so x^1 cannot be lifted
    rat = RationalFunction(Polynomial((-q ** 2, 1)), Polynomial.one())
    with pytest.raises(AdmissibilityError):
        r_integral(rat, q, Polynomial.x())


def test_r_integral_rejects_undefined_weight():
    q = Fraction(2)
    rat = RationalFunction(Polynomial.one(), Polynomial((-q ** 3, 1)))
    with pytest.raises(AdmissibilityError):
        r_integral(rat, q, Polynomial((0, 0, 1)))


def _poly_strategy():
    coeff = st.integers(min_value=-9, max_value=9).map(Fraction)
    return st.lists(coeff, min_size=0, max_size=8).map(Polynomial)


@given(_poly_strategy())
@settings(max_examples=60)
def test_integral_is_a_right_inverse(p):
    for psi in (PsiSequence.classical(12), PsiSequence.jackson(2, 12),
                PsiSequence.custom([Fraction(n * n) for n in range(1, 12)])):
        assert psi_derivative(psi, psi_integral(psi, p)) == p


@given(_poly_strategy())
@settings(max_examples=60)
def test_integral_after_derivative_loses_the_constant(p):
    psi = PsiSequence.jackson(Fraction(1, 2), 12)
    back = psi_integral(psi, psi_derivative(psi, p))
    assert back == p - Polynomial((p.constant_term,))


@given(_poly_strategy())
@settings(max_examples=40)
def test_q_route_is_a_right_inverse(p):
    q = Fraction(1, 3)
    psi = PsiSequence.jackson(q, 12)
    assert psi_derivative(psi, q_integral(q, p)) == p


def _lift(p, weights):
    """The per-coefficient formula: c_n / w_(n+1) at x^(n+1), in Fractions."""
    return Polynomial([Fraction(0)] + [c / w for c, w in zip(p.coeffs,
                                                            weights)])


def _fraction_poly_strategy():
    coeff = st.builds(Fraction, st.integers(-30, 30),
                      st.sampled_from([1, 2, 3, 7, 2 ** 31]))
    return st.lists(coeff, max_size=9).map(Polynomial)


@given(_fraction_poly_strategy())
@settings(max_examples=60, deadline=None)
def test_integrals_match_the_per_coefficient_formula(p):
    n = len(p.coeffs)
    for q in (Fraction(1, 2), Fraction(2), Fraction(-3), Fraction(0)):
        weights = [jackson_bracket(q, k) for k in range(1, n + 1)]
        assert q_integral(q, p) == _lift(p, weights)
    for q in (Fraction(1, 2), Fraction(3)):
        rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
        weights = [(1 - q ** k) / (1 - q) for k in range(1, n + 1)]
        assert r_integral(rat, q, p) == _lift(p, weights)
    values = [Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(5),
              Fraction(-7, 2), Fraction(1, 9), Fraction(4), Fraction(-1),
              Fraction(6), Fraction(11, 3)]
    psi = PsiSequence.custom(values)
    assert psi_integral(psi, p) == _lift(p, values)


def test_q_integral_reads_the_bracket_of_every_degree():
    # the x coefficient is zero, yet the bracket of 2 at q = -1 still stops
    # the walk there
    with pytest.raises(AdmissibilityError) as err:
        q_integral(-1, Polynomial((1, 0, 1)))
    assert err.value.details == {"n": 2}
    assert str(err.value) == ("q-bracket vanishes at n=2; monomial x^1 has "
                              "no q-antiderivative")


def test_r_integral_errors_keep_their_message_and_degree():
    q = Fraction(2)
    vanishing = RationalFunction(Polynomial((-q ** 2, 1)), Polynomial.one())
    with pytest.raises(AdmissibilityError) as err:
        r_integral(vanishing, q, Polynomial((1, 0, 5)))
    assert err.value.details == {"n": 2}
    assert str(err.value) == ("weight R(q^2) vanishes; x^1 has no "
                              "antiderivative here")
    undefined = RationalFunction(Polynomial.one(), Polynomial((-q ** 3, 1)))
    with pytest.raises(AdmissibilityError) as err:
        r_integral(undefined, q, Polynomial((0, 0, 1)))
    assert err.value.details == {"n": 3}
    assert str(err.value) == "rational function denominator vanishes at 8"
