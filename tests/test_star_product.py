from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.errors import CapExceededError
from psi_umbral.operators import psi_derivative
from psi_umbral.psi import PsiSequence, RationalFunction
from psi_umbral.star_product import (poisson_weights,
                                     poisson_weights_raising,
                                     poisson_weights_recursion, psi_exp_scaled,
                                     psi_leibniz, q_leibniz, r_leibniz,
                                     star_mul, star_power)
from psi_umbral.verify import standard_suite_psis


def test_star_square_jackson():
    # x * x = (2!/2_psi!) x^2; at q = 2 the weight 2-factorial is 3
    psi = PsiSequence.jackson(2, 8)
    assert star_power(2, psi) == Polynomial((0, 0, Fraction(2, 3)))


def test_star_power_classical_is_plain_power():
    psi = PsiSequence.classical(8)
    for n in range(6):
        assert star_power(n, psi) == Polynomial.monomial(n)


def test_star_product_with_one_rescales():
    # weights n+1: x * 1 realizes x through the raising operator: x/2
    psi = PsiSequence.custom([n + 1 for n in range(1, 9)])
    got = star_mul(Polynomial.x(), Polynomial.one(), psi)
    assert got.as_polynomial() == Polynomial((0, Fraction(1, 2)))


def test_star_product_takes_polynomials_and_series_only():
    with pytest.raises(TypeError):
        star_mul([1], [1], PsiSequence.classical(3))


def test_star_product_is_not_commutative():
    psi = PsiSequence.jackson(2, 8)
    f = Polynomial((0, 1))
    g = Polynomial((0, 0, 1))
    fg = star_mul(f, g, psi).as_polynomial()
    gf = star_mul(g, f, psi).as_polynomial()
    assert fg != gf


def test_star_exponential_addition():
    # exp[a x] * exp_psi[b x] = exp_psi[(a+b) x]: the left factor acts as a
    # classical exponential in the raising variable
    cap = 12
    psi = PsiSequence.jackson(Fraction(1, 2), cap)
    a, b = Fraction(2), Fraction(-1, 2)
    left = psi_exp_scaled(PsiSequence.classical(cap), a, cap)
    right = psi_exp_scaled(psi, b, cap)
    got = star_mul(left, right, psi)
    assert got == psi_exp_scaled(psi, a + b, cap)


def test_star_exponential_inverse_is_exact_unity():
    cap = 12
    for psi in (PsiSequence.classical(cap), PsiSequence.jackson(3, cap),
                PsiSequence.divided_difference(cap)):
        lam = Fraction(5, 3)
        got = star_mul(psi_exp_scaled(PsiSequence.classical(cap), lam, cap),
                       psi_exp_scaled(psi, -lam, cap), psi)
        assert got == TruncatedSeries.one(cap)


def _star_by_steps(f, g, psi, cap):
    """f * g through degree cap by a double loop: a_j b_i times the step
    products prod_(t=1..j) (i+t)/(i+t)_psi at x^(i+j)."""
    out = [Fraction(0)] * (cap + 1)
    for i, b in enumerate(g):
        for j, a in enumerate(f):
            if a and b and i + j <= cap:
                ratio = Fraction(1)
                for t in range(1, j + 1):
                    ratio *= (i + t) / psi.n_psi(i + t)
                out[i + j] += a * b * ratio
    return TruncatedSeries(out, cap)


_F = Polynomial((Fraction(1, 2), -3, 0, Fraction(2, 5)))
_G = Polynomial((2, 0, Fraction(-1, 3), 1, 4))

# (f, g, cap argument, result cap); the series carry trailing zeros
_STAR_CASES = [
    (Polynomial((0, 1)), Polynomial((0, 0, 1)), None, 3),
    (_F, _G, None, 7),
    (_G, _F, None, 7),
    (_F, _G, 4, 4),
    (Polynomial(), _G, None, 4),
    (_F, Polynomial(), None, 3),
    (TruncatedSeries([Fraction(3, 4), 0, 5], 9), _G, None, 9),
    (_F, TruncatedSeries([-2, 1, 0, Fraction(7, 3)], 10), None, 10),
    (TruncatedSeries([1, -1, 2], 6),
     TruncatedSeries([0, 0, 3, 0, 0, 0, 1], 8), None, 6),
    (TruncatedSeries([1, 1, 1, 1], 5), TruncatedSeries([1, 2, 3], 5), 2, 2),
]


@pytest.mark.parametrize("psi", [
    pytest.param(psi, id=name) for name, psi in standard_suite_psis(12) + [
        ("custom", PsiSequence.custom([Fraction(-2, 3), 5, Fraction(7, 4), -1,
                                       Fraction(9, 2), 3, Fraction(-1, 6), 2,
                                       -4, Fraction(5, 3), 1, -6]))]])
def test_star_product_matches_the_step_products(psi):
    for f, g, cap, out_cap in _STAR_CASES:
        got = star_mul(f, g, psi, cap)
        want = _star_by_steps(f.coeffs, g.coeffs, psi, out_cap)
        assert (got._num, got._den, got._cap) == (
            want._num, want._den, want._cap), (f, g, cap)


def test_star_product_reads_weights_only_as_far_as_a_pair_reaches():
    psi = PsiSequence.custom([1, 2], cap=2)
    x = Polynomial.x()
    # x * x reads the weights 1 and 2; x^2 * x needs weight 3
    assert star_mul(x, x, psi) == TruncatedSeries([0, 0, 1], 2)
    with pytest.raises(CapExceededError):
        star_mul(x * x, x, psi)
    # a pair past the cap reads nothing, and neither does a wide cap
    # that no pair reaches, nor the constant term of the left factor
    assert star_mul(x * x, x, psi, cap=2) == TruncatedSeries.zero(2)
    assert star_mul(x, TruncatedSeries([0, 1], 12), psi) == \
        TruncatedSeries([0, 0, 1], 12)
    assert star_mul(Polynomial((3,)), Polynomial.monomial(7), psi) == \
        TruncatedSeries.from_polynomial(Polynomial.monomial(7, 3), 7)


def test_poisson_routes_agree():
    cap = 10
    lam = Fraction(1, 2)
    for psi in (PsiSequence.classical(cap), PsiSequence.jackson(2, cap)):
        direct, norm = poisson_weights(psi, lam, 4, cap)
        rec = poisson_weights_recursion(psi, lam, 4, cap)
        rai = poisson_weights_raising(psi, lam, 4, cap)
        assert direct == rec == rai
        assert norm == TruncatedSeries.one(cap)


def test_poisson_weights_solve_the_lowering_system():
    cap = 10
    lam = Fraction(2, 3)
    psi = PsiSequence.jackson(Fraction(1, 2), cap)
    rows = poisson_weights_recursion(psi, lam, 3, cap)
    zero = TruncatedSeries.zero(cap - 1)
    for m in range(4):
        pm = rows[m].as_polynomial()
        prev = rows[m - 1].as_polynomial() if m else Polynomial()
        residual = (psi_derivative(psi, pm) + lam * pm - lam * prev)
        assert TruncatedSeries.from_polynomial(residual, cap - 1) == zero


def test_poisson_partial_sums_telescope():
    cap = 10
    lam = Fraction(1, 3)
    psi = PsiSequence.jackson(2, cap)
    rows = poisson_weights_recursion(psi, lam, cap, cap)
    acc = TruncatedSeries.zero(cap)
    for m, row in enumerate(rows):
        acc = acc + row
        # the first m+1 weights sum to 1 through degree m
        assert acc.truncated(m) == TruncatedSeries.one(m)


def test_q_leibniz_unit_example():
    q = Fraction(2)
    f = Polynomial((0, 1))        # x
    g = Polynomial((0, 0, 1))     # x^2
    got = q_leibniz(q, f, g)
    psi = PsiSequence.jackson(q, 4)
    assert got == psi_derivative(psi, f * g)


def test_r_leibniz_matches_bracket_form():
    # R(x) = (1-x)/(1-q) along q^n reproduces the Jackson weights
    q = Fraction(3)
    rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
    psi = PsiSequence.jackson(q, 8)
    f = Polynomial((1, 2, 1))
    g = Polynomial((0, 1, 0, 4))
    assert r_leibniz(rat, q, f, g) == psi_derivative(psi, f * g)


def _poly_strategy():
    coeff = st.integers(min_value=-5, max_value=5).map(Fraction)
    return st.lists(coeff, min_size=0, max_size=6).map(Polynomial)


@given(_poly_strategy(), _poly_strategy())
@settings(max_examples=60)
def test_psi_leibniz_is_exact(f, g):
    psi = PsiSequence.custom([Fraction(n * n) for n in range(1, 14)])
    assert psi_leibniz(psi, f, g) == psi_derivative(psi, f * g)


@given(_poly_strategy(), _poly_strategy())
@settings(max_examples=60)
def test_q_leibniz_is_exact(f, g):
    q = Fraction(1, 2)
    psi = PsiSequence.jackson(q, 14)
    assert q_leibniz(q, f, g) == psi_derivative(psi, f * g)


@given(st.integers(min_value=0, max_value=6), _poly_strategy())
@settings(max_examples=40)
def test_monomial_left_factor_iterates_the_raising_operator(n, g):
    # x^n * g agrees with n successive left products by x
    psi = PsiSequence.jackson(2, 20)
    direct = star_mul(Polynomial.monomial(n), g, psi).as_polynomial()
    acc = g
    for _ in range(n):
        acc = star_mul(Polynomial.x(), acc, psi).as_polynomial()
    assert direct == acc


@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
@settings(max_examples=40)
def test_mixed_associativity(f, g, h):
    # f * (g * h) = (fg) * h: substitution into the raising operator is a
    # homomorphism from ordinary multiplication to operator composition
    psi = PsiSequence.jackson(Fraction(1, 2), 30)
    inner = star_mul(g, h, psi).as_polynomial()
    left = star_mul(f, inner, psi).as_polynomial()
    right = star_mul(f * g, h, psi).as_polynomial()
    assert left == right
