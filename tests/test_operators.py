import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import Polynomial
from psi_umbral.errors import (AdmissibilityError, CapExceededError,
                               NonInvertibleError, NotShiftInvariantError)
from psi_umbral.expansion import first_expansion_coeffs
from psi_umbral.exprparse import OperatorContext, parse_operator
from psi_umbral.operators import (GradedOperator, SeriesOperator,
                                  derivative_op, dilation_op,
                                  divided_difference, divided_difference_op,
                                  forward_difference_op, invert_shift_invariant,
                                  jackson_derivative_op,
                                  multiply_x_op, operator_from_series,
                                  pincherle_derivative, psi_derivative,
                                  psi_derivative_op, psi_raise, psi_raise_op,
                                  shift_invariant_coefficients, translation_op,
                                  weight_multiplier, weight_op)
from psi_umbral.psi import PsiSequence
from psi_umbral.umbral import DeltaOperator, sheffer_sequence, translate
from test_psi import BAD_WEIGHTS, JACKSON_QS, PAIR_WEIGHTS
from test_umbral import KERNEL_WEIGHTS


def passes_gate(op, psi):
    """Does op commute with the weighted derivative on x^0..x^cap?"""
    try:
        shift_invariant_coefficients(op, psi)
    except NotShiftInvariantError:
        return False
    return True


def rationals():
    return st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                     st.integers(min_value=1, max_value=4))


def polynomials(max_deg=6):
    return st.builds(Polynomial, st.lists(rationals(), max_size=max_deg + 1))


def test_weighted_derivative_golden():
    psi = PsiSequence.jackson(2, 8)
    assert psi_derivative(psi, Polynomial.monomial(3)) == Polynomial.monomial(2, 7)
    assert psi_derivative(psi, Polynomial.one()).is_zero


def test_raise_then_lower_is_congruent():
    psi = PsiSequence.jackson(Fraction(1, 2), 10)
    p = Polynomial((1, 2, 3))
    # lower(raise(x^n)) = ((n+1)/(n+1)_psi) * (n+1)_psi x^n = (n+1) x^n
    lifted = psi_raise(psi, p)
    dropped = psi_derivative(psi, lifted)
    assert dropped == Polynomial(tuple((i + 1) * c for i, c in enumerate(p.coeffs)))


def test_divided_difference_action():
    p = Polynomial((5, 1, 2))
    assert divided_difference(p) == Polynomial((1, 2))
    assert divided_difference(Polynomial.one()).is_zero


def test_weight_multiplier_factorization():
    psi = PsiSequence.jackson(3, 8)
    p = Polynomial((2, 0, 1, 4))
    assert weight_multiplier(psi, divided_difference(p)) == psi_derivative(psi, p)


# -- graded tables ----------------------------------------------------------

def test_apply_beyond_cap_errors():
    d = derivative_op(3)
    with pytest.raises(CapExceededError):
        d.apply(Polynomial.monomial(4))


def test_compose_keeps_cap_for_lowering_inner():
    d = derivative_op(8)
    dd = d * d
    assert dd.cap == 8
    assert dd.image(5) == Polynomial.monomial(3, 20)


def test_compose_shrinks_cap_for_raising_inner():
    d = derivative_op(8)
    x = multiply_x_op(8)
    dx = d * x     # inner raises degree, outer table loses a row
    assert dx.cap == 7
    xd = x * d
    assert xd.cap == 8
    # commutator [D, X] = identity on the common cap
    comm = d.commutator(x)
    assert comm == GradedOperator.identity(comm.cap)
    assert comm.cap == 7


def test_composition_shrinks_then_exhausts_the_table():
    x = multiply_x_op(2)
    xxx = (x * x) * x
    # each raise eats one table row; cap 2 supports exactly three
    assert xxx.cap == 0
    assert xxx.image(0) == Polynomial.monomial(3)
    with pytest.raises(CapExceededError):
        xxx * x


def test_noncommutativity_witness():
    d = derivative_op(6)
    x = multiply_x_op(6)
    assert d * x != x * d


def test_shift_bound_and_drop():
    x = multiply_x_op(4)
    assert x.shift_bound == 1
    d = derivative_op(4)
    assert d.shift_bound == -1


def test_operator_from_series_matches_composition():
    psi = PsiSequence.jackson(2, 10)
    d = psi_derivative_op(psi, 10)
    series = operator_from_series([0, 1, 0, 1], psi, 10)
    assert series == d + d * d * d


def test_ghw_commutation_all_kinds():
    for psi in (PsiSequence.classical(10), PsiSequence.jackson(Fraction(1, 2), 10),
                PsiSequence.divided_difference(10)):
        comm = psi_derivative_op(psi, 10).commutator(psi_raise_op(psi, 10))
        assert comm == GradedOperator.identity(comm.cap)


def test_translation_matches_binomial_row():
    psi = PsiSequence.jackson(0, 8)
    e = translation_op(psi, 1, 8)
    assert e.image(2) == Polynomial((1, 1, 1))


def test_forward_difference_kills_constants():
    psi = PsiSequence.classical(8)
    delta = forward_difference_op(psi, 8)
    assert delta.image(0).is_zero
    assert delta.image(1) == Polynomial.one()


def test_dilation_is_not_shift_invariant():
    # scaling the argument rescales the derivative: the commutator with the
    # Jackson derivative shows the 1 - q defect already on x
    q = Fraction(2)
    psi = PsiSequence.jackson(q, 8)
    assert not passes_gate(dilation_op(q, 8), psi)
    assert passes_gate(forward_difference_op(psi, 8), psi)


def test_shift_invariant_coefficients_readout():
    psi = PsiSequence.classical(10)
    delta = forward_difference_op(psi, 10)
    series = shift_invariant_coefficients(delta, psi)
    fact = 1
    for k in range(1, 10):
        fact *= k
        assert series.coefficient(k) == Fraction(1, fact)


def test_invert_shift_invariant_golden():
    # (id + D)^(-1) has the alternating geometric series in D
    psi = PsiSequence.classical(8)
    s = GradedOperator.identity(8) + psi_derivative_op(psi, 8)
    inv = invert_shift_invariant(s, psi)
    series = shift_invariant_coefficients(inv, psi)
    assert series.coeffs == tuple(Fraction((-1) ** k) for k in range(9))


def test_invert_rejects_non_invertible():
    psi = PsiSequence.classical(8)
    with pytest.raises(NonInvertibleError):
        invert_shift_invariant(psi_derivative_op(psi, 8), psi)
    with pytest.raises(NotShiftInvariantError):
        invert_shift_invariant(dilation_op(2, 8), PsiSequence.jackson(2, 8))


def test_pincherle_derivative_classical():
    # [D^2, X] = 2D when the raising partner is plain multiplication
    psi = PsiSequence.classical(8)
    d = derivative_op(10)
    pd = pincherle_derivative(d * d, psi)
    assert pd == (Fraction(2) * derivative_op(10)).truncated(pd.cap)


def test_pincherle_of_derivative_is_identity():
    for psi in (PsiSequence.classical(8), PsiSequence.jackson(3, 8)):
        pd = pincherle_derivative(psi_derivative_op(psi, 8), psi)
        assert pd == GradedOperator.identity(pd.cap)


def test_weighted_derivative_factors():
    psi = PsiSequence.jackson(Fraction(1, 2), 8)
    prod = weight_op(psi, 7) * divided_difference_op(8)
    assert prod == psi_derivative_op(psi, 8).truncated(prod.cap)


def test_jackson_derivative_is_difference_quotient():
    # (f(qx) - f(x)) / (qx - x) on monomials
    q = Fraction(3)
    op = jackson_derivative_op(q, 6)
    for n in range(1, 7):
        bracket = sum(q ** i for i in range(n))
        assert op.image(n) == Polynomial.monomial(n - 1, bracket)


@given(polynomials(), polynomials())
@settings(max_examples=40)
def test_graded_operator_linearity(p, q):
    psi = PsiSequence.jackson(Fraction(1, 2), 12)
    op = translation_op(psi, Fraction(1, 3), 12)
    assert op.apply(p + q) == op.apply(p) + op.apply(q)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=30)
def test_translation_composes_additively_classical(a, b):
    # classical translations compose: E^a E^b = E^(a+b)
    psi = PsiSequence.classical(14)
    ea = translation_op(psi, a, 14)
    eb = translation_op(psi, b, 14)
    eab = translation_op(psi, a + b, 14)
    assert ea * eb == eab.truncated((ea * eb).cap)


def counted_composes(monkeypatch):
    """A list that gains one entry per GradedOperator.compose from now on."""
    calls = []
    compose = GradedOperator.compose

    def counting(self, inner):
        calls.append(1)
        return compose(self, inner)

    monkeypatch.setattr(GradedOperator, "compose", counting)
    return calls


def test_power_of_nilpotent_operator_stops_at_zero(monkeypatch):
    psi = PsiSequence.classical(8)
    d = operator_from_series((0, 1), psi, 8)
    assert type(d) is GradedOperator
    calls = counted_composes(monkeypatch)
    power = d ** 100000
    assert power == GradedOperator.zero(8) and power.cap == 8
    # 100000 ends in five zero bits: the squarings d^2, d^4, d^8, d^16 run
    # before any factor is multiplied in, and d^16 is the first zero square.
    assert len(calls) == 4


def test_power_of_nilpotent_series_value_composes_no_table(monkeypatch):
    psi = PsiSequence.classical(8)
    calls = counted_composes(monkeypatch)
    power = parse_operator("Dpsi^100000", OperatorContext(8, psi))
    assert isinstance(power, SeriesOperator) and power.series.cap == 8
    assert power == GradedOperator.zero(8) and power.cap == 8
    assert calls == []


@pytest.mark.parametrize("text", ["E[1]", "X*D"])
@pytest.mark.parametrize("k", list(range(18)) + [1000])
def test_power_of_cap_keeping_operator_matches_repeated_compose(text, k,
                                                                monkeypatch):
    base = parse_operator(text, OperatorContext(8, PsiSequence.classical(8)))
    assert base.shift_bound <= 0
    reference = GradedOperator.identity(8)
    for _ in range(k):
        reference = reference.compose(base)
    calls = counted_composes(monkeypatch)
    power = base ** k
    assert power.cap == 8 and power == reference
    assert len(calls) <= 2 * k.bit_length()


def test_power_of_raising_operator_still_shrinks_the_cap():
    x = multiply_x_op(8)
    assert (x ** 3).cap == 5
    assert (x ** 3).image(5) == Polynomial.monomial(8)


# -- translation tables against the weighted binomial, entry by entry --


def binomial_rule_table(psi, y, cap):
    """x^n -> sum_k binom_psi(n, k) y^k x^(n-k), one binomial a cell."""
    y = Fraction(y)
    return GradedOperator.from_monomial_rule(
        lambda n: Polynomial([psi.binomial(n, n - j) * y ** (n - j)
                              for j in range(n + 1)]), cap)


@pytest.mark.parametrize("weights", sorted(KERNEL_WEIGHTS))
@pytest.mark.parametrize("cap", [0, 1, 14])
def test_translation_tables_match_the_weighted_binomial(weights, cap):
    psi = KERNEL_WEIGHTS[weights](cap)
    for y in (0, 1, Fraction(-1, 2), 3):
        want = binomial_rule_table(psi, y, cap)
        assert translation_op(psi, y, cap).images == want.images
    want = binomial_rule_table(psi, 1, cap) - GradedOperator.identity(cap)
    assert forward_difference_op(psi, cap).images == want.images


@pytest.mark.parametrize("weights", sorted(KERNEL_WEIGHTS))
def test_translate_matches_the_weighted_binomial(weights):
    cap = 14
    psi = KERNEL_WEIGHTS[weights](cap)
    rng = random.Random(weights)
    for _ in range(12):
        p = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(rng.randint(0, cap + 1))])
        for y in (0, 1, Fraction(-1, 2), 3):
            reach = max(len(p.coeffs) - 1, 0)
            assert translate(psi, y, p) == binomial_rule_table(
                psi, y, reach).apply(p)


def test_translate_reads_no_weight_past_the_degree():
    p = Polynomial((1, 1, 1, 1))
    exact = PsiSequence.custom([1, 4, 9])
    assert translate(exact, Fraction(1, 2), p) == binomial_rule_table(
        exact, Fraction(1, 2), 3).apply(p)
    assert translate(PsiSequence.custom([]), 5, Polynomial((7,))) == \
        Polynomial((7,))
    with pytest.raises(CapExceededError):
        translate(PsiSequence.custom([1, 4]), 1, p)


# -- shift invariance as a series comparison ----------------------------


def identity_leaking_past_the_cap():
    """Identity on x^0..x^7 at cap 8, except x^8 -> x^8 + x^9."""
    images = [Polynomial.monomial(n) for n in range(8)]
    images.append(Polynomial.monomial(8) + Polynomial.monomial(9))
    return GradedOperator(images, 8)


def test_invariance_sees_an_image_past_the_cap():
    # the commutator with the weighted derivative loses row 8 when its cap
    # shrinks to 7, so it reads this table as invariant; the series does not
    psi = PsiSequence.classical(8)
    op = identity_leaking_past_the_cap()
    assert op.commutator(psi_derivative_op(psi, 8)).is_zero
    assert not passes_gate(op, psi)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, 8), psi)
    with pytest.raises(NotShiftInvariantError):
        invert_shift_invariant(op, psi)
    with pytest.raises(NotShiftInvariantError):
        sheffer_sequence(delta, op, 4)
    with pytest.raises(NotShiftInvariantError):
        first_expansion_coeffs(op, delta)


@pytest.mark.parametrize("op, psi, witness", [
    (identity_leaking_past_the_cap(), PsiSequence.classical(8), (8, -1)),
    (dilation_op(2, 8), PsiSequence.jackson(2, 8), (1, 0)),
])
def test_shift_invariant_coefficients_is_the_gate(op, psi, witness):
    # the readout alone would return the identity's series for both; the
    # gate compares the table with it and names the first differing entry
    with pytest.raises(NotShiftInvariantError) as info:
        shift_invariant_coefficients(op, psi)
    assert (info.value.details["n"], info.value.details["k"]) == witness


def test_gate_on_a_row_in_a_non_canonical_form_ends_with_a_witness():
    # row 1 is x over a negative denominator: unequal to the identity's row
    # as numerators and denominator, equal in every coefficient, so the
    # scan of that row stops at degree 0 and names it
    script = (
        "from psi_umbral.algebra import Polynomial, _raw\n"
        "from psi_umbral.errors import NotShiftInvariantError\n"
        "from psi_umbral.operators import (GradedOperator,\n"
        "                                  shift_invariant_coefficients)\n"
        "from psi_umbral.psi import PsiSequence\n"
        "op = GradedOperator([Polynomial.one(), _raw((0, -1), -1),\n"
        "                     Polynomial.monomial(2)], 2)\n"
        "try:\n"
        "    shift_invariant_coefficients(op, PsiSequence.classical(2))\n"
        "except NotShiftInvariantError as exc:\n"
        "    print(exc.details)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "{'n': 1, 'k': 1}\n", done.stderr


ZOO = ("Delta", "E[1/2] - 1", "E[-1/2] - 1", "Dpsi + Dpsi*Dpsi", "D*E[1]",
       "D*X*D", "Q[2]*Dpsi", "Nhat", "Xpsi*Dpsi")

ZOO_WEIGHTS = {
    "classical": lambda cap: PsiSequence.classical(cap),
    "divided_difference": lambda cap: PsiSequence.divided_difference(cap),
    "q=1/2": lambda cap: PsiSequence.jackson(Fraction(1, 2), cap),
    "rational": lambda cap: PsiSequence.from_json(
        {"kind": "rational", "q": "3", "R_num": ["1", "-1"], "R_den": ["-2"]},
        cap),
    "squares": lambda cap: PsiSequence.custom(
        [n * n for n in range(1, cap + 2)]),
}


@pytest.mark.parametrize("weights", sorted(ZOO_WEIGHTS))
def test_invariance_agrees_with_the_commutator_on_the_parser_zoo(weights):
    cap = 12
    psi = ZOO_WEIGHTS[weights](cap)
    verdicts = []
    for text in ZOO:
        op = parse_operator(text, OperatorContext(cap, psi))
        assert all(img.degree <= op.cap for img in op.images)
        commutes = op.commutator(psi_derivative_op(psi, op.cap)).is_zero
        assert passes_gate(op, psi) == commutes, text
        verdicts.append(commutes)
    assert True in verdicts and False in verdicts


# -- the weighted tables against the Fraction formulas they are built from

def _outcome(build):
    """What ``build()`` gives: its value, or its error's type, message and
    details."""
    try:
        return build()
    except (AdmissibilityError, CapExceededError) as exc:
        return type(exc), exc.message, exc.details


def _formula_rows(psi, cap, row):
    return tuple(row(psi, n) for n in range(cap + 1))


WEIGHTED_TABLES = {
    "psi_raise_op": (psi_raise_op, lambda psi, n: Polynomial.monomial(
        n + 1, psi.raising_ratio(n, 1))),
    "weight_op": (weight_op, lambda psi, n: Polynomial.monomial(
        n, psi.n_psi(n + 1))),
}


@pytest.mark.parametrize("table", sorted(WEIGHTED_TABLES))
@pytest.mark.parametrize("weights", sorted(PAIR_WEIGHTS))
def test_weighted_tables_match_their_fraction_formulas(weights, table):
    build, row = WEIGHTED_TABLES[table]
    make = PAIR_WEIGHTS[weights][0]
    for cap in range(25):
        # custom weights hold exactly cap + 1 values, the weights read
        assert build(make(cap + 1), cap).images == _formula_rows(
            make(cap + 1), cap, row), cap


@pytest.mark.parametrize("table", sorted(WEIGHTED_TABLES))
def test_weighted_tables_fail_where_their_formulas_do(table):
    build, row = WEIGHTED_TABLES[table]
    for weights, (make, n, *_) in sorted(BAD_WEIGHTS.items()):
        for cap in range(n + 3):
            got = _outcome(lambda: build(make(n - 1), cap).images)
            want = _outcome(lambda: _formula_rows(make(n - 1), cap, row))
            assert got == want, (weights, cap)
            assert (cap + 1 < n) != isinstance(got[0], type)


@pytest.mark.parametrize("q", JACKSON_QS + [Fraction(1), Fraction(-1),
                                            Fraction(7), Fraction(-9, 4)],
                         ids=str)
def test_dilation_rows_are_the_powers_of_q(q):
    for cap in range(25):
        assert dilation_op(q, cap).images == tuple(
            Polynomial.monomial(n, q ** n) for n in range(cap + 1))
    # at q = 0 only the constants survive
    assert dilation_op(0, 3).images == ((Polynomial.one(),)
                                        + (Polynomial(),) * 3)
