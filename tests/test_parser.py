from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import Polynomial
from psi_umbral.errors import ExprParseError
from psi_umbral.exprparse import MAX_NESTING, OperatorContext, parse_operator
from psi_umbral.operators import (GradedOperator, SeriesOperator,
                                  ShiftOperator, derivative_op,
                                  forward_difference_op, multiply_x_op,
                                  psi_derivative_op)
from psi_umbral.psi import PsiSequence

CTX = OperatorContext(8)


def psi_ctx(q="1/2"):
    return OperatorContext(8, PsiSequence.jackson(Fraction(q), 8))


def test_single_names():
    assert parse_operator("D", CTX) == derivative_op(8)
    assert parse_operator("X", CTX) == multiply_x_op(8)
    assert parse_operator("D0", CTX).image(3) == Polynomial.monomial(2)


def test_parameterized_names():
    q = parse_operator("Q[2]", CTX)
    assert q.image(3) == Polynomial.monomial(3, 8)
    dq = parse_operator("Dq[2]", CTX)
    assert dq.image(3) == Polynomial.monomial(2, 7)


def test_psi_bound_names():
    ctx = psi_ctx()
    assert parse_operator("Dpsi", ctx) == psi_derivative_op(ctx.psi, 8)
    assert parse_operator("Delta", ctx) == forward_difference_op(ctx.psi, 8)
    e = parse_operator("E[1]", ctx)
    assert e.image(0) == Polynomial.one()


def test_psi_bound_without_context_fails():
    with pytest.raises(ExprParseError):
        parse_operator("Dpsi", CTX)
    with pytest.raises(ExprParseError):
        parse_operator("E[1]", CTX)


S, W = SeriesOperator, ShiftOperator
# name: (takes a [parameter], what it parses to without weights, under
# classical weights, under q = 1/2 weights); None where it needs weights
NAME_CASES = {
    "D": (False, W, S, W),
    "X": (False, W, W, W),
    "D0": (False, W, W, W),
    "Q": (True, W, W, W),
    "Dq": (True, S, S, S),
    "Dpsi": (False, None, S, S),
    "Xpsi": (False, None, W, W),
    "Nhat": (False, None, W, W),
    "Delta": (False, None, S, S),
    "E": (True, None, S, S),
    "Zeta": (False, "unknown", "unknown", "unknown"),
}
WEIGHTS = {"none": None, "classical": PsiSequence.classical(8),
           "q": PsiSequence.jackson(Fraction(1, 2), 8)}


@pytest.mark.parametrize("weights", list(WEIGHTS))
@pytest.mark.parametrize("param", ["", "[1/2]"])
@pytest.mark.parametrize("name", list(NAME_CASES))
def test_every_name_with_and_without_a_parameter_and_weights(name, param,
                                                             weights):
    parametric, *kinds = NAME_CASES[name]
    kind = kinds[list(WEIGHTS).index(weights)]
    ctx = OperatorContext(8, WEIGHTS[weights])
    # leading blanks: the error points at the name, past them
    text = "  " + name + param
    if parametric and not param:
        message = "%s requires a [parameter]" % name
    elif param and not parametric:
        message = "%s takes no parameter" % name
    elif kind == "unknown":
        message = "unknown operator name %r" % name
    elif kind is None:
        message = "%s needs a weight sequence in context" % name
    else:
        assert type(parse_operator(text, ctx)) is kind
        return
    with pytest.raises(ExprParseError) as info:
        parse_operator(text, ctx)
    assert (info.value.message, info.value.position) == (message, 2)


def test_precedence_power_before_compose():
    got = parse_operator("X*D^2", CTX)
    d = derivative_op(8)
    want = multiply_x_op(8).compose(d.compose(d))
    assert got == want


def test_precedence_compose_before_sum():
    got = parse_operator("D*X + X*D", CTX)
    d, x = derivative_op(9), multiply_x_op(9)
    assert got == (d * x + x * d).truncated(got.cap)


def test_unary_minus_and_scalars():
    got = parse_operator("1/2 * D - -D", CTX)
    want = Fraction(3, 2) * derivative_op(8)
    assert got == want


def test_parentheses():
    got = parse_operator("(D + X) * (D + X)", CTX)
    s = derivative_op(8) + multiply_x_op(8)
    assert got == s.compose(s)


def test_scalar_atom_is_identity_multiple():
    got = parse_operator("3", CTX)
    assert got == GradedOperator.scalar(3, 8)


def test_commutator_normalizes_to_identity():
    got = parse_operator("D*X - X*D", CTX)
    assert got == GradedOperator.identity(got.cap)


def test_missing_parameter():
    with pytest.raises(ExprParseError):
        parse_operator("Q", CTX)


def test_unwanted_parameter():
    with pytest.raises(ExprParseError):
        parse_operator("D[2]", CTX)


def test_unknown_name():
    with pytest.raises(ExprParseError):
        parse_operator("Zeta", CTX)


def test_trailing_input():
    with pytest.raises(ExprParseError) as info:
        parse_operator("D D", CTX)
    assert info.value.position == 2


def test_error_position_is_exposed():
    with pytest.raises(ExprParseError) as info:
        parse_operator("D + %", CTX)
    assert info.value.position == 4


def test_zero_denominator():
    with pytest.raises(ExprParseError):
        parse_operator("Q[1/0]", CTX)


def test_non_string_input():
    with pytest.raises(ExprParseError):
        parse_operator(None, CTX)


def test_nesting_up_to_the_limit_parses():
    text = "(" * MAX_NESTING + "D" + ")" * MAX_NESTING
    assert parse_operator(text, CTX) == derivative_op(8)


def test_deep_nesting_points_at_the_first_parenthesis_too_deep():
    text = "  " + "(" * 300 + "D" + ")" * 300
    with pytest.raises(ExprParseError) as info:
        parse_operator(text, CTX)
    assert info.value.position == 2 + MAX_NESTING


def test_long_unary_minus_chain():
    assert parse_operator("-" * 1001 + "D", CTX) == -derivative_op(8)
    assert parse_operator("-" * 1000 + "D", CTX) == derivative_op(8)


@given(st.text(alphabet="DXEq01[]()+-*/ ", max_size=24))
@settings(max_examples=200)
def test_parser_is_total(text):
    # arbitrary input either parses or raises the one declared error type;
    # '^' is left out so shrinking cannot manufacture astronomical powers
    ctx = OperatorContext(4, PsiSequence.classical(4))
    try:
        op = parse_operator(text, ctx)
    except ExprParseError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert isinstance(op, GradedOperator)
