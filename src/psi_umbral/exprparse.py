"""Recursive-descent parser for operator expressions.

Grammar (precedence: ^ binds tightest, then *, then + and -):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)*
    atom   := RATIONAL | NAME | NAME '[' RATIONAL ']' | '(' expr ')'

Names: D (classical derivative), X (multiply by x), D0 (divided
difference), Q[q] (dilation), Dq[q] (Jackson derivative), Dpsi, Xpsi,
Nhat, Delta, E[y] (all five relative to the context weights).  A bare
rational is that multiple of the identity; '*' is operator composition.
Parentheses nest at most MAX_NESTING deep, so the recursion stays bounded.
Every failure raises ExprParseError carrying the 0-based input position.

With weights in context, Dpsi, Delta, E[y], rationals and (for classical
weights) D evaluate to ``SeriesOperator`` values, series in the context's
weighted derivative.  '+', '-', '*' and '^' between them stay series
values, computed on the series.  Dq[q] is a series value in its own
Jackson weights.  X, Xpsi, Nhat, D0, Q[q] and (for other weights) D
evaluate to ``ShiftOperator`` values, kept as their weights: products and
powers of shifts, scalar multiples and negation keep a shift a shift, and
so does a product with c times a power of a weighted derivative.  Any
other mix is a plain table.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import TruncatedSeries
from .errors import ExprParseError
from .operators import (GradedOperator, SeriesOperator, derivative_op,
                        dilation_op, divided_difference_op,
                        forward_difference_op, jackson_derivative_op,
                        multiply_x_op, psi_derivative_op, psi_raise_op,
                        translation_op, weight_op)
from .psi import CLASSICAL, PsiSequence

MAX_NESTING = 64


def _derivative(cap, psi, param):
    # under classical weights D is the series value of the weighted derivative
    if psi is not None and psi.kind == CLASSICAL:
        return psi_derivative_op(psi, cap)
    return derivative_op(cap)


# The operator names: name -> (needs the context weights, takes a [parameter],
# builder (cap, psi, param) -> operator).
_NAMES = {
    "D": (False, False, _derivative),
    "X": (False, False, lambda cap, psi, param: multiply_x_op(cap)),
    "D0": (False, False, lambda cap, psi, param: divided_difference_op(cap)),
    "Q": (False, True, lambda cap, psi, param: dilation_op(param, cap)),
    "Dq": (False, True, lambda cap, psi, param: jackson_derivative_op(param, cap)),
    "Dpsi": (True, False, lambda cap, psi, param: psi_derivative_op(psi, cap)),
    "Xpsi": (True, False, lambda cap, psi, param: psi_raise_op(psi, cap)),
    "Nhat": (True, False, lambda cap, psi, param: weight_op(psi, cap)),
    "Delta": (True, False, lambda cap, psi, param: forward_difference_op(psi, cap)),
    "E": (True, True, lambda cap, psi, param: translation_op(psi, param, cap)),
}


class OperatorContext:
    """Cap and optional weight binding for expression evaluation."""

    def __init__(self, cap: int, psi: PsiSequence | None = None):
        self.cap = cap
        self.psi = psi


class _Parser:
    def __init__(self, text: str, ctx: OperatorContext):
        self.text = text
        self.pos = 0
        self.ctx = ctx
        self.depth = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take_symbol(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect_symbol(self, ch: str):
        if not self.take_symbol(ch):
            raise ExprParseError("expected %r" % ch, self.pos)

    def take_run(self, accept) -> str:
        """After whitespace, the longest run of characters ``accept`` takes."""
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and accept(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]

    def take_int(self) -> int:
        digits = self.take_run(str.isdecimal)
        start = self.pos - len(digits)
        if not digits:
            raise ExprParseError("expected an integer", start)
        limit = sys.get_int_max_str_digits()
        if limit and len(digits) > limit:
            raise ExprParseError("integer literal longer than the %d-digit limit "
                                 "for converting a string to an int" % limit, start)
        return int(digits)

    def take_rational(self) -> Fraction:
        neg = self.take_symbol("-")
        num = self.take_int()
        if self.take_symbol("/"):
            den = self.take_int()
            if den == 0:
                raise ExprParseError("zero denominator in rational", self.pos)
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        return -value if neg else value

    def parse(self) -> GradedOperator:
        op = self.expr()
        if self.peek() is not None:
            raise ExprParseError("unexpected trailing input", self.pos)
        return op

    def expr(self) -> GradedOperator:
        left = self.term()
        while True:
            if self.take_symbol("+"):
                left = left + self.term()
            elif self.take_symbol("-"):
                left = left - self.term()
            else:
                return left

    def term(self) -> GradedOperator:
        left = self.unary()
        while self.take_symbol("*"):
            left = left * self.unary()
        return left

    def unary(self) -> GradedOperator:
        negate = False
        while self.take_symbol("-"):
            negate = not negate
        op = self.power()
        return -op if negate else op

    def power(self) -> GradedOperator:
        base = self.atom()
        while self.take_symbol("^"):
            base = base ** self.take_int()
        return base

    def atom(self) -> GradedOperator:
        ch = self.peek()
        if ch is None:
            raise ExprParseError("unexpected end of input", self.pos)
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ExprParseError("parentheses nested deeper than %d"
                                     % MAX_NESTING, self.pos)
            self.expect_symbol("(")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_symbol(")")
            return inner
        if ch.isdecimal():
            value = self.take_rational()
            if self.ctx.psi is None:
                return GradedOperator.scalar(value, self.ctx.cap)
            return SeriesOperator(TruncatedSeries((value,), self.ctx.cap),
                                  self.ctx.psi)
        at = self.pos
        name = self.take_run(lambda ch: ch.isalnum() or ch == "_")
        if not name:
            raise ExprParseError("unexpected character %r" % ch, self.pos)
        return self.named(name, at)

    def named(self, name: str, at: int) -> GradedOperator:
        param = None
        if self.take_symbol("["):
            param = self.take_rational()
            self.expect_symbol("]")
        needs_psi, parametric, build = _NAMES.get(name, (False, False, None))
        if parametric and param is None:
            raise ExprParseError("%s requires a [parameter]" % name, at)
        if not parametric and param is not None:
            raise ExprParseError("%s takes no parameter" % name, at)
        if build is None:
            raise ExprParseError("unknown operator name %r" % name, at)
        if needs_psi and self.ctx.psi is None:
            raise ExprParseError("%s needs a weight sequence in context" % name, at)
        return build(self.ctx.cap, self.ctx.psi, param)


def parse_operator(text: str, ctx: OperatorContext) -> GradedOperator:
    """Parse and evaluate an operator expression in the given context."""
    if not isinstance(text, str):
        raise ExprParseError("operator expression must be a string", 0)
    return _Parser(text, ctx).parse()
