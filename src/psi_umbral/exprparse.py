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
values, computed on the series; an operand that is a plain table (X, Xpsi,
Nhat, D0, Q[q], Dq[q], or D for other weights) makes the result a table.
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

_PSI_BOUND = {"Dpsi", "Xpsi", "Nhat", "Delta", "E"}
_PARAMETRIC = {"Q", "Dq", "E"}
MAX_NESTING = 64


class OperatorContext:
    """Cap and optional weight binding for expression evaluation."""

    def __init__(self, cap: int, psi: PsiSequence | None = None):
        self.cap = cap
        self.psi = psi


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_symbol(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect_symbol(self, ch: str):
        if not self.take_symbol(ch):
            raise ExprParseError("expected %r" % ch, self.pos)

    def take_name(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            return None
        return self.text[start:self.pos]

    def take_int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ExprParseError("expected an integer", start)
        limit = sys.get_int_max_str_digits()
        if limit and self.pos - start > limit:
            raise ExprParseError("integer literal longer than the %d-digit limit "
                                 "for converting a string to an int" % limit, start)
        return int(self.text[start:self.pos])

    def take_rational(self) -> Fraction:
        self._skip_ws()
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


class _Parser:
    def __init__(self, text: str, ctx: OperatorContext):
        self.toks = _Tokens(text)
        self.ctx = ctx
        self.depth = 0

    def parse(self) -> GradedOperator:
        op = self.expr()
        if self.toks.peek() is not None:
            raise ExprParseError("unexpected trailing input", self.toks.pos)
        return op

    def expr(self) -> GradedOperator:
        left = self.term()
        while True:
            if self.toks.take_symbol("+"):
                left = left + self.term()
            elif self.toks.take_symbol("-"):
                left = left - self.term()
            else:
                return left

    def term(self) -> GradedOperator:
        left = self.unary()
        while self.toks.take_symbol("*"):
            left = left * self.unary()
        return left

    def unary(self) -> GradedOperator:
        negate = False
        while self.toks.take_symbol("-"):
            negate = not negate
        op = self.power()
        return -op if negate else op

    def power(self) -> GradedOperator:
        base = self.atom()
        while self.toks.take_symbol("^"):
            base = base ** self.toks.take_int()
        return base

    def atom(self) -> GradedOperator:
        ch = self.toks.peek()
        if ch is None:
            raise ExprParseError("unexpected end of input", self.toks.pos)
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ExprParseError("parentheses nested deeper than %d"
                                     % MAX_NESTING, self.toks.pos)
            self.toks.expect_symbol("(")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.toks.expect_symbol(")")
            return inner
        if ch.isdecimal():
            value = self.toks.take_rational()
            if self.ctx.psi is None:
                return GradedOperator.scalar(value, self.ctx.cap)
            return SeriesOperator(TruncatedSeries((value,), self.ctx.cap),
                                  self.ctx.psi)
        at = self.toks.pos
        name = self.toks.take_name()
        if name is None:
            raise ExprParseError("unexpected character %r" % ch, self.toks.pos)
        return self.named(name, at)

    def named(self, name: str, at: int) -> GradedOperator:
        param = None
        if self.toks.take_symbol("["):
            param = self.toks.take_rational()
            self.toks.expect_symbol("]")
        if name in _PARAMETRIC and param is None:
            raise ExprParseError("%s requires a [parameter]" % name, at)
        if name not in _PARAMETRIC and param is not None:
            raise ExprParseError("%s takes no parameter" % name, at)
        cap = self.ctx.cap
        if name in _PSI_BOUND:
            psi = self.ctx.psi
            if psi is None:
                raise ExprParseError(
                    "%s needs a weight sequence in context" % name, at)
            if name == "Dpsi":
                return psi_derivative_op(psi, cap)
            if name == "Xpsi":
                return psi_raise_op(psi, cap)
            if name == "Nhat":
                return weight_op(psi, cap)
            if name == "Delta":
                return forward_difference_op(psi, cap)
            return translation_op(psi, param, cap)
        if name == "D":
            psi = self.ctx.psi
            if psi is not None and psi.kind == CLASSICAL:
                return psi_derivative_op(psi, cap)
            return derivative_op(cap)
        if name == "X":
            return multiply_x_op(cap)
        if name == "D0":
            return divided_difference_op(cap)
        if name == "Q":
            return dilation_op(param, cap)
        if name == "Dq":
            return jackson_derivative_op(param, cap)
        raise ExprParseError("unknown operator name %r" % name, at)


def parse_operator(text: str, ctx: OperatorContext) -> GradedOperator:
    """Parse and evaluate an operator expression in the given context."""
    if not isinstance(text, str):
        raise ExprParseError("operator expression must be a string", 0)
    return _Parser(text, ctx).parse()
