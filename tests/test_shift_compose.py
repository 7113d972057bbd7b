"""Composition of weighted shifts, against applying the outer table.

X, D, D0, Q[q], Xpsi, Nhat, Dpsi and c*Dpsi^k each send x^n to one term
w_n x^(n+s), and ``GradedOperator.compose`` composes such operators on
their weights.  Here products, powers and sums of them, and of E[y], are
composed both ways in several weights and at caps 0-24: by the library,
and by a reference that applies the outer table to each inner row, row by
row, with the usable cap the first nonzero inner row past the outer cap
ends.  A ``ShiftOperator`` value is also compared with its plain twin, the
table of its rows, through every reader that takes a shift on its weights.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.errors import CapExceededError
from psi_umbral.expansion import detect_psi_series
from psi_umbral.exprparse import OperatorContext, parse_operator
from psi_umbral.operators import (GradedOperator, ShiftOperator,
                                  _require_lowers_by_one, psi_derivative_op,
                                  shift_invariant_coefficients)
from psi_umbral.psi import PsiSequence
from psi_umbral.umbral import basic_sequence_solve
from test_series_operator import counted_rows

WEIGHTS = {
    "classical": PsiSequence.classical(32),
    "q=1/2": PsiSequence.jackson(Fraction(1, 2), 32),
    "q=-2": PsiSequence.jackson(-2, 32),
    "squares": PsiSequence.custom([n * n for n in range(1, 33)]),
    "negative": PsiSequence.custom([Fraction((-1) ** n * (2 * n + 1), n + 2)
                                    for n in range(1, 33)]),
}

SCALARS = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                    st.integers(min_value=1, max_value=3))

ATOMS = st.one_of(
    st.sampled_from(["X", "D", "D0", "Xpsi", "Nhat", "Dpsi"]),
    st.builds("Q[{}]".format, SCALARS),
    st.builds("E[{}]".format, SCALARS),
    st.builds("{}*Dpsi^{}".format, SCALARS,
              st.integers(min_value=0, max_value=4)),
)

# ("atom", text), ("mul", outer, inner), ("add", a, b) or ("pow", base, k)
TREES = st.recursive(
    ATOMS.map(lambda text: ("atom", text)),
    lambda sub: st.one_of(
        st.tuples(st.just("mul"), sub, sub),
        st.tuples(st.just("add"), sub, sub),
        st.tuples(st.just("pow"), sub, st.integers(min_value=0, max_value=3))),
    max_leaves=4)


def reference_compose(outer, inner):
    """outer after inner by applying outer's table to each inner row."""
    rows = inner.images
    eff = -1
    for row in rows:
        if not row.is_zero and row.degree > outer.cap:
            break
        eff += 1
    if eff < 0:
        raise CapExceededError(
            "composition has no usable cap (outer table too short)",
            outer_cap=outer.cap, inner_cap=inner.cap)
    return GradedOperator([outer.apply(rows[n]) for n in range(eff + 1)], eff)


def reference_power(base, k):
    out = GradedOperator.identity(base.cap)
    for _ in range(k):
        out = reference_compose(out, base)
    return out


def library(ctx):
    """The tree's operator as the library builds it."""
    def build(tree):
        if tree[0] == "atom":
            return parse_operator(tree[1], ctx)
        a = build(tree[1])
        if tree[0] == "pow":
            return a ** tree[2]
        b = build(tree[2])
        return a.compose(b) if tree[0] == "mul" else a + b
    return build


def reference(ctx):
    """The tree's operator from plain copies of the atoms' tables."""
    def build(tree):
        if tree[0] == "atom":
            atom = parse_operator(tree[1], ctx)
            return GradedOperator(atom.images, atom.cap)
        a = build(tree[1])
        if tree[0] == "pow":
            return reference_power(a, tree[2])
        b = build(tree[2])
        return reference_compose(a, b) if tree[0] == "mul" else a + b
    return build


def attempt(fn, arg):
    """fn(arg), or the CapExceededError it raised."""
    try:
        return fn(arg)
    except CapExceededError as exc:
        return exc


def describe(result):
    """An operator's cap and rows, or an error's message and details."""
    if isinstance(result, CapExceededError):
        return "CapExceededError", str(result), result.details
    return "ok", result.cap, result.images


def outcome(build, tree):
    return describe(attempt(build, tree))


def is_weighted_shift(op):
    """Does every nonzero row of op hold one term, all at one shift?"""
    shifts = {(row.degree - n, sum(1 for c in row.coeffs if c))
              for n, row in enumerate(op.images) if not row.is_zero}
    return len(shifts) <= 1 and all(terms == 1 for _, terms in shifts)


@given(st.sampled_from(sorted(WEIGHTS)), st.integers(min_value=0, max_value=24),
       TREES, TREES)
@settings(max_examples=200, deadline=None)
# zero rows past a shrunk outer cap do not end the table
@example("q=1/2", 5, ("pow", ("atom", "X"), 2), ("atom", "0*Dpsi^2"))
@example("squares", 4, ("atom", "Q[1/2]*X^3"), ("atom", "Q[0]"))
def test_compose_matches_applying_the_outer_table(weights, cap, outer, inner):
    ctx = OperatorContext(cap, WEIGHTS[weights])
    tree = ("mul", outer, inner)
    assert outcome(library(ctx), tree) == outcome(reference(ctx), tree)


@given(st.sampled_from(sorted(WEIGHTS)), st.integers(min_value=0, max_value=24),
       SCALARS, st.integers(min_value=0, max_value=4), TREES)
@settings(max_examples=80, deadline=None)
def test_composing_with_a_multiple_of_a_power_builds_none_of_its_rows(
        weights, cap, c, k, tree):
    ctx = OperatorContext(cap, WEIGHTS[weights])
    text = "%s*Dpsi^%d" % (c, k)
    try:
        other = library(ctx)(tree)
    except CapExceededError:
        assume(False)
    shift = is_weighted_shift(other)
    with pytest.MonkeyPatch.context() as patch:
        rows = counted_rows(patch)
        value = parse_operator(text, ctx)
        results = [attempt(other.compose, value)]
        # as the outer operand it builds its rows unless the inner is a shift
        if shift:
            results.append(attempt(value.compose, other))
        built = list(rows)
    assert built == []
    atom = ("atom", text)
    pairs = [(tree, atom), (atom, tree)][: 1 + shift]
    assert [describe(r) for r in results] == [
        outcome(reference(ctx), ("mul", a, b)) for a, b in pairs]


# -- a shift value against its plain twin ---------------------------------

SHIFTS = st.one_of(
    st.sampled_from(["D", "X", "Xpsi", "Nhat", "D*X*D", "Xpsi*Dpsi"]),
    st.builds("Q[{}]".format, SCALARS),
    st.builds("Q[{}]*Dpsi".format, SCALARS),
    st.builds("(X*D)^{}".format, st.integers(min_value=0, max_value=4)),
)
# shift, series and plain partners
PARTNERS = st.one_of(SHIFTS, st.sampled_from(
    ["Dpsi", "Delta", "3*Dpsi^2", "E[-1/2]", "X + D", "Nhat - Dpsi"]))
FORMS = ["as is", "times", "times on the left", "negated", "truncated"]


def answer(fn, *args):
    """What fn returns, an operator as its cap and rows and a series as its
    cap and coefficients, or the type, message and details of what it
    raised."""
    try:
        got = fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc).__name__, str(exc), getattr(exc, "details", None)
    if isinstance(got, GradedOperator):
        return "ok", got.cap, got.images
    if isinstance(got, TruncatedSeries):
        return "ok", got.cap, got.coeffs
    return "ok", got


def twins(op, form, c, cap):
    """op made into ``form``, and the same made from a plain copy of op."""
    plain = GradedOperator(op.images, op.cap)
    if form == "times":
        return op * c, plain * c
    if form == "times on the left":
        return c * op, c * plain
    if form == "negated":
        return -op, -plain
    if form == "truncated" and cap <= op.cap:
        return op.truncated(cap), plain.truncated(cap)
    return op, plain


@given(st.sampled_from(["classical", "q=-2", "negative"]),
       st.integers(min_value=0, max_value=24), SHIFTS, st.sampled_from(FORMS),
       SCALARS, st.integers(min_value=0, max_value=24), PARTNERS,
       st.integers(min_value=0, max_value=3), st.lists(SCALARS, max_size=27))
@settings(max_examples=150, deadline=None)
@example("q=-2", 6, "D", "as is", Fraction(1), 0, "Dpsi", 2, [1, 2, 3])
@example("negative", 5, "Q[0]", "times", Fraction(0), 0, "X", 1, [1])
@example("classical", 0, "D*X*D", "as is", Fraction(1), 0, "X", 0, [])
def test_a_shift_value_answers_as_its_plain_twin(weights, cap, text, form, c,
                                                 n, partner, k, coeffs):
    psi = WEIGHTS[weights]
    ctx = OperatorContext(cap, psi)
    try:
        base = parse_operator(text, ctx)
        other = parse_operator(partner, ctx)
    except CapExceededError:
        # X raises the degree, so X*D has no usable cap at cap 0
        assume(False)
    # under classical weights D is a series value
    assume(isinstance(base, ShiftOperator))
    op, made = twins(base, form, c, n)
    assert isinstance(op, ShiftOperator)
    plain = GradedOperator(op.images, op.cap)
    assert answer(lambda: made) == answer(lambda: plain)
    for b in (other, GradedOperator(other.images, other.cap)):
        assert answer(op.compose, b) == answer(plain.compose, b)
        assert answer(b.compose, op) == answer(b.compose, plain)
        assert (op == b, b == op) == (plain == b, b == plain)
    assert op == plain and plain == op
    assert answer(op.__pow__, k) == answer(plain.__pow__, k)
    p = Polynomial(coeffs)
    assert answer(op.apply, p) == answer(plain.apply, p)
    assert answer(op, p) == answer(plain, p)
    for fn in (lambda t: shift_invariant_coefficients(t, psi),
               lambda t: detect_psi_series(t).to_json(),
               lambda t: basic_sequence_solve(t, psi, min(n, t.cap)).polys,
               lambda t: _require_lowers_by_one(t, n, "base "),
               lambda t: _require_lowers_by_one(t, t.cap + 1, "")):
        assert answer(fn, op) == answer(fn, plain)


def test_shifts_compare_on_their_weights(monkeypatch):
    # row n of a shift is w_n x^(n+s): two shifts' rows agree where both
    # weights are zero, whatever the shifts, or where the weights and the
    # shifts agree, and no row is built to say so
    built = counted_rows(monkeypatch)
    row = ShiftOperator._row
    monkeypatch.setattr(ShiftOperator, "_row", lambda self, n: (
        built.append(n) or row(self, n)))
    zero = [(0, 1)] * 5
    d = ShiftOperator([(0, 1), (1, 1), (2, 1)], -1, 2)
    assert ShiftOperator(zero, -2, 4) == ShiftOperator(zero, 3, 4)
    assert ShiftOperator(zero, 0, 4) == ShiftOperator(zero[:3], -1, 2)
    assert d == ShiftOperator([(0, 1), (1, 1), (2, 1), (5, 3)], -1, 3)
    # a series value c z^k is compared as the shift it is, either way round
    z = psi_derivative_op(PsiSequence.classical(4), 4)
    assert d == z and z == d and ShiftOperator(zero, 2, 4) == 0 * z
    assert built == []
    # a difference falls back to rows, which differ
    assert d != ShiftOperator([(0, 1), (1, 1), (3, 1)], -1, 2)
    assert d != ShiftOperator([(0, 1), (1, 1), (2, 1)], 0, 2)
    assert d != ShiftOperator(zero, -1, 4)
    assert d != 2 * z and 2 * z != d
    # a shift against its plain twin, either way round, compares rows
    for op in (d, ShiftOperator(zero, 2, 4)):
        plain = GradedOperator(op.images, op.cap)
        assert op == plain and plain == op
    assert ShiftOperator(zero, 1, 4) == GradedOperator([Polynomial()] * 5)
