"""Shift-invariant operators kept as series in the weighted derivative.

The parser returns a ``SeriesOperator`` for Dpsi, Delta, E[y], rationals
and (under classical weights) D, and keeps sums, products and powers of
them as series.  Each expression here is checked against a series worked
out in this file on plain Fraction lists, against the readout gate on a
plain-table copy, and against detection on that copy.
"""

import random
from fractions import Fraction

import pytest

from psi_umbral import cli, operators
from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.errors import CapExceededError, NotShiftInvariantError
from psi_umbral.expansion import detect_psi_series, first_expansion_coeffs
from psi_umbral.exprparse import OperatorContext, parse_operator
from psi_umbral.operators import (GradedOperator, SeriesOperator,
                                  forward_difference_op, invert_shift_invariant,
                                  multiply_x_op, operator_from_series,
                                  shift_invariant_coefficients)
from psi_umbral.psi import PsiSequence
from psi_umbral.umbral import DeltaOperator

CAP = 10

WEIGHTS = {
    "classical": lambda: PsiSequence.classical(CAP),
    "q=1/2": lambda: PsiSequence.jackson(Fraction(1, 2), CAP),
    "q=2": lambda: PsiSequence.jackson(2, CAP),
    "squares": lambda: PsiSequence.custom([n * n for n in range(1, CAP + 2)]),
    "custom": lambda: PsiSequence.custom(
        [Fraction(3, 2), -1, 5, Fraction(-2, 7), 4, 1, Fraction(9, 4), -3, 2,
         Fraction(1, 5)]),
}


def mul(a, b):
    """Product of two coefficient lists, truncated at CAP."""
    out = [Fraction(0)] * (CAP + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= CAP:
                out[i + j] += x * y
    return out


def shift_exp(psi, y):
    """sum_k y^k z^k / k_psi!, the coefficients of E[y]."""
    return [Fraction(y) ** k / psi.factorial(k) for k in range(CAP + 1)]


def delta(psi):
    return [Fraction(0)] + shift_exp(psi, 1)[1:]


# expression -> its coefficients as a series in the weighted derivative
EXPECTED = {
    "Dpsi": lambda psi: [0, 1],
    "Delta": delta,
    "E[1/2]": lambda psi: shift_exp(psi, Fraction(1, 2)),
    "E[-1/2]": lambda psi: shift_exp(psi, Fraction(-1, 2)),
    "E[2] - 1": lambda psi: [Fraction(0)] + shift_exp(psi, 2)[1:],
    "Dpsi + Dpsi*Dpsi": lambda psi: [0, 1, 1],
    "2*Delta^3": lambda psi: [2 * c for c in
                              mul(mul(delta(psi), delta(psi)), delta(psi))],
    "-E[2]": lambda psi: [-c for c in shift_exp(psi, 2)],
    # D is the weighted derivative, and so a series, only in classical weights
    "D*E[1]": lambda psi: mul([0, 1], shift_exp(psi, 1)),
}
CASES = [(text, w) for text in EXPECTED for w in WEIGHTS
         if text != "D*E[1]" or w == "classical"]


def outcome(fn, *args):
    """The result of fn, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison is the point
        return type(exc).__name__, str(exc)


def detection(op):
    kind, result = outcome(detect_psi_series, op)
    return (kind, result.to_json()) if kind == "ok" else (kind, result)


def delta_indicator(op, psi):
    kind, result = outcome(DeltaOperator.from_operator, op, psi)
    return (kind, result.indicator.coeffs) if kind == "ok" else (kind, result)


@pytest.mark.parametrize("text, weights", CASES)
def test_series_value_agrees_with_the_plain_table(text, weights):
    psi = WEIGHTS[weights]()
    value = parse_operator(text, OperatorContext(CAP, psi))
    assert isinstance(value, SeriesOperator) and value.psi is psi
    want = EXPECTED[text](psi)
    assert value.series.coeffs == tuple(
        Fraction(c) for c in want + [0] * (CAP + 1 - len(want)))
    plain = operator_from_series(want, psi, CAP)
    assert type(plain) is GradedOperator
    assert value.cap == CAP and value.images == plain.images
    copy = GradedOperator(value.images, CAP)
    assert shift_invariant_coefficients(copy, psi).coeffs == value.series.coeffs
    assert detection(value) == detection(copy)
    assert delta_indicator(value, psi) == delta_indicator(copy, psi)


@pytest.mark.parametrize("text", sorted(EXPECTED))
def test_series_value_with_other_weights_goes_through_the_gate(text):
    ctx = OperatorContext(CAP, PsiSequence.classical(CAP))
    value = parse_operator(text, ctx)
    copy = GradedOperator(value.images, CAP)
    # an equal weights object that is not the value's own is read like a table
    twin = PsiSequence.classical(CAP)
    assert (shift_invariant_coefficients(value, twin).coeffs
            == shift_invariant_coefficients(copy, twin).coeffs
            == value.series.coeffs)
    other = PsiSequence.jackson(2, CAP)
    with pytest.raises(NotShiftInvariantError) as on_table:
        shift_invariant_coefficients(copy, other)
    with pytest.raises(NotShiftInvariantError) as on_value:
        shift_invariant_coefficients(value, other)
    assert on_value.value.details == on_table.value.details


def test_mixing_with_a_table_gives_the_table_composition():
    psi = WEIGHTS["q=1/2"]()
    ctx = OperatorContext(CAP, psi)
    d = parse_operator("Dpsi", ctx)
    x = multiply_x_op(CAP)
    plain = operator_from_series((0, 1), psi, CAP)
    for got, want in ((x * d, x.compose(plain)), (d * x, plain.compose(x)),
                      (x + d, x + plain), (d - x, plain - x)):
        assert type(got) is GradedOperator
        assert got.cap == want.cap and got.images == want.images
    assert type(parse_operator("Dpsi*Xpsi", ctx)) is GradedOperator
    # D is a series only in classical weights
    assert type(parse_operator("D", ctx)) is GradedOperator
    # a series in another weights object, even an equal one, gives a table
    twin = parse_operator("Dpsi", OperatorContext(CAP, WEIGHTS["q=1/2"]()))
    assert isinstance(twin, SeriesOperator)
    assert type(d + twin) is GradedOperator
    assert (d + twin).images == (plain + plain).images


def test_weights_are_read_where_the_table_read_them():
    psi = PsiSequence.custom([1, 2, 3])
    with pytest.raises(CapExceededError, match="no value at n=4"):
        parse_operator("Dpsi", OperatorContext(8, psi))
    # a rational reads no weight, as the constant table did
    three = parse_operator("3", OperatorContext(8, psi))
    assert isinstance(three, SeriesOperator)
    assert three.images == GradedOperator.scalar(3, 8).images
    with pytest.raises(CapExceededError, match="no value at n=4"):
        parse_operator("3*Dpsi", OperatorContext(8, psi))


def counted_rows(monkeypatch):
    """A list that gains one entry per row built from a series from now on."""
    calls = []
    make = operators._series_rule

    def counting_make(*args):
        rule = make(*args)

        def counting(n):
            calls.append(n)
            return rule(n)
        return counting

    monkeypatch.setattr(operators, "_series_rule", counting_make)
    return calls


def test_basic_on_a_series_builds_only_the_rows_it_reads(monkeypatch, capsys):
    rows = counted_rows(monkeypatch)
    tables = []
    build = GradedOperator.from_monomial_rule.__func__
    monkeypatch.setattr(GradedOperator, "from_monomial_rule", classmethod(
        lambda cls, rule, cap: tables.append(cap) or build(cls, rule, cap)))
    n = 2
    assert cli.main(["basic", "--op", "Dpsi", "--n", str(n),
                     "--cap", "6000"]) == 0
    out = capsys.readouterr().out
    assert "p_2  = x^2   [closed form ok]" in out
    assert len(rows) <= n + 2
    assert tables == []


def test_rows_are_built_once_and_the_table_is_kept(monkeypatch):
    rows = counted_rows(monkeypatch)
    psi = WEIGHTS["squares"]()
    op = forward_difference_op(psi, CAP)
    op.image(3)
    op.image(3)
    assert rows == [3]
    table = op.images
    assert op.images is table
    op.apply(Polynomial.monomial(CAP))
    assert sorted(rows) == list(range(CAP + 1))


def test_first_expansion_reverts_the_indicator_once(monkeypatch):
    psi = WEIGHTS["q=2"]()
    d = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    reverted = []
    reversion = type(d.indicator).reversion
    monkeypatch.setattr(type(d.indicator), "reversion",
                        lambda self: reverted.append(1) or reversion(self))
    ts = [parse_operator(text, OperatorContext(CAP, psi))
          for text in ("Delta", "Delta^2 + 3", "E[2]")]
    got = [first_expansion_coeffs(GradedOperator(t.images, CAP), d)
           for t in ts]
    assert reverted == [1]
    assert got[0].coeffs == (0, 1) + (0,) * (CAP - 1)
    assert got[1].coeffs == (3, 0, 1) + (0,) * (CAP - 2)


def test_gate_on_a_failing_table_builds_model_rows_up_to_its_witness(
        monkeypatch):
    psi = PsiSequence.classical(40)
    table = parse_operator("D*X*D", OperatorContext(40, psi))
    assert type(table) is GradedOperator and table.cap == 40
    rows = counted_rows(monkeypatch)
    with pytest.raises(NotShiftInvariantError) as err:
        shift_invariant_coefficients(table, psi)
    assert err.value.details == {"n": 2, "k": 1}
    assert len(rows) <= 3


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_delta_operator_from_a_plain_table_is_a_series_value(weights):
    psi = WEIGHTS[weights]()
    table = GradedOperator(forward_difference_op(psi, CAP).images, CAP)
    d = DeltaOperator.from_operator(table, psi)
    assert isinstance(d, SeriesOperator) and d.psi is psi
    assert d.cap == CAP and d.images == table.images
    assert d.op is d and d.indicator is d.series


def test_delta_operator_keeps_the_rows_its_gate_matched(monkeypatch):
    psi = PsiSequence.classical(40)
    table = GradedOperator(forward_difference_op(psi, 40).images, 40)
    rows = counted_rows(monkeypatch)
    d = DeltaOperator.from_operator(table, psi)
    counts = [len(rows)]
    d.basic(8)
    counts.append(len(rows))
    assert d.images == table.images
    counts.append(len(rows))
    assert counts == [41, 41, 41]


@pytest.mark.parametrize("c", [3, Fraction(-1, 2)])
def test_scalar_multiples_are_series_values_on_both_sides(c):
    psi = WEIGHTS["q=1/2"]()
    v = parse_operator("Delta + Dpsi^2", OperatorContext(CAP, psi))
    plain = GradedOperator(v.images, CAP)
    for got in (c * v, v * c):
        assert type(got) is SeriesOperator and got.psi is psi
        assert got.series == v.series * Fraction(c)
        assert got.cap == CAP and got.images == (plain * c).images


def test_arithmetic_on_a_delta_operator_gives_a_plain_series_value():
    psi = WEIGHTS["q=2"]()
    d = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    assert type(d) is DeltaOperator
    for got, series in ((2 * d, d.series * Fraction(2)),
                        (d + d, d.series + d.series),
                        (d ** 2, d.series.power(2))):
        assert type(got) is SeriesOperator and got.psi is psi
        assert got.series == series


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_inverse_is_a_series_value_and_inverts_the_table(weights):
    psi = WEIGHTS[weights]()
    s = parse_operator("E[2] + Dpsi", OperatorContext(CAP, psi))
    inv = invert_shift_invariant(GradedOperator(s.images, CAP), psi)
    assert isinstance(inv, SeriesOperator) and inv.psi is psi
    identity = GradedOperator.identity(CAP)
    assert GradedOperator(s.images, CAP).compose(inv) == identity
    assert inv.compose(GradedOperator(s.images, CAP)) == identity
    assert (s * inv).images == identity.images


@pytest.mark.parametrize("text, weights", CASES)
def test_truncation_is_a_series_value_with_the_same_weights(text, weights):
    psi = WEIGHTS[weights]()
    value = parse_operator(text, OperatorContext(CAP, psi))
    copy = GradedOperator(value.images, CAP)
    for cap in (0, 1, 4, CAP):
        cut = value.truncated(cap)
        assert isinstance(cut, SeriesOperator) and cut.psi is psi
        assert cut.series == value.series.truncated(cap)
        assert cut.cap == cap and cut.images == copy.truncated(cap).images
        assert cut == copy and copy.truncated(cap) == value
        plain = GradedOperator(cut.images, cap)
        assert (shift_invariant_coefficients(cut, psi).coeffs
                == shift_invariant_coefficients(plain, psi).coeffs)
        assert detection(cut) == detection(plain)
    for cap in (CAP + 1, -1):
        assert outcome(value.truncated, cap) == outcome(copy.truncated, cap)


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_series_values_in_one_weights_object_compare_by_series(weights):
    # the same verdict as their rows at the common cap, with no row built
    psi = WEIGHTS[weights]()
    texts = [("Delta", 10), ("Delta", 6), ("E[1] - 1", 8), ("Dpsi", 10),
             ("Delta + Dpsi^7", 10), ("Delta + 2*Dpsi^6", 10)]

    def value(i):
        return parse_operator(texts[i][0], OperatorContext(texts[i][1], psi))

    verdicts = set()
    for i in range(len(texts)):
        for j in range(len(texts)):
            a, b = value(i), value(j)
            same = a == b
            assert not (a._rows or b._rows)
            cap = min(a.cap, b.cap)
            assert same == (a.images[: cap + 1] == b.images[: cap + 1])
            verdicts.add(same)
    assert verdicts == {True, False}


def test_other_weights_and_plain_tables_compare_by_rows():
    psi = PsiSequence.jackson(Fraction(1, 2), CAP)
    other = PsiSequence.jackson(2, CAP)
    series = parse_operator("Delta", OperatorContext(CAP, psi)).series
    cases = [(SeriesOperator(series, PsiSequence.jackson(Fraction(1, 2), CAP)),
              True),
             (SeriesOperator(series, other), False),
             (operator_from_series(series, psi, CAP), True),
             (operator_from_series(series, other, CAP), False)]
    for b, equal in cases:
        a = SeriesOperator(series, psi)
        assert (a == b) is equal and (b == a) is equal
        assert a._rows


# -- rows in any order ----------------------------------------------------

LAZY_CAP = 40
LAZY_WEIGHTS = {
    "q=1/2": lambda: PsiSequence.jackson(Fraction(1, 2), LAZY_CAP),
    "negative custom": lambda: PsiSequence.custom(
        [Fraction((-1) ** n * (n + 2), n % 4 + 1)
         for n in range(1, LAZY_CAP + 1)]),
}
SHAPES = {
    "sparse": [0, Fraction(1, 3)] + [0] * 8 + [Fraction(-2, 7)]
              + [0] * 25 + [5],
    "dense": [Fraction((-1) ** k * (k + 1), 2 * k + 3)
              for k in range(LAZY_CAP + 1)],
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("weights", sorted(LAZY_WEIGHTS))
def test_rows_read_in_any_order_equal_the_plain_table(weights, shape):
    psi = LAZY_WEIGHTS[weights]()
    series = TruncatedSeries(SHAPES[shape], LAZY_CAP)
    want = operator_from_series(series, psi, LAZY_CAP).images
    down = SeriesOperator(series, psi)
    assert [down.image(n) for n in range(LAZY_CAP, -1, -1)] == list(
        reversed(want))
    top_first = SeriesOperator(series, psi)
    assert top_first.image(LAZY_CAP) == want[LAZY_CAP]
    assert top_first.images == want
    order = list(range(LAZY_CAP + 1))
    random.Random(7).shuffle(order)
    mixed = SeriesOperator(series, psi)
    assert [mixed.image(n) for n in order] == [want[n] for n in order]
